"""Tests for the small dense complex linear algebra layer."""

import numpy as np
import pytest

from sloccsim.linalg import (
    PHASE_ANCHOR_TOL,
    eigh,
    eigh_stack,
    outer_stack,
)


def random_hermitian(rng, n=4):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return 0.5 * (m + m.conj().T)


def random_unit_vector(rng, n=4):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# outer_stack


def test_outer_basis_projector():
    e0 = np.array([1, 0], dtype=np.complex128)
    np.testing.assert_array_equal(outer_stack(e0, e0), [[1, 0], [0, 0]])


def test_outer_trace_equals_norm_squared():
    # independent oracle: plain summation of |u_i|^2, for each of a stack
    rng = np.random.default_rng(11)
    u = rng.normal(size=(25, 4)) + 1j * rng.normal(size=(25, 4))
    traces = np.trace(outer_stack(u, u), axis1=-2, axis2=-1).real
    for vector, trace in zip(u, traces):
        direct = sum(abs(x) ** 2 for x in vector)
        assert trace == pytest.approx(direct, rel=1e-14)


def test_outer_dagger_swaps_arguments():
    rng = np.random.default_rng(12)
    u = random_unit_vector(rng)
    v = random_unit_vector(rng)
    np.testing.assert_allclose(outer_stack(u, v).conj().T, outer_stack(v, u),
                               atol=1e-15)


# ---------------------------------------------------------------------------
# eigh


def test_eigh_diagonal_matrix():
    pairs = eigh(np.diag([3.0, 1.0, 2.0, 0.0]))
    assert [p.value for p in pairs] == [3.0, 2.0, 1.0, 0.0]
    expected_positions = [0, 2, 1, 3]
    for pair, pos in zip(pairs, expected_positions):
        expected = np.zeros(4)
        expected[pos] = 1.0
        np.testing.assert_allclose(pair.vector, expected, atol=1e-12)


def test_eigh_two_level_exchange_matrix():
    pairs = eigh([[0, 1], [1, 0]])
    assert pairs[0].value == pytest.approx(1.0, abs=1e-12)
    assert pairs[1].value == pytest.approx(-1.0, abs=1e-12)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(pairs[0].vector, [s, s], atol=1e-12)
    np.testing.assert_allclose(pairs[1].vector, [s, -s], atol=1e-12)


def test_eigh_embedded_two_level_block():
    # same spectrum embedded in a 4x4: block on indices (1, 2)
    m = np.zeros((4, 4))
    m[1, 2] = m[2, 1] = 1.0
    pairs = eigh(m)
    values = sorted(p.value for p in pairs)
    np.testing.assert_allclose(values, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_eigh_random_hermitian_reconstruction():
    rng = np.random.default_rng(2024)
    worst_res = worst_orth = worst_trace = 0.0
    for _ in range(1000):
        m = random_hermitian(rng)
        pairs = eigh(m)
        vmat = np.column_stack([p.vector for p in pairs])
        lam = np.array([p.value for p in pairs])
        res = np.max(np.abs(m - vmat @ np.diag(lam) @ vmat.conj().T))
        orth = np.max(np.abs(vmat.conj().T @ vmat - np.eye(4)))
        tr = abs(np.trace(m).real - lam.sum())
        worst_res = max(worst_res, res)
        worst_orth = max(worst_orth, orth)
        worst_trace = max(worst_trace, tr)
    assert worst_res <= 1e-10
    assert worst_orth <= 1e-10
    assert worst_trace <= 1e-10


def test_eigh_matches_lapack_spectra():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = random_hermitian(rng)
        ours = sorted(p.value for p in eigh(m))
        reference = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(ours, reference, atol=1e-12)


def test_eigh_descending_order():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = [p.value for p in eigh(random_hermitian(rng))]
        assert values == sorted(values, reverse=True)


def test_eigh_rank_two_difference_spectrum():
    # 0.5*P1 - 0.5*P2 with orthogonal rank-1 projectors: spectrum
    # (+1/2, 0, 0, -1/2), worked out by hand.
    p1 = np.zeros((4, 4))
    p1[0, 0] = 1.0
    p2 = np.zeros((4, 4))
    p2[1, 1] = 1.0
    pairs = eigh(0.5 * p1 - 0.5 * p2)
    np.testing.assert_allclose([p.value for p in pairs],
                               [0.5, 0.0, 0.0, -0.5], atol=1e-14)


def test_eigh_projector_difference_sign_structure():
    # p1*P1 - p2*P2 has at most one strictly positive and one strictly
    # negative eigenvalue; the rest vanish.
    rng = np.random.default_rng(31)
    for _ in range(200):
        p1 = rng.uniform(0, 1)
        p2 = 1.0 - p1
        v1 = random_unit_vector(rng)
        v2 = random_unit_vector(rng)
        delta = p1 * np.outer(v1, v1.conj()) - p2 * np.outer(v2, v2.conj())
        values = np.array([p.value for p in eigh(delta)])
        assert np.sum(values > 1e-10) <= 1
        assert np.sum(values < -1e-10) <= 1
        middle = values[(values <= 1e-10) & (values >= -1e-10)]
        assert len(middle) >= 2
        np.testing.assert_allclose(middle, 0.0, atol=1e-10)


def test_eigh_degenerate_spectrum_stays_orthonormal():
    pairs = eigh(np.eye(4))
    vmat = np.column_stack([p.vector for p in pairs])
    np.testing.assert_allclose(vmat.conj().T @ vmat, np.eye(4), atol=1e-12)
    np.testing.assert_allclose([p.value for p in pairs], np.ones(4), atol=1e-14)


def test_eigh_eigenvector_residual():
    rng = np.random.default_rng(71)
    for _ in range(100):
        m = random_hermitian(rng)
        for value, vector in eigh(m):
            assert np.linalg.norm(m @ vector - value * vector) <= 1e-10
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eigh([[0, 1], [0, 0]])


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((2, 3)))


def test_eigh_rejects_non_finite():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        eigh(m)


def test_eigh_symmetrizes_roundoff_defect():
    rng = np.random.default_rng(13)
    m = random_hermitian(rng)
    bumped = m.copy()
    bumped[0, 1] += 1e-13  # within the admissible defect
    pairs = eigh(bumped)
    reference = sorted(p.value for p in eigh(m))
    np.testing.assert_allclose(sorted(p.value for p in pairs), reference, atol=1e-12)


def test_eigh_vectors_are_read_only():
    pairs = eigh(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        pairs[0].vector[0] = 5.0


def test_eigh_rejects_a_stack():
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((2, 4, 4)))


# ---------------------------------------------------------------------------
# eigh_stack


def random_hermitian_stack(rng, shape, n=4):
    m = (rng.uniform(-1, 1, (*shape, n, n))
         + 1j * rng.uniform(-1, 1, (*shape, n, n)))
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def test_eigh_stack_matches_per_matrix_eigh():
    rng = np.random.default_rng(41)
    stack = random_hermitian_stack(rng, (3, 5))
    values, vectors = eigh_stack(stack)
    assert values.shape == (3, 5, 4)
    assert vectors.shape == (3, 5, 4, 4)
    for index in np.ndindex(3, 5):
        pairs = eigh(stack[index])
        np.testing.assert_array_equal(values[index], [p.value for p in pairs])
        np.testing.assert_array_equal(
            vectors[index], np.column_stack([p.vector for p in pairs]))


def test_eigh_stack_values_descend():
    rng = np.random.default_rng(42)
    values, _ = eigh_stack(random_hermitian_stack(rng, (200,)))
    assert np.all(np.diff(values, axis=-1) <= 0.0)


def test_eigh_stack_anchor_entry_is_real_nonnegative():
    rng = np.random.default_rng(43)
    stack = random_hermitian_stack(rng, (100,))
    # eigenvectors with a zero leading entry: a complex 2x2 block on
    # indices (1, 2) plus a decoupled index 0
    block = np.zeros((4, 4), dtype=complex)
    block[0, 0] = 3.0
    block[1, 2] = 0.6 - 0.8j
    block[2, 1] = 0.6 + 0.8j
    block[3, 3] = -2.0
    stack[0] = block
    _, vectors = eigh_stack(stack)
    rows = vectors.swapaxes(-1, -2)
    first = np.argmax(np.abs(rows) > PHASE_ANCHOR_TOL, axis=-1)
    anchors = np.take_along_axis(rows, first[..., None], axis=-1)[..., 0]
    assert np.all(anchors.imag == 0.0)
    assert np.all(anchors.real > 0.0)
    # the block's two vectors (values +1 and -1) anchor at index 1
    np.testing.assert_array_equal(first[0], [0, 1, 1, 3])


def test_eigh_stack_vectors_are_read_only():
    rng = np.random.default_rng(44)
    _, vectors = eigh_stack(random_hermitian_stack(rng, (2,)))
    with pytest.raises(ValueError):
        vectors[0, 0, 0] = 1.0


def test_eigh_stack_rejects_one_non_hermitian_slice():
    rng = np.random.default_rng(45)
    stack = random_hermitian_stack(rng, (8,))
    stack[5, 0, 3] += 1e-6
    with pytest.raises(ValueError, match=r"not Hermitian: defect 1\.000e-06"):
        eigh_stack(stack)
