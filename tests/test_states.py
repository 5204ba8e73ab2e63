"""Tests for preparations, localized-basis projections and coherence tools."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim.discrimination import Povm, apply_phase, optimal_povm
from sloccsim.linalg import canonical_phase, hermitian_part
from sloccsim.states import (
    BASIS_SPINS,
    VANISHING_TOL,
    DensityMatrix4,
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    StateVector4,
    Statistics,
    VanishingProjection,
    basis_index,
    cnot_slocc,
    coherence_l1,
    is_incoherent,
    offdiagonal_max,
    project_distinguishable,
    project_distinguishable_stack,
    project_mixed,
    project_mixed_stack,
    project_pure,
    project_pure_stack,
    project_superposition,
    project_superposition_stack,
)

from helpers import random_amplitudes, random_channel, random_mixture

DOWN, UP = SpinLabel.DOWN, SpinLabel.UP
S = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# domain types


def test_overlap_amplitudes_reject_super_normalized():
    with pytest.raises(ValueError, match="exceeds 1"):
        OverlapAmplitudes(1.0, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError, match="exceeds 1"):
        OverlapAmplitudes(1.0, 0.0, 0.7, 0.8)


def test_overlap_amplitudes_allow_leakage():
    amps = OverlapAmplitudes(0.5, 0.5, 0.1, 0.1)
    assert abs(amps.l) ** 2 + abs(amps.r) ** 2 < 1.0


def test_overlap_amplitudes_reject_non_finite():
    with pytest.raises(ValueError, match="finite"):
        OverlapAmplitudes(float("nan"), 0, 0, 1)


def test_mixed_diagonal_requires_unit_sum():
    with pytest.raises(ValueError, match="sum to 1"):
        MixedDiagonal(weights=(0.5, 0.4, 0.0, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        MixedDiagonal(weights=(1.2, -0.2, 0.0, 0.0))


def test_spin_superposition_requires_unit_norm():
    with pytest.raises(ValueError, match="equal 1"):
        SpinSuperposition(up_amp=1.0, down_amp=1.0)


def test_statistics_eta():
    assert Statistics.BOSON.eta == 1
    assert Statistics.FERMION.eta == -1
    with pytest.raises(ValueError):
        Statistics.DISTINGUISHABLE.eta


def test_state_vector_requires_unit_norm():
    with pytest.raises(ValueError, match="unit norm"):
        StateVector4(entries=np.array([1.0, 1.0, 0, 0]), norm_sq_raw=1.0)


def test_basis_index_order():
    assert [basis_index(s, t) for s, t in BASIS_SPINS] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# project_pure


def test_project_pure_balanced_overlaps_bell_like():
    amps = OverlapAmplitudes.balanced()
    state = project_pure(PureProduct(DOWN, UP), amps, Statistics.BOSON)
    np.testing.assert_allclose(state.entries, [0, S, S, 0], atol=1e-14)
    assert state.norm_sq_raw == pytest.approx(0.5, abs=1e-14)


def test_project_pure_no_overlap_is_basis_state():
    amps = OverlapAmplitudes(l=1.0, r=0.0, l_prime=0.0, r_prime=1.0)
    state = project_pure(PureProduct(DOWN, UP), amps, Statistics.BOSON)
    np.testing.assert_allclose(state.entries, [0, 1, 0, 0], atol=1e-14)
    assert state.norm_sq_raw == pytest.approx(1.0, abs=1e-14)


def test_project_pure_fermion_equal_spins_vanishes():
    amps = OverlapAmplitudes.balanced()
    with pytest.raises(VanishingProjection):
        project_pure(PureProduct(DOWN, DOWN), amps, Statistics.FERMION)


def test_project_pure_boson_equal_spins():
    amps = OverlapAmplitudes.balanced()
    state = project_pure(PureProduct(DOWN, DOWN), amps, Statistics.BOSON)
    np.testing.assert_allclose(state.entries, [1, 0, 0, 0], atol=1e-14)
    assert state.norm_sq_raw == pytest.approx(1.0, abs=1e-14)


def test_project_pure_rejects_distinguishable():
    with pytest.raises(ValueError, match="boson or fermion"):
        project_pure(PureProduct(DOWN, UP), OverlapAmplitudes.balanced(),
                     Statistics.DISTINGUISHABLE)


def test_project_pure_exchange_consistency():
    # Swapping which wavefunction carries which spin (and the amplitude
    # roles with it) changes the state by at most the exchange phase, so
    # the induced projectors must agree.
    rng = np.random.default_rng(42)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for _ in range(50):
            amps = random_amplitudes(rng)
            swapped = OverlapAmplitudes(l=amps.l_prime, r=amps.r_prime,
                                        l_prime=amps.l, r_prime=amps.r)
            for first, second in ((DOWN, UP), (UP, DOWN), (DOWN, DOWN)):
                try:
                    a = project_pure(PureProduct(first, second), amps, stats)
                    b = project_pure(PureProduct(second, first), swapped, stats)
                except VanishingProjection:
                    continue
                np.testing.assert_allclose(a.projector(), b.projector(), atol=1e-12)
                assert a.norm_sq_raw == pytest.approx(b.norm_sq_raw, rel=1e-12)


# ---------------------------------------------------------------------------
# project_mixed


def test_project_mixed_no_overlap_single_component():
    amps = OverlapAmplitudes(l=0.9, r=0.0, l_prime=0.0, r_prime=0.8)
    rho = project_mixed(MixedDiagonal(weights=(0, 1, 0, 0)), amps, Statistics.BOSON)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(rho.mat, expected, atol=1e-14)
    assert is_incoherent(rho)


def test_project_mixed_matches_pure_projector():
    rng = np.random.default_rng(3)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for _ in range(50):
            amps = random_amplitudes(rng)
            for k, (s, t) in enumerate(BASIS_SPINS):
                weights = [0.0] * 4
                weights[k] = 1.0
                try:
                    state = project_pure(PureProduct(s, t), amps, stats)
                    rho = project_mixed(MixedDiagonal(weights=tuple(weights)),
                                        amps, stats)
                except VanishingProjection:
                    continue
                np.testing.assert_allclose(rho.mat, state.projector(), atol=1e-12)
                assert rho.trace_raw == pytest.approx(state.norm_sq_raw, rel=1e-12)


def test_project_mixed_equal_spin_weights_diagonal():
    amps = OverlapAmplitudes.balanced()
    rho = project_mixed(MixedDiagonal(weights=(0.5, 0, 0, 0.5)), amps,
                        Statistics.BOSON)
    assert is_incoherent(rho)


def test_project_mixed_balanced_has_half_coherences():
    amps = OverlapAmplitudes.balanced()
    rho = project_mixed(MixedDiagonal(weights=(0, 1, 0, 0)), amps, Statistics.BOSON)
    assert rho.mat[1, 2] == pytest.approx(0.5, abs=1e-14)
    assert rho.mat[2, 1] == pytest.approx(0.5, abs=1e-14)
    assert not is_incoherent(rho)


def test_project_mixed_coherent_iff_overlapping():
    rng = np.random.default_rng(17)
    spin_mix = MixedDiagonal(weights=(0.1, 0.5, 0.3, 0.1))
    for _ in range(20):
        overlapping = random_amplitudes(rng, min_overlap=0.05)
        rho = project_mixed(spin_mix, overlapping, Statistics.FERMION)
        assert not is_incoherent(rho)
        separated = overlapping.without_overlap()
        rho0 = project_mixed(spin_mix, separated, Statistics.FERMION)
        assert is_incoherent(rho0)


def test_project_mixed_fermion_fully_overlapping_equal_spins_vanishes():
    amps = OverlapAmplitudes.balanced()
    with pytest.raises(VanishingProjection):
        project_mixed(MixedDiagonal(weights=(1, 0, 0, 0)), amps, Statistics.FERMION)


# ---------------------------------------------------------------------------
# project_superposition


def test_project_superposition_pure_up_limit():
    rng = np.random.default_rng(5)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for _ in range(25):
            amps = random_amplitudes(rng)
            sup = project_superposition(SpinSuperposition(1.0, 0.0), amps, stats)
            pure = project_pure(PureProduct(DOWN, UP), amps, stats)
            np.testing.assert_allclose(sup.entries, pure.entries, atol=1e-12)
            assert sup.norm_sq_raw == pytest.approx(pure.norm_sq_raw, rel=1e-12)


def test_project_superposition_fermion_kills_down_down():
    amps = OverlapAmplitudes.balanced()
    state = project_superposition(SpinSuperposition(S, S), amps, Statistics.FERMION)
    assert state.entries[0] == pytest.approx(0.0, abs=1e-14)
    assert state.entries[3] == pytest.approx(0.0, abs=1e-14)


def test_project_superposition_boson_balanced_amplitudes():
    # direct evaluation of the projection formula at l = r = l' = r' = 1/sqrt(2),
    # up_amp = down_amp = 1/sqrt(2), eta = +1:
    #   raw = (1/sqrt2 * 1, 1/sqrt2 * 1/2, 1/sqrt2 * 1/2, 0), N^2 = 3/4
    amps = OverlapAmplitudes.balanced()
    state = project_superposition(SpinSuperposition(S, S), amps, Statistics.BOSON)
    expected = np.array([math.sqrt(2.0 / 3.0), 1.0 / math.sqrt(6.0),
                         1.0 / math.sqrt(6.0), 0.0])
    np.testing.assert_allclose(state.entries, expected, atol=1e-14)
    assert state.norm_sq_raw == pytest.approx(0.75, abs=1e-14)


def test_project_superposition_matches_direct_formula():
    rng = np.random.default_rng(23)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        eta = stats.eta
        for _ in range(50):
            amps = random_amplitudes(rng)
            phi = rng.uniform(0, 2 * np.pi)
            a = math.cos(phi)
            b = math.sin(phi) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            direct = amps.l * amps.r_prime
            exchanged = amps.l_prime * amps.r
            raw = np.array([b * (direct + eta * exchanged), a * direct,
                            eta * a * exchanged, 0.0])
            norm_sq = float(np.vdot(raw, raw).real)
            if norm_sq < 1e-6:
                continue
            state = project_superposition(SpinSuperposition(a, b), amps, stats)
            assert state.norm_sq_raw == pytest.approx(norm_sq, rel=1e-12)
            np.testing.assert_allclose(state.projector(),
                                       np.outer(raw, raw.conj()) / norm_sq,
                                       atol=1e-12)


# ---------------------------------------------------------------------------
# project_distinguishable


def test_project_distinguishable_single_component():
    amps = OverlapAmplitudes(l=0.6, r=0.2, l_prime=0.3, r_prime=0.7)
    rho = project_distinguishable(MixedDiagonal(weights=(0, 1, 0, 0)), amps)
    np.testing.assert_allclose(rho.mat, np.diag([0, 1, 0, 0]), atol=1e-14)


def test_project_distinguishable_uniform():
    rho = project_distinguishable(MixedDiagonal(weights=(0.25,) * 4),
                                  OverlapAmplitudes.balanced())
    np.testing.assert_allclose(rho.mat, np.diag([0.25] * 4), atol=1e-14)


def test_project_distinguishable_always_incoherent():
    rng = np.random.default_rng(29)
    for _ in range(50):
        amps = random_amplitudes(rng)
        if abs(amps.l * amps.r_prime) ** 2 < 1e-6:
            continue
        rho = project_distinguishable(random_mixture(rng), amps)
        assert is_incoherent(rho)


def test_project_distinguishable_requires_cross_amplitudes():
    amps = OverlapAmplitudes(l=0.0, r=1.0, l_prime=0.0, r_prime=1.0)
    with pytest.raises(VanishingProjection):
        project_distinguishable(MixedDiagonal(weights=(0.25,) * 4), amps)


# ---------------------------------------------------------------------------
# coherence classification


def test_is_incoherent_diagonal():
    rho = project_distinguishable(MixedDiagonal(weights=(0.5, 0.5, 0, 0)),
                                  OverlapAmplitudes.balanced())
    assert is_incoherent(rho)
    assert coherence_l1(rho) == 0.0


def test_coherence_l1_bell_like_projector():
    amps = OverlapAmplitudes.balanced()
    rho = project_mixed(MixedDiagonal(weights=(0, 1, 0, 0)), amps, Statistics.BOSON)
    assert coherence_l1(rho) == pytest.approx(1.0, abs=1e-12)


def test_coherence_l1_dephasing_monotone():
    rng = np.random.default_rng(37)
    for _ in range(20):
        amps = random_amplitudes(rng)
        try:
            rho = project_mixed(random_mixture(rng), amps, Statistics.BOSON)
        except VanishingProjection:
            continue
        dephased = DensityMatrix4(mat=np.diag(np.diag(rho.mat)),
                                  trace_raw=rho.trace_raw)
        assert coherence_l1(dephased) == 0.0
        assert coherence_l1(dephased) <= coherence_l1(rho)
        assert is_incoherent(dephased)


# ---------------------------------------------------------------------------
# region-controlled NOT


def density(mat):
    return DensityMatrix4(mat=mat, trace_raw=1.0)


def test_cnot_permutes_basis_projector():
    up_down = np.zeros((4, 4), dtype=complex)
    up_down[2, 2] = 1.0
    rho = cnot_slocc(density(up_down))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    np.testing.assert_allclose(rho.mat, expected, atol=1e-14)


def test_cnot_preserves_diagonality():
    rng = np.random.default_rng(41)
    for _ in range(50):
        diag = rng.uniform(0, 1, 4)
        diag /= diag.sum()
        rho = density(np.diag(diag).astype(complex))
        out = cnot_slocc(rho)
        assert offdiagonal_max(out.mat) <= 1e-14
        np.testing.assert_allclose(sorted(np.diag(out.mat).real), sorted(diag),
                                   atol=1e-14)


def test_cnot_is_involution():
    rng = np.random.default_rng(43)
    for _ in range(20):
        amps = random_amplitudes(rng)
        try:
            rho = project_mixed(random_mixture(rng), amps, Statistics.BOSON)
        except VanishingProjection:
            continue
        back = cnot_slocc(cnot_slocc(rho))
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-14)


def test_cnot_preserves_spectrum():
    from sloccsim.linalg import eigh
    rng = np.random.default_rng(47)
    for _ in range(20):
        amps = random_amplitudes(rng)
        try:
            rho = project_mixed(random_mixture(rng), amps, Statistics.FERMION)
        except VanishingProjection:
            continue
        before = [p.value for p in eigh(rho.mat)]
        after = [p.value for p in eigh(cnot_slocc(rho).mat)]
        np.testing.assert_allclose(before, after, atol=1e-10)


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_statistics_irrelevant_without_overlap():
    rng = np.random.default_rng(53)
    for _ in range(30):
        amps = random_amplitudes(rng).without_overlap()
        if abs(amps.l * amps.r_prime) ** 2 < 1e-6:
            continue
        prep = PureProduct(DOWN, UP)
        boson = project_pure(prep, amps, Statistics.BOSON)
        fermion = project_pure(prep, amps, Statistics.FERMION)
        np.testing.assert_allclose(boson.entries, fermion.entries, atol=1e-12)
        mix = random_mixture(rng)
        rho_b = project_mixed(mix, amps, Statistics.BOSON)
        rho_f = project_mixed(mix, amps, Statistics.FERMION)
        np.testing.assert_allclose(rho_b.mat, rho_f.mat, atol=1e-12)
        assert is_incoherent(rho_b)


def test_projection_weights_bounded_by_one():
    rng = np.random.default_rng(59)
    for _ in range(50):
        amps = random_amplitudes(rng)
        try:
            state = project_pure(PureProduct(DOWN, UP), amps, Statistics.BOSON)
            assert 0.0 < state.norm_sq_raw <= 1.0 + 1e-12
            rho = project_mixed(random_mixture(rng), amps, Statistics.FERMION)
            assert 0.0 < rho.trace_raw <= 1.0 + 1e-12
        except VanishingProjection:
            continue


def test_global_phase_convention_deterministic():
    # complex amplitudes with a messy common phase still produce a first
    # significant entry that is real and nonnegative
    rng = np.random.default_rng(61)
    for _ in range(30):
        amps = random_amplitudes(rng)
        try:
            state = project_pure(PureProduct(DOWN, UP), amps, Statistics.FERMION)
        except VanishingProjection:
            continue
        first = next(x for x in state.entries if abs(x) > 1e-12)
        assert first.imag == pytest.approx(0.0, abs=1e-14)
        assert first.real >= 0.0


# ---------------------------------------------------------------------------
# internal constructors


def internally_built_values():
    rng = np.random.default_rng(29)
    amps = random_amplitudes(rng)
    mixed = project_mixed(random_mixture(rng), amps, Statistics.FERMION)
    state = project_superposition(SpinSuperposition(0.6, 0.8j), amps,
                                  Statistics.BOSON)
    return {
        "project_pure": project_pure(PureProduct(DOWN, UP), amps,
                                     Statistics.BOSON),
        "project_superposition": state,
        "project_mixed": mixed,
        "project_distinguishable": project_distinguishable(
            random_mixture(rng), amps),
        "cnot_slocc": cnot_slocc(mixed),
        "apply_phase": apply_phase(random_channel(rng), 2, state),
        "optimal_povm": optimal_povm(random_channel(rng), state).povm,
    }


@pytest.mark.parametrize("name", [
    "project_pure", "project_superposition", "project_mixed",
    "project_distinguishable", "cnot_slocc", "apply_phase",
    "optimal_povm"])
def test_internal_values_match_public_constructor(name):
    """Values the library builds without checks pass the public checks and
    store exactly what the public constructor would: read-only complex128
    arrays, symmetrized matrices, float weights."""
    value = internally_built_values()[name]
    if isinstance(value, StateVector4):
        public = StateVector4(entries=value.entries, norm_sq_raw=value.norm_sq_raw)
        pairs = [(value.entries, public.entries)]
        assert type(value.norm_sq_raw) is float
    elif isinstance(value, DensityMatrix4):
        public = DensityMatrix4(mat=value.mat, trace_raw=value.trace_raw)
        pairs = [(value.mat, public.mat)]
        assert type(value.trace_raw) is float
    else:
        public = Povm(elements=value.elements)
        pairs = list(zip(value.elements, public.elements))
    for stored, reference in pairs:
        assert stored.dtype == np.complex128
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, reference)


# ---------------------------------------------------------------------------
# stack kernels against the scalar formulas they replaced
#
# The reference functions below are the projections as they were written
# before they became single-instance calls of the stack kernels, in CPython
# complex arithmetic. Each stacked row must equal them byte for byte (so
# also in the sign of zeros, which reaches the printed output), and the
# scalar functions must raise the same VanishingProjection messages.


def reference_finish(raw, context):
    norm_sq = float(np.vdot(raw, raw).real)
    if norm_sq < VANISHING_TOL:
        raise VanishingProjection(
            f"projection of {context} has vanishing weight on the localized basis")
    return canonical_phase(raw / math.sqrt(norm_sq)), norm_sq


def reference_pure(prep, amps, eta):
    direct = amps.l * amps.r_prime
    exchanged = eta * amps.l_prime * amps.r
    raw = np.zeros(4, dtype=np.complex128)
    if prep.first == prep.second:
        raw[basis_index(prep.first, prep.first)] = direct + exchanged
    else:
        raw[basis_index(prep.first, prep.second)] = direct
        raw[basis_index(prep.second, prep.first)] = exchanged
    context = (f"spins ({prep.first.name.lower()}, {prep.second.name.lower()}) "
               f"with eta={eta:+d}")
    return reference_finish(raw, context)


def reference_superposition(prep, amps, eta):
    direct = amps.l * amps.r_prime
    exchanged = amps.l_prime * amps.r
    raw = np.zeros(4, dtype=np.complex128)
    raw[1] = prep.up_amp * direct
    raw[2] = prep.up_amp * eta * exchanged
    raw[0] = prep.down_amp * (direct + eta * exchanged)
    return reference_finish(raw, f"spin superposition with eta={eta:+d}")


def reference_mixed(prep, amps, eta):
    direct = amps.l * amps.r_prime
    exchanged = amps.l_prime * amps.r
    cross = eta * direct * exchanged.conjugate()
    mat = np.zeros((4, 4), dtype=np.complex128)
    for (s, t), weight in zip(BASIS_SPINS, prep.weights):
        if weight == 0.0:
            continue
        if s == t:
            mat[basis_index(s, s), basis_index(s, s)] += (
                weight * abs(direct + eta * exchanged) ** 2)
        else:
            i = basis_index(s, t)
            j = basis_index(t, s)
            mat[i, i] += weight * abs(direct) ** 2
            mat[j, j] += weight * abs(exchanged) ** 2
            mat[i, j] += weight * cross
            mat[j, i] += weight * cross.conjugate()
    trace = float(np.trace(mat).real)
    if trace < VANISHING_TOL:
        raise VanishingProjection(
            f"mixture with eta={eta:+d} has vanishing weight on the localized basis")
    return hermitian_part(mat / trace), trace


def reference_distinguishable(prep, amps):
    scale = abs(amps.l * amps.r_prime) ** 2
    if scale < VANISHING_TOL:
        raise VanishingProjection(
            "labelled particles need l and r_prime amplitudes to be found in "
            "the left and right regions")
    return hermitian_part(np.array(np.diag(prep.weights), dtype=np.complex128)), \
        scale


# |z| <= 0.7 keeps every pair of amplitudes admissible
AMPLITUDE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.5j, -0.5j, S]),
    st.complex_numbers(max_magnitude=0.7, allow_nan=False,
                       allow_infinity=False))
SPIN = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (S, S), (S, -S), (0.6, 0.8j),
                     (-0.8j, 0.6)]),
    st.tuples(AMPLITUDE, AMPLITUDE).filter(lambda z: abs(z[0]) + abs(z[1]) > 0.1)
    .map(lambda z: tuple(v / math.hypot(abs(z[0]), abs(z[1])) for v in z)))
WEIGHTS = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                     (0.0, 0.0, 0.5, 0.5), (0.25, 0.25, 0.25, 0.25)]),
    st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0.1)
    .map(lambda w: tuple(v / sum(w) for v in w)))
INSTANCE = st.fixed_dictionaries({
    "amps": st.tuples(AMPLITUDE, AMPLITUDE, AMPLITUDE, AMPLITUDE),
    "separated": st.booleans(),
    "eta": st.sampled_from([1, -1]),
    "spin": SPIN,
    "weights": WEIGHTS,
})


def same_bytes(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def check_row(reference, row, message_of):
    """Compare a stacked row (value, weight, vanishing) with the reference
    formula; message_of() raises the scalar function's exception."""
    value, weight, vanishing = row
    try:
        expected, expected_weight = reference()
    except VanishingProjection as exc:
        assert vanishing
        with pytest.raises(VanishingProjection) as raised:
            message_of()
        assert str(raised.value) == str(exc)
        return
    assert not vanishing
    assert same_bytes(value, expected)
    assert weight == expected_weight


# 0.353096 ** 2 (libm pow) differs from 0.353096 * 0.353096 in the last bit
POW_NOT_PRODUCT = 0.353096


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances=st.lists(INSTANCE, min_size=1, max_size=4),
       spins=st.sampled_from(BASIS_SPINS))
@example(instances=[{"amps": (POW_NOT_PRODUCT, 0.5, 0.0, 1.0),
                     "separated": False, "eta": -1, "spin": (0.6, 0.8j),
                     "weights": (0.1, 0.2, 0.3, 0.4)},
                    {"amps": (0.5, POW_NOT_PRODUCT, 1.0, 0.0),
                     "separated": False, "eta": 1, "spin": (S, S),
                     "weights": (0.1, 0.2, 0.3, 0.4)}],
         spins=(DOWN, UP))
def test_stacked_projections_are_the_scalar_formulas_bit_for_bit(instances,
                                                                 spins):
    games = []
    for instance in instances:
        amps = OverlapAmplitudes(*instance["amps"])
        games.append(amps.without_overlap() if instance["separated"] else amps)
    amps = tuple(np.array([getattr(g, name) for g in games])
                 for name in ("l", "r", "l_prime", "r_prime"))
    eta = np.array([instance["eta"] for instance in instances])
    spin = np.array([instance["spin"] for instance in instances]).T
    weights = np.array([instance["weights"] for instance in instances])
    stacks = {
        "pure": project_pure_stack(*spins, amps, eta),
        "superposition": project_superposition_stack(*spin, amps, eta),
        "mixed": project_mixed_stack(weights, amps, eta),
        "distinguishable": project_distinguishable_stack(weights, amps),
    }
    for i, (game, instance) in enumerate(zip(games, instances)):
        stats = Statistics.BOSON if instance["eta"] == 1 else Statistics.FERMION
        product = PureProduct(*spins)
        superposition = SpinSuperposition(*instance["spin"])
        mixture = MixedDiagonal(instance["weights"])
        cases = {
            "pure": (lambda: reference_pure(product, game, stats.eta),
                     lambda: project_pure(product, game, stats)),
            "superposition": (
                lambda: reference_superposition(superposition, game, stats.eta),
                lambda: project_superposition(superposition, game, stats)),
            "mixed": (lambda: reference_mixed(mixture, game, stats.eta),
                      lambda: project_mixed(mixture, game, stats)),
            "distinguishable": (
                lambda: reference_distinguishable(mixture, game),
                lambda: project_distinguishable(mixture, game)),
        }
        for name, (reference, scalar) in cases.items():
            check_row(reference, [part[i] for part in stacks[name]], scalar)
            try:
                value = scalar()
            except VanishingProjection:
                continue
            if isinstance(value, StateVector4):
                stored, weight = value.entries, value.norm_sq_raw
            else:
                stored, weight = value.mat, value.trace_raw
            assert same_bytes(stored, stacks[name][0][i])
            assert weight == stacks[name][1][i]
