"""Tests for preparations, localized-basis projections and coherence tools."""

import math

import numpy as np
import pytest

from sloccsim.discrimination import Povm, apply_phase, optimal_povm
from sloccsim.states import (
    BASIS_SPINS,
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
    dephase,
    is_incoherent,
    project_distinguishable,
    project_mixed,
    project_pure,
    project_superposition,
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
        dephased = dephase(rho)
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
        assert is_incoherent(out, tol=1e-14)
        np.testing.assert_allclose(sorted(out.diagonal()), sorted(diag), atol=1e-14)


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
        "dephase": dephase(mixed),
        "cnot_slocc": cnot_slocc(mixed),
        "apply_phase": apply_phase(random_channel(rng), 2, state),
        "optimal_povm": optimal_povm(random_channel(rng), state).povm,
    }


@pytest.mark.parametrize("name", [
    "project_pure", "project_superposition", "project_mixed",
    "project_distinguishable", "dephase", "cnot_slocc", "apply_phase",
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
