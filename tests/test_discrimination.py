"""Tests for the phase-discrimination game: closed forms vs. the POVM oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    boson_fermion_errors,
    closed_form_reference,
    random_amplitudes,
    random_channel,
)

from sloccsim.discrimination import (
    PhaseChannel,
    Povm,
    _helstrom,
    _measurement_error,
    apply_phase,
    closed_form_error_balanced,
    closed_form_error_general,
    closed_form_error_general_columns,
    closed_form_error_product,
    dephase_channel_check,
    helstrom_error,
    optimal_povm,
)
from sloccsim.states import (
    VANISHING_TOL,
    DensityMatrix4,
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
    VanishingProjection,
    project_mixed,
    project_pure,
    project_superposition,
)

DOWN, UP = SpinLabel.DOWN, SpinLabel.UP
S = 1.0 / math.sqrt(2.0)
THIRD = 1.0 / 3.0


def balanced_state(stats=Statistics.BOSON):
    return project_pure(PureProduct(DOWN, UP), OverlapAmplitudes.balanced(), stats)


def channel(phi12, p1=THIRD, omega=(0.0, 1.0, 0.0, 0.0)):
    return PhaseChannel(omega=omega, phi=(phi12, 0.0), priors=(p1, 1.0 - p1))


# ---------------------------------------------------------------------------
# PhaseChannel / Povm types


def test_phase_channel_rejects_bad_priors():
    with pytest.raises(ValueError, match="sum to 1"):
        PhaseChannel(omega=(0, 1, 0, 0), phi=(0, 0), priors=(0.6, 0.6))
    with pytest.raises(ValueError, match="nonnegative"):
        PhaseChannel(omega=(0, 1, 0, 0), phi=(0, 0), priors=(1.4, -0.4))


def test_povm_rejects_incomplete_elements():
    half = 0.5 * np.eye(4)
    with pytest.raises(ValueError, match="identity"):
        Povm(elements=(half, half / 2))


def test_povm_rejects_negative_element():
    pos = np.diag([1.5, 1.0, 1.0, 1.0]).astype(complex)
    neg = np.eye(4) - pos
    with pytest.raises(ValueError, match="negative eigenvalue"):
        Povm(elements=(pos, neg))


def test_povm_rejects_non_hermitian():
    el = np.eye(4, dtype=complex)
    el[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        Povm(elements=(el, np.eye(4) - el))


# ---------------------------------------------------------------------------
# apply_phase


def test_apply_phase_zero_angle_is_identity():
    state = balanced_state()
    ch = PhaseChannel(omega=(3, 1, 4, 1), phi=(0.0, 0.0), priors=(0.5, 0.5))
    np.testing.assert_array_equal(apply_phase(ch, 1, state).entries, state.entries)


def test_apply_phase_multiplies_branch_phases():
    state = balanced_state()
    ch = PhaseChannel(omega=(0, 1.3, -0.4, 0), phi=(0.7, 0.0), priors=(0.5, 0.5))
    out = apply_phase(ch, 1, state)
    expected = state.entries * np.exp(1j * np.array([0, 1.3, -0.4, 0]) * 0.7)
    np.testing.assert_allclose(out.entries, expected, atol=1e-15)
    assert out.norm_sq_raw == state.norm_sq_raw


def test_apply_phase_uniform_generator_is_global_phase():
    state = balanced_state()
    ch = PhaseChannel(omega=(2.5,) * 4, phi=(0.9, 0.0), priors=(0.5, 0.5))
    out = apply_phase(ch, 1, state)
    np.testing.assert_allclose(out.entries,
                               np.exp(1j * 2.5 * 0.9) * state.entries, atol=1e-15)
    np.testing.assert_allclose(out.projector(), state.projector(), atol=1e-15)


def test_apply_phase_rejects_bad_index():
    with pytest.raises(ValueError, match="phase index"):
        apply_phase(channel(0.3), 3, balanced_state())


# ---------------------------------------------------------------------------
# dephase_channel_check


def test_dephase_check_diagonal_states():
    rng = np.random.default_rng(101)
    for _ in range(20):
        diag = rng.uniform(0, 1, 4)
        diag /= diag.sum()
        rho = DensityMatrix4(mat=np.diag(diag).astype(complex), trace_raw=1.0)
        assert dephase_channel_check(random_channel(rng), rho)


def test_dephase_check_coherent_input_reported_unchecked():
    rho = project_mixed(MixedDiagonal(weights=(0, 1, 0, 0)),
                        OverlapAmplitudes.balanced(), Statistics.BOSON)
    assert dephase_channel_check(channel(0.7), rho)


def test_dephase_check_uniform_generator():
    rho = DensityMatrix4(mat=np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex),
                         trace_raw=1.0)
    ch = PhaseChannel(omega=(1.1,) * 4, phi=(2.0, -1.0), priors=(0.5, 0.5))
    assert dephase_channel_check(ch, rho)


# ---------------------------------------------------------------------------
# _measurement_error, the error of a given two-element measurement


def hypotheses(ch, state):
    return (apply_phase(ch, 1, state).entries,
            apply_phase(ch, 2, state).entries)


def test_measurement_error_always_guess_one():
    ch = channel(1.1, p1=0.3)
    err = _measurement_error(ch.priors, np.eye(4), np.zeros((4, 4)),
                             *hypotheses(ch, balanced_state()))
    assert err == pytest.approx(0.7, abs=1e-14)


def test_measurement_error_always_guess_two():
    ch = channel(1.1, p1=0.3)
    err = _measurement_error(ch.priors, np.zeros((4, 4)), np.eye(4),
                             *hypotheses(ch, balanced_state()))
    assert err == pytest.approx(0.3, abs=1e-14)


def test_optimal_povm_error_matches_helstrom():
    rng = np.random.default_rng(7)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        state = project_pure(PureProduct(DOWN, UP), amps, Statistics.FERMION)
        outcome = optimal_povm(ch, state)
        reference = helstrom_error(ch.priors[0], ch.priors[1],
                                   apply_phase(ch, 1, state),
                                   apply_phase(ch, 2, state))
        assert outcome.p_err == pytest.approx(reference, abs=1e-10)


# ---------------------------------------------------------------------------
# optimal_povm


def test_optimal_povm_no_overlap_error_is_smaller_prior():
    amps = OverlapAmplitudes(l=S, r=0.0, l_prime=0.0, r_prime=S)
    state = project_pure(PureProduct(DOWN, UP), amps, Statistics.BOSON)
    for phi12 in np.linspace(0, 2 * math.pi, 13):
        outcome = optimal_povm(channel(float(phi12)), state)
        assert outcome.p_err == pytest.approx(THIRD, abs=1e-12)


def test_optimal_povm_identical_hypotheses():
    state = balanced_state()
    for p1 in (0.2, 0.5, 0.8):
        outcome = optimal_povm(channel(0.0, p1=p1), state)
        assert outcome.p_err == pytest.approx(min(p1, 1 - p1), abs=1e-12)


def test_optimal_povm_degenerate_guesses_more_probable_phase():
    state = balanced_state()
    outcome = optimal_povm(channel(0.0, p1=0.25), state)
    np.testing.assert_allclose(outcome.povm.elements[0], np.zeros((4, 4)),
                               atol=1e-14)
    assert outcome.p_err == pytest.approx(0.25, abs=1e-14)
    assert outcome.lambda_plus == pytest.approx(0.0, abs=1e-12)


def test_optimal_povm_lambda_plus_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(200):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        state = project_pure(PureProduct(DOWN, UP), amps, Statistics.BOSON)
        outcome = optimal_povm(ch, state)
        p1, p2 = ch.priors
        disc = max(1.0 - 4.0 * p1 * p2 * abs(outcome.overlap) ** 2, 0.0)
        lam_ref = 0.5 * (p1 - p2 + math.sqrt(disc))
        assert outcome.lambda_plus == pytest.approx(max(lam_ref, 0.0), abs=1e-10)


def test_optimal_povm_trace_identity():
    # p_err = p1 - Tr[(p1 P1 - p2 P2) Pi1]
    rng = np.random.default_rng(17)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        state = project_pure(PureProduct(DOWN, UP), amps, Statistics.FERMION)
        outcome = optimal_povm(ch, state)
        p1, p2 = ch.priors
        psi1 = apply_phase(ch, 1, state)
        psi2 = apply_phase(ch, 2, state)
        delta = p1 * psi1.projector() - p2 * psi2.projector()
        traced = p1 - np.trace(delta @ outcome.povm.elements[0]).real
        assert outcome.p_err == pytest.approx(traced, abs=1e-10)


def test_optimal_povm_elements_always_valid():
    # Povm construction re-validates: hermitian, positive, complete
    rng = np.random.default_rng(19)
    for _ in range(50):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        state = project_pure(PureProduct(DOWN, UP), amps, Statistics.BOSON)
        outcome = optimal_povm(ch, state)
        assert isinstance(outcome.povm, Povm)
        total = outcome.povm.elements[0] + outcome.povm.elements[1]
        np.testing.assert_allclose(total, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# helstrom_error


def test_helstrom_orthogonal_states():
    psi1 = balanced_state()
    ch = channel(math.pi, p1=0.23)
    out1 = apply_phase(ch, 1, psi1)
    out2 = apply_phase(ch, 2, psi1)
    assert helstrom_error(0.23, 0.77, out1, out2) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_identical_states():
    state = balanced_state()
    assert helstrom_error(0.3, 0.7, state, state) == pytest.approx(0.3, abs=1e-14)
    assert helstrom_error(0.9, 0.1, state, state) == pytest.approx(0.1, abs=1e-14)


def test_helstrom_rejects_bad_priors():
    state = balanced_state()
    with pytest.raises(ValueError):
        helstrom_error(0.5, 0.6, state, state)


@pytest.mark.parametrize("priors", [(math.nan, math.nan), (math.nan, 0.5),
                                    (math.inf, -math.inf), (math.inf, 0.0)])
def test_helstrom_rejects_non_finite_priors(priors):
    state = balanced_state()
    with pytest.raises(ValueError, match="priors must be finite"):
        helstrom_error(*priors, state, state)


# ---------------------------------------------------------------------------
# closed forms


def test_product_form_no_overlap_constant():
    amps = OverlapAmplitudes(l=S, r=0.0, l_prime=0.0, r_prime=S)
    for phi12 in np.linspace(-2 * math.pi, 2 * math.pi, 17):
        err = closed_form_error_product(amps, channel(float(phi12)))
        assert err == pytest.approx(THIRD, abs=1e-12)


def test_product_form_balanced_reduction():
    rng = np.random.default_rng(23)
    amps = OverlapAmplitudes.balanced()
    for _ in range(200):
        ch = random_channel(rng)
        assert closed_form_error_product(amps, ch) == pytest.approx(
            closed_form_error_balanced(ch), abs=1e-12)


def test_product_form_raises_on_vanishing_weight():
    amps = OverlapAmplitudes(l=S, r=0.0, l_prime=S, r_prime=0.0)
    with pytest.raises(VanishingProjection):
        closed_form_error_product(amps, channel(0.5))


def product_form_reference(amps: OverlapAmplitudes,
                           channel: PhaseChannel) -> float:
    """The two-branch product closed form, as written before it became
    closed_form_error_general on the up-only preparation."""
    a_weight = abs(amps.l * amps.r_prime) ** 2
    b_weight = abs(amps.l_prime * amps.r) ** 2
    norm_sq = a_weight + b_weight
    if norm_sq < VANISHING_TOL:
        raise VanishingProjection(
            "product preparation has vanishing weight on the localized basis")
    phi12 = channel.phi12
    overlap = (a_weight * cmath.exp(1j * channel.omega[1] * phi12)
               + b_weight * cmath.exp(1j * channel.omega[2] * phi12)) / norm_sq
    p1, p2 = channel.priors
    disc = max(0.25 - p1 * p2 * abs(overlap) ** 2, 0.0)
    return 0.5 - math.sqrt(disc)


# |z| <= 1/sqrt(2) keeps every pair of amplitudes admissible
AMPLITUDE = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 0.5j, S]),
    st.complex_numbers(max_magnitude=0.7, allow_nan=False,
                       allow_infinity=False))
WEIGHT = st.floats(-5.0, 5.0)
# omega_dd = 1e308 overflows omega_dd * phi12, which the product game never
# evaluates


@settings(derandomize=True, max_examples=400, deadline=None)
@given(amps=st.tuples(AMPLITUDE, AMPLITUDE, AMPLITUDE, AMPLITUDE),
       separated=st.booleans(),
       omega=st.tuples(st.one_of(WEIGHT, st.just(1e308)), WEIGHT, WEIGHT,
                       WEIGHT),
       phi=st.tuples(st.floats(-2 * math.pi, 2 * math.pi),
                     st.floats(-math.pi, math.pi)),
       p1=st.one_of(st.sampled_from([0.0, 1.0, THIRD]), st.floats(0.0, 1.0)))
@example(amps=(S, S, S, S), separated=False, omega=(0.0, 1.0, 0.0, 0.0),
         phi=(math.pi, 0.0), p1=THIRD)
@example(amps=(S, 0.0, S, 0.0), separated=False, omega=(0.0, 1.0, 0.0, 0.0),
         phi=(0.5, 0.0), p1=THIRD)
def test_product_form_is_the_two_branch_formula_bit_for_bit(
        amps, separated, omega, phi, p1):
    game = OverlapAmplitudes(*amps)
    if separated:
        game = game.without_overlap()
    ch = PhaseChannel(omega=omega, phi=phi, priors=(p1, 1.0 - p1))
    try:
        expected = product_form_reference(game, ch)
    except VanishingProjection as exc:
        with pytest.raises(VanishingProjection) as raised:
            closed_form_error_product(game, ch)
        assert str(raised.value) == str(exc)
        return
    assert closed_form_error_product(game, ch) == expected


# the spin angle: up only, down only, or a superposition
SPIN_ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi / 4]),
                       st.floats(0.0, math.pi / 2))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(amps=st.tuples(AMPLITUDE, AMPLITUDE, AMPLITUDE, AMPLITUDE),
       separated=st.booleans(), angle=SPIN_ANGLE,
       phase=st.floats(-math.pi, math.pi),
       stats=st.sampled_from([Statistics.BOSON, Statistics.FERMION]),
       omega=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT),
       phi=st.tuples(st.floats(-10.0, 10.0), st.floats(-math.pi, math.pi)),
       p1=st.one_of(st.sampled_from([0.0, 1.0, THIRD]), st.floats(0.0, 1.0)))
@example(amps=(0.5, 0.5, 0.5, 0.5), separated=False, angle=math.pi / 2,
         phase=0.0, stats=Statistics.FERMION, omega=(1.0, 3.0, 2.0, 0.0),
         phi=(2.0, 0.0), p1=0.4)
def test_general_form_is_the_complex_formula_bit_for_bit(
        amps, separated, angle, phase, stats, omega, phi, p1):
    game = OverlapAmplitudes(*amps)
    if separated:
        game = game.without_overlap()
    prep = SpinSuperposition(up_amp=math.cos(angle),
                             down_amp=math.sin(angle) * cmath.exp(1j * phase))
    ch = PhaseChannel(omega=omega, phi=phi, priors=(p1, 1.0 - p1))
    try:
        expected = closed_form_reference(prep, game, stats, ch)
    except VanishingProjection as exc:
        with pytest.raises(VanishingProjection) as raised:
            closed_form_error_general(prep, game, stats, ch)
        assert str(raised.value) == str(exc)
        return
    assert closed_form_error_general(prep, game, stats, ch) == expected


# ---------------------------------------------------------------------------
# p_err lies in [0, 1/2] where it is made; NaN marks a vanishing point only

UNIT = st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, THIRD, 0.5 - 1e-9]), UNIT),
    st.one_of(st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0)]), UNIT)),
    min_size=1, max_size=32))
def test_helstrom_error_lies_in_zero_to_half(pairs):
    p1, overlap_sq = np.array(pairs).T
    p_err = _helstrom(p1, 1.0 - p1, overlap_sq)
    assert not np.isnan(p_err).any()
    assert ((0.0 <= p_err) & (p_err <= 0.5)).all(), pairs
    for (one, ov), value in zip(pairs, p_err.tolist()):
        assert _helstrom(one, 1.0 - one, ov) == value


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angle=SPIN_ANGLE,
       phase=st.floats(-math.pi, math.pi), eta=st.sampled_from([1, -1]),
       p1=st.one_of(st.sampled_from([0.0, 0.5, 1.0, THIRD]), UNIT))
def test_column_form_error_lies_in_zero_to_half_or_vanishes(
        seed, angle, phase, eta, p1):
    """Random amplitudes, weights and phases, 64 points at a time. A
    quarter of the amplitudes are exact zeros and an eighth of the points
    have l' = l and r = r' (the fermion branch cancels), so that about a
    quarter of the points vanish."""
    rng = np.random.default_rng(seed)
    n = 64

    def amplitude() -> np.ndarray:
        z = rng.uniform(0.0, 0.7, n) * np.exp(1j * rng.uniform(-math.pi,
                                                             math.pi, n))
        z[rng.random(n) < 0.25] = 0.0
        return z

    l, r, l_prime, r_prime = (amplitude() for _ in range(4))
    node = rng.random(n) < 0.125
    l_prime[node], r[node] = l[node], r_prime[node]
    spin = (math.cos(angle), math.sin(angle) * cmath.exp(1j * phase))
    omega = tuple(rng.uniform(-5.0, 5.0, n) for _ in range(4))
    p_err, vanishing = closed_form_error_general_columns(
        spin, (l, r, l_prime, r_prime), eta, omega,
        rng.uniform(-10.0, 10.0, n), (p1, 1.0 - p1))
    assert np.array_equal(np.isnan(p_err), vanishing)
    made = p_err[~vanishing]
    assert ((0.0 <= made) & (made <= 0.5)).all()


def test_general_form_overflow_outranks_vanishing():
    # the fermion branch cancels (l r' = l' r) and omega_dd * phi12
    # overflows: the weights are checked before the vanishing mask is read
    prep = SpinSuperposition(up_amp=0.0, down_amp=1.0)
    amps = OverlapAmplitudes(l=0.5, r=0.5, l_prime=0.5, r_prime=0.5)
    ch = channel(2.0, omega=(1e308, 3.0, 2.0, 0.0))
    with pytest.raises(VanishingProjection):
        closed_form_reference(prep, amps, Statistics.FERMION, ch)
    with pytest.raises(ValueError, match="phi12 overflows") as raised:
        closed_form_error_general(prep, amps, Statistics.FERMION, ch)
    assert not isinstance(raised.value, VanishingProjection)


def test_balanced_zero_error_point():
    assert closed_form_error_balanced(channel(math.pi)) == pytest.approx(0.0, abs=1e-14)


def test_balanced_identical_hypotheses_give_prior_guess():
    # at phi12 = 0 the two hypotheses coincide, so the best strategy is to
    # guess the more probable phase; the POVM oracle agrees
    err = closed_form_error_balanced(channel(0.0))
    assert err == pytest.approx(THIRD, abs=1e-12)
    oracle = optimal_povm(channel(0.0), balanced_state())
    assert err == pytest.approx(oracle.p_err, abs=1e-10)


def test_balanced_certain_phase_never_errs():
    ch = PhaseChannel(omega=(0, 1, 0, 0), phi=(0.4, 0.0), priors=(0.0, 1.0))
    assert closed_form_error_balanced(ch) == 0.0


def test_general_form_reduces_to_product_when_up_only():
    rng = np.random.default_rng(29)
    prep = SpinSuperposition(up_amp=1.0, down_amp=0.0)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        for stats in (Statistics.BOSON, Statistics.FERMION):
            assert closed_form_error_general(prep, amps, stats, ch) == pytest.approx(
                closed_form_error_product(amps, ch), abs=1e-12)


def test_general_form_fermion_balanced_equal_weights_drops_down_branch():
    # real balanced amplitudes make l r' = l' r, so eta = -1 cancels the
    # down-down branch and the product-form value is recovered
    rng = np.random.default_rng(31)
    prep = SpinSuperposition(up_amp=S, down_amp=S)
    amps = OverlapAmplitudes.balanced()
    for _ in range(50):
        ch = random_channel(rng)
        assert closed_form_error_general(prep, amps, Statistics.FERMION,
                                         ch) == pytest.approx(
            closed_form_error_product(amps, ch), abs=1e-12)


def test_general_form_fermion_beats_boson_at_pi():
    # frozen values for omega = (dd=1, du=3, ud=2), a = b, balanced overlaps,
    # p1 = 1/3, phi12 = pi, worked out by hand:
    #   fermion overlap = 0            -> p_err = 0
    #   boson overlap  = -2/3          -> p_err = (1 - 7/9) / 2 = 1/9
    prep = SpinSuperposition(up_amp=S, down_amp=S)
    amps = OverlapAmplitudes.balanced()
    ch = channel(math.pi, omega=(1.0, 3.0, 2.0, 0.0))
    fermion = closed_form_error_general(prep, amps, Statistics.FERMION, ch)
    boson = closed_form_error_general(prep, amps, Statistics.BOSON, ch)
    assert fermion == pytest.approx(0.0, abs=1e-12)
    assert boson == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert fermion < boson - 1e-6


def test_general_form_matches_povm_oracle():
    rng = np.random.default_rng(37)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        phase = rng.uniform(0, 2 * math.pi)
        a = math.cos(phase)
        b = math.sin(phase)
        if abs(a) < 0.1 and abs(b) < 0.1:
            continue
        prep = SpinSuperposition(up_amp=a, down_amp=b)
        for stats in (Statistics.BOSON, Statistics.FERMION):
            try:
                state = project_superposition(prep, amps, stats)
            except VanishingProjection:
                continue
            closed = closed_form_error_general(prep, amps, stats, ch)
            assert closed == pytest.approx(optimal_povm(ch, state).p_err, abs=1e-10)


# ---------------------------------------------------------------------------
# exchange statistics on the projected-state route


def test_statistics_independent_for_product_preparation():
    rng = np.random.default_rng(41)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        boson, fermion = boson_fermion_errors(project_pure,
                                              PureProduct(DOWN, UP), amps, ch)
        assert boson == pytest.approx(fermion, abs=1e-12)


def test_statistics_dependent_for_superposition_preparation():
    prep = SpinSuperposition(up_amp=S, down_amp=S)
    amps = OverlapAmplitudes.balanced()
    ch = channel(math.pi, omega=(1.0, 3.0, 2.0, 0.0))
    boson, fermion = boson_fermion_errors(project_superposition, prep, amps,
                                          ch)
    assert abs(boson - fermion) > 1e-3


def test_statistics_equal_without_overlap():
    rng = np.random.default_rng(43)
    prep = SpinSuperposition(up_amp=0.8, down_amp=0.6)
    for _ in range(30):
        amps = random_amplitudes(rng).without_overlap()
        if abs(amps.l * amps.r_prime) ** 2 < 1e-6:
            continue
        ch = random_channel(rng)
        boson, fermion = boson_fermion_errors(project_superposition, prep,
                                              amps, ch)
        assert boson == pytest.approx(fermion, abs=1e-12)


# ---------------------------------------------------------------------------
# game-level invariants


def test_error_bounded_by_smaller_prior():
    rng = np.random.default_rng(47)
    for _ in range(200):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        err = closed_form_error_product(amps, ch)
        assert err <= min(ch.priors) + 1e-12
        assert err >= -1e-15


def test_error_symmetric_under_hypothesis_swap():
    rng = np.random.default_rng(53)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        swapped = PhaseChannel(omega=ch.omega, phi=(ch.phi[1], ch.phi[0]),
                               priors=(ch.priors[1], ch.priors[0]))
        assert closed_form_error_product(amps, ch) == pytest.approx(
            closed_form_error_product(amps, swapped), abs=1e-12)


def test_error_even_in_phase_difference_for_real_amplitudes():
    rng = np.random.default_rng(59)
    for _ in range(100):
        amps = random_amplitudes(rng, real_only=True)
        phi12 = rng.uniform(0, 2 * math.pi)
        p1 = rng.uniform(0, 1)
        forward = closed_form_error_product(amps, channel(phi12, p1=p1))
        backward = closed_form_error_product(amps, channel(-phi12, p1=p1))
        assert forward == pytest.approx(backward, abs=1e-12)


def test_error_invariant_under_generator_shift():
    rng = np.random.default_rng(61)
    prep = SpinSuperposition(up_amp=S, down_amp=S)
    for _ in range(100):
        amps = random_amplitudes(rng)
        ch = random_channel(rng)
        shift = rng.uniform(-3, 3)
        shifted = PhaseChannel(omega=tuple(w + shift for w in ch.omega),
                               phi=ch.phi, priors=ch.priors)
        assert closed_form_error_product(amps, ch) == pytest.approx(
            closed_form_error_product(amps, shifted), abs=1e-12)
        assert closed_form_error_general(prep, amps, Statistics.BOSON,
                                         ch) == pytest.approx(
            closed_form_error_general(prep, amps, Statistics.BOSON, shifted),
            abs=1e-12)
