"""Minimum-error discrimination of two phase hypotheses.

A diagonal generator applies one of two phases to a localized two-spin
state; the player must decide which. The best strategy measures the
projector onto the positive eigenvector of

    delta = p1 |psi1><psi1| - p2 |psi2><psi2|,

which this module builds spectrally (optimal_povm). The same error
probability is Helstrom's bound on the hypothesis overlap, which has a
closed form in the overlap amplitudes; the (down, up) product game is its
case without a down component (UP_ONLY, closed_form_error_product). The
spectral route and the closed form check each other.

Both routes run over stacks of games: apply_phase_stack,
helstrom_error_stack, projector_difference, spectral_povm,
dephase_channel_check_stack and the column forms. apply_phase,
helstrom_error, optimal_povm, dephase_channel_check and the scalar closed
forms (closed_form_error_general, _product, _balanced) are their
single-game calls, so a stacked value equals the scalar one bit for bit.
The closed form has this one implementation; the tests keep its formula
in Python complex numbers (cmath) as the per-point reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    abs_sq,
    complex_parts,
    complex_product,
    eigh,
    eigh_stack,
    hermiticity_defect,
    hermitian_part,
    outer_stack,
    pow2,
    vdot_stack,
)
from .states import (
    DensityMatrix4,
    OverlapAmplitudes,
    SpinSuperposition,
    StateVector4,
    Statistics,
    VanishingProjection,
    offdiagonal_max,
    # not called here; perfbench's traced run wraps these names
    is_incoherent,
    project_pure,
    project_superposition,
)
from .tolerances import (
    DEGENERATE_LAMBDA_TOL,
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    NORMALIZATION_TOL,
    POVM_COMPLETENESS_TOL,
    VANISHING_TOL,
)


@dataclass(frozen=True)
class PhaseChannel:
    """Random phase box: generator weights, the two phases, and their priors.

    omega holds one generator weight per basis index, in the basis order
    documented in states (down_down, down_up, up_down, up_up). The box
    applies phase k by multiplying basis entry i with exp(i*omega[i]*phi[k]).
    """

    omega: tuple[float, float, float, float]
    phi: tuple[float, float]
    priors: tuple[float, float]

    def __post_init__(self):
        omega = tuple(float(w) for w in self.omega)
        phi = tuple(float(p) for p in self.phi)
        priors = tuple(float(p) for p in self.priors)
        if len(omega) != 4:
            raise ValueError("expected one generator weight per basis state")
        if len(phi) != 2 or len(priors) != 2:
            raise ValueError("expected exactly two phases and two priors")
        for value in (*omega, *phi, *priors):
            if not math.isfinite(value):
                raise ValueError("channel parameters must be finite")
        if priors[0] < 0.0 or priors[1] < 0.0:
            raise ValueError("priors must be nonnegative")
        if abs(priors[0] + priors[1] - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"priors must sum to 1, got {sum(priors)}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "priors", priors)

    @property
    def phi12(self) -> float:
        return self.phi[0] - self.phi[1]


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement: Hermitian positive elements that sum to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elements = []
        total = np.zeros((4, 4), dtype=np.complex128)
        for element in self.elements:
            mat = np.array(element, dtype=np.complex128)
            if mat.shape != (4, 4):
                raise ValueError(f"POVM elements must be 4x4, got {mat.shape}")
            defect = hermiticity_defect(mat)
            if defect > HERMITICITY_TOL:
                raise ValueError(f"POVM element not Hermitian: defect {defect:.3e}")
            mat = hermitian_part(mat)
            if eigh(mat)[-1].value < EIGENVALUE_FLOOR:
                raise ValueError("POVM element has a negative eigenvalue")
            total += mat
            elements.append(mat)
        if np.max(np.abs(total - np.eye(4))) > POVM_COMPLETENESS_TOL:
            raise ValueError("POVM elements must sum to the identity")
        self._store(elements)

    @classmethod
    def _trusted(cls, elements) -> "Povm":
        """Internal constructor for a measurement the library built itself:
        it stores the same elements as the public one (symmetrized complex
        copies), without the checks."""
        povm = object.__new__(cls)
        povm._store([hermitian_part(np.asarray(element, dtype=np.complex128))
                     for element in elements])
        return povm

    def _store(self, elements: list) -> None:
        for mat in elements:
            mat.flags.writeable = False
        object.__setattr__(self, "elements", tuple(elements))


@dataclass(frozen=True, eq=False)
class DiscriminationOutcome:
    """Result of the optimal measurement: error probability, the measurement
    itself (first element guesses phase 1), the positive eigenvalue of the
    weighted projector difference, and the hypothesis-state overlap."""

    p_err: float
    povm: Povm
    lambda_plus: float
    overlap: complex


def _phase_factors(omega, phi) -> np.ndarray:
    """exp(i * omega[..., j] * phi[...]), the box's diagonal unitary."""
    return np.exp(1j * np.asarray(omega, dtype=np.float64)
                  * np.asarray(phi, dtype=np.float64)[..., None])


def apply_phase_stack(omega, phi, entries) -> np.ndarray:
    """apply_phase over stacks: entry j of each (..., 4) state in entries
    picks up exp(i * omega[..., j] * phi[...]); omega and phi broadcast
    against the states."""
    return entries * _phase_factors(omega, phi)


def apply_phase(channel: PhaseChannel, k: int, state: StateVector4) -> StateVector4:
    """Run the box with phase k: entry i picks up exp(i*omega[i]*phi_k)."""
    if k not in (1, 2):
        raise ValueError(f"phase index must be 1 or 2, got {k}")
    return StateVector4._trusted(
        apply_phase_stack(channel.omega, channel.phi[k - 1], state.entries),
        state.norm_sq_raw)


def dephase_channel_check_stack(omega, phi, mat) -> np.ndarray:
    """dephase_channel_check over stacks: omega (..., 4), the two phases
    phi (..., 2) and the matrices mat (..., 4, 4) broadcast together; True
    where the check passes."""
    stays_diagonal = True
    for k in (0, 1):
        factors = _phase_factors(omega, np.asarray(phi)[..., k])
        conjugated = factors[..., :, None] * mat * factors.conj()[..., None, :]
        stays_diagonal &= offdiagonal_max(conjugated) <= NORMALIZATION_TOL
    # coherent inputs pass unchecked
    return (offdiagonal_max(mat) > NORMALIZATION_TOL) | stays_diagonal


def dephase_channel_check(channel: PhaseChannel, rho: DensityMatrix4) -> bool:
    """Structural self-test: both box unitaries keep diagonal states
    diagonal, to NORMALIZATION_TOL, as incoherent operations must
    (Baumgratz, Cramer and Plenio, PRL 113, 140401 (2014)).

    Coherent inputs are reported unchecked (True); the property under test
    is diagonality preservation, which only diagonal inputs can witness.
    """
    return bool(dephase_channel_check_stack(channel.omega, channel.phi,
                                            rho.mat))


def _measurement_error(priors, guess1, guess2, psi1, psi2) -> np.ndarray:
    """Average error, clipped to [0, 1], of the measurement (guess1, guess2)
    on hypotheses psi1 and psi2, over stacks: p1 <psi1|guess2|psi1> +
    p2 <psi2|guess1|psi2>, each expectation summed entry by entry."""
    p1, p2 = priors
    miss1 = (psi1.conj() * (guess2 * psi1[..., None, :]).sum(axis=-1)).sum(axis=-1)
    miss2 = (psi2.conj() * (guess1 * psi2[..., None, :]).sum(axis=-1)).sum(axis=-1)
    return np.clip(p1 * miss1.real + p2 * miss2.real, 0.0, 1.0)


def projector_difference(priors, psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """p1 |psi1><psi1| - p2 |psi2><psi2| for (..., 4) stacks of hypothesis
    states and priors (p1, p2), floats or arrays over the leading axes."""
    p1, p2 = (np.asarray(p, dtype=np.float64) for p in priors)
    return (p1[..., None, None] * outer_stack(psi1, psi1)
            - p2[..., None, None] * outer_stack(psi2, psi2))


def spectral_povm(priors, psi1: np.ndarray, psi2: np.ndarray):
    """The spectral step of optimal_povm, for (..., 4) stacks of hypothesis
    states psi1, psi2 and priors (p1, p2), floats or arrays over the leading
    axes. pi1 projects onto the top eigenvector of
    p1 |psi1><psi1| - p2 |psi2><psi2|, or is zero where that eigenvalue is
    at most DEGENERATE_LAMBDA_TOL; the second element is 1 - pi1.

    Returns (p_err, lambda_max, pi1): the measurement's average error,
    clipped to [0, 1], the top eigenvalue, and the (..., 4, 4) pi1 stack.
    """
    values, vectors = eigh_stack(projector_difference(priors, psi1, psi2))
    lam_max = values[..., 0]
    top = vectors[..., :, 0]
    pi1 = outer_stack(top, top)
    pi1[lam_max <= DEGENERATE_LAMBDA_TOL] = 0.0
    p_err = _measurement_error(priors, pi1, np.eye(4) - pi1, psi1, psi2)
    return p_err, lam_max, pi1


def optimal_povm(channel: PhaseChannel, state: StateVector4) -> DiscriminationOutcome:
    """Best two-outcome measurement, built from the spectrum of
    p1 |psi1><psi1| - p2 |psi2><psi2| (spectral_povm).

    The first element projects onto the positive eigenvector (guess phase 1).
    When no strictly positive eigenvalue exists the state carries no usable
    signal and the measurement degenerates to always guessing the more
    probable phase.
    """
    # both hypotheses in one call: apply_phase for phase 1, then phase 2
    psi1, psi2 = apply_phase_stack(channel.omega, channel.phi, state.entries)
    p_err, lam_max, pi1 = spectral_povm(channel.priors, psi1, psi2)
    povm = Povm._trusted((pi1, np.eye(4, dtype=np.complex128) - pi1))
    return DiscriminationOutcome(p_err=float(p_err), povm=povm,
                                 lambda_plus=max(float(lam_max), 0.0),
                                 overlap=complex(np.vdot(psi1, psi2)))


def _helstrom(p1, p2, overlap_sq):
    """Helstrom's bound (Quantum Detection and Estimation Theory, 1976) for
    two pure hypotheses with priors p1, p2 and squared overlap magnitude
    overlap_sq, element-wise: (1 - sqrt(1 - 4 p1 p2 |ov|^2)) / 2."""
    disc = np.maximum(1.0 - 4.0 * p1 * p2 * overlap_sq, 0.0)
    return 0.5 * (1.0 - np.sqrt(disc))


def helstrom_error_stack(p1, p2, psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """helstrom_error over (..., 4) stacks of hypothesis states, with the
    priors p1, p2 as floats or arrays over the leading axes."""
    return _helstrom(p1, p2, abs_sq(complex_parts(vdot_stack(psi1, psi2))))


def helstrom_error(p1: float, p2: float, psi1: StateVector4,
                   psi2: StateVector4) -> float:
    """Minimum error probability for two pure hypotheses with given priors:
    (1 - sqrt(1 - 4 p1 p2 |<psi1|psi2>|^2)) / 2."""
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise ValueError("priors must be finite")
    if abs(p1 + p2 - 1.0) > NORMALIZATION_TOL or p1 < 0.0 or p2 < 0.0:
        raise ValueError("priors must be nonnegative and sum to 1")
    return float(helstrom_error_stack(p1, p2, psi1.entries, psi2.entries))


# The (down, up) product preparation is the spin superposition with no down
# component: project_superposition(UP_ONLY, ...) == project_pure(down, up, ...).
UP_ONLY = SpinSuperposition(up_amp=1.0, down_amp=0.0)


def vanishing_message(eta: int | None) -> str:
    """The message a closed form raises where its projection vanishes: the
    product game's for eta None, else the superposition game's with
    exchange phase eta."""
    if eta is None:
        return "product preparation has vanishing weight on the localized basis"
    return (f"superposition preparation with eta={eta:+d} has vanishing "
            "weight on the localized basis")


def closed_form_error_product(amps: OverlapAmplitudes,
                              channel: PhaseChannel) -> float:
    """Error probability for the (down, up) product preparation, straight
    from the overlap amplitudes: closed_form_error_general on UP_ONLY.

    The hypothesis overlap is (A e^{i w_du phi12} + B e^{i w_ud phi12}) / (A+B)
    with A = |l r'|^2 and B = |l' r|^2, independent of exchange statistics.
    """
    try:
        return closed_form_error_general(UP_ONLY, amps, Statistics.BOSON,
                                         channel)
    except VanishingProjection:
        raise VanishingProjection(vanishing_message(None)) from None


def closed_form_error_balanced_columns(omega, phi12, priors) -> np.ndarray:
    """Column form of closed_form_error_balanced: omega is the four
    generator weights in basis order; they, phi12 and the priors broadcast
    together."""
    p1, p2 = priors
    half_angle = 0.5 * (np.asarray(omega[1]) - omega[2]) * phi12
    return _helstrom(p1, p2, pow2(np.cos(half_angle)))


def closed_form_error_balanced(channel: PhaseChannel) -> float:
    """Product-preparation error when all four squared overlap magnitudes
    equal 1/2: the hypothesis overlap collapses to
    cos((w_du - w_ud) phi12 / 2)."""
    return float(closed_form_error_balanced_columns(channel.omega, channel.phi12,
                                                    channel.priors))


def closed_form_error_general(prep: SpinSuperposition, amps: OverlapAmplitudes,
                              stats: Statistics, channel: PhaseChannel) -> float:
    """Error probability for the spin-superposition preparation: the
    single-game call of closed_form_error_general_columns."""
    p_err, vanishing = closed_form_error_general_columns(
        (prep.up_amp, prep.down_amp),
        (amps.l, amps.r, amps.l_prime, amps.r_prime), stats.eta,
        channel.omega, channel.phi12, channel.priors)
    if vanishing:
        raise VanishingProjection(vanishing_message(stats.eta))
    return float(p_err)


# ---------------------------------------------------------------------------
# The closed form, in column form: for whole sweep grids, stacked games and,
# with scalar arguments, the single game of closed_form_error_general; with
# spin = UP_ONLY's amplitudes it is also closed_form_error_product.
#
# Every argument is a scalar or an array, and all of them broadcast against
# each other. It returns (p_err, vanishing): p_err is NaN where the
# vanishing mask is set. Everywhere else it equals, bit for bit, the formula
# written in Python complex numbers with cmath.exp (the tests' per-point
# reference). That parity dictates how the arithmetic is written: CPython's
# complex arithmetic replayed on float arrays (linalg.complex_product and
# friends), and cmath.exp(1j * w * phi12) as (cos, sin) of the float product
# w * phi12.


def _phase(omega, phi12) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore"):
        angle = np.multiply(omega, phi12, dtype=np.float64)
    if not np.isfinite(angle).all():
        raise ValueError("generator weight times phi12 overflows")
    return np.cos(angle), np.sin(angle)


def closed_form_error_general_columns(spin, amps, eta, omega, phi12, priors):
    """Error probability of the spin-superposition game, for exchange phase
    eta (+1 bosons, -1 fermions). spin is the preparation's (up_amp,
    down_amp), amps is (l, r, l_prime, r_prime) and omega the four
    generator weights in basis order; each entry, eta, phi12 and the priors
    broadcast together.

    The down-down branch contributes |l r' + eta l' r|^2 at the generator
    weight w_dd, which is where exchange statistics enters the game. The
    product game is spin = (1, 0), UP_ONLY, which skips that branch: it
    would only add exact zeros, and w_dd plays no part in that game. So the
    branch is evaluated only when some down_amp is nonzero, and each
    weight used times phi12 must be finite (else ValueError, checked before
    the vanishing mask is read).
    """
    l, r, l_prime, r_prime = (complex_parts(z) for z in amps)
    direct = complex_product(l, r_prime)
    exchanged = complex_product(l_prime, r)
    a_weight = abs_sq(direct)
    b_weight = abs_sq(exchanged)
    up_sq, down_sq = (abs_sq(complex_parts(z)) for z in spin)
    if np.count_nonzero(down_sq):
        c_weight = abs_sq((direct[0] + eta * exchanged[0],
                           direct[1] + eta * exchanged[1]))
        cos_dd, sin_dd = _phase(omega[0], phi12)
    else:
        c_weight = cos_dd = sin_dd = 0.0
    dd_weight = down_sq * c_weight
    norm_sq = up_sq * (a_weight + b_weight) + dd_weight
    vanishing = norm_sq < VANISHING_TOL
    cos_du, sin_du = _phase(omega[1], phi12)
    cos_ud, sin_ud = _phase(omega[2], phi12)
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = ((up_sq * (a_weight * cos_du + b_weight * cos_ud)
                    + dd_weight * cos_dd) / norm_sq,
                   (up_sq * (a_weight * sin_du + b_weight * sin_ud)
                    + dd_weight * sin_dd) / norm_sq)
    p1, p2 = priors
    return (np.where(vanishing, np.nan, _helstrom(p1, p2, abs_sq(overlap))),
            vanishing)
