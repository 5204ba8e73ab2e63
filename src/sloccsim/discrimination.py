"""Minimum-error discrimination of two phase hypotheses.

A diagonal generator applies one of two phases to a localized two-spin
state; the player must decide which. The best strategy measures the
projector onto the positive eigenvector of

    delta = p1 |psi1><psi1| - p2 |psi2><psi2|,

which this module builds spectrally (optimal_povm). The same error
probability has closed forms in terms of the overlap amplitudes; both
routes are implemented so each can check the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import eigh, eigh_stack, hermiticity_defect, hermitian_part, inner
from .states import (
    EIGENVALUE_FLOOR,
    NORMALIZATION_TOL,
    VANISHING_TOL,
    DensityMatrix4,
    OverlapAmplitudes,
    PureProduct,
    SpinSuperposition,
    StateVector4,
    Statistics,
    VanishingProjection,
    is_incoherent,
    project_pure,
    project_superposition,
)

POVM_COMPLETENESS_TOL = 1e-10
DEGENERATE_LAMBDA_TOL = 1e-14


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

    @property
    def omega_down_down(self) -> float:
        return self.omega[0]

    @property
    def omega_down_up(self) -> float:
        return self.omega[1]

    @property
    def omega_up_down(self) -> float:
        return self.omega[2]


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
            if defect > NORMALIZATION_TOL:
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
        povm._store([hermitian_part(np.array(element, dtype=np.complex128))
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


def apply_phase(channel: PhaseChannel, k: int, state: StateVector4) -> StateVector4:
    """Run the box with phase k: entry i picks up exp(i*omega[i]*phi_k)."""
    if k not in (1, 2):
        raise ValueError(f"phase index must be 1 or 2, got {k}")
    phase_angle = channel.phi[k - 1]
    factors = np.exp(1j * np.asarray(channel.omega) * phase_angle)
    return StateVector4._trusted(state.entries * factors, state.norm_sq_raw)


def dephase_channel_check(channel: PhaseChannel, rho: DensityMatrix4,
                          tol: float = NORMALIZATION_TOL) -> bool:
    """Structural self-test: both box unitaries keep diagonal states diagonal.

    Coherent inputs are reported unchecked (True); the property under test
    is diagonality preservation, which only diagonal inputs can witness.
    """
    if not is_incoherent(rho, tol):
        return True
    for k in (1, 2):
        factors = np.exp(1j * np.asarray(channel.omega) * channel.phi[k - 1])
        conjugated = factors[:, None] * rho.mat * factors.conj()[None, :]
        off = conjugated - np.diag(np.diag(conjugated))
        if float(np.max(np.abs(off))) > tol:
            return False
    return True


def output_mixture(channel: PhaseChannel, state: StateVector4) -> DensityMatrix4:
    """State leaving the box when the applied phase is unknown."""
    p1, p2 = channel.priors
    psi1 = apply_phase(channel, 1, state)
    psi2 = apply_phase(channel, 2, state)
    mat = p1 * psi1.projector() + p2 * psi2.projector()
    return DensityMatrix4(mat=mat, trace_raw=1.0)


def error_from_povm(povm: Povm, channel: PhaseChannel,
                    state: StateVector4) -> float:
    """Average error of a two-element measurement on the two hypotheses."""
    if len(povm.elements) != 2:
        raise ValueError(f"need exactly 2 POVM elements, got {len(povm.elements)}")
    return float(_measurement_error(channel.priors, *povm.elements,
                                    apply_phase(channel, 1, state).entries,
                                    apply_phase(channel, 2, state).entries))


def _measurement_error(priors, guess1, guess2, psi1, psi2) -> np.ndarray:
    """Average error, clipped to [0, 1], of the measurement (guess1, guess2)
    on hypotheses psi1 and psi2, over stacks: p1 <psi1|guess2|psi1> +
    p2 <psi2|guess1|psi2>, each expectation summed entry by entry."""
    p1, p2 = priors
    miss1 = (psi1.conj() * (guess2 * psi1[..., None, :]).sum(axis=-1)).sum(axis=-1)
    miss2 = (psi2.conj() * (guess1 * psi2[..., None, :]).sum(axis=-1)).sum(axis=-1)
    return np.clip(p1 * miss1.real + p2 * miss2.real, 0.0, 1.0)


def spectral_povm(priors, psi1: np.ndarray, psi2: np.ndarray):
    """The spectral step of optimal_povm, for (..., 4) stacks of hypothesis
    states psi1, psi2 and priors (p1, p2), floats or arrays over the leading
    axes. pi1 projects onto the top eigenvector of
    p1 |psi1><psi1| - p2 |psi2><psi2|, or is zero where that eigenvalue is
    at most DEGENERATE_LAMBDA_TOL; the second element is 1 - pi1.

    Returns (p_err, lambda_max, pi1): the measurement's average error,
    clipped to [0, 1], the top eigenvalue, and the (..., 4, 4) pi1 stack.
    """
    p1, p2 = (np.asarray(p, dtype=np.float64) for p in priors)
    proj1 = psi1[..., :, None] * psi1.conj()[..., None, :]
    proj2 = psi2[..., :, None] * psi2.conj()[..., None, :]
    values, vectors = eigh_stack(p1[..., None, None] * proj1
                                 - p2[..., None, None] * proj2)
    lam_max = values[..., 0]
    top = vectors[..., :, 0]
    pi1 = top[..., :, None] * top.conj()[..., None, :]
    pi1[lam_max <= DEGENERATE_LAMBDA_TOL] = 0.0
    p_err = _measurement_error((p1, p2), pi1, np.eye(4) - pi1, psi1, psi2)
    return p_err, lam_max, pi1


def optimal_povm(channel: PhaseChannel, state: StateVector4) -> DiscriminationOutcome:
    """Best two-outcome measurement, built from the spectrum of
    p1 |psi1><psi1| - p2 |psi2><psi2| (spectral_povm).

    The first element projects onto the positive eigenvector (guess phase 1).
    When no strictly positive eigenvalue exists the state carries no usable
    signal and the measurement degenerates to always guessing the more
    probable phase.
    """
    psi1 = apply_phase(channel, 1, state)
    psi2 = apply_phase(channel, 2, state)
    p_err, lam_max, pi1 = spectral_povm(channel.priors, psi1.entries,
                                        psi2.entries)
    povm = Povm._trusted((pi1, np.eye(4, dtype=np.complex128) - pi1))
    return DiscriminationOutcome(p_err=float(p_err), povm=povm,
                                 lambda_plus=max(float(lam_max), 0.0),
                                 overlap=inner(psi1.entries, psi2.entries))


def helstrom_error(p1: float, p2: float, psi1: StateVector4,
                   psi2: StateVector4) -> float:
    """Minimum error probability for two pure hypotheses with given priors:
    (1 - sqrt(1 - 4 p1 p2 |<psi1|psi2>|^2)) / 2."""
    if abs(p1 + p2 - 1.0) > NORMALIZATION_TOL or p1 < 0.0 or p2 < 0.0:
        raise ValueError("priors must be nonnegative and sum to 1")
    overlap_sq = abs(inner(psi1.entries, psi2.entries)) ** 2
    disc = max(1.0 - 4.0 * p1 * p2 * overlap_sq, 0.0)
    return 0.5 * (1.0 - math.sqrt(disc))


def closed_form_error_product(amps: OverlapAmplitudes,
                              channel: PhaseChannel) -> float:
    """Error probability for the (down, up) product preparation, straight
    from the overlap amplitudes.

    The hypothesis overlap is (A e^{i w_du phi12} + B e^{i w_ud phi12}) / (A+B)
    with A = |l r'|^2 and B = |l' r|^2, independent of exchange statistics.
    """
    a_weight = abs(amps.l * amps.r_prime) ** 2
    b_weight = abs(amps.l_prime * amps.r) ** 2
    norm_sq = a_weight + b_weight
    if norm_sq < VANISHING_TOL:
        raise VanishingProjection(
            "product preparation has vanishing weight on the localized basis")
    phi12 = channel.phi12
    overlap = (a_weight * cmath.exp(1j * channel.omega_down_up * phi12)
               + b_weight * cmath.exp(1j * channel.omega_up_down * phi12)) / norm_sq
    p1, p2 = channel.priors
    disc = max(0.25 - p1 * p2 * abs(overlap) ** 2, 0.0)
    return 0.5 - math.sqrt(disc)


def closed_form_error_balanced(channel: PhaseChannel) -> float:
    """Product-preparation error when all four squared overlap magnitudes
    equal 1/2: the hypothesis overlap collapses to
    cos((w_du - w_ud) phi12 / 2)."""
    p1, p2 = channel.priors
    half_angle = 0.5 * (channel.omega_down_up - channel.omega_up_down) * channel.phi12
    cos_sq = math.cos(half_angle) ** 2
    disc = max(1.0 - 4.0 * p1 * p2 * cos_sq, 0.0)
    return 0.5 * (1.0 - math.sqrt(disc))


def closed_form_error_general(prep: SpinSuperposition, amps: OverlapAmplitudes,
                              stats: Statistics, channel: PhaseChannel) -> float:
    """Error probability for the spin-superposition preparation.

    The down-down branch contributes |l r' + eta l' r|^2 at the generator
    weight w_dd, which is where exchange statistics enters the game.
    """
    eta = stats.eta
    direct = amps.l * amps.r_prime
    exchanged = amps.l_prime * amps.r
    a_weight = abs(direct) ** 2
    b_weight = abs(exchanged) ** 2
    c_weight = abs(direct + eta * exchanged) ** 2
    up_sq = abs(prep.up_amp) ** 2
    down_sq = abs(prep.down_amp) ** 2
    norm_sq = up_sq * (a_weight + b_weight) + down_sq * c_weight
    if norm_sq < VANISHING_TOL:
        raise VanishingProjection(
            f"superposition preparation with eta={eta:+d} has vanishing weight "
            "on the localized basis")
    phi12 = channel.phi12
    mixed = (up_sq * (a_weight * cmath.exp(1j * channel.omega_down_up * phi12)
                      + b_weight * cmath.exp(1j * channel.omega_up_down * phi12))
             + down_sq * c_weight * cmath.exp(1j * channel.omega_down_down * phi12))
    overlap = mixed / norm_sq
    p1, p2 = channel.priors
    disc = max(1.0 - 4.0 * p1 * p2 * abs(overlap) ** 2, 0.0)
    return 0.5 * (1.0 - math.sqrt(disc))


# ---------------------------------------------------------------------------
# Column forms of the two closed forms above, for whole sweep grids.
#
# Every argument is a scalar or an array, and all of them broadcast against
# each other. Each function returns (p_err, vanishing): p_err is NaN where
# the vanishing mask is set, and equals the scalar form's value bit for bit
# everywhere else. Bit parity dictates how the arithmetic is written:
#   - complex values travel as (real, imag) pairs of float arrays, combined
#     with CPython's _Py_c_prod and _Py_c_quot formulas (numpy's complex
#     kernels round differently);
#   - abs is np.hypot, which is libm hypot, like CPython's complex abs;
#   - cmath.exp(1j * w * phi12) is (cos, sin) of the float product w * phi12;
#   - "x ** 2" stays CPython's float pow (libm pow), because numpy's power
#     computes x * x, and the two differ in the last bit on some inputs.


def _complex_parts(z) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=np.complex128)
    return z.real, z.imag


def _complex_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    (a_re, a_im), (b_re, b_im) = a, b
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _pow2(x) -> np.ndarray:
    """Element-wise x ** 2 through CPython's float pow."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)


def _abs_sq(z) -> np.ndarray:
    return _pow2(np.hypot(*z))


def _phase(omega, phi12) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore"):
        angle = np.multiply(omega, phi12, dtype=np.float64)
    if not np.all(np.isfinite(angle)):
        raise ValueError("generator weight times phi12 overflows")
    return np.cos(angle), np.sin(angle)


def closed_form_error_product_columns(amps, omega, phi12, priors):
    """Column form of closed_form_error_product.

    amps is (l, r, l_prime, r_prime) and omega the four generator weights in
    basis order; each entry, phi12 and the priors broadcast together.
    """
    l, r, l_prime, r_prime = (_complex_parts(z) for z in amps)
    a_weight = _abs_sq(_complex_product(l, r_prime))
    b_weight = _abs_sq(_complex_product(l_prime, r))
    norm_sq = a_weight + b_weight
    vanishing = norm_sq < VANISHING_TOL
    cos_du, sin_du = _phase(omega[1], phi12)
    cos_ud, sin_ud = _phase(omega[2], phi12)
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = ((a_weight * cos_du + b_weight * cos_ud) / norm_sq,
                   (a_weight * sin_du + b_weight * sin_ud) / norm_sq)
    p1, p2 = priors
    disc = np.maximum(0.25 - p1 * p2 * _abs_sq(overlap), 0.0)
    return np.where(vanishing, np.nan, 0.5 - np.sqrt(disc)), vanishing


def closed_form_error_general_columns(prep: SpinSuperposition, amps,
                                      eta: int, omega, phi12, priors):
    """Column form of closed_form_error_general, for exchange phase eta
    (+1 bosons, -1 fermions); amps, omega, phi12 and priors as in
    closed_form_error_product_columns."""
    l, r, l_prime, r_prime = (_complex_parts(z) for z in amps)
    direct = _complex_product(l, r_prime)
    exchanged = _complex_product(l_prime, r)
    a_weight = _abs_sq(direct)
    b_weight = _abs_sq(exchanged)
    c_weight = _abs_sq((direct[0] + eta * exchanged[0],
                        direct[1] + eta * exchanged[1]))
    up_sq = abs(prep.up_amp) ** 2
    down_sq = abs(prep.down_amp) ** 2
    norm_sq = up_sq * (a_weight + b_weight) + down_sq * c_weight
    vanishing = norm_sq < VANISHING_TOL
    cos_du, sin_du = _phase(omega[1], phi12)
    cos_ud, sin_ud = _phase(omega[2], phi12)
    cos_dd, sin_dd = _phase(omega[0], phi12)
    dd_weight = down_sq * c_weight
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = ((up_sq * (a_weight * cos_du + b_weight * cos_ud)
                    + dd_weight * cos_dd) / norm_sq,
                   (up_sq * (a_weight * sin_du + b_weight * sin_ud)
                    + dd_weight * sin_dd) / norm_sq)
    p1, p2 = priors
    disc = np.maximum(1.0 - 4.0 * p1 * p2 * _abs_sq(overlap), 0.0)
    return (np.where(vanishing, np.nan, 0.5 * (1.0 - np.sqrt(disc))),
            vanishing)


@dataclass(frozen=True)
class StatisticsSensitivity:
    boson_err: float
    fermion_err: float
    distinguishable_err: float


def statistics_sensitivity(prep, amps: OverlapAmplitudes,
                           channel: PhaseChannel) -> StatisticsSensitivity:
    """Play the game under both exchange phases and the no-overlap baseline.

    Product preparations give identical boson and fermion errors; the
    superposition preparation generally does not. The baseline forces
    l_prime = r = 0, removing every identity effect.
    """
    if isinstance(prep, PureProduct):
        project = project_pure
    elif isinstance(prep, SpinSuperposition):
        project = project_superposition
    else:
        raise ValueError("statistics comparison needs a pure preparation")

    p1, p2 = channel.priors

    def play(state: StateVector4) -> float:
        return helstrom_error(p1, p2,
                              apply_phase(channel, 1, state),
                              apply_phase(channel, 2, state))

    boson = play(project(prep, amps, Statistics.BOSON))
    fermion = play(project(prep, amps, Statistics.FERMION))
    baseline = play(project(prep, amps.without_overlap(), Statistics.BOSON))
    return StatisticsSensitivity(boson_err=boson, fermion_err=fermion,
                                 distinguishable_err=baseline)
