"""Two-identical-spin preparations and their projection onto the localized basis.

A preparation describes two spin-1/2 particles whose spatial wavefunctions
have amplitudes in two separated measurement regions, left (L) and right (R).
Conditioning on finding one particle in each region maps every preparation
onto a four-dimensional subspace with basis order

    index 0: |L down, R down>     index 1: |L down, R up>
    index 2: |L up,   R down>     index 3: |L up,   R up>

i.e. index = 2 * (left spin) + (right spin) with down = 0, up = 1. All
matrices and CSV columns in this package follow that order. Coherence is
classified relative to this basis: a density matrix is incoherent exactly
when it is diagonal in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, IntEnum

import numpy as np

from .linalg import canonical_phase, eigh, hermiticity_defect, hermitian_part, outer

NORMALIZATION_TOL = 1e-12
VANISHING_TOL = 1e-14
EIGENVALUE_FLOOR = -1e-10

SQRT_HALF = 1.0 / math.sqrt(2.0)


class VanishingProjection(ValueError):
    """The preparation has (numerically) no support on the localized subspace."""


class SpinLabel(IntEnum):
    DOWN = 0
    UP = 1


class Statistics(Enum):
    """Exchange behaviour of the particle pair.

    BOSON and FERMION carry the exchange phase eta = +1 / -1 that multiplies
    the particle-swapped branch of every projection. DISTINGUISHABLE selects
    the labelled-particle tensor-product treatment instead.
    """

    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "distinguishable"

    @property
    def eta(self) -> int:
        if self is Statistics.BOSON:
            return 1
        if self is Statistics.FERMION:
            return -1
        raise ValueError("exchange phase is defined only for bosons and fermions")


def basis_index(left: SpinLabel, right: SpinLabel) -> int:
    return 2 * int(left) + int(right)


BASIS_LABELS = ("down_down", "down_up", "up_down", "up_up")
BASIS_SPINS = tuple(
    (left, right) for left in (SpinLabel.DOWN, SpinLabel.UP)
    for right in (SpinLabel.DOWN, SpinLabel.UP)
)

# Region-controlled NOT: left region controls, right region flips. As an
# index map it exchanges |up,down> and |up,up>, and it is an involution.
_CNOT_PERM = (0, 1, 3, 2)


def _check_finite(name: str, value: complex) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OverlapAmplitudes:
    """Amplitudes of the two wavefunctions in the measurement regions.

    l and r belong to the first wavefunction, l_prime and r_prime to the
    second. Each wavefunction may leak amplitude outside the two regions
    (squared magnitudes may sum to less than one) but never more than one.
    A nonzero product l_prime * r is what makes the particles spatially
    overlap; with l_prime = r = 0 they behave like distinguishable ones.
    """

    l: complex
    r: complex
    l_prime: complex
    r_prime: complex

    def __post_init__(self):
        for name in ("l", "r", "l_prime", "r_prime"):
            value = complex(getattr(self, name))
            _check_finite(name, value)
            object.__setattr__(self, name, value)
        if abs(self.l) ** 2 + abs(self.r) ** 2 > 1.0 + NORMALIZATION_TOL:
            raise ValueError("|l|^2 + |r|^2 exceeds 1")
        if abs(self.l_prime) ** 2 + abs(self.r_prime) ** 2 > 1.0 + NORMALIZATION_TOL:
            raise ValueError("|l_prime|^2 + |r_prime|^2 exceeds 1")

    @classmethod
    def balanced(cls) -> "OverlapAmplitudes":
        """All four squared magnitudes equal to 1/2 (full spatial overlap)."""
        return cls(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF)

    def without_overlap(self) -> "OverlapAmplitudes":
        """Copy with l_prime = r = 0: the spatially separated baseline."""
        return replace(self, l_prime=0j, r=0j)


@dataclass(frozen=True)
class MixedDiagonal:
    """Statistical mixture of spin assignments, one weight per (spin, spin) pair.

    weights follow the basis order (down_down, down_up, up_down, up_up),
    where the first spin rides the first wavefunction and the second spin
    the second wavefunction. Weights are nonnegative and sum to one.
    """

    weights: tuple[float, float, float, float]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != 4:
            raise ValueError("expected exactly four weights")
        for w in weights:
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weights must be finite and nonnegative, got {w}")
        if abs(sum(weights) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class PureProduct:
    """Both particles in definite spin states: first wavefunction carries
    `first`, second wavefunction carries `second`."""

    first: SpinLabel
    second: SpinLabel

    def __post_init__(self):
        object.__setattr__(self, "first", SpinLabel(self.first))
        object.__setattr__(self, "second", SpinLabel(self.second))


@dataclass(frozen=True)
class SpinSuperposition:
    """First particle spin-down; second in up_amp*|up> + down_amp*|down>."""

    up_amp: complex
    down_amp: complex

    def __post_init__(self):
        up = complex(self.up_amp)
        down = complex(self.down_amp)
        _check_finite("up_amp", up)
        _check_finite("down_amp", down)
        if abs(abs(up) ** 2 + abs(down) ** 2 - 1.0) > NORMALIZATION_TOL:
            raise ValueError("|up_amp|^2 + |down_amp|^2 must equal 1")
        object.__setattr__(self, "up_amp", up)
        object.__setattr__(self, "down_amp", down)


Preparation = MixedDiagonal | PureProduct | SpinSuperposition


@dataclass(frozen=True, eq=False)
class StateVector4:
    """Normalized state on the localized basis, plus its pre-normalization
    squared norm (the weight with which the projection succeeded)."""

    entries: np.ndarray
    norm_sq_raw: float

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(entries))
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"state vector must be unit norm, got {norm}")
        if not (self.norm_sq_raw > 0.0 and math.isfinite(self.norm_sq_raw)):
            raise ValueError("norm_sq_raw must be positive and finite")
        self._store(entries, self.norm_sq_raw)

    @classmethod
    def _trusted(cls, entries, norm_sq_raw: float) -> "StateVector4":
        """Internal constructor for a state the library computed itself: it
        stores the same value as the public one, without the checks."""
        state = object.__new__(cls)
        state._store(np.array(entries, dtype=np.complex128), norm_sq_raw)
        return state

    def _store(self, entries: np.ndarray, norm_sq_raw: float) -> None:
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "norm_sq_raw", float(norm_sq_raw))

    def projector(self) -> np.ndarray:
        return outer(self.entries, self.entries)


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """Unit-trace positive semidefinite matrix on the localized basis, plus
    the pre-normalization trace of the projected preparation."""

    mat: np.ndarray
    trace_raw: float

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        defect = hermiticity_defect(mat)
        if defect > NORMALIZATION_TOL:
            raise ValueError(f"density matrix is not Hermitian: defect {defect:.3e}")
        mat = hermitian_part(mat)
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density matrix must have unit trace, got {trace}")
        smallest = eigh(mat)[-1].value
        if smallest < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
        if not (self.trace_raw > 0.0 and math.isfinite(self.trace_raw)):
            raise ValueError("trace_raw must be positive and finite")
        self._store(mat, self.trace_raw)

    @classmethod
    def _trusted(cls, mat, trace_raw: float) -> "DensityMatrix4":
        """Internal constructor for a density matrix the library computed
        itself: it stores the same value as the public one (a symmetrized
        complex copy), without the checks."""
        rho = object.__new__(cls)
        rho._store(hermitian_part(np.array(mat, dtype=np.complex128)), trace_raw)
        return rho

    def _store(self, mat: np.ndarray, trace_raw: float) -> None:
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "trace_raw", float(trace_raw))

    def diagonal(self) -> np.ndarray:
        return np.diag(self.mat).real.copy()


def _require_exchange_statistics(stats: Statistics) -> int:
    if stats is Statistics.DISTINGUISHABLE:
        raise ValueError(
            "projection of identical particles needs boson or fermion statistics; "
            "use project_distinguishable for labelled particles")
    return stats.eta


def _finish_state(raw: np.ndarray, context: str) -> StateVector4:
    norm_sq = float(np.vdot(raw, raw).real)
    if norm_sq < VANISHING_TOL:
        raise VanishingProjection(
            f"projection of {context} has vanishing weight on the localized basis")
    entries = canonical_phase(raw / math.sqrt(norm_sq))
    return StateVector4._trusted(entries, norm_sq)


def project_pure(prep: PureProduct, amps: OverlapAmplitudes,
                 stats: Statistics) -> StateVector4:
    """Project a definite-spin pair onto the localized basis.

    For distinct spins the direct branch (first spin left, second right)
    carries l * r_prime and the exchanged branch carries eta * l_prime * r.
    For equal spins the two branches land on the same basis state and the
    amplitudes add; for fermions with full overlap they cancel.
    """
    eta = _require_exchange_statistics(stats)
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
    return _finish_state(raw, context)


def project_mixed(prep: MixedDiagonal, amps: OverlapAmplitudes,
                  stats: Statistics) -> DensityMatrix4:
    """Project a diagonal spin mixture onto the localized basis.

    Each (s, t) component contributes |l r'|^2 and |l' r|^2 on the diagonal
    and eta-weighted cross terms between the direct and exchanged basis
    states; equal-spin components collapse onto a single diagonal entry
    |l r' + eta l' r|^2. The pre-normalization trace is kept as trace_raw.
    """
    eta = _require_exchange_statistics(stats)
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
    return DensityMatrix4._trusted(mat / trace, trace)


def project_superposition(prep: SpinSuperposition, amps: OverlapAmplitudes,
                          stats: Statistics) -> StateVector4:
    """Project the (down, up/down-superposition) pair onto the localized basis.

    The up component of the second spin populates the two distinct-spin
    branches exactly like project_pure(down, up); the down component lands
    on |L down, R down> with the direct and exchanged amplitudes combined.
    """
    eta = _require_exchange_statistics(stats)
    direct = amps.l * amps.r_prime
    exchanged = amps.l_prime * amps.r
    raw = np.zeros(4, dtype=np.complex128)
    raw[1] = prep.up_amp * direct
    raw[2] = prep.up_amp * eta * exchanged
    raw[0] = prep.down_amp * (direct + eta * exchanged)
    context = f"spin superposition with eta={eta:+d}"
    return _finish_state(raw, context)


def project_distinguishable(prep: MixedDiagonal,
                            amps: OverlapAmplitudes) -> DensityMatrix4:
    """Localized projection of the corresponding labelled-particle mixture.

    Particle A is measured in the left region, particle B in the right, so
    every component projects onto a basis projector with the common factor
    |l|^2 |r_prime|^2. The result is always diagonal, hence incoherent,
    whatever the spatial overlap.
    """
    scale = abs(amps.l * amps.r_prime) ** 2
    if scale < VANISHING_TOL:
        raise VanishingProjection(
            "labelled particles need l and r_prime amplitudes to be found in "
            "the left and right regions")
    return DensityMatrix4._trusted(np.diag(prep.weights), scale)


def is_incoherent(rho: DensityMatrix4, tol: float = NORMALIZATION_TOL) -> bool:
    """True when every off-diagonal magnitude is at most tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    off = rho.mat - np.diag(np.diag(rho.mat))
    return float(np.max(np.abs(off))) <= tol


def coherence_l1(rho: DensityMatrix4) -> float:
    """Sum of off-diagonal magnitudes; zero exactly for incoherent states."""
    off = rho.mat - np.diag(np.diag(rho.mat))
    return float(np.sum(np.abs(off)))


def dephase(rho: DensityMatrix4) -> DensityMatrix4:
    """Drop all off-diagonal entries (full dephasing in the localized basis)."""
    return DensityMatrix4._trusted(np.diag(np.diag(rho.mat)), rho.trace_raw)


def cnot_slocc(rho: DensityMatrix4) -> DensityMatrix4:
    """Controlled NOT with the left region as control, right as target.

    Basis permutation |L s, R t> -> |L s, R (t xor s)>, applied by
    conjugation. Unitary: trace and spectrum are preserved, and diagonal
    states stay diagonal.
    """
    perm = np.asarray(_CNOT_PERM)
    return DensityMatrix4._trusted(rho.mat[np.ix_(perm, perm)], rho.trace_raw)
