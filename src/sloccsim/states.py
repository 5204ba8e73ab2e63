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
when it is diagonal in it (Baumgratz, Cramer and Plenio, PRL 113, 140401
(2014)), to NORMALIZATION_TOL; a projection whose norm^2 or trace is below
VANISHING_TOL vanishes.

Every projection, the region-controlled NOT and the coherence test are
stack kernels (the *_stack functions and offdiagonal_max) over any
leading shape; the scalar functions on the preparation objects are their
single-instance calls. The kernels replay CPython's complex arithmetic
(linalg.complex_product and friends), so a stacked entry equals what the
scalar function returns for that instance, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, IntEnum

import numpy as np

from .linalg import (
    abs_sq,
    canonical_phase,
    complex_parts,
    complex_product,
    complex_sum,
    eigh,
    hermiticity_defect,
    hermitian_part,
    outer_stack,
    vdot_stack,
)
from .tolerances import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    NORMALIZATION_TOL,
    VANISHING_TOL,
)

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
_DIAGONAL = np.diag_indices(4)


def _check_finite(name: str, value: complex) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def pair_norm_sq(a: complex, b: complex) -> float:
    """abs(a) ** 2 + abs(b) ** 2, or inf where a term overflows a float."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


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
        if pair_norm_sq(self.l, self.r) > 1.0 + NORMALIZATION_TOL:
            raise ValueError("|l|^2 + |r|^2 exceeds 1")
        if pair_norm_sq(self.l_prime, self.r_prime) > 1.0 + NORMALIZATION_TOL:
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
        if abs(pair_norm_sq(up, down) - 1.0) > NORMALIZATION_TOL:
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
        return outer_stack(self.entries, self.entries)


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
        if defect > HERMITICITY_TOL:
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
        """Internal constructor for a Hermitian matrix the library computed
        itself, symmetrized by hermitian_part where its arithmetic needs it:
        it stores the same value as the public one, without the checks."""
        rho = object.__new__(cls)
        rho._store(np.array(mat, dtype=np.complex128), trace_raw)
        return rho

    def _store(self, mat: np.ndarray, trace_raw: float) -> None:
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "trace_raw", float(trace_raw))


def _require_exchange_statistics(stats: Statistics) -> int:
    if stats is Statistics.DISTINGUISHABLE:
        raise ValueError(
            "projection of identical particles needs boson or fermion statistics; "
            "use project_distinguishable for labelled particles")
    return stats.eta


def _amplitudes(amps: OverlapAmplitudes) -> tuple:
    return amps.l, amps.r, amps.l_prime, amps.r_prime


def _stack(entries: dict, dims: tuple) -> np.ndarray:
    """Complex stack with trailing dims whose entry at each index in
    entries holds its (real, imag) pair; the other entries are zero."""
    shapes = {getattr(part, "shape", ()) for pair in entries.values()
              for part in pair}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    out = np.zeros((*shape, *dims), dtype=np.complex128)
    if not shape:  # one instance: each entry is one exactly built complex
        for index, (re, im) in entries.items():
            out[index] = complex(re, im)
        return out
    real, imag = out.real, out.imag
    for index, (re, im) in entries.items():
        real[(..., *index)] = re
        imag[(..., *index)] = im
    return out


def _finish_states(raw: np.ndarray):
    """(entries, norm_sq_raw, vanishing) of a (..., 4) stack of raw
    projections: entries are the unit vectors with their phase fixed by
    canonical_phase, and undefined where vanishing (norm_sq_raw below
    VANISHING_TOL)."""
    norm_sq = vdot_stack(raw, raw).real
    with np.errstate(all="ignore"):
        entries = canonical_phase(raw / np.sqrt(norm_sq)[..., None])
    return entries, norm_sq, norm_sq < VANISHING_TOL


def _state(stack, context: str) -> StateVector4:
    entries, norm_sq, vanishing = stack
    if vanishing:
        raise VanishingProjection(
            f"projection of {context} has vanishing weight on the localized basis")
    return StateVector4._trusted(entries, norm_sq)


def project_pure_stack(first: SpinLabel, second: SpinLabel, amps, eta):
    """project_pure for the spins (first, second) over stacks: amps is
    (l, r, l_prime, r_prime) and eta the exchange phase (+1 bosons, -1
    fermions), each a number or an array, all broadcasting together.
    Returns (entries, norm_sq_raw, vanishing) as _finish_states does."""
    l, r, l_prime, r_prime = (complex_parts(z) for z in amps)
    direct = complex_product(l, r_prime)
    exchanged = complex_product(complex_product((eta, 0.0), l_prime), r)
    if first == second:
        entries = {(basis_index(first, first),): complex_sum(direct, exchanged)}
    else:
        entries = {(basis_index(first, second),): direct,
                   (basis_index(second, first),): exchanged}
    return _finish_states(_stack(entries, (4,)))


def project_pure(prep: PureProduct, amps: OverlapAmplitudes,
                 stats: Statistics) -> StateVector4:
    """Project a definite-spin pair onto the localized basis.

    For distinct spins the direct branch (first spin left, second right)
    carries l * r_prime and the exchanged branch carries eta * l_prime * r.
    For equal spins the two branches land on the same basis state and the
    amplitudes add; for fermions with full overlap they cancel.
    """
    eta = _require_exchange_statistics(stats)
    context = (f"spins ({prep.first.name.lower()}, {prep.second.name.lower()}) "
               f"with eta={eta:+d}")
    return _state(project_pure_stack(prep.first, prep.second, _amplitudes(amps),
                                     eta), context)


def project_mixed_stack(weights, amps, eta):
    """project_mixed over stacks: weights (4,) or (size, 4) in basis order,
    amps and eta as for project_pure_stack. Returns (mat, trace_raw, vanishing):
    the unit-trace matrices, undefined where vanishing (trace_raw below
    VANISHING_TOL)."""
    l, r, l_prime, r_prime = (complex_parts(z) for z in amps)
    direct = complex_product(l, r_prime)
    exchanged = complex_product(l_prime, r)
    cross = complex_product(complex_product((eta, 0.0), direct),
                            (exchanged[0], -exchanged[1]))
    direct_sq, exchanged_sq = abs_sq(direct), abs_sq(exchanged)
    same_sq = abs_sq(complex_sum(direct, complex_product((eta, 0.0), exchanged)))
    weights = np.asarray(weights, dtype=np.float64)
    # each entry sums its terms from 0.0, component by component in basis
    # order
    sums = {}

    def add(index, term):
        re, im = sums.get(index, (0.0, 0.0))
        sums[index] = (re + term[0], im + term[1])

    for (s, t), weight in zip(BASIS_SPINS, weights.T):
        if s == t:
            i = basis_index(s, s)
            add((i, i), (weight * same_sq, 0.0))
            continue
        i, j = basis_index(s, t), basis_index(t, s)
        add((i, i), (weight * direct_sq, 0.0))
        add((j, j), (weight * exchanged_sq, 0.0))
        add((i, j), complex_product((weight, 0.0), cross))
        add((j, i), complex_product((weight, 0.0), (cross[0], -cross[1])))
    mat = _stack(sums, (4, 4))
    trace = np.asarray(mat.trace(axis1=-2, axis2=-1).real)
    with np.errstate(all="ignore"):
        mat = hermitian_part(mat / trace[..., None, None])
    return mat, trace, trace < VANISHING_TOL


def project_mixed(prep: MixedDiagonal, amps: OverlapAmplitudes,
                  stats: Statistics) -> DensityMatrix4:
    """Project a diagonal spin mixture onto the localized basis.

    Each (s, t) component contributes |l r'|^2 and |l' r|^2 on the diagonal
    and eta-weighted cross terms between the direct and exchanged basis
    states; equal-spin components collapse onto a single diagonal entry
    |l r' + eta l' r|^2. The pre-normalization trace is kept as trace_raw.
    """
    eta = _require_exchange_statistics(stats)
    mat, trace, vanishing = project_mixed_stack(prep.weights, _amplitudes(amps),
                                                eta)
    if vanishing:
        raise VanishingProjection(
            f"mixture with eta={eta:+d} has vanishing weight on the localized basis")
    return DensityMatrix4._trusted(mat, trace)


def project_superposition_stack(up_amp, down_amp, amps, eta):
    """project_superposition over stacks: the spin amplitudes up_amp and
    down_amp, amps and eta as for project_pure_stack. Returns (entries,
    norm_sq_raw, vanishing)."""
    l, r, l_prime, r_prime = (complex_parts(z) for z in amps)
    up, down = complex_parts(up_amp), complex_parts(down_amp)
    direct = complex_product(l, r_prime)
    exchanged = complex_product(l_prime, r)
    return _finish_states(_stack({
        (1,): complex_product(up, direct),
        (2,): complex_product(complex_product(up, (eta, 0.0)), exchanged),
        (0,): complex_product(down, complex_sum(
            direct, complex_product((eta, 0.0), exchanged))),
    }, (4,)))


def project_superposition(prep: SpinSuperposition, amps: OverlapAmplitudes,
                          stats: Statistics) -> StateVector4:
    """Project the (down, up/down-superposition) pair onto the localized basis.

    The up component of the second spin populates the two distinct-spin
    branches exactly like project_pure(down, up); the down component lands
    on |L down, R down> with the direct and exchanged amplitudes combined.
    """
    eta = _require_exchange_statistics(stats)
    return _state(project_superposition_stack(prep.up_amp, prep.down_amp,
                                              _amplitudes(amps), eta),
                  f"spin superposition with eta={eta:+d}")


def project_distinguishable_stack(weights, amps):
    """project_distinguishable over stacks, with weights and amps as for
    project_mixed_stack. Returns (mat, scale, vanishing): the diagonal
    matrices, the labelled-particle weight |l r'|^2, and where it is below
    VANISHING_TOL."""
    l, _, _, r_prime = (complex_parts(z) for z in amps)
    scale = abs_sq(complex_product(l, r_prime))
    weights = np.asarray(weights, dtype=np.float64)
    mat = np.zeros((*np.broadcast_shapes(weights.shape[:-1], np.shape(scale)), 4, 4),
                   dtype=np.complex128)
    mat.real[(..., *_DIAGONAL)] = weights
    return hermitian_part(mat), scale, scale < VANISHING_TOL


def project_distinguishable(prep: MixedDiagonal,
                            amps: OverlapAmplitudes) -> DensityMatrix4:
    """Localized projection of the corresponding labelled-particle mixture.

    Particle A is measured in the left region, particle B in the right, so
    every component projects onto a basis projector with the common factor
    |l|^2 |r_prime|^2. The result is always diagonal, hence incoherent,
    whatever the spatial overlap.
    """
    mat, scale, vanishing = project_distinguishable_stack(prep.weights,
                                                          _amplitudes(amps))
    if vanishing:
        raise VanishingProjection(
            "labelled particles need l and r_prime amplitudes to be found in "
            "the left and right regions")
    return DensityMatrix4._trusted(mat, scale)


def offdiagonal_max(mat) -> np.ndarray:
    """Largest off-diagonal magnitude of each matrix in a (..., 4, 4)
    stack: zero exactly for the incoherent (diagonal) states of
    Baumgratz, Cramer and Plenio (2014)."""
    off = np.array(mat, dtype=np.complex128)
    off[(..., *_DIAGONAL)] = 0.0
    return np.abs(off).max(axis=(-2, -1))


def is_incoherent(rho: DensityMatrix4) -> bool:
    """True when every off-diagonal magnitude is at most NORMALIZATION_TOL."""
    return bool(offdiagonal_max(rho.mat) <= NORMALIZATION_TOL)


def coherence_l1(rho: DensityMatrix4) -> float:
    """Sum of off-diagonal magnitudes, the l1 coherence of Baumgratz,
    Cramer and Plenio (2014); zero exactly for incoherent states."""
    off = rho.mat - np.diag(np.diag(rho.mat))
    return float(np.sum(np.abs(off)))


def cnot_stack(mat) -> np.ndarray:
    """cnot_slocc on a (..., 4, 4) stack of matrices."""
    return np.asarray(mat)[..., _CNOT_PERM, :][..., :, _CNOT_PERM]


def cnot_slocc(rho: DensityMatrix4) -> DensityMatrix4:
    """Controlled NOT with the left region as control, right as target.

    Basis permutation |L s, R t> -> |L s, R (t xor s)>, applied by
    conjugation. Unitary: trace and spectrum are preserved, and diagonal
    states stay diagonal.
    """
    return DensityMatrix4._trusted(cnot_stack(rho.mat), rho.trace_raw)
