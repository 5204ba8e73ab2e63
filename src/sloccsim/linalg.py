"""Dense complex linear algebra on small dimensions (<= 4).

Vectors are 1-d complex ndarrays, matrices 2-d complex ndarrays. The
Hermitian eigensolver is LAPACK's, through np.linalg.eigh: eigh_stack
solves a whole (..., n, n) stack in one call and eigh wraps it for one
matrix. Both check Hermiticity, order values descending and fix each
eigenvector's global phase by canonical_phase.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12

# Entries below this magnitude (post normalization) do not anchor the
# global-phase convention.
PHASE_ANCHOR_TOL = 1e-12


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray


def _as_vector(u) -> np.ndarray:
    arr = np.asarray(u, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    return arr


def inner(u, v) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    u = _as_vector(u)
    v = _as_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.vdot(u, v))


def outer(u, v) -> np.ndarray:
    """|u><v| as a matrix: result[i, j] = u[i] * conj(v[j])."""
    u = _as_vector(u)
    v = _as_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return np.multiply.outer(u, v.conj())


def hermiticity_defect(a) -> float:
    """Largest entry of |a - a†|, over a matrix or a stack of them."""
    a = np.asarray(a, dtype=np.complex128)
    return float(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())))


def hermitian_part(a) -> np.ndarray:
    """(a + a†) / 2, over a matrix or a stack of them."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each unit vector on the last axis of v so
    that its first entry of magnitude above PHASE_ANCHOR_TOL is real >= 0.
    Magnitudes come from np.hypot, the libm hypot of abs() on a Python
    complex; numpy's complex abs on arrays rounds differently."""
    mag = np.hypot(v.real, v.imag)
    first = np.argmax(mag > PHASE_ANCHOR_TOL, axis=-1)
    anchor = (*np.indices(first.shape, sparse=True), first)
    return v * (v[anchor].conj() / mag[anchor])[..., None]


def eigh_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (..., n, n) stack of Hermitian matrices by
    LAPACK (np.linalg.eigh), in one call.

    Non-finite entries, or a Hermiticity defect above HERMITICITY_TOL in
    any matrix, raise ValueError; a smaller defect is symmetrized away.
    Returns (values, vectors): values (..., n) descending per matrix, and
    read-only vectors (..., n, n) whose column [..., :, k] is the unit
    eigenvector of values[..., k], its first entry of magnitude above
    PHASE_ANCHOR_TOL real >= 0. Directions inside a degenerate cluster are
    not specified beyond orthonormality.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    defect = hermiticity_defect(arr)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    values, vectors = np.linalg.eigh(hermitian_part(arr))
    # LAPACK orders values ascending; canonical_phase works on rows
    rows = canonical_phase(np.swapaxes(vectors[..., ::-1], -1, -2))
    vectors = np.swapaxes(rows, -1, -2)
    vectors.flags.writeable = False
    return values[..., ::-1], vectors


def eigh(a) -> list[EigenPair]:
    """eigh_stack for one matrix, as EigenPairs sorted by descending value."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    values, vectors = eigh_stack(arr)
    return [EigenPair(float(value), vectors[:, k])
            for k, value in enumerate(values.tolist())]
