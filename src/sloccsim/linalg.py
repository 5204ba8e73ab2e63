"""Dense complex linear algebra on small dimensions (<= 4).

Vectors are 1-d complex ndarrays, matrices 2-d complex ndarrays. The
Hermitian eigensolver is LAPACK's, through np.linalg.eigh: eigh_stack
solves a whole (..., n, n) stack in one call and eigh wraps it for one
matrix. Both refuse a Hermiticity defect above HERMITICITY_TOL, order
values descending and fix each eigenvector's global phase by
canonical_phase, on its first entry above PHASE_ANCHOR_TOL.

The stack kernels in states and discrimination reproduce the package's
scalar results bit for bit, through the helpers at the end of this module:
CPython's complex arithmetic replayed on float arrays, and vdot_stack.
"""

from __future__ import annotations

import errno
import os
from typing import NamedTuple

import numpy as np

from .tolerances import HERMITICITY_TOL, PHASE_ANCHOR_TOL


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray


def vdot_stack(u, v) -> np.ndarray:
    """<u|v> over the last axis of two (..., n) stacks. The matmul form
    returns exactly what np.vdot returns for each pair (summing the
    products with .sum(-1) or einsum rounds differently)."""
    if u.ndim == 1:
        return np.vdot(u, v)
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def outer_stack(u, v) -> np.ndarray:
    """|u><v| for each pair of vectors on the last axis of two stacks:
    result[..., i, j] = u[..., i] * conj(v[..., j])."""
    return u[..., :, None] * v.conj()[..., None, :]


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


# ---------------------------------------------------------------------------
# CPython's scalar complex arithmetic, replayed on float arrays.
#
# A complex value travels as a (real, imag) pair of float arrays. numpy's
# complex multiply rounds differently from CPython's _Py_c_prod (on 44 % of
# 50,000 random products with numpy 2.4 on an AVX-512 x86-64 host), so
# products go through complex_product, which is _Py_c_prod; int or float
# factors enter as (x, 0.0), as CPython converts them. abs is np.hypot, the
# libm hypot of CPython's complex abs (numpy's complex abs differs). A
# square is CPython's "x ** 2", which calls libm pow; np.float_power calls
# the same libm pow on each element, so pow2 squares through it. The other
# numpy squares round differently in the last bit on some inputs: x * x
# (and np.power(x, 2.0), which numpy turns into x * x) on 1,507 of 2.47M
# random finite floats, and np.power with an array exponent, numpy's own
# SIMD pow on AVX-512 hosts, on 45,799 (numpy 2.4.6, x86-64).


def complex_parts(z) -> tuple:
    """(real, imag) of z: Python floats for a number, which keeps a single
    instance's arithmetic in CPython floats, else float arrays."""
    if isinstance(z, (int, float, complex)):
        z = complex(z)
    else:
        z = np.asarray(z, dtype=np.complex128)
    return z.real, z.imag


def complex_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    (a_re, a_im), (b_re, b_im) = a, b
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def complex_sum(a, b) -> tuple[np.ndarray, np.ndarray]:
    return a[0] + b[0], a[1] + b[1]


def pow2(x) -> np.ndarray:
    """Element-wise x ** 2 with the bits of CPython's float pow: a float in,
    a float out; otherwise a float64 array of x's shape (a 0-d input stays
    0-d). A finite x whose square overflows raises CPython's OverflowError,
    not numpy's warning and inf."""
    if isinstance(x, float):
        return float(x) ** 2
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        y = np.float_power(x, 2.0, out=np.empty(x.shape))
    overflow = np.isinf(y)
    if np.count_nonzero(overflow) and np.isfinite(x[overflow]).any():
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    return y


def abs_sq(z) -> np.ndarray:
    """abs(z) ** 2 of a (real, imag) pair, as CPython computes it."""
    return pow2(np.hypot(*z))
