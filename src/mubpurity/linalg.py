"""Dense complex linear algebra for small multipartite operators.

Conventions used throughout the package:

* subsystem 0 is the leftmost tensor factor, and composite indices flatten
  row-major, so the basis state ``|a b>`` of ``dims = [dA, dB]`` sits at
  flat index ``a * dB + b``;
* all matrices are ``complex128`` numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerances import TOL_PSD, TOL_STRUCTURAL


def _as_int(name: str, value) -> int:
    """``value`` as an int if it is a real number of integral value (4 or 4.0, not True); ValueError otherwise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _from_pairs(data) -> np.ndarray:
    """The complex array of nested [re, im] number pairs, with the bits Python's complex gives each pair."""
    a = np.array(data)  # numpy raises ValueError on ragged nesting
    if a.dtype.kind not in "iuf" or a.ndim < 1 or a.shape[-1] != 2:
        raise ValueError(f"expected nested [re, im] number pairs, got {a.dtype} entries of shape {a.shape}")
    return a.astype(float).view(complex)[..., 0]


def _to_pairs(a: np.ndarray) -> np.ndarray:
    """The (..., 2) float array of [re, im] pairs of a complex array, as :func:`_from_pairs` reads it."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(a.shape + (2,))


def _float_reprs(a: np.ndarray) -> np.ndarray:
    """The ``repr`` of every float of a float array, as an object array of ``str`` of its shape.

    Each text is the ``repr`` (and ``str``) of the value as a Python float,
    which json also writes for a finite float, but ``repr`` runs once per
    distinct bit pattern, so -0.0 and 0.0 stay apart.
    """
    a = np.asarray(a, dtype=float)
    distinct, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    table = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return table[inverse.reshape(a.shape)]


def _as_stack(m) -> np.ndarray:
    """Coerce ``m`` to a finite complex array of one matrix or a (..., n, n) stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a finite complex 2-D array."""
    if np.ndim(m) != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {np.shape(m)}")
    return _as_stack(m)


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _hermiticity_defects(a: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each matrix of a (..., n, n) array from its adjoint, over the leading shape."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _two_factors(m, dims: Sequence[int]) -> np.ndarray:
    """View an operator on ``dims = (d1, d2)``, or each of a stack, as a (..., d1, d2, d1, d2) array."""
    a = _as_stack(m)
    if len(dims) != 2:
        raise ValueError(f"expected two factors, got dims {tuple(dims)}")
    d1, d2 = (_as_int("dims", d) for d in dims)
    if a.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {a.shape} does not match dims ({d1}, {d2})")
    return a.reshape(a.shape[:-2] + (d1, d2, d1, d2))


def partial_trace_matrix(m, dims: Sequence[int]) -> np.ndarray:
    """Tr_A of any operator on ``dims = (dA, dB)``, or of each of a (..., n, n) stack: (..., dB, dB)."""
    t = _two_factors(m, dims)
    return np.trace(t, axis1=t.ndim - 4, axis2=t.ndim - 2)


def partial_transpose(m, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose one factor of a bipartite operator, or of each operator of a (..., n, n) stack.

    ``subsystem`` is 0 for the left factor and 1 for the right one. The map
    is an entrywise permutation, hence an exact involution.
    """
    t = _two_factors(m, dims)
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    # swap the row and the column index of the chosen factor
    row = t.ndim - 4 + subsystem
    n = t.shape[-4] * t.shape[-3]
    return t.swapaxes(row, row + 2).reshape(t.shape[:-4] + (n, n))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix of a (..., n, n) stack, ascending.

    Rejects inputs whose hermiticity defect exceeds the 1e-10 slack bucket.
    A stacked matrix gets the same bits as the matrix alone.
    """
    a = _as_stack(m)
    if _hermiticity_defects(a).max() > TOL_PSD:
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)


def _psd_rows(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of a Hermitian (n, k, k) stack has every eigenvalue above -TOL_PSD, as an (n,) bool array.

    Decided without an eigensolve: a Hermitian matrix has a Cholesky factor
    exactly when it is positive definite, so ``a + TOL_PSD I`` factors
    exactly when every eigenvalue of ``a`` exceeds -TOL_PSD. The
    factorization is backward stable, so rounding moves that bound by far
    less than the slack. It reads one triangle only, so the caller checks
    hermiticity first. The whole stack is factored in one call; only when
    that fails is each matrix factored alone, to tell which ones fail.
    """
    shifted = a + TOL_PSD * np.eye(a.shape[-1])
    try:
        np.linalg.cholesky(shifted)
        return np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    rows = np.ones(len(a), dtype=bool)
    for k, m in enumerate(shifted):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            rows[k] = False
    return rows


def _check_density_stack(a: np.ndarray) -> None:
    """Reject an (n, k, k) stack unless every matrix is finite, Hermitian, unit-trace and PSD.

    The checks run in that order; PSD means no eigenvalue below -TOL_PSD,
    as :func:`_psd_rows` decides it.
    """
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if _hermiticity_defects(a).max() > TOL_STRUCTURAL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    traces = np.trace(a, axis1=1, axis2=2)
    off = np.abs(traces - 1.0) > TOL_STRUCTURAL
    if off.any():
        raise ValueError(f"trace {complex(traces[off.argmax()])!r} is not 1 within tolerance")
    if not _psd_rows(a).all():
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on labeled factors.

    ``dims`` lists the subsystem dimensions, leftmost factor first.
    Instances compare and hash by identity.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        a = as_matrix(self.matrix)
        try:
            dims = tuple(_as_int(f"dims[{k}]", d) for k, d in enumerate(self.dims))
        except TypeError:
            raise ValueError(f"dims must be a sequence of integers, got {self.dims!r}") from None
        total = math.prod(dims)
        if min(dims, default=0) < 1:
            raise ValueError(f"invalid dims {dims}")
        if a.shape != (total, total):
            raise ValueError(f"matrix shape {a.shape} does not match dims {dims}")
        _check_density_stack(a[None])
        self._freeze(a, dims)

    def _freeze(self, a: np.ndarray, dims: tuple[int, ...]) -> None:
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _checked(cls, a: np.ndarray, dims: tuple[int, ...]) -> DensityMatrix:
        """The density matrix of a (k, k) array that a state builder has already checked, on int ``dims`` that fit it.

        Nothing is checked again; the matrix is copied as the constructor copies it.
        """
        rho = object.__new__(cls)
        rho._freeze(a, dims)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _purities(m: np.ndarray) -> np.ndarray:
    """Tr(m^2) of each matrix of a (..., k, k) stack, as a real array of the leading shape."""
    return np.einsum("...ab,...ba->...", m, m).real


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    return float(_purities(m))


# JSON density matrix format, row-major:
# {"rows": n, "cols": n, "data": [[re, im], ...], "dims": [d1, ...]}

def density_to_json(rho: DensityMatrix) -> dict:
    data = _to_pairs(rho.matrix).reshape(-1, 2).tolist()
    return {"rows": rho.dim, "cols": rho.dim, "data": data, "dims": list(rho.dims)}


def density_from_json(obj: dict) -> DensityMatrix:
    """The density matrix of an object in the format above; a malformed one raises ValueError."""
    try:
        rows, cols, data, dims = (obj[key] for key in ("rows", "cols", "data", "dims"))
    except KeyError as exc:
        raise ValueError(f"density matrix object must carry {exc}") from None
    except TypeError:
        raise ValueError(f"expected a density matrix object, got {type(obj).__name__}") from None
    rows, cols = _as_int("rows", rows), _as_int("cols", cols)
    for name, size in (("rows", rows), ("cols", cols)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    flat = _from_pairs(data)
    if flat.shape != (rows * cols,):
        raise ValueError(f"expected {rows * cols} [re, im] pairs, got an array of shape {flat.shape + (2,)}")
    return DensityMatrix(flat.reshape(rows, cols), dims)
