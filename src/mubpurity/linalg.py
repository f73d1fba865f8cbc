"""Dense complex linear algebra for small multipartite operators.

Conventions used throughout the package:

* subsystem 0 is the leftmost tensor factor, and composite indices flatten
  row-major, so the basis state ``|a b>`` of ``dims = [dA, dB]`` sits at
  flat index ``a * dB + b``;
* all matrices are ``complex128`` numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerances import TOL_PSD, TOL_STRUCTURAL

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


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of a matrix, or of any matrix of a stack, from its adjoint."""
    a = np.asarray(m)
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max())


def _two_factors(m, dims: Sequence[int]) -> np.ndarray:
    """View an operator on ``dims = (d1, d2)``, or each of a stack, as a (..., d1, d2, d1, d2) array."""
    a = _as_stack(m)
    if len(dims) != 2:
        raise ValueError(f"expected two factors, got dims {tuple(dims)}")
    d1, d2 = (int(d) for d in dims)
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
    if hermiticity_defect(a) > TOL_PSD:
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)


def _check_density_stack(a: np.ndarray) -> None:
    """Reject an (n, k, k) stack unless every matrix is finite, Hermitian, unit-trace and PSD.

    PSD means no eigenvalue below -TOL_PSD. The checks run in that order, and
    the last one decides it without an eigensolve: a Hermitian matrix has a
    Cholesky factor exactly when it is positive definite, so ``a + TOL_PSD I``
    factors exactly when every eigenvalue of ``a`` exceeds -TOL_PSD. The
    factorization is backward stable, so rounding moves that bound by far
    less than the slack.
    """
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if hermiticity_defect(a) > TOL_STRUCTURAL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    traces = np.trace(a, axis1=1, axis2=2)
    off = np.abs(traces - 1.0) > TOL_STRUCTURAL
    if off.any():
        raise ValueError(f"trace {complex(traces[off.argmax()])!r} is not 1 within tolerance")
    try:
        np.linalg.cholesky(a + TOL_PSD * np.eye(a.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance") from None


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on labeled factors.

    ``dims`` lists the subsystem dimensions, leftmost factor first.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        a = as_matrix(self.matrix)
        dims = tuple(int(d) for d in self.dims)
        total = int(np.prod(dims))
        if min(dims, default=0) < 1:
            raise ValueError(f"invalid dims {dims}")
        if a.shape != (total, total):
            raise ValueError(f"matrix shape {a.shape} does not match dims {dims}")
        _check_density_stack(a[None])
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "dims", dims)

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


# JSON matrix format: {"rows": n, "cols": n, "data": [[re, im], ...]} row-major;
# density matrices add "dims".

def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
        m = flat.reshape(rows, cols)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return as_matrix(m)


def density_to_json(rho: DensityMatrix) -> dict:
    out = matrix_to_json(rho.matrix)
    out["dims"] = [int(d) for d in rho.dims]
    return out


def density_from_json(obj: dict) -> DensityMatrix:
    try:
        dims = tuple(int(d) for d in obj["dims"])
    except KeyError:
        raise ValueError("density matrix object must carry 'dims'") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed dims: {exc}") from exc
    return DensityMatrix(matrix_from_json(obj), dims)
