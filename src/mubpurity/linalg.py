"""Dense complex linear algebra for small multipartite operators.

Conventions used throughout the package:

* subsystem 0 is the leftmost tensor factor, and composite indices flatten
  row-major, so the basis state ``|a b>`` of ``dims = [dA, dB]`` sits at
  flat index ``a * dB + b``;
* all matrices are ``complex128`` numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tolerances import TOL_PSD, TOL_STRUCTURAL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a finite complex 2-D array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of ``m`` from its own adjoint."""
    a = np.asarray(m)
    return float(np.abs(a - a.conj().T).max())


def _normalize_keep(keep: Iterable[int], n: int) -> list[int]:
    idx = sorted(set(int(k) for k in keep))
    if not idx:
        raise ValueError("keep must name at least one subsystem")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"subsystem index out of range for {n} subsystems: {idx}")
    return idx


def partial_trace_matrix(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Kept subsystems retain their original order. Works on any square matrix
    (density matrices, deviation matrices, generic operators).
    """
    a = as_matrix(m)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValueError(f"matrix shape {a.shape} does not match dims {dims}")
    idx = _normalize_keep(keep, len(dims))
    t = a.reshape(dims + dims)
    nsub = len(dims)
    for drop in sorted((i for i in range(len(dims)) if i not in idx), reverse=True):
        t = np.trace(t, axis1=drop, axis2=drop + nsub)
        nsub -= 1
    size = int(np.prod([dims[k] for k in idx]))
    return t.reshape(size, size)


def partial_transpose(m, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose one factor of a bipartite operator in the computational basis.

    ``subsystem`` is 0 for the left factor and 1 for the right one. The map
    is an entrywise permutation, hence an exact involution.
    """
    a = as_matrix(m)
    d1, d2 = (int(d) for d in dims)
    if a.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {a.shape} does not match dims ({d1}, {d2})")
    t = a.reshape(d1, d2, d1, d2)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 0 or 1")
    return t.reshape(d1 * d2, d1 * d2)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Rejects inputs whose hermiticity defect exceeds the 1e-10 slack bucket.
    """
    a = as_matrix(m)
    if hermiticity_defect(a) > TOL_PSD:
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"amplitudes must be a vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("amplitudes must be finite")
        if abs(np.linalg.norm(v) - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"state norm {np.linalg.norm(v)!r} is not 1 within tolerance")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


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
        if hermiticity_defect(a) > TOL_STRUCTURAL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"trace {tr!r} is not 1 within tolerance")
        if np.linalg.eigvalsh(a)[0] < -TOL_PSD:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    return float(np.trace(m @ m).real)


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
