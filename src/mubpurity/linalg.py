"""Dense complex linear algebra for small multipartite operators.

Conventions used throughout the package:

* subsystem 0 is the leftmost tensor factor, and composite indices flatten
  row-major, so the basis state ``|a b>`` of ``dims = [dA, dB]`` sits at
  flat index ``a * dB + b``;
* all matrices are ``complex128`` numpy arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tolerances import TOL_PSD, TOL_STRUCTURAL


def _as_int(name: str, value, low: int | None = None) -> int:
    """``value`` as an int if it is a real number of integral value (4 or 4.0, not True) not below ``low``; else ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            if low is not None and value < low:
                raise ValueError(f"need {name} >= {low}, got {int(value)}")
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _from_pairs(data, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` read from nested [re, im] pairs, with the bits Python's complex gives each pair.

    The one reader of both JSON formats. Nesting other than ``shape + (2,)``,
    a leaf that is a bool or no real number (every JSON integer and float is
    one) and an integer beyond float range raise ValueError.
    """
    a = np.array(data, dtype=object)  # a ragged level ends the shape numpy finds
    if a.shape != (*shape, 2):
        raise ValueError(f"expected nested [re, im] number pairs of shape {(*shape, 2)}, got shape {a.shape}")
    leaves = a.ravel().tolist()
    if not all(t is not bool and issubclass(t, numbers.Real) for t in set(map(type, leaves))):
        bad = next(type(x) for x in leaves if type(x) is bool or not isinstance(x, numbers.Real))
        raise ValueError(f"expected nested [re, im] number pairs, got a {'boolean' if bad is bool else bad.__name__} entry")
    try:
        return a.astype(float).view(complex)[..., 0]
    except OverflowError:
        raise ValueError("expected nested [re, im] number pairs, got an integer beyond float range") from None


def _read_json(path, what: str, error: type[ValueError] = ValueError):
    """The JSON value in the file at ``path``; a file that cannot be read or decoded raises ``error`` naming ``what``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise error(f"cannot read {what} from {path}: {exc}") from exc


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
    """Coerce ``m`` to a finite complex array of one matrix or a (..., n, n) stack, not empty."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.size == 0:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _hermiticity_defects(a: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each matrix of a (..., n, n) array from its adjoint, over the leading shape."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _first_worst(values: np.ndarray, lowest: bool = False) -> tuple[float, tuple[int, ...]]:
    """The first least (``lowest``) or greatest entry of ``values`` in C order, as a Python number, and its index.

    NaN, which argmin and argmax return first, is that entry; it fails every bound.
    """
    k = int(values.argmin() if lowest else values.argmax())
    return values.item(k), tuple(map(int, np.unravel_index(k, values.shape)))


def _partial_trace(t: np.ndarray) -> np.ndarray:
    """Tr over the left factor of a (..., d1, d2, d1, d2) view, unchecked: (..., d2, d2)."""
    return np.trace(t, axis1=t.ndim - 4, axis2=t.ndim - 2)


def partial_transpose(m, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose one factor of an operator on ``dims = (d1, d2)``, or of each operator of a (..., n, n) stack.

    ``subsystem`` is 0 for the left factor and 1 for the right one. The map
    is an entrywise permutation, hence an exact involution.
    """
    a = _as_stack(m)
    if np.shape(dims) != (2,):
        raise ValueError(f"expected two factors, got dims {dims!r}")
    d1, d2 = (_as_int("dims", d, 1) for d in dims)
    if a.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {a.shape} does not match dims ({d1}, {d2})")
    subsystem = _as_int("subsystem", subsystem)
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    # swap the row and the column index of the chosen factor
    row = a.ndim - 2 + subsystem
    t = a.reshape(a.shape[:-2] + (d1, d2, d1, d2))
    return t.swapaxes(row, row + 2).reshape(a.shape)


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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on labeled factors.

    ``dims`` lists the subsystem dimensions, leftmost factor first. The
    matrix must be finite, Hermitian and unit-trace within TOL_STRUCTURAL,
    and PSD as :func:`_psd_rows` decides it; a read-only copy is stored.
    Instances compare and hash by identity.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        a = _as_stack(self.matrix)
        try:
            dims = tuple(_as_int(f"dims[{k}]", d, 1) for k, d in enumerate(self.dims))
        except TypeError:
            raise ValueError(f"dims must be a sequence of integers, got {self.dims!r}") from None
        if not dims:
            raise ValueError("invalid dims ()")
        total = math.prod(dims)
        if a.shape != (total, total):
            raise ValueError(f"matrix shape {a.shape} does not match dims {dims}")
        if _hermiticity_defects(a) > TOL_STRUCTURAL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = np.trace(a)
        if abs(trace - 1.0) > TOL_STRUCTURAL:
            raise ValueError(f"trace {complex(trace)!r} is not 1 within tolerance")
        if not _psd_rows(a[None])[0]:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
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
    rows, cols = _as_int("rows", rows, 1), _as_int("cols", cols, 1)
    return DensityMatrix(_from_pairs(data, (rows * cols,)).reshape(rows, cols), dims)
