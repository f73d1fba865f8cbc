"""State families used by the relation checks and the circuit simulator."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, PureState


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= np.pi / 2:
        raise ValueError(f"alpha={alpha!r} outside [0, pi/2]")
    return alpha


def _check_x(x: float) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x!r} outside [0, 1]")
    return x


def psi_alpha(alpha: float) -> PureState:
    """Two-qubit state cos(a/2)|01> - sin(a/2)|10>.

    alpha = 0 gives the product state |01>; alpha = pi/2 the maximally
    entangled singlet. Qubit A is the leftmost (most significant) factor.
    """
    alpha = _check_alpha(alpha)
    v = np.zeros(4, dtype=complex)
    v[1] = np.cos(alpha / 2)
    v[2] = -np.sin(alpha / 2)
    return PureState(v)


def rho_family(alpha: float, x: float) -> DensityMatrix:
    """Depolarized family x |psi_alpha><psi_alpha| + (1-x)/4 I4 on dims (2, 2).

    Purity is (1 + 3 x^2)/4 for every alpha (eigenvalues x + (1-x)/4 once
    and (1-x)/4 three times).
    """
    x = _check_x(x)
    m = x * psi_alpha(alpha).projector() + (1.0 - x) / 4.0 * np.eye(4)
    return DensityMatrix(m, (2, 2))


def random_density(dim: int, rank: int, seed, dims=None) -> DensityMatrix:
    """Seeded random density matrix of the given rank (Ginibre construction).

    ``dims`` optionally labels a tensor factorization; it must multiply to
    ``dim`` and defaults to the single factor ``(dim,)``.
    """
    dim = int(dim)
    rank = int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    dims = (dim,) if dims is None else tuple(int(d) for d in dims)
    if int(np.prod(dims)) != dim:
        raise ValueError(f"dims {dims} do not multiply to {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, dims)


__all__ = [
    "psi_alpha",
    "rho_family",
    "random_density",
]
