"""State families used by the relation checks and the circuit simulator."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, _check_density_stack


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


def _psi_stack(alpha: np.ndarray) -> np.ndarray:
    """The (n, 4) amplitudes of psi_alpha for each alpha of a 1-D array; no range check."""
    v = np.zeros((len(alpha), 4), dtype=complex)
    v[:, 1] = np.cos(alpha / 2)
    v[:, 2] = -np.sin(alpha / 2)
    return v


def psi_alpha(alpha: float) -> np.ndarray:
    """Normalized amplitudes of the two-qubit state cos(a/2)|01> - sin(a/2)|10>.

    alpha = 0 gives the product state |01>; alpha = pi/2 the maximally
    entangled singlet. Qubit A is the leftmost (most significant) factor.
    """
    return _psi_stack(np.array([_check_alpha(alpha)]))[0]


def _family_matrices(alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x |psi_alpha><psi_alpha| + (1-x)/4 I4 for each point of two 1-D arrays, shape (n, 4, 4).

    The caller checks the ranges; every point has the same bits as a stack of one.
    """
    v = _psi_stack(alpha)
    pure = v[:, :, None] * v[:, None, :].conj()
    return x[:, None, None] * pure + ((1.0 - x) / 4.0)[:, None, None] * np.eye(4)


def _family_states(alpha, x) -> np.ndarray:
    """The checked (n, 4, 4) stack of family states at two floats or two equal-length 1-D arrays.

    Two floats give a stack of one. The first point outside the domain
    fails with the message of :func:`rho_family`, which names x when both
    values are bad; state i has the bits of ``rho_family(alpha[i], x[i]).matrix``.
    """
    alpha, x = np.array(alpha, dtype=float), np.array(x, dtype=float)
    if alpha.ndim == 0 and x.ndim == 0:
        alpha, x = alpha[None], x[None]
    if alpha.ndim != 1 or alpha.shape != x.shape or alpha.size == 0:
        raise ValueError(
            f"alpha and x must be scalars or non-empty 1-D arrays of equal length, "
            f"got shapes {alpha.shape} and {x.shape}"
        )
    # the domains of _check_x and _check_alpha; NaN fails every comparison
    bad = ~((0.0 <= x) & (x <= 1.0) & (0.0 <= alpha) & (alpha <= np.pi / 2))
    if bad.any():
        first = int(bad.argmax())
        _check_x(x[first])
        _check_alpha(alpha[first])
    rho = _family_matrices(alpha, x)
    _check_density_stack(rho)
    return rho


def rho_family(alpha: float, x: float) -> DensityMatrix:
    """Depolarized family x |psi_alpha><psi_alpha| + (1-x)/4 I4 on dims (2, 2).

    Purity is (1 + 3 x^2)/4 for every alpha (eigenvalues x + (1-x)/4 once
    and (1-x)/4 three times).
    """
    x = _check_x(x)
    m = _family_matrices(np.array([_check_alpha(alpha)]), np.array([x]))
    return DensityMatrix(m[0], (2, 2))


def _check_draw(dim: int, ranks, dims) -> tuple[int, list[int], tuple[int, ...]]:
    """(dim, ranks, dims) as ints once every rank lies in 1..dim and positive ``dims`` multiply to dim."""
    dim = int(dim)
    ranks = [int(r) for r in ranks]
    for rank in ranks:
        if not 1 <= rank <= dim:
            raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    dims = (dim,) if dims is None else tuple(int(d) for d in dims)
    if int(np.prod(dims)) != dim:
        raise ValueError(f"dims {dims} do not multiply to {dim}")
    if min(dims, default=0) < 1:
        raise ValueError(f"invalid dims {dims}")
    return dim, ranks, dims


def _ginibre(dim: int, rank: int, seed) -> np.ndarray:
    """g g^dagger / Tr(g g^dagger) for a seeded complex Gaussian (dim, rank) matrix g; unchecked."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def _random_density_stack(dim: int, ranks, seeds, dims=None) -> np.ndarray:
    """The checked (n, dim, dim) stack of seeded random states, state i of rank ``ranks[i]``.

    Makes every check of :func:`random_density`; row i has the bits of
    ``random_density(dim, ranks[i], seeds[i], dims).matrix``.
    """
    dim, ranks, dims = _check_draw(dim, ranks, dims)
    stack = np.stack([_ginibre(dim, rank, seed) for rank, seed in zip(ranks, seeds, strict=True)])
    _check_density_stack(stack)
    return stack


def random_density(dim: int, rank: int, seed, dims=None) -> DensityMatrix:
    """Seeded random density matrix of the given rank (Ginibre construction).

    ``dims`` optionally labels a tensor factorization; it must multiply to
    ``dim`` and defaults to the single factor ``(dim,)``.
    """
    dim, (rank,), dims = _check_draw(dim, [rank], dims)
    return DensityMatrix(_ginibre(dim, rank, seed), dims)


__all__ = [
    "psi_alpha",
    "rho_family",
    "random_density",
]
