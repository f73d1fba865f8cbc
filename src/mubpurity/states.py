"""State families used by the relation checks and the circuit simulator."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, _as_int, _first_worst


def _family_states(alpha, x) -> np.ndarray:
    """The (n, 4, 4) stack x |psi_alpha><psi_alpha| + (1-x)/4 I4 at two floats or two equal-length 1-D arrays.

    Two floats give a stack of one. The first point outside the domain
    fails, naming x when both of its values are bad; inside it, every state
    is a density matrix by construction and is not checked. Each is
    built with the same bits as in a stack of one.
    """
    alpha, x = np.array(alpha, dtype=float), np.array(x, dtype=float)
    if alpha.ndim == 0 and x.ndim == 0:
        alpha, x = alpha[None], x[None]
    if alpha.ndim != 1 or alpha.shape != x.shape or alpha.size == 0:
        raise ValueError(
            f"alpha and x must be scalars or non-empty 1-D arrays of equal length, "
            f"got shapes {alpha.shape} and {x.shape}"
        )
    # NaN fails every comparison
    bad_x = ~((0.0 <= x) & (x <= 1.0))
    bad = bad_x | ~((0.0 <= alpha) & (alpha <= np.pi / 2))
    if bad.any():
        _, (i,) = _first_worst(bad)
        if bad_x[i]:
            raise ValueError(f"x={float(x[i])!r} outside [0, 1]")
        raise ValueError(f"alpha={float(alpha[i])!r} outside [0, pi/2]")
    # psi_alpha = cos(alpha/2)|01> - sin(alpha/2)|10>, qubit A the leftmost factor
    v = np.zeros((len(alpha), 4), dtype=complex)
    v[:, 1] = np.cos(alpha / 2)
    v[:, 2] = -np.sin(alpha / 2)
    pure = v[:, :, None] * v[:, None, :].conj()
    return x[:, None, None] * pure + ((1.0 - x) / 4.0)[:, None, None] * np.eye(4)


def rho_family(alpha: float, x: float) -> DensityMatrix:
    """Depolarized family x |psi_alpha><psi_alpha| + (1-x)/4 I4 on dims (2, 2).

    Purity is (1 + 3 x^2)/4 for every alpha (eigenvalues x + (1-x)/4 once
    and (1-x)/4 three times).
    """
    return DensityMatrix(_family_states(float(alpha), float(x))[0], (2, 2))


def _random_density_stack(dim: int, ranks, seeds) -> np.ndarray:
    """The (n, dim, dim) stack of seeded random states, state i of rank ``ranks[i]``; verify builds the sizes, so none is checked.

    Row i is g g^dagger / Tr(g g^dagger) for the complex Gaussian (dim,
    rank) matrix g whose real and then imaginary parts are the normals of
    ``default_rng(seeds[i])``: a density matrix by construction (Ginibre
    ensemble). Each row is written in place, and scaled on its float view
    by the reciprocal of the trace. That is numpy's complex-by-real
    division ``m /= t`` bit for bit: it divides by t + 0j with Smith's
    algorithm, which then reduces to x * (1 / t) on each component of a
    finite entry, save the sign of a -0.0 component. The diagonal, of
    positive real parts, keeps every sign, and an entry off it has a zero
    component with probability zero.
    """
    out = np.empty((len(ranks), dim, dim), dtype=complex)
    for row, rank, seed in zip(out, ranks, seeds, strict=True):
        g = np.empty((dim, rank), dtype=complex)
        g.real, g.imag = np.random.default_rng(seed).standard_normal((2, dim, rank))
        np.matmul(g, g.conj().T, out=row)
        scaled = row.view(float)
        scaled *= 1.0 / np.trace(row).real
    return out


def random_density(dim: int, rank: int, seed, dims=None) -> DensityMatrix:
    """Seeded random density matrix of the given rank: the Ginibre state of :func:`_random_density_stack`.

    ``dim``, ``rank`` and ``seed`` are integers, with rank from 1 to dim and
    seed >= 0. ``dims`` optionally labels a tensor factorization; it must
    multiply to ``dim`` and defaults to the single factor ``(dim,)``.
    """
    dim, rank, seed = _as_int("dim", dim, 1), _as_int("rank", rank, 1), _as_int("seed", seed, 0)
    if rank > dim:
        raise ValueError(f"need rank <= dim, got rank={rank}, dim={dim}")
    return DensityMatrix(_random_density_stack(dim, (rank,), (seed,))[0], (dim,) if dims is None else dims)
