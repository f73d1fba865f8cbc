"""Purity conservation relations for measurements in mutually unbiased bases.

Given a bipartite state rho on dims (d, D) and M MUBs on the d-dimensional
side, a non-selective projective measurement of side A in basis theta
pinches rho into ``rho_thetaB``. The relation checked here balances the
purity lost across the M measurement choices:

    sum_theta (Tr rho_B^2 - Tr rho_thetaB^2)
        >= (M - 1) * (Tr rho_B^2 - Tr rho_AB^2 / d),

with equality whenever M = d + 1. Both sides are tied to the operator

    gamma = I_A (x) rho_B + (M-1)/d * rho_AB - sum_theta rho_thetaB,

which vanishes at M = d + 1 and is positive semidefinite for M <= d. The
module computes gamma both from that definition and through an independent
projector/partial-transpose route, which serves as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    frobenius_norm,
    hermitian_eigenvalues,
    partial_trace_matrix,
    partial_transpose,
    purity,
)
from .mub import MubSet, MubValidationError, validate_mubs
from .tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL


@dataclass(frozen=True)
class BipartiteBasis:
    """Orthonormal basis of the d*d space built from a MUB set.

    ``twisted[t, k]`` is the phase-twisted maximally entangled state of
    basis t+1 and twist k = 0..d-1, shape (M, d, d*d); every k = 0 row is
    the same state ``phi``. ``complement`` holds the (d-1)(d+1-M) states
    completing the basis as rows, shape (p, d*d), and ``projector`` projects
    onto their span.
    """

    d: int
    M: int
    twisted: np.ndarray
    complement: np.ndarray
    projector: np.ndarray
    mubs: MubSet

    @property
    def phi(self) -> np.ndarray:
        return self.twisted[0, 0]

    def constructed_states(self) -> np.ndarray:
        """All M(d-1)+1 constructed states, stacked as rows."""
        return _constructed_states(self.twisted)

    def all_states(self) -> np.ndarray:
        """Constructed plus complement states, stacked as rows."""
        return np.concatenate([self.constructed_states(), self.complement])


def _constructed_states(twisted: np.ndarray) -> np.ndarray:
    # phi once, then every twist k >= 1 of every basis
    return np.concatenate([twisted[0, :1], twisted[:, 1:].reshape(-1, twisted.shape[2])])


def build_bipartite_basis(mubs: MubSet) -> BipartiteBasis:
    """Construct the entangled basis states, their complement and its projector.

    The second factor of every constructed state carries the complex
    conjugate (taken in the computational basis) of the first factor's
    vector. The complement is the eigenvalue-1 eigenspace of the projector
    I - sum_v |v><v| over the constructed states v. All invariants
    (pairwise orthonormality, projector idempotency and rank, agreement of
    the projector with its complement states) are verified before returning.
    """
    report = validate_mubs(mubs)
    if not report.passed:
        raise MubValidationError(f"basis set failed validation:\n{report.summary()}", report)
    d, m = mubs.d, mubs.M
    phases = np.exp(2j * np.pi / d * (np.outer(np.arange(d), np.arange(d)) % d))
    twisted = np.einsum(
        "ki,tia,tib->tkab", phases, mubs.bases, mubs.bases.conj()
    ).reshape(m, d, d * d) / np.sqrt(d)

    span = _constructed_states(twisted)
    projector = np.eye(d * d, dtype=complex) - span.T @ span.conj()
    eigvals, eigvecs = np.linalg.eigh(projector)

    basis = BipartiteBasis(
        d=d,
        M=m,
        twisted=twisted,
        complement=eigvecs[:, eigvals > 0.5].T,
        projector=projector,
        mubs=mubs,
    )
    _check_basis_invariants(basis)
    return basis


def _check_basis_invariants(basis: BipartiteBasis) -> None:
    states = basis.all_states()
    gram = states.conj() @ states.T
    gram_dev = float(np.abs(gram - np.eye(states.shape[0])).max())
    if gram_dev > TOL_STRUCTURAL:
        raise RuntimeError(f"basis states not orthonormal: max deviation {gram_dev:.3e}")
    p_mat = basis.projector
    comp = basis.complement
    if float(np.abs(p_mat - comp.T @ comp.conj()).max()) > TOL_STRUCTURAL:
        raise RuntimeError("projector disagrees with the sum over complement states")
    if frobenius_norm(p_mat @ p_mat - p_mat) > TOL_PSD:
        raise RuntimeError("projector is not idempotent within tolerance")
    p_expected = (basis.d - 1) * (basis.d + 1 - basis.M)
    if abs(np.trace(p_mat).real - p_expected) > TOL_SPECTRAL:
        raise RuntimeError(f"projector rank disagrees with the complement count {p_expected}")


@dataclass(frozen=True)
class PtIdentityReport:
    """Frobenius deviations of the partial-transpose identities.

    ``phi_deviation`` compares the partial transpose of |phi><phi| against
    (1/d) sum_ij |i1><j1| (x) |j1><i1|; ``theta_deviations[t]`` compares,
    for basis t+1, the partial transpose of sum_k |phi_{t,k}><phi_{t,k}|
    against sum_i P_i (x) P_i - (1/d) sum_ij |i><j| (x) |j><i|.
    """

    phi_deviation: float
    theta_deviations: tuple[float, ...]
    tolerance: float = TOL_STRUCTURAL

    @property
    def max_deviation(self) -> float:
        return max(self.phi_deviation, *self.theta_deviations)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def check_pt_identities(basis: BipartiteBasis) -> PtIdentityReport:
    """Verify the partial-transpose rewrites of the constructed projectors."""
    d, m = basis.d, basis.M
    dims = (d, d)
    vecs = basis.mubs.bases
    n = d * d

    # swaps[t] = sum_ij |i><j| (x) |j><i| and pinches[t] = sum_i P_i (x) P_i
    # over the vectors |i> of basis t+1
    swaps = np.einsum(
        "tia,tjc,tjb,tie->tabce", vecs, vecs.conj(), vecs, vecs.conj(), optimize=True
    ).reshape(m, n, n)
    pinches = np.einsum(
        "tia,tic,tib,tie->tabce", vecs, vecs.conj(), vecs, vecs.conj()
    ).reshape(m, n, n)

    phi = basis.phi
    lhs = partial_transpose(np.outer(phi, phi.conj()), dims, subsystem=1)
    phi_dev = frobenius_norm(lhs - swaps[0] / d)

    twists = basis.twisted[:, 1:]
    sums = np.einsum("tkx,tky->txy", twists, twists.conj())
    lhs = np.stack([partial_transpose(s, dims, subsystem=1) for s in sums])
    theta_devs = np.linalg.norm((lhs - (pinches - swaps / d)).reshape(m, -1), axis=1)

    return PtIdentityReport(float(phi_dev), tuple(float(v) for v in theta_devs))


def _check_bipartite_input(rho: DensityMatrix, d: int) -> int:
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {rho.dims}")
    if rho.dims[0] != d:
        raise ValueError(f"state A-dimension {rho.dims[0]} does not match basis dimension {d}")
    return rho.dims[1]


def _pinch_blocks(rho: DensityMatrix, bases: np.ndarray) -> np.ndarray:
    """``blocks[t, i] = <i_t|rho|i_t>``, shape (k, d, D, D), for a stack of k bases.

    Basis t pinches rho into sum_i |i_t><i_t| (x) blocks[t, i], which is
    Hermitian and PSD for any vectors but has unit trace only for an
    orthonormal basis; a trace off 1 beyond tolerance raises ``ValueError``.
    """
    d = bases.shape[1]
    big_d = _check_bipartite_input(rho, d)
    half = (bases.conj() @ rho.matrix.reshape(d, -1)).reshape(-1, d, big_d, d, big_d)
    blocks = np.einsum("tibce,tic->tibe", half, bases)
    defect = float(np.abs(np.einsum("tibb->t", blocks) - 1.0).max())
    if defect > TOL_STRUCTURAL:
        raise ValueError(f"pinched trace is off 1 by {defect:.3e}: the basis is not orthonormal")
    return blocks


def _pinched_sum(bases: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_t sum_i |i_t><i_t| (x) blocks[t, i], as a (d*D, d*D) matrix."""
    k, d, big_d = blocks.shape[:3]
    proj = np.einsum("tia,tic->tiac", bases, bases.conj()).reshape(k * d, d * d)
    out = (proj.T @ blocks.reshape(k * d, -1)).reshape(d, d, big_d, big_d)
    return out.transpose(0, 2, 1, 3).reshape(d * big_d, d * big_d)


def post_measurement_state(rho: DensityMatrix, mubs: MubSet, theta: int) -> DensityMatrix:
    """State after a non-selective measurement of side A in basis ``theta`` (1-based).

    Returns sum_i |i><i| (x) <i|rho|i> for the vectors |i> of the chosen
    basis; the trace and the B marginal are preserved.
    """
    if not 1 <= int(theta) <= mubs.M:
        raise ValueError(f"basis label {theta} out of range 1..{mubs.M}")
    kets = mubs.bases[int(theta) - 1 : int(theta)]
    return DensityMatrix(_pinched_sum(kets, _pinch_blocks(rho, kets)), rho.dims)


def _gamma_terms(rho: DensityMatrix, mubs: MubSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_B, the pinch blocks of all M bases, gamma) from the definition of gamma."""
    blocks = _pinch_blocks(rho, mubs.bases)
    d, m = mubs.d, mubs.M
    rho_b = partial_trace_matrix(rho.matrix, rho.dims, keep=(1,))
    g = np.kron(np.eye(d), rho_b) + (m - 1) / d * rho.matrix - _pinched_sum(mubs.bases, blocks)
    return rho_b, blocks, g


def gamma_direct(rho: DensityMatrix, mubs: MubSet) -> np.ndarray:
    """The measurement-defect operator from its definition.

    gamma = I_A (x) rho_B + (M-1)/d * rho - sum_theta rho_thetaB. Hermitian;
    zero when M = d+1, positive semidefinite when M <= d.
    """
    return _gamma_terms(rho, mubs)[2]


def gamma_via_projector(rho: DensityMatrix, basis: BipartiteBasis) -> np.ndarray:
    """The same operator through the complement projector.

    Relabels side A of rho as an auxiliary factor C and contracts the
    partially transposed projector with the state over C:
    gamma[a b, a' b'] = sum_{c,e} P^{T_C}[a c, a' e] rho[e b, c b'], which is
    Tr_C((P^{T_C} (x) I_B)(I_A (x) rho_CB)). Agrees with
    :func:`gamma_direct` up to rounding; the agreement is a two-route check
    of both implementations.
    """
    d = basis.d
    big_d = _check_bipartite_input(rho, d)
    ptc = partial_transpose(basis.projector, (d, d), subsystem=1).reshape(d, d, d, d)
    g = np.einsum("acxe,ebcy->abxy", ptc, rho.matrix.reshape(d, big_d, d, big_d))
    return g.reshape(d * big_d, d * big_d)


@dataclass(frozen=True)
class RelationReport:
    """All purities and both sides of the conservation relation for one state."""

    d: int
    D: int
    M: int
    purity_AB: float
    purity_B: float
    purity_thetaB: tuple[float, ...]
    purity_B_given_theta: tuple[float, ...]
    lhs: float
    rhs: float
    gap: float
    gamma_expectation: float
    gamma_min_eig: float
    gamma_frobenius: float
    equality_expected: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "M": self.M,
            "purity_AB": self.purity_AB,
            "purity_B": self.purity_B,
            "purity_thetaB": list(self.purity_thetaB),
            "purity_B_given_theta": list(self.purity_B_given_theta),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "gamma_expectation": self.gamma_expectation,
            "gamma_min_eig": self.gamma_min_eig,
            "gamma_frobenius": self.gamma_frobenius,
            "equality_expected": self.equality_expected,
        }


def relation_report(rho: DensityMatrix, mubs: MubSet) -> RelationReport:
    """Evaluate every quantity entering the conservation relation.

    lhs = sum_theta (Tr rho_B^2 - Tr rho_thetaB^2) and
    rhs = (M-1) (Tr rho_B^2 - Tr rho_AB^2 / d); their gap is nonnegative up
    to rounding and vanishes when M = d+1. ``gamma_expectation`` is the
    contraction Tr(gamma rho), which equals
    Tr rho_B^2 + (M-1)/d Tr rho_AB^2 - sum_theta Tr rho_thetaB^2.
    """
    rho_b, blocks, g = _gamma_terms(rho, mubs)
    d, m = mubs.d, mubs.M
    p_ab = purity(rho)
    p_b = purity(rho_b)
    # Tr rho_thetaB^2 = sum_i Tr blocks[t, i]^2, and the B marginal of
    # rho_thetaB is sum_i blocks[t, i]
    p_theta = tuple(float(v) for v in np.einsum("tibe,tieb->t", blocks, blocks).real)
    marginals = blocks.sum(axis=1)
    p_b_given = tuple(float(v) for v in np.einsum("tbe,teb->t", marginals, marginals).real)

    lhs = sum(p_b - p for p in p_theta)
    rhs = (m - 1) * (p_b - p_ab / d)

    return RelationReport(
        d=d,
        D=rho.dims[1],
        M=m,
        purity_AB=p_ab,
        purity_B=p_b,
        purity_thetaB=p_theta,
        purity_B_given_theta=p_b_given,
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(lhs - rhs),
        gamma_expectation=float(np.trace(g @ rho.matrix).real),
        gamma_min_eig=float(hermitian_eigenvalues(g)[0]),
        gamma_frobenius=frobenius_norm(g),
        equality_expected=(m == d + 1),
    )
