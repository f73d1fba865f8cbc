"""Purity conservation relations for measurements in mutually unbiased bases.

Given a bipartite state rho on dims (d, D) and M MUBs on the d-dimensional
side, a non-selective projective measurement of side A in basis theta
pinches rho into ``rho_thetaB``. The relation checked here balances the
purity lost across the M measurement choices:

    sum_theta (Tr rho_B^2 - Tr rho_thetaB^2)
        >= (M - 1) * (Tr rho_B^2 - Tr rho_AB^2 / d),

with equality whenever M = d + 1. Both sides are tied to the operator

    gamma = I_A (x) rho_B + (M-1)/d * rho_AB - sum_theta rho_thetaB,

which vanishes at M = d + 1 and is positive semidefinite for M <= d, and
the gap lhs - rhs equals Tr(gamma rho). The module computes gamma both
from that definition and through an independent projector/partial-transpose
route, which serves as a cross-check.

The pinch reads each state realigned, R[(a, c), (b, e)] = rho[ab, ce]
(Chen and Wu, Quantum Inf. Comput. 3, 193 (2003)). With the (k*d, d*d)
basis-pair matrix Pi[t*d + i, a*d + c] = <i_t|a><c|i_t> of k bases,
formed once per call, the blocks <i_t|rho|i_t> of every basis are one
product Pi @ R per state, and the sum of the pinched states is
Pi^H @ blocks, realigned back; the pinch keeps the trace, as a MubSet's
rows are orthonormal. Tr rho_thetaB^2 = sum_i Tr <i|rho|i>^2 and the B
marginal sum_i <i|rho|i> are read from the blocks, and besides the state
only R and the blocks, M/d times the state, are alive: relation_report at
d = D = 29, M = 30 peaks at 55 MiB under tracemalloc.

The kernels (pinch, gamma, purities, report) take an (n, d*D, d*D) stack
of states and return every report field with a leading state axis, and
gamma in place of gamma_min_eig, which only relation_report solves. Each
row has the same bits as a stack of that state alone; relation_report,
gamma_direct and post_measurement_state are the n = 1 slice.

:func:`verify_relations` certifies the PSD claim for every state at once.
gamma = (Phi (x) id_B)(rho) for the linear map

    Phi(X) = Tr(X) I + (M-1)/d * X - sum_theta sum_i <i|X|i> |i><i|,

whose Choi matrix J = d * gamma(|Omega><Omega|), with
|Omega> = sum_a |aa>/sqrt(d), equals the complement projector P (Choi,
Linear Algebra Appl. 10, 285 (1975); Jamiolkowski, Rep. Math. Phys. 3,
275 (1972)). The map X -> Tr(X) I has Choi matrix I, so if
lambda_min(J) >= -eps, then J + eps I is a PSD Choi matrix, that of
Phi + eps Tr(.) I, which is therefore completely positive; for every state
rho and every D

    gamma(rho) >= -eps (I_A (x) rho_B) >= -eps I.

A Cholesky factorization of J + TOL_PSD I, the gate each trial's gamma
passes too, exists exactly when lambda_min(J) > -TOL_PSD. One
factorization of J thus bounds every gamma at the bound each trial is
gated at, and the gap Tr(gamma rho) is then at least -TOL_PSD. At
M = d + 1, J = 0 makes gamma vanish identically, and a small J bounds
every gamma: for every state rho and every D

    ||gamma(rho)||_1 <= ||Phi||_diamond <= ||J||_1 <= d ||J||_F

(Watrous, The Theory of Quantum Information, CUP 2018, ch. 3; the last
step holds because J is d^2 x d^2). The gate reads one triangle, so J and
every gamma must also be Hermitian within TOL_PSD, and the call runs no
eigensolve. P = I - S^T S* over the k = 1 + M(d-1) constructed states S
has the eigenvalues 1 - spec(G) of their Gram matrix G, and 1, so Weyl's
inequality (Math. Ann. 71, 441 (1912)) gives the observed floor
lambda_min(J) >= -k max|G - I| - d^2 max|J - P|, up to the rounding of P's
product.

verify_relations checks once per call that J equals P, the paper's
two-route cross-check, and that J passes the gate (vanishes at M = d + 1);
on each seeded random state, that the gap is at least -TOL_SPECTRAL and
equals Tr(gamma rho), and that gamma passes the gate (at M = d + 1,
vanishes with the gap). The states are drawn and read in chunks, each one
checked stack and one kernel call whose gammas pass the gate in one
stacked factorization; only the per-trial seeds and results grow with the
trial count (one 200-trial stack at d = D = 29 would take gigabytes). A
budget of 1 MiB sets the chunk size against the chunk's measured working
set (the stack, its realignment, the pinch blocks, the pinched sum, gamma
and the gate's shifted copy), about 4 + M/d state-sized complex arrays per
state, so a chunk of several states peaks under 1.8 MiB (tracemalloc, d
up to 13, D in {1, 2, d}). At d = D = 7 a chunk holds 6 states at M = 2
and 5 at M = 8; from d = D = 13 on it holds one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    _as_int,
    _hermiticity_defects,
    _psd_rows,
    _purities,
    frobenius_norm,
    hermitian_eigenvalues,
    partial_trace_matrix,
    partial_transpose,
)
from .mub import MubSet, MubValidationError
from .states import _random_density_stack
from .tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL

# the chunk budget and working set of verify_relations (module docstring)
_CHUNK_BYTES = 1 << 20
_CHUNK_ARRAYS = 4


@dataclass(frozen=True, eq=False)
class BipartiteBasis:
    """The entangled states built from a MUB set, and the projector onto their complement.

    ``twisted[t, k]`` = d^{-1/2} sum_i omega^{k i} |i_t>|i_t*>, omega =
    exp(2 pi i / d), is the row vector of basis t+1 and twist k, shape
    (M, d, d*d); every k = 0 row is the same state ``phi``. The 1 + M(d-1)
    distinct states are orthonormal, and ``projector`` = I - sum_v |v><v|
    over them projects onto the p = (d-1)(d+1-M)-dimensional rest of the
    d*d space; no complement states are stored. ``gram_deviation`` is
    max|G - I| of the Gram matrix G of the constructed states, measured
    when the basis was built. ``d`` and ``M`` are those of ``mubs``.
    Instances compare and hash by identity.
    """

    twisted: np.ndarray
    projector: np.ndarray
    mubs: MubSet
    gram_deviation: float

    @property
    def d(self) -> int:
        return self.mubs.d

    @property
    def M(self) -> int:
        return self.mubs.M

    @property
    def phi(self) -> np.ndarray:
        return self.twisted[0, 0]


def _constructed_states(twisted: np.ndarray) -> np.ndarray:
    # phi once, then every twist k >= 1 of every basis
    return np.concatenate([twisted[0, :1], twisted[:, 1:].reshape(-1, twisted.shape[2])])


def build_bipartite_basis(mubs: MubSet) -> BipartiteBasis:
    """The :class:`BipartiteBasis` of a set, conjugating in the computational basis.

    ``mubs`` was validated when it was made; the derived states'
    orthonormality and the projector's idempotency and trace p are checked,
    and a failed one raises :class:`MubValidationError`.
    """
    d, m = mubs.d, mubs.M
    phases = np.exp(2j * np.pi / d * (np.outer(np.arange(d), np.arange(d)) % d))
    # twisted[t, k] = sum_i phases[k, i] |i_t>|i_t*>, as one batched BLAS product
    outer = (mubs.bases[:, :, :, None] * mubs.bases.conj()[:, :, None, :]).reshape(m, d, d * d)
    twisted = phases @ outer / np.sqrt(d)

    span = _constructed_states(twisted)
    projector = np.eye(d * d, dtype=complex) - span.T @ span.conj()
    gram_dev = _check_basis_invariants(span, projector, d, m)
    return BipartiteBasis(twisted, projector, mubs, gram_dev)


def _check_basis_invariants(span: np.ndarray, projector: np.ndarray, d: int, m: int) -> float:
    """max|G - I| of the Gram matrix G of the constructed states; a failed invariant is a MubValidationError."""
    gram = span.conj() @ span.T
    gram_dev = float(np.abs(gram - np.eye(len(span))).max())
    if gram_dev > TOL_STRUCTURAL:
        raise MubValidationError(f"basis states not orthonormal: max deviation {gram_dev:.3e}")
    if frobenius_norm(projector @ projector - projector) > TOL_PSD:
        raise MubValidationError("projector is not idempotent within tolerance")
    p_expected = (d - 1) * (d + 1 - m)
    if abs(np.trace(projector).real - p_expected) > TOL_SPECTRAL:
        raise MubValidationError(f"projector trace disagrees with p = (d-1)(d+1-M) = {p_expected}")
    return gram_dev


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

    @property
    def max_deviation(self) -> float:
        return max(self.phi_deviation, *self.theta_deviations)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= TOL_STRUCTURAL


def check_pt_identities(basis: BipartiteBasis) -> PtIdentityReport:
    """Verify the partial-transpose rewrites of the constructed projectors.

    The stored twisted states are checked against the stored MUB vectors
    one basis at a time. The partial transpose only permutes entries, so it
    moves to the right-hand side at no cost to the Frobenius norm, where
    every term has rank at most d: each basis's deviation is the norm of one
    (d*d, 2d) @ (2d, d*d) product, and phi's of one (d*d, 2) @ (2, d*d).
    That product is the only (d*d, d*d) array alive at any M.
    """
    d = basis.d
    phi = basis.phi
    phi_dev = 0.0
    theta_devs = []
    for t, (vecs, twists) in enumerate(zip(basis.mubs.bases, basis.twisted[:, 1:])):
        # the rows of vecs are the vectors |i> of the basis; with
        # q[a, e] = sum_i <a|i><i|e>, the partially transposed swap
        # sum_ij |i><j| (x) |j><i| is vec(q) vec(q^T)^T
        q = vecs.T @ vecs.conj()
        swap_left, swap_right = q.reshape(-1, 1) / d, q.T.reshape(1, -1)
        if t == 0:
            # phi's identity uses the swap of basis 1
            phi_dev = frobenius_norm(np.hstack([phi[:, None], -swap_left]) @ np.vstack([phi.conj(), swap_right]))
        # the partially transposed pinch sum_i P_i (x) P_i is u^T u* with
        # u[i, ab] = <a|i><i|b>
        u = (vecs[:, :, None] * vecs.conj()[:, None, :]).reshape(d, d * d)
        left = np.hstack([twists.T, -u.T, swap_left])
        right = np.vstack([twists.conj(), u.conj(), swap_right])
        theta_devs.append(frobenius_norm(left @ right))
    return PtIdentityReport(phi_dev, tuple(theta_devs))


def _check_bipartite_input(dims: tuple[int, ...], d: int) -> int:
    if len(dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {dims}")
    if dims[0] != d:
        raise ValueError(f"state A-dimension {dims[0]} does not match basis dimension {d}")
    return dims[1]


def _basis_pairs(bases: np.ndarray) -> np.ndarray:
    """``pairs[t, i, a*d + c] = <i_t|a><c|i_t>`` of k bases: read as (k*d, d*d), it pinches a realigned state."""
    k, d = bases.shape[:2]
    return (bases.conj()[:, :, :, None] * bases[:, :, None, :]).reshape(k, d, d * d)


def _pinch_blocks(rho: np.ndarray, dims: tuple[int, ...], pairs: np.ndarray) -> np.ndarray:
    """``blocks[n, t, i] = <i_t|rho_n|i_t>``, shape (n, k, d, D, D), of an (n, d*D, d*D) stack on ``dims``.

    ``pairs`` comes from :func:`_basis_pairs`; the product is Pi @ R (module docstring).
    """
    k, d = pairs.shape[:2]
    big_d = _check_bipartite_input(dims, d)
    realigned = rho.reshape(-1, d, big_d, d, big_d).transpose(0, 1, 3, 2, 4).reshape(-1, d * d, big_d * big_d)
    return (pairs.reshape(k * d, -1) @ realigned).reshape(-1, k, d, big_d, big_d)


def _pinched_sum(pairs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_t sum_i |i_t><i_t| (x) blocks[n, t, i] of each state, as an (n, d*D, d*D) stack, from Pi^H @ blocks."""
    n, k, d, big_d = blocks.shape[:4]
    out = (pairs.reshape(k * d, -1).conj().T @ blocks.reshape(n, k * d, -1)).reshape(n, d, d, big_d, big_d)
    return out.transpose(0, 1, 3, 2, 4).reshape(n, d * big_d, d * big_d)


def post_measurement_state(rho: DensityMatrix, mubs: MubSet, theta: int) -> DensityMatrix:
    """State after a non-selective measurement of side A in basis ``theta`` (1-based).

    Returns sum_i |i><i| (x) <i|rho|i> for the vectors |i> of the chosen
    basis; the trace and the B marginal are preserved.
    """
    theta = _as_int("basis label", theta)
    if not 1 <= theta <= mubs.M:
        raise ValueError(f"basis label {theta} out of range 1..{mubs.M}")
    pairs = _basis_pairs(mubs.bases[theta - 1 : theta])
    blocks = _pinch_blocks(rho.matrix[None], rho.dims, pairs)
    return DensityMatrix(_pinched_sum(pairs, blocks)[0], rho.dims)


def _gamma_terms(
    rho: np.ndarray, dims: tuple[int, ...], mubs: MubSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_B, the pinch blocks of all M bases, gamma) from the definition of gamma.

    All three carry the leading axis of the (n, d*D, d*D) stack ``rho``.
    """
    pairs = _basis_pairs(mubs.bases)
    blocks = _pinch_blocks(rho, dims, pairs)
    d, m = mubs.d, mubs.M
    rho_b = partial_trace_matrix(rho, dims)
    n, big_d = rho_b.shape[:2]
    # I_A (x) rho_B: rho_B in each diagonal block
    eye_rho_b = np.zeros((n, d, big_d, d, big_d), dtype=complex)
    diagonal = np.arange(d)
    eye_rho_b[:, diagonal, :, diagonal, :] = rho_b
    g = eye_rho_b.reshape(rho.shape) + (m - 1) / d * rho - _pinched_sum(pairs, blocks)
    return rho_b, blocks, g


def gamma_direct(rho: DensityMatrix, mubs: MubSet) -> np.ndarray:
    """The measurement-defect operator gamma from its definition (module docstring)."""
    return _gamma_terms(rho.matrix[None], rho.dims, mubs)[2][0]


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
    big_d = _check_bipartite_input(rho.dims, d)
    ptc = partial_transpose(basis.projector, (d, d), subsystem=1).reshape(d, d, d, d)
    g = np.einsum(
        "acxe,ebcy->abxy", ptc, rho.matrix.reshape(d, big_d, d, big_d), optimize=True
    )
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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _relation_arrays(rho: np.ndarray, dims: tuple[int, ...], mubs: MubSet) -> dict[str, np.ndarray]:
    """Every per-state :class:`RelationReport` field of a checked (n, d*D, d*D) stack, with ``gamma`` for ``gamma_min_eig``.

    ``purity_thetaB`` and ``purity_B_given_theta`` have shape (n, M), every other field shape (n,).
    """
    rho_b, blocks, g = _gamma_terms(rho, dims, mubs)
    d, m = mubs.d, mubs.M
    p_ab = _purities(rho)
    p_b = _purities(rho_b)
    # Tr rho_thetaB^2 = sum_i Tr blocks[t, i]^2, and the B marginal of
    # rho_thetaB is sum_i blocks[t, i]
    p_theta = _purities(blocks).sum(axis=2)
    lhs = (p_b[:, None] - p_theta).sum(axis=1)
    rhs = (m - 1) * (p_b - p_ab / d)
    return {
        "purity_AB": p_ab,
        "purity_B": p_b,
        "purity_thetaB": p_theta,
        "purity_B_given_theta": _purities(blocks.sum(axis=2)),
        "lhs": lhs,
        "rhs": rhs,
        "gap": lhs - rhs,
        "gamma_expectation": np.einsum("nab,nba->n", g, rho).real,
        "gamma": g,
        "gamma_frobenius": np.linalg.norm(g.reshape(len(g), -1), axis=1),
    }


def relation_report(rho: DensityMatrix, mubs: MubSet) -> RelationReport:
    """Every purity of the relation, both its sides and their gap, and gamma's Tr(gamma rho), min eigenvalue and norm."""
    arrays = _relation_arrays(rho.matrix[None], rho.dims, mubs)
    arrays["gamma_min_eig"] = hermitian_eigenvalues(arrays.pop("gamma"))[:, 0]
    fields = {name: tuple(v[0].tolist()) if v.ndim == 2 else v[0].tolist() for name, v in arrays.items()}
    return RelationReport(
        d=mubs.d, D=rho.dims[1], M=mubs.M, equality_expected=(mubs.M == mubs.d + 1), **fields
    )


@dataclass(frozen=True)
class VerificationReport:
    """The checks of :func:`verify_relations`, one ``(name, value, bound, passed, state_seed)`` each.

    ``state_seed`` seeds the trial attaining ``value`` (for the gate, the
    first it rejects), else None. ``gram_deviation`` and ``choi_floor``
    (module docstring) are observations, not checks.
    """

    d: int
    D: int
    M: int
    trials: int
    seed: int
    gram_deviation: float
    choi_floor: float
    checks: tuple[tuple[str, float, float, bool, int | None], ...]

    @property
    def passed(self) -> bool:
        return all(check[3] for check in self.checks)

    def summary(self) -> str:
        lines = [
            f"verify d={self.d} M={self.M} D={self.D} trials={self.trials} seed={self.seed}",
            f"gram max deviation: {self.gram_deviation!r} (basis build raises above {TOL_STRUCTURAL!r})",
            f"choi min eigenvalue floor: {self.choi_floor!r} (Weyl, from the gram and choi vs projector deviations)",
        ]
        for name, value, bound, passed, state_seed in self.checks:
            line = f"{name}: {value!r} (bound {bound!r}) {'PASS' if passed else 'FAIL'}"
            if not passed and state_seed is not None:
                line += f" [state seed {state_seed}]"
            lines.append(line)
        lines.append("all checks passed" if self.passed else "VERIFICATION FAILED")
        return "\n".join(lines)


def _choi_matrix(mubs: MubSet) -> np.ndarray:
    """J = d * gamma(|Omega><Omega|) at dims (d, d), the Choi matrix of gamma's map (module docstring)."""
    d = mubs.d
    # d |Omega><Omega| = sum_ab |aa><bb|, and gamma is linear in the state
    omega = np.eye(d, dtype=complex).reshape(1, d * d)
    return _gamma_terms((omega.T @ omega)[None], (d, d), mubs)[2][0]


def _certificate(basis: BipartiteBasis) -> tuple[float, list[tuple[str, float, float, bool, None]]]:
    """Weyl's floor under lambda_min(J), and the checks of the Choi matrix J (module docstring)."""
    d, m = basis.d, basis.M
    choi = _choi_matrix(basis.mubs)
    route = float(np.abs(choi - basis.projector).max())
    floor = -(1 + m * (d - 1)) * basis.gram_deviation - d * d * route
    checks = [("choi vs projector max deviation", route, TOL_STRUCTURAL, route <= TOL_STRUCTURAL, None)]
    if m == d + 1:
        norm = frobenius_norm(choi)
        checks.append(("choi frobenius", norm, TOL_SPECTRAL, norm <= TOL_SPECTRAL, None))
    else:
        skew = float(_hermiticity_defects(choi))
        failed = int(not _psd_rows(choi[None])[0])
        checks += [("choi hermiticity max deviation", skew, TOL_PSD, skew <= TOL_PSD, None),
                   ("choi psd gate failures", failed, 0, failed == 0, None)]
    return floor, checks


def verify_relations(mubs: MubSet, big_d: int, trials: int, seed: int) -> VerificationReport:
    """Check the basis of ``mubs``, certify gamma from its Choi matrix, and check ``trials`` random states on (d, big_d).

    ``big_d``, ``trials`` and ``seed`` are integers, at least 1, 1 and 0.
    Trial t draws a state of rank d*big_d, 1 or 2 (cycling) from the t-th
    seed of ``SeedSequence(seed)``; the checks are those of the module
    docstring, and a state check reports its first worst trial.
    """
    big_d, trials, seed = (_as_int(name, v) for name, v in (("big_d", big_d), ("trials", trials), ("seed", seed)))
    for name, value, low in (("big_d", big_d, 1), ("trials", trials, 1), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"need {name} >= {low}, got {value}")
    d, m = mubs.d, mubs.M
    basis = build_bipartite_basis(mubs)
    pt = check_pt_identities(basis)
    checks = [("pt identities max deviation", pt.max_deviation, TOL_STRUCTURAL, pt.passed, None)]
    choi_floor, certificate = _certificate(basis)
    checks += certificate

    trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)]
    dim = d * big_d
    ranks = [(dim, 1, 2)[t % 3] for t in range(trials)]
    chunk = max(1, _CHUNK_BYTES * d // ((_CHUNK_ARRAYS * d + m) * dim * dim * 16))
    complete = m == d + 1
    gaps, defects, skews, gammas = [], [], [], []
    for start in range(0, trials, chunk):
        stop = start + chunk
        rho = _random_density_stack(dim, ranks[start:stop], trial_seeds[start:stop])
        arrays = _relation_arrays(rho, (d, big_d), mubs)
        g = arrays["gamma"]
        gaps.append(arrays["gap"])
        defects.append(np.abs(arrays["gap"] - arrays["gamma_expectation"]))
        skews.append(_hermiticity_defects(g))
        # gamma must vanish at M = d + 1 and pass the PSD gate below it
        gammas.append(arrays["gamma_frobenius"] if complete else _psd_rows(g))
    gaps, defects, skews, gammas = (np.concatenate(a) for a in (gaps, defects, skews, gammas))

    def worst(name, values, lowest, bound):
        k = int(np.argmin(values) if lowest else np.argmax(values))
        value = float(values[k])
        return name, value, bound, (value >= bound) if lowest else (value <= bound), trial_seeds[k]

    checks += [
        worst("relation gap min", gaps, True, -TOL_SPECTRAL),
        worst("gap vs Tr(gamma rho) max deviation", defects, False, TOL_SPECTRAL),
        # the gate reads one triangle of gamma, so its verdict holds only for a Hermitian gamma
        worst("gamma hermiticity max deviation", skews, False, TOL_PSD),
    ]
    if complete:
        checks += [worst("gamma frobenius max", gammas, False, TOL_SPECTRAL),
                   worst("relation |gap| max", np.abs(gaps), False, TOL_SPECTRAL)]
    else:
        failed = int((~gammas).sum())
        first = trial_seeds[int(np.argmin(gammas))] if failed else None
        checks.append(("gamma psd gate failures", failed, 0, failed == 0, first))
    return VerificationReport(d, big_d, m, trials, seed, basis.gram_deviation, choi_floor, tuple(checks))
