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

gamma is assembled in the realigned layout R[(a, c), (b, e)] = rho[ab, ce]
(Chen and Wu, Quantum Inf. Comput. 3, 193 (2003)). With the (M*d, d*d)
basis-pair matrix Pi[t*d + i, a*d + c] = <i_t|a><c|i_t>, formed once per
call, the blocks <i_t|rho|i_t> of every basis are one product Pi @ R per
state; realigned, sum_theta rho_thetaB is Pi^H @ blocks and I_A (x) rho_B
is rho_B on the d rows (a, a). So gamma_R = (M-1)/d R - Pi^H @ blocks,
plus rho_B on the rows (a, a), is built in a copy of R and realigned back
once. The pinch keeps the trace, as a MubSet's rows are orthonormal.
Tr rho_thetaB^2 = sum_i Tr <i|rho|i>^2 and the B marginal sum_i <i|rho|i>
are read from the blocks. Besides the state, the blocks, M/d times the
state, and at most two state-sized arrays are alive: relation_report at
d = D = 29, M = 30 peaks at 55 MiB under tracemalloc.

The kernel takes an (n, d*D, d*D) stack of states and returns the report
fields every caller reads, gamma and the blocks, each with a leading
state axis; relation_report alone derives purity_B_given_theta,
gamma_min_eig and gamma_frobenius. Each row has the same bits as a stack
of that state alone; relation_report and gamma_direct are the n = 1
slice. The kernel checks no array it is given: a state is checked where
it enters, as a DensityMatrix, or is valid by construction (verify's
Ginibre draws, the Choi matrix's Omega).

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
two-route cross-check and the one check of P's entries, and that J passes
the gate (vanishes at M = d + 1); on each seeded random state, that the gap
is at least -TOL_SPECTRAL and equals Tr(gamma rho), and that gamma passes
the gate (at M = d + 1, vanishes with the gap). The states are drawn and
read in chunks, each one stack of states valid by construction and one
kernel call whose gammas pass the gate in one stacked factorization; only
the per-trial seeds and results grow with the trial count (one 200-trial
stack at d = D = 29 would take gigabytes). A chunk holds as many states as
fit in a budget of 256 KiB for the drawn stack alone, and at least one.
The kernel's working set is a few state-sized arrays per state, M/d of
them for the blocks, so a chunk's peak is a small multiple of the budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    _as_int,
    _first_worst,
    _hermiticity_defects,
    _partial_trace,
    _psd_rows,
    _purities,
    frobenius_norm,
    hermitian_eigenvalues,
    partial_transpose,
)
from .mub import MubSet, MubValidationError
from .states import _random_density_stack
from .tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL

# the bytes of one chunk of verify_relations' drawn states (module docstring)
_CHUNK_BYTES = 1 << 18


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

    ``mubs`` was validated when it was made. The derived states, the rows
    of S, are checked orthonormal through their Gram matrix G = S* S^T, and
    a failure raises :class:`MubValidationError`; G also settles the
    projector, as P^2 - P = S^T (G - I) S* and tr P = d^2 - tr G.
    """
    d, m = mubs.d, mubs.M
    phases = np.exp(2j * np.pi / d * (np.outer(np.arange(d), np.arange(d)) % d))
    # twisted[t, k] = sum_i phases[k, i] |i_t>|i_t*> / sqrt(d), scaled by the rule of states._random_density_stack
    outer = (mubs.bases[:, :, :, None] * mubs.bases.conj()[:, :, None, :]).reshape(m, d, d * d)
    twisted = phases @ outer
    scaled = twisted.view(float)
    scaled *= 1.0 / np.sqrt(d)

    span = _constructed_states(twisted)
    gram_dev = float(np.abs(span.conj() @ span.T - np.eye(len(span))).max())
    if gram_dev > TOL_STRUCTURAL:
        raise MubValidationError(f"basis states not orthonormal: max deviation {gram_dev:.3e}")
    projector = np.eye(d * d, dtype=complex) - span.T @ span.conj()
    return BipartiteBasis(twisted, projector, mubs, gram_dev)


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
        return float(np.max((self.phi_deviation, *self.theta_deviations)))  # NaN if any is


def check_pt_identities(basis: BipartiteBasis) -> PtIdentityReport:
    """Verify the partial-transpose rewrites of the constructed projectors.

    The stored twisted states are checked against the stored MUB vectors,
    and one stacked product forms the swap factor q of every basis. The
    partial transpose only permutes entries, so it moves to the right-hand
    side at no cost to the Frobenius norm, where every term has rank at
    most d: each basis's deviation is the norm of one (d*d, 2d) @ (2d, d*d)
    product, and phi's of one (d*d, 2) @ (2, d*d). That product is the only
    (d*d, d*d) array alive at any M.
    """
    d, bases, phi = basis.d, basis.mubs.bases, basis.phi
    # the rows of bases[t] are the vectors |i> of basis t+1; with
    # q[t, a, e] = sum_i <a|i><i|e>, its partially transposed swap
    # sum_ij |i><j| (x) |j><i| is vec(q) vec(q^T)^T
    q = bases.transpose(0, 2, 1) @ bases.conj()
    swap_left, swap_right = q.reshape(-1, d * d, 1) / d, q.transpose(0, 2, 1).reshape(-1, 1, d * d)
    # phi's identity uses the swap of basis 1
    phi_dev = frobenius_norm(np.concatenate([phi[:, None], -swap_left[0]], axis=1)
                             @ np.concatenate([phi.conj()[None], swap_right[0]]))
    theta_devs = []
    for vecs, twists, left_q, right_q in zip(bases, basis.twisted[:, 1:], swap_left, swap_right):
        # the partially transposed pinch sum_i P_i (x) P_i is u^T u* with u[i, ab] = <a|i><i|b>
        u = (vecs[:, :, None] * vecs.conj()[:, None, :]).reshape(d, d * d)
        left = np.concatenate([twists.T, -u.T, left_q], axis=1)
        right = np.concatenate([twists.conj(), u.conj(), right_q])
        theta_devs.append(frobenius_norm(left @ right))
    return PtIdentityReport(phi_dev, tuple(theta_devs))


def _check_bipartite_input(dims: tuple[int, ...], d: int) -> int:
    if len(dims) != 2:
        raise ValueError(f"expected a bipartite state, got dims {dims}")
    if dims[0] != d:
        raise ValueError(f"state A-dimension {dims[0]} does not match basis dimension {d}")
    return dims[1]


def _gamma_terms(
    rho: np.ndarray, dims: tuple[int, ...], mubs: MubSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_B, the pinch blocks of all M bases, gamma) of an (n, d*D, d*D) stack ``rho`` on ``dims``, from gamma's definition.

    ``blocks[n, t, i] = <i_t|rho_n|i_t>``, shape (n, M, d, D, D), is Pi @ R,
    and gamma is assembled in the realigned layout (module docstring).
    """
    d, m = mubs.d, mubs.M
    big_d = _check_bipartite_input(dims, d)
    # pairs[t*d + i, a*d + c] = <i_t|a><c|i_t>, the (M*d, d*d) matrix Pi
    pairs = (mubs.bases.conj()[:, :, :, None] * mubs.bases[:, :, None, :]).reshape(m * d, d * d)
    four = rho.reshape(-1, d, big_d, d, big_d)
    rho_b = _partial_trace(four)
    # R, copied even where the reshape alone would not copy, as gamma is assembled in it
    g = four.transpose(0, 1, 3, 2, 4).copy().reshape(-1, d * d, big_d * big_d)
    blocks = pairs @ g
    # gamma_R = (M-1)/d R + rho_B on the rows (a, a) - Pi^H (Pi R)
    g *= (m - 1) / d
    g[:, :: d + 1] += rho_b.reshape(-1, 1, big_d * big_d)
    g -= pairs.conj().T @ blocks
    g = g.reshape(-1, d, d, big_d, big_d).transpose(0, 1, 3, 2, 4).reshape(rho.shape)
    return rho_b, blocks.reshape(-1, m, d, big_d, big_d), g


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
    # one product over (c, e): rows (a, a') of P^{T_C}, columns (b, b') of rho
    left = ptc.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    right = rho.matrix.reshape(d, big_d, d, big_d).transpose(2, 0, 1, 3).reshape(d * d, big_d * big_d)
    g = (left @ right).reshape(d, d, big_d, big_d).transpose(0, 2, 1, 3)
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
    """The :class:`RelationReport` fields every caller reads, of an (n, d*D, d*D) stack of states, with ``gamma`` and the pinch ``blocks``.

    ``purity_thetaB`` has shape (n, M), ``gamma`` (n, d*D, d*D), ``blocks``
    (n, M, d, D, D) and every other field (n,); :func:`relation_report`
    derives its other fields from gamma and the blocks.
    """
    rho_b, blocks, g = _gamma_terms(rho, dims, mubs)
    d, m = mubs.d, mubs.M
    p_ab = _purities(rho)
    p_b = _purities(rho_b)
    # Tr rho_thetaB^2 = sum_i Tr blocks[t, i]^2
    p_theta = _purities(blocks).sum(axis=2)
    lhs = (p_b[:, None] - p_theta).sum(axis=1)
    rhs = (m - 1) * (p_b - p_ab / d)
    return {
        "purity_AB": p_ab,
        "purity_B": p_b,
        "purity_thetaB": p_theta,
        "lhs": lhs,
        "rhs": rhs,
        "gap": lhs - rhs,
        "gamma_expectation": np.einsum("nab,nba->n", g, rho).real,
        "gamma": g,
        "blocks": blocks,
    }


def relation_report(rho: DensityMatrix, mubs: MubSet) -> RelationReport:
    """Every purity of the relation, both its sides and their gap, and gamma's Tr(gamma rho), min eigenvalue and norm."""
    arrays = _relation_arrays(rho.matrix[None], rho.dims, mubs)
    g, blocks = arrays.pop("gamma"), arrays.pop("blocks")
    # the B marginal of rho_thetaB is sum_i blocks[t, i]
    arrays["purity_B_given_theta"] = _purities(blocks.sum(axis=2))
    arrays["gamma_min_eig"] = hermitian_eigenvalues(g)[:, 0]
    arrays["gamma_frobenius"] = np.linalg.norm(g, axis=(1, 2))
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
            named = f" [state seed {state_seed}]" if not passed and state_seed is not None else ""
            lines.append(f"{name}: {value!r} (bound {bound!r}) {'PASS' if passed else 'FAIL'}{named}")
        lines.append("all checks passed" if self.passed else "VERIFICATION FAILED")
        return "\n".join(lines)


def _choi_matrix(mubs: MubSet) -> np.ndarray:
    """J = d * gamma(|Omega><Omega|) at dims (d, d), the Choi matrix of gamma's map (module docstring)."""
    d = mubs.d
    # d |Omega><Omega| = sum_ab |aa><bb|, and gamma is linear in the state
    omega = np.eye(d, dtype=complex).reshape(1, d * d)
    return _gamma_terms((omega.T @ omega)[None], (d, d), mubs)[2][0]


def _check(name: str, values, bound, lowest: bool = False, seeds=None) -> tuple[str, float, float, bool, int | None]:
    """The :class:`VerificationReport` check of ``values`` against ``bound``, with the seed ``seeds[k]``, or None.

    k is the first worst entry (:func:`_first_worst`), the least if
    ``lowest``, else the greatest; a NaN there fails either comparison.
    """
    value, (k,) = _first_worst(np.ravel(values), lowest)
    return name, value, bound, value >= bound if lowest else value <= bound, None if seeds is None else seeds[k]


def _certificate(basis: BipartiteBasis) -> tuple[float, list[tuple[str, float, float, bool, None]]]:
    """Weyl's floor under lambda_min(J), and the checks of the Choi matrix J (module docstring)."""
    d, m = basis.d, basis.M
    choi = _choi_matrix(basis.mubs)
    route = _check("choi vs projector max deviation", np.abs(choi - basis.projector), TOL_STRUCTURAL)
    if m == d + 1:
        checks = [route, _check("choi frobenius", frobenius_norm(choi), TOL_SPECTRAL)]
    else:
        checks = [route, _check("choi hermiticity max deviation", _hermiticity_defects(choi), TOL_PSD),
                  _check("choi psd gate failures", np.count_nonzero(~_psd_rows(choi[None])), 0)]
    return -(1 + m * (d - 1)) * basis.gram_deviation - d * d * route[1], checks


def verify_relations(mubs: MubSet, big_d: int, trials: int, seed: int) -> VerificationReport:
    """Check the basis of ``mubs``, certify gamma from its Choi matrix, and check ``trials`` random states on (d, big_d).

    ``big_d``, ``trials`` and ``seed`` are integers, at least 1, 1 and 0.
    Trial t draws a state of rank d*big_d, 1 or 2 (cycling) from the t-th
    seed of ``SeedSequence(seed)``; the checks are those of the module
    docstring, and a state check reports its first worst trial.
    """
    big_d, trials, seed = _as_int("big_d", big_d, 1), _as_int("trials", trials, 1), _as_int("seed", seed, 0)
    d, m = mubs.d, mubs.M
    basis = build_bipartite_basis(mubs)
    checks = [_check("pt identities max deviation", check_pt_identities(basis).max_deviation, TOL_STRUCTURAL)]
    choi_floor, certificate = _certificate(basis)
    checks += certificate

    trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)]
    dim = d * big_d
    ranks = [(dim, 1, 2)[t % 3] for t in range(trials)]
    chunk = max(1, _CHUNK_BYTES // (dim * dim * 16))  # complex128 states
    complete = m == d + 1
    gaps, defects, skews, gammas = [], [], [], []
    for start in range(0, trials, chunk):
        stop = start + chunk
        rho = _random_density_stack(dim, ranks[start:stop], trial_seeds[start:stop])
        arrays = _relation_arrays(rho, (d, big_d), mubs)
        g = arrays["gamma"]
        gaps.append(arrays["gap"])
        defects.append(np.abs(arrays["gap"] - arrays["gamma_expectation"]))
        # the gate reads one triangle of gamma, so its verdict holds only for a Hermitian gamma
        skews.append(_hermiticity_defects(g))
        # gamma must vanish at M = d + 1 (its norm) and pass the PSD gate below it (whether the gate rejects it)
        gammas.append(np.linalg.norm(g, axis=(1, 2)) if complete else ~_psd_rows(g))
    gaps, defects, skews, gammas = (np.concatenate(a) for a in (gaps, defects, skews, gammas))

    checks += [_check("relation gap min", gaps, -TOL_SPECTRAL, lowest=True, seeds=trial_seeds),
               _check("gap vs Tr(gamma rho) max deviation", defects, TOL_SPECTRAL, seeds=trial_seeds),
               _check("gamma hermiticity max deviation", skews, TOL_PSD, seeds=trial_seeds)]
    if complete:
        checks += [_check("gamma frobenius max", gammas, TOL_SPECTRAL, seeds=trial_seeds),
                   _check("relation |gap| max", np.abs(gaps), TOL_SPECTRAL, seeds=trial_seeds)]
    else:
        # each rejected trial reads the failure count, so the first worst is the first rejected
        checks.append(_check("gamma psd gate failures", gammas.sum() * gammas, 0, seeds=trial_seeds if gammas.any() else None))
    return VerificationReport(d, big_d, m, trials, seed, basis.gram_deviation, choi_floor, tuple(checks))
