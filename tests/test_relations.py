import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from mubpurity import cli, linalg, relations
from mubpurity.cli import main
from mubpurity.linalg import (
    DensityMatrix,
    _is_psd,
    _purities,
    frobenius_norm,
    hermitian_eigenvalues,
    partial_transpose,
)
from mubpurity.mub import MubSet, MubValidationError, construct_mubs
from mubpurity.relations import (
    RelationReport,
    _choi_matrix,
    _constructed_states,
    _relation_arrays,
    build_bipartite_basis,
    check_pt_identities,
    gamma_direct,
    gamma_via_projector,
    relation_report,
    verify_relations,
)
from mubpurity.states import _family_states, random_density, rho_family
from mubpurity.tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL

BELL = DensityMatrix(
    np.array(
        [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex
    ),
    (2, 2),
)


def _seeds(base, n):
    return [int(s) for s in np.random.SeedSequence(base).generate_state(n, dtype=np.uint64)]


_PER_STATE_FIELDS = tuple(
    name for name in RelationReport.__dataclass_fields__ if name not in ("d", "D", "M", "equality_expected")
)


def _stacked_row(arrays, row):
    # one row of the batched report, as Python floats and tuples
    return {
        name: tuple(values[row].tolist()) if values.ndim == 2 else values[row].tolist()
        for name, values in arrays.items()
    }


def _haar(rng, n):
    """A Haar-random n x n unitary: the phase-fixed Q factor of a complex Ginibre matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _equivalent_set(d, m, seed):
    """m bases of the complete set at prime d, rotated, reordered, permuted and rephased."""
    rng = np.random.default_rng(seed)
    haar = _haar(rng, d)
    # U|v> for every row vector v of the chosen bases
    bases = construct_mubs(d, d + 1).bases[rng.permutation(d + 1)[:m]] @ haar.T
    bases = np.stack([vecs[rng.permutation(d)] for vecs in bases])
    return MubSet(bases * np.exp(2j * np.pi * rng.random((m, d, 1))))


def _turned_set(d, eps):
    """The M = 2 set at prime d >= 3 with basis 2 turned by exp(i eps H), H = A + A^H for A[i, i+1] = alpha_i.

    alpha_i = d omega^-i / (2i (1 - omega)) makes |<i_1|j_2>|^2 move by eps
    cos(2 pi (j - i) / d) to first order: an unbiasedness deviation of eps,
    which the DFT in the Gram matrix of the constructed states sums to
    d eps / 2, while the bases stay orthonormal to rounding.
    """
    omega = np.exp(2j * np.pi / d)
    a = np.roll(np.diag(d * omega ** -np.arange(d) / (2j * (1 - omega))), 1, axis=1)
    w, v = np.linalg.eigh(a + a.conj().T)
    exact = construct_mubs(d, 2).bases
    return MubSet(np.stack([exact[0], exact[1] @ ((v * np.exp(1j * eps * w)) @ v.conj().T).T]))


def _report_arrays(rho, dims, mubs):
    # every report field of a stack, derived from the kernel's gamma and
    # blocks as relation_report derives them from its one-state stack
    arrays = _relation_arrays(rho, dims, mubs)
    g, blocks = arrays.pop("gamma"), arrays.pop("blocks")
    arrays["purity_B_given_theta"] = _purities(blocks.sum(axis=2))
    arrays["gamma_min_eig"] = hermitian_eigenvalues(g)[:, 0]
    arrays["gamma_frobenius"] = np.linalg.norm(g.reshape(len(g), -1), axis=1)
    return arrays


def _report_fields(rep):
    return {name: getattr(rep, name) for name in _PER_STATE_FIELDS}


def _purity(m):
    # Tr(m^2), apart from the kernels' contraction
    return np.trace(m @ m).real


def _marginal_b(m, dims):
    # Tr_A of an operator on dims (d, D), apart from the kernel's partial trace
    d, big_d = dims
    return np.einsum("abac->bc", m.reshape(d, big_d, d, big_d))


def _pinch(rho, mubs, theta):
    # the pinch by basis theta (1-based): sum_i |i><i| (x) <i|rho|i>, a kron
    # sum over the kernel's blocks of that basis
    blocks = relations._gamma_terms(rho.matrix[None], rho.dims, mubs)[1][0, theta - 1]
    kets = mubs.bases[theta - 1]
    return DensityMatrix(sum(np.kron(np.outer(k, k.conj()), b) for k, b in zip(kets, blocks)), rho.dims)


def _pinch_by_kron(rho, mubs, theta):
    # sum_i |i><i| (x) <i|rho|i> summed term by term, as a reference
    d, big_d = rho.dims
    out = np.zeros_like(rho.matrix)
    for ket in mubs.bases[theta - 1]:
        bra = np.kron(ket.conj().reshape(1, d), np.eye(big_d))
        out += np.kron(np.outer(ket, ket.conj()), bra @ rho.matrix @ bra.conj().T)
    return out


def _assert_projector_facts(basis):
    # P annihilates every constructed state, and its trace counts the
    # (d-1)(d+1-M) dimensions left over by them
    d, m = basis.d, basis.M
    p = basis.projector
    assert np.abs(p @ _constructed_states(basis.twisted).T).max() <= 1e-12
    assert abs(np.trace(p).real - (d - 1) * (d + 1 - m)) <= 1e-9


class TestBipartiteBasis:
    def test_d2_complete_set(self):
        basis = build_bipartite_basis(construct_mubs(2, 3))
        s = 1 / np.sqrt(2)
        assert np.allclose(basis.phi, [s, 0, 0, s], atol=1e-15)
        # the complete set spans the space: nothing is left to project onto
        assert np.abs(basis.projector).max() <= 1e-12
        # theta=1, k=1 companion picks up the phase -1 on |11>
        assert np.allclose(basis.twisted[0, 1], [s, 0, 0, -s], atol=1e-14)

    def test_d3_m2_counts_and_gram(self):
        basis = build_bipartite_basis(construct_mubs(3, 2))
        assert basis.twisted.shape == (2, 3, 9)
        states = _constructed_states(basis.twisted)
        assert states.shape == (5, 9)
        gram = states.conj() @ states.T
        assert np.abs(gram - np.eye(5)).max() <= 1e-12
        assert basis.gram_deviation == np.abs(gram - np.eye(5)).max()
        _assert_projector_facts(basis)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_constructed_states_orthonormal(self, d):
        for m in range(2, d + 2):
            basis = build_bipartite_basis(construct_mubs(d, m))
            states = _constructed_states(basis.twisted)
            assert states.shape[0] == m * (d - 1) + 1
            gram = states.conj() @ states.T
            assert np.abs(gram - np.eye(states.shape[0])).max() <= 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    def test_twisted_matches_kron_reference(self, d):
        mubs = construct_mubs(d, d + 1)
        basis = build_bipartite_basis(mubs)
        omega = np.exp(2j * np.pi / d)
        for t in range(d + 1):
            for k in range(d):
                v = sum(
                    omega ** (k * i) * np.kron(mubs.bases[t, i], mubs.bases[t, i].conj())
                    for i in range(d)
                )
                assert np.abs(basis.twisted[t, k] - v / np.sqrt(d)).max() <= 1e-12

    def test_projector_invariants(self):
        # the M = 3 subset of d = 3 bases is not closed under conjugation,
        # so there only the P = sum_v |v><v| orientation passes
        for m in (2, 3):
            basis = build_bipartite_basis(construct_mubs(3, m))
            p = basis.projector
            assert frobenius_norm(p @ p - p) <= 1e-10
            _assert_projector_facts(basis)

    def test_rejects_states_off_orthonormal(self, monkeypatch, capsys):
        # MubSet accepts the turned set at d = 5 with an unbiasedness
        # deviation just under 1e-12, and its constructed states are d/2
        # times that off orthonormal: the set's report does not decide the
        # build, and the build's Gram check fires
        mubs = _turned_set(5, 9e-13)
        assert 8.9e-13 <= mubs.report.max_unbiasedness_deviation <= TOL_STRUCTURAL
        assert mubs.report.max_orthonormality_deviation <= 1e-14
        with pytest.raises(MubValidationError, match=r"^basis states not orthonormal: max deviation 2\.2\d\de-12$") as exc:
            build_bipartite_basis(mubs)
        monkeypatch.setattr(cli, "construct_mubs", lambda d, m: mubs)
        assert main(["verify", "--d", "5", "--m", "2", "--trials", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")

    def test_rejects_invalid_mubs(self):
        # the build takes a MubSet, and no MubSet holds a repeated basis
        with pytest.raises(MubValidationError) as exc:
            MubSet(np.stack([np.eye(2, dtype=complex)] * 2))
        assert not exc.value.report.passed

    def test_near_bound_sets_build_or_fail_validation(self):
        # complete sets perturbed by eps*G, eps bisected to just inside the
        # bound MubSet accepts, and their first M bases: every one of these
        # seeded draws builds, passes the PT identities and gives the same
        # gamma by both routes. Acceptance alone does not guarantee a build:
        # an accepted set's constructed states may deviate from orthonormal
        # by up to about d * 1e-12, beyond the build's Gram bound; these
        # draws stay inside it.
        def accepted(bases):
            try:
                MubSet(bases)
            except MubValidationError:
                return False
            return True

        for d in (7, 11, 13):
            exact = construct_mubs(d, d + 1).bases
            for seed in range(3):
                rng = np.random.default_rng(seed)
                g = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
                lo, hi = 0.0, 1e-10
                for _ in range(60):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if accepted(exact + mid * g) else (lo, mid)
                for m in (2, (d + 1) // 2, d, d + 1):
                    mubs = MubSet(exact[:m] + lo * g[:m])
                    basis = build_bipartite_basis(mubs)
                    assert check_pt_identities(basis).max_deviation <= TOL_STRUCTURAL, (d, seed, m)
                    rho = random_density(2 * d, 2 * d, 900 * d + 10 * m + seed, dims=(d, 2))
                    diff = gamma_direct(rho, mubs) - gamma_via_projector(rho, basis)
                    assert frobenius_norm(diff) <= TOL_SPECTRAL, (d, seed, m)


def _pt_deviations_batched(basis):
    # every basis at once through (M, d*d, d*d) stacks, as a reference for
    # the per-basis check: (phi deviation, theta deviations)
    d, m = basis.d, basis.M
    n = d * d
    vecs = basis.mubs.bases
    swaps = np.einsum(
        "tia,tjc,tjb,tie->tabce", vecs, vecs.conj(), vecs, vecs.conj(), optimize=True
    ).reshape(m, n, n)
    pinches = np.einsum(
        "tia,tic,tib,tie->tabce", vecs, vecs.conj(), vecs, vecs.conj(), optimize=True
    ).reshape(m, n, n)
    phi = basis.phi
    lhs = partial_transpose(np.outer(phi, phi.conj()), (d, d), subsystem=1)
    phi_dev = frobenius_norm(lhs - swaps[0] / d)
    twists = basis.twisted[:, 1:]
    sums = np.einsum("tkx,tky->txy", twists, twists.conj())
    lhs = partial_transpose(sums, (d, d), subsystem=1)
    return phi_dev, np.linalg.norm((lhs - (pinches - swaps / d)).reshape(m, -1), axis=1)


class TestPtIdentities:
    @pytest.mark.parametrize(
        "d,m", [(2, 3), (3, 4), (2, 2), (3, 2), (5, 6), (13, 14), (17, 18), (19, 20), (23, 24)]
    )
    def test_identities_hold(self, d, m):
        report = check_pt_identities(build_bipartite_basis(construct_mubs(d, m)))
        assert report.max_deviation <= TOL_STRUCTURAL

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_matches_batched_reference(self, d):
        for m in range(2, d + 2):
            basis = build_bipartite_basis(construct_mubs(d, m))
            report = check_pt_identities(basis)
            phi_dev, theta_devs = _pt_deviations_batched(basis)
            assert len(report.theta_deviations) == m
            assert abs(report.phi_deviation - phi_dev) <= 1e-14
            assert np.abs(np.array(report.theta_deviations) - theta_devs).max() <= 1e-14

    @pytest.mark.parametrize("d,m,theta", [(2, 3, 3), (3, 4, 2), (5, 3, 3), (7, 8, 5)])
    @pytest.mark.parametrize("fault", ["unconjugated", "perturbed"])
    def test_corrupted_twisted_states_fail_their_basis(self, d, m, theta, fault):
        basis = build_bipartite_basis(construct_mubs(d, m))
        twisted = basis.twisted.copy()
        t = theta - 1
        if fault == "unconjugated":
            # the second factor without its conjugate, as a broken build would store it
            vecs = basis.mubs.bases[t]
            phases = np.exp(2j * np.pi / d * np.outer(np.arange(d), np.arange(d)))
            twisted[t] = np.einsum("ki,ia,ib->kab", phases, vecs, vecs).reshape(d, d * d) / np.sqrt(d)
        else:
            twisted[t, 1, 0] += 1e-6
        report = check_pt_identities(dataclasses.replace(basis, twisted=twisted))
        assert report.theta_deviations[t] > TOL_STRUCTURAL
        assert report.max_deviation > TOL_STRUCTURAL
        others = [dev for k, dev in enumerate(report.theta_deviations) if k != t]
        assert max(others) <= TOL_STRUCTURAL

    def test_memory_is_one_basis_at_a_time(self):
        # at d = 17, M = 18 every basis at once peaks near 140 MB
        basis = build_bipartite_basis(construct_mubs(17, 18))
        tracemalloc.start()
        try:
            check_pt_identities(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10**6

    def test_d2_theta1_entry_value(self):
        # hand expansion at theta=1 (computational): the transposed sum is
        # diag(1,0,0,1) minus half the swap, whose (0,0) entry is 1/2
        basis = build_bipartite_basis(construct_mubs(2, 3))
        twists = basis.twisted[0, 1:]
        acc = twists.T @ twists.conj()
        lhs = partial_transpose(acc, (2, 2), subsystem=1)
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        expected = np.diag([1.0, 0, 0, 1.0]) - swap / 2
        assert np.abs(lhs - expected).max() <= 1e-12
        assert abs(lhs[0, 0] - 0.5) <= 1e-12


class TestPostMeasurement:
    def test_bell_z_measurement(self):
        mubs = construct_mubs(2, 3)
        out = _pinch(BELL, mubs, 1)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.abs(out.matrix - expected).max() <= 1e-12
        assert abs(_purity(out.matrix) - 0.5) <= 1e-12

    def test_eigenbasis_measurement_non_disturbing(self):
        rng = np.random.default_rng(21)
        mubs = construct_mubs(2, 3)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        rho = DensityMatrix(np.kron(np.diag([0.7, 0.3]), rho_b), (2, 2))
        out = _pinch(rho, mubs, 1)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    @pytest.mark.parametrize("theta", [1, 2, 3])
    def test_family_purity_closed_form(self, theta):
        mubs = construct_mubs(2, 3)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = _pinch(rho_family(np.pi / 2, x), mubs, theta)
            assert abs(_purity(out.matrix) - (1 + x * x) / 4) <= 1e-12

    def test_marginal_invariance(self):
        mubs = construct_mubs(2, 3)
        for seed in _seeds(31, 10):
            rho = random_density(4, 4, seed, dims=(2, 2))
            marg = _marginal_b(rho.matrix, rho.dims)
            for theta in range(1, mubs.M + 1):
                out = _pinch(rho, mubs, theta)
                assert np.abs(_marginal_b(out.matrix, out.dims) - marg).max() <= 1e-12

    @pytest.mark.parametrize("d,big_d", [(2, 1), (3, 2), (5, 3), (2, 5), (3, 4)])
    def test_matches_kron_reference(self, d, big_d):
        # the realigned pinch against the term-by-term sum, on B sides
        # smaller and larger than A, for the constructed set and a rotated,
        # rephased one
        for mubs in (construct_mubs(d, d + 1), _equivalent_set(d, d + 1, 40 * d + big_d)):
            for seed in _seeds(300 + 10 * d + big_d, 5):
                rho = random_density(d * big_d, d * big_d, seed, dims=(d, big_d))
                rep = relation_report(rho, mubs)
                for theta in range(1, mubs.M + 1):
                    out = _pinch(rho, mubs, theta)
                    expected = _pinch_by_kron(rho, mubs, theta)
                    assert np.abs(out.matrix - expected).max() <= 1e-12
                    # the report reads the same pinch from its blocks
                    marginal = _marginal_b(expected, rho.dims)
                    assert abs(rep.purity_thetaB[theta - 1] - _purity(expected)) <= 1e-12
                    assert abs(rep.purity_B_given_theta[theta - 1] - _purity(marginal)) <= 1e-12

    def test_dimension_mismatch(self):
        mubs = construct_mubs(3, 2)
        with pytest.raises(ValueError, match="A-dimension"):
            _pinch(BELL, mubs, 1)

    def test_non_orthonormal_basis_rejected(self):
        # a basis with a scaled vector never reaches the pinch: MubSet
        # refuses it and its report names the vector
        bases = construct_mubs(3, 3).bases.copy()
        bases[1, 2] *= 1.1
        with pytest.raises(MubValidationError) as exc:
            MubSet(bases)
        assert exc.value.report.worst_orthonormality == (2, 2, 2)


class TestGamma:
    @pytest.mark.parametrize("d,big_d", [(d, big_d) for d in (2, 3, 5, 7) for big_d in sorted({1, 2, d})])
    def test_matches_kron_definition(self, d, big_d):
        # the realigned assembly against I_A (x) rho_B + (M-1)/d rho - sum_theta rho_thetaB,
        # each term built by kron products, at every M and on a stack of three ranks
        dim = d * big_d
        states = [random_density(dim, rank, seed, dims=(d, big_d))
                  for rank, seed in zip((dim, 1, 2), _seeds(70 * d + big_d, 3))]
        bras = [np.kron(np.eye(d)[a].reshape(1, d), np.eye(big_d)) for a in range(d)]
        for m in range(2, d + 2):
            mubs = construct_mubs(d, m)
            stacked = _relation_arrays(np.stack([rho.matrix for rho in states]), (d, big_d), mubs)["gamma"]
            for rho, g in zip(states, stacked):
                rho_b = sum(bra @ rho.matrix @ bra.T for bra in bras)
                expected = np.kron(np.eye(d), rho_b) + (m - 1) / d * rho.matrix
                expected -= sum(_pinch_by_kron(rho, mubs, theta) for theta in range(1, m + 1))
                assert np.abs(g - expected).max() <= 1e-14, m
                assert np.array_equal(gamma_direct(rho, mubs), g)

    def test_expectation_nonnegative_for_random_psd(self):
        # contraction against arbitrary PSD operators, not just states
        mubs = construct_mubs(2, 2)
        rng = np.random.default_rng(55)
        for seed in _seeds(56, 25):
            rho = random_density(4, 4, seed, dims=(2, 2))
            g = gamma_direct(rho, mubs)
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            pi = a @ a.conj().T
            assert np.trace(g @ pi).real >= -1e-9


class TestRelationReport:
    def test_maximally_entangled(self):
        rep = relation_report(BELL, construct_mubs(2, 3))
        assert abs(rep.purity_AB - 1.0) <= 1e-12
        assert abs(rep.purity_B - 0.5) <= 1e-12
        assert all(abs(p - 0.5) <= 1e-12 for p in rep.purity_thetaB)
        assert abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12
        assert abs(rep.gap) <= 1e-12
        assert rep.equality_expected

    def test_product_state(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), (2, 2))
        rep = relation_report(rho, construct_mubs(2, 3))
        # z leaves |00> alone; x and y halve the pair purity
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs - 1.0) <= 1e-12

    def test_family_frozen_values(self):
        rep = relation_report(rho_family(np.pi / 2, 0.5), construct_mubs(2, 3))
        assert abs(rep.purity_AB - 0.4375) <= 1e-12
        assert all(abs(p - 0.3125) <= 1e-12 for p in rep.purity_thetaB)
        assert abs(rep.lhs - 0.5625) <= 1e-12
        assert abs(rep.rhs - 0.5625) <= 1e-12

    def test_memory_is_a_few_states(self):
        # the pinch holds the realigned state and the (M*d, D*D) blocks;
        # an (M, d, D, d, D) intermediate, M times the state, would peak
        # near 24 MiB here
        mubs = construct_mubs(17, 18)
        rho = random_density(289, 289, 17, dims=(17, 17))
        relation_report(rho, mubs)  # warm every lazily built numpy path first
        tracemalloc.start()
        try:
            relation_report(rho, mubs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_json_fields(self):
        rep = relation_report(BELL, construct_mubs(2, 3))
        obj = rep.to_json()
        assert obj["d"] == 2 and obj["D"] == 2 and obj["M"] == 3
        assert len(obj["purity_thetaB"]) == 3
        assert obj["equality_expected"] is True
        assert list(obj) == list(RelationReport.__dataclass_fields__)  # every field, in order
        # the per-basis tuples become JSON lists
        assert obj["purity_thetaB"] == list(rep.purity_thetaB)
        assert obj["purity_B_given_theta"] == list(rep.purity_B_given_theta)


class TestStackedReport:
    """The batched report kernel against the one-state API, bit for bit."""

    @pytest.mark.parametrize("param", ["alpha", "x"])
    def test_sweep_grid_rows_equal_single_reports(self, param):
        mubs = construct_mubs(2, 3)
        grid = np.linspace(0.0, np.pi / 2 if param == "alpha" else 1.0, 130)
        fixed = np.full(130, 0.6)
        alphas, xs = (grid, fixed) if param == "alpha" else (fixed, grid)
        arrays = _report_arrays(_family_states(alphas, xs), (2, 2), mubs)
        assert set(arrays) == set(_PER_STATE_FIELDS)
        for row, (alpha, x) in enumerate(zip(alphas.tolist(), xs.tolist())):
            rep = relation_report(rho_family(alpha, x), mubs)
            assert _stacked_row(arrays, row) == _report_fields(rep)

    @pytest.mark.parametrize("m", [3, 8])
    def test_large_states_rows_equal_single_reports(self, m):
        mubs = construct_mubs(7, m)
        states = [random_density(49, rank, seed, dims=(7, 7)) for rank, seed in [(49, 1), (1, 2), (2, 3)]]
        arrays = _report_arrays(np.stack([rho.matrix for rho in states]), (7, 7), mubs)
        for row, rho in enumerate(states):
            assert _stacked_row(arrays, row) == _report_fields(relation_report(rho, mubs))

    def test_shapes(self):
        mubs = construct_mubs(3, 2)
        stack = np.stack([random_density(6, 6, seed, dims=(3, 2)).matrix for seed in (1, 2, 3, 4)])
        # the kernel's fields, which every caller reads
        kernel = _relation_arrays(stack, (3, 2), mubs)
        assert set(kernel) == {"purity_AB", "purity_B", "purity_thetaB", "lhs", "rhs", "gap",
                               "gamma_expectation", "gamma", "blocks"}
        assert kernel["gamma"].shape == (4, 6, 6)
        assert kernel["blocks"].shape == (4, 2, 3, 2, 2)
        # the report's fields, three of them derived from gamma and the blocks
        arrays = _report_arrays(stack, (3, 2), mubs)
        assert set(arrays) == set(_PER_STATE_FIELDS)
        for name, values in arrays.items():
            expected = (4, 2) if name in ("purity_thetaB", "purity_B_given_theta") else (4,)
            assert values.shape == expected, name

    def test_dimension_checked_on_stack(self):
        stack = np.stack([BELL.matrix, BELL.matrix])
        with pytest.raises(ValueError, match="does not match basis dimension"):
            _relation_arrays(stack, (2, 2), construct_mubs(3, 2))


def _gate_matches_spectrum(mubs, big_d, seeds):
    """Assert that the PSD gate decides each trial's gamma as its smallest eigenvalue does, at the bound and off it.

    Each gamma is also moved to put its smallest eigenvalue 10 % inside and
    10 % beyond -TOL_PSD, where only a gate at the slack gets both right.
    """
    d = mubs.d
    dim = d * big_d
    stack = np.stack([random_density(dim, (dim, 1, 2)[t % 3], seed).matrix for t, seed in enumerate(seeds)])
    g = _relation_arrays(stack, (d, big_d), mubs)["gamma"]
    low = np.array([relation_report(DensityMatrix(rho, (d, big_d)), mubs).gamma_min_eig for rho in stack])
    assert [_is_psd(gamma) for gamma in g] == (low >= -TOL_PSD).tolist()
    eye = np.eye(dim)
    for target, verdict in ((-0.9 * TOL_PSD, True), (-1.1 * TOL_PSD, False)):
        moved = g + (target - low)[:, None, None] * eye
        assert [_is_psd(gamma) for gamma in moved] == [verdict] * len(seeds), target


def _choi_gate_matches_spectrum(mubs):
    """Assert that the PSD gate decides J, and J - 2 TOL_PSD I, as their smallest eigenvalues do, and that Weyl's floor holds.

    J is PSD with a null space below M = d + 1, so the gate passes it and
    fails the shifted J, whose smallest eigenvalue is near -2 TOL_PSD.
    """
    choi = _choi_matrix(mubs)
    floor = relations._certificate(build_bipartite_basis(mubs))[0]
    for shift, verdict in ((0, True), (2 * TOL_PSD, False)):
        moved = choi - shift * np.eye(len(choi))
        low = np.linalg.eigvalsh(moved)[0]
        assert _is_psd(moved) == (low >= -TOL_PSD) == verdict, shift
        assert low >= floor - shift


class TestVerifyRelations:
    @pytest.mark.parametrize("m,state_checks", [
        (4, ["choi frobenius", "relation gap min", "gap vs Tr(gamma rho) max deviation",
             "gamma hermiticity max deviation", "gamma frobenius max", "relation |gap| max"]),
        (3, ["choi hermiticity max deviation", "choi psd gate failures", "relation gap min",
             "gap vs Tr(gamma rho) max deviation", "gamma hermiticity max deviation"]),
    ])
    def test_report_reads_the_library_checks(self, m, state_checks):
        mubs = construct_mubs(3, m)
        report = verify_relations(mubs, 2, 4, 9)
        basis = build_bipartite_basis(mubs)
        assert [check[0] for check in report.checks] == [
            "pt identities max deviation", "choi vs projector max deviation", *state_checks
        ]
        assert report.gram_deviation == basis.gram_deviation
        assert report.checks[0][1] == check_pt_identities(basis).max_deviation
        # Weyl's floor: the Frobenius norms of G - I, over phi and every twist k >= 1, and of J - P
        span = np.concatenate([basis.phi[None], basis.twisted[:, 1:].reshape(-1, 9)])
        gram = np.abs(span.conj() @ span.T - np.eye(len(span)))
        route = np.abs(_choi_matrix(mubs) - basis.projector)
        assert report.checks[1][1] == route.max()
        assert report.choi_floor == -np.linalg.norm(gram) - np.linalg.norm(route)
        assert report.summary().splitlines()[2] == (
            f"choi min eigenvalue floor: {report.choi_floor!r} (Weyl, from the gram and choi vs projector deviations)"
        )
        # the basis and certificate checks name no state, and every state check names a trial
        fixed = 3 if m == 4 else 4
        assert [check[4] for check in report.checks[:fixed]] == [None] * fixed
        if m == 3:
            assert report.checks[3] == ("choi psd gate failures", 0, 0, True, None)
        assert all(check[4] in _seeds(9, 4) for check in report.checks[fixed:])
        assert report.passed and report.summary().endswith("\nall checks passed")

    def test_gram_deviation_is_an_observation(self):
        report = verify_relations(construct_mubs(3, 3), 2, 2, 9)
        lines = report.summary().splitlines()
        assert lines[1] == f"gram max deviation: {report.gram_deviation!r} (basis build raises above 1e-12)"
        # the build raises above the bound, so no report can fail on it
        beyond = dataclasses.replace(report, gram_deviation=1.0)
        assert beyond.passed
        assert beyond.summary().splitlines()[1] == "gram max deviation: 1.0 (basis build raises above 1e-12)"

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_choi_floor_is_below_the_spectrum(self, d):
        # Weyl's floor under lambda_min(J), on constructed and equivalent sets at every M
        for m in range(2, d + 2):
            for mubs in (construct_mubs(d, m), _equivalent_set(d, m, 1900 * d + m)):
                floor = relations._certificate(build_bipartite_basis(mubs))[0]
                assert -TOL_PSD < floor <= np.linalg.eigvalsh(_choi_matrix(mubs))[0], (d, m)

    @pytest.mark.parametrize("m", [2, 8])
    def test_chunked_read_equals_per_trial_reports(self, m):
        mubs = construct_mubs(7, m)
        # a chunk is as many 49x49 complex states as fit in the budget, so
        # the trials span several chunks
        assert relations._CHUNK_BYTES // (49 * 49 * 16) < 40
        seeds = _seeds(12, 40)
        states = [random_density(49, (49, 1, 2)[t % 3], seed, dims=(7, 7)) for t, seed in enumerate(seeds)]
        reports = [relation_report(rho, mubs) for rho in states]
        skews = [float(np.abs(g - g.conj().T).max()) for g in (gamma_direct(rho, mubs) for rho in states)]

        def worst(name, values, lowest, bound):
            # first trial attaining the extreme value
            k = min(range(40), key=lambda t: values[t] if lowest else -values[t])
            passed = values[k] >= bound if lowest else values[k] <= bound
            return name, values[k], bound, passed, seeds[k]

        gaps = [rep.gap for rep in reports]
        expected = [
            worst("relation gap min", gaps, True, -1e-9),
            worst("gap vs Tr(gamma rho) max deviation",
                  [abs(rep.gap - rep.gamma_expectation) for rep in reports], False, 1e-9),
            worst("gamma hermiticity max deviation", skews, False, 1e-10),
        ]
        if m == 8:
            expected += [worst("gamma frobenius max", [rep.gamma_frobenius for rep in reports], False, 1e-9),
                         worst("relation |gap| max", [abs(gap) for gap in gaps], False, 1e-9)]
        else:
            # every trial's smallest eigenvalue clears the bound J's gate certifies
            assert min(rep.gamma_min_eig for rep in reports) >= -1e-10
        # after the PT check and J's two checks at M = d + 1, or three below it
        assert list(verify_relations(mubs, 7, 40, 12).checks[3 if m == 8 else 4:]) == expected

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_gate_verdicts_equal_the_spectrum(self, d):
        for m in range(2, d + 1):
            for big_d in (2, d):
                _gate_matches_spectrum(construct_mubs(d, m), big_d, _seeds(800 * d + 10 * m + big_d, 6))

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_choi_matrix_is_the_projector(self, d):
        # on constructed and on equivalent sets, at every M
        for m in range(2, d + 2):
            for mubs in (construct_mubs(d, m), _equivalent_set(d, m, 900 * d + m)):
                basis = build_bipartite_basis(mubs)
                choi = _choi_matrix(mubs)
                assert np.abs(choi - basis.projector).max() <= TOL_STRUCTURAL
                if m == d + 1:
                    assert frobenius_norm(choi) <= TOL_SPECTRAL
                else:
                    assert hermitian_eigenvalues(choi)[0] >= -TOL_PSD
                report = verify_relations(mubs, 2, 3, m)
                assert report.checks[1][:2] == ("choi vs projector max deviation", np.abs(choi - basis.projector).max())
                assert report.passed

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
    def test_gate_decides_choi_as_its_spectrum(self, d):
        # on constructed and on unitarily rotated sets, at every M <= d
        v = _haar(np.random.default_rng(1300 + d), d)
        for m in range(2, d + 1):
            mubs = construct_mubs(d, m)
            _choi_gate_matches_spectrum(mubs)
            _choi_gate_matches_spectrum(MubSet(mubs.bases @ v.T))

    def test_choi_norm_bounds_every_gamma(self):
        # (Phi (x) id)(rho)[xu, yv] = sum_ab J[xa, yb] rho[au, bv] for the Choi
        # matrix J of Phi; on seeded random J and states,
        # ||(Phi (x) id)(rho)||_1 <= ||J||_1 <= d ||J||_F
        def apply(choi, rho, d, big_d):
            out = np.einsum("xayb,aubv->xuyv", choi.reshape(d, d, d, d), rho.reshape(d, big_d, d, big_d))
            return out.reshape(d * big_d, d * big_d)

        def trace_norm(m):
            return np.linalg.svd(m, compute_uv=False).sum()

        rng = np.random.default_rng(2018)
        for d, big_d in ((2, 1), (2, 3), (3, 2), (3, 3), (5, 2)):
            dim = d * big_d
            # J read as a map is gamma's, so the bound holds for gamma at d * ||J||_F
            rho = random_density(dim, dim, d + big_d, dims=(d, big_d))
            mubs = construct_mubs(d, d)
            assert np.abs(apply(_choi_matrix(mubs), rho.matrix, d, big_d) - gamma_direct(rho, mubs)).max() <= TOL_STRUCTURAL
            for t in range(20):
                choi = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
                rho = random_density(dim, (dim, 1)[t % 2], int(rng.integers(2**32)), dims=(d, big_d))
                bound = trace_norm(choi)
                assert trace_norm(apply(choi, rho.matrix, d, big_d)) <= bound * (1 + 1e-12)
                assert bound <= d * frobenius_norm(choi) * (1 + 1e-12)
            # the last step is tight: the transpose map's J is the swap, with ||J||_1 = d^2 = d ||J||_F
            swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
            assert abs(trace_norm(swap) - d * frobenius_norm(swap)) <= 1e-12 * d * d

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_choi_route_catches_the_conjugated_projector(self, monkeypatch, d):
        # the conjugated projector is idempotent with the right trace, and
        # the build checks only the Gram matrix; J tells it apart wherever P
        # is complex (the constructed P is real at M = 2 and zero at
        # M = d + 1), and only the J-vs-P line fails: J still passes the gate
        real = relations.build_bipartite_basis

        def conjugated(mubs):
            basis = real(mubs)
            return dataclasses.replace(basis, projector=basis.projector.conj())

        monkeypatch.setattr(relations, "build_bipartite_basis", conjugated)
        for m in range(3, d + 1):
            mubs = construct_mubs(d, m)
            assert np.abs(_choi_matrix(mubs) - real(mubs).projector.conj()).max() > 0.1
            report = verify_relations(mubs, 2, 2, m)
            assert [check[0] for check in report.checks if not check[3]] == ["choi vs projector max deviation"]

    @pytest.mark.parametrize("fault,line", [
        ("skewed", "choi hermiticity max deviation"),
        ("shifted", "choi psd gate failures"),
    ])
    def test_faulty_choi_fails_verification(self, monkeypatch, capsys, fault, line):
        # J skewed by 2 TOL_PSD in the triangle the gate does not read, or
        # shifted by -2 TOL_PSD I, is a failed check (exit 2), not a usage
        # error (exit 1); both also move J off P
        real = relations._choi_matrix

        def faulty(mubs):
            choi = real(mubs)
            if fault == "skewed":
                choi[0, 1] += 2 * TOL_PSD
            else:
                choi -= 2 * TOL_PSD * np.eye(len(choi))
            return choi

        monkeypatch.setattr(relations, "_choi_matrix", faulty)
        assert main(["verify", "--d", "3", "--m", "2", "--big-d", "2", "--trials", "3", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        failed = [text for text in captured.out.splitlines() if text.endswith(" FAIL")]
        assert [text.split(":")[0] for text in failed] == ["choi vs projector max deviation", line]
        if fault == "skewed":
            assert abs(float(failed[1].split()[4]) - 2 * TOL_PSD) <= 1e-15
            assert failed[1].endswith(" (bound 1e-10) FAIL")
        else:
            assert failed[1] == "choi psd gate failures: 1 (bound 0) FAIL"
        assert captured.out.endswith("\nVERIFICATION FAILED\n") and captured.err == ""

    def test_nan_gap_fails_naming_its_trial(self, monkeypatch):
        # NaN, which argmin and argmax return first, fails every comparison with a bound
        real, seen = relations._relation_arrays, []

        def nan_gap(rho, dims, mubs):
            arrays = real(rho, dims, mubs)
            for row in range(len(rho)):
                if len(seen) + row == 5:
                    arrays["gap"][row] = np.nan
            seen.extend(rho)
            return arrays

        monkeypatch.setattr(relations, "_relation_arrays", nan_gap)
        report = verify_relations(construct_mubs(3, 3), 3, 9, 4)
        assert [check[0] for check in report.checks if not check[3]] == [
            "relation gap min", "gap vs Tr(gamma rho) max deviation"
        ]
        lines = report.summary().splitlines()
        assert f"relation gap min: nan (bound -1e-09) FAIL [state seed {_seeds(4, 9)[5]}]" in lines
        assert f"gap vs Tr(gamma rho) max deviation: nan (bound 1e-09) FAIL [state seed {_seeds(4, 9)[5]}]" in lines
        assert lines[-1] == "VERIFICATION FAILED"

    @pytest.mark.parametrize("m", [3, 4])
    def test_non_hermitian_gamma_fails_verification(self, monkeypatch, capsys, m):
        # a skewed gamma is a failed check (exit 2) naming its worst trial, not a usage error (exit 1)
        real = relations._relation_arrays
        skew = {1: 2 * TOL_PSD, 2: 3 * TOL_PSD}  # trial -> added skew; trial 0 stays Hermitian
        seen = []

        def skewed(rho, dims, mubs):
            arrays = real(rho, dims, mubs)
            for row in range(len(rho)):
                arrays["gamma"][row, 0, 1] += skew.get(len(seen) + row, 0.0)
            seen.extend(rho)
            return arrays

        monkeypatch.setattr(relations, "_relation_arrays", skewed)
        report = verify_relations(construct_mubs(3, m), 2, 3, 1)
        name, value, bound, passed, state_seed = report.checks[-3 if m == 4 else -1]
        assert (name, bound, passed, state_seed) == ("gamma hermiticity max deviation", TOL_PSD, False, _seeds(1, 3)[2])
        assert abs(value - 3 * TOL_PSD) <= 1e-15
        assert not report.passed
        seen.clear()
        assert main(["verify", "--d", "3", "--m", str(m), "--big-d", "2", "--trials", "3", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert f"gamma hermiticity max deviation: {value!r} (bound 1e-10) FAIL [state seed {_seeds(1, 3)[2]}]\n" in captured.out
        assert captured.out.endswith("\nVERIFICATION FAILED\n") and captured.err == ""

    def test_verify_runs_no_eigensolve(self, monkeypatch, tmp_path):
        solves, gated = [], []

        def counted(name, solve):
            def wrapper(*args, **kwargs):
                solves.append(name)
                return solve(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        gate = relations._is_psd
        monkeypatch.setattr(relations, "_is_psd", lambda a: gated.append(a.shape) or gate(a))
        # the default budget reads 30 trials in one chunk at d = 3, D = 2,
        # a budget of one byte in chunks of one state
        for budget in (relations._CHUNK_BYTES, 1):
            monkeypatch.setattr(relations, "_CHUNK_BYTES", budget)
            for m in (2, 3, 4):
                for trials in (1, 30):
                    gated.clear()
                    assert verify_relations(construct_mubs(3, m), 2, trials, 5).passed
                    # below M = d + 1 the one gate decides J, and no trial;
                    # at it, J and gamma must vanish
                    assert gated == ([] if m == 4 else [(9, 9)])
        # sweep reads no gamma column
        assert main(["sweep", "--param", "x", "--steps", "9", "--simulate", "--out", str(tmp_path / "s.csv")]) == 0
        assert solves == []

    @pytest.mark.parametrize("big_d", [1, 2, 3])
    def test_verify_kernel_validates_nothing_it_built(self, monkeypatch, big_d):
        # the drawn states, J's Omega and every gamma are built valid, so no
        # stack is coerced and scanned for finiteness again
        checked, real = [], linalg._as_stack
        monkeypatch.setattr(linalg, "_as_stack", lambda m: checked.append(np.shape(m)) or real(m))
        for m in (2, 3, 4):
            assert verify_relations(construct_mubs(3, m), big_d, 7, 2).passed
        assert checked == []
        # relation_report solves gamma's spectrum, whose input is checked
        relation_report(random_density(3 * big_d, 2, 1, dims=(3, big_d)), construct_mubs(3, 2))
        assert (1, 3 * big_d, 3 * big_d) in checked

    @pytest.mark.parametrize("m", [2, 8])
    def test_trial_memory_is_bounded(self, m):
        mubs = construct_mubs(7, m)
        build_bipartite_basis(mubs)  # warm every lazily built numpy path first
        peaks = []
        for trials in (1, 200):
            tracemalloc.start()
            try:
                verify_relations(mubs, 7, trials, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # all 200 states in one stack would pinch through 15 MiB at M = 2
        assert peaks[1] <= peaks[0] + 4 * 2**20

    @pytest.mark.parametrize("big_d,trials,name", [(0, 1, "big_d"), (-1, 1, "big_d"), (1, 0, "trials")])
    def test_rejects_empty_b_side_and_no_trials(self, big_d, trials, name):
        with pytest.raises(ValueError, match=f"need {name} >= 1"):
            verify_relations(construct_mubs(2, 3), big_d, trials, 0)

    @pytest.mark.parametrize(
        "big_d,trials,seed,name",
        [(2.5, 3, 0, "big_d"), (2, 3, 1.5, "seed"), (2, True, 0, "trials"), (2, "3", 0, "trials"), (None, 3, 0, "big_d")],
    )
    def test_non_integral_sizes_rejected(self, big_d, trials, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            verify_relations(construct_mubs(2, 3), big_d, trials, seed)


class TestEquivalentSets:
    """The report is covariant under a local unitary on rotated, reordered and rephased sets."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_local_unitary_covariance(self, d):
        # the report of (V (x) W) rho (V (x) W)^dagger against the set V.b
        # equals the report of rho against b
        for m in range(2, d + 2):
            mubs = _equivalent_set(d, m, 400 * d + m)
            for big_d in (2, d):
                rng = np.random.default_rng(500 * d + 10 * m + big_d)
                v, w = _haar(rng, d), _haar(rng, big_d)
                u = np.kron(v, w)
                rho = random_density(d * big_d, d * big_d, 600 * d + 10 * m + big_d, dims=(d, big_d))
                moved = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)
                expected = _report_fields(relation_report(rho, mubs))
                got = _report_fields(relation_report(moved, MubSet(mubs.bases @ v.T)))
                for name, value in expected.items():
                    diff = np.abs(np.subtract(got[name], value)).max()
                    assert diff <= TOL_STRUCTURAL, (name, m, big_d, diff)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def _two_qubit_set():
    """The complete d = 4 set: the common eigenbases of five commuting classes of two-qubit Paulis.

    The classes partition the 15 non-identity Paulis (Bandyopadhyay et al.,
    Algorithmica 34, 512 (2002)). Two generators of a class commute, and
    A + sqrt(2) B has the four distinct eigenvalues +-1 +- sqrt(2), so its
    eigenvectors are the class's common eigenbasis.
    """
    classes = [("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XZ", "YX"), ("YZ", "ZX")]
    bases = []
    for a, b in classes:
        ops = [np.kron(_PAULI[p[0]], _PAULI[p[1]]) for p in (a, b)]
        bases.append(np.linalg.eigh(ops[0] + np.sqrt(2) * ops[1])[1].T)
    return np.stack(bases)


def _product_set(d1, d2):
    """min(M1, M2) MUBs at d1*d2 for primes d1, d2: basis t holds the products of basis t at d1 and at d2.

    (Klappenecker and Roetteler, quant-ph/0309120.)
    """
    m = min(d1, d2) + 1
    first, second = construct_mubs(d1, m).bases, construct_mubs(d2, m).bases
    return np.einsum("tia,tjb->tijab", first, second).reshape(m, d1 * d2, d1 * d2)


_NON_PRIME = [(4, 2), (4, 3), (4, 4), (4, 5), (6, 2), (6, 3), (10, 2), (10, 3), (15, 2), (15, 3), (15, 4)]


def _non_prime_set(d, m):
    factors = {6: (2, 3), 10: (2, 5), 15: (3, 5)}
    return MubSet((_two_qubit_set() if d == 4 else _product_set(*factors[d]))[:m])


class TestNonPrimeSets:
    """The paper's claims at d = 4, 6, 10 and 15, where construct_mubs builds no set."""

    @pytest.mark.parametrize("d,m", _NON_PRIME)
    def test_certificate_and_gate(self, d, m):
        mubs = _non_prime_set(d, m)
        basis = build_bipartite_basis(mubs)
        assert np.abs(_choi_matrix(mubs) - basis.projector).max() <= TOL_STRUCTURAL
        report = verify_relations(mubs, 2, 6, 1000 * d + m)
        assert report.passed, report.summary()
        if m <= d:
            _choi_gate_matches_spectrum(mubs)
            for big_d in (2, d):
                _gate_matches_spectrum(mubs, big_d, _seeds(1100 * d + 10 * m + big_d, 3))


_SETS = {"constructed": construct_mubs, "equivalent": _equivalent_set, "non-prime": _non_prime_set}


def _ginibre(ranks, base, n):
    # the n seeds of base, the ranks taken in turn
    return [("ginibre", rank, seed) for rank, seed in zip(itertools.cycle(ranks), _seeds(base, n))]


def _claims(groups):
    """One row per (set, D, name), holding each state of its groups once, in order.

    A set is ``(kind, d, M, *args)``, built by ``_SETS[kind](d, M, *args)``. A
    state is ``("ginibre", rank, seed)``, drawn by ``random_density``, or
    ``("family", alpha, x)``, drawn by ``rho_family`` at d = D = 2. The name,
    empty for most groups, tells apart rows that share a set and a D.
    """
    rows = {}
    for name, spec, big_d, states in groups:
        rows.setdefault((spec, big_d, name), {}).update(dict.fromkeys(states))
    return [pytest.param(spec, big_d, tuple(states), id="-".join(
                [spec[0], f"d{spec[1]}", f"m{spec[2]}", *(f"seed{a}" for a in spec[3:]), f"D{big_d}", *([name] if name else [])]))
            for (spec, big_d, name), states in rows.items()]


CLAIMS = _claims([
    # complete sets at d = 2 and 3, M = 2 at d = 2, and the projector route on constructed sets
    ("vanish", ("constructed", 2, 3), 2, _ginibre([4], 41, 50)),
    ("vanish", ("constructed", 3, 4), 3, _ginibre([9], 42, 20)),
    ("psd", ("constructed", 2, 2), 2, _ginibre([4], 43, 100)),
    ("route-vanish", ("constructed", 2, 3), 2, [("ginibre", 4, 77)]),
    *(("route", ("constructed", d, m), big_d, _ginibre([d * big_d], 1000 * d + 10 * m + big_d, 50))
      for d, m, big_d in [(2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 4, 3), (3, 3, 3), (3, 3, 2), (5, 3, 2)]),
    # the report: constructed sets at D = d, pure and family states, and a B side larger than A
    *(("report", ("constructed", d, m), d, _ginibre([d * d], 137 + 10 * d + m, 20))
      for d, m in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]),
    ("pure", ("constructed", 2, 3), 2, _ginibre([1], 77, 20)
     + [("family", alpha, x) for alpha in (0.0, np.pi / 4, np.pi / 2) for x in (0.0, 0.5, 1.0)]),
    ("report", ("constructed", 2, 2), 3, _ginibre([6], 99, 20)),
    # every M of rotated, reordered and rephased complete sets, under two set seeds
    *(("", ("equivalent", d, m, 100 * d + m), big_d, [("ginibre", d * big_d, seed)])
      for d in (2, 3, 5, 7) for m in range(2, d + 2) for big_d, seed in ((2, 1), (d, 2))),
    *(("", ("equivalent", d, m, 200 * d + m), big_d, _ginibre([d * big_d, 1, 2], 300 * d + 10 * m + big_d, 3))
      for d in (2, 3, 5, 7) for m in range(2, d + 2) for big_d in (2, d)),
    *(("", ("non-prime", d, m), big_d, _ginibre([d * big_d, 1, 2], 700 * d + 10 * m + big_d, 3))
      for d, m in _NON_PRIME for big_d in (2, d)),
])


@pytest.mark.parametrize("spec,big_d,states", CLAIMS)
def test_paper_claims(spec, big_d, states):
    """Every claim of the paper on each state of the row, and the complement facts of its set.

    The gap is >= 0; gamma is PSD for M <= d; at M = d + 1 the gap and gamma
    by both routes vanish; the two routes agree; Tr(gamma rho) is the purity
    combination; and measuring A leaves the purity of the B marginal.
    """
    kind, d, m, *args = spec
    mubs = _SETS[kind](d, m, *args)
    basis = build_bipartite_basis(mubs)
    _assert_projector_facts(basis)
    assert check_pt_identities(basis).max_deviation <= TOL_STRUCTURAL
    dims, complete = (d, big_d), m == d + 1
    for state in states:
        source, a, b = state
        rho = rho_family(a, b) if source == "family" else random_density(d * big_d, a, b, dims=dims)
        rep = relation_report(rho, mubs)
        g, routed = gamma_direct(rho, mubs), gamma_via_projector(rho, basis)
        assert (rep.d, rep.D, rep.M, rep.equality_expected) == (*dims, m, complete), state
        assert rep.gap >= -1e-9, state
        combo = rep.purity_B + (m - 1) / d * rep.purity_AB - sum(rep.purity_thetaB)
        assert abs(rep.gamma_expectation - combo) <= 1e-10, state
        assert np.abs(g - g.conj().T).max() <= 1e-12, state
        assert frobenius_norm(g - routed) <= 1e-10, state
        assert max(abs(p - rep.purity_B) for p in rep.purity_B_given_theta) <= 1e-12, state
        if complete:
            assert abs(rep.gap) <= 1e-9, state
            assert max(frobenius_norm(g), frobenius_norm(routed)) <= 1e-10, state
        else:
            assert rep.gamma_min_eig >= -1e-10, state


@pytest.mark.parametrize(
    "make",
    [
        lambda: construct_mubs(5, 4),
        lambda: DensityMatrix(np.eye(4) / 4, (2, 2)),
        lambda: build_bipartite_basis(construct_mubs(3, 2)),
    ],
    ids=["MubSet", "DensityMatrix", "BipartiteBasis"],
)
def test_array_types_compare_and_hash_by_identity(make):
    # field-wise == of arrays is ambiguous, so these types compare by identity
    a, b = make(), make()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert {a: 1, b: 2}[a] == 1
