import numpy as np
import pytest

from mubpurity.linalg import (
    DensityMatrix,
    frobenius_norm,
    hermitian_eigenvalues,
    partial_trace_matrix,
    purity,
)
from mubpurity.mub import MubSet, MubValidationError, construct_mubs
from mubpurity.relations import (
    build_bipartite_basis,
    check_pt_identities,
    gamma_direct,
    gamma_via_projector,
    post_measurement_state,
    relation_report,
)
from mubpurity.states import random_density, rho_family

BELL = DensityMatrix(
    np.array(
        [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex
    ),
    (2, 2),
)


def _seeds(base, n):
    return [int(s) for s in np.random.SeedSequence(base).generate_state(n, dtype=np.uint64)]


def _pinch_by_kron(rho, mubs, theta):
    # sum_i |i><i| (x) <i|rho|i> summed term by term, as a reference
    d, big_d = rho.dims
    out = np.zeros_like(rho.matrix)
    for ket in mubs.bases[theta - 1]:
        bra = np.kron(ket.conj().reshape(1, d), np.eye(big_d))
        out += np.kron(np.outer(ket, ket.conj()), bra @ rho.matrix @ bra.conj().T)
    return out


class TestBipartiteBasis:
    def test_d2_complete_set(self):
        basis = build_bipartite_basis(construct_mubs(2, 3))
        s = 1 / np.sqrt(2)
        assert np.allclose(basis.phi, [s, 0, 0, s], atol=1e-15)
        assert basis.complement.shape[0] == 0
        assert np.abs(basis.projector).max() <= 1e-12
        # theta=1, k=1 companion picks up the phase -1 on |11>
        assert np.allclose(basis.twisted[0, 1], [s, 0, 0, -s], atol=1e-14)

    def test_d3_m2_counts_and_gram(self):
        basis = build_bipartite_basis(construct_mubs(3, 2))
        assert basis.twisted.shape == (2, 3, 9)
        assert basis.complement.shape[0] == 4
        states = basis.all_states()
        assert states.shape == (9, 9)
        gram = states.conj() @ states.T
        assert np.abs(gram - np.eye(9)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_constructed_states_orthonormal(self, d):
        for m in range(2, d + 2):
            basis = build_bipartite_basis(construct_mubs(d, m))
            states = basis.constructed_states()
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
            assert abs(np.trace(p).real - basis.complement.shape[0]) <= 1e-9
            comp = basis.complement
            assert np.abs(p - comp.T @ comp.conj()).max() <= 1e-12

    def test_rejects_invalid_mubs(self):
        dup = MubSet(np.stack([np.eye(2, dtype=complex)] * 2))
        with pytest.raises(MubValidationError):
            build_bipartite_basis(dup)


class TestPtIdentities:
    @pytest.mark.parametrize("d,m", [(2, 3), (3, 4), (2, 2), (3, 2), (5, 6)])
    def test_identities_hold(self, d, m):
        report = check_pt_identities(build_bipartite_basis(construct_mubs(d, m)))
        assert report.passed
        assert report.max_deviation <= 1e-12

    def test_d2_theta1_entry_value(self):
        # hand expansion at theta=1 (computational): the transposed sum is
        # diag(1,0,0,1) minus half the swap, whose (0,0) entry is 1/2
        basis = build_bipartite_basis(construct_mubs(2, 3))
        twists = basis.twisted[0, 1:]
        acc = twists.T @ twists.conj()
        from mubpurity.linalg import partial_transpose

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
        out = post_measurement_state(BELL, mubs, 1)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.abs(out.matrix - expected).max() <= 1e-12
        assert abs(purity(out) - 0.5) <= 1e-12

    def test_eigenbasis_measurement_non_disturbing(self):
        rng = np.random.default_rng(21)
        mubs = construct_mubs(2, 3)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        rho = DensityMatrix(np.kron(np.diag([0.7, 0.3]), rho_b), (2, 2))
        out = post_measurement_state(rho, mubs, 1)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    @pytest.mark.parametrize("theta", [1, 2, 3])
    def test_family_purity_closed_form(self, theta):
        mubs = construct_mubs(2, 3)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = post_measurement_state(rho_family(np.pi / 2, x), mubs, theta)
            assert abs(purity(out) - (1 + x * x) / 4) <= 1e-12

    def test_marginal_invariance(self):
        mubs = construct_mubs(2, 3)
        for seed in _seeds(31, 10):
            rho = random_density(4, 4, seed, dims=(2, 2))
            marg = partial_trace_matrix(rho.matrix, rho.dims, [1])
            for theta in range(1, mubs.M + 1):
                out = post_measurement_state(rho, mubs, theta)
                assert np.abs(partial_trace_matrix(out.matrix, out.dims, [1]) - marg).max() <= 1e-12

    @pytest.mark.parametrize("d,big_d", [(2, 1), (3, 2), (5, 3)])
    def test_matches_kron_reference(self, d, big_d):
        mubs = construct_mubs(d, d + 1)
        for seed in _seeds(300 + 10 * d + big_d, 5):
            rho = random_density(d * big_d, d * big_d, seed, dims=(d, big_d))
            rep = relation_report(rho, mubs)
            for theta in range(1, mubs.M + 1):
                out = post_measurement_state(rho, mubs, theta)
                expected = _pinch_by_kron(rho, mubs, theta)
                assert np.abs(out.matrix - expected).max() <= 1e-12
                # the report reads the same pinch from its blocks
                marginal = partial_trace_matrix(expected, rho.dims, keep=(1,))
                assert abs(rep.purity_thetaB[theta - 1] - purity(expected)) <= 1e-12
                assert abs(rep.purity_B_given_theta[theta - 1] - purity(marginal)) <= 1e-12

    def test_theta_out_of_range(self):
        mubs = construct_mubs(2, 3)
        with pytest.raises(ValueError):
            post_measurement_state(BELL, mubs, 0)
        with pytest.raises(ValueError):
            post_measurement_state(BELL, mubs, 4)

    def test_dimension_mismatch(self):
        mubs = construct_mubs(3, 2)
        with pytest.raises(ValueError):
            post_measurement_state(BELL, mubs, 1)

    def test_non_orthonormal_basis_rejected(self):
        # a pinch in a basis with a scaled vector does not keep the trace
        bases = construct_mubs(3, 3).bases.copy()
        bases[1, 2] *= 1.1
        mubs = MubSet(bases)
        rho = random_density(9, 9, 5, dims=(3, 3))
        with pytest.raises(ValueError, match="pinched trace"):
            relation_report(rho, mubs)
        with pytest.raises(ValueError, match="pinched trace"):
            gamma_direct(rho, mubs)
        with pytest.raises(ValueError, match="pinched trace"):
            post_measurement_state(rho, mubs, 2)
        post_measurement_state(rho, mubs, 1)  # the intact bases still pinch


class TestGamma:
    def test_complete_set_vanishes_d2(self):
        mubs = construct_mubs(2, 3)
        for seed in _seeds(41, 50):
            rho = random_density(4, 4, seed, dims=(2, 2))
            assert frobenius_norm(gamma_direct(rho, mubs)) <= 1e-10

    def test_complete_set_vanishes_d3(self):
        mubs = construct_mubs(3, 4)
        for seed in _seeds(42, 20):
            rho = random_density(9, 9, seed, dims=(3, 3))
            assert frobenius_norm(gamma_direct(rho, mubs)) <= 1e-9

    def test_psd_when_m_at_most_d(self):
        mubs = construct_mubs(2, 2)
        for seed in _seeds(43, 100):
            rho = random_density(4, 4, seed, dims=(2, 2))
            g = gamma_direct(rho, mubs)
            assert np.abs(g - g.conj().T).max() <= 1e-12
            assert hermitian_eigenvalues(g)[0] >= -1e-10

    @pytest.mark.parametrize(
        "d,m,big_d",
        [(2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 4, 3), (3, 3, 3), (3, 3, 2), (5, 3, 2)],
    )
    def test_projector_route_agrees(self, d, m, big_d):
        mubs = construct_mubs(d, m)
        basis = build_bipartite_basis(mubs)
        for seed in _seeds(1000 * d + 10 * m + big_d, 50):
            rho = random_density(d * big_d, d * big_d, seed, dims=(d, big_d))
            diff = gamma_direct(rho, mubs) - gamma_via_projector(rho, basis)
            assert frobenius_norm(diff) <= 1e-10

    def test_projector_route_zero_at_complete_set(self):
        basis = build_bipartite_basis(construct_mubs(2, 3))
        rho = random_density(4, 4, 77, dims=(2, 2))
        assert frobenius_norm(gamma_via_projector(rho, basis)) <= 1e-10

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

    def test_expectation_identity_and_gap(self):
        # Tr(gamma rho) must reproduce the purity combination; the gap is
        # nonnegative and closes at the complete set
        for d, m in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]:
            mubs = construct_mubs(d, m)
            for seed in _seeds(137 + 10 * d + m, 20):
                rho = random_density(d * d, d * d, seed, dims=(d, d))
                rep = relation_report(rho, mubs)
                combo = (
                    rep.purity_B
                    + (m - 1) / d * rep.purity_AB
                    - sum(rep.purity_thetaB)
                )
                assert abs(rep.gamma_expectation - combo) <= 1e-10
                assert rep.gap >= -1e-9
                if rep.equality_expected:
                    assert abs(rep.gap) <= 1e-9

    def test_pure_states_and_family(self):
        mubs = construct_mubs(2, 3)
        for seed in _seeds(77, 20):
            rho = random_density(4, 1, seed, dims=(2, 2))  # a random pure state
            rep = relation_report(rho, mubs)
            assert abs(rep.gap) <= 1e-9
        for alpha in (0.0, np.pi / 4, np.pi / 2):
            for x in (0.0, 0.5, 1.0):
                rep = relation_report(rho_family(alpha, x), mubs)
                assert abs(rep.gap) <= 1e-9

    def test_rectangular_b_side(self):
        mubs = construct_mubs(2, 2)
        for seed in _seeds(99, 20):
            rho = random_density(6, 6, seed, dims=(2, 3))
            rep = relation_report(rho, mubs)
            assert rep.D == 3
            assert rep.gap >= -1e-9
            assert rep.gamma_min_eig >= -1e-10
            # measuring A never changes the B marginal purity
            for p in rep.purity_B_given_theta:
                assert abs(p - rep.purity_B) <= 1e-12

    def test_json_fields(self):
        rep = relation_report(BELL, construct_mubs(2, 3))
        obj = rep.to_json()
        assert obj["d"] == 2 and obj["D"] == 2 and obj["M"] == 3
        assert len(obj["purity_thetaB"]) == 3
        assert obj["equality_expected"] is True
