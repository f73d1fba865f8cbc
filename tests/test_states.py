import numpy as np
import pytest

from mubpurity.linalg import DensityMatrix, hermitian_eigenvalues
from mubpurity.mub import construct_mubs
from mubpurity.relations import relation_report
from mubpurity.states import (
    _family_states,
    _random_density_stack,
    random_density,
    rho_family,
)
from test_relations import _purity


class TestPsiAlpha:
    """|psi_alpha><psi_alpha|, read as the family state at x = 1."""

    def test_alpha_zero_is_01(self):
        p = rho_family(0.0, 1.0).matrix
        assert np.array_equal(p, np.diag([0, 1, 0, 0]))

    def test_alpha_half_pi_is_singlet(self):
        p = rho_family(np.pi / 2, 1.0).matrix
        s = 1 / np.sqrt(2)
        assert np.allclose(p, np.outer([0, s, -s, 0], [0, s, -s, 0]), atol=1e-15)

    def test_alpha_quarter_pi(self):
        p = rho_family(np.pi / 4, 1.0).matrix
        assert p.shape == (4, 4) and abs(np.trace(p) - 1.0) <= 1e-15
        assert abs(p[1, 1] - np.cos(np.pi / 8) ** 2) <= 1e-15
        assert abs(p[2, 2] - np.sin(np.pi / 8) ** 2) <= 1e-15
        assert abs(p[1, 2] + np.cos(np.pi / 8) * np.sin(np.pi / 8)) <= 1e-15
        assert abs(np.sqrt(p[1, 1].real) - 0.9238795325112867) <= 1e-12
        assert abs(np.sqrt(p[2, 2].real) - 0.3826834323650898) <= 1e-12

    def test_out_of_range(self):
        for bad in (-0.1, np.pi / 2 + 0.1):
            with pytest.raises(ValueError, match="alpha="):
                rho_family(bad, 1.0)


class TestRhoFamily:
    def test_x_zero_maximally_mixed(self):
        for alpha in (0.0, 0.9, np.pi / 2):
            rho = rho_family(alpha, 0.0)
            assert np.abs(rho.matrix - np.eye(4) / 4).max() <= 1e-15
            assert abs(_purity(rho.matrix) - 0.25) <= 1e-12

    def test_x_one_pure(self):
        for alpha in (0.0, 0.3, np.pi / 2):
            assert abs(_purity(rho_family(alpha, 1.0).matrix) - 1.0) <= 1e-12

    def test_purity_closed_form_grid(self):
        for x in np.linspace(0.0, 1.0, 21):
            expected = (x + (1 - x) / 4) ** 2 + 3 * ((1 - x) / 4) ** 2
            assert abs(_purity(rho_family(np.pi / 2, float(x)).matrix) - expected) <= 1e-12
            assert abs(expected - (1 + 3 * x * x) / 4) <= 1e-14

    def test_singlet_family_isotropy(self):
        mubs = construct_mubs(2, 3)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = relation_report(rho_family(np.pi / 2, x), mubs)
            for p in rep.purity_thetaB:
                assert abs(p - (1 + x * x) / 4) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rho_family(0.0, 1.5)
        with pytest.raises(ValueError):
            rho_family(2.0, 0.5)


    def test_state_checked_once(self, monkeypatch):
        import mubpurity.linalg as linalg

        # the builder checks the range only; DensityMatrix runs the one PSD gate
        checked = []
        real = linalg._psd_rows
        monkeypatch.setattr(linalg, "_psd_rows", lambda a: checked.append(a) or real(a))
        rho = rho_family(0.3, 0.6)
        assert len(checked) == 1 and np.array_equal(checked[0][0], rho.matrix)
        assert np.array_equal(rho.matrix, _family_states(0.3, 0.6)[0])
        # a frozen copy on int dims
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
        assert not rho.matrix.flags.writeable
        assert not np.shares_memory(rho.matrix, checked[0])


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        assert abs(_purity(random_density(4, 1, 7).matrix) - 1.0) <= 1e-12

    def test_determinism(self):
        a = random_density(4, 4, 123)
        b = random_density(4, 4, 123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_two_spectrum(self):
        w = hermitian_eigenvalues(random_density(4, 2, 5).matrix)
        assert (w > 1e-10).sum() == 2

    def test_psd_and_trace(self):
        for seed in range(10):
            rho = random_density(6, 6, seed, dims=(2, 3))
            assert hermitian_eigenvalues(rho.matrix)[0] >= -1e-12
            assert abs(np.trace(rho.matrix) - 1) <= 1e-12
            assert rho.dims == (2, 3)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            random_density(4, 0, 0)
        with pytest.raises(ValueError):
            random_density(4, 5, 0)

    def test_dims_must_multiply(self):
        with pytest.raises(ValueError):
            random_density(4, 4, 0, dims=(2, 3))


class TestRandomDensityStack:
    def test_rows_equal_random_density(self):
        ranks, seeds = [12, 1, 2, 12, 5], [3, 1 << 63, 0, 17, 9]
        stack = _random_density_stack(12, ranks, seeds)
        assert stack.shape == (5, 12, 12)
        for row, (rank, seed) in enumerate(zip(ranks, seeds)):
            assert np.array_equal(stack[row], random_density(12, rank, seed, dims=(3, 4)).matrix)

    def test_stack_checked_as_density_matrices(self):
        # the builder checks nothing; every row is a density matrix by construction
        for dim in (1, 2, 7):
            ranks = [1 + t % dim for t in range(12)]
            for row in _random_density_stack(dim, ranks, range(12)):
                DensityMatrix(row, (dim,))

    @pytest.mark.parametrize("dim,ranks,dims,message", [
        (4, [4, 0], None, "need rank >= 1, got 0"),
        (4, [5], None, "need rank <= dim, got rank=5, dim=4"),
        (0, [1], (0, 3), "need dim >= 1, got 0"),
        (4, [4], (2, 3), "matrix shape (4, 4) does not match dims (2, 3)"),
        (1, [1], (-1, -1), "need dims[0] >= 1, got -1"),
    ], ids=[  # fixed, so that a change of message does not rename a case
        "4-ranks0-None-rank=0", "4-ranks1-None-rank=5", "0-ranks2-dims2-rank=1, dim=0",
        "4-ranks3-dims3-does not match dims", "1-ranks4-dims4-invalid dims",
    ])
    def test_rank_and_dims_checked_as_random_density(self, dim, ranks, dims, message):
        # the stack builder reads only the ranks verify builds; random_density checks what comes from outside
        with pytest.raises(ValueError) as info:
            random_density(dim, ranks[-1], 0, dims=dims)
        assert str(info.value) == message


def _ginibre_reference(dim, rank, seed):
    """The draw as first written: two standard_normal calls, a + 1j*b, and a complex division by the trace."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


class TestDrawBits:
    """The in-place draw keeps the bits of the formula it replaced, so every seeded output keeps its bytes."""

    def test_complex_division_by_real_is_the_reciprocal_multiply(self):
        # the draw scales its float view by 1/t; numpy's complex / real must compute the same
        rng = np.random.default_rng(35)
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        # a drawn diagonal: positive real parts, imaginary parts of both signs and signed zeros
        m[np.diag_indices(64)] = np.abs(m.diagonal().real) + 1j * np.repeat([0.0, -0.0, 1e-17, -1e-17], 16)
        for t in (1.0, 3.0, 7.1, 0.37, 1e-300, 1e300, float(rng.uniform(0.5, 1e3))):
            scaled = m.copy()
            view = scaled.view(float)
            view *= 1.0 / t
            assert (m / t).tobytes() == scaled.tobytes(), t

    def test_rows_match_the_two_call_formula(self):
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1]
        seeds += [int(s) for s in np.random.SeedSequence(35).generate_state(330, dtype=np.uint64)]
        pick = np.random.default_rng(36)
        cases = 0
        for dim in (1, 2, 3, 4, 9, 14, 25, 49):
            for k, seed in enumerate(seeds):
                ranks = [1, min(2, dim), dim, int(pick.integers(1, dim + 1))]
                for rank, row in zip(ranks, _random_density_stack(dim, ranks, [seed] * 4)):
                    assert row.tobytes() == _ginibre_reference(dim, rank, seed).tobytes(), (dim, rank, seed)
                    cases += 1
                if k < 8:
                    rank = ranks[k % 4]
                    expected = _ginibre_reference(dim, rank, seed).tobytes()
                    assert random_density(dim, rank, seed).matrix.tobytes() == expected, (dim, rank, seed)
        assert cases >= 10_000


def _random_pure_state(dim, seed):
    """Seeded normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_random_pure_state():
    # a rank-one random_density is the projector of the same seed's Gaussian
    # vector, so it serves wherever a seeded random pure state is needed
    a = _random_pure_state(5, 9)
    assert np.array_equal(a, _random_pure_state(5, 9))
    assert abs(np.linalg.norm(a) - 1) <= 1e-12
    assert np.abs(random_density(5, 1, 9).matrix - np.outer(a, a.conj())).max() <= 1e-15


class TestFamilyStates:
    def test_rows_equal_rho_family(self):
        seeded = np.random.default_rng(16).uniform(size=(2, 12)) * [[np.pi / 2], [1.0]]
        for alphas, xs in [
            (np.linspace(0.0, np.pi / 2, 9), np.linspace(1.0, 0.0, 9)),
            (seeded[0], seeded[1]),
            (np.array([0.0, 0.0, np.pi / 2, np.pi / 2]), np.array([0.0, 1.0, 0.0, 1.0])),  # corners
        ]:
            stack = _family_states(alphas, xs)
            assert stack.shape == (len(xs), 4, 4)
            for row, (alpha, x) in enumerate(zip(alphas.tolist(), xs.tolist())):
                assert np.array_equal(stack[row], rho_family(alpha, x).matrix)
                assert np.array_equal(_family_states(alpha, x)[0], rho_family(alpha, x).matrix)

    def test_stack_checked_as_density_matrices(self):
        # the builder checks the range only; every state inside it, corners included, is a density matrix
        alphas, xs = (a.ravel() for a in np.meshgrid(np.linspace(0.0, np.pi / 2, 9), np.linspace(0.0, 1.0, 11)))
        for row in _family_states(alphas, xs):
            DensityMatrix(row, (2, 2))

    @pytest.mark.parametrize("alpha,x", [
        (-0.1, 0.5), (1.6, 0.5), (0.3, 1.2), (0.3, -0.5), (2.0, 2.0),
        (np.nan, 0.5), (0.3, np.nan), (np.nan, 3.0),
    ])
    def test_range_messages_match_rho_family(self, alpha, x):
        with pytest.raises(ValueError) as alone:
            rho_family(alpha, x)
        with pytest.raises(ValueError) as single:
            _family_states(alpha, x)
        with pytest.raises(ValueError) as stacked:
            _family_states(np.array([0.1, alpha, 0.2]), np.array([0.5, x, 0.5]))
        assert str(stacked.value) == str(single.value) == str(alone.value)
        # x is named whenever it is out of its domain
        assert str(alone.value).startswith("x=" if not 0.0 <= x <= 1.0 else "alpha=")

    def test_shape_rule(self):
        for alpha, x in [
            (np.array([0.1, 0.2]), np.array([0.5])),
            (np.zeros((2, 2)), np.zeros((2, 2))),
            (np.array([]), np.array([])),
            (0.1, np.array([0.5, 0.5])),
        ]:
            with pytest.raises(ValueError, match="equal length"):
                _family_states(alpha, x)
        # two floats give a stack of one
        assert np.array_equal(_family_states(0.3, 0.6), rho_family(0.3, 0.6).matrix[None])

    def test_first_offending_point_is_named(self):
        # alpha is bad at point 1 and x only later: point 1 is reported
        with pytest.raises(ValueError, match="alpha=2.0"):
            _family_states(np.array([0.1, 2.0, 0.2]), np.array([0.5, 0.5, 1.5]))
        # both bad at the first offending point: x is named, as rho_family does
        with pytest.raises(ValueError, match="x=1.5"):
            _family_states(np.array([0.1, 2.0, 0.2]), np.array([0.5, 1.5, -1.0]))
