import numpy as np
import pytest

from mubpurity.linalg import PureState, hermitian_eigenvalues, purity
from mubpurity.mub import construct_mubs
from mubpurity.relations import relation_report
from mubpurity.states import (
    psi_alpha,
    random_density,
    rho_family,
)


class TestPsiAlpha:
    def test_alpha_zero_is_01(self):
        v = psi_alpha(0.0).amplitudes
        assert np.array_equal(v, [0, 1, 0, 0])

    def test_alpha_half_pi_is_singlet(self):
        v = psi_alpha(np.pi / 2).amplitudes
        s = 1 / np.sqrt(2)
        assert np.allclose(v, [0, s, -s, 0], atol=1e-15)

    def test_alpha_quarter_pi(self):
        v = psi_alpha(np.pi / 4).amplitudes
        assert abs(v[1] - np.cos(np.pi / 8)) <= 1e-15
        assert abs(v[2] + np.sin(np.pi / 8)) <= 1e-15
        assert abs(abs(v[1]) - 0.9238795325112867) <= 1e-12
        assert abs(abs(v[2]) - 0.3826834323650898) <= 1e-12

    def test_out_of_range(self):
        for bad in (-0.1, np.pi / 2 + 0.1):
            with pytest.raises(ValueError):
                psi_alpha(bad)


class TestRhoFamily:
    def test_x_zero_maximally_mixed(self):
        for alpha in (0.0, 0.9, np.pi / 2):
            rho = rho_family(alpha, 0.0)
            assert np.abs(rho.matrix - np.eye(4) / 4).max() <= 1e-15
            assert abs(purity(rho) - 0.25) <= 1e-12

    def test_x_one_pure(self):
        for alpha in (0.0, 0.3, np.pi / 2):
            assert abs(purity(rho_family(alpha, 1.0)) - 1.0) <= 1e-12

    def test_purity_closed_form_grid(self):
        for x in np.linspace(0.0, 1.0, 21):
            expected = (x + (1 - x) / 4) ** 2 + 3 * ((1 - x) / 4) ** 2
            assert abs(purity(rho_family(np.pi / 2, float(x))) - expected) <= 1e-12
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


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        assert abs(purity(random_density(4, 1, 7)) - 1.0) <= 1e-12

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


def _random_pure_state(dim, seed):
    """Seeded normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def test_random_pure_state():
    # a rank-one random_density is the projector of the same seed's Gaussian
    # vector, so it serves wherever a seeded random pure state is needed
    a = _random_pure_state(5, 9)
    assert np.array_equal(a.amplitudes, _random_pure_state(5, 9).amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1) <= 1e-12
    assert np.abs(random_density(5, 1, 9).matrix - a.projector()).max() <= 1e-15
