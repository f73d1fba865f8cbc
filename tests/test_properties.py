"""Property tests of the relation layer and the simulator over their input space.

Relation-layer states are drawn over d in {2, 3, 5}, every M in [2, d+1],
B-side dimension D in {1, 2, 3} and every rank. Simulator panels are drawn
over (alpha, x) in [0, pi/2] x [0, 1] and depolarizing p in [0, 0.3]. The
examples are derandomized so the suite stays reproducible.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mubpurity.expsim import PANEL_FIELDS, NoiseModel, run_protocol
from mubpurity.linalg import frobenius_norm, hermitian_eigenvalues, partial_trace_matrix
from mubpurity.mub import construct_mubs
from mubpurity.relations import (
    build_bipartite_basis,
    gamma_direct,
    gamma_via_projector,
    post_measurement_state,
    relation_report,
)
from mubpurity.states import random_density, rho_family
from mubpurity.tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SIMULATOR_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def _basis(d, m):
    return build_bipartite_basis(construct_mubs(d, m))


@st.composite
def cases(draw):
    d = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(2, d + 1))
    big_d = draw(st.sampled_from((1, 2, 3)))
    rank = draw(st.integers(1, d * big_d))
    seed = draw(st.integers(0, 2**32 - 1))
    return _basis(d, m), random_density(d * big_d, rank, seed, dims=(d, big_d))


@PROPERTY_SETTINGS
@given(cases())
def test_gamma_routes_agree(case):
    basis, rho = case
    diff = gamma_direct(rho, basis.mubs) - gamma_via_projector(rho, basis)
    assert frobenius_norm(diff) <= TOL_SPECTRAL


@PROPERTY_SETTINGS
@given(cases())
def test_relation_gap(case):
    basis, rho = case
    rep = relation_report(rho, basis.mubs)
    assert rep.gap >= -TOL_SPECTRAL
    if basis.M == basis.d + 1:
        assert abs(rep.gap) <= TOL_SPECTRAL


@PROPERTY_SETTINGS
@given(cases())
def test_gamma_psd_or_vanishing(case):
    basis, rho = case
    g = gamma_direct(rho, basis.mubs)
    if basis.M <= basis.d:
        assert hermitian_eigenvalues(g)[0] >= -TOL_PSD
    else:
        assert frobenius_norm(g) <= TOL_SPECTRAL


@PROPERTY_SETTINGS
@given(cases())
def test_pinch_preserves_trace_and_marginal(case):
    basis, rho = case
    rho_b = partial_trace_matrix(rho.matrix, rho.dims, keep=(1,))
    for theta in basis.mubs.labels:
        out = post_measurement_state(rho, basis.mubs, theta)
        assert abs(np.trace(out.matrix) - 1.0) <= TOL_STRUCTURAL
        marginal = partial_trace_matrix(out.matrix, out.dims, keep=(1,))
        assert np.abs(marginal - rho_b).max() <= TOL_STRUCTURAL


alphas = st.floats(0.0, np.pi / 2)
xs = st.floats(0.0, 1.0)
noise_ps = st.floats(0.0, 0.3)


def _noise(p):
    return NoiseModel(p, enabled=p > 0.0)


def _analytic_panel(alpha, x):
    # construct_mubs(2, 3) orders the bases z, x, y
    rep = relation_report(rho_family(alpha, x), construct_mubs(2, 3))
    z, x_, y = rep.purity_thetaB
    bz, bx, by = rep.purity_B_given_theta
    values = (rep.purity_AB, x_, y, z, rep.purity_B, bx, by, bz)
    return dict(zip(PANEL_FIELDS, values))


@SIMULATOR_SETTINGS
@given(alphas, xs)
def test_simulated_panel_matches_analytic(alpha, x):
    panel = run_protocol(alpha, x)
    expected = _analytic_panel(alpha, x)
    for name in PANEL_FIELDS:
        assert abs(panel.raw[name] - expected[name]) <= 1e-10


@SIMULATOR_SETTINGS
@given(alphas, xs, noise_ps, noise_ps)
def test_raw_panel_does_not_increase_with_noise(alpha, x, p1, p2):
    lo, hi = sorted((p1, p2))
    calibration = {name: 1.0 for name in PANEL_FIELDS}
    less = run_protocol(alpha, x, _noise(lo), calibration=calibration).raw
    more = run_protocol(alpha, x, _noise(hi), calibration=calibration).raw
    for name in PANEL_FIELDS:
        assert more[name] <= less[name] + TOL_STRUCTURAL


@SIMULATOR_SETTINGS
@given(alphas, xs, noise_ps)
def test_rescaled_panel_recovers_noiseless(alpha, x, p):
    noiseless = run_protocol(alpha, x).raw
    rescaled = run_protocol(alpha, x, _noise(p)).rescaled
    for name in PANEL_FIELDS:
        assert abs(rescaled[name] - noiseless[name]) <= 1e-10
