"""Property tests of the relation layer over the whole small input space.

States are drawn over d in {2, 3, 5}, every M in [2, d+1], B-side
dimension D in {1, 2, 3} and every rank; the examples are derandomized so
the suite stays reproducible.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mubpurity.linalg import frobenius_norm, hermitian_eigenvalues, partial_trace_matrix
from mubpurity.mub import construct_mubs
from mubpurity.relations import (
    build_bipartite_basis,
    gamma_direct,
    gamma_via_projector,
    post_measurement_state,
    relation_report,
)
from mubpurity.states import random_density
from mubpurity.tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


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
