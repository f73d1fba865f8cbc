"""Property tests of the relation layer, the simulator and the JSON loaders.

Relation-layer states are drawn over d in {2, 3, 5, 7}, every M in
[2, d+1], B-side dimension D in {1, 2, 3} and every rank, alone and in
stacks of mixed ranks, against the constructed set or a rotated,
reordered and rephased copy of it. Simulator panels are drawn over
(alpha, x) in [0, pi/2] x [0, 1] and depolarizing p in [0, 0.3], and read
against the forward gate-by-gate reference of tests/test_expsim.py. The
loaders read valid files for d in {2, 3, 5, 7} and mutated copies of them.
The examples are derandomized so the suite stays reproducible.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubpurity.expsim import NOISELESS, PANEL_FIELDS, NoiseModel, calibration_factors, run_protocol
from mubpurity.linalg import (
    density_from_json,
    density_to_json,
    frobenius_norm,
    hermitian_eigenvalues,
    partial_trace_matrix,
)
from mubpurity.mub import MubValidationError, construct_mubs, load_mubs, save_mubs
from mubpurity.relations import (
    build_bipartite_basis,
    gamma_direct,
    gamma_via_projector,
    post_measurement_state,
    relation_report,
)
from mubpurity.states import random_density, rho_family
from mubpurity.tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL
from test_expsim import _forward_setting
from test_relations import _equivalent_set, _report_arrays, _report_fields, _stacked_row

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SIMULATOR_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _set(draw, d, m):
    # the constructed set, or by a drawn flag an equivalent one
    if draw(st.booleans()):
        return _equivalent_set(d, m, draw(st.integers(0, 2**32 - 1)))
    return construct_mubs(d, m)


@st.composite
def cases(draw):
    d = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(2, d + 1))
    big_d = draw(st.sampled_from((1, 2, 3)))
    rank = draw(st.integers(1, d * big_d))
    seed = draw(st.integers(0, 2**32 - 1))
    basis = build_bipartite_basis(_set(draw, d, m))
    return basis, random_density(d * big_d, rank, seed, dims=(d, big_d))


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
    # pinching side A leaves rho_B unchanged
    for p in rep.purity_B_given_theta:
        assert abs(p - rep.purity_B) <= TOL_SPECTRAL


@PROPERTY_SETTINGS
@given(cases())
def test_gamma_psd_or_vanishing(case):
    basis, rho = case
    g = gamma_direct(rho, basis.mubs)
    if basis.M <= basis.d:
        assert hermitian_eigenvalues(g)[0] >= -TOL_PSD
    else:
        assert frobenius_norm(g) <= TOL_SPECTRAL


@st.composite
def stacks(draw):
    d = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(2, d + 1))
    big_d = draw(st.sampled_from((1, 2, 3)))
    points = draw(st.lists(
        st.tuples(st.integers(1, d * big_d), st.integers(0, 2**32 - 1)), min_size=1, max_size=6
    ))
    states = [random_density(d * big_d, rank, seed, dims=(d, big_d)) for rank, seed in points]
    return _set(draw, d, m), states


@PROPERTY_SETTINGS
@given(stacks())
def test_stacked_report_rows_equal_single_reports(case):
    mubs, states = case
    stack = np.stack([rho.matrix for rho in states])
    arrays = _report_arrays(stack, states[0].dims, mubs)
    for row, rho in enumerate(states):
        assert _stacked_row(arrays, row) == _report_fields(relation_report(rho, mubs))


@PROPERTY_SETTINGS
@given(cases())
def test_pinch_preserves_trace_and_marginal(case):
    basis, rho = case
    rho_b = partial_trace_matrix(rho.matrix, rho.dims)
    for theta in range(1, basis.M + 1):
        out = post_measurement_state(rho, basis.mubs, theta)
        assert abs(np.trace(out.matrix) - 1.0) <= TOL_STRUCTURAL
        marginal = partial_trace_matrix(out.matrix, out.dims)
        assert np.abs(marginal - rho_b).max() <= TOL_STRUCTURAL


alphas = st.floats(0.0, np.pi / 2)
xs = st.floats(0.0, 1.0)
noise_ps = st.floats(0.0, 0.3)


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
    less = run_protocol(alpha, x, NoiseModel(lo)).raw
    more = run_protocol(alpha, x, NoiseModel(hi)).raw
    for name in PANEL_FIELDS:
        assert more[name] <= less[name] + TOL_STRUCTURAL


@SIMULATOR_SETTINGS
@given(alphas, xs, noise_ps)
def test_rescaled_panel_recovers_noiseless(alpha, x, p):
    noiseless = run_protocol(alpha, x).raw
    rescaled = run_protocol(alpha, x, NoiseModel(p)).rescaled
    for name in PANEL_FIELDS:
        assert abs(rescaled[name] - noiseless[name]) <= 1e-10


@SIMULATOR_SETTINGS
@given(alphas, xs, noise_ps)
def test_observable_read_matches_forward_gates(alpha, x, p):
    noise = NoiseModel(p)
    raw = run_protocol(alpha, x, noise).raw
    factors = calibration_factors(noise)
    for name in PANEL_FIELDS:
        assert abs(raw[name] - _forward_setting(alpha, x, noise, name)) <= 1e-14
        if noise.p_depol > 0.0:
            forward = _forward_setting(np.pi / 2, 1.0, noise, name) / _forward_setting(np.pi / 2, 1.0, NOISELESS, name)
            assert abs(factors[name] - forward) <= 1e-14


# -- JSON loaders -------------------------------------------------------
# Each broken file is a valid one with one mutation. A loader must reject it
# with its documented error, never with another exception.

LOADER_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
LOADER_DIMS = (2, 3, 5, 7)
NON_FINITE = (math.nan, math.inf, -math.inf)
# Values that are not a usable count or amplitude pair.
JUNK = st.sampled_from((None, "x", [], {}, [1.0], [1.0, 0.0, 0.0], math.nan, math.inf, -math.inf))


def _mub_object(d, m):
    mubs = construct_mubs(d, m)
    return {
        "d": d,
        "M": m,
        "bases": [[[[z.real, z.imag] for z in vec] for vec in basis] for basis in mubs.bases],
    }


def _declared(true_value):
    """A declared count that cannot be read as ``true_value``."""
    return st.one_of(st.integers(-3, 12).filter(lambda v: v != true_value), JUNK)


@st.composite
def broken_mub_objects(draw):
    d = draw(st.sampled_from(LOADER_DIMS))
    m = draw(st.integers(2, d + 1))
    obj = _mub_object(d, m)
    bases = obj["bases"]
    t, i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    kind = draw(st.sampled_from((
        "non_finite", "bad_pair", "short_vector", "short_basis", "extra_basis",
        "declared_d", "declared_m", "missing_key", "d_one",
    )))
    if kind == "non_finite":
        bases[t][i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(NON_FINITE))
    elif kind == "bad_pair":
        bases[t][i][j] = draw(JUNK)
    elif kind == "short_vector":
        del bases[t][i][j]
    elif kind == "short_basis":
        del bases[t][i]
    elif kind == "extra_basis":
        bases.append(bases[t])
    elif kind == "declared_d":
        obj["d"] = draw(_declared(d))
    elif kind == "declared_m":
        obj["M"] = draw(_declared(m))
    elif kind == "missing_key":
        del obj[draw(st.sampled_from(("d", "M", "bases")))]
    else:  # a one-dimensional "set": structurally complete, but vacuous
        obj = {"d": 1, "M": 2, "bases": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
    return obj


@LOADER_SETTINGS
@given(obj=broken_mub_objects())
def test_load_mubs_rejects_mutated_files(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "broken_mubs.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(MubValidationError):
        load_mubs(path)


@LOADER_SETTINGS
@given(d=st.sampled_from(LOADER_DIMS), data=st.data())
def test_mub_file_round_trip_is_bit_exact(tmp_path_factory, d, data):
    mubs = construct_mubs(d, data.draw(st.integers(2, d + 1)))
    path = tmp_path_factory.getbasetemp() / "round_trip_mubs.json"
    save_mubs(mubs, path)
    assert load_mubs(path).bases.tobytes() == mubs.bases.tobytes()


@st.composite
def densities(draw):
    d = draw(st.sampled_from(LOADER_DIMS))
    big_d = draw(st.sampled_from((1, 2, 3)))
    rank = draw(st.integers(1, d * big_d))
    return random_density(d * big_d, rank, draw(st.integers(0, 2**32 - 1)), dims=(d, big_d))


@st.composite
def broken_density_objects(draw):
    rho = draw(densities())
    obj = density_to_json(rho)
    n = rho.dim
    k = draw(st.integers(0, n * n - 1))
    kind = draw(st.sampled_from((
        "non_finite", "bad_pair", "short_data", "long_data", "declared_rows",
        "declared_cols", "dims", "missing_key", "not_hermitian",
    )))
    if kind == "non_finite":
        obj["data"][k][draw(st.integers(0, 1))] = draw(st.sampled_from(NON_FINITE))
    elif kind == "bad_pair":
        obj["data"][k] = draw(JUNK)
    elif kind == "short_data":
        del obj["data"][k]
    elif kind == "long_data":
        obj["data"].append([0.0, 0.0])
    elif kind == "declared_rows":
        obj["rows"] = draw(_declared(n))
    elif kind == "declared_cols":
        obj["cols"] = draw(_declared(n))
    elif kind == "dims":
        obj["dims"] = draw(st.one_of(
            st.lists(st.integers(-1, 8), max_size=3).filter(lambda ds: math.prod(ds) != n),
            JUNK,
        ))
    elif kind == "missing_key":
        del obj[draw(st.sampled_from(("rows", "cols", "data", "dims")))]
    else:  # entry (0, 1) moves without its mirror image (n >= 2 here)
        obj["data"][1] = [obj["data"][1][0] + 0.5, obj["data"][1][1]]
    return obj


def _density_object(**fields):
    return density_to_json(random_density(4, 4, 0, dims=(2, 2))) | fields


@LOADER_SETTINGS
@given(obj=broken_density_objects())
# dims that are not a sequence, which a bare iteration would turn into a TypeError
@example(obj=_density_object(dims=None))
@example(obj=_density_object(dims=3))
def test_density_from_json_rejects_mutated_objects(obj):
    with pytest.raises(ValueError):
        density_from_json(json.loads(json.dumps(obj)))


@LOADER_SETTINGS
@given(rho=densities())
def test_density_round_trip_is_bit_exact(rho):
    back = density_from_json(json.loads(json.dumps(density_to_json(rho))))
    assert back.dims == rho.dims
    assert back.matrix.tobytes() == rho.matrix.tobytes()
