import json
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mubpurity.linalg import (
    DensityMatrix,
    _as_stack,
    _from_pairs,
    _partial_trace,
    _is_psd,
    _purities,
    density_from_json,
    density_to_json,
    hermitian_eigenvalues,
    partial_transpose,
)
from mubpurity.mub import MubSet, construct_mubs, load_mubs, save_mubs
from mubpurity.relations import VerificationReport, verify_relations
from mubpurity.states import random_density
from mubpurity.tolerances import TOL_PSD

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _random_density_matrix(rng, n):
    g = _random_complex(rng, n)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _state_with_min_eigenvalue(k, lowest, seed):
    """U diag(w) U^dagger for a random unitary U, unit trace, smallest eigenvalue ``lowest``."""
    rng = _rng(seed)
    u = np.linalg.qr(_random_complex(rng, k))[0]
    w = rng.uniform(0.5, 1.5, k)
    w[0] = 0.0
    w *= (1.0 - lowest) / w.sum()
    w[0] = lowest
    m = (u * w) @ u.conj().T
    m = (m + m.conj().T) / 2
    eigs = np.linalg.eigvalsh(m)
    assert abs(eigs[0] - lowest) <= 1e-3 * TOL_PSD and abs(np.trace(m) - 1.0) <= 1e-14
    return m


def _tr_a(m, dims):
    """The kernel's unchecked Tr_A, of a matrix or a stack on dims = (d1, d2)."""
    m = np.asarray(m, dtype=complex)
    return _partial_trace(m.reshape(m.shape[:-2] + (dims[0], dims[1], dims[0], dims[1])))


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = DensityMatrix(BELL, (2, 2))
        out = _tr_a(rho.matrix, rho.dims)
        assert out.shape == (2, 2)
        assert np.abs(out - np.eye(2) / 2).max() <= 1e-14

    def test_product_factorization(self):
        rng = _rng(3)
        for _ in range(20):
            a = _random_density_matrix(rng, 2)
            b = _random_density_matrix(rng, 3)
            assert np.abs(_tr_a(np.kron(a, b), (2, 3)) - b).max() <= 1e-14

    def test_werner_marginal_direct_computation(self):
        # independent oracle: assemble the 4x4 family state and sum the
        # diagonal A-blocks by hand
        x = 0.5
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        m = x * np.outer(psi, psi) + (1.0 - x) / 4.0 * np.eye(4)
        expected = m[0:2, 0:2] + m[2:4, 2:4]
        assert np.abs(expected - np.eye(2) / 2).max() <= 1e-15
        out = _tr_a(m, (2, 2))
        assert np.abs(out - expected).max() <= 1e-14

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (5, 5)])
    def test_equals_block_sum(self, dims):
        # sum_a rho[(a, b), (a, b')], read off the diagonal dB x dB blocks
        d, big_d = dims
        m = _random_complex(_rng(9), d * big_d)
        expected = sum(m[a * big_d : (a + 1) * big_d, a * big_d : (a + 1) * big_d] for a in range(d))
        assert np.abs(_tr_a(m, dims) - expected).max() <= 1e-13

    def test_stack_rows_equal_single_matrices(self):
        rng = _rng(5)
        stack = np.stack([_random_density_matrix(rng, 12) for _ in range(4)])
        for dims in ((3, 4), (4, 3)):
            out = _tr_a(stack, dims)
            for row, m in enumerate(stack):
                assert np.array_equal(out[row], _tr_a(m, dims))


@pytest.mark.parametrize("dims", [(4,), (2, 2, 1), 4, None])
def test_two_factor_operators_reject_other_factor_counts(dims):
    with pytest.raises(ValueError, match=r"expected two factors, got dims"):
        partial_transpose(np.eye(4) / 4, dims, 1)


@pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2), (3, 0, 0), (2, 3), (4, 2, 3), (1, 2)])
@pytest.mark.parametrize("read", [
    hermitian_eigenvalues,
    lambda m: partial_transpose(m, (2, 1), 0),
    lambda m: DensityMatrix(m, (2,)),
], ids=["hermitian_eigenvalues", "partial_transpose", "DensityMatrix"])
def test_empty_arrays_refused(read, shape):
    # no empty or non-square matrix reaches numpy, and no empty stack passes through
    with pytest.raises(ValueError, match=rf"^expected a matrix or a stack of matrices, got shape {re.escape(str(shape))}$"):
        read(np.zeros(shape))


def test_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        _as_stack(np.array([[np.nan, 0], [0, 1]]))


class TestPartialTranspose:
    def test_involution_exact(self):
        rng = _rng(5)
        m = _random_complex(rng, 6)
        for sub in (0, 1):
            twice = partial_transpose(partial_transpose(m, (2, 3), sub), (2, 3), sub)
            assert np.array_equal(twice, m)

    def test_entrywise_index_map(self):
        # (i,j;k,l) -> (k,j;i,l) on the left factor and (i,l;k,j) on the right,
        # at unequal factors, so a swap of the other factor's indices shows
        m = _random_complex(_rng(9), 6)
        t = m.reshape(2, 3, 2, 3)
        for sub, axes in ((0, (2, 1, 0, 3)), (1, (0, 3, 2, 1))):
            assert np.array_equal(partial_transpose(m, (2, 3), sub), t.transpose(axes).reshape(6, 6))

    def test_bell_negative_eigenvalue(self):
        pt = partial_transpose(BELL, (2, 2), subsystem=1)
        # entrywise oracle: (i,j;k,l) -> (i,l;k,j) turns the |00><11| corner
        # into the swap-like middle block
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        expected[1, 2] = expected[2, 1] = 0.5
        assert np.abs(pt - expected).max() <= 1e-15
        assert abs(hermitian_eigenvalues(pt)[0] - (-0.5)) <= 1e-12

    def test_product_stays_psd(self):
        rng = _rng(6)
        for _ in range(10):
            a = _random_density_matrix(rng, 2)
            b = _random_density_matrix(rng, 3)
            pt = partial_transpose(np.kron(a, b), (2, 3), subsystem=1)
            assert hermitian_eigenvalues(pt)[0] >= -1e-12

    def test_trace_and_hermiticity_preserved(self):
        rng = _rng(7)
        m = _random_density_matrix(rng, 6)
        pt = partial_transpose(m, (2, 3), subsystem=0)
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-14
        assert np.abs(pt - pt.conj().T).max() <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(5), (2, 2), subsystem=1)

    @pytest.mark.parametrize("subsystem", [2, -1])
    def test_subsystem_out_of_range(self, subsystem):
        # -1 would otherwise swap a valid pair of axes and return a matrix
        with pytest.raises(ValueError, match="subsystem must be 0 or 1"):
            partial_transpose(np.eye(4), (2, 2), subsystem=subsystem)

    def test_stack_matches_single(self):
        rng = _rng(8)
        stack = np.array([[_random_complex(rng, 6) for _ in range(3)] for _ in range(2)])
        for sub in (0, 1):
            out = partial_transpose(stack, (2, 3), sub)
            assert out.shape == stack.shape
            for i in np.ndindex(stack.shape[:2]):
                assert np.array_equal(out[i], partial_transpose(stack[i], (2, 3), sub))
        with pytest.raises(ValueError, match="does not match"):
            partial_transpose(stack, (2, 2), 0)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(PAULI_X), [-1.0, 1.0])

    def test_two_by_two_closed_form(self):
        # quadratic-formula oracle for 100 random Hermitian 2x2 matrices
        rng = _rng(8)
        for _ in range(100):
            a, c = rng.standard_normal(2)
            b = rng.standard_normal() + 1j * rng.standard_normal()
            m = np.array([[a, b], [b.conjugate(), c]])
            mid = (a + c) / 2
            rad = np.sqrt((a - c) ** 2 / 4 + abs(b) ** 2)
            assert np.allclose(hermitian_eigenvalues(m), [mid - rad, mid + rad], atol=1e-12)

    def test_spectral_sums(self):
        rng = _rng(9)
        for n in (3, 5, 8):
            g = _random_complex(rng, n)
            m = g + g.conj().T
            w = hermitian_eigenvalues(m)
            assert abs(w.sum() - np.trace(m).real) <= 1e-9
            assert abs((w**2).sum() - np.trace(m @ m).real) <= 1e-9

    def test_eigenvector_residuals(self):
        rng = _rng(10)
        g = _random_complex(rng, 6)
        m = g + g.conj().T
        w = hermitian_eigenvalues(m)
        w_ref, v = np.linalg.eigh(m)
        assert np.allclose(w, w_ref)
        for k in range(6):
            residual = np.linalg.norm(m @ v[:, k] - w[k] * v[:, k])
            assert residual <= 1e-9 * np.linalg.norm(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_rows_equal_single_matrices(self):
        rng = _rng(15)
        g = _random_complex(rng, 5 * 6, 6).reshape(5, 6, 6)
        stack = g + g.conj().transpose(0, 2, 1)
        w = hermitian_eigenvalues(stack)
        assert w.shape == (5, 6)
        for row, m in enumerate(stack):
            assert np.array_equal(w[row], hermitian_eigenvalues(m))
        assert hermitian_eigenvalues(stack.reshape(5, 1, 6, 6)).shape == (5, 1, 6)

    def test_stack_rejects_one_non_hermitian_matrix(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(stack)
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
        with pytest.raises(ValueError, match="stack"):
            hermitian_eigenvalues(np.ones(3))


class TestPurity:
    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = DensityMatrix(np.eye(d) / d, (d,))
            assert abs(_purities(rho.matrix) - 1.0 / d) <= 1e-12

    def test_pure_projector(self):
        rng = _rng(11)
        v = _random_complex(rng, 4, 1).ravel()
        v /= np.linalg.norm(v)
        rho = DensityMatrix(np.outer(v, v.conj()), (4,))
        assert abs(_purities(rho.matrix) - 1.0) <= 1e-12

    @pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_family_closed_form(self, x):
        # eigenvalue oracle: x + (1-x)/4 once and (1-x)/4 three times
        expected = (x + (1 - x) / 4) ** 2 + 3 * ((1 - x) / 4) ** 2
        assert abs(expected - (1 + 3 * x * x) / 4) <= 1e-15
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        m = x * np.outer(psi, psi) + (1 - x) / 4 * np.eye(4)
        assert abs(_purities(DensityMatrix(m, (2, 2)).matrix) - expected) <= 1e-12

    def test_matches_squared_eigenvalues(self):
        rng = _rng(12)
        m = _random_density_matrix(rng, 6)
        w = hermitian_eigenvalues(m)
        assert abs(_purities(m) - (w**2).sum()) <= 1e-10
        assert abs(_purities(m) - np.trace(m @ m).real) <= 1e-14


def _with_entry(base, index, value):
    bad = base.copy()
    bad[index] = value
    return bad


MIXED_3 = np.eye(3, dtype=complex) / 3
NOT_HERMITIAN = "density matrix is not Hermitian within tolerance"
NEGATIVE = "density matrix has a negative eigenvalue beyond tolerance"
NOT_FINITE = "matrix entries must be finite"


class TestTypes:
    def test_density_dims_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("bad,message", [
        pytest.param(_with_entry(MIXED_3, (0, 1), 0.1), NOT_HERMITIAN, id="non-hermitian"),
        pytest.param(_with_entry(np.eye(2, dtype=complex) / 2, (0, 1), 0.1), NOT_HERMITIAN, id="non-hermitian-2x2"),
        pytest.param(MIXED_3 * 1.5, "trace (1.5+0j) is not 1 within tolerance", id="trace"),
        pytest.param(np.eye(2), "trace (2+0j) is not 1 within tolerance", id="trace-2x2"),
        pytest.param(np.diag([0.7, 0.5, -0.2]).astype(complex), NEGATIVE, id="negative"),
        pytest.param(np.diag([1.1, -0.1]), NEGATIVE, id="negative-2x2"),
        pytest.param(_with_entry(MIXED_3, (2, 2), np.nan), NOT_FINITE, id="nan"),
        pytest.param(_with_entry(np.eye(2) / 2, (0, 0), np.nan), NOT_FINITE, id="nan-2x2"),
        pytest.param(_with_entry(MIXED_3, (1, 2), np.inf), NOT_FINITE, id="inf"),
        *(pytest.param(_state_with_min_eigenvalue(k, -1.1 * TOL_PSD, 17), NEGATIVE, id=f"past-psd-slack-{k}")
          for k in (3, 49, 121)),
    ])
    def test_density_matrix_rejects_each_defect(self, bad, message):
        # the one state check: each defect fails it with its own message
        with pytest.raises(ValueError) as alone:
            DensityMatrix(bad, (len(bad),))
        assert str(alone.value) == message

    @pytest.mark.parametrize("k", [3, 49, 121])
    def test_psd_gate_sits_at_the_slack(self, k):
        # an eigenvalue 10 % inside -TOL_PSD passes the gate; 10 % beyond it
        # fails with the PSD message
        inside = _state_with_min_eigenvalue(k, -0.9 * TOL_PSD, 18)
        DensityMatrix(inside, (k,))
        assert _is_psd(inside)
        with pytest.raises(ValueError) as alone:
            DensityMatrix(_state_with_min_eigenvalue(k, -1.1 * TOL_PSD, 18), (k,))
        assert str(alone.value) == NEGATIVE

    def test_immutable(self):
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestJson:
    def test_density_round_trip(self):
        rng = _rng(14)
        rho = DensityMatrix(_random_density_matrix(rng, 6), (2, 3))
        back = density_from_json(density_to_json(rho))
        assert back.dims == (2, 3)
        assert np.array_equal(back.matrix, rho.matrix)

    def test_malformed(self):
        obj = density_to_json(DensityMatrix(np.eye(2) / 2, (2,)))
        with pytest.raises(ValueError, match=r"of shape \(4, 2\), got shape \(1, 2\)$"):
            density_from_json(obj | {"data": obj["data"][:1]})
        with pytest.raises(ValueError, match="must carry 'dims'"):
            density_from_json({key: value for key, value in obj.items() if key != "dims"})
        with pytest.raises(ValueError, match="dims must be a sequence"):
            density_from_json(obj | {"dims": None})
        # a 1x1 state on no subsystem at all
        with pytest.raises(ValueError, match=r"^invalid dims \(\)$"):
            density_from_json({"rows": 1, "cols": 1, "data": [[1.0, 0.0]], "dims": []})
        # sizes below 1 are named before the pair count is compared, even
        # when their product matches it
        four = density_to_json(DensityMatrix(np.eye(4) / 4, (4,)))
        for rows, cols, name, value in ((-4, -4, "rows", -4), (-2, -8, "rows", -2), (4, 0, "cols", 0)):
            with pytest.raises(ValueError, match=rf"^need {name} >= 1, got {value}$"):
                density_from_json(four | {"rows": rows, "cols": cols})


class TestPairReader:
    """Nested [re, im] pairs read array-first, with the bits of complex(re, im)."""

    @staticmethod
    def _by_complex(pairs):
        if isinstance(pairs[0][0], list):
            return [TestPairReader._by_complex(inner) for inner in pairs]
        return [complex(re, im) for re, im in pairs]

    @pytest.mark.parametrize("d", [5, 7, 11])
    def test_saved_sets_read_as_complex(self, tmp_path, d):
        path = tmp_path / "m.json"
        save_mubs(construct_mubs(d, d + 1), path)
        bases = json.loads(path.read_text())["bases"]
        assert _from_pairs(bases, (d + 1, d, d)).tobytes() == np.array(self._by_complex(bases)).tobytes()

    def test_signed_zeros_kept(self):
        pairs = [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1, -0.0]]
        assert _from_pairs(pairs, (4,)).tobytes() == np.array(self._by_complex(pairs)).tobytes()

    def test_integer_beyond_int64_is_a_number(self):
        # numpy alone stores 2**64 as an object, not as a number
        pairs = [[18446744073709551616, 0]]
        assert _from_pairs(pairs, (1,)).tobytes() == np.array([complex(2**64, 0)]).tobytes()

    @pytest.mark.parametrize("data,shape", [
        ([[1.0, 0.0], [1.0]], (2,)),
        ([[[1.0, 0.0]], [1.0, 0.0]], (2, 1)),
        ([[1.0, 0.0, 0.0]], (1,)),
        ([["1", "0"]], (1,)),
        ([[1.0, "x"]], (1,)),
        ([[1.0, None]], (1,)),
        # numpy reads a bool among numbers as 0 or 1
        ([[1.0, 0.0], [0, False]], (2,)),
        ([[1.0, [0.0]]], (1,)),
        ([[[1.0, 0.0]]], (1,)),
        ([[1.0, 0.0]], (1, 1)),
        ([[1.0, 0.0], [0.0, 0.0]], (3,)),
        # float(10**400) raises OverflowError
        ([[1.0, 0.0], [10**400, 0]], (2,)),
    ], ids=["ragged", "ragged-depth", "three-element", "strings", "string-entry", "null-entry", "boolean-entry",
            "list-entry", "deeper-than-declared", "shallower-than-declared", "sizes-disagree", "401-digit-integer"])
    def test_rejects_malformed_pairs(self, data, shape):
        with pytest.raises(ValueError):
            _from_pairs(data, shape)


def _density_object(**fields):
    return density_to_json(DensityMatrix(np.eye(4) / 4, (4,))) | fields


def _mub_file(tmp_path, **fields):
    path = tmp_path / "m.json"
    save_mubs(construct_mubs(3, 4), path)
    path.write_text(json.dumps(json.loads(path.read_text()) | fields))
    return path


def _content(result):
    if isinstance(result, VerificationReport):
        return result.summary()
    if isinstance(result, DensityMatrix):
        return result.matrix.tobytes(), result.dims, [type(d) for d in result.dims]
    if isinstance(result, MubSet):
        return result.bases.tobytes()
    return result.tobytes()


class Count(NamedTuple):
    name: str  # as its messages give it; a basis file's message names the file, {path}
    read: Callable
    good: int  # an integral value the entry point accepts
    low: int | None = None  # the floor, where a value below it meets no other check first


# Every entry point that reads a count from outside.
INTEGER_ENTRY_POINTS = {
    "DensityMatrix dims": Count("dims[0]", lambda v, tmp: DensityMatrix(np.eye(4) / 4, (v,)), 4, 1),
    "density JSON rows": Count("rows", lambda v, tmp: density_from_json(_density_object(rows=v)), 4, 1),
    "density JSON cols": Count("cols", lambda v, tmp: density_from_json(_density_object(cols=v)), 4, 1),
    "density JSON dims": Count("dims[0]", lambda v, tmp: density_from_json(_density_object(dims=[v])), 4, 1),
    # a d or M below the floor first fails the shape of the bases
    "MUB file d": Count("malformed basis file {path}: d", lambda v, tmp: load_mubs(_mub_file(tmp, d=v)), 3),
    "MUB file M": Count("malformed basis file {path}: M", lambda v, tmp: load_mubs(_mub_file(tmp, M=v)), 4),
    "random_density dim": Count("dim", lambda v, tmp: random_density(v, 2, 0), 4, 1),
    "random_density rank": Count("rank", lambda v, tmp: random_density(4, v, 0), 4, 1),
    "random_density seed": Count("seed", lambda v, tmp: random_density(4, 2, v), 2, 0),
    "construct_mubs d": Count("d", lambda v, tmp: construct_mubs(v, 3), 5, 2),
    # a range, not a floor
    "construct_mubs M": Count("M", lambda v, tmp: construct_mubs(5, v), 3),
    "partial_transpose subsystem": Count("subsystem", lambda v, tmp: partial_transpose(np.eye(4) / 4, (2, 2), v), 1),
    "partial_transpose dims": Count("dims", lambda v, tmp: partial_transpose(np.eye(4) / 4, (v, 2), 1), 2, 1),
    "verify_relations big_d": Count("big_d", lambda v, tmp: verify_relations(construct_mubs(2, 3), v, 2, 0), 2, 1),
    "verify_relations trials": Count("trials", lambda v, tmp: verify_relations(construct_mubs(2, 3), 2, v, 0), 3, 1),
    "verify_relations seed": Count("seed", lambda v, tmp: verify_relations(construct_mubs(2, 3), 2, 2, v), 2, 0),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), None, "x", True, 4.9, "3", 1.5])
def test_integer_rule_rejects_non_integers(tmp_path, entry, bad):
    count = INTEGER_ENTRY_POINTS[entry]
    name = count.name.format(path=tmp_path / "m.json")
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"):
        count.read(bad, tmp_path)


@pytest.mark.parametrize("entry", [entry for entry, count in INTEGER_ENTRY_POINTS.items() if count.low is not None])
def test_integer_rule_refuses_below_the_floor(tmp_path, entry):
    count = INTEGER_ENTRY_POINTS[entry]
    for below in (count.low - 1, count.low - 2):
        with pytest.raises(ValueError, match=rf"^need {re.escape(count.name)} >= {count.low}, got {below}$"):
            count.read(below, tmp_path)


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_rule_accepts_integral_floats(tmp_path, entry):
    _, read, good, _ = INTEGER_ENTRY_POINTS[entry]
    assert _content(read(float(good), tmp_path)) == _content(read(good, tmp_path))
