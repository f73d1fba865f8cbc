import itertools
import json
import re

import numpy as np
import pytest

from mubpurity.mub import (
    MubSet,
    MubValidationError,
    MubValidationReport,
    _is_prime,
    construct_mubs,
    load_mubs,
    save_mubs,
    validate_mubs,
)
from test_relations import _equivalent_set


def test_is_prime():
    # construct_mubs owns the primality rule: it builds every prime d and refuses every other
    for d in range(2, 14):
        if d in (2, 3, 5, 7, 11, 13):
            assert construct_mubs(d, 2).d == d
        else:
            with pytest.raises(MubValidationError, match=f"d={d} is not prime"):
                construct_mubs(d, 2)


def test_primality_matches_trial_division():
    # Miller-Rabin to the bases 2..37 against trial division by every smaller prime up to the square root
    primes = []
    for n in range(2, 200_000):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    assert [n for n in range(2, 200_000) if _is_prime(n)] == primes
    assert _is_prime(10**18 + 3) and _is_prime(2**61 - 1)


# strong pseudoprimes: 3215031751 passes the bases 2..7, 3825123056546413051 every prime base up to 31
@pytest.mark.parametrize("d", [3215031751, 3825123056546413051])
def test_construct_rejects_strong_pseudoprimes(d):
    with pytest.raises(MubValidationError, match=f"^d={d} is not prime; basis sets are constructed for prime d only$"):
        construct_mubs(d, 2)


def test_d2_pauli_triple():
    mubs = construct_mubs(2, 3)
    s = 1 / np.sqrt(2)
    assert np.allclose(mubs.bases[0], np.eye(2))
    assert np.allclose(mubs.bases[1], [[s, s], [s, -s]])
    assert np.allclose(mubs.bases[2], [[s, 1j * s], [s, -1j * s]])
    # |<0|+>|^2 = 1/2
    overlap = abs(mubs.bases[0, 0].conj() @ mubs.bases[1, 0]) ** 2
    assert abs(overlap - 0.5) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_complete_sets_validate(d):
    report = validate_mubs(construct_mubs(d, d + 1))
    assert report.passed
    assert report.max_orthonormality_deviation <= 1e-12
    assert report.max_unbiasedness_deviation <= 1e-12


def test_set_keeps_the_report_it_was_accepted_on():
    mubs = construct_mubs(5, 4)
    assert mubs.report == validate_mubs(mubs) and mubs.report.passed
    assert "report" not in repr(mubs)


@pytest.mark.parametrize("d", [3, 5])
def test_prefix_property(d):
    full = construct_mubs(d, d + 1)
    for m in range(2, d + 1):
        sub = construct_mubs(d, m)
        assert np.array_equal(sub.bases, full.bases[:m])


def test_first_basis_is_computational():
    for d in (2, 3, 5):
        assert np.array_equal(construct_mubs(d, 2).bases[0], np.eye(d))


def _construct_by_loop(d, m):
    """Reference bases, one row and one vector at a time."""
    bases = [np.eye(d, dtype=complex)]
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bases.append(np.array([[s, s], [s, -s]], dtype=complex))
        bases.append(np.array([[s, 1j * s], [s, -1j * s]], dtype=complex))
    else:
        s = np.arange(d)
        for a in range(d):
            rows = [np.exp(2j * np.pi * ((a * s * s + j * s) % d) / d) / np.sqrt(d) for j in range(d)]
            bases.append(np.array(rows))
    fixed = []
    for basis in bases[:m]:
        out = basis.copy()
        for i, v in enumerate(out):
            nz = np.flatnonzero(np.abs(v) > 1e-9)
            if nz.size:
                out[i] = v * (np.abs(v[nz[0]]) / v[nz[0]])
        fixed.append(out)
    return np.stack(fixed)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_construction_matches_row_loop(d):
    for m in range(2, d + 2):
        # bytes, not ==: the signs of zero parts reach the JSON files
        assert construct_mubs(d, m).bases.tobytes() == _construct_by_loop(d, m).tobytes()
    # every vector's first nonzero amplitude is real and positive
    for v in construct_mubs(d, d + 1).bases.reshape(-1, d):
        lead = v[np.flatnonzero(np.abs(v) > 1e-9)[0]]
        assert lead.imag == 0 and lead.real > 0


def _validate_by_loop(bases):
    """Reference report of an (M, d, d) array of bases, one basis and one pair at a time.

    The first maximum within a basis or pair is kept; across them only a
    later maximum greater than the worst so far replaces it.
    """
    m, d = bases.shape[:2]
    worst_on, worst_on_at, worst_ub, worst_ub_at = 0.0, (1, 0, 0), 0.0, (1, 2, 0, 0)
    for t in range(m):
        dev = np.abs(bases[t].conj() @ bases[t].T - np.eye(d))
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        if dev[i, j] > worst_on:
            worst_on, worst_on_at = float(dev[i, j]), (t + 1, int(i), int(j))
        for u in range(t + 1, m):
            dev = np.abs(np.abs(bases[t].conj() @ bases[u].T) ** 2 - 1.0 / d)
            i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            if dev[i, j] > worst_ub:
                worst_ub, worst_ub_at = float(dev[i, j]), (t + 1, u + 1, int(i), int(j))
    return MubValidationReport(d, m, worst_on, worst_ub, worst_on_at, worst_ub_at)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_validation_matches_pair_loop(d):
    rng = np.random.default_rng(d)
    # every M up to d = 13; past it, where OpenBLAS may switch GEMM kernels, five M keep the test fast
    for m in range(2, d + 2) if d <= 13 else (2, 3, (d + 1) // 2, d, d + 1):
        mubs = construct_mubs(d, m)
        assert validate_mubs(mubs) == _validate_by_loop(mubs.bases)
        # a stretched vector, a repeated basis, a perturbed set: MubSet
        # refuses each, with the report of the reference loop
        stretched = mubs.bases.copy()
        stretched[rng.integers(m), rng.integers(d)] *= 1.25
        repeated = mubs.bases.copy()
        repeated[-1] = repeated[0]
        noise = rng.standard_normal(mubs.bases.shape) + 1j * rng.standard_normal(mubs.bases.shape)
        for bases in (stretched, repeated, mubs.bases + 1e-3 * noise):
            with pytest.raises(MubValidationError) as exc:
                MubSet(bases)
            assert exc.value.report == _validate_by_loop(bases)
    # exact ties in every block: identical bases
    same = np.stack([np.eye(d, dtype=complex)] * 3)
    with pytest.raises(MubValidationError) as exc:
        MubSet(same)
    assert exc.value.report == _validate_by_loop(same)


def test_duplicated_basis_fails():
    with pytest.raises(MubValidationError) as exc:
        MubSet(np.stack([np.eye(3, dtype=complex)] * 2))
    report = exc.value.report
    assert not report.passed
    # identical bases are maximally biased: deviation 1 - 1/d
    assert abs(report.max_unbiasedness_deviation - (1 - 1 / 3)) <= 1e-12
    # one line carrying both worst deviations and the tolerance
    assert str(exc.value) == (
        "not a set of mutually unbiased bases: orthonormality deviation 0.000e+00, "
        "unbiasedness deviation 6.667e-01, tolerance 1e-12"
    )


def _unchecked_set(bases):
    # save_mubs takes a MubSet, and MubSet refuses these arrays; a file of
    # one is written through an instance made without __post_init__
    mubs = object.__new__(MubSet)
    object.__setattr__(mubs, "bases", np.asarray(bases, dtype=complex))
    return mubs


def test_construct_rejects_non_prime():
    with pytest.raises(MubValidationError, match=r"^d=6 is not prime; basis sets are constructed for prime d only$"):
        construct_mubs(6, 3)


@pytest.mark.parametrize("d", [1, 0, -3])
def test_construct_rejects_d_below_two(d):
    # a usage error, not a failed validation
    with pytest.raises(ValueError, match=rf"^need d >= 2, got {d}$") as exc:
        construct_mubs(d, 2)
    assert not isinstance(exc.value, MubValidationError)


def test_construct_rejects_bad_m():
    with pytest.raises(ValueError):
        construct_mubs(3, 5)
    with pytest.raises(ValueError):
        construct_mubs(3, 1)


def test_round_trip(tmp_path):
    path = tmp_path / "mubs.json"
    for d, m in [(2, 3), (3, 4), (5, 4)]:
        mubs = construct_mubs(d, m)
        save_mubs(mubs, path)
        back = load_mubs(path)
        assert np.abs(back.bases - mubs.bases).max() <= 1e-15


def _json_reference(mubs):
    # the schema object through json's own indenting encoder
    obj = {
        "d": mubs.d,
        "M": mubs.M,
        "bases": [
            [[[float(z.real), float(z.imag)] for z in vec] for vec in basis]
            for basis in mubs.bases
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def _saved_sets(d):
    # constructed sets repeat a few amplitudes many times; a rotated complete
    # set repeats none, so the writer formats every number of it
    sets = [construct_mubs(d, 2), construct_mubs(d, d + 1)]
    if d <= 7:
        rotated = _equivalent_set(d, d + 1, d)
        bits = rotated.bases.view(float)
        assert np.unique(bits.view(np.uint64)).size == bits.size
        sets.append(rotated)
    return sets


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_saved_text_is_json_dumps(tmp_path, d):
    path, again = tmp_path / "mubs.json", tmp_path / "again.json"
    for mubs in _saved_sets(d):
        save_mubs(mubs, path)
        assert path.read_bytes() == _json_reference(mubs).encode()
        save_mubs(load_mubs(path), again)
        assert again.read_bytes() == path.read_bytes()


def test_saved_text_keeps_float_reprs(tmp_path):
    # signed zero, the smallest subnormal, exponent forms and a sum that
    # needs 17 significant digits
    arr = np.array(
        [
            [[complex(-0.0, 5e-324), complex(1e-07, 1e16)], [complex(0.1 + 0.2, -0.0), 1.0]],
            [[complex(-1e16, 0.0), complex(2.5, -5e-324)], [complex(0.0, 1e-07), -(0.1 + 0.2)]],
        ]
    )
    mubs = _unchecked_set(arr)
    path = tmp_path / "odd.json"
    save_mubs(mubs, path)
    text = path.read_text()
    assert text == _json_reference(mubs)
    for token in ("-0.0", "5e-324", "1e-07", "1e+16", "0.30000000000000004"):
        assert f" {token}," in text or f" {token}\n" in text


def test_load_rejects_unnormalized_vector(tmp_path):
    mubs = construct_mubs(2, 3)
    path = tmp_path / "bad.json"
    arr = mubs.bases.copy()
    arr[1, 0] *= 1.5
    save_mubs(_unchecked_set(arr), path)
    with pytest.raises(MubValidationError) as exc:
        load_mubs(path)
    # report names the offending basis and vector, the message the file
    assert exc.value.report is not None
    assert exc.value.report.worst_orthonormality[:2] == (2, 0)
    assert str(exc.value).startswith(f"invalid basis set in {path}: ")
    assert "\n" not in str(exc.value)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(MubValidationError):
        load_mubs(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(MubValidationError, match=rf"^cannot read basis set from {path}: 'utf-8' codec"):
        load_mubs(path)


def test_load_d4_tensor_product_triple(tmp_path):
    # Z(x)Z, X(x)X, Y(x)Y eigenbases: overlaps are products of qubit
    # overlaps, each 1/2, so the pair is unbiased at 1/4
    s = 1 / np.sqrt(2)
    z = np.eye(2, dtype=complex)
    x = np.array([[s, s], [s, -s]], dtype=complex)
    y = np.array([[s, 1j * s], [s, -1j * s]], dtype=complex)
    bases = []
    for q in (z, x, y):
        bases.append(np.stack([np.kron(q[i], q[j]) for i in range(2) for j in range(2)]))
    mubs = MubSet(np.stack(bases))
    report = validate_mubs(mubs)
    assert report.passed
    path = tmp_path / "d4.json"
    save_mubs(mubs, path)
    back = load_mubs(path)
    assert back.d == 4 and back.M == 3


def test_labels_and_vector_access():
    # vector i of the basis labeled theta (1-based) is the row bases[theta - 1, i];
    # label 3 of d = 3 has components omega**(s*s + i*s) / sqrt(3)
    mubs = construct_mubs(3, 4)
    s = np.arange(3)
    expected = np.exp(2j * np.pi / 3 * ((s * s + s) % 3)) / np.sqrt(3)
    assert np.abs(mubs.bases[2, 1] - expected).max() <= 1e-12


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 4)], ids=["non-square", "two-axes"])
def test_structural_rejects_non_square_stacks(shape):
    with pytest.raises(ValueError, match=re.escape(f"bases must have shape (M, d, d), got {shape}")):
        MubSet(np.ones(shape))


def test_structural_rejects_bad_m():
    with pytest.raises(ValueError):
        MubSet(np.eye(2, dtype=complex)[None])  # M=1


# One basis vector in one dimension, twice: every check passes vacuously.
D_ONE_FILE = {"d": 1, "M": 2, "bases": [[[[1, 0]]], [[[1, 0]]]]}


def test_structural_rejects_d_below_two():
    with pytest.raises(ValueError, match="d >= 2"):
        MubSet(np.ones((2, 1, 1), dtype=complex))


def test_load_rejects_d_one(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(D_ONE_FILE))
    with pytest.raises(MubValidationError, match="d >= 2"):
        load_mubs(path)
