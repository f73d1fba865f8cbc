import json

import numpy as np
import pytest

from mubpurity.mub import (
    MubSet,
    MubValidationError,
    construct_mubs,
    is_prime,
    load_mubs,
    save_mubs,
    validate_mubs,
)


def test_is_prime():
    assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]


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


@pytest.mark.parametrize("d", [3, 5])
def test_prefix_property(d):
    full = construct_mubs(d, d + 1)
    for m in range(2, d + 1):
        sub = construct_mubs(d, m)
        assert np.array_equal(sub.bases, full.bases[:m])


def test_first_basis_is_computational():
    for d in (2, 3, 5):
        assert np.array_equal(construct_mubs(d, 2).bases[0], np.eye(d))


def test_duplicated_basis_fails():
    dup = MubSet(np.stack([np.eye(3, dtype=complex)] * 2))
    report = validate_mubs(dup)
    assert not report.passed
    # identical bases are maximally biased: deviation 1 - 1/d
    assert abs(report.max_unbiasedness_deviation - (1 - 1 / 3)) <= 1e-12


def test_construct_rejects_non_prime():
    with pytest.raises(ValueError, match="load_mubs"):
        construct_mubs(6, 3)


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


def test_load_rejects_unnormalized_vector(tmp_path):
    mubs = construct_mubs(2, 3)
    path = tmp_path / "bad.json"
    arr = mubs.bases.copy()
    arr[1, 0] *= 1.5
    save_mubs(MubSet(arr), path)
    with pytest.raises(MubValidationError) as exc:
        load_mubs(path)
    # report names the offending basis and vector
    assert exc.value.report is not None
    assert exc.value.report.worst_orthonormality[:2] == (2, 0)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(MubValidationError):
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
