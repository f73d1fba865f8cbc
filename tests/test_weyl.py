"""An analytic oracle for the constructed sets: the Weyl lines that each basis diagonalizes.

With X|j> = |j+1>, Z|j> = omega^j |j> and W_{x,z} = X^x Z^z, basis 1 of
``construct_mubs(d, M)`` is the common eigenbasis of the W on the line
x = 0, and basis a + 2 (components omega^(a s^2 + j s)) that of the W on
the line z = 2ax mod d; at d = 2 the z, x and y bases own the points
(0, 1), (1, 0) and (1, 1). The pinch in a basis keeps exactly the W on its
line, so two facts follow that share no code with the library's kernel:

* the Choi matrix J is diagonal in the Bell basis
  |Phi_{x,z}> = (W_{x,z} (x) I)|Omega>, with 1 on the (d-1)(d+1-M)
  nonzero points of the unchosen lines and 0 elsewhere;
* with n_{x,z} = ||Tr_A[(W_{x,z}^dagger (x) I) rho]||_F^2, the relation gap is
  [(d-1)(d+1-M) n_0 - (d+1-M) sum_chosen n + (M-1) sum_unchosen n] / d^2,
  each sum over the nonzero points of its lines.

The kron references of tests/test_relations.py stay beside this oracle.
"""

import numpy as np
import pytest

from mubpurity.mub import construct_mubs
from mubpurity.relations import _choi_matrix, relation_report
from mubpurity.states import random_density
from mubpurity.tolerances import TOL_STRUCTURAL

PRIMES = (2, 3, 5, 7, 11, 13)


def _weyl(d):
    """The (d, d, d, d) stack W[x, z] = X^x Z^z."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    powers = [np.linalg.matrix_power(x, k) for k in range(d)], [np.linalg.matrix_power(z, k) for k in range(d)]
    return np.array([[px @ pz for pz in powers[1]] for px in powers[0]])


def _lines(d):
    """The nonzero points of the line each basis owns, in basis order."""
    if d == 2:
        return [[(0, 1)], [(1, 0)], [(1, 1)]]
    return [[(0, z) for z in range(1, d)]] + [[(x, 2 * a * x % d) for x in range(1, d)] for a in range(d)]


@pytest.mark.parametrize("d", PRIMES)
def test_choi_matrix_is_the_unchosen_lines_in_the_bell_basis(d):
    omega = np.eye(d).reshape(d * d) / np.sqrt(d)
    bell = np.stack([np.kron(w, np.eye(d)) @ omega for w in _weyl(d).reshape(d * d, d, d)], axis=1)
    for m in range(2, d + 2):
        rotated = bell.conj().T @ _choi_matrix(construct_mubs(d, m)) @ bell
        expected = np.zeros((d, d))
        for line in _lines(d)[m:]:
            for point in line:
                expected[point] = 1.0
        assert expected.sum() == (d - 1) * (d + 1 - m)
        assert np.abs(rotated - np.diag(expected.ravel())).max() <= TOL_STRUCTURAL


@pytest.mark.parametrize("d", PRIMES)
def test_gap_has_the_closed_form_of_the_lines(d):
    weyl = _weyl(d)
    for m in range(2, d + 2):
        mubs = construct_mubs(d, m)
        for big_d in (1, 2, 3):
            rho = random_density(d * big_d, 2, 100 * d + 10 * m + big_d, dims=(d, big_d))
            r = rho.matrix.reshape(d, big_d, d, big_d)
            # Tr_A[(W^dagger (x) I) rho][b, e] = sum_{k, a} conj(W[k, a]) rho[k, b, a, e]
            n = np.linalg.norm(np.einsum("xzka,kbae->xzbe", weyl.conj(), r), axis=(2, 3)) ** 2
            chosen, unchosen = (sum(n[p] for line in lines for p in line) for lines in (_lines(d)[:m], _lines(d)[m:]))
            gap = ((d - 1) * (d + 1 - m) * n[0, 0] - (d + 1 - m) * chosen + (m - 1) * unchosen) / d**2
            assert abs(relation_report(rho, mubs).gap - gap) <= TOL_STRUCTURAL
