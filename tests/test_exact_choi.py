"""An exact certificate for the constructed sets at small d: the Choi matrix J in Z[zeta_N], with no rounding.

Every amplitude of ``construct_mubs(d, M)`` is 0 or 1 in basis 1 and
zeta^e / sqrt(d) in the other bases, with zeta = exp(2 pi i / N): N = d for
odd d (vector i of basis a + 2 has components omega^(a s^2 + i s)), and
N = 4 at d = 2 (the x and y eigenbases, amplitudes +-1/sqrt(2) and
+-i/sqrt(2)). Gamma's map

    Phi(X) = I (x) Tr_A X + (M-1)/d X - sum_t sum_i (P_ti (x) I) X (P_ti (x) I),

with P_ti the projector on vector i of basis t, gives J = Phi(sum_ab |aa><bb|)
= d gamma(|Omega><Omega|). Each pinch term multiplies four amplitudes, so no
sqrt(d) is left in d^2 J: it is held as an int64 (d^2, d^2, N) array of the
coefficients of 1, zeta, ..., zeta^(N-1), and multiplied by cyclic
convolution on the last axis. A number is zero in Q(zeta_N) exactly when,
for N prime, all its coefficients are equal (1 + zeta + ... + zeta^(N-1) = 0
is the only relation), and for N = 4 when c0 = c2 and c1 = c3 (zeta^2 = -1).

A Hermitian J with J^2 = J has its spectrum in {0, 1}. So the exact
tr J = (d-1)(d+1-M) proves J >= 0 for M <= d, hence gamma(rho) >= 0 for
every state and every D by Choi's theorem, and J = 0 at M = d + 1, where
the relation holds with equality. The library's floating-point J is then
compared with the exact one. J also equals, exactly, the projector
P = I - sum_v |v><v| onto the complement of the constructed states: phi
and the twists k = 1..d-1 of every basis t,
v_{t,k} = d^(-1/2) sum_i omega^(k i) |i_t>|i_t*>, omega = exp(2 pi i / d).
Each entry of d^(3/2) v is a sum of roots of unity, so d^3 P is held as
d^2 J is. The file shares no code with the library's kernel or with
tests/test_weyl.py. d = 11 is left out: its idempotence product alone
takes about 11 s.
"""

import numpy as np
import pytest

from mubpurity.mub import construct_mubs
from mubpurity.relations import _choi_matrix
from mubpurity.tolerances import TOL_STRUCTURAL

CASES = [(d, m) for d in (2, 3, 5, 7) for m in range(2, d + 2)]


def _exponents(d, m):
    """The (m - 1, d, d) exponents e of the amplitudes zeta^e / sqrt(d) of bases 2..m: [basis, vector, component]."""
    if d == 2:
        # x: (1, 1) and (1, -1); y: (1, i) and (1, -i); zeta = i
        return np.array([[[0, 0], [0, 2]], [[0, 1], [0, 3]]])[: m - 1]
    a, i, s = np.ogrid[: m - 1, :d, :d]
    return (a * s * s + i * s) % d


def _exact_choi(d, m):
    """d^2 J as an int64 (d^2, d^2, N) coefficient array, rows (c, a) and columns (e, b) with the A index first."""
    n = 4 if d == 2 else d
    j = np.zeros((d, d, d, d, n), dtype=np.int64)
    c, a, e, b = np.ogrid[:d, :d, :d, :d]
    j[..., 0] += d * d * ((c == e) & (a == b))  # d^2 I (x) Tr_A X, and Tr_A X = I
    j[..., 0] += d * (m - 1) * ((c == a) & (e == b))  # d^2 (M-1)/d X
    j[..., 0] -= d * d * ((c == a) & (a == e) & (e == b))  # basis 1: the projectors |i><i|
    # any other basis: entry [(c, a), (e, b)] of a pinch term is v_c v_a* v_b v_e*, times d^2 a power of zeta
    ex = _exponents(d, m)
    k = (ex[:, :, c] - ex[:, :, a] + ex[:, :, b] - ex[:, :, e]) % n
    np.subtract.at(j, (c, a, e, b, k), 1)
    return j.reshape(d * d, d * d, n)


def _exact_projector(d, m):
    """d^3 P as an int64 (d^2, d^2, N) coefficient array in the layout of :func:`_exact_choi`."""
    n = 4 if d == 2 else d
    w = n // d  # omega = zeta^w
    # u[a, c, state] = d^(3/2) v[(a, c)] = d sum_i omega^(k i) <a|i_t> <i_t|c>, phi the first state
    u = np.zeros((d, d, 1 + m * (d - 1), n), dtype=np.int64)
    i = np.arange(d)
    for k in range(d):  # basis 1: d omega^(k a) on a = c; k = 0 is phi
        np.add.at(u, (i, i, k, w * k * i % n), d)
    ex = _exponents(d, m)
    i, a, c = np.ogrid[:d, :d, :d]
    for t in range(m - 1):  # basis t + 2: sum_i omega^(k i) zeta^(e_ia - e_ic), as its amplitudes are zeta^e / sqrt(d)
        for k in range(1, d):
            np.add.at(u, (a, c, d + t * (d - 1) + k - 1, (w * k * i + ex[t, i, a] - ex[t, i, c]) % n), 1)
    u = u.reshape(d * d, -1, n)
    p = -_product(u, _conj(u).swapaxes(0, 1))
    p[np.arange(d * d), np.arange(d * d), 0] += d**3
    return p


def _product(x, y):
    """The matrix product of two coefficient arrays (p, q, N) and (q, r, N) in Z[zeta_N]."""
    n = x.shape[-1]
    return sum(np.roll(np.tensordot(x[..., u], y, axes=1), u, axis=-1) for u in range(n))


def _conj(x):
    """The complex conjugate of each number: zeta^k -> zeta^(-k)."""
    return x[..., -np.arange(x.shape[-1]) % x.shape[-1]]


def _is_zero(x):
    """Whether each number of a coefficient array (..., N) is zero in Q(zeta_N), N prime or 4."""
    if x.shape[-1] == 4:
        return (x[..., 0] == x[..., 2]) & (x[..., 1] == x[..., 3])
    return (x == x[..., :1]).all(axis=-1)


@pytest.mark.parametrize("d,m", CASES)
def test_choi_matrix_is_exactly_a_projector_of_the_stated_trace(d, m):
    j = _exact_choi(d, m)
    assert _is_zero(j - _conj(j).swapaxes(0, 1)).all()
    # (d^2 J)^2 = d^2 (d^2 J)
    assert _is_zero(_product(j, j) - d * d * j).all()
    trace = np.trace(j)
    trace[0] -= d * d * (d - 1) * (d + 1 - m)
    assert _is_zero(trace)
    if m == d + 1:
        assert _is_zero(j).all()


@pytest.mark.parametrize("d,m", CASES)
def test_choi_matrix_is_exactly_the_complement_projector(d, m):
    # d (d^2 J) - d^3 P
    assert _is_zero(d * _exact_choi(d, m) - _exact_projector(d, m)).all()


@pytest.mark.parametrize("d,m", CASES)
def test_library_choi_matrix_matches_the_exact_one(d, m):
    j = _exact_choi(d, m)
    zeta = np.exp(2j * np.pi * np.arange(j.shape[-1]) / j.shape[-1])
    assert np.abs(_choi_matrix(construct_mubs(d, m)) - j @ zeta / d**2).max() <= TOL_STRUCTURAL
