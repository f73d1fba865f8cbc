"""Mutually unbiased bases (MUBs) for prime dimensions, plus file-based sets.

A set of orthonormal bases of a d-dimensional space is mutually unbiased
when every cross-basis overlap satisfies ``|<i|j>|^2 = 1/d``. For prime d a
complete set of d+1 such bases is generated here; for other dimensions a
set can be loaded from JSON. Every :class:`MubSet` is validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import _as_int, _first_worst, _float_reprs, _from_pairs, _read_json, _to_pairs
from .tolerances import TOL_STRUCTURAL

# Basis order produced by construct_mubs(2, 3); basis labels are 1-based.
PAULI_AXIS_LABELS = ("z", "x", "y")


class MubValidationError(ValueError):
    """Raised when a basis set fails orthonormality or unbiasedness, or cannot be constructed or read."""

    def __init__(self, message: str, report: "MubValidationReport | None" = None):
        super().__init__(message)
        self.report = report


def _check_sizes(d: int, m: int) -> None:
    """The one rule for a basis set's (d, M): ValueError unless d >= 2, then unless 2 <= M <= d+1."""
    _as_int("d", d, 2)
    if not 2 <= m <= d + 1:
        raise ValueError(f"need 2 <= M <= d+1, got M={m}, d={d}")


@dataclass(frozen=True, eq=False)
class MubSet:
    """M orthonormal bases of a d-dimensional space.

    ``bases[t, i]`` is the i-th vector of basis t+1 (labels are 1-based,
    and basis 1 is the computational basis for constructed sets). This is
    the one place a set is accepted: past the shape checks (``ValueError``),
    bases that are not orthonormal and mutually unbiased within
    ``TOL_STRUCTURAL`` raise :class:`MubValidationError` with the failed
    report. Every consumer trusts the type and checks the set no further;
    ``report`` is the passing report the set was accepted on. Sets compare
    and hash by identity.
    """

    bases: np.ndarray
    report: MubValidationReport = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.bases, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"bases must have shape (M, d, d), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("basis amplitudes must be finite")
        _check_sizes(d=a.shape[1], m=a.shape[0])
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "bases", a)
        report = validate_mubs(self)
        if not report.passed:
            raise MubValidationError(
                f"not a set of mutually unbiased bases: orthonormality deviation "
                f"{report.max_orthonormality_deviation:.3e}, unbiasedness deviation "
                f"{report.max_unbiasedness_deviation:.3e}, tolerance {TOL_STRUCTURAL:g}", report)
        object.__setattr__(self, "report", report)

    @property
    def d(self) -> int:
        return self.bases.shape[1]

    @property
    def M(self) -> int:
        return self.bases.shape[0]


@dataclass(frozen=True)
class MubValidationReport:
    d: int
    M: int
    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float
    worst_orthonormality: tuple[int, int, int]  # basis label, vector i, vector j
    worst_unbiasedness: tuple[int, int, int, int]  # labels theta, tau, vector i, vector j

    @property
    def passed(self) -> bool:
        return (
            self.max_orthonormality_deviation <= TOL_STRUCTURAL
            and self.max_unbiasedness_deviation <= TOL_STRUCTURAL
        )

    def summary(self) -> str:
        t, i, j = self.worst_orthonormality
        th, ta, wi, wj = self.worst_unbiasedness
        return (
            f"orthonormality: max deviation {self.max_orthonormality_deviation:.3e} "
            f"(basis {t}, vectors {i},{j})\n"
            f"unbiasedness:   max deviation {self.max_unbiasedness_deviation:.3e} "
            f"(bases {th},{ta}, vectors {wi},{wj})\n"
            f"result: {'PASS' if self.passed else 'FAIL'} at tolerance {TOL_STRUCTURAL:g}"
        )


def validate_mubs(mubs: MubSet) -> MubValidationReport:
    """Check orthonormality of each basis and pairwise unbiasedness, naming the first worst entry of each.

    Only the checked overlaps <t_i|u_j> are formed: the M Gram blocks (t = u) and
    the M(M-1)/2 cross-basis blocks (t < u). First means lowest labels, then indices.
    """
    d, m = mubs.d, mubs.M
    b = mubs.bases
    worst_on, (t, i, j) = _first_worst(np.abs(b.conj() @ b.transpose(0, 2, 1) - np.eye(d)))
    rows, cols = np.triu_indices(m, 1)
    pairs = b.conj()[rows] @ b[cols].transpose(0, 2, 1)
    worst_ub, (k, wi, wj) = _first_worst(np.abs(np.abs(pairs) ** 2 - 1.0 / d))
    return MubValidationReport(
        d, m, worst_on, worst_ub, (t + 1, i, j), (int(rows[k]) + 1, int(cols[k]) + 1, wi, wj)
    )


def _is_prime(n: int) -> bool:
    """Whether n >= 2 is a strong probable prime to the bases 2..37 (Miller-Rabin): exactly when it is prime below 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = q * 2**s with q odd
    q = (n - 1) >> s
    return all(pow(a, q, n) == 1 or any(pow(a, q << r, n) == n - 1 for r in range(s)) for a in bases)


def construct_mubs(d: int, M: int) -> MubSet:
    """Deterministic MUB construction for prime d; the one rule for which (d, M) can be built.

    d and M follow the integer rule (3.0 reads as 3); d < 2 or M outside
    2..d+1 raises ``ValueError``, a non-prime d :class:`MubValidationError`.
    Basis 1 is the computational basis. For odd prime d the remaining bases
    have components ``omega**(a*s*s + j*s) / sqrt(d)``, with
    ``omega = exp(2*pi*i/d)`` and a = 0..d-1, read from the d amplitudes
    ``omega**k / sqrt(d)``; for d = 2 the quadratic form degenerates, so
    the x and y eigenbases are used instead. ``construct_mubs(d, M)`` is a
    prefix of ``construct_mubs(d, M')`` for M < M'. The first amplitude of
    every vector is real and positive (1, or 1/sqrt(d)): no phase needs fixing.
    """
    d, M = _as_int("d", d), _as_int("M", M)
    if d >= 2 and not _is_prime(d):  # a d below 2 gets the size rule's first message
        raise MubValidationError(f"d={d} is not prime; basis sets are constructed for prime d only")
    _check_sizes(d, M)
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        rest = np.array([[[s, s], [s, -s]], [[s, 1j * s], [s, -1j * s]]], dtype=complex)[: M - 1]
    else:
        # rest[a, j, s] = amplitude k = (a*s*s + j*s) mod d, for the M - 1 bases returned
        a, j, s = np.ogrid[: M - 1, :d, :d]
        rest = (np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d))[(a * s * s + j * s) % d]
    return MubSet(np.concatenate([np.eye(d, dtype=complex)[None], rest]))


# MUB JSON schema:
# {"d": n, "M": m, "bases": [[[ [re, im], ... d amplitudes ] x d vectors] x M]}

# The text between numbers is one of five fixed strings: json.dumps(indent=2)
# writes the numbers at depth 5, and after a number 0 to 4 arrays close (its
# pair, vector, basis and the list of bases) before the next one opens.
_SEPARATORS = (
    ",\n          ",
    "\n        ],\n        [\n          ",
    "\n        ]\n      ],\n      [\n        [\n          ",
    "\n        ]\n      ]\n    ],\n    [\n      [\n        [\n          ",
    "\n        ]\n      ]\n    ]\n  ]\n}\n",
)


def save_mubs(mubs: MubSet, path) -> None:
    """Write the set in the schema above.

    The text is exactly ``json.dumps(obj, indent=2) + "\\n"`` of the schema
    object. Every float is written as its ``repr``, as json writes finite
    floats, but ``repr`` runs once per distinct bit pattern (of which a
    constructed set has at most 2d + 2 by construction; -0.0 and 0.0 stay
    apart), and the text is one join of the numbers and the separators.
    """
    d, m = mubs.d, mubs.M
    texts = _float_reprs(_to_pairs(mubs.bases)).ravel()
    # how many arrays close after each number: every 2nd, 2d-th, 2d*d-th and the last
    closing = np.zeros(texts.size, dtype=np.intp)
    for size in (2, 2 * d, 2 * d * d, texts.size):
        closing[size - 1 :: size] += 1
    parts = np.empty(2 * texts.size, dtype=object)
    parts[0::2] = texts
    parts[1::2] = np.array(_SEPARATORS, dtype=object)[closing]
    head = f'{{\n  "d": {d},\n  "M": {m},\n  "bases": [\n    [\n      [\n        [\n          '
    Path(path).write_text(head + "".join(parts.tolist()))


def load_mubs(path) -> MubSet:
    """Load a basis set; a file that cannot be read or holds no valid set raises MubValidationError."""
    obj = _read_json(path, "basis set", MubValidationError)
    try:
        d, m = _as_int("d", obj["d"]), _as_int("M", obj["M"])
        arr = _from_pairs(obj["bases"], (m, d, d))
    except (KeyError, TypeError, ValueError) as exc:
        raise MubValidationError(f"malformed basis file {path}: {exc}") from exc
    try:
        return MubSet(arr)
    except ValueError as exc:
        report = getattr(exc, "report", None)
        raise MubValidationError(f"invalid basis set in {path}: {exc}", report) from exc
