"""Mutually unbiased bases (MUBs) for prime dimensions, plus file-based sets.

A set of orthonormal bases of a d-dimensional space is mutually unbiased
when every cross-basis overlap satisfies ``|<i|j>|^2 = 1/d``. For prime d a
complete set of d+1 such bases is generated here; for other dimensions a
set can be loaded from JSON and is validated on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tolerances import TOL_STRUCTURAL

# Basis order produced by construct_mubs(2, 3); basis labels are 1-based.
PAULI_AXIS_LABELS = ("z", "x", "y")


class MubValidationError(ValueError):
    """Raised when a basis set fails orthonormality or unbiasedness checks."""

    def __init__(self, message: str, report: "MubValidationReport | None" = None):
        super().__init__(message)
        self.report = report


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class MubSet:
    """M orthonormal bases of a d-dimensional space.

    ``bases[t, i]`` is the i-th vector of basis t+1 (labels are 1-based,
    and basis 1 is the computational basis for constructed sets). Only
    structural checks run at construction; the unbiasedness invariant is
    checked by :func:`validate_mubs` so that defective sets can be
    inspected and reported.
    """

    bases: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.bases, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"bases must have shape (M, d, d), got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("basis amplitudes must be finite")
        m, d = a.shape[0], a.shape[1]
        if d < 2:
            raise ValueError(f"need d >= 2, got d={d}")
        if not 2 <= m <= d + 1:
            raise ValueError(f"need 2 <= M <= d+1, got M={m}, d={d}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "bases", a)

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
    tolerance: float = TOL_STRUCTURAL

    @property
    def passed(self) -> bool:
        return (
            self.max_orthonormality_deviation <= self.tolerance
            and self.max_unbiasedness_deviation <= self.tolerance
        )

    def summary(self) -> str:
        t, i, j = self.worst_orthonormality
        th, ta, wi, wj = self.worst_unbiasedness
        return (
            f"orthonormality: max deviation {self.max_orthonormality_deviation:.3e} "
            f"(basis {t}, vectors {i},{j})\n"
            f"unbiasedness:   max deviation {self.max_unbiasedness_deviation:.3e} "
            f"(bases {th},{ta}, vectors {wi},{wj})\n"
            f"result: {'PASS' if self.passed else 'FAIL'} at tolerance {self.tolerance:g}"
        )


def validate_mubs(mubs: MubSet) -> MubValidationReport:
    """Check orthonormality of each basis and pairwise unbiasedness."""
    d, m = mubs.d, mubs.M
    worst_on = 0.0
    worst_on_at = (1, 0, 0)
    worst_ub = 0.0
    worst_ub_at = (1, 2, 0, 0)
    for t in range(m):
        gram = mubs.bases[t].conj() @ mubs.bases[t].T
        dev = np.abs(gram - np.eye(d))
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        if dev[i, j] >= worst_on:
            worst_on, worst_on_at = float(dev[i, j]), (t + 1, int(i), int(j))
        for u in range(t + 1, m):
            overlap = np.abs(mubs.bases[t].conj() @ mubs.bases[u].T) ** 2
            dev = np.abs(overlap - 1.0 / d)
            i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            if dev[i, j] >= worst_ub:
                worst_ub, worst_ub_at = float(dev[i, j]), (t + 1, u + 1, int(i), int(j))
    return MubValidationReport(d, m, worst_on, worst_ub, worst_on_at, worst_ub_at)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each vector so its first nonzero amplitude is real positive."""
    out = vectors.copy()
    for i, v in enumerate(out):
        nz = np.flatnonzero(np.abs(v) > 1e-9)
        if nz.size:
            out[i] = v * (np.abs(v[nz[0]]) / v[nz[0]])
    return out


def construct_mubs(d: int, M: int) -> MubSet:
    """Deterministic MUB construction for prime d.

    Basis 1 is the computational basis. For odd prime d the remaining bases
    have components ``omega**(a*s*s + j*s) / sqrt(d)`` with
    ``omega = exp(2*pi*i/d)`` and a = 0..d-1; for d = 2 the quadratic form
    degenerates, so the x and y eigenbases are used instead.
    ``construct_mubs(d, M)`` is a prefix of ``construct_mubs(d, M')`` for
    M < M', and phases are normalized for byte-reproducible output.
    """
    if not is_prime(d):
        raise ValueError(f"d={d} is not prime; use load_mubs to supply a basis set")
    if not 2 <= M <= d + 1:
        raise ValueError(f"need 2 <= M <= d+1, got M={M}, d={d}")
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
    stacked = np.stack([_fix_phases(b) for b in bases[:M]])
    mubs = MubSet(stacked)
    report = validate_mubs(mubs)
    if not report.passed:
        raise MubValidationError(f"constructed set failed validation:\n{report.summary()}", report)
    return mubs


# MUB JSON schema:
# {"d": n, "M": m, "bases": [[[ [re, im], ... d amplitudes ] x d vectors] x M]}

def save_mubs(mubs: MubSet, path) -> None:
    obj = {
        "d": mubs.d,
        "M": mubs.M,
        "bases": [
            [[[float(z.real), float(z.imag)] for z in vec] for vec in basis]
            for basis in mubs.bases
        ],
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_mubs(path) -> MubSet:
    """Load and validate a basis set; raises MubValidationError on failure."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MubValidationError(f"cannot read basis set from {path}: {exc}") from exc
    try:
        d, m = int(obj["d"]), int(obj["M"])
        raw = obj["bases"]
        arr = np.array(
            [[[complex(re, im) for re, im in vec] for vec in basis] for basis in raw],
            dtype=complex,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MubValidationError(f"malformed basis file {path}: {exc}") from exc
    if arr.shape != (m, d, d):
        raise MubValidationError(
            f"basis file {path} declares (M={m}, d={d}) but has shape {arr.shape}"
        )
    try:
        mubs = MubSet(arr)
    except ValueError as exc:
        raise MubValidationError(f"invalid basis set in {path}: {exc}") from exc
    report = validate_mubs(mubs)
    if not report.passed:
        raise MubValidationError(
            f"basis set in {path} failed validation:\n{report.summary()}", report
        )
    return mubs
