"""Deviation-matrix simulation of the five-qubit swap-test purity protocol.

Register layout: qubit 0 is the probe, qubits 1-4 are A, B, A', B'. The
register is the traceless deviation sigma_z^probe (x) rho (x) rho of two
copies of the depolarized family state. Each of the eight panel settings
is a fixed tuple of gate descriptors: ("RY", q, angle) and ("RX", q,
angle) rotate qubit q, ("DEPHASE", q) pinches it in the computational
basis, ("CSWAP", control, q1, q2) swaps q1 and q2 where the control is 1,
and ("DEPOL", q, p) depolarizes q with strength p. A setting may pinch A
and A' in one Pauli basis (x: rotate by -pi/2 about y, dephase, rotate
back; y: the same by +pi/2 about x; z: dephase), then rotates the probe
into coherence, applies CSWAP(probe; A, A') and CSWAP(probe; B, B') ("AB"
readout: Tr(rho rho')) or the BB' gate alone ("B": Tr(rho_B rho'_B)), and
rotates the probe back: the swap-test estimator of Ekert et al., PRL 88,
217901 (2002).

The panel is read in the Heisenberg picture. Every gate is unital and
self-adjoint up to the sign of a rotation angle, so the probe observable
is propagated backwards through each setting once per noise level, and
checked for finite entries, zero trace and hermiticity after every gate.
Tracing its probe against sigma_z leaves a 16x16 observable V_s on the two
copies, so a setting's value is Re Tr(V_s rho (x) rho) / (2 Tr(rho)^2),
read against the 4x4 rho of each (alpha, x) point. One contraction reads
the eight stacked V_s against every point, summing each (setting, point)
entry alone, so a point reads the same bits in a stack as alone; the
32x32 register is never built, and the read checks nothing: the states are
the stack that ``states._family_states`` builds and checks.

Sites for noise: a one-parameter depolarizing channel acts on the probe
immediately after each controlled-SWAP. The swapped qubits need no site:
at the A, B, A' and B' sites the pulled-back observable is the identity on
that qubit, which the channel fixes, so adding them would change no read
(``test_probe_noise_reads_the_six_site_panel`` checks this). Rescaling
divides each measured value by the attenuation observed on the reference
state alpha = pi/2, x = 1, whose ideal panel is read by the same pipeline
without noise. The noise scales V_s by exactly (1 - p)**k for a setting
with k controlled-SWAPs (2 for "AB", 1 for "B"), so rescaling is exact for
every state, and the observed attenuation must be that constant. Each
noise level's eight V_s and checked factors are built once per process
and kept as one record, up to eight levels; a level whose calibration
fails is not kept.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _hermiticity_defects
from .states import _family_states
from .tolerances import TOL_STRUCTURAL

N_QUBITS = 5
DIM = 2 ** N_QUBITS

# Panel entries in readout order: full-pair purity, pair purity after each
# axis pinch, B purity, and B purity after each axis pinch.
PANEL_FIELDS = (
    "purity_AB",
    "purity_xB",
    "purity_yB",
    "purity_zB",
    "purity_B",
    "purity_B_given_x",
    "purity_B_given_y",
    "purity_B_given_z",
)

_PROBE, _A, _B, _A2, _B2 = range(N_QUBITS)
_SZ_PROBE_DIAG = np.repeat([1.0, -1.0], DIM // 2)  # diagonal of sigma_z^probe
_QUBIT_BITS = [((np.arange(DIM) >> (N_QUBITS - 1 - q)) & 1) for q in range(N_QUBITS)]

# The (measurement axis, readout) of each panel entry, in PANEL_FIELDS order;
# axis None reads the register unpinched.
_SETTINGS = dict(
    zip(PANEL_FIELDS, [(axis, which) for which in ("AB", "B") for axis in (None, "x", "y", "z")])
)


@dataclass(frozen=True)
class NoiseModel:
    """The probe's depolarizing probability after each controlled-SWAP, stored as a Python float in [0, 1].

    -0.0 is stored as 0.0; a bool, a non-real value or one outside [0, 1] raises ``ValueError``.
    """

    p_depol: float = 0.0

    def __post_init__(self):
        if isinstance(self.p_depol, bool) or not isinstance(self.p_depol, numbers.Real):
            raise ValueError(f"p_depol must be a real number, got {self.p_depol!r}")
        p = float(self.p_depol) + 0.0  # -0.0 + 0.0 is 0.0
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_depol={p!r} outside [0, 1]")
        object.__setattr__(self, "p_depol", p)


NOISELESS = NoiseModel()


def _check_deviation(dev: np.ndarray) -> None:
    """Reject a (..., DIM, DIM) array with a non-finite entry, trace drift or lost hermiticity."""
    dev = dev.reshape(-1, DIM, DIM)
    if not np.isfinite(dev).all():
        raise RuntimeError("deviation has non-finite entries")
    trace = np.trace(dev, axis1=1, axis2=2)
    worst = int(np.abs(trace).argmax())
    if abs(trace[worst]) > TOL_STRUCTURAL:
        raise RuntimeError(f"deviation trace drifted to {trace[worst]!r}")
    if _hermiticity_defects(dev).max() > TOL_STRUCTURAL:
        raise RuntimeError("deviation lost hermiticity")


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


# Per qubit: True where bra and ket agree on that qubit (what DEPHASE keeps).
_DEPHASE_KEEP = [bits[:, None] == bits[None, :] for bits in _QUBIT_BITS]


def _depolarize(dev: np.ndarray, qubit: int, p: float) -> np.ndarray:
    """(1-p) dev + p * (I/2 on the qubit) (x) Tr_qubit(dev), over (..., DIM, DIM)."""
    shape = (2 ** qubit, 2, 2 ** (N_QUBITS - 1 - qubit))
    view = dev.reshape(dev.shape[:-2] + shape + shape)
    traced = view[..., 0, :, :, 0, :] + view[..., 1, :, :, 1, :]
    out = (1.0 - p) * view
    mixed = p * (traced * 0.5)
    out[..., 0, :, :, 0, :] += mixed
    out[..., 1, :, :, 1, :] += mixed
    return out.reshape(dev.shape)


def _apply_gate(dev: np.ndarray, gate: tuple) -> np.ndarray:
    """A trusted gate descriptor (module docstring) applied to a (..., DIM, DIM) array, as a new, checked array."""
    kind = gate[0]
    if kind in ("RY", "RX"):
        _, qubit, angle = gate
        r = (_ry if kind == "RY" else _rx)(angle)
        u = np.kron(np.kron(np.eye(2 ** qubit), r), np.eye(2 ** (N_QUBITS - 1 - qubit)))
        out = u @ dev @ u.conj().T
    elif kind == "CSWAP":
        _, control, q1, q2 = gate
        # flip q1 and q2 where control is 1 and they differ; entry (i, j) of
        # the result is entry (perm[i], perm[j])
        flip = _QUBIT_BITS[control] & (_QUBIT_BITS[q1] ^ _QUBIT_BITS[q2])
        mask = (1 << (N_QUBITS - 1 - q1)) | (1 << (N_QUBITS - 1 - q2))
        perm = np.arange(DIM) ^ (flip * mask)
        out = dev[..., perm[:, None], perm[None, :]]
    elif kind == "DEPHASE":
        out = np.where(_DEPHASE_KEEP[gate[1]], dev, 0.0)
    else:  # DEPOL
        _, qubit, p = gate
        out = _depolarize(dev, qubit, p)
    _check_deviation(out)
    return out


# Rotation taking each measurement axis to z before the dephasing (None: z).
_PRE_ROTATION = {"x": ("RY", -np.pi / 2), "y": ("RX", np.pi / 2), "z": None}


def _setting_gates(axis: str | None, which: str, p: float) -> tuple[tuple, ...]:
    """The gate descriptors of one setting (module docstring) in time order; with p > 0 a DEPOL of the probe follows each CSWAP."""
    gates = [] if axis is None else [("DEPHASE", q) for q in (_A, _A2)]
    rotation = _PRE_ROTATION.get(axis)
    if rotation is not None:
        kind, angle = rotation
        gates = [(kind, q, angle) for q in (_A, _A2)] + gates + [(kind, q, -angle) for q in (_A, _A2)]
    gates.append(("RY", _PROBE, np.pi / 2))
    for pair in ((_A, _A2), (_B, _B2)) if which == "AB" else ((_B, _B2),):
        gates.append(("CSWAP", _PROBE) + pair)
        if p > 0.0:
            gates.append(("DEPOL", _PROBE, p))
    gates.append(("RY", _PROBE, -np.pi / 2))
    return tuple(gates)


def _pull_back(w: np.ndarray, gates) -> np.ndarray:
    """The observable w propagated backwards through a gate sequence.

    Tr(result dev) equals Tr(w dev') for dev' the gates' output; each gate's
    adjoint is itself with its rotation angle negated, applied in reverse.
    """
    for gate in reversed(gates):
        if gate[0] in ("RY", "RX"):
            gate = (gate[0], gate[1], -gate[2])
        w = _apply_gate(w, gate)
    return w


def _observable(name: str, p: float) -> np.ndarray:
    """V_s of one panel setting, as a (4, 4, 4, 4) array.

    W_s is sigma_z^probe pulled back through the setting's gates; V_s =
    W_s[:16, :16] - W_s[16:, 16:] is its partial trace against the probe's
    sigma_z, so Tr(W_s sigma_z (x) R) = Tr(V_s R) for any R on A B A' B'.
    Entry [a, b, c, d] is row (a, b), column (c, d) of V_s, with a, c on
    A B and b, d on A' B'.
    """
    w = _pull_back(np.diag(_SZ_PROBE_DIAG).astype(complex), _setting_gates(*_SETTINGS[name], p))
    half = DIM // 2
    return (w[:half, :half] - w[half:, half:]).reshape(4, 4, 4, 4)


def _read_panel(rho: np.ndarray, observables: np.ndarray) -> dict[str, np.ndarray]:
    """All eight settings of a checked (n, 4, 4) state stack, as (n,) arrays, read with an (8, 4, 4, 4, 4) V_s stack."""
    # the probe signal Tr(sigma_z^probe dev) of the unread register dev
    reference = 2.0 * np.trace(rho, axis1=1, axis2=2).real ** 2
    # one einsum for all settings and points, with no intermediate: each
    # (setting, point) entry is summed alone, in the order of a setting read
    # by itself, so a stacked point reads the same bits as a point alone
    values = np.einsum("sabcd,nca,ndb->sn", observables, rho, rho).real / reference
    return dict(zip(PANEL_FIELDS, values))


@lru_cache(maxsize=8)
def _noise_level(p: float) -> tuple[np.ndarray, dict[str, float]]:
    """The record of noise level p: the read-only (8, 4, 4, 4, 4) V_s stack in PANEL_FIELDS order, and its calibration factors."""
    observables = np.stack([_observable(name, p) for name in PANEL_FIELDS])
    observables.setflags(write=False)
    factors = dict.fromkeys(PANEL_FIELDS, 1.0)
    if p == 0.0:
        return observables, factors
    rho = _family_states(np.pi / 2, 1.0)
    ideal = _read_panel(rho, _noise_level(0.0)[0])
    noisy = _read_panel(rho, observables)
    for name in PANEL_FIELDS:
        k = len(_SETTINGS[name][1])  # one CSWAP per letter of the readout
        factor, expected = float(noisy[name][0] / ideal[name][0]), (1.0 - p) ** k
        # written as "not <=" so that NaN and inf fail too
        if expected == 0.0 or not abs(factor - expected) <= TOL_STRUCTURAL * expected:
            raise ValueError(f"attenuation factor for {name} is {factor!r}, not (1 - p)**{k} = {expected!r}")
        factors[name] = factor
    return observables, factors


def calibration_factors(noise: NoiseModel = NOISELESS) -> dict[str, float]:
    """The attenuation noisy/ideal of each setting on the reference state (module docstring), as a new dict.

    A factor off (1 - p)**k by more than TOL_STRUCTURAL relative raises
    ``ValueError``, and so does every factor where (1 - p)**k is 0 (at
    p = 1 the signal is gone). At p = 0 every factor is 1.
    """
    return dict(_noise_level(noise.p_depol)[1])


@dataclass(frozen=True)
class PurityPanel:
    """The eight measured purities of one protocol run, raw and rescaled.

    For a run over arrays of points, ``alpha``, ``x`` and every panel value
    are (n,) arrays; otherwise they are floats.
    """

    alpha: float | np.ndarray
    x: float | np.ndarray
    noise_p: float
    raw: dict[str, float | np.ndarray]
    rescaled: dict[str, float | np.ndarray]

    def relation_sides(self, use_raw: bool = False) -> tuple[float, float]:
        """lhs and rhs of the conservation relation for this panel (d=2, M=3)."""
        v = self.raw if use_raw else self.rescaled
        lhs = sum(v["purity_B"] - v[f"purity_{ax}B"] for ax in ("x", "y", "z"))
        rhs = 2.0 * (v["purity_B"] - v["purity_AB"] / 2.0)
        return lhs, rhs

    def to_json(self) -> dict:
        plain = lambda v: np.asarray(v).tolist()  # noqa: E731  (floats stay floats)
        return {
            "alpha": plain(self.alpha),
            "x": plain(self.x),
            "noise_p": self.noise_p,
            "raw": {name: plain(self.raw[name]) for name in PANEL_FIELDS},
            "rescaled": {name: plain(self.rescaled[name]) for name in PANEL_FIELDS},
        }


def run_protocol(alpha, x, noise: NoiseModel = NOISELESS) -> PurityPanel:
    """The eight-purity panel, raw and divided by the :func:`calibration_factors` of ``noise``.

    ``alpha`` and ``x`` are two floats, or two equal-length 1-D arrays of
    points read in one contraction; the panel then holds arrays.
    """
    alpha, x = np.array(alpha, dtype=float), np.array(x, dtype=float)
    rho = _family_states(alpha, x)
    if x.ndim == 0:
        alpha, x = float(alpha), float(x)
    return _panel(alpha, x, rho, noise)


def _panel(alpha, x, rho: np.ndarray, noise: NoiseModel) -> PurityPanel:
    """The panel of the checked state stack ``rho`` of the points alpha, x (floats or (n,) arrays)."""
    observables, factors = _noise_level(noise.p_depol)
    raw = _read_panel(rho, observables)
    if np.ndim(x) == 0:
        raw = {name: float(value[0]) for name, value in raw.items()}
    rescaled = {name: value / factors[name] for name, value in raw.items()}
    return PurityPanel(alpha=alpha, x=x, noise_p=noise.p_depol, raw=raw, rescaled=rescaled)
