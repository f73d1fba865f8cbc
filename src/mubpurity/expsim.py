"""Deviation-matrix simulation of the five-qubit swap-test purity protocol.

Register layout: qubit 0 is the probe, qubits 1-4 are A, B, A', B'. The
simulator evolves the traceless deviation part sigma_z^probe (x) rho (x) rho
of the register. A protocol run prepares two copies of the depolarized
family state once; copies of that register are pinched on A and A' in each
Pauli basis, and every register (pinched or not) is read out through
controlled-SWAP gates conditioned on the probe: with both pair swaps the
probe coherence returns Tr(rho rho'), with the BB' swap alone
Tr(rho_B rho'_B). Gates act in place, so each setting reads its own copy.

A register is a stack: the deviation carries a leading axis with one
matrix per (alpha, x) point, and every gate acts once on the whole stack.
Each point still sees exactly the gates of its own fresh preparation.

Sites for noise: a one-parameter depolarizing channel acts on every qubit
touched by a controlled-SWAP, immediately after the gate. Rescaling divides
each measured value by the attenuation observed on a reference state whose
ideal panel is computed noiselessly by the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .linalg import PAULI_Z
from .states import _check_alpha, _check_x, psi_alpha
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


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit depolarizing probability applied after each controlled-SWAP."""

    p_depol: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if not 0.0 <= float(self.p_depol) <= 1.0:
            raise ValueError(f"p_depol={self.p_depol!r} outside [0, 1]")

    @property
    def active(self) -> bool:
        return self.enabled and self.p_depol > 0.0


NOISELESS = NoiseModel()


@dataclass
class CircuitState:
    """Mutable register state: a stack of deviation matrices plus gate/noise log.

    ``deviation`` has shape (n, DIM, DIM), one register per point; every
    gate acts on the whole stack at once. A single (DIM, DIM) matrix is a
    stack of one. ``reference_amplitude`` is the probe sigma_z amplitude
    captured at preparation time, one per register; readouts divide by it
    so that ideal pure-state runs report exactly 1. A float amplitude
    marks a single register, whose readouts are plain floats; an (n,)
    array makes them (n,) arrays. ``gate_log`` holds one tuple per event,
    e.g. ``("CSWAP", 0, 2, 4)``, ``("DEPOL", q, p)``, ``("BRANCH", label,
    weight)`` or ``("READ", which)``.
    """

    deviation: np.ndarray
    noise: NoiseModel = NOISELESS
    gate_log: list[tuple] = field(default_factory=list)
    reference_amplitude: float | np.ndarray = 2.0

    def __post_init__(self):
        dev = np.asarray(self.deviation, dtype=complex)
        if dev.ndim == 2:
            dev = dev[None]
        if dev.ndim != 3 or dev.shape[1:] != (DIM, DIM):
            raise ValueError(f"deviation must be {DIM}x{DIM} or a stack of them, got {dev.shape}")
        ref = self.reference_amplitude
        if np.ndim(ref) == 0 and len(dev) == 1:
            ref = float(ref)
        else:
            ref = np.broadcast_to(np.asarray(ref, dtype=float), (len(dev),))
        self.deviation = dev
        self.reference_amplitude = ref
        _check_deviation(dev)


def _copy(state: CircuitState, noise: NoiseModel | None = None) -> CircuitState:
    """Independent copy of a register, optionally under another noise model."""
    return replace(
        state,
        deviation=state.deviation.copy(),
        noise=state.noise if noise is None else noise,
        gate_log=list(state.gate_log),
    )


# Flat indices of each entry on or above the diagonal, and of its mirror image.
_UPPER = np.ravel_multi_index(np.triu_indices(DIM), (DIM, DIM))
_MIRROR = np.arange(DIM * DIM).reshape(DIM, DIM).T.ravel()[_UPPER]


def _check_deviation(dev: np.ndarray) -> None:
    """Reject a stack with a non-finite entry, trace drift or lost hermiticity."""
    if not np.isfinite(dev).all():
        raise RuntimeError("deviation has non-finite entries")
    trace = np.trace(dev, axis1=-2, axis2=-1)
    worst = int(np.abs(trace).argmax())
    if abs(trace[worst]) > TOL_STRUCTURAL:
        raise RuntimeError(f"deviation trace drifted to {trace[worst]!r}")
    # |d_ij - conj(d_ji)| is symmetric in (i, j): the upper triangle holds its maximum
    flat = dev.reshape(len(dev), DIM * DIM)
    if float(np.abs(flat[:, _UPPER] - flat[:, _MIRROR].conj()).max()) > TOL_STRUCTURAL:
        raise RuntimeError("deviation lost hermiticity")


def _check_qubit(q: int) -> int:
    q = int(q)
    if not 0 <= q < N_QUBITS:
        raise ValueError(f"qubit index {q} out of range 0..{N_QUBITS - 1}")
    return q


def _check_points(alpha, x):
    """Validated (alpha, x): two floats, or two equal-length 1-D float arrays."""
    if np.ndim(alpha) == 0 and np.ndim(x) == 0:
        return _check_alpha(alpha), _check_x(x)
    alpha = np.array(alpha, dtype=float)
    x = np.array(x, dtype=float)
    if alpha.ndim != 1 or alpha.shape != x.shape or alpha.size == 0:
        raise ValueError(
            f"alpha and x must be scalars or non-empty 1-D arrays of equal length, "
            f"got shapes {alpha.shape} and {x.shape}"
        )
    for a, b in zip(alpha.tolist(), x.tolist()):
        _check_alpha(a)
        _check_x(b)
    return alpha, x


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


@lru_cache(maxsize=64)
def _rotation(kind: str, qubit: int, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """The embedded single-qubit rotation U and its adjoint, built once per key."""
    r = _ry(angle) if kind == "RY" else _rx(angle)
    u = np.kron(np.kron(np.eye(2 ** qubit), r), np.eye(2 ** (N_QUBITS - 1 - qubit)))
    u_dagger = u.conj().T
    for a in (u, u_dagger):
        a.setflags(write=False)
    return u, u_dagger


@lru_cache(maxsize=None)
def _cswap_perm(control: int, q1: int, q2: int) -> np.ndarray:
    """CSWAP conjugation as a permutation of the row-major matrix entries.

    The basis permutation flips q1 and q2 where control is 1 and they
    differ; entry (i, j) of the result is entry (perm[i], perm[j]).
    """
    flip = _QUBIT_BITS[control] & (_QUBIT_BITS[q1] ^ _QUBIT_BITS[q2])
    mask = (1 << (N_QUBITS - 1 - q1)) | (1 << (N_QUBITS - 1 - q2))
    perm = np.arange(DIM) ^ (flip * mask)
    return (perm[:, None] * DIM + perm[None, :]).ravel()


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


def _probe_signal(dev: np.ndarray) -> np.ndarray:
    """Tr(dev sigma_z^probe) of each register, real part."""
    return (np.diagonal(dev, axis1=-2, axis2=-1) * _SZ_PROBE_DIAG).sum(axis=-1).real


def apply_gate(state: CircuitState, gate: tuple) -> CircuitState:
    """Apply one gate descriptor in place, to every register, and log it.

    Descriptors: ("RY", qubit, angle), ("RX", qubit, angle),
    ("CSWAP", control, q1, q2), ("DEPHASE", qubit). Unitary gates conjugate
    the deviation; DEPHASE pinches the target qubit in the computational
    basis. When noise is active, depolarizing follows every CSWAP on each
    involved qubit.
    """
    kind = str(gate[0]).upper()
    if kind in ("RY", "RX"):
        _, qubit, angle = gate
        qubit = _check_qubit(qubit)
        u, u_dagger = _rotation(kind, qubit, float(angle))
        state.deviation = u @ state.deviation @ u_dagger
        state.gate_log.append((kind, qubit, float(angle)))
    elif kind == "CSWAP":
        control, q1, q2 = (int(v) for v in gate[1:])
        for q in (control, q1, q2):
            _check_qubit(q)
        if len({control, q1, q2}) != 3:
            raise ValueError(f"CSWAP qubits must be distinct, got {control},{q1},{q2}")
        dev = state.deviation
        state.deviation = dev.reshape(len(dev), -1)[:, _cswap_perm(control, q1, q2)].reshape(dev.shape)
        state.gate_log.append(("CSWAP", control, q1, q2))
        if state.noise.active:
            p = state.noise.p_depol
            for q in (control, q1, q2):
                state.deviation = _depolarize(state.deviation, q, p)
                state.gate_log.append(("DEPOL", q, float(p)))
    elif kind == "DEPHASE":
        _, qubit = gate
        qubit = _check_qubit(qubit)
        state.deviation = np.where(_DEPHASE_KEEP[qubit], state.deviation, 0.0)
        state.gate_log.append(("DEPHASE", qubit))
    else:
        raise ValueError(f"unknown gate kind {gate[0]!r}")
    _check_deviation(state.deviation)
    return state


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two stacks of matrices, point by point."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def prepare_pair_state(alpha, x, noise: NoiseModel = NOISELESS) -> CircuitState:
    """Prepare sigma_z^probe (x) rho(alpha, x) (x) rho(alpha, x).

    ``alpha`` and ``x`` are two floats (one register) or two equal-length
    1-D arrays (one register per point). Temporal averaging: the mixture is
    assembled as the weighted classical sum of up to four separately built
    branch deviations, one per term of (x P + (1-x)/4 I)^(x2) with P the
    projector on the entangled pure state. A branch whose weight is zero at
    every point is skipped, so x = 1 is a single run.
    """
    alpha, x = _check_points(alpha, x)
    xs = np.atleast_1d(x)
    pure = np.array([psi_alpha(a).projector() for a in np.atleast_1d(alpha).tolist()])
    mixed = np.eye(4, dtype=complex)
    # float_power is libm's pow, as a scalar (1 - x) ** 2 evaluates it; an
    # array's ** 2 squares instead, which differs in the last bit.
    branches = (
        (np.float_power(1.0 - xs, 2) / 16.0, mixed, mixed, "mixed,mixed"),
        (xs * (1.0 - xs) / 4.0, mixed, pure, "mixed,pure"),
        (xs * (1.0 - xs) / 4.0, pure, mixed, "pure,mixed"),
        (xs * xs, pure, pure, "pure,pure"),
    )
    dev = np.zeros((len(xs), DIM, DIM), dtype=complex)
    log = [("PREPARE", alpha, x)]
    for weight, first, second, label in branches:
        if not weight.any():
            continue
        dev += weight[:, None, None] * _kron(PAULI_Z, _kron(first, second))
        log.append(("BRANCH", label, weight if np.ndim(x) else float(weight[0])))
    reference = _probe_signal(dev)
    reference = reference if np.ndim(x) else float(reference[0])
    return CircuitState(dev, noise=noise, gate_log=log, reference_amplitude=reference)


# Rotation taking each measurement axis to z before the dephasing (None: z).
_PRE_ROTATION = {"x": ("RY", -np.pi / 2), "y": ("RX", np.pi / 2), "z": None}


def mub_measure_block(state: CircuitState, axis: str, both_copies: bool = True) -> CircuitState:
    """Pinch the A qubit(s) in the given Pauli basis.

    x: rotate by -pi/2 about y, dephase, rotate back; y: rotate by +pi/2
    about x, dephase, rotate back with the opposite phase; z: dephase only.
    With ``both_copies`` the block acts on A and A' so the two register
    copies undergo identical measurements.
    """
    axis = str(axis).lower()
    if axis not in _PRE_ROTATION:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    targets = (_A, _A2) if both_copies else (_A,)
    rotation = _PRE_ROTATION[axis]
    if rotation is not None:
        kind, angle = rotation
        for q in targets:
            apply_gate(state, (kind, q, angle))
    for q in targets:
        apply_gate(state, ("DEPHASE", q))
    if rotation is not None:
        for q in targets:
            apply_gate(state, (kind, q, -angle))
    return state


def swap_test_readout(state: CircuitState, which: str = "AB") -> float | np.ndarray:
    """Controlled-SWAP interference readout of a copy overlap.

    Creates probe coherence, applies CSWAP(probe; A, A') and
    CSWAP(probe; B, B') for ``which="AB"`` (only the BB' gate for
    ``which="B"``), rotates the coherence back and returns the probe
    sigma_z expectation over the preparation reference amplitude: a float
    for a single register, one value per register for a stack. For
    identical noiseless copies this is Tr(rho_AB^2), resp. Tr(rho_B^2).
    """
    if state.deviation.shape[1:] != (DIM, DIM):
        raise ValueError("malformed register")
    which = str(which).upper()
    if which not in ("AB", "B"):
        raise ValueError(f"which must be 'AB' or 'B', got {which!r}")
    if np.any(np.asarray(state.reference_amplitude) == 0.0):
        raise ValueError("reference amplitude is zero; was the state prepared?")
    apply_gate(state, ("RY", _PROBE, np.pi / 2))
    if which == "AB":
        apply_gate(state, ("CSWAP", _PROBE, _A, _A2))
    apply_gate(state, ("CSWAP", _PROBE, _B, _B2))
    apply_gate(state, ("RY", _PROBE, -np.pi / 2))
    values = _probe_signal(state.deviation) / state.reference_amplitude
    state.gate_log.append(("READ", which))
    return float(values[0]) if np.ndim(state.reference_amplitude) == 0 else values


# Panel entries read per measurement axis (None = no pinch): AB, then B readout.
_READOUTS = {
    None: ("purity_AB", "purity_B"),
    "x": ("purity_xB", "purity_B_given_x"),
    "y": ("purity_yB", "purity_B_given_y"),
    "z": ("purity_zB", "purity_B_given_z"),
}


def _read_panel(state: CircuitState) -> dict[str, float | np.ndarray]:
    """All eight settings, each read from its own copy of the prepared register."""
    values = {}
    for axis, (name_ab, name_b) in _READOUTS.items():
        measured = _copy(state)
        if axis is not None:
            mub_measure_block(measured, axis, both_copies=True)
        values[name_ab] = swap_test_readout(_copy(measured), "AB")
        values[name_b] = swap_test_readout(measured, "B")
    return {name: values[name] for name in PANEL_FIELDS}


def _check_factor(name: str, factor: float) -> float:
    # written as "not <" so that NaN is rejected along with 0, negatives and inf
    if not 0.0 < factor < np.inf:
        raise ValueError(f"attenuation factor for {name} must be positive and finite, got {factor!r}")
    return factor


def calibration_factors(noise: NoiseModel = NOISELESS) -> dict[str, float]:
    """Per-setting attenuation measured on the maximally entangled reference.

    Prepares the pure alpha = pi/2, x = 1 state once and reads every setting
    from copies of it with and without noise; the ratio noisy/ideal is the
    attenuation divided out by :func:`rescale`. All factors are 1 when
    noise is inactive.
    """
    if not noise.active:
        return {name: 1.0 for name in PANEL_FIELDS}
    reference = prepare_pair_state(np.pi / 2, 1.0, noise)
    ideal = _read_panel(_copy(reference, NOISELESS))
    noisy = _read_panel(reference)
    return {name: _check_factor(name, noisy[name] / ideal[name]) for name in PANEL_FIELDS}


def rescale(raw: dict[str, float], calibration: dict[str, float]) -> dict[str, float]:
    """Divide each raw panel value by its setting's attenuation factor."""
    return {name: value / _check_factor(name, calibration[name]) for name, value in raw.items()}


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


def run_protocol(
    alpha,
    x,
    noise: NoiseModel = NOISELESS,
    calibration: dict[str, float] | None = None,
) -> PurityPanel:
    """Measure the full eight-purity panel from one prepared register stack.

    ``alpha`` and ``x`` are two floats, or two equal-length 1-D arrays of
    points that are simulated together, one register per point; the panel
    then holds arrays. Each x/y/z measurement block runs once on a copy of
    the stack, and copies of its result feed the AB and the B readout;
    every point sees the same gates as on a fresh preparation of it alone.
    With noise active the raw values are attenuated; the rescaled ones
    divide out the calibration factors (computed here if not supplied).
    Noiseless runs return identical raw and rescaled panels.
    """
    alpha, x = _check_points(alpha, x)
    raw = _read_panel(prepare_pair_state(alpha, x, noise))
    if calibration is None:
        calibration = calibration_factors(noise)
    return PurityPanel(
        alpha=alpha,
        x=x,
        noise_p=float(noise.p_depol) if noise.active else 0.0,
        raw=raw,
        rescaled=rescale(raw, calibration),
    )
