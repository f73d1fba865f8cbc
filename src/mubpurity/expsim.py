"""Deviation-matrix simulation of the five-qubit swap-test purity protocol.

Register layout: qubit 0 is the probe, qubits 1-4 are A, B, A', B'. The
simulator evolves the traceless deviation part sigma_z^probe (x) rho (x) rho
of the register. A protocol run prepares two copies of the depolarized
family state once; copies of that register are pinched on A and A' in each
Pauli basis, and every register (pinched or not) is read out through
controlled-SWAP gates conditioned on the probe: with both pair swaps the
probe coherence returns Tr(rho rho'), with the BB' swap alone
Tr(rho_B rho'_B). Gates act in place, so each setting reads its own copy.

Sites for noise: a one-parameter depolarizing channel acts on every qubit
touched by a controlled-SWAP, immediately after the gate. Rescaling divides
each measured value by the attenuation observed on a reference state whose
ideal panel is computed noiselessly by the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
_SZ_PROBE = np.kron(PAULI_Z, np.eye(DIM // 2))
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
    """Mutable register state: deviation matrix plus gate/noise log.

    ``gate_log`` holds one tuple per event, e.g. ``("CSWAP", 0, 2, 4)``,
    ``("DEPOL", q, p)``, ``("BRANCH", label, weight)`` or ``("READ", which)``.
    ``reference_amplitude`` is the probe sigma_z amplitude captured at
    preparation time; readouts divide by it so that ideal pure-state runs
    report exactly 1.
    """

    deviation: np.ndarray
    noise: NoiseModel = NOISELESS
    gate_log: list[tuple] = field(default_factory=list)
    reference_amplitude: float = 2.0

    def __post_init__(self):
        dev = np.asarray(self.deviation, dtype=complex)
        if dev.shape != (DIM, DIM):
            raise ValueError(f"deviation must be {DIM}x{DIM}, got {dev.shape}")
        self.deviation = dev
        _check_deviation(dev)


def _copy(state: CircuitState, noise: NoiseModel | None = None) -> CircuitState:
    """Independent copy of a register, optionally under another noise model."""
    return replace(
        state,
        deviation=state.deviation.copy(),
        noise=state.noise if noise is None else noise,
        gate_log=list(state.gate_log),
    )


def _check_deviation(dev: np.ndarray) -> None:
    if not np.isfinite(dev).all():
        raise RuntimeError("deviation has non-finite entries")
    if abs(np.trace(dev)) > TOL_STRUCTURAL:
        raise RuntimeError(f"deviation trace drifted to {np.trace(dev)!r}")
    if float(np.abs(dev - dev.conj().T).max()) > TOL_STRUCTURAL:
        raise RuntimeError("deviation lost hermiticity")


def _check_qubit(q: int) -> int:
    q = int(q)
    if not 0 <= q < N_QUBITS:
        raise ValueError(f"qubit index {q} out of range 0..{N_QUBITS - 1}")
    return q


def _embed_single(u: np.ndarray, qubit: int) -> np.ndarray:
    left = np.eye(2 ** qubit)
    right = np.eye(2 ** (N_QUBITS - 1 - qubit))
    return np.kron(np.kron(left, u), right)


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _cswap_perm(control: int, q1: int, q2: int) -> np.ndarray:
    """Basis permutation of CSWAP: flip q1 and q2 where control is 1 and they differ."""
    flip = _QUBIT_BITS[control] & (_QUBIT_BITS[q1] ^ _QUBIT_BITS[q2])
    mask = (1 << (N_QUBITS - 1 - q1)) | (1 << (N_QUBITS - 1 - q2))
    return np.arange(DIM) ^ (flip * mask)


def _pinch(dev: np.ndarray, qubit: int) -> np.ndarray:
    """Zero every element whose bra and ket differ on the given qubit."""
    bits = _QUBIT_BITS[qubit]
    return np.where(bits[:, None] == bits[None, :], dev, 0.0)


def _depolarize(dev: np.ndarray, qubit: int, p: float) -> np.ndarray:
    """(1-p) dev + p * (I/2 on the qubit) (x) Tr_qubit(dev)."""
    axes = list(range(2 * N_QUBITS))
    pair = [qubit, qubit + N_QUBITS]
    traced = np.trace(dev.reshape([2] * (2 * N_QUBITS)), axis1=pair[0], axis2=pair[1])
    rest = [a for a in axes if a not in pair]
    mixed = np.einsum(traced, rest, np.eye(2) / 2.0, pair, axes)
    return (1.0 - p) * dev + p * mixed.reshape(DIM, DIM)


def apply_gate(state: CircuitState, gate: tuple) -> CircuitState:
    """Apply one gate descriptor in place and append it to the log.

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
        u = _embed_single(_ry(angle) if kind == "RY" else _rx(angle), qubit)
        state.deviation = u @ state.deviation @ u.conj().T
        state.gate_log.append((kind, qubit, float(angle)))
    elif kind == "CSWAP":
        control, q1, q2 = (int(v) for v in gate[1:])
        for q in (control, q1, q2):
            _check_qubit(q)
        if len({control, q1, q2}) != 3:
            raise ValueError(f"CSWAP qubits must be distinct, got {control},{q1},{q2}")
        perm = _cswap_perm(control, q1, q2)
        state.deviation = state.deviation[perm][:, perm]
        state.gate_log.append(("CSWAP", control, q1, q2))
        if state.noise.active:
            p = state.noise.p_depol
            for q in (control, q1, q2):
                state.deviation = _depolarize(state.deviation, q, p)
                state.gate_log.append(("DEPOL", q, float(p)))
    elif kind == "DEPHASE":
        _, qubit = gate
        qubit = _check_qubit(qubit)
        state.deviation = _pinch(state.deviation, qubit)
        state.gate_log.append(("DEPHASE", qubit))
    else:
        raise ValueError(f"unknown gate kind {gate[0]!r}")
    _check_deviation(state.deviation)
    return state


def prepare_pair_state(alpha: float, x: float, noise: NoiseModel = NOISELESS) -> CircuitState:
    """Prepare sigma_z^probe (x) rho(alpha, x) (x) rho(alpha, x).

    Temporal averaging: the mixture is assembled as the weighted classical
    sum of up to four separately built branch deviations, one per term of
    (x P + (1-x)/4 I)^(x2) with P the projector on the entangled pure
    state. Zero-weight branches are skipped, so x = 1 is a single run.
    """
    alpha = _check_alpha(alpha)
    x = _check_x(x)
    pure = psi_alpha(alpha).projector()
    mixed = np.eye(4, dtype=complex)
    branches = (
        ((1.0 - x) ** 2 / 16.0, mixed, mixed, "mixed,mixed"),
        (x * (1.0 - x) / 4.0, mixed, pure, "mixed,pure"),
        (x * (1.0 - x) / 4.0, pure, mixed, "pure,mixed"),
        (x * x, pure, pure, "pure,pure"),
    )
    dev = np.zeros((DIM, DIM), dtype=complex)
    log = [("PREPARE", alpha, x)]
    for weight, first, second, label in branches:
        if weight == 0.0:
            continue
        dev += weight * np.kron(PAULI_Z, np.kron(first, second))
        log.append(("BRANCH", label, weight))
    reference = float(np.trace(dev @ _SZ_PROBE).real)
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


def swap_test_readout(state: CircuitState, which: str = "AB") -> float:
    """Controlled-SWAP interference readout of a copy overlap.

    Creates probe coherence, applies CSWAP(probe; A, A') and
    CSWAP(probe; B, B') for ``which="AB"`` (only the BB' gate for
    ``which="B"``), rotates the coherence back and returns the probe
    sigma_z expectation over the preparation reference amplitude. For
    identical noiseless copies this is Tr(rho_AB^2), resp. Tr(rho_B^2).
    """
    if state.deviation.shape != (DIM, DIM):
        raise ValueError("malformed register")
    which = str(which).upper()
    if which not in ("AB", "B"):
        raise ValueError(f"which must be 'AB' or 'B', got {which!r}")
    if state.reference_amplitude == 0.0:
        raise ValueError("reference amplitude is zero; was the state prepared?")
    apply_gate(state, ("RY", _PROBE, np.pi / 2))
    if which == "AB":
        apply_gate(state, ("CSWAP", _PROBE, _A, _A2))
    apply_gate(state, ("CSWAP", _PROBE, _B, _B2))
    apply_gate(state, ("RY", _PROBE, -np.pi / 2))
    value = float(np.trace(state.deviation @ _SZ_PROBE).real)
    state.gate_log.append(("READ", which))
    return value / state.reference_amplitude


# Panel entries read per measurement axis (None = no pinch): AB, then B readout.
_READOUTS = {
    None: ("purity_AB", "purity_B"),
    "x": ("purity_xB", "purity_B_given_x"),
    "y": ("purity_yB", "purity_B_given_y"),
    "z": ("purity_zB", "purity_B_given_z"),
}


def _read_panel(state: CircuitState) -> dict[str, float]:
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
    """The eight measured purities of one protocol run, raw and rescaled."""

    alpha: float
    x: float
    noise_p: float
    raw: dict[str, float]
    rescaled: dict[str, float]

    def relation_sides(self, use_raw: bool = False) -> tuple[float, float]:
        """lhs and rhs of the conservation relation for this panel (d=2, M=3)."""
        v = self.raw if use_raw else self.rescaled
        lhs = sum(v["purity_B"] - v[f"purity_{ax}B"] for ax in ("x", "y", "z"))
        rhs = 2.0 * (v["purity_B"] - v["purity_AB"] / 2.0)
        return lhs, rhs

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "x": self.x,
            "noise_p": self.noise_p,
            "raw": {name: self.raw[name] for name in PANEL_FIELDS},
            "rescaled": {name: self.rescaled[name] for name in PANEL_FIELDS},
        }


def run_protocol(
    alpha: float,
    x: float,
    noise: NoiseModel = NOISELESS,
    calibration: dict[str, float] | None = None,
) -> PurityPanel:
    """Measure the full eight-purity panel from one prepared register.

    Each x/y/z measurement block runs once on a copy of the register, and
    copies of its result feed the AB and the B readout; every setting sees
    the same gates as on a fresh preparation. With noise active the raw
    values are attenuated; the rescaled ones divide out the calibration
    factors (computed here if not supplied). Noiseless runs return
    identical raw and rescaled panels.
    """
    alpha = _check_alpha(alpha)
    x = _check_x(x)
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
