import json
import math
import tracemalloc

import numpy as np
import pytest

from mubpurity import expsim
from mubpurity.expsim import (
    _PROBE,
    _SETTINGS,
    _SZ_PROBE_DIAG,
    DIM,
    N_QUBITS,
    PANEL_FIELDS,
    NoiseModel,
    _apply_gate,
    _check_deviation,
    _noise_level,
    _observable,
    _pull_back,
    _read_panel,
    _setting_gates,
    run_protocol,
)
from mubpurity.mub import construct_mubs
from mubpurity.relations import relation_report
from mubpurity.states import _family_states, random_density, rho_family
from mubpurity.tolerances import TOL_STRUCTURAL
from test_relations import _pinch, _purity

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
MUBS = construct_mubs(2, 3)
# construct_mubs(2, 3) orders the bases z, x, y
AXIS_TO_THETA = {"z": 1, "x": 2, "y": 3}


def _panel_expected(alpha, x):
    rep = relation_report(rho_family(alpha, x), MUBS)
    return {
        "purity_AB": rep.purity_AB,
        "purity_xB": rep.purity_thetaB[1],
        "purity_yB": rep.purity_thetaB[2],
        "purity_zB": rep.purity_thetaB[0],
        "purity_B": rep.purity_B,
        "purity_B_given_x": rep.purity_B_given_theta[1],
        "purity_B_given_y": rep.purity_B_given_theta[2],
        "purity_B_given_z": rep.purity_B_given_theta[0],
    }


# Schroedinger-picture reference: build the dense 32x32 register and run a
# setting's gates forward on it.
def _pair_deviation(rho_ab, rho_ab2=None):
    """The register sigma_z^probe (x) rho_ab (x) rho_ab2 (two copies of rho_ab by default)."""
    rho_ab2 = rho_ab if rho_ab2 is None else rho_ab2
    return np.kron(PAULI_Z, np.kron(rho_ab, rho_ab2))


def _probe_signal(dev):
    """Tr(dev sigma_z^probe) of each register, real part."""
    return (np.diagonal(dev, axis1=-2, axis2=-1) * _SZ_PROBE_DIAG).sum(axis=-1).real


def _prepare(alpha, x):
    """The register of one family point as a stack of one, and its reference Tr(dev sigma_z^probe)."""
    dev = _pair_deviation(rho_family(alpha, x).matrix)[None]
    return dev, float(_probe_signal(dev)[0])


def _forward(dev, gates):
    for gate in gates:
        dev = _apply_gate(dev, gate)
    return dev


def _six_site_gates(axis, which, p):
    """A setting's gates with depolarizing on all three qubits of each CSWAP, right after it."""
    gates = []
    for gate in _setting_gates(axis, which, 0.0):
        gates.append(gate)
        if gate[0] == "CSWAP":
            gates += [("DEPOL", q, p) for q in gate[1:]]
    return gates


def _forward_read(dev, reference, axis, which, p=0.0):
    """Probe signal over the reference after one setting's gates, one value per register."""
    return _probe_signal(_forward(dev, _setting_gates(axis, which, p))) / reference


def _forward_setting(alpha, x, noise, name):
    """One panel entry from a fresh preparation of one point, run forward."""
    return float(_forward_read(*_prepare(alpha, x), *_SETTINGS[name], noise.p_depol)[0])


def _measure_block(dev, axis):
    """The pinch of A and A': the gates of a setting that leave the probe alone."""
    return _forward(dev, [g for g in _setting_gates(axis, "B", 0.0) if g[1] != 0])


def _ab_marginal(dev):
    """AB state of a register before readout: probe-ground block traced over A'B'."""
    block = np.asarray(dev)[: DIM // 2, : DIM // 2]
    return np.trace(block.reshape(4, 4, 4, 4), axis1=1, axis2=3)


def _cswap_reference(control, q1, q2):
    """Dense 0/1 CSWAP unitary, one column per basis index."""
    bit = lambda idx, q: (idx >> (N_QUBITS - 1 - q)) & 1  # noqa: E731
    u = np.zeros((DIM, DIM))
    for idx in range(DIM):
        target = idx
        if bit(idx, control) and bit(idx, q1) != bit(idx, q2):
            target = idx ^ (1 << (N_QUBITS - 1 - q1)) ^ (1 << (N_QUBITS - 1 - q2))
        u[target, idx] = 1.0
    return u


def _depolarize_reference(dev, qubit, p):
    """(1-p) dev + p (I/2 on qubit) (x) Tr_qubit(dev), filled slice by slice."""
    t = dev.reshape([2] * (2 * N_QUBITS))
    traced = np.trace(t, axis1=qubit, axis2=qubit + N_QUBITS)
    mixed = np.zeros_like(t)
    for b in (0, 1):
        index = [slice(None)] * (2 * N_QUBITS)
        index[qubit] = index[qubit + N_QUBITS] = b
        mixed[tuple(index)] = traced / 2.0
    return (1.0 - p) * dev + p * mixed.reshape(DIM, DIM)


def _random_deviation(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    h = g + g.conj().T
    return h - np.trace(h) * np.eye(DIM) / DIM


class TestGates:
    def test_ry_pi_twice_is_identity(self):
        dev = _pair_deviation(rho_family(0.7, 0.8).matrix)
        out = _apply_gate(_apply_gate(dev, ("RY", 1, np.pi)), ("RY", 1, np.pi))
        assert np.abs(out - dev).max() <= 1e-12

    def test_cswap_control_zero_is_identity(self):
        # probe in |0><0| deviation-like block: build a traceless test
        # operator with no probe-|1> support on the swapped pair
        block = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        dev = np.kron(np.diag([1.0, 0.0]), np.kron(block, np.eye(4) / 4))
        dev = dev - np.trace(dev) * np.eye(DIM) / DIM
        before = dev.copy()
        out = _apply_gate(dev, ("CSWAP", 0, 1, 2))
        # control bit 0 sector untouched
        assert np.abs(out[:16, :16] - before[:16, :16]).max() <= 1e-14
        assert np.array_equal(dev, before)  # the input is not changed

    def test_dephase_kills_x_keeps_z(self):
        # deviation with a sigma_x component on qubit 1 and sigma_z on qubit 2
        rest = np.eye(8) / 8
        dev = np.kron(PAULI_Z, np.kron(PAULI_X, rest)) + np.kron(
            PAULI_Z, np.kron(PAULI_Z, rest)
        )
        out = _apply_gate(dev, ("DEPHASE", 1))
        expected = np.kron(PAULI_Z, np.kron(PAULI_Z, rest))
        assert np.abs(out - expected).max() <= 1e-14

    def test_unitary_preserves_purity_dephase_contracts(self):
        dev = _prepare(np.pi / 3, 0.6)[0][0]
        before = _purity(dev)
        dev = _forward(dev, [("RY", 2, 0.4), ("RX", 3, -1.1), ("CSWAP", 0, 1, 3)])
        assert abs(_purity(dev) - before) <= 1e-12
        dev = _apply_gate(dev, ("DEPHASE", 1))
        assert _purity(dev) <= before + 1e-12

    def test_trace_stays_zero(self):
        dev = _prepare(np.pi / 2, 0.5)[0]
        gates = [("RY", 0, np.pi / 2), ("CSWAP", 0, 1, 3), ("DEPOL", 0, 0.05), ("DEPOL", 1, 0.05),
                 ("DEPOL", 3, 0.05), ("DEPHASE", 2), ("RX", 4, 0.3)]
        for gate in gates:
            dev = _apply_gate(dev, gate)
            assert abs(np.trace(dev[0])) <= 1e-12

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_stack_of_any_shape_is_gated_matrix_by_matrix(self, shape):
        count = int(np.prod(shape, dtype=int))
        dev = np.array([_random_deviation(20 + k) for k in range(count)]).reshape(shape + (DIM, DIM))
        before = dev.copy()
        for gate in [("RY", 2, 0.4), ("RX", 0, -1.1), ("CSWAP", 0, 2, 4), ("DEPHASE", 3), ("DEPOL", 1, 0.2)]:
            out = _apply_gate(dev, gate)
            assert out.shape == dev.shape
            singles = [_apply_gate(m, gate) for m in dev.reshape(-1, DIM, DIM)]
            assert np.array_equal(out.reshape(-1, DIM, DIM), np.array(singles))
            assert np.array_equal(dev, before)

    @pytest.mark.parametrize("qubits", [(0, 1, 3), (0, 2, 4), (2, 0, 4), (4, 3, 1)])
    def test_cswap_matches_dense_unitary(self, qubits):
        dev = _random_deviation(sum(qubits))
        out = _apply_gate(dev, ("CSWAP",) + qubits)
        u = _cswap_reference(*qubits)
        assert np.array_equal(u @ u.T, np.eye(DIM))
        assert np.array_equal(out, u @ dev @ u.T)

    @pytest.mark.parametrize("kind", ["RX", "RY"])
    def test_rotation_matches_kron_embedding(self, kind):
        # exp(-i theta sigma / 2) as a literal 2x2 matrix, embedded by kron
        c, s = np.cos(0.35), np.sin(0.35)
        r = {"RX": np.array([[c, -1j * s], [-1j * s, c]]), "RY": np.array([[c, -s], [s, c]])}[kind]
        dev = _random_deviation(7)
        for qubit in range(N_QUBITS):
            u = np.kron(np.kron(np.eye(2**qubit), r), np.eye(2 ** (N_QUBITS - 1 - qubit)))
            out = _apply_gate(dev, (kind, qubit, 0.7))
            assert np.abs(out - u @ dev @ u.conj().T).max() <= 1e-14

    @pytest.mark.parametrize("qubit", range(N_QUBITS))
    def test_depolarize_matches_slice_loop(self, qubit):
        dev = _random_deviation(10 + qubit)
        for p in (0.0, 0.05, 1.0):
            assert np.array_equal(_apply_gate(dev, ("DEPOL", qubit, p)), _depolarize_reference(dev, qubit, p))

    def test_nan_angle_rejected(self):
        dev = _prepare(np.pi / 2, 1.0)[0]
        with pytest.raises(RuntimeError):
            _apply_gate(dev, ("RY", 1, float("nan")))

    def test_non_finite_deviation_rejected(self):
        with pytest.raises(RuntimeError):
            _apply_gate(np.full((DIM, DIM), np.nan), ("DEPHASE", 1))
        dev = np.zeros((DIM, DIM), dtype=complex)
        dev[0, 1] = dev[1, 0] = np.inf
        with pytest.raises(RuntimeError):
            _check_deviation(dev)


class TestPrepare:
    """The family stack a panel is read against, and the register the forward reference builds."""

    def test_x_one_single_branch(self):
        # at x = 1 the state is exactly the pure projector: no mixed term was added
        v = np.array([0, np.cos(np.pi / 8), -np.sin(np.pi / 8), 0])
        pure = np.outer(v, v.conj())
        assert np.array_equal(_family_states(np.pi / 4, 1.0)[0], pure)
        dev, reference = _prepare(np.pi / 4, 1.0)
        assert np.array_equal(dev[0], _pair_deviation(pure))
        assert reference == 2.0

    def test_x_zero_identity_branch(self):
        # at x = 0 the state is exactly I4/4: no pure term was added
        assert np.array_equal(_family_states(np.pi / 2, 0.0)[0], np.eye(4) / 4)
        dev, reference = _prepare(np.pi / 2, 0.0)
        assert np.array_equal(dev[0], np.kron(PAULI_Z, np.eye(16) / 16))
        assert reference == 2.0

    def test_intermediate_x_four_branches(self):
        # temporal averaging: the weighted sum of the four branch registers of
        # (x P + (1-x)/4 I)^(x2) is, by linearity, the register of rho itself
        rho = rho_family(np.pi / 2, 0.5).matrix
        v = np.array([0, np.cos(np.pi / 4), -np.sin(np.pi / 4), 0])
        terms = (0.5 * np.outer(v, v.conj()), 0.5 / 4 * np.eye(4))
        branches = sum(_pair_deviation(first, second) for first in terms for second in terms)
        assert np.abs(branches - _pair_deviation(rho)).max() <= 1e-15
        assert np.abs(_ab_marginal(branches) - rho).max() <= 1e-10
        panel = run_protocol(np.pi / 2, 0.5)
        for name, (axis, which) in _SETTINGS.items():
            assert abs(panel.raw[name] - _forward_read(branches[None], 2.0, axis, which)[0]) <= 1e-14

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            run_protocol(-0.1, 0.5)
        with pytest.raises(ValueError):
            run_protocol(0.1, 1.5)

    def test_prepared_stack_checked_once(self, monkeypatch):
        # _family_states checks the points' range and builds their states
        checked, read = [], []
        monkeypatch.setattr(expsim, "_family_states", lambda *a: checked.append(_family_states(*a)) or checked[-1])
        monkeypatch.setattr(expsim, "_read_panel", lambda rho, v: read.append(rho) or _read_panel(rho, v))
        alpha, x = np.array([0.2, 0.4]), np.array([0.5, 1.0])
        run_protocol(alpha, x)
        assert len(checked) == 1 and np.array_equal(checked[0], _family_states(alpha, x))
        # the panel reads the stack that was built, not a rebuilt copy
        assert len(read) == 1 and read[0] is checked[0]

    def test_memory_stays_bounded(self):
        # only the (n, 4, 4) states are held per point, never a 32x32 register
        alpha = np.linspace(0.0, np.pi / 2, 4096)
        x = np.linspace(0.0, 1.0, 4096)
        noise = NoiseModel(0.01)
        run_protocol(alpha[:2], x[:2], noise)  # build the cached observables first
        tracemalloc.start()
        try:
            run_protocol(alpha, x, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestMeasureBlock:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_matches_analytic_pinch(self, axis):
        for alpha, x in [(np.pi / 2, 1.0), (np.pi / 3, 0.6), (0.0, 1.0)]:
            dev = _measure_block(_prepare(alpha, x)[0], axis)
            expected = _pinch(rho_family(alpha, x), MUBS, AXIS_TO_THETA[axis]).matrix
            assert np.abs(_ab_marginal(dev[0]) - expected).max() <= 1e-10

    def test_x_block_halves_product_purity(self):
        rho_b = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        pair = np.kron(np.diag([1.0, 0.0]).astype(complex), rho_b)
        before = _purity(pair)
        after = _purity(_ab_marginal(_measure_block(_pair_deviation(pair), "x")))
        assert abs(after - before / 2) <= 1e-10

    def test_y_equals_x_for_singlet_family(self):
        for x in (0.25, 0.75):
            dev = _prepare(np.pi / 2, x)[0][0]
            px = _purity(_ab_marginal(_measure_block(dev, "x")))
            py = _purity(_ab_marginal(_measure_block(dev, "y")))
            assert abs(px - py) <= 1e-10


class TestSwapTestReadout:
    def test_pure_pair(self):
        value = _forward_read(*_prepare(np.pi / 2, 1.0), None, "AB")
        assert abs(value[0] - 1.0) <= 1e-10

    def test_maximally_mixed_pair(self):
        # overlap of two maximally mixed two-qubit states: Tr((I4/4)^2) = 1/4
        value = _forward_read(*_prepare(np.pi / 2, 0.0), None, "AB")
        assert abs(value[0] - 0.25) <= 1e-10

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_b_marginal_readout(self, x):
        value = _forward_read(*_prepare(np.pi / 2, x), None, "B")
        assert abs(value[0] - 0.5) <= 1e-10

    def test_unequal_copies_overlap(self):
        rho1 = rho_family(np.pi / 2, 1.0).matrix
        rho2 = rho_family(np.pi / 2, 0.0).matrix
        dev = _pair_deviation(rho1, rho2)[None]
        expected = np.trace(rho1 @ rho2).real
        assert abs(_forward_read(dev, 2.0, None, "AB")[0] - expected) <= 1e-10
        read = np.einsum("abcd,ca,db->", _observable("purity_AB", 0.0), rho1, rho2).real / 2.0
        assert abs(read - expected) <= 1e-10


class TestObservables:
    """W_s read against the forward gates it replaces."""

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3])
    def test_read_matches_forward_gates_on_random_registers(self, p):
        # random states of ranks 1, 2 and 4, scaled to traces 0.5, 1 and 2
        scale = np.array([0.5, 1.0, 2.0])
        rho = np.array([random_density(4, rank, 40 + rank).matrix for rank in (1, 2, 4)]) * scale[:, None, None]
        dev = np.array([_pair_deviation(r) for r in rho])
        reference = _probe_signal(dev)
        assert np.abs(reference - 2.0 * scale**2).max() <= 1e-14
        panel = _read_panel(rho, _noise_level(p)[0])
        for name, (axis, which) in _SETTINGS.items():
            assert np.abs(panel[name] - _forward_read(dev, reference, axis, which, p)).max() <= 1e-14

    def test_pull_back_is_the_adjoint_of_any_gate_sequence(self):
        # random angles and qubits: no rotation is undone by its inverse
        rng = np.random.default_rng(5)
        gates = []
        for _ in range(12):
            kind = rng.choice(["RY", "RX", "CSWAP", "DEPHASE", "DEPOL"])
            if kind in ("RY", "RX"):
                gates.append((kind, int(rng.integers(N_QUBITS)), float(rng.uniform(-np.pi, np.pi))))
            elif kind == "CSWAP":
                gates.append(("CSWAP",) + tuple(int(q) for q in rng.permutation(N_QUBITS)[:3]))
            elif kind == "DEPHASE":
                gates.append(("DEPHASE", int(rng.integers(N_QUBITS))))
            else:
                gates.append(("DEPOL", int(rng.integers(N_QUBITS)), float(rng.uniform(0, 0.5))))
        dev, w = _random_deviation(60) / DIM, _random_deviation(61) / DIM
        forward = np.trace(w @ _forward(dev, gates))
        assert abs(np.trace(_pull_back(w, gates) @ dev) - forward) <= 1e-13

    def test_observables_are_hermitian_traceless_and_frozen(self):
        stack = _noise_level(0.05)[0]
        assert stack.shape == (len(PANEL_FIELDS), 4, 4, 4, 4) and not stack.flags.writeable
        for v, (axis, which) in zip(stack, _SETTINGS.values()):
            w = _pull_back(np.diag(_SZ_PROBE_DIAG).astype(complex), _setting_gates(axis, which, 0.05))
            assert abs(np.trace(w)) <= 1e-12
            assert np.abs(w - w.conj().T).max() <= 1e-12
            # the probe's sigma_z traced out of W_s
            assert np.array_equal(v.reshape(16, 16), w[:16, :16] - w[16:, 16:])

    def test_every_gate_of_a_build_is_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(expsim, "_check_deviation", checked.append)
        w = _observable("purity_xB", 0.125)
        assert len(checked) == len(_setting_gates("x", "AB", 0.125)) == 12
        assert np.array_equal(checked[-1][:16, :16] - checked[-1][16:, 16:], w.reshape(16, 16))

    def test_cache_is_bounded(self):
        maxsize = _noise_level.cache_info().maxsize
        assert maxsize is not None
        for p in np.linspace(0.0, 0.3, maxsize + 3):
            _noise_level(float(p))
        assert _noise_level.cache_info().currsize <= maxsize

    def test_noise_sites_follow_each_cswap(self):
        gates = _setting_gates(None, "AB", 0.01)
        assert [g[0] for g in gates] == ["RY", "CSWAP", "DEPOL", "CSWAP", "DEPOL", "RY"]
        assert [g[1] for g in gates if g[0] == "DEPOL"] == [0, 0]
        assert "DEPOL" not in [g[0] for g in _setting_gates("x", "B", 0.0)]

    @pytest.mark.parametrize("p", [0.01, 0.2])
    def test_probe_noise_reads_the_six_site_panel(self, p):
        # depolarizing A, B, A' and B' too changes no read: the observable pulled back
        # to each of those sites is the identity on the depolarized qubit
        dev = np.array([_random_deviation(70 + k) for k in range(4)]) / DIM
        for axis, which in _SETTINGS.values():
            probe_only = _probe_signal(_forward(dev, _setting_gates(axis, which, p)))
            six_sites = _probe_signal(_forward(dev, _six_site_gates(axis, which, p)))
            assert np.abs(probe_only - six_sites).max() <= 1e-14


# The swap test's two-copy observables on A B A' B', as (2,)*8 tensors with
# rows a b c d and columns e f g h: SWAP_AA' SWAP_BB' exchanges the copies,
# SWAP_BB' the B qubits alone.
_I2 = np.eye(2)
_COPY_SWAP = np.einsum("ag,bh,ce,df->abcdefgh", _I2, _I2, _I2, _I2).reshape(16, 16)
_B_SWAP = np.einsum("ae,bh,cg,df->abcdefgh", _I2, _I2, _I2, _I2).reshape(16, 16)


def _two_copy_pinch(op, axis):
    """op pinched on A and A' in the eigenbasis of the Pauli ``axis``."""
    basis = MUBS.bases[AXIS_TO_THETA[axis] - 1]
    projectors = [np.outer(v, v.conj()) for v in basis]
    kraus = [np.kron(np.kron(pa, _I2), np.kron(pa2, _I2)) for pa in projectors for pa2 in projectors]
    return sum(k @ op @ k for k in kraus)


def _sym(op):
    """The part of a 16x16 op that Tr(op rho (x) rho) reads: Hermitian, averaged over the copy exchange."""
    h = (op + op.conj().T) / 2
    return (h + _COPY_SWAP @ h @ _COPY_SWAP) / 2


class TestCertificate:
    """Each setting's observable as an operator identity, so the panel claims hold for every state."""

    @pytest.mark.parametrize("name", PANEL_FIELDS)
    def test_ideal_observable_is_the_pinched_swap(self, name):
        # Tr(V_s(0) rho (x) rho) / 2 = Tr(E_s rho (x) rho): the purity of rho, or of its
        # B marginal, after the setting's pinch of A
        axis, which = _SETTINGS[name]
        e = _COPY_SWAP if which == "AB" else _B_SWAP
        if axis is not None:
            e = _two_copy_pinch(e, axis)
        v = _observable(name, 0.0).reshape(16, 16)
        assert np.abs(_sym(v / 2) - _sym(e)).max() <= 1e-15

    @pytest.mark.parametrize("name", PANEL_FIELDS)
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.2])
    def test_noise_scales_the_observable_per_cswap(self, name, p):
        # V_s(p) = (1 - p)**k V_s(0) with k CSWAPs, so rescaling is exact for every state
        k = 2 if _SETTINGS[name][1] == "AB" else 1
        assert np.abs(_observable(name, p) - (1 - p) ** k * _observable(name, 0.0)).max() <= 1e-15


class TestRunProtocol:
    def test_entangled_point(self):
        panel = run_protocol(np.pi / 2, 1.0)
        expected = [1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        for name, want in zip(PANEL_FIELDS, expected):
            assert abs(panel.raw[name] - want) <= 1e-10

    def test_product_point(self):
        panel = run_protocol(0.0, 1.0)
        expected = [1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
        for name, want in zip(PANEL_FIELDS, expected):
            assert abs(panel.raw[name] - want) <= 1e-10

    def test_matches_analytic_grid(self):
        for alpha in (0.0, np.pi / 4, np.pi / 2):
            for x in (0.0, 0.5, 1.0):
                panel = run_protocol(alpha, x)
                expected = _panel_expected(alpha, x)
                for name in PANEL_FIELDS:
                    assert abs(panel.raw[name] - expected[name]) <= 1e-10
                lhs, rhs = panel.relation_sides()
                assert abs(lhs - rhs) <= 1e-9

    def test_noiseless_rescaled_equals_raw(self):
        panel = run_protocol(np.pi / 4, 0.5)
        assert panel.raw == panel.rescaled
        assert panel.noise_p == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_matches_fresh_preparation_reference(self, p):
        # the cached observables read what a fresh register run forward per setting reads
        noise = NoiseModel(p)
        for alpha, x in [(np.pi / 2, 1.0), (np.pi / 5, 0.3), (0.0, 0.0), (1.1, 0.85)]:
            panel = run_protocol(alpha, x, noise)
            for n in PANEL_FIELDS:
                assert abs(panel.raw[n] - _forward_setting(alpha, x, noise, n)) <= 1e-14

    def test_json_schema(self):
        obj = run_protocol(np.pi / 2, 1.0).to_json()
        assert set(obj) == {"alpha", "x", "noise_p", "raw", "rescaled"}
        assert tuple(obj["raw"]) == PANEL_FIELDS


class TestBatch:
    """A stack of points runs every gate once and reads what each point alone reads."""

    ALPHA = np.array([0.0, np.pi / 5, 1.1, np.pi / 2, 0.3, np.pi / 2, 0.7])
    X = np.array([0.0, 0.3, 0.85, 1.0, 1.0, 0.0, 0.5])

    def test_stack_shapes(self):
        rho = _family_states(self.ALPHA, self.X)
        assert rho.shape == (len(self.X), 4, 4)
        for i, (alpha, x) in enumerate(zip(self.ALPHA.tolist(), self.X.tolist())):
            single = _family_states(alpha, x)
            assert single.shape == (1, 4, 4)
            assert np.array_equal(rho[i], single[0])
            assert np.array_equal(rho[i], rho_family(alpha, x).matrix)

    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_array_call_equals_scalar_calls(self, p):
        noise = NoiseModel(p)
        panel = run_protocol(self.ALPHA, self.X, noise)
        assert np.array_equal(panel.alpha, self.ALPHA) and np.array_equal(panel.x, self.X)
        for i, (alpha, x) in enumerate(zip(self.ALPHA.tolist(), self.X.tolist())):
            single = run_protocol(alpha, x, noise)
            for name in PANEL_FIELDS:
                assert type(single.raw[name]) is float and type(single.rescaled[name]) is float
                assert panel.raw[name].shape == (len(self.X),)
                assert panel.raw[name][i] == single.raw[name]
                assert panel.rescaled[name][i] == single.rescaled[name]

    def test_chunks_change_no_value(self):
        noise = NoiseModel(0.05)
        whole = run_protocol(self.ALPHA, self.X, noise)
        for size in (1, 2, 4):
            parts = [
                run_protocol(self.ALPHA[i:i + size], self.X[i:i + size], noise)
                for i in range(0, len(self.X), size)
            ]
            for name in PANEL_FIELDS:
                assert np.array_equal(np.concatenate([q.raw[name] for q in parts]), whole.raw[name])

    def test_length_one_arrays_stay_arrays(self):
        panel = run_protocol(np.array([np.pi / 2]), np.array([1.0]))
        assert panel.raw["purity_AB"].shape == (1,)
        assert panel.to_json()["raw"]["purity_AB"] == [panel.raw["purity_AB"][0]]
        assert type(run_protocol(np.pi / 2, 1.0).to_json()["raw"]["purity_AB"]) is float

    def test_point_validation(self):
        with pytest.raises(ValueError, match="alpha="):
            run_protocol(np.array([0.1, 2.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="x="):
            run_protocol(np.array([0.1, 0.2]), np.array([0.5, np.nan]))
        for alpha, x in [
            (np.array([0.1, 0.2]), np.array([0.5])),
            (np.zeros((2, 2)), np.zeros((2, 2))),
            (np.array([]), np.array([])),
            (0.1, np.array([0.5, 0.5])),
        ]:
            with pytest.raises(ValueError, match="equal length"):
                run_protocol(alpha, x)

    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_one_read_equals_per_setting_reads(self, p):
        # the eight settings in one contraction read the bits of each setting read alone
        rho = _family_states(self.ALPHA, self.X)
        reference = 2.0 * np.trace(rho, axis1=1, axis2=2).real ** 2
        panel = _read_panel(rho, _noise_level(p)[0])
        assert list(panel) == list(PANEL_FIELDS)
        for name in PANEL_FIELDS:
            alone = np.einsum("abcd,nca,ndb->n", _observable(name, p), rho, rho).real / reference
            assert np.array_equal(panel[name].view(np.uint64), alone.view(np.uint64)), name

    def test_check_rejects_one_bad_point_in_a_stack(self):
        stack = np.array([_prepare(a, x)[0][0] for a, x in zip(self.ALPHA.tolist(), self.X.tolist())])
        _check_deviation(stack)
        cases = {
            "non-finite": (3, 5, np.nan),
            "trace drifted": (3, 3, 1e-6),
            "hermiticity": (2, 9, 1e-6),
        }
        for message, (i, j, delta) in cases.items():
            bad = stack.copy()
            bad[4, i, j] += delta
            with pytest.raises(RuntimeError, match=message):
                _check_deviation(bad)


@pytest.fixture
def cold_levels():
    """An empty noise-level cache before and after the test, so a patched read is what calibrates."""
    _noise_level.cache_clear()
    yield
    _noise_level.cache_clear()


def _patch_reference_reads(monkeypatch, ideal, noisy):
    """Make the calibration read ``ideal`` with the noiseless V_s stack and ``noisy`` with any other."""
    monkeypatch.setattr(expsim, "_read_panel", lambda rho, v: ideal if v is _noise_level(0.0)[0] else noisy)


def _over_rotated_observables(eps, own_direction):
    """The (8, 4, 4, 4, 4) V_s stack of the noiseless settings with the probe's two RY(+-pi/2) over-rotated by eps.

    With ``own_direction`` each rotation turns eps further in its own
    direction (pi/2 + eps, -pi/2 - eps); otherwise both angles shift by +eps.
    """
    stack = []
    for axis, which in _SETTINGS.values():
        gates = []
        for gate in _setting_gates(axis, which, 0.0):
            if gate[:2] == ("RY", _PROBE):
                angle = gate[2]
                gate = ("RY", _PROBE, angle + (math.copysign(eps, angle) if own_direction else eps))
            gates.append(gate)
        w = _pull_back(np.diag(_SZ_PROBE_DIAG).astype(complex), gates)
        stack.append((w[: DIM // 2, : DIM // 2] - w[DIM // 2 :, DIM // 2 :]).reshape(4, 4, 4, 4))
    return np.stack(stack)


class TestNoiseAndRescaling:
    NOISE = NoiseModel(0.01)

    def test_raw_strictly_attenuated_for_pure_panel(self):
        ideal = run_protocol(np.pi / 2, 1.0)
        noisy = run_protocol(np.pi / 2, 1.0, self.NOISE)
        for name in PANEL_FIELDS:
            assert noisy.raw[name] < ideal.raw[name]

    def test_rescaled_recovers_reference(self):
        ideal = run_protocol(np.pi / 2, 1.0)
        noisy = run_protocol(np.pi / 2, 1.0, self.NOISE)
        for name in PANEL_FIELDS:
            rel = abs(noisy.rescaled[name] - ideal.raw[name]) / ideal.raw[name]
            assert rel <= 0.02

    def test_rescaled_gap_smaller_on_alpha_sweep(self):
        for alpha in np.linspace(0.0, np.pi / 2, 5):
            panel = run_protocol(float(alpha), 1.0, self.NOISE)
            raw_lhs, raw_rhs = panel.relation_sides(use_raw=True)
            res_lhs, res_rhs = panel.relation_sides(use_raw=False)
            assert abs(res_lhs - res_rhs) < abs(raw_lhs - raw_rhs)

    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_calibration_matches_fresh_preparation_reference(self, p):
        noise = NoiseModel(p)
        factors = _noise_level(noise.p_depol)[1]
        for n in PANEL_FIELDS:
            expected = _forward_setting(np.pi / 2, 1.0, noise, n) / _forward_setting(np.pi / 2, 1.0, NoiseModel(), n)
            assert abs(factors[n] - expected) <= 1e-14

    def test_calibration_rejects_nan_factor(self, cold_levels, monkeypatch):
        # a measured attenuation of 0, below 0, NaN or inf is rejected, never divided out
        ideal = dict.fromkeys(PANEL_FIELDS, np.array([1.0]))
        for bad in (0.0, -0.5, np.nan, np.inf):
            _patch_reference_reads(monkeypatch, ideal, ideal | {"purity_AB": np.array([bad])})
            with pytest.raises(ValueError, match="attenuation factor for purity_AB"):
                run_protocol(np.pi / 2, 0.5, self.NOISE)

    def test_calibration_rejects_factor_off_closed_form(self, cold_levels, monkeypatch):
        # an unattenuated signal at p = 0.01, or one off (1 - p)**k by 1e-9 relative
        ideal = dict.fromkeys(PANEL_FIELDS, np.array([1.0]))
        exact = {name: np.array([0.99 ** len(which)]) for name, (_, which) in _SETTINGS.items()}
        for bad in (1.0, 0.99**2 * (1 + 1e-9)):
            _patch_reference_reads(monkeypatch, ideal, exact | {"purity_AB": np.array([bad])})
            with pytest.raises(ValueError, match="attenuation factor for purity_AB"):
                run_protocol(np.pi / 2, 0.5, self.NOISE)

    def test_exact_zero_read_at_p_one_is_rejected(self, cold_levels, monkeypatch):
        # a read of exactly 0 matches (1 - p)**k = 0 exactly, but nothing can be divided out
        _patch_reference_reads(monkeypatch, dict.fromkeys(PANEL_FIELDS, np.array([1.0])),
                               dict.fromkeys(PANEL_FIELDS, np.array([0.0])))
        for _ in range(2):  # a failed level is not cached: every call raises
            with pytest.raises(ValueError, match="attenuation factor for purity_AB is 0.0"):
                run_protocol(np.pi / 2, 0.5, NoiseModel(1.0))

    def test_calibration_runs_once_per_level(self, cold_levels, monkeypatch):
        reads = []
        monkeypatch.setattr(expsim, "_read_panel", lambda rho, v: reads.append(len(rho)) or _read_panel(rho, v))
        noise, alpha, x = NoiseModel(0.03), np.array([0.2, 0.4]), np.array([0.5, 1.0])
        first = run_protocol(alpha, x, noise)
        assert reads == [1, 1, 2]  # the reference, noiseless and noisy, then the points
        second = run_protocol(alpha, x, noise)
        assert reads == [1, 1, 2, 2]
        for name in PANEL_FIELDS:
            assert np.array_equal(first.rescaled[name], second.rescaled[name])

    def test_lost_signal_is_rejected(self):
        # at p = 1 every factor is 0 up to rounding: nothing can be divided out
        with pytest.raises(ValueError, match="attenuation factor for purity_AB"):
            run_protocol(np.pi / 2, 1.0, NoiseModel(1.0))
        with pytest.raises(ValueError, match="attenuation factor for purity_AB"):
            run_protocol(np.pi / 2, 0.5, NoiseModel(1.0))
        factors = _noise_level(0.99)[1]
        for name in PANEL_FIELDS:
            expected = 0.01 ** len(_SETTINGS[name][1])
            assert abs(factors[name] - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("p", [0.9999, 0.99999999])
    def test_rescaling_holds_near_p_one(self, tmp_path, p):
        # (1 - p) dev must not be formed as dev - p dev, which cancels here
        factors = _noise_level(p)[1]
        for name in PANEL_FIELDS:
            expected = (1.0 - p) ** len(_SETTINGS[name][1])
            assert abs(factors[name] - expected) <= TOL_STRUCTURAL * expected
        alpha = np.array([0.0, 0.0, np.pi / 2, np.pi / 2, 0.7])
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.3])
        ideal, noisy = run_protocol(alpha, x), run_protocol(alpha, x, NoiseModel(p))
        for name in PANEL_FIELDS:
            assert np.abs(noisy.rescaled[name] - ideal.raw[name]).max() <= 1e-12
        # and in the panel file that expsim writes for the last point
        from mubpurity.cli import main

        out = tmp_path / "panel.json"
        assert main(["expsim", "--alpha", "0.7", "--x", "0.3", "--noise", repr(p), "--out", str(out)]) == 0
        rescaled = json.loads(out.read_text())["rescaled"]
        assert sorted(rescaled) == sorted(PANEL_FIELDS)
        assert all(abs(rescaled[name] - ideal.raw[name][-1]) <= 1e-12 for name in PANEL_FIELDS)

    @pytest.mark.parametrize("own_direction", [True, False], ids=["each-own-direction", "both-plus"])
    @pytest.mark.parametrize("eps", [0.01, 0.05])
    def test_rescaling_misses_probe_over_rotation_by_eps_squared(self, eps, own_direction):
        # rescaling is exact for probe depolarization only: an over-rotated probe pulse leaves a
        # state-independent offset that no division by the reference's attenuation removes.
        # Probe angles pi/2 + e1 and -pi/2 + e2 read a P + b, a = cos e1 cos e2, b = -sin e1 sin e2,
        # so rescaling by the reference misses by b (P_ref - P) / (a P_ref + b), largest on the grid
        # at P_ref = 1/2, |P_ref - P| = 1/2: sin^2 eps / (cos^2 eps -+ 2 sin^2 eps), - for both-plus
        alpha, x = np.meshgrid(np.linspace(0.0, np.pi / 2, 7), np.linspace(0.0, 1.0, 7))
        rho, reference = _family_states(alpha.ravel(), x.ravel()), _family_states(np.pi / 2, 1.0)
        ideal_observables, observables = _noise_level(0.0)[0], _over_rotated_observables(eps, own_direction)
        ideal, measured = _read_panel(rho, ideal_observables), _read_panel(rho, observables)
        ideal_ref, measured_ref = _read_panel(reference, ideal_observables), _read_panel(reference, observables)
        error = max(np.abs(measured[name] / (measured_ref[name][0] / ideal_ref[name][0]) - ideal[name]).max()
                    for name in PANEL_FIELDS)
        sin2, cos2 = math.sin(eps) ** 2, math.cos(eps) ** 2
        exact = sin2 / (cos2 + 2 * sin2 if own_direction else cos2 - 2 * sin2)
        assert abs(error - exact) <= 1e-10 * exact

    def test_noiseless_factors_are_one(self):
        assert _noise_level(NoiseModel().p_depol)[1] == {name: 1.0 for name in PANEL_FIELDS}

    def test_noise_level_is_a_python_float(self):
        zero = NoiseModel(-0.0).p_depol
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        p = NoiseModel(np.float32(0.1)).p_depol
        assert type(p) is float and p == float(np.float32(0.1))

    @pytest.mark.parametrize("p", ["0.5", True])
    def test_bool_or_non_real_noise_rejected(self, p):
        with pytest.raises(ValueError, match="p_depol"):
            NoiseModel(p)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        with pytest.raises(ValueError):
            NoiseModel(1.5)
        assert NoiseModel(0.3).p_depol == 0.3 and NoiseModel(0.0).p_depol == NoiseModel().p_depol == 0.0
        with pytest.raises(TypeError):
            NoiseModel(0.3, enabled=False)  # noise is on exactly when p_depol > 0
