import numpy as np
import pytest

from mubpurity import expsim
from mubpurity.expsim import (
    DIM,
    N_QUBITS,
    NOISELESS,
    PANEL_FIELDS,
    CircuitState,
    NoiseModel,
    _depolarize,
    apply_gate,
    calibration_factors,
    mub_measure_block,
    prepare_pair_state,
    rescale,
    run_protocol,
    swap_test_readout,
)
from mubpurity.linalg import PAULI_X, PAULI_Z, partial_trace_matrix, purity
from mubpurity.mub import construct_mubs
from mubpurity.relations import post_measurement_state, relation_report
from mubpurity.states import rho_family

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


def _fresh_state(dev):
    return CircuitState(np.asarray(dev, dtype=complex))


def _pair_deviation(rho_ab, rho_ab2=None):
    rho_ab2 = rho_ab if rho_ab2 is None else rho_ab2
    return np.kron(PAULI_Z, np.kron(rho_ab, rho_ab2))


def _ab_marginal(dev):
    """AB state of a register before readout: probe-ground block traced over A'B'."""
    block = np.asarray(dev)[: DIM // 2, : DIM // 2]
    return partial_trace_matrix(block, (2, 2, 2, 2), keep=(0, 1))


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


# Per-setting reference: a fresh preparation for every panel entry.
_SETTINGS = {
    "purity_AB": (None, "AB"),
    "purity_xB": ("x", "AB"),
    "purity_yB": ("y", "AB"),
    "purity_zB": ("z", "AB"),
    "purity_B": (None, "B"),
    "purity_B_given_x": ("x", "B"),
    "purity_B_given_y": ("y", "B"),
    "purity_B_given_z": ("z", "B"),
}


def _fresh_setting(alpha, x, noise, name):
    axis, which = _SETTINGS[name]
    state = prepare_pair_state(alpha, x, noise)
    if axis is not None:
        mub_measure_block(state, axis, both_copies=True)
    return swap_test_readout(state, which)


class TestGates:
    def test_ry_pi_twice_is_identity(self):
        dev = _pair_deviation(rho_family(0.7, 0.8).matrix)
        state = _fresh_state(dev)
        apply_gate(state, ("RY", 1, np.pi))
        apply_gate(state, ("RY", 1, np.pi))
        assert np.abs(state.deviation - dev).max() <= 1e-12

    def test_cswap_control_zero_is_identity(self):
        # probe in |0><0| deviation-like block: build a traceless test
        # operator with no probe-|1> support on the swapped pair
        block = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        dev = np.kron(np.diag([1.0, 0.0]), np.kron(block, np.eye(4) / 4))
        dev = dev - np.trace(dev) * np.eye(DIM) / DIM
        state = _fresh_state(dev)
        before = state.deviation.copy()
        apply_gate(state, ("CSWAP", 0, 1, 2))
        # control bit 0 sector untouched
        assert np.abs(state.deviation[:16, :16] - before[:16, :16]).max() <= 1e-14

    def test_dephase_kills_x_keeps_z(self):
        # deviation with a sigma_x component on qubit 1 and sigma_z on qubit 2
        rest = np.eye(8) / 8
        dev = np.kron(PAULI_Z, np.kron(PAULI_X, rest)) + np.kron(
            PAULI_Z, np.kron(PAULI_Z, rest)
        )
        state = _fresh_state(dev)
        apply_gate(state, ("DEPHASE", 1))
        expected = np.kron(PAULI_Z, np.kron(PAULI_Z, rest))
        assert np.abs(state.deviation - expected).max() <= 1e-14

    def test_unitary_preserves_purity_dephase_contracts(self):
        state = prepare_pair_state(np.pi / 3, 0.6)
        before = purity(state.deviation)
        apply_gate(state, ("RY", 2, 0.4))
        apply_gate(state, ("RX", 3, -1.1))
        apply_gate(state, ("CSWAP", 0, 1, 3))
        assert abs(purity(state.deviation) - before) <= 1e-12
        apply_gate(state, ("DEPHASE", 1))
        assert purity(state.deviation) <= before + 1e-12

    def test_trace_stays_zero(self):
        state = prepare_pair_state(np.pi / 2, 0.5, NoiseModel(0.05, enabled=True))
        for gate in [("RY", 0, np.pi / 2), ("CSWAP", 0, 1, 3), ("DEPHASE", 2), ("RX", 4, 0.3)]:
            apply_gate(state, gate)
            assert abs(np.trace(state.deviation)) <= 1e-12

    def test_bad_qubit_index(self):
        state = prepare_pair_state(0.0, 1.0)
        with pytest.raises(ValueError):
            apply_gate(state, ("RY", 5, 0.1))
        with pytest.raises(ValueError):
            apply_gate(state, ("CSWAP", 0, 1, 1))
        with pytest.raises(ValueError):
            apply_gate(state, ("HADAMARD", 0))

    def test_gate_log(self):
        state = prepare_pair_state(np.pi / 2, 1.0, NoiseModel(0.01, enabled=True))
        apply_gate(state, ("CSWAP", 0, 2, 4))
        apply_gate(state, ("RY", 1, np.pi / 2))
        apply_gate(state, ("DEPHASE", 3))
        swap_test_readout(state, "B")
        assert state.gate_log[:2] == [("PREPARE", np.pi / 2, 1.0), ("BRANCH", "pure,pure", 1.0)]
        assert state.gate_log[2:7] == [
            ("CSWAP", 0, 2, 4),
            ("DEPOL", 0, 0.01),
            ("DEPOL", 2, 0.01),
            ("DEPOL", 4, 0.01),
            ("RY", 1, np.pi / 2),
        ]
        assert state.gate_log[7] == ("DEPHASE", 3)
        assert state.gate_log[-1] == ("READ", "B")
        assert all(isinstance(entry, tuple) for entry in state.gate_log)

    @pytest.mark.parametrize("qubits", [(0, 1, 3), (0, 2, 4), (2, 0, 4), (4, 3, 1)])
    def test_cswap_matches_dense_unitary(self, qubits):
        dev = _random_deviation(sum(qubits))
        state = _fresh_state(dev)
        apply_gate(state, ("CSWAP",) + qubits)
        u = _cswap_reference(*qubits)
        assert np.array_equal(u @ u.T, np.eye(DIM))
        assert np.array_equal(state.deviation, u @ dev @ u.T)

    @pytest.mark.parametrize("qubit", range(N_QUBITS))
    def test_depolarize_matches_slice_loop(self, qubit):
        dev = _random_deviation(10 + qubit)
        for p in (0.0, 0.05, 1.0):
            assert np.array_equal(_depolarize(dev, qubit, p), _depolarize_reference(dev, qubit, p))

    def test_nan_angle_rejected(self):
        state = prepare_pair_state(np.pi / 2, 1.0)
        with pytest.raises(RuntimeError):
            apply_gate(state, ("RY", 1, float("nan")))

    def test_non_finite_deviation_rejected(self):
        with pytest.raises(RuntimeError):
            CircuitState(np.full((DIM, DIM), np.nan))
        dev = np.zeros((DIM, DIM), dtype=complex)
        dev[0, 1] = dev[1, 0] = np.inf
        with pytest.raises(RuntimeError):
            CircuitState(dev)


class TestPrepare:
    def test_x_one_single_branch(self):
        state = prepare_pair_state(np.pi / 4, 1.0)
        rho = rho_family(np.pi / 4, 1.0).matrix
        assert np.abs(state.deviation - _pair_deviation(rho)).max() <= 1e-10
        assert sum(e[0] == "BRANCH" for e in state.gate_log) == 1

    def test_x_zero_identity_branch(self):
        state = prepare_pair_state(np.pi / 2, 0.0)
        expected = np.kron(PAULI_Z, np.eye(16) / 16)
        assert np.abs(state.deviation - expected).max() <= 1e-10
        assert sum(e[0] == "BRANCH" for e in state.gate_log) == 1

    def test_intermediate_x_four_branches(self):
        state = prepare_pair_state(np.pi / 2, 0.5)
        rho = rho_family(np.pi / 2, 0.5).matrix
        assert np.abs(state.deviation - _pair_deviation(rho)).max() <= 1e-10
        assert sum(e[0] == "BRANCH" for e in state.gate_log) == 4
        assert np.abs(_ab_marginal(state.deviation) - rho).max() <= 1e-10

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            prepare_pair_state(-0.1, 0.5)
        with pytest.raises(ValueError):
            prepare_pair_state(0.1, 1.5)


class TestMeasureBlock:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_matches_analytic_pinch(self, axis):
        for alpha, x in [(np.pi / 2, 1.0), (np.pi / 3, 0.6), (0.0, 1.0)]:
            state = prepare_pair_state(alpha, x)
            mub_measure_block(state, axis, both_copies=True)
            expected = post_measurement_state(
                rho_family(alpha, x), MUBS, AXIS_TO_THETA[axis]
            ).matrix
            assert np.abs(_ab_marginal(state.deviation) - expected).max() <= 1e-10

    def test_x_block_halves_product_purity(self):
        rho_b = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        pair = np.kron(np.diag([1.0, 0.0]).astype(complex), rho_b)
        state = _fresh_state(_pair_deviation(pair))
        before = purity(pair)
        mub_measure_block(state, "x")
        after = purity(_ab_marginal(state.deviation))
        assert abs(after - before / 2) <= 1e-10

    def test_y_equals_x_for_singlet_family(self):
        for x in (0.25, 0.75):
            sx = prepare_pair_state(np.pi / 2, x)
            sy = prepare_pair_state(np.pi / 2, x)
            mub_measure_block(sx, "x")
            mub_measure_block(sy, "y")
            px = purity(_ab_marginal(sx.deviation))
            py = purity(_ab_marginal(sy.deviation))
            assert abs(px - py) <= 1e-10

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            mub_measure_block(prepare_pair_state(0.0, 1.0), "w")


class TestSwapTestReadout:
    def test_pure_pair(self):
        assert abs(swap_test_readout(prepare_pair_state(np.pi / 2, 1.0), "AB") - 1.0) <= 1e-10

    def test_maximally_mixed_pair(self):
        # overlap of two maximally mixed two-qubit states: Tr((I4/4)^2) = 1/4
        value = swap_test_readout(prepare_pair_state(np.pi / 2, 0.0), "AB")
        assert abs(value - 0.25) <= 1e-10

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_b_marginal_readout(self, x):
        value = swap_test_readout(prepare_pair_state(np.pi / 2, x), "B")
        assert abs(value - 0.5) <= 1e-10

    def test_unequal_copies_overlap(self):
        rho1 = rho_family(np.pi / 2, 1.0).matrix
        rho2 = rho_family(np.pi / 2, 0.0).matrix
        state = _fresh_state(_pair_deviation(rho1, rho2))
        value = swap_test_readout(state, "AB")
        assert abs(value - np.trace(rho1 @ rho2).real) <= 1e-10

    def test_bad_which(self):
        with pytest.raises(ValueError):
            swap_test_readout(prepare_pair_state(0.0, 1.0), "C")


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
        # one shared register must give exactly what a fresh one per setting gives
        noise = NoiseModel(p, enabled=p > 0.0)
        for alpha, x in [(np.pi / 2, 1.0), (np.pi / 5, 0.3), (0.0, 0.0), (1.1, 0.85)]:
            panel = run_protocol(alpha, x, noise, calibration={n: 1.0 for n in PANEL_FIELDS})
            assert panel.raw == {n: _fresh_setting(alpha, x, noise, n) for n in PANEL_FIELDS}

    def test_json_schema(self):
        obj = run_protocol(np.pi / 2, 1.0).to_json()
        assert set(obj) == {"alpha", "x", "noise_p", "raw", "rescaled"}
        assert tuple(obj["raw"]) == PANEL_FIELDS


class TestNoiseAndRescaling:
    NOISE = NoiseModel(0.01, enabled=True)

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
        cal = calibration_factors(self.NOISE)
        for alpha in np.linspace(0.0, np.pi / 2, 5):
            panel = run_protocol(float(alpha), 1.0, self.NOISE, calibration=cal)
            raw_lhs, raw_rhs = panel.relation_sides(use_raw=True)
            res_lhs, res_rhs = panel.relation_sides(use_raw=False)
            assert abs(res_lhs - res_rhs) < abs(raw_lhs - raw_rhs)

    def test_identity_calibration_passthrough(self):
        raw = {name: 0.5 for name in PANEL_FIELDS}
        assert rescale(raw, {name: 1.0 for name in PANEL_FIELDS}) == raw

    def test_rescale_rejects_bad_factor(self):
        raw = {name: 0.5 for name in PANEL_FIELDS}
        for bad in (0.0, -0.5, float("nan"), float("inf")):
            factors = {name: 1.0 for name in PANEL_FIELDS}
            factors["purity_AB"] = bad
            with pytest.raises(ValueError):
                rescale(raw, factors)

    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_calibration_matches_fresh_preparation_reference(self, p):
        noise = NoiseModel(p, enabled=p > 0.0)
        expected = {
            n: _fresh_setting(np.pi / 2, 1.0, noise, n) / _fresh_setting(np.pi / 2, 1.0, NOISELESS, n)
            for n in PANEL_FIELDS
        }
        assert calibration_factors(noise) == expected

    def test_calibration_rejects_nan_factor(self, monkeypatch):
        monkeypatch.setattr(expsim, "swap_test_readout", lambda state, which="AB": float("nan"))
        with pytest.raises(ValueError):
            calibration_factors(self.NOISE)

    def test_noiseless_factors_are_one(self):
        assert calibration_factors(NOISELESS) == {name: 1.0 for name in PANEL_FIELDS}

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        with pytest.raises(ValueError):
            NoiseModel(1.5, enabled=True)
        assert not NoiseModel(0.3, enabled=False).active
