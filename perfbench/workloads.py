"""The three benchmark workloads: inputs from a seed, calls, and checks.

Each workload is one closed loop: a single caller issues a call, waits for
it, checks its output and issues the next. A call goes through a public
entry point, looked up at call time so that the tracer's wrappers apply:
``mubpurity.cli.main(argv)`` in-process for ``verify`` and ``sweep-sim``,
and the library functions for ``crosscheck``. Only ``execute`` is timed;
the checks and the output digest run after the clock stops.

Failed checks are returned, never raised: one failed call must not stop
the run. A workload may name a *known defect*, a failure recorded in
``NOTES.md`` whose cause is understood; it still counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mubpurity import cli, mub, relations, states
from mubpurity.tolerances import TOL_SPECTRAL, TOL_STRUCTURAL

# Acceptance-test tolerances of the simulated panel: criterion 7 (noiseless,
# absolute) and criterion 8 (noisy after rescaling, relative).
PANEL_TOL_NOISELESS = 1e-10
PANEL_TOL_RESCALED_REL = 2e-2


@dataclass(frozen=True)
class Checked:
    """The outcome of checking one call."""

    failures: tuple[str, ...]  # "<check>: <detail>" for each failed check
    output: bytes  # deterministic outputs, fed to the run digest
    known_defect: bool = False  # every failure is the workload's recorded defect


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``plan(seed, n)`` returns the inputs of ``n`` calls. ``execute(spec,
    workdir)`` makes one call and returns what it produced; ``check(spec,
    produced)`` judges it. ``units(spec)`` is the work units a call does and
    ``pinch_base(spec)`` the states times M it evaluates. A round is
    ``round_calls`` calls and takes about ``round_seconds`` (single-thread
    OpenBLAS on a 2-core x86-64 container); runs are sized in whole rounds
    so that every run covers the same mix of inputs.
    """

    name: str
    plan: Callable[[int, int], list[dict]]
    execute: Callable[[dict, Path], object]
    check: Callable[[dict, object], Checked]
    units: Callable[[dict], int]
    pinch_base: Callable[[dict], int]
    warm_spec: dict
    round_calls: int
    round_seconds: float
    expected_spans: tuple[str, ...]

    def n_calls(self, seconds: float) -> int:
        rounds = seconds / self.round_seconds
        if rounds < 0.5:  # a short run (the self-test) takes part of a round
            return max(1, round(rounds * self.round_calls))
        return self.round_calls * max(1, round(rounds))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code
    return rc, buf.getvalue()


# -- verify -------------------------------------------------------------
# M cycles over 2..8 at d = D = 7, so both the PSD branch (M <= 7) and the
# complete-set equality branch (M = 8) run.

VERIFY_D = 7
VERIFY_TRIALS = 15


def _verify_plan(seed: int, n: int) -> list[dict]:
    seeds = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [{"m": 2 + i % VERIFY_D, "seed": int(s), "trials": VERIFY_TRIALS} for i, s in enumerate(seeds)]


def _verify_execute(spec: dict, workdir: Path):
    return _run_cli([
        "verify", "--d", str(VERIFY_D), "--big-d", str(VERIFY_D), "--m", str(spec["m"]),
        "--trials", str(spec["trials"]), "--seed", str(spec["seed"]),
    ])


def _verify_check(spec: dict, produced) -> Checked:
    rc, text = produced
    failures = []
    if rc != 0:
        failures.append(f"exit: code {rc}")
    lines = text.splitlines()
    if not lines or lines[-1] != "all checks passed":
        failures.append(f"report: last line {lines[-1] if lines else ''!r}")
    return Checked(tuple(failures), text.encode())


VERIFY = Workload(
    name="verify",
    plan=_verify_plan,
    execute=_verify_execute,
    check=_verify_check,
    units=lambda spec: spec["trials"],
    pinch_base=lambda spec: spec["trials"] * spec["m"],
    warm_spec={"m": 2, "seed": 0, "trials": 1},
    round_calls=7,
    round_seconds=1.8,
    expected_spans=(
        "cli.main", "mub.construct_mubs", "mub.validate_mubs",
        "relations.build_bipartite_basis", "relations.check_pt_identities",
        "relations.post_measurement_state", "relations.gamma_direct",
        "relations.relation_report", "linalg.DensityMatrix",
        "linalg.partial_trace_matrix", "linalg.partial_transpose", "linalg.purity",
        "linalg.hermitian_eigenvalues", "states.random_density",
    ),
)


# -- sweep-sim ----------------------------------------------------------
# Runs alternate the swept parameter and, every second pair, the noise, so
# half the runs skip calibration and depolarizing. The seed draws the sweep
# range and the value of the other parameter.

SWEEP_STEPS = 21
SWEEP_NOISE = ("0", "0.01")


def _sweep_plan(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        param = ("alpha", "x")[i % 2]
        hi, other_hi = (math.pi / 2, 1.0) if param == "alpha" else (1.0, math.pi / 2)
        specs.append({
            "param": param,
            "noise": SWEEP_NOISE[(i // 2) % 2],
            "from": float(rng.uniform(0.0, 0.1) * hi),
            "to": float(rng.uniform(0.9, 1.0) * hi),
            "fixed": float(rng.uniform(0.1, 1.0) * other_hi),
            "steps": SWEEP_STEPS,
        })
    return specs


def _sweep_execute(spec: dict, workdir: Path):
    out = workdir / "sweep.csv"
    rc, _ = _run_cli([
        "sweep", "--param", spec["param"], "--from", repr(spec["from"]),
        "--to", repr(spec["to"]), "--fixed", repr(spec["fixed"]),
        "--steps", str(spec["steps"]), "--simulate", "--noise", spec["noise"],
        "--out", str(out),
    ])
    return rc, out.read_bytes() if rc == 0 else b""


def _sweep_check(spec: dict, produced) -> Checked:
    rc, data = produced
    if rc != 0:
        return Checked((f"exit: code {rc}",), data)
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    failures = []
    if len(rows) != spec["steps"]:
        failures.append(f"rows: {len(rows)} != {spec['steps']}")
    noiseless = float(spec["noise"]) == 0.0
    worst_rescaled = worst_raw = 0.0
    for row in rows:
        # Pinching A leaves rho_B unchanged, so Tr rho_B^2 is the analytic
        # value of every B-after-pinch purity.
        analytic = {f"purity_{k}": float(row[f"purity_{k}"]) for k in ("AB", "xB", "yB", "zB", "B")}
        analytic.update({f"purity_B_given_{ax}": analytic["purity_B"] for ax in "xyz"})
        for name, want in analytic.items():
            rescaled = float(row[f"rescaled_{name}"])
            if noiseless:
                worst_rescaled = max(worst_rescaled, abs(rescaled - want))
                worst_raw = max(worst_raw, abs(float(row[f"raw_{name}"]) - want))
            else:
                worst_rescaled = max(worst_rescaled, abs(rescaled - want) / want)
    if noiseless:
        if not worst_rescaled <= PANEL_TOL_NOISELESS:
            failures.append(f"rescaled: max |rescaled - analytic| = {worst_rescaled:.3e}")
        if not worst_raw <= PANEL_TOL_NOISELESS:
            failures.append(f"raw: max |raw - analytic| = {worst_raw:.3e}")
    elif not worst_rescaled <= PANEL_TOL_RESCALED_REL:
        failures.append(f"rescaled: max relative error {worst_rescaled:.3e}")
    return Checked(tuple(failures), data)


SWEEP_SIM = Workload(
    name="sweep-sim",
    plan=_sweep_plan,
    execute=_sweep_execute,
    check=_sweep_check,
    units=lambda spec: spec["steps"],
    pinch_base=lambda spec: spec["steps"] * 3,  # the two-qubit family has M = 3
    warm_spec={"param": "x", "noise": "0", "from": 0.0, "to": 1.0, "fixed": 1.0, "steps": 2},
    round_calls=4,
    round_seconds=1.0,
    expected_spans=(
        "cli.main", "mub.construct_mubs", "relations.post_measurement_state",
        "relations.relation_report", "linalg.DensityMatrix",
        "linalg.partial_trace_matrix", "linalg.purity", "linalg.hermitian_eigenvalues",
        "states.rho_family", "expsim.prepare_pair_state", "expsim.mub_measure_block",
        "expsim.swap_test_readout", "expsim.apply_gate.RY", "expsim.apply_gate.RX",
        "expsim.apply_gate.CSWAP", "expsim.apply_gate.DEPHASE",
        "expsim.calibration_factors", "expsim.run_protocol",
    ),
)


# -- crosscheck ---------------------------------------------------------
# A round visits every (d, M), d in {5, 7, 11} and M in [2, d+1], in an
# order drawn from the seed. For d = 5 and 7 each M runs at both D = 2 and
# D = d. At d = 11 the projector route costs ~0.4 s per state at D = d, so
# there D = d for even M <= d and D = 2 otherwise: the passing M = 2 still
# meets D = d and M = d + 1 meets D = 2. Every seed runs the same mix of
# sizes, so the rate does not depend on the seed, and the median call falls
# inside the d = 7 cases rather than on the step up to d = 11. The seed
# draws the order, the ranks and the states.

CROSS_SHAPES = tuple(
    (d, m, big_d)
    for d in (5, 7, 11)
    for m in range(2, d + 2)
    for big_d in ((2, d) if d < 11 else (d if m % 2 == 0 and m <= d else 2,))
)
CROSS_STATES = 2


def projector_defect_expected(d: int, m: int) -> bool:
    """Where gamma_via_projector is known to be wrong (see NOTES.md).

    ``build_bipartite_basis`` stores the complex conjugate of the complement
    projector, which differs from it unless the MUB subset is closed under
    conjugation: for odd prime d that fails for 3 <= M <= d.
    """
    return d % 2 == 1 and 3 <= m <= d


def _cross_plan(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    specs: list[dict] = []
    while len(specs) < n:
        for k in rng.permutation(len(CROSS_SHAPES)):
            d, m, big_d = CROSS_SHAPES[k]
            ranks = rng.integers(1, d * big_d + 1, size=CROSS_STATES)
            seeds = rng.integers(0, 2**63, size=CROSS_STATES)
            specs.append({
                "d": d, "m": m, "big_d": big_d,
                "states": [(int(r), int(s)) for r, s in zip(ranks, seeds)],
            })
    return specs[:n]


def _cross_execute(spec: dict, workdir: Path):
    d, m, big_d = spec["d"], spec["m"], spec["big_d"]
    path = workdir / "mubs.json"
    mub.save_mubs(mub.construct_mubs(d, m), path)
    mubs = mub.load_mubs(path)
    basis = relations.build_bipartite_basis(mubs)
    pt = relations.check_pt_identities(basis)
    gammas = []
    for rank, seed in spec["states"]:
        rho = states.random_density(d * big_d, rank, seed, dims=(d, big_d))
        gammas.append((
            rho.matrix,
            relations.gamma_direct(rho, mubs),
            relations.gamma_via_projector(rho, basis),
        ))
    return path.read_bytes(), pt.max_deviation, gammas


def _cross_check(spec: dict, produced) -> Checked:
    mub_file, pt_dev, gammas = produced
    failures = []
    if not pt_dev <= TOL_STRUCTURAL:
        failures.append(f"pt: deviation {pt_dev:.3e}")
    route_diff = 0.0
    min_gap = math.inf
    parts = [mub_file, repr(pt_dev).encode()]
    for rho, g_direct, g_proj in gammas:
        route_diff = max(route_diff, float(np.abs(g_direct - g_proj).max()))
        # The relation gap equals Tr(gamma rho).
        min_gap = min(min_gap, float(np.sum(g_direct * rho.T).real))
        parts += [g_direct.tobytes(), g_proj.tobytes()]
    if not min_gap >= -TOL_SPECTRAL:
        failures.append(f"gap: {min_gap:.3e}")
    if not route_diff <= TOL_SPECTRAL:
        failures.append(f"gamma_routes: max |direct - projector| = {route_diff:.3e}")
    known = (
        projector_defect_expected(spec["d"], spec["m"])
        and all(f.startswith("gamma_routes:") for f in failures)
    )
    return Checked(tuple(failures), b"".join(parts), known_defect=known)


CROSSCHECK = Workload(
    name="crosscheck",
    plan=_cross_plan,
    execute=_cross_execute,
    check=_cross_check,
    units=lambda spec: len(spec["states"]),
    pinch_base=lambda spec: len(spec["states"]) * spec["m"],
    warm_spec={"d": 5, "m": 3, "big_d": 2, "states": [(2, 0)]},
    round_calls=len(CROSS_SHAPES),
    round_seconds=10.0,
    expected_spans=(
        "mub.construct_mubs", "mub.validate_mubs", "mub.save_mubs", "mub.load_mubs",
        "relations.build_bipartite_basis", "relations.check_pt_identities",
        "relations.post_measurement_state", "relations.gamma_direct",
        "relations.gamma_via_projector", "linalg.DensityMatrix",
        "linalg.partial_trace_matrix", "linalg.partial_transpose",
        "states.random_density",
    ),
)


WORKLOADS = {w.name: w for w in (VERIFY, SWEEP_SIM, CROSSCHECK)}


def warm_up(name: str, workdir: str) -> None:
    """One small call of the workload; the set-up probe ends with it."""
    workload = WORKLOADS[name]
    workload.execute(workload.warm_spec, Path(workdir))
