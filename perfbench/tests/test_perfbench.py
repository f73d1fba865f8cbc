"""Self-test of the benchmark harness on tiny runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import mubpurity.cli  # noqa: E402
import mubpurity.relations  # noqa: E402
import workloads  # noqa: E402
from mubpurity.expsim import PurityPanel  # noqa: E402

WORKLOADS = ("verify", "sweep-sim", "crosscheck")
TINY_SECONDS = "0.5"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace, seed=3):
    """Run the benchmark in-process; return (record, result, text)."""
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", TINY_SECONDS, "--trace", str(trace)]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    return record, json.loads(lines[-1]), text


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(capsys, workload, trace):
    _, result, text = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.endswith(" " + value["unit"])
                   for line in text.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest_and_counts(capsys, workload):
    first_record, first, _ = bench(capsys, workload, 1)
    second_record, second, _ = bench(capsys, workload, 1)
    assert first_record["digest_sha256"] == second_record["digest_sha256"]
    assert first_record["untraced_digest"] == first_record["digest_sha256"]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in (first, second)]
    assert counts[0] == counts[1]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first_record["trace_completeness"] == "ok"


def test_verify_pinches_twice_per_state(capsys):
    # relation_report and gamma_direct each pinch every state in all M bases;
    # ROADMAP item 2 removes the second pinch, which moves this to 1.
    _, result, _ = bench(capsys, "verify", 1)
    metrics = result["metrics"]
    assert metrics["relations.post_measurement_state.calls"]["value"] > 0
    assert metrics["relations.pinch_per_state"]["value"] == 2.0


def test_wrong_projector_route_counts_as_failed(capsys, monkeypatch):
    right = mubpurity.relations.gamma_via_projector
    monkeypatch.setattr(mubpurity.relations, "gamma_via_projector",
                        lambda rho, basis: right(rho, basis) + 1e-6)
    record, result, _ = bench(capsys, "crosscheck", 0)
    assert result["failed"] == result["attempted"]
    assert record["error_rate"] == 1.0
    assert all(any(f.startswith("gamma_routes:") for f in c["failures"]) for c in record["failed_calls"])


def test_route_mismatch_outside_the_known_defect_is_incorrect(monkeypatch, tmp_path):
    right = mubpurity.relations.gamma_via_projector
    monkeypatch.setattr(mubpurity.relations, "gamma_via_projector",
                        lambda rho, basis: right(rho, basis) + 1e-6)
    cross = workloads.CROSSCHECK
    spec = {"d": 5, "m": 2, "big_d": 2, "states": [(3, 1)]}
    checked = cross.check(spec, cross.execute(spec, tmp_path))
    assert checked.failures and not checked.known_defect


def test_wrong_panel_counts_as_failed(capsys, monkeypatch):
    right = mubpurity.cli.run_protocol

    def off_by_five_percent(*args, **kwargs):
        panel = right(*args, **kwargs)
        shifted = {k: v + 0.05 for k, v in panel.raw.items()}
        return PurityPanel(panel.alpha, panel.x, panel.noise_p, shifted, shifted)

    monkeypatch.setattr(mubpurity.cli, "run_protocol", off_by_five_percent)
    record, result, _ = bench(capsys, "sweep-sim", 0)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert record["error_rate"] == 1.0


@pytest.mark.parametrize("n", (11, 12, 20, 46, 70, 84, 88, 200))
def test_tail_percentile_leaves_ten_calls_above(n):
    q = run.tail_percentile(n)
    values = np.arange(n, dtype=float)
    above = lambda p: int((values > np.percentile(values, p)).sum())  # noqa: E731
    assert above(q) >= run.TAIL_BEYOND
    assert above(q + 1) < run.TAIL_BEYOND


def test_fails_without_printing_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
