"""Benchmark of the mubpurity package: end-to-end metrics or a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {verify,sweep-sim,crosscheck} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout. The amount of
work is fixed by ``--seconds`` (through each workload's nominal rate), so a
seed gives the same calls, call counts and outputs on every run. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs the same calls untraced and then traced, and reports the per-layer
metrics of the traced pass. The last line of standard output is the JSON
result; the lines before it give provenance, the output digest and each
metric with its unit. See NOTES.md for the workloads and the metrics.
"""

import os

# BLAS is pinned to one thread before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"  # scratch files and the traced run's spans
PASSES = 3  # repetitions of the plan in an end-to-end run
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # calls that must lie above the reported tail percentile
REFERENCE_MS = 13.0  # the gauge's kernel time, typical on the 2-core calibration machine

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "call_ms.p50": "ms",
    "call_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}
RATIO_METRICS = ("relations.pinch_per_state", "expsim.prepare_per_panel", "trace.overhead_frac")


def load_package():
    """Import mubpurity from this checkout's ``src``; exit 1 if it is not there."""
    if not (SRC / "mubpurity" / "__init__.py").is_file():
        sys.exit(f"error: no mubpurity sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import mubpurity

    if SRC.resolve() not in Path(mubpurity.__file__).resolve().parents:
        sys.exit(f"error: mubpurity was imported from {mubpurity.__file__}, not {SRC}")
    return mubpurity


def per_layer_units() -> dict[str, str]:
    from tracer import span_names

    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


class SpeedGauge:
    """Rescales wall times by the machine's current speed.

    The machine is shared and its speed drifts: a fixed kernel's time varies
    by up to 2x within a minute, and kinds of work slow down by different
    amounts. The gauge times a fixed reference kernel when it is created and
    after every timed call. ``scale`` divides a call's wall time by the mean
    of the kernel times just before and just after it, and multiplies by
    REFERENCE_MS, which cancels most of the drift. The kernel mixes the kinds
    of work the package does: interpreted Python, small numpy calls, LAPACK
    and BLAS on small complex matrices (about 1.5 ms each), and a complex
    matrix product too large for the L2 cache (about half the kernel's time),
    which tracks the d = D = 11 projector route.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self._hermitian = a + a.conj().T
        self._small = np.eye(4) * (1 + 0.5j)
        self._medium = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._large = rng.standard_normal((320, 320)) + 1j * rng.standard_normal((320, 320))
        self._before = self.reference_seconds()

    def reference_seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            total = 0
            for i in range(3000):
                total += i * i
            for _ in range(8):
                np.kron(self._small, self._small).trace()
            np.linalg.eigvalsh(self._hermitian)
            self._hermitian @ self._hermitian
        for _ in range(3):
            self._medium @ self._medium
        self._large @ self._large
        return time.perf_counter() - start

    def scale(self, wall_seconds: float) -> float:
        """Call right after the timed call ends."""
        after = self.reference_seconds()
        reference = (self._before + after) / 2
        self._before = after
        return wall_seconds * REFERENCE_MS / 1e3 / reference


@dataclass
class RunResult:
    wall_seconds: list[float] = field(default_factory=list)  # every execution
    call_seconds: list[float] = field(default_factory=list)  # the same, normalised
    units: int = 0  # over all passes
    pinch_base: int = 0  # over all passes
    failed: int = 0
    unexpected: int = 0
    failures: list[dict] = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.call_seconds)

    @property
    def units_per_s(self) -> float:
        return self.units / sum(self.call_seconds)


def _check(workload, spec, produced):
    """Judge one call; returns (failures, known_defect, output)."""
    if isinstance(produced, Exception):
        return (f"raised: {produced!r}",), False, b""
    try:
        checked = workload.check(spec, produced)
    except Exception as exc:  # a broken check is a failed call, not a crash
        traceback.print_exc()
        return (f"check raised: {exc!r}",), False, b""
    return checked.failures, checked.known_defect, checked.output


def run_workload(workload, seed: int, n_calls: int, workdir: Path, passes: int, tracer=None) -> RunResult:
    """Issue the planned calls one after another, ``passes`` times over.

    Every execution is a timed sample and is checked; a repeat must also
    give the same output bytes as the first pass. Passes keep every run to
    whole rounds of the plan while spreading each input's samples over the
    run, across the slow and fast spells of a shared machine.
    """
    specs = workload.plan(seed, n_calls)
    result = RunResult()
    result.units = passes * sum(workload.units(spec) for spec in specs)
    result.pinch_base = passes * sum(workload.pinch_base(spec) for spec in specs)
    first_outputs: list[str] = []
    digest = hashlib.sha256()
    gc.collect()
    gauge = SpeedGauge()
    for pass_index in range(passes):
        for index, spec in enumerate(specs):
            if tracer is not None:
                tracer.call = index
            start = time.perf_counter()
            try:
                produced = workload.execute(spec, workdir)
            except Exception as exc:  # a failed call is counted; the run goes on
                traceback.print_exc()
                produced = exc
            seconds = time.perf_counter() - start
            result.wall_seconds.append(seconds)
            result.call_seconds.append(gauge.scale(seconds))
            failures, known, output = _check(workload, spec, produced)
            output_hash = hashlib.sha256(output).hexdigest()
            if pass_index == 0:
                first_outputs.append(output_hash)
                digest.update(output)
            elif output_hash != first_outputs[index]:
                failures, known = (*failures, "repeat: output differs from the first pass"), False
            if failures:
                result.failed += 1
                result.unexpected += not known
                if pass_index == 0 or not known:
                    shown = {k: v for k, v in spec.items() if k not in ("seed", "states")}
                    result.failures.append({"call": index, "pass": pass_index, **shown,
                                            "known_defect": known, "failures": list(failures)})
    result.digest = digest.hexdigest()
    return result


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND calls above it.

    With linear interpolation over n sorted values, percentile q leaves
    n - 1 - floor(q (n - 1) / 100) values above it. Runs of at most
    TAIL_BEYOND calls report the maximum (100).
    """
    if n <= TAIL_BEYOND:
        return 100
    return math.ceil(100 * (n - TAIL_BEYOND) / (n - 1)) - 1


def setup_seconds(name: str, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreter -> import mubpurity -> one warm-up call, timed from outside.

    Returns the wall times of the probes and the same normalised.
    """
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        f"import workloads; workloads.warm_up({name!r}, {str(workdir)!r})"
    )
    gauge = SpeedGauge()
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL, env=dict(os.environ))
        wall.append(time.perf_counter() - start)
        scaled.append(gauge.scale(wall[-1]))
    return wall, scaled


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(argv: list[str], seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "argv": argv,
        "seed": seed,
    }


def end_to_end_metrics(run: RunResult, setup: list[float]) -> dict[str, float]:
    call_ms = [s * 1e3 for s in run.call_seconds]
    return {
        "setup_s": statistics.median(setup),
        "units_per_s": run.units_per_s,
        "call_ms.p50": statistics.median(call_ms),
        "call_ms.tail": float(np.percentile(call_ms, tail_percentile(len(call_ms)))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_rate": (run.attempted - run.failed) / run.attempted,
    }


def per_layer_metrics(summary: dict, traced: RunResult, plain: RunResult) -> dict[str, float]:
    metrics = {}
    for name, agg in summary.items():
        metrics[f"{name}.calls"] = agg["calls"]
        metrics[f"{name}.self_ms"] = agg["self_ms"]
    pinches = summary["relations.post_measurement_state"]["calls"]
    panels = summary["expsim.run_protocol"]["calls"]
    metrics["relations.pinch_per_state"] = pinches / traced.pinch_base if traced.pinch_base else 0.0
    metrics["expsim.prepare_per_panel"] = (
        summary["expsim.prepare_pair_state"]["calls"] / panels if panels else 0.0
    )
    metrics["trace.overhead_frac"] = plain.units_per_s / traced.units_per_s - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "sweep-sim", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    load_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    n_calls = workload.n_calls(args.seconds / PASSES)
    record = {"workload": workload.name, "calls": n_calls, "provenance": provenance(argv, args.seed)}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workload.execute(workload.warm_spec, workdir)  # let lazy set-up finish untimed
        if args.trace == 0:
            setup_wall, setup = setup_seconds(workload.name, workdir)
            run = run_workload(workload, args.seed, n_calls, workdir, PASSES)
            metrics = end_to_end_metrics(run, setup)
            record["wall"] = {
                "setup_s": statistics.median(setup_wall),
                "units_per_s": run.units / sum(run.wall_seconds),
                "call_ms.p50": statistics.median(run.wall_seconds) * 1e3,
            }
            units = END_TO_END_UNITS
            correct = run.unexpected == 0
        else:
            # One untraced and one traced pass of the same plan.
            plain = run_workload(workload, args.seed, n_calls, workdir, 1)
            tracer = Tracer()
            tracer.install()
            try:
                run = run_workload(workload, args.seed, n_calls, workdir, 1, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(OUT / f"spans-{workload.name}.csv")
            summary = tracer.summary()
            metrics = per_layer_metrics(summary, run, plain)
            units = per_layer_units()
            missing = [n for n in workload.expected_spans if summary[n]["calls"] == 0]
            record["trace_completeness"] = "ok" if not missing else {"missing": missing}
            if missing:
                print(f"warning: traced run recorded no calls of {', '.join(missing)}", file=sys.stderr)
            record["inclusive_ms_per_call"] = {
                n: agg["total_ms"] / agg["calls"] for n, agg in summary.items() if agg["calls"]
            }
            record["untraced_digest"] = plain.digest
            # Tracing must not change a single output bit.
            correct = run.unexpected == 0 and plain.unexpected == 0 and plain.digest == run.digest

    record.update({
        "units": run.units,
        "digest_sha256": run.digest,
        "passes": run.attempted // n_calls,
        "tail_percentile": tail_percentile(run.attempted),
        "error_rate": run.failed / run.attempted,
        "failed_calls": run.failures,
    })
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
