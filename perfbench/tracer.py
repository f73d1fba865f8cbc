"""Span tracer that wraps the public functions of each mubpurity layer.

The wrappers live here, outside the package: ``Tracer.install`` replaces
every binding of a traced function in every loaded ``mubpurity`` module,
so a name that ``cli`` (or any other module) imported into its own
namespace is traced as well as the defining module's copy. Spans are kept
in memory as (id, name, start, end, parent, call) and summarised at the
end; a span's self time is its duration minus the durations of its
direct children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

# Layer -> public names traced on that layer. ``linalg.DensityMatrix`` is a
# class: its validating ``__post_init__`` is what a construction costs.
# ``expsim.apply_gate`` is split by gate kind.
TRACED = {
    "cli": ("main",),
    "mub": ("construct_mubs", "validate_mubs", "save_mubs", "load_mubs"),
    "relations": (
        "build_bipartite_basis",
        "check_pt_identities",
        "post_measurement_state",
        "gamma_direct",
        "gamma_via_projector",
        "relation_report",
    ),
    "linalg": (
        "DensityMatrix",
        "partial_trace_matrix",
        "partial_transpose",
        "purity",
        "hermitian_eigenvalues",
    ),
    "states": ("random_density", "rho_family"),
    "expsim": (
        "prepare_pair_state",
        "mub_measure_block",
        "swap_test_readout",
        "apply_gate",
        "calibration_factors",
        "run_protocol",
    ),
}
GATE_KINDS = ("RY", "RX", "CSWAP", "DEPHASE")


def span_names() -> list[str]:
    """Every span name the tracer can report, in a fixed order."""
    names = []
    for layer, fns in TRACED.items():
        for fn in fns:
            if fn == "apply_gate":
                names.extend(f"{layer}.{fn}.{kind}" for kind in GATE_KINDS)
            else:
                names.append(f"{layer}.{fn}")
    return names


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mubpurity" or name.startswith("mubpurity."))
    ]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.call = -1  # index of the benchmark call in progress
        self._spans: list[tuple[int, str, int, int, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._spans.append((span_id, name_of(args), start, end, parent, self.call))

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        import mubpurity  # noqa: F401  (loads every layer module)

        modules = _package_modules()
        for layer, fns in TRACED.items():
            mod = sys.modules[f"mubpurity.{layer}"]
            for fn_name in fns:
                original = getattr(mod, fn_name, None)
                if original is None:
                    continue  # a layer may drop a name; its counters then read 0
                if isinstance(original, type):
                    self._patch_class(original, f"{layer}.{fn_name}")
                    continue
                if fn_name == "apply_gate":
                    prefix = f"{layer}.{fn_name}."
                    wrapper = self._wrap(original, lambda a, p=prefix: p + str(a[1][0]).upper())
                else:
                    name = f"{layer}.{fn_name}"
                    wrapper = self._wrap(original, lambda a, n=name: n)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, value))
                            setattr(m, attr, wrapper)

    def _patch_class(self, cls, name: str) -> None:
        original = cls.__dict__["__post_init__"]
        self._patches.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap(original, lambda a: name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms and total (inclusive) ms."""
        child_ns = Counter()
        for _, _, start, end, parent, _ in self._spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for span_id, name, start, end, _, _ in self._spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[span_id]
            total_ns[name] += end - start
        return {
            name: {"calls": calls[name], "self_ms": self_ns[name] / 1e6, "total_ms": total_ns[name] / 1e6}
            for name in span_names()
        }

    def write_spans(self, path: Path) -> None:
        """Write the spans as CSV, ordered by span id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,call\n")
            for span in sorted(self._spans):
                fh.write(",".join(str(v) for v in span) + "\n")
