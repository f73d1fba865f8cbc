"""Command-line front end.

Each subcommand parses its arguments, calls the library once and formats
the result: ``mub`` (generate/validate basis sets), ``verify`` (the report
of ``verify_relations``), ``relation`` (one relation report), ``sweep``
(parameter sweeps with CSV/JSON output), ``expsim`` (one simulated purity
panel). ``mub``, ``verify`` and ``relation`` take their basis set from one
resolver: the file of ``--load`` or ``--mubs``, else ``construct_mubs``.
The library owns the rules on d, M, trials and big_d, so those errors name
its parameters. ``main`` alone turns an error into its exit code and one
``error:`` line on stderr; the README states the codes, the angle syntax
and the seed fallback of ``verify``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .expsim import (
    PANEL_FIELDS,
    NoiseModel,
    _panel,
    run_protocol,
)
from .linalg import _float_reprs, density_from_json
from .mub import (
    PAULI_AXIS_LABELS,
    MubSet,
    MubValidationError,
    construct_mubs,
    load_mubs,
    save_mubs,
)
from .relations import _check_bipartite_input, _relation_arrays, relation_report, verify_relations
from .states import _family_states, rho_family

_PI_RE = re.compile(r"^([+-]?(?:\d+(?:\.\d*)?|\.\d+)?)\*?pi(?:/(\d+(?:\.\d*)?))?$")


def parse_angle(text: str) -> float:
    """Parse radians, accepting pi-fraction literals like ``pi/2`` or ``3pi/8``."""
    s = str(text).strip().lower().replace(" ", "")
    if "pi" in s:
        m = _PI_RE.match(s)
        if not m:
            raise ValueError(f"cannot parse angle {text!r}")
        coef_text, den_text = m.group(1), m.group(2)
        coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(coef_text)
        if coef is None:
            coef = float(coef_text)
        den = float(den_text) if den_text else 1.0
        if den == 0.0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return coef * math.pi / den
    return float(s)


def _default_seed() -> int:
    env = os.environ.get("PURITY_SEED") or "0"
    if not re.fullmatch(r"\s*[+-]?\d(?:_?\d)*\s*", env):  # what int() accepts
        raise ValueError(f"PURITY_SEED={env!r} is not an integer")
    return int(env)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for validation failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None, what: str) -> None:
    """Write ``text`` to ``out`` and say so, or print it when there is no ``out``."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {what} to {out}")
    else:
        print(text, end="")


def _basis_set(d: int, m: int | None, path: str | None) -> MubSet:
    """The basis set in ``path``; without one, the first m bases constructed at d (all d + 1 for None).

    A loaded set must hold m bases unless m is None, a usage error naming
    ``--m`` otherwise; ``construct_mubs`` decides which (d, m) can be built.
    """
    if path:
        mubs = load_mubs(path)
        if m is not None and m != mubs.M:
            raise ValueError(f"--m {m} does not match the {mubs.M} bases in {path}")
        return mubs
    return construct_mubs(d, d + 1 if m is None else m)


def cmd_mub(ns) -> int:
    mubs = _basis_set(ns.d, ns.m, ns.load)
    # only a loaded set can differ from --d
    if mubs.d != ns.d:
        raise ValueError(f"--d {ns.d} does not match the dimension {mubs.d} of {ns.load}")
    save_mubs(mubs, ns.out)
    print(f"wrote {mubs.M} bases of dimension {mubs.d} to {ns.out}")
    print(mubs.report.summary())
    return 0


def cmd_verify(ns) -> int:
    seed = _default_seed() if ns.seed is None else ns.seed
    mubs = _basis_set(ns.d, ns.m, None)
    report = verify_relations(mubs, ns.d if ns.big_d is None else ns.big_d, ns.trials, seed)
    text = report.summary() + "\n"
    print(text, end="")
    if ns.out:
        Path(ns.out).write_text(text)
    return 0 if report.passed else 2


def cmd_relation(ns) -> int:
    if ns.state:
        for flag, value in (("--alpha", ns.alpha), ("--x", ns.x)):
            if value is not None:
                raise ValueError(f"{flag} sets the family state and does not apply to --state")
        rho = density_from_json(json.loads(Path(ns.state).read_text()))
        # the basis set is resolved at d, which only a bipartite state has
        d = rho.dims[0]
        _check_bipartite_input(rho.dims, d)
        label = f"state from {ns.state}"
    else:
        alpha = math.pi / 2 if ns.alpha is None else ns.alpha
        x = 1.0 if ns.x is None else ns.x
        rho, d = rho_family(alpha, x), 2
        label = f"family state alpha={alpha!r} x={x!r}"
    mubs = _basis_set(d, ns.m, ns.mubs)
    rep = relation_report(rho, mubs)
    _emit(_json_dumps(rep.to_json()), ns.out, f"relation report for {label}")
    print(
        f"lhs={rep.lhs!r} rhs={rep.rhs!r} gap={rep.gap!r} "
        f"equality_expected={rep.equality_expected}"
    )
    return 0


@functools.cache
def _two_qubit_mubs() -> MubSet:
    """The basis set of the two-qubit family, built and validated once (a MubSet is immutable)."""
    return construct_mubs(2, 3)


def _sweep_columns(ns) -> dict[str, np.ndarray]:
    """The sweep's (steps,) columns by name; only the grid is checked here, the library checks alpha, x and noise."""
    # the noise model is built first, so a bad --noise fails whether or not the sweep simulates
    noise = NoiseModel(ns.noise)
    start = 0.0 if ns.start is None else ns.start
    stop = ns.stop if ns.stop is not None else (math.pi / 2 if ns.param == "alpha" else 1.0)
    fixed = ns.fixed if ns.fixed is not None else (1.0 if ns.param == "alpha" else math.pi / 2)
    if ns.steps < 2:
        raise ValueError("steps must be at least 2")
    for flag, bound in (("--from", start), ("--to", stop)):
        if not math.isfinite(bound):
            raise ValueError(f"{flag} must be finite, got {bound!r}")
    if not start < stop:
        raise ValueError("sweep range must satisfy from < to")
    if not math.isfinite(stop - start):
        raise ValueError(f"sweep span --to minus --from must be finite, got {stop - start!r}")
    mubs = _two_qubit_mubs()
    grid, other = np.linspace(start, stop, ns.steps), np.full(ns.steps, fixed)
    alphas, xs = (grid, other) if ns.param == "alpha" else (other, grid)
    rho = _family_states(alphas, xs)
    rep = _relation_arrays(rho, (2, 2), mubs)
    columns = {
        "alpha": alphas,
        "x": xs,
        "d": np.full(ns.steps, mubs.d),
        "M": np.full(ns.steps, mubs.M),
        "purity_AB": rep["purity_AB"],
        "purity_B": rep["purity_B"],
    }
    # construct_mubs(2, 3) orders the bases z, x, y
    axis = dict(zip(PAULI_AXIS_LABELS, rep["purity_thetaB"].T))
    columns.update({f"purity_{ax}B": axis[ax] for ax in ("x", "y", "z")})
    columns.update({name: rep[name] for name in ("lhs", "rhs", "gap")})
    if ns.simulate:
        # raw and rescaled simulator columns, from one read of the checked grid
        panel = _panel(alphas, xs, rho, noise)
        for kind, values in (("raw", panel.raw), ("rescaled", panel.rescaled)):
            lhs, rhs = panel.relation_sides(use_raw=kind == "raw")
            columns.update({f"{kind}_{name}": values[name] for name in PANEL_FIELDS})
            columns.update({f"{kind}_lhs": lhs, f"{kind}_rhs": rhs, f"{kind}_gap": lhs - rhs})
    return columns


def _csv_text(columns: dict[str, np.ndarray]) -> str:
    """The CSV of the columns: a header and one line per row, each cell the ``str`` of its value as a Python scalar.

    Every float column is formatted in one :func:`_float_reprs` call, so
    ``repr`` (which is ``str`` on a float) runs once per distinct value.
    """
    floats = [name for name, v in columns.items() if v.dtype.kind == "f"]
    cells = dict(zip(floats, _float_reprs(np.stack([columns[name] for name in floats])).tolist()))
    cells.update({name: list(map(str, v.tolist())) for name, v in columns.items() if name not in cells})
    lines = [",".join(columns), *map(",".join, zip(*(cells[name] for name in columns)))]
    return "\n".join(lines) + "\n"


def cmd_sweep(ns) -> int:
    columns = _sweep_columns(ns)
    if ns.format == "csv":
        text = _csv_text(columns)
    else:
        values = [v.tolist() for v in columns.values()]
        text = _json_dumps([dict(zip(columns, point)) for point in zip(*values)])
    _emit(text, ns.out, f"{ns.steps} sweep rows")
    return 0


def cmd_expsim(ns) -> int:
    panel = run_protocol(ns.alpha, ns.x, NoiseModel(ns.noise))
    _emit(_json_dumps(panel.to_json()), ns.out, "purity panel")
    lhs, rhs = panel.relation_sides()
    print(f"rescaled lhs={lhs!r} rhs={rhs!r} gap={lhs - rhs!r}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="mubpurity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mub", help="construct or load a basis set, validate, write JSON")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--m", type=int, default=None, help="basis count (default d+1)")
    p.add_argument("--load", type=str, default=None, help="load bases from a JSON file")
    p.add_argument("--out", type=str, required=True, help="output JSON path")
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("verify", help="stochastic verification of the operator properties")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--big-d", type=int, default=None, help="B-side dimension (default d)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="also write the report to a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("relation", help="relation report for one state")
    p.add_argument("--alpha", type=parse_angle, default=None, help="family state (default pi/2)")
    p.add_argument("--x", type=float, default=None, help="family state (default 1)")
    p.add_argument("--m", type=int, default=None, help="basis count (default: complete set)")
    p.add_argument("--state", type=str, default=None, help="density matrix JSON file")
    p.add_argument("--mubs", type=str, default=None, help="basis set JSON file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("sweep", help="sweep alpha or x and write CSV/JSON rows")
    p.add_argument("--param", choices=("alpha", "x"), required=True)
    p.add_argument("--from", dest="start", type=parse_angle, default=None)
    p.add_argument("--to", dest="stop", type=parse_angle, default=None)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--fixed", type=parse_angle, default=None, help="value of the other parameter")
    p.add_argument("--simulate", action="store_true", help="add simulator raw/rescaled columns")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None, help="ignored: a sweep draws no random numbers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("expsim", help="simulate one purity panel")
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_expsim)

    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except MubValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
