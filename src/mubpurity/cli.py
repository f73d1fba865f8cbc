"""Command-line front end.

Subcommands: ``mub`` (generate/validate basis sets), ``verify`` (stochastic
checks of the operator and relation properties), ``relation`` (one relation
report), ``sweep`` (parameter sweeps with CSV/JSON output), ``expsim``
(one simulated purity panel). Exit codes: 0 success, 1 usage error,
2 verification/validation failure. Angles accept plain radians or pi
fractions such as ``pi/2`` and ``3pi/8``. The seed of ``verify`` falls back
to the ``PURITY_SEED`` environment variable, then to 0; ``sweep`` accepts
``--seed`` but draws no random numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expsim import (
    PANEL_FIELDS,
    NoiseModel,
    calibration_factors,
    run_protocol,
)
from .linalg import density_from_json
from .mub import (
    PAULI_AXIS_LABELS,
    MubValidationError,
    construct_mubs,
    is_prime,
    load_mubs,
    save_mubs,
    validate_mubs,
)
from .relations import (
    build_bipartite_basis,
    check_pt_identities,
    relation_report,
)
from .states import random_density, rho_family
from .tolerances import TOL_PSD, TOL_SPECTRAL, TOL_STRUCTURAL

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
    env = os.environ.get("PURITY_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"PURITY_SEED={env!r} is not an integer") from None


@dataclass(frozen=True)
class SweepConfig:
    """Validated arguments of one sweep run."""

    param: str
    start: float
    stop: float
    steps: int
    fixed_other: float
    noise_p: float
    simulate: bool
    output: Path
    format: str

    def __post_init__(self):
        if self.param not in ("alpha", "x"):
            raise ValueError(f"param must be alpha or x, got {self.param!r}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not self.start < self.stop:
            raise ValueError("sweep range must satisfy from < to")
        lo, hi = (0.0, math.pi / 2) if self.param == "alpha" else (0.0, 1.0)
        if self.start < lo or self.stop > hi:
            raise ValueError(f"{self.param} sweep range outside [{lo!r}, {hi!r}]")
        other_lo, other_hi = (0.0, 1.0) if self.param == "alpha" else (0.0, math.pi / 2)
        if not other_lo <= self.fixed_other <= other_hi:
            raise ValueError("fixed value outside its parameter domain")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise probability outside [0, 1]")


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for validation failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_mub(ns) -> int:
    if ns.load:
        try:
            mubs = load_mubs(ns.load)
        except MubValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        if ns.d < 2:
            raise ValueError(f"need --d >= 2, got {ns.d}")
        if not is_prime(ns.d):
            print(
                f"error: d={ns.d} is not prime; supply a basis file via --load",
                file=sys.stderr,
            )
            return 2
        if not 2 <= ns.m <= ns.d + 1:
            print(f"error: need 2 <= M <= d+1, got M={ns.m}", file=sys.stderr)
            return 1
        mubs = construct_mubs(ns.d, ns.m)
    report = validate_mubs(mubs)
    save_mubs(mubs, ns.out)
    print(f"wrote {mubs.M} bases of dimension {mubs.d} to {ns.out}")
    print(report.summary())
    return 0 if report.passed else 2


def cmd_verify(ns) -> int:
    seed = _default_seed() if ns.seed is None else ns.seed
    if ns.d < 2:
        raise ValueError(f"need --d >= 2, got {ns.d}")
    if not is_prime(ns.d):
        print(f"error: d={ns.d} is not prime", file=sys.stderr)
        return 2
    if ns.trials < 1:
        print(f"error: need --trials >= 1, got {ns.trials}", file=sys.stderr)
        return 1
    d, m = ns.d, ns.m
    big_d = d if ns.big_d is None else ns.big_d
    mubs = construct_mubs(d, m)
    basis = build_bipartite_basis(mubs)

    states = basis.all_states()
    gram_dev = float(np.abs(states.conj() @ states.T - np.eye(states.shape[0])).max())
    pt = check_pt_identities(basis)

    trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(ns.trials, dtype=np.uint64)]
    ranks = (d * big_d, 1, 2)
    reports = [
        relation_report(random_density(d * big_d, ranks[t % 3], s, dims=(d, big_d)), mubs)
        for t, s in enumerate(trial_seeds)
    ]

    def worst(values, pick):
        # the first trial attaining the extreme, and the seed of its state
        k = int(pick(values))
        return float(values[k]), trial_seeds[k]

    gaps = np.array([rep.gap for rep in reports])
    min_gap, min_gap_seed = worst(gaps, np.argmin)
    max_abs_gap, max_abs_gap_seed = worst(np.abs(gaps), np.argmax)
    min_eig, min_eig_seed = worst(np.array([rep.gamma_min_eig for rep in reports]), np.argmin)
    max_fro, max_fro_seed = worst(np.array([rep.gamma_frobenius for rep in reports]), np.argmax)

    complete = m == d + 1
    checks = [
        ("gram max deviation", gram_dev, TOL_STRUCTURAL, gram_dev <= TOL_STRUCTURAL, None),
        ("pt identities max deviation", pt.max_deviation, TOL_STRUCTURAL,
         pt.max_deviation <= TOL_STRUCTURAL, None),
        ("relation gap min", min_gap, -TOL_SPECTRAL, min_gap >= -TOL_SPECTRAL, min_gap_seed),
    ]
    if complete:
        checks.append(("gamma frobenius max", max_fro, TOL_SPECTRAL,
                       max_fro <= TOL_SPECTRAL, max_fro_seed))
        checks.append(("relation |gap| max", max_abs_gap, TOL_SPECTRAL,
                       max_abs_gap <= TOL_SPECTRAL, max_abs_gap_seed))
    else:
        checks.append(("gamma min eigenvalue", min_eig, -TOL_PSD,
                       min_eig >= -TOL_PSD, min_eig_seed))

    lines = [f"verify d={d} M={m} D={big_d} trials={ns.trials} seed={seed}"]
    ok = True
    for name, value, bound, passed, state_seed in checks:
        ok = ok and passed
        line = f"{name}: {value!r} (bound {bound!r}) {'PASS' if passed else 'FAIL'}"
        if not passed and state_seed is not None:
            line += f" [state seed {state_seed}]"
        lines.append(line)
    lines.append("all checks passed" if ok else "VERIFICATION FAILED")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if ns.out:
        Path(ns.out).write_text(text)
    return 0 if ok else 2


def _family_report(alpha: float, x: float, m: int):
    return relation_report(rho_family(alpha, x), construct_mubs(2, m))


def cmd_relation(ns) -> int:
    if ns.state:
        rho = density_from_json(json.loads(Path(ns.state).read_text()))
        if ns.mubs:
            mubs = load_mubs(ns.mubs)
        else:
            d = rho.dims[0]
            if not is_prime(d):
                print(
                    f"error: A-dimension {d} is not prime; supply --mubs",
                    file=sys.stderr,
                )
                return 2
            mubs = construct_mubs(d, ns.m if ns.m else d + 1)
        rep = relation_report(rho, mubs)
        label = f"state from {ns.state}"
    else:
        alpha, x = ns.alpha, ns.x
        rep = _family_report(alpha, x, ns.m if ns.m else 3)
        label = f"family state alpha={alpha!r} x={x!r}"
    text = _json_dumps(rep.to_json())
    if ns.out:
        Path(ns.out).write_text(text)
        print(f"wrote relation report for {label} to {ns.out}")
    else:
        print(text, end="")
    print(
        f"lhs={rep.lhs!r} rhs={rep.rhs!r} gap={rep.gap!r} "
        f"equality_expected={rep.equality_expected}"
    )
    return 0


_SWEEP_BASE_COLUMNS = (
    "alpha", "x", "d", "M",
    "purity_AB", "purity_B", "purity_xB", "purity_yB", "purity_zB",
    "lhs", "rhs", "gap",
)


def _axis_purities(rep) -> dict[str, float]:
    # construct_mubs(2, 3) orders the bases z, x, y
    return {ax: rep.purity_thetaB[i] for i, ax in enumerate(PAULI_AXIS_LABELS)}


# Grid points per simulator call: one call holds this many 32x32 registers
# at a time, so memory stays bounded however many steps a sweep has.
SWEEP_CHUNK = 64


def _simulated_columns(alphas: np.ndarray, xs: np.ndarray, noise_p: float) -> list[dict]:
    """Raw and rescaled simulator columns of every grid point, one call per chunk."""
    noise = NoiseModel(noise_p, enabled=noise_p > 0.0)
    calibration = calibration_factors(noise)
    rows = []
    for start in range(0, len(alphas), SWEEP_CHUNK):
        chunk = slice(start, start + SWEEP_CHUNK)
        panel = run_protocol(alphas[chunk], xs[chunk], noise, calibration=calibration)
        raw_lhs, raw_rhs = panel.relation_sides(use_raw=True)
        res_lhs, res_rhs = panel.relation_sides(use_raw=False)
        columns = {f"raw_{name}": panel.raw[name] for name in PANEL_FIELDS}
        columns.update(raw_lhs=raw_lhs, raw_rhs=raw_rhs, raw_gap=raw_lhs - raw_rhs)
        columns.update({f"rescaled_{name}": panel.rescaled[name] for name in PANEL_FIELDS})
        columns.update(rescaled_lhs=res_lhs, rescaled_rhs=res_rhs, rescaled_gap=res_lhs - res_rhs)
        values = [np.asarray(v).tolist() for v in columns.values()]
        rows.extend(dict(zip(columns, point)) for point in zip(*values))
    return rows


def _sweep_rows(config: SweepConfig) -> list[dict]:
    mubs = construct_mubs(2, 3)  # the two-qubit family
    grid = np.linspace(config.start, config.stop, config.steps)
    fixed = np.full(config.steps, config.fixed_other)
    alphas, xs = (grid, fixed) if config.param == "alpha" else (fixed, grid)
    rows = []
    for alpha, x in zip(alphas.tolist(), xs.tolist()):
        rep = relation_report(rho_family(alpha, x), mubs)
        axis = _axis_purities(rep)
        rows.append({
            "alpha": alpha,
            "x": x,
            "d": mubs.d,
            "M": mubs.M,
            "purity_AB": rep.purity_AB,
            "purity_B": rep.purity_B,
            "purity_xB": axis["x"],
            "purity_yB": axis["y"],
            "purity_zB": axis["z"],
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "gap": rep.gap,
        })
    if config.simulate:
        for row, simulated in zip(rows, _simulated_columns(alphas, xs, config.noise_p)):
            row.update(simulated)
    return rows


def cmd_sweep(ns) -> int:
    try:
        config = SweepConfig(
            param=ns.param,
            start=ns.start if ns.start is not None else 0.0,
            stop=ns.stop if ns.stop is not None else (math.pi / 2 if ns.param == "alpha" else 1.0),
            steps=ns.steps,
            fixed_other=ns.fixed if ns.fixed is not None else (1.0 if ns.param == "alpha" else math.pi / 2),
            noise_p=ns.noise,
            simulate=ns.simulate,
            output=Path(ns.out),
            format=ns.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = _sweep_rows(config)
    columns = list(rows[0].keys())
    if config.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = _json_dumps(rows)
    try:
        config.output.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} sweep rows to {config.output}")
    return 0


def cmd_expsim(ns) -> int:
    noise = NoiseModel(ns.noise, enabled=ns.noise > 0.0)
    panel = run_protocol(ns.alpha, ns.x, noise)
    text = _json_dumps(panel.to_json())
    if ns.out:
        Path(ns.out).write_text(text)
        print(f"wrote purity panel to {ns.out}")
    else:
        print(text, end="")
    lhs, rhs = panel.relation_sides()
    print(f"rescaled lhs={lhs!r} rhs={rhs!r} gap={lhs - rhs!r}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mubpurity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mub", help="construct or load a basis set, validate, write JSON")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--m", type=int, default=0, help="basis count (default d+1)")
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
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 2)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--m", type=int, default=0, help="basis count (default: complete set)")
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
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "command", None) == "mub" and not ns.load and ns.m == 0:
        ns.m = ns.d + 1
    try:
        return ns.func(ns)
    except MubValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
