import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mubpurity.cli import _default_seed, main, parse_angle
from mubpurity.linalg import density_to_json
from mubpurity.mub import construct_mubs, load_mubs, save_mubs
from mubpurity.states import random_density

# an integer json refuses to convert: one digit past the interpreter's limit, 4300 by default
# (Python before 3.10.7 has no limit and reads it)
HUGE_INTEGER = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1)


class TestParseAngle:
    def test_plain_float(self):
        assert parse_angle("0.75") == 0.75
        assert parse_angle("2") == 2.0

    def test_pi_fractions(self):
        assert parse_angle("pi") == math.pi
        assert parse_angle("pi/2") == math.pi / 2
        assert parse_angle("3pi/8") == 3 * math.pi / 8
        assert parse_angle("3*pi/8") == 3 * math.pi / 8
        assert parse_angle("-pi/4") == -math.pi / 4
        assert parse_angle("0.5pi") == 0.5 * math.pi
        assert parse_angle("+pi") == parse_angle("*pi") == math.pi
        assert parse_angle(".5pi") == 0.5 * math.pi
        assert parse_angle("5.pi/8") == 5 * math.pi / 8
        zero = parse_angle("-0pi")
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

    def test_rejects_junk(self):
        for bad in ("pie", "pi/", "2+pi", "x", "pi/0", "3pi/0.0", "--pi", "+-pi", "pi/-2"):
            with pytest.raises(ValueError):
                parse_angle(bad)


def _mubs(d, m=None, edit=None):
    """A writer of construct_mubs(d, m), all d + 1 bases for None, by save_mubs; ``edit`` then changes its object."""
    def write(path):
        save_mubs(construct_mubs(d, d + 1 if m is None else m), path)
        if edit is not None:
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return write


def _pair(basis, vector, entry, value):
    """An edit of a basis-set object: the [re, im] pair at bases[basis][vector][entry] becomes ``value``."""
    def edit(obj):
        obj["bases"][basis][vector][entry] = value
        return obj
    return edit


def _huge_set(path):
    """The set of _mubs(2, 3) with the 1.0 of basis 1's first vector written as HUGE_INTEGER."""
    _mubs(2, 3)(path)
    path.write_text(path.read_text().replace("1.0", HUGE_INTEGER, 1))


def _state(*factors, **fields):
    """A writer of the full-rank random_density of ``factors``, seed 0, by density_to_json, with ``fields`` replaced."""
    dim = math.prod(factors)
    return lambda path: path.write_text(json.dumps(density_to_json(random_density(dim, dim, 0, dims=factors)) | fields))


def _json_error(text):
    """The text of the error json.loads raises on ``text``."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)


def _quarter(pair):
    """The [re, im] pairs of I/4 with pair 1, an off-diagonal 0, replaced."""
    return [pair if k == 1 else [v, 0.0] for k, v in enumerate(np.eye(4).ravel() / 4)]


class Failure(NamedTuple):
    """One failing invocation, run in a directory that holds only its ``files``."""

    id: str
    argv: list
    code: int
    # the text after "error: "; each "…" stands for any text within the line
    message: str
    # each input's name, and its bytes or a writer that takes its path
    files: dict = {}
    env: dict = {}


NOT_PRIME = "d=6 is not prime; basis sets are constructed for prime d only"
IS_A_DIRECTORY = "[Errno 21] Is a directory: '.'"
NOT_A_SET = "not a set of mutually unbiased bases: orthonormality deviation"
# a d = 5 set with basis 3 replaced by basis 2: orthonormal, not unbiased
BIASED = {"biased.json": _mubs(5, None, lambda obj: obj | {"bases": [*obj["bases"][:2], obj["bases"][1],
                                                                     *obj["bases"][3:]]})}
NOT_UNBIASED = f"invalid basis set in biased.json: {NOT_A_SET} …, unbiasedness deviation 8.000e-01, tolerance 1e-12"
DEEP = "[" * 100_000 + "]" * 100_000
# json's texts for an integer past the digit limit and for nesting past the recursion limit differ between versions
TOO_MANY_DIGITS, TOO_DEEP = _json_error(HUGE_INTEGER), _json_error(DEEP)
D_ONE = json.dumps({"d": 1, "M": 2, "bases": [[[[1, 0]]], [[[1, 0]]]]}).encode()
# at --noise 1 the probe signal is gone, so no rescaled panel exists
LOST_SIGNAL = "attenuation factor for purity_AB is …, not (1 - p)**2 = 0.0"
LOAD = ["mub", "--d", "2", "--load", "bad.json", "--out", "o.json"]
VERIFY = ["verify", "--d", "2", "--m", "3", "--trials", "1"]
STATE = ["relation", "--state", "state.json"]

ERRORS = (
    # mub: the size rules of construct_mubs, and each way a --load file fails
    Failure("mub-d-6-not-prime", ["mub", "--d", "6", "--m", "3", "--out", "x.json"], 2, NOT_PRIME),
    Failure("mub-d-1", ["mub", "--d", "1", "--out", "m.json"], 1, "need d >= 2, got 1"),
    Failure("mub-d-0", ["mub", "--d", "0", "--out", "m.json"], 1, "need d >= 2, got 0"),
    Failure("mub-d--3", ["mub", "--d", "-3", "--out", "m.json"], 1, "need d >= 2, got -3"),
    Failure("mub-m-9", ["mub", "--d", "3", "--m", "9", "--out", "x.json"], 1, "need 2 <= M <= d+1, got M=9, d=3"),
    Failure("mub-m-1", ["mub", "--d", "3", "--m", "1", "--out", "x.json"], 1, "need 2 <= M <= d+1, got M=1, d=3"),
    Failure("mub-m-5", ["mub", "--d", "3", "--m", "5", "--out", "x.json"], 1, "need 2 <= M <= d+1, got M=5, d=3"),
    # --m 0 asks for no bases; it is not the complete set
    Failure("mub-m-0", ["mub", "--d", "2", "--m", "0", "--out", "out.json"], 1, "need 2 <= M <= d+1, got M=0, d=2"),
    Failure("mub-load-m-0", ["mub", "--d", "2", "--load", "m.json", "--m", "0", "--out", "out.json"], 1,
            "--m 0 does not match the 3 bases in m.json", {"m.json": _mubs(2)}),
    Failure("mub-load-d-3", ["mub", "--d", "3", "--load", "m5.json", "--out", "x.json"], 1,
            "--d 3 does not match the dimension 5 of m5.json", {"m5.json": _mubs(5)}),
    Failure("mub-load-m-2", ["mub", "--d", "3", "--m", "2", "--load", "m5.json", "--out", "x.json"], 1,
            "--m 2 does not match the 6 bases in m5.json", {"m5.json": _mubs(5)}),
    Failure("mub-load-m-4", ["mub", "--d", "5", "--m", "4", "--load", "m5.json", "--out", "x.json"], 1,
            "--m 4 does not match the 6 bases in m5.json", {"m5.json": _mubs(5)}),
    Failure("mub-load-not-orthonormal", LOAD, 2, f"invalid basis set in bad.json: {NOT_A_SET} 2.450e+01, "
            "unbiasedness deviation 2.450e+01, tolerance 1e-12",
            {"bad.json": _mubs(2, 3, _pair(1, 0, 0, [5.0, 0.0]))}),
    # a JSON false for the 0 of basis 1, which numpy would read as 0.0
    Failure("mub-load-boolean", LOAD, 2, "malformed basis file bad.json: expected nested [re, im] number pairs, "
            "got a boolean entry", {"bad.json": _mubs(2, 3, _pair(0, 0, 1, [False, 0.0]))}),
    # a number numpy alone would store as an object; the set check rejects it
    Failure("mub-load-two-to-the-64", LOAD, 2, f"invalid basis set in bad.json: {NOT_A_SET} 3.403e+38, "
            "unbiasedness deviation 3.403e+38, tolerance 1e-12",
            {"bad.json": _mubs(2, 3, _pair(1, 0, 0, [2**64, 0.0]))}),
    Failure("mub-load-401-digit", LOAD, 2, "malformed basis file bad.json: expected nested [re, im] number pairs, "
            "got an integer beyond float range", {"bad.json": _mubs(2, 3, _pair(1, 0, 0, [10**400, 0.0]))}),
    Failure("mub-load-nesting-disagrees", LOAD, 2, "malformed basis file bad.json: expected nested [re, im] number "
            "pairs of shape (2, 2, 2, 2), got shape (3, 2, 2, 2)",
            {"bad.json": _mubs(2, 3, lambda obj: obj | {"M": 2})}),
    Failure("mub-load-d-2.5", LOAD, 2, "malformed basis file bad.json: d must be an integer, got 2.5",
            {"bad.json": _mubs(2, 3, lambda obj: obj | {"d": 2.5})}),
    Failure("mub-load-M-3.9", LOAD, 2, "malformed basis file bad.json: M must be an integer, got 3.9",
            {"bad.json": _mubs(2, 3, lambda obj: obj | {"M": 3.9})}),
    Failure("mub-load-non-utf-8", LOAD, 2, "cannot read basis set from bad.json: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte", {"bad.json": b"\xff\xfe{}"}),
    Failure("mub-load-deeply-nested", LOAD, 2, f"cannot read basis set from bad.json: {TOO_DEEP}",
            {"bad.json": f'{{"d": 2, "M": 2, "bases": {DEEP}}}'.encode()}),
    Failure("mub-load-huge-integer", LOAD, 2, f"cannot read basis set from bad.json: {TOO_MANY_DIGITS}",
            {"bad.json": _huge_set}),
    Failure("mub-load-d-1", ["mub", "--d", "1", "--load", "d1.json", "--out", "o.json"], 2,
            "invalid basis set in d1.json: need d >= 2, got 1", {"d1.json": D_ONE}),
    Failure("mub-load-biased", ["mub", "--d", "5", "--load", "biased.json", "--out", "out.json"], 2, NOT_UNBIASED,
            BIASED),
    # '' names the working directory, not a missing flag: it fails as any path that cannot be written or read
    Failure("mub-empty-out", ["mub", "--d", "2", "--out", ""], 1, IS_A_DIRECTORY),
    Failure("mub-load-empty-path", ["mub", "--d", "3", "--load", "", "--out", "o.json"], 2,
            f"cannot read basis set from : {IS_A_DIRECTORY}"),
    # verify: the library's rules on d, trials, big_d and seed
    Failure("verify-d-6-not-prime", ["verify", "--d", "6", "--m", "2", "--out", "x.json"], 2, NOT_PRIME),
    Failure("verify-d-1", ["verify", "--d", "1", "--m", "2", "--trials", "1"], 1, "need d >= 2, got 1"),
    Failure("verify-d-0", ["verify", "--d", "0", "--m", "2", "--trials", "1"], 1, "need d >= 2, got 0"),
    Failure("verify-d--3", ["verify", "--d", "-3", "--m", "2", "--trials", "1"], 1, "need d >= 2, got -3"),
    Failure("verify-trials-0", ["verify", "--d", "2", "--m", "3", "--trials", "0"], 1, "need trials >= 1, got 0"),
    Failure("verify-big-d-0", [*VERIFY, "--big-d", "0"], 1, "need big_d >= 1, got 0"),
    Failure("verify-big-d--1", [*VERIFY, "--big-d", "-1"], 1, "need big_d >= 1, got -1"),
    Failure("verify-seed--1", [*VERIFY, "--seed", "-1"], 1, "need seed >= 0, got -1"),
    Failure("verify-seed-env--1", VERIFY, 1, "need seed >= 0, got -1", env={"PURITY_SEED": "-1"}),
    Failure("verify-seed-env-abc", VERIFY, 1, "PURITY_SEED='abc' is not an integer", env={"PURITY_SEED": "abc"}),
    # --out is written before the report is printed, so no report claims a pass
    Failure("verify-out-is-a-directory", ["verify", "--d", "3", "--m", "2", "--trials", "3", "--out", "."], 1,
            IS_A_DIRECTORY),
    Failure("verify-empty-out", [*VERIFY, "--out", ""], 1, IS_A_DIRECTORY),
    # relation: the family state, and the basis-set file of --mubs
    Failure("relation-x-1.5", ["relation", "--x", "1.5"], 1, "x=1.5 outside [0, 1]"),
    Failure("relation-empty-out", ["relation", "--out", ""], 1, IS_A_DIRECTORY),
    Failure("relation-mubs-empty-path", ["relation", "--mubs", ""], 2,
            f"cannot read basis set from : {IS_A_DIRECTORY}"),
    Failure("relation-mubs-missing", ["relation", "--mubs", "missing.json"], 2,
            "cannot read basis set from missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    Failure("relation-mubs-huge-integer", ["relation", "--mubs", "huge.json"], 2,
            f"cannot read basis set from huge.json: {TOO_MANY_DIGITS}", {"huge.json": _huge_set}),
    Failure("relation-mubs-biased", ["relation", "--mubs", "biased.json", "--out", "out.json"], 2, NOT_UNBIASED,
            BIASED),
    Failure("relation-mubs-m-0", ["relation", "--mubs", "m.json", "--m", "0", "--out", "out.json"], 1,
            "--m 0 does not match the 3 bases in m.json", {"m.json": _mubs(2)}),
    Failure("relation-mubs-m-3", ["relation", "--mubs", "pair.json", "--m", "3", "--out", "rel.json"], 1,
            "--m 3 does not match the 2 bases in pair.json", {"pair.json": _mubs(2, 2)}),
    Failure("relation-mubs-d-5", ["relation", "--mubs", "five.json"], 1,
            "state A-dimension 2 does not match basis dimension 5", {"five.json": _mubs(5)}),
    Failure("relation-mubs-d-1", ["relation", "--mubs", "d1.json", "--state", "state.json"], 2,
            "invalid basis set in d1.json: need d >= 2, got 1", {"d1.json": D_ONE, "state.json": _state(1, 2)}),
    # relation --state: --alpha and --x set the family state, which a state file replaces;
    # even the default value, given explicitly, is refused
    Failure("relation-state-alpha", [*STATE, "--alpha", "0.3", "--out", "rel.json"], 1,
            "--alpha sets the family state and does not apply to --state", {"state.json": _state(2, 2)}),
    Failure("relation-state-x-0.2", [*STATE, "--x", "0.2", "--out", "rel.json"], 1,
            "--x sets the family state and does not apply to --state", {"state.json": _state(2, 2)}),
    Failure("relation-state-x-1", [*STATE, "--x", "1", "--out", "rel.json"], 1,
            "--x sets the family state and does not apply to --state", {"state.json": _state(2, 2)}),
    Failure("relation-state-empty-path", ["relation", "--state", ""], 1, f"cannot read state from : {IS_A_DIRECTORY}"),
    # the A side is the d of construct_mubs
    Failure("relation-state-d-1", STATE, 1, "need d >= 2, got 1", {"state.json": _state(1, 2)}),
    # a state without two factors has no d, so the primality of its first factor does not decide the exit
    Failure("relation-state-dims-4", STATE, 1, "expected a bipartite state, got dims (4,)", {"state.json": _state(4)}),
    Failure("relation-state-dims-4-1-1", STATE, 1, "expected a bipartite state, got dims (4, 1, 1)",
            {"state.json": _state(4, 1, 1)}),
    Failure("relation-state-dims-5", STATE, 1, "expected a bipartite state, got dims (5,)", {"state.json": _state(5)}),
    Failure("relation-state-dims-6-1", STATE, 2, NOT_PRIME, {"state.json": _state(6, 1)}),
    # rows = cols = 1 is the least size the reader accepts
    Failure("relation-state-dims-1", STATE, 1, "expected a bipartite state, got dims (1,)", {"state.json": _state(1)}),
    Failure("relation-state-dims-2.5", STATE, 1, "dims[0] must be an integer, got 2.5",
            {"state.json": _state(2, 2, dims=[2.5, 2.9])}),
    Failure("relation-state-dims-null", STATE, 1, "dims must be a sequence of integers, got None",
            {"state.json": _state(2, 2, dims=None)}),
    Failure("relation-state-rows-4.9", STATE, 1, "rows must be an integer, got 4.9",
            {"state.json": _state(2, 2, rows=4.9)}),
    # 16 pairs where rows * cols declares 8
    Failure("relation-state-rows-2", STATE, 1,
            "expected nested [re, im] number pairs of shape (8, 2), got shape (16, 2)",
            {"state.json": _state(2, 2, rows=2)}),
    # sizes that hold, with data that is no state: an eigenvalue of -1e-6
    Failure("relation-state-negative-eigenvalue", STATE, 1, "density matrix has a negative eigenvalue beyond tolerance",
            {"state.json": _state(2, 2, data=[[v, 0.0] for v in np.diag([1 + 1e-6, 0.0, 0.0, -1e-6]).ravel()])}),
    # a JSON false for an imaginary part, which numpy would read as 0
    Failure("relation-state-boolean", STATE, 1, "expected nested [re, im] number pairs, got a boolean entry",
            {"state.json": _state(2, 2, data=_quarter([0, False]))}),
    # a number numpy alone would store as an object
    Failure("relation-state-two-to-the-64", STATE, 1, "density matrix is not Hermitian within tolerance",
            {"state.json": _state(2, 2, data=_quarter([2**64, 0]))}),
    Failure("relation-state-401-digit", STATE, 1,
            "expected nested [re, im] number pairs, got an integer beyond float range",
            {"state.json": _state(2, 2, data=_quarter([10**400, 0]))}),
    Failure("relation-state-list", STATE, 1, "expected a density matrix object, got list", {"state.json": b"[]"}),
    Failure("relation-state-str", STATE, 1, "expected a density matrix object, got str", {"state.json": b'"state"'}),
    # a state file and a basis-set file are read by one rule: only the exit code and what was read differ
    *(row for kind, content, cause in [
        ("non-utf-8", b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("not-json", b"not json", "Expecting value: line 1 column 1 (char 0)"),
        ("missing", None, "[Errno 2] No such file or directory: 'state.json'"),
        ("deeply-nested", DEEP.encode(), TOO_DEEP),
        ("huge-integer", HUGE_INTEGER.encode(), TOO_MANY_DIGITS),
    ] for files in [{} if content is None else {"state.json": content}] for row in [
        Failure(f"relation-state-{kind}", [*STATE, "--out", "o.json"], 1, f"cannot read state from state.json: {cause}",
                files),
        Failure(f"mub-load-state-{kind}", ["mub", "--d", "2", "--load", "state.json", "--out", "o.json"], 2,
                f"cannot read basis set from state.json: {cause}", files),
    ]),
    # sweep: the grid is checked before it is built, so no numpy warning and no nan point
    Failure("sweep-empty-out", ["sweep", "--param", "x", "--steps", "2", "--out", ""], 1, IS_A_DIRECTORY),
    Failure("sweep-steps-1", ["sweep", "--param", "x", "--steps", "1", "--out", "s.csv"], 1, "need steps >= 2, got 1"),
    Failure("sweep-steps-0", ["sweep", "--param", "x", "--steps", "0", "--out", "s.csv"], 1, "need steps >= 2, got 0"),
    Failure("sweep-to-inf", ["sweep", "--param", "alpha", "--to=inf", "--out", "s.csv"], 1,
            "--to must be finite, got inf"),
    Failure("sweep-from--inf", ["sweep", "--param", "alpha", "--from=-inf", "--out", "s.csv"], 1,
            "--from must be finite, got -inf"),
    Failure("sweep-from-nan", ["sweep", "--param", "alpha", "--from=nan", "--out", "s.csv"], 1,
            "--from must be finite, got nan"),
    # finite bounds whose difference overflows
    Failure("sweep-overflowing-span",
            ["sweep", "--param", "alpha", "--from=-1.7e308", "--to", "1.7e308", "--out", "s.csv"], 1,
            "sweep span --to minus --from must be finite, got inf"),
    Failure("sweep-empty-range", ["sweep", "--param", "x", "--from", "0.5", "--to", "0.5", "--out", "s.csv"], 1,
            "sweep range must satisfy from < to"),
    Failure("sweep-reversed-range", ["sweep", "--param", "x", "--from", "0.5", "--to", "0.2", "--out", "x.csv"], 1,
            "sweep range must satisfy from < to"),
    Failure("sweep-write-failure", ["sweep", "--param", "x", "--steps", "3", "--out", "missing/s.csv"], 1,
            "[Errno 2] No such file or directory: 'missing/s.csv'"),
    # the noise model is checked whether or not the sweep simulates
    Failure("sweep-noise-2", ["sweep", "--param", "x", "--noise", "2", "--out", "z.csv"], 1,
            "p_depol=2.0 outside [0, 1]"),
    Failure("sweep-noise-2-simulate", ["sweep", "--param", "x", "--noise", "2", "--simulate", "--out", "z.csv"], 1,
            "p_depol=2.0 outside [0, 1]"),
    Failure("sweep-noise-1", ["sweep", "--param", "x", "--steps", "5", "--simulate", "--noise", "1", "--out", "p1.csv"],
            1, LOST_SIGNAL),
    Failure("sweep-alpha-to-5", ["sweep", "--param", "alpha", "--to", "5", "--steps", "5", "--out", "y.csv"], 1,
            "alpha=2.5 outside [0, pi/2]"),
    # the library's message for the first grid point outside the domain
    *(Failure(f"sweep-{name}{'-simulate' * len(extra)}", ["sweep", *args, *extra, "--out", "s.csv"], 1, message)
      for name, args, message in [
          ("alpha-from--0.25", ["--param", "alpha", "--from", "-0.25"], "alpha=-0.25 outside [0, pi/2]"),
          ("alpha-to-2", ["--param", "alpha", "--to", "2"], "alpha=2.0 outside [0, pi/2]"),
          ("alpha-fixed-1.5", ["--param", "alpha", "--fixed", "1.5"], "x=1.5 outside [0, 1]"),
          ("x-from--1", ["--param", "x", "--from", "-1", "--to", "0.5"], "x=-1.0 outside [0, 1]"),
          ("x-to-1.5", ["--param", "x", "--to", "1.5", "--steps", "3"], "x=1.5 outside [0, 1]"),
          ("x-fixed-pi", ["--param", "x", "--fixed", "pi"], "alpha=3.141592653589793 outside [0, pi/2]"),
      ] for extra in ([], ["--simulate"])),
    # expsim: the library's checks of alpha, x and the noise
    Failure("expsim-empty-out", ["expsim", "--alpha", "pi/2", "--x", "0.5", "--out", ""], 1, IS_A_DIRECTORY),
    Failure("expsim-alpha-pi", ["expsim", "--alpha", "pi", "--x", "1"], 1, "alpha=3.141592653589793 outside [0, pi/2]"),
    Failure("expsim-x-2", ["expsim", "--alpha", "0", "--x", "2"], 1, "x=2.0 outside [0, 1]"),
    Failure("expsim-noise-2", ["expsim", "--alpha", "0", "--x", "1", "--noise", "2"], 1, "p_depol=2.0 outside [0, 1]"),
    Failure("expsim-noise-1", ["expsim", "--alpha", "pi/2", "--x", "0.5", "--noise", "1", "--out", "p1.json"], 1,
            LOST_SIGNAL),
    # at the first point outside the domain x is named before alpha, on every path
    *(Failure(f"{name}-both-bad-{alpha!r}-{x!r}", argv, 1, f"x={x!r} outside [0, 1]")
      for alpha, x in [(2.0, 1.5), (-0.25, -1.0)]
      for sweep in [["sweep", "--param", "alpha", "--from", repr(alpha), "--to", repr(alpha + 0.1), "--fixed", repr(x)]]
      for name, argv in [
          ("expsim", ["expsim", "--alpha", repr(alpha), "--x", repr(x)]),
          ("relation", ["relation", "--alpha", repr(alpha), "--x", repr(x)]),
          ("sweep", [*sweep, "--out", "s.csv"]),
          ("sweep-simulate", [*sweep, "--simulate", "--out", "s.csv"]),
      ]),
)


@pytest.mark.parametrize("row", ERRORS, ids=[row.id for row in ERRORS])
def test_error_contract(tmp_path, monkeypatch, capsys, row):
    """A failing invocation exits 1 or 2 with one ``error:`` line on stderr, prints nothing and writes no file."""
    monkeypatch.chdir(tmp_path)
    for name, content in row.files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            content(tmp_path / name)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)
    assert row.code in (1, 2) and main(row.argv) == row.code
    captured = capsys.readouterr()
    assert re.fullmatch("error: " + ".*".join(map(re.escape, row.message.split("…"))) + "\n", captured.err)
    assert captured.out == ""
    assert sorted(os.listdir()) == sorted(row.files)


class TestMubCommand:
    def test_construct_writes_valid_file(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["mub", "--d", "3", "--m", "4", "--out", str(out)]) == 0
        mubs = load_mubs(out)
        assert mubs.d == 3 and mubs.M == 4

    def test_default_m_is_complete_set(self, tmp_path):
        out = tmp_path / "m.json"
        for d in (2, 3):
            assert main(["mub", "--d", str(d), "--out", str(out)]) == 0
            assert load_mubs(out).M == d + 1

    def test_load_round_trip(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["mub", "--d", "5", "--m", "4", "--out", str(first)]) == 0
        assert main(["mub", "--d", "5", "--load", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_load_with_agreeing_flags(self, tmp_path):
        five, out = tmp_path / "m5.json", tmp_path / "x.json"
        assert main(["mub", "--d", "5", "--out", str(five)]) == 0
        assert main(["mub", "--d", "5", "--m", "6", "--load", str(five), "--out", str(out)]) == 0
        assert out.read_bytes() == five.read_bytes()


@pytest.mark.parametrize("load", [False, True])
def test_mub_validates_the_set_once(tmp_path, capsys, monkeypatch, load):
    from mubpurity import cli, mub

    five = tmp_path / "m.json"
    assert main(["mub", "--d", "5", "--out", str(five)]) == 0
    first = capsys.readouterr().out
    real, calls = mub._validation_report, []

    def counted(bases):
        calls.append(len(bases))
        return real(bases)

    # the CLI's own name too, should it ever import the function again
    for module in (mub, cli):
        monkeypatch.setattr(module, "_validation_report", counted, raising=False)
    out = tmp_path / "o.json"
    assert main(["mub", "--d", "5", *(["--load", str(five)] if load else []), "--out", str(out)]) == 0
    assert calls == [6]
    # the printed report is the one the set was accepted on
    assert capsys.readouterr().out == first.replace(str(five), str(out))
    assert out.read_bytes() == five.read_bytes()


class TestVerifyCommand:
    def test_complete_set_passes(self, capsys):
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "20", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "gamma frobenius max" in out and "all checks passed" in out

    def test_incomplete_set_passes(self, capsys):
        assert main(["verify", "--d", "3", "--m", "2", "--trials", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "\nchoi min eigenvalue floor: " in out
        assert "\nchoi hermiticity max deviation: " in out
        # J's gate decides gamma >= 0 once, no trial is gated, and no line reads an eigensolve
        assert "\nchoi psd gate failures: 0 (bound 0) PASS\n" in out
        assert "gamma psd gate failures" not in out
        assert "min eigenvalue:" not in out

    def test_rectangular_b_side(self):
        assert main(["verify", "--d", "2", "--m", "2", "--big-d", "3",
                     "--trials", "10", "--seed", "4"]) == 0

    def test_deterministic_report(self, capsys, tmp_path):
        args = ["verify", "--d", "2", "--m", "3", "--trials", "1", "--seed", "11",
                "--out", str(tmp_path / "r.txt")]
        assert main(args) == 0
        first = capsys.readouterr().out
        first_file = (tmp_path / "r.txt").read_bytes()
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "r.txt").read_bytes() == first_file

    def test_failed_trial_names_its_state_seed(self, capsys, monkeypatch):
        from mubpurity import relations

        real, seen = relations._relation_arrays, []

        def one_bad_gap(rho, dims, mubs):
            # trial 4 gets gap -1 in whichever chunk holds it, and Tr(gamma
            # rho) with it, so that only the gap check fails
            arrays = real(rho, dims, mubs)
            if len(seen) <= 4 < len(seen) + len(rho):
                arrays["gap"][4 - len(seen)] = arrays["gamma_expectation"][4 - len(seen)] = -1.0
            seen.extend(rho)
            return arrays

        monkeypatch.setattr(relations, "_relation_arrays", one_bad_gap)
        assert main(["verify", "--d", "3", "--m", "3", "--big-d", "2", "--trials", "6", "--seed", "5"]) == 2
        lines = capsys.readouterr().out.splitlines()
        seed = int(np.random.SeedSequence(5).generate_state(6, dtype=np.uint64)[4])
        # lines 1 and 2 are the Gram and Choi floor observations, which carry no verdict
        assert lines[1].startswith("gram max deviation: ")
        assert lines[2].startswith("choi min eigenvalue floor: ")
        assert [line for line in lines[3:-1] if not line.endswith("PASS")] == [
            f"relation gap min: -1.0 (bound -1e-09) FAIL [state seed {seed}]"
        ]
        assert lines[-1] == "VERIFICATION FAILED"
        # the seed rebuilds that trial's state; trial 4 draws rank 1
        assert np.array_equal(random_density(6, 1, seed, dims=(3, 2)).matrix, seen[4])


class TestRelationCommand:
    def test_family_values(self, tmp_path):
        out = tmp_path / "rel.json"
        assert main(["relation", "--alpha", "pi/2", "--x", "0.5", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["purity_AB"] - 0.4375) <= 1e-12
        assert abs(obj["lhs"] - 0.5625) <= 1e-12
        assert abs(obj["rhs"] - 0.5625) <= 1e-12

    def test_state_file_input(self, tmp_path):
        from mubpurity.states import rho_family

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(density_to_json(rho_family(np.pi / 2, 1.0))))
        out = tmp_path / "rel.json"
        assert main(["relation", "--state", str(state_path), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["purity_AB"] - 1.0) <= 1e-12
        assert abs(obj["gap"]) <= 1e-9

    def test_family_defaults_are_pi_over_2_and_1(self, capsys):
        assert main(["relation"]) == 0
        default = capsys.readouterr().out
        assert main(["relation", "--alpha", "pi/2", "--x", "1"]) == 0
        assert capsys.readouterr().out == default

    def test_family_state_reads_mubs_file(self, tmp_path):
        # --mubs applies to the family state too, through the same resolver, and an --m that agrees passes
        pair = tmp_path / "pair.json"
        assert main(["mub", "--d", "2", "--m", "2", "--out", str(pair)]) == 0
        out = tmp_path / "rel.json"
        for m in ([], ["--m", "2"]):
            assert main(["relation", "--mubs", str(pair), *m, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["M"] == 2


class TestSweepCommand:
    def test_alpha_sweep_rows(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["sweep", "--param", "alpha", "--fixed", "1", "--steps", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["alpha", "x", "d", "M"]
        assert len(lines) == 6
        last = dict(zip(header, lines[-1].split(",")))
        # maximally entangled end point: both sides vanish
        assert abs(float(last["lhs"])) <= 1e-9
        assert abs(float(last["rhs"])) <= 1e-9

    def test_x_sweep_closed_form(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--param", "x", "--fixed", "pi/2", "--steps", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            x = float(row["x"])
            assert abs(float(row["lhs"]) - 3 * (1 - x * x) / 4) <= 1e-9
            assert abs(float(row["rhs"]) - 3 * (1 - x * x) / 4) <= 1e-9
            assert abs(float(row["gap"])) <= 1e-9

    def test_simulate_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "x", "--steps", "3", "--simulate",
                     "--noise", "0.01", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "raw_purity_AB" in header and "rescaled_purity_AB" in header
        assert "raw_gap" in header and "rescaled_gap" in header

    def test_json_format(self, tmp_path):
        # the CSV and the JSON writer format the same columns: every CSV cell
        # is the repr of the float, or of the int, that the JSON holds
        args = ["sweep", "--param", "alpha", "--steps", "21", "--simulate", "--noise", "0.01"]
        assert main([*args, "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
        assert main([*args, "--out", str(tmp_path / "s.csv")]) == 0
        values = json.loads((tmp_path / "s.json").read_text())
        with open(tmp_path / "s.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(values) == len(rows) == 21
        assert all((value["d"], value["M"]) == (2, 3) for value in values)
        for row, value in zip(rows, values):
            assert sorted(row) == list(value)  # json sorts its keys
            for name, cell in row.items():
                assert type(value[name]) in (int, float) and cell == repr(value[name]), name

    def test_seed_environment_is_not_read(self, tmp_path, monkeypatch):
        # a sweep draws no random numbers, so a bad PURITY_SEED must not stop it
        monkeypatch.setenv("PURITY_SEED", "abc")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "x", "--steps", "3", "--out", str(out)]) == 0
        assert main(["sweep", "--param", "x", "--steps", "3", "--seed", "3",
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "t.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--d", "--m"])
    def test_family_flags_removed(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "x", flag, "2", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 1

    def test_simulated_columns_match_per_point_runs(self, tmp_path):
        # 130 grid points are read in one call; each equals a run of that point alone
        from mubpurity.expsim import PANEL_FIELDS, NoiseModel, run_protocol

        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "alpha", "--fixed", "0.4", "--steps", "130", "--simulate",
                     "--noise", "0.05", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 131
        noise = NoiseModel(0.05)
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            panel = run_protocol(float(row["alpha"]), float(row["x"]), noise)
            for name in PANEL_FIELDS:
                assert row[f"raw_{name}"] == repr(panel.raw[name])
                assert row[f"rescaled_{name}"] == repr(panel.rescaled[name])
            for kind in ("raw", "rescaled"):
                lhs, rhs = panel.relation_sides(use_raw=kind == "raw")
                assert [row[f"{kind}_{side}"] for side in ("lhs", "rhs", "gap")] == [
                    repr(lhs), repr(rhs), repr(lhs - rhs)]

    @pytest.mark.parametrize("simulate", [False, True])
    @pytest.mark.parametrize("param,fixed", [("alpha", "0.35"), ("x", "1.2")])
    def test_analytic_columns_match_per_point_reports(self, tmp_path, param, fixed, simulate):
        # the whole grid is read in one batched call; each cell equals a report of that point alone
        from mubpurity.relations import relation_report
        from mubpurity.states import rho_family

        out = tmp_path / "s.csv"
        extra = ["--simulate", "--noise", "0.01"] if simulate else []
        assert main(["sweep", "--param", param, "--fixed", fixed, "--steps", "130", *extra,
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 131
        mubs = construct_mubs(2, 3)
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            rep = relation_report(rho_family(float(row["alpha"]), float(row["x"])), mubs)
            z, x, y = rep.purity_thetaB  # construct_mubs(2, 3) orders the bases z, x, y
            expected = {
                "d": "2", "M": "3", "purity_AB": rep.purity_AB, "purity_B": rep.purity_B,
                "purity_xB": x, "purity_yB": y, "purity_zB": z,
                "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
            }
            for name, value in expected.items():
                assert row[name] == (value if isinstance(value, str) else repr(value)), name

    @pytest.mark.parametrize("noise", ["0", "0.01"])
    def test_grid_checked_once(self, tmp_path, monkeypatch, noise):
        import mubpurity.cli as cli
        import mubpurity.expsim as expsim
        from mubpurity.states import _family_states

        # _family_states checks the points' range and builds their states
        checked, reported, simulated = [], [], []
        for module in (cli, expsim):
            monkeypatch.setattr(module, "_family_states", lambda *a: checked.append(_family_states(*a)) or checked[-1])
        report, read = cli._relation_arrays, expsim._read_panel
        monkeypatch.setattr(cli, "_relation_arrays", lambda rho, *a: reported.append(rho) or report(rho, *a))
        monkeypatch.setattr(expsim, "_read_panel", lambda rho, v: simulated.append(rho) or read(rho, v))
        args = ["sweep", "--param", "x", "--steps", "7", "--simulate", "--noise", noise]
        expsim._noise_level.cache_clear()
        for _ in range(2):
            assert main([*args, "--out", str(tmp_path / "s.csv")]) == 0
        # each run's grid; the calibration reference once per noise level, when noise is on
        assert [len(rho) for rho in checked] == ([7, 7] if noise == "0" else [7, 1, 7])
        grids = [rho for rho in checked if len(rho) == 7]
        # each run reads the one stack it built, in its analytic and its simulated columns
        assert all(r is g for r, g in zip(reported, grids, strict=True))
        assert all(r is g for r, g in zip([rho for rho in simulated if len(rho) == 7], grids, strict=True))

    def test_cold_and_warm_noise_level_write_the_same_csv(self, tmp_path):
        import mubpurity.expsim as expsim

        args = ["sweep", "--param", "alpha", "--steps", "21", "--simulate", "--noise", "0.01"]
        expsim._noise_level.cache_clear()
        assert main([*args, "--out", str(tmp_path / "cold.csv")]) == 0
        misses = expsim._noise_level.cache_info().misses
        assert main([*args, "--out", str(tmp_path / "warm.csv")]) == 0
        assert expsim._noise_level.cache_info().misses == misses  # nothing was built or calibrated again
        assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

    @staticmethod
    def _row_text(columns):
        # one dict per row and str of every cell, as the CSV was once written
        rows = [dict(zip(columns, point)) for point in zip(*(v.tolist() for v in columns.values()))]
        return "\n".join([",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]) + "\n"

    @pytest.mark.parametrize("noise", ["0", "0.01"])
    @pytest.mark.parametrize("param", ["alpha", "x"])
    def test_csv_from_columns_equals_row_text(self, tmp_path, param, noise):
        from mubpurity import cli

        args = ["sweep", "--param", param, "--steps", "21", "--simulate", "--noise", noise]
        columns = cli._sweep_columns(cli._build_parser().parse_args([*args, "--out", "unused"]))
        assert cli._csv_text(columns) == self._row_text(columns)
        assert main([*args, "--out", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "s.csv").read_text() == self._row_text(columns)

    def test_csv_keeps_signed_zeros_repeats_and_ints(self):
        from mubpurity import cli

        columns = {
            "a": np.array([0.0, -0.0, 0.1, 0.1, -0.0]),
            "n": np.array([2, -3, 2, 0, 10**12]),
            "b": np.array([0.1, 1e-300, -0.0, 0.30000000000000004, 0.0]),
            "c": np.array([np.inf, -np.inf, np.nan, 1.0, -1.0]),
        }
        text = cli._csv_text(columns)
        assert text == self._row_text(columns)
        assert text.splitlines()[1:3] == ["0.0,2,0.1,inf", "-0.0,-3,1e-300,-inf"]

    def test_basis_set_built_once(self, tmp_path, monkeypatch):
        from mubpurity import cli

        args = ["sweep", "--param", "x", "--steps", "3", "--out", str(tmp_path / "s.csv")]
        assert main(args) == 0
        first = (tmp_path / "s.csv").read_bytes()
        monkeypatch.setattr(cli, "construct_mubs", lambda *a: pytest.fail("basis set built again"))
        assert main(args) == 0
        assert (tmp_path / "s.csv").read_bytes() == first


class TestExpsimCommand:
    def test_entangled_panel(self, tmp_path):
        out = tmp_path / "panel.json"
        assert main(["expsim", "--alpha", "1.5707963", "--x", "1", "--noise", "0",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["raw"]["purity_AB"] - 1.0) <= 1e-6  # alpha is 1e-7 off pi/2
        assert abs(obj["raw"]["purity_B"] - 0.5) <= 1e-6

    def test_product_panel(self, tmp_path):
        out = tmp_path / "panel.json"
        assert main(["expsim", "--alpha", "0", "--x", "1", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["raw"]["purity_zB"] - 1.0) <= 1e-10
        assert abs(obj["raw"]["purity_xB"] - 0.5) <= 1e-10

    def test_noise_attenuates(self, tmp_path):
        out = tmp_path / "panel.json"
        assert main(["expsim", "--alpha", "pi/2", "--x", "1", "--noise", "0.01",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        for name, value in obj["raw"].items():
            assert value < obj["rescaled"][name]

    def test_prints_the_rescaled_relation_sides(self, tmp_path, capsys):
        from mubpurity.expsim import NoiseModel, run_protocol

        assert main(["expsim", "--alpha", "pi/2", "--x", "0.75", "--noise", "0.01",
                     "--out", str(tmp_path / "panel.json")]) == 0
        lhs, rhs = run_protocol(math.pi / 2, 0.75, NoiseModel(0.01)).relation_sides()
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"rescaled lhs={lhs!r} rhs={rhs!r} gap={lhs - rhs!r}"

    def test_noise_just_below_one_passes(self):
        # at --noise 1 the signal is lost (ERRORS); just below, a rescaled panel exists
        assert main(["expsim", "--alpha", "pi/2", "--x", "0.5", "--noise", "0.99"]) == 0


@pytest.mark.parametrize("alpha,x", [(2.0, 1.5), (-0.25, -1.0)])
def test_both_values_bad_names_x(alpha, x):
    """At the first point outside the domain x is named before alpha, on every library path (ERRORS: the CLI's)."""
    from mubpurity.expsim import run_protocol
    from mubpurity.states import rho_family

    message = f"x={x!r} outside [0, 1]"
    for alphas, xs in [(alpha, x), (np.array([0.1, alpha, 2.0]), np.array([0.5, x, 0.5]))]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_protocol(alphas, xs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rho_family(alpha, x)


def _run_module(argv, env=None, **kwargs):
    """``python -m mubpurity argv`` with this checkout's src/ first on PYTHONPATH, plus ``env``; text output captured."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "mubpurity", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})}, **kwargs)


class TestUsageErrors:
    def test_parser_built_once(self):
        from mubpurity.cli import _build_parser

        _build_parser.cache_clear()
        main(["expsim", "--alpha", "0", "--x", "1"])
        main(["relation"])
        main(["expsim", "--alpha", "pi", "--x", "1"])
        assert _build_parser.cache_info().misses == 1

    def test_usage_error_after_success(self, capsys):
        assert main(["expsim", "--alpha", "0", "--x", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["expsim", "--alpha", "pie", "--x", "1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mubpurity expsim") and "invalid parse_angle value: 'pie'" in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["mub", "--d", "3"])
        assert exc.value.code == 1

    def test_bad_angle_literal(self):
        with pytest.raises(SystemExit) as exc:
            main(["expsim", "--alpha", "pie", "--x", "1"])
        assert exc.value.code == 1

    def test_zero_denominator_angle(self):
        proc = _run_module(["relation", "--alpha", "pi/0"])
        assert proc.returncode == 1
        assert "invalid parse_angle value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_allocation_failure_exits_1_with_one_line(self, tmp_path):
        # d = 1000003 asks for terabytes; the cap on the child's address space
        # makes numpy fail at once, whatever memory the machine has
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

        out = tmp_path / "big.json"
        proc = _run_module(["mub", "--d", "1000003", "--m", "2", "--out", str(out)],
                           env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap_address_space, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mub", "verify"])
    def test_huge_prime_d_exits_1_at_once(self, tmp_path, command):
        # 10**18 + 3 is prime, and deciding so must not trial-divide up to 10**9:
        # the set's allocation then fails at once; the timeout turns a hang into a failure
        out = tmp_path / "out"
        proc = _run_module([command, "--d", "1000000000000000003", "--m", "2", "--out", str(out)],
                           env={"OPENBLAS_NUM_THREADS": "1"}, timeout=10)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""
        assert not out.exists()

    def test_explicit_seed_ignores_the_environment(self, monkeypatch):
        # the same PURITY_SEED alone fails (ERRORS)
        monkeypatch.setenv("PURITY_SEED", "abc")
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "1", "--seed", "3"]) == 0

    # PURITY_SEED reads as int() reads it: surrounding whitespace, a sign,
    # single underscores between digits and any Unicode decimal digit; no
    # base prefix, exponent or fraction
    SEED_TEXTS = {
        **dict.fromkeys(["0", "7", " 7 ", "+7", "-7", "-0", "007", "1_000", " 1_0 ", "\t12\n", "\xa07", "\u0663",
                         "\uff11\uff12", "18446744073709551615"], True),
        **dict.fromkeys(["1__0", "_1", "1_", "0x10", "1e3", "1.0", "1.5", "abc", "+", "- 7", "7 7", "0b1", "\xbd"],
                        False),
    }

    @pytest.mark.parametrize("text", SEED_TEXTS)
    def test_seed_environment_reads_as_int(self, monkeypatch, capsys, text):
        monkeypatch.setenv("PURITY_SEED", text)
        argv = ["verify", "--d", "2", "--m", "3", "--trials", "1"]
        if self.SEED_TEXTS[text]:
            assert _default_seed() == int(text)
            # the same exit code and bytes as that seed given as --seed
            code = main(argv)
            captured = capsys.readouterr()
            assert main([*argv, "--seed", str(int(text))]) == code
            assert capsys.readouterr() == captured
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: PURITY_SEED={text!r} is not an integer\n"
