import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mubpurity.cli import _default_seed, main, parse_angle
from mubpurity.mub import load_mubs

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


class TestMubCommand:
    def test_construct_writes_valid_file(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["mub", "--d", "3", "--m", "4", "--out", str(out)]) == 0
        mubs = load_mubs(out)
        assert mubs.d == 3 and mubs.M == 4

    def test_default_m_is_complete_set(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["mub", "--d", "2", "--out", str(out)]) == 0
        assert load_mubs(out).M == 3

    @pytest.mark.parametrize("argv", [["mub", "--d", "6", "--m", "3"], ["verify", "--d", "6", "--m", "2"]],
                             ids=["mub", "verify"])
    def test_non_prime_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: d=6 is not prime; basis sets are constructed for prime d only\n"
        assert captured.out == ""
        assert not out.exists()

    def test_load_round_trip(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["mub", "--d", "5", "--m", "4", "--out", str(first)]) == 0
        assert main(["mub", "--d", "5", "--load", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_d_below_two_exits_1(self, tmp_path, capsys, d):
        assert main(["mub", "--d", d, "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == f"error: need d >= 2, got {d}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("kind,message", [
        ("not-orthonormal", "invalid basis set in {}: not a set of mutually unbiased bases: "),
        ("non-utf-8", "cannot read basis set from {}: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("boolean", "malformed basis file {}: expected nested [re, im] number pairs, got a boolean entry\n"),
        # a number numpy alone would store as an object; the set check rejects it
        ("two-to-the-64", "invalid basis set in {}: not a set of mutually unbiased bases: "),
        ("401-digit", "malformed basis file {}: expected nested [re, im] number pairs, "
                      "got an integer beyond float range\n"),
        ("nesting-disagrees", "malformed basis file {}: expected nested [re, im] number pairs of shape "
                              "(2, 2, 2, 2), got shape (3, 2, 2, 2)\n"),
        # json's RecursionError, and its ValueError past the integer digit limit; their texts differ between versions
        ("deeply-nested", "cannot read basis set from {}: "),
        ("huge-integer", "cannot read basis set from {}: "),
    ], ids=["not-orthonormal", "non-utf-8", "boolean", "two-to-the-64", "401-digit", "nesting-disagrees",
            "deeply-nested", "huge-integer"])
    def test_load_invalid_exits_2(self, tmp_path, capsys, kind, message):
        bad = tmp_path / "bad.json"
        if kind == "non-utf-8":
            bad.write_bytes(b"\xff\xfe{}")
        elif kind == "deeply-nested":
            bad.write_text('{"d": 2, "M": 2, "bases": ' + "[" * 100_000 + "]" * 100_000 + "}")
        elif kind == "huge-integer":
            # the 1.0 of basis 1's first vector
            bad.write_text(_write_mub_file(tmp_path).read_text().replace("1.0", HUGE_INTEGER, 1))
        else:
            obj = json.loads(_write_mub_file(tmp_path).read_text())
            if kind == "boolean":
                # a JSON false for the 0 of basis 1, which numpy would read as 0.0
                obj["bases"][0][0][1] = [False, 0.0]
            elif kind == "nesting-disagrees":
                obj["M"] = 2
            else:
                obj["bases"][1][0][0] = [{"two-to-the-64": 2**64, "401-digit": 10**400}.get(kind, 5.0), 0.0]
            bad.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "o.json"
        assert main(["mub", "--d", "2", "--load", str(bad), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message.format(bad)}") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_m_out_of_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        for m in ("9", "1", "5"):
            assert main(["mub", "--d", "3", "--m", m, "--out", str(out)]) == 1
            # the library's message
            assert capsys.readouterr().err == f"error: need 2 <= M <= d+1, got M={m}, d=3\n"
            assert not out.exists()
        assert main(["mub", "--d", "3", "--out", str(out)]) == 0
        assert load_mubs(out).M == 4

    @pytest.mark.parametrize("field,value", [("d", 2.5), ("M", 3.9)])
    def test_load_non_integral_count_exits_2(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(json.loads(_write_mub_file(tmp_path).read_text()) | {field: value}))
        out = tmp_path / "o.json"
        assert main(["mub", "--d", "2", "--load", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{field} must be an integer, got {value}" in err
        assert not out.exists()

    def test_load_d_one_exits_2(self, tmp_path, capsys):
        path = _write_d_one_file(tmp_path)
        assert main(["mub", "--d", "1", "--load", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "d >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--d", "3"], "--d 3 does not match the dimension 5 of {}"),
        (["--d", "3", "--m", "2"], "--m 2 does not match the 6 bases in {}"),
        (["--d", "5", "--m", "4"], "--m 4 does not match the 6 bases in {}"),
    ])
    def test_load_disagreeing_flag_exits_1(self, tmp_path, capsys, flags, message):
        five = tmp_path / "m5.json"
        assert main(["mub", "--d", "5", "--out", str(five)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.json"
        assert main(["mub", *flags, "--load", str(five), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(five)}\n"
        assert not out.exists()
        # flags that agree with the file still pass
        assert main(["mub", "--d", "5", "--m", "6", "--load", str(five), "--out", str(out)]) == 0
        assert out.read_bytes() == five.read_bytes()


@pytest.mark.parametrize("command", ["mub", "relation"])
def test_biased_basis_file_exits_2_with_one_line(tmp_path, capsys, command):
    # a d = 5 set with basis 3 replaced by basis 2: orthonormal, not unbiased
    five = tmp_path / "m.json"
    assert main(["mub", "--d", "5", "--out", str(five)]) == 0
    obj = json.loads(five.read_text())
    obj["bases"][2] = obj["bases"][1]
    biased = tmp_path / "biased.json"
    biased.write_text(json.dumps(obj))
    capsys.readouterr()
    out = tmp_path / "out.json"
    if command == "mub":
        argv = ["mub", "--d", "5", "--load", str(biased), "--out", str(out)]
    else:
        argv = ["relation", "--mubs", str(biased), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(
        rf"error: invalid basis set in {re.escape(str(biased))}: not a set of mutually unbiased bases: "
        r"orthonormality deviation \S+, unbiasedness deviation 8\.000e-01, tolerance 1e-12\n",
        captured.err,
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["mub", "mub --load", "relation --mubs"])
def test_zero_m_exits_1_with_one_line(tmp_path, capsys, command):
    # --m 0 asks for no bases; it is not the complete set
    pair = tmp_path / "m.json"
    assert main(["mub", "--d", "2", "--out", str(pair)]) == 0
    capsys.readouterr()
    argv, message = {
        "mub": (["mub", "--d", "2"], "need 2 <= M <= d+1, got M=0, d=2"),
        "mub --load": (["mub", "--d", "2", "--load", str(pair)], f"--m 0 does not match the 3 bases in {pair}"),
        "relation --mubs": (["relation", "--mubs", str(pair)], f"--m 0 does not match the 3 bases in {pair}"),
    }[command]
    out = tmp_path / "out.json"
    assert main([*argv, "--m", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mub", "--d", "2"],
    ["verify", "--d", "2", "--m", "3", "--trials", "1"],
    ["relation"],
    ["sweep", "--param", "x", "--steps", "2"],
    ["expsim", "--alpha", "pi/2", "--x", "0.5"],
], ids=lambda argv: argv[0])
def test_empty_out_is_a_bad_path(tmp_path, capsys, monkeypatch, argv):
    # '' names the working directory, not a missing --out: every command
    # fails on it as on any unwritable path, and prints nothing
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 21] Is a directory: '.'\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code,what", [
    pytest.param(["relation", "--state", ""], 1, "state", id="relation-state"),
    pytest.param(["relation", "--mubs", ""], 2, "basis set", id="relation-mubs"),
    pytest.param(["mub", "--d", "3", "--load", "", "--out", "o.json"], 2, "basis set", id="mub-load"),
])
def test_empty_input_path_is_a_bad_path(tmp_path, capsys, monkeypatch, argv, code, what):
    # '' names the working directory, not a missing --load, --mubs or --state:
    # it is read, and fails, as any unreadable path does
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read {what} from : [Errno 21] Is a directory: '.'\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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


def _write_d_one_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"d": 1, "M": 2, "bases": [[[[1, 0]]], [[[1, 0]]]]}))
    return path


def _write_mub_file(tmp_path):
    path = tmp_path / "src.json"
    main(["mub", "--d", "2", "--m", "3", "--out", str(path)])
    return path


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

    def test_unwritable_out_exits_1_before_the_report(self, capsys, tmp_path):
        # --out is written before the report is printed, so no report claims a pass
        assert main(["verify", "--d", "3", "--m", "2", "--trials", "3", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "Is a directory" in captured.err

    def test_zero_trials_exits_1(self, capsys):
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need trials >= 1, got 0\n"
        assert "all checks passed" not in captured.out

    def test_negative_seed_exits_1(self, capsys, monkeypatch):
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "1", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need seed >= 0, got -1\n"
        assert "all checks passed" not in captured.out
        monkeypatch.setenv("PURITY_SEED", "-1")
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "1"]) == 1
        assert capsys.readouterr().err == "error: need seed >= 0, got -1\n"

    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_d_below_two_exits_1(self, capsys, d):
        assert main(["verify", "--d", d, "--m", "2", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: need d >= 2, got {d}\n"
        assert "all checks passed" not in captured.out

    def test_zero_big_d_exits_1(self, capsys):
        for big_d in ("0", "-1"):
            assert main(["verify", "--d", "2", "--m", "3", "--big-d", big_d, "--trials", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: need big_d >= 1, got {big_d}\n"
            assert "all checks passed" not in captured.out

    def test_failed_trial_names_its_state_seed(self, capsys, monkeypatch):
        from mubpurity import relations
        from mubpurity.states import random_density

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
        from mubpurity.linalg import density_to_json
        from mubpurity.states import rho_family

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(density_to_json(rho_family(np.pi / 2, 1.0))))
        out = tmp_path / "rel.json"
        assert main(["relation", "--state", str(state_path), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["purity_AB"] - 1.0) <= 1e-12
        assert abs(obj["gap"]) <= 1e-9

    @pytest.mark.parametrize("field,value,message", [
        ("dims", [2.5, 2.9], "dims[0] must be an integer, got 2.5"),
        ("dims", None, "dims must be a sequence of integers, got None"),
        ("rows", 4.9, "rows must be an integer, got 4.9"),
        # sizes that hold, with data that is no state: an eigenvalue of -1e-6
        ("data", [[v, 0.0] for v in np.diag([1 + 1e-6, 0.0, 0.0, -1e-6]).ravel()],
         "density matrix has a negative eigenvalue beyond tolerance"),
        # I/4 with a JSON false for the imaginary part of an off-diagonal 0, which numpy would read as 0
        ("data", [[0, False] if k == 1 else [v, 0.0] for k, v in enumerate(np.eye(4).ravel() / 4)],
         "expected nested [re, im] number pairs, got a boolean entry"),
        # I/4 with an off-diagonal 2**64, a number numpy alone would store as an object
        ("data", [[2**64, 0] if k == 1 else [v, 0.0] for k, v in enumerate(np.eye(4).ravel() / 4)],
         "density matrix is not Hermitian within tolerance"),
        ("data", [[10**400, 0] if k == 1 else [v, 0.0] for k, v in enumerate(np.eye(4).ravel() / 4)],
         "expected nested [re, im] number pairs, got an integer beyond float range"),
        # 16 pairs where rows * cols declares 8
        ("rows", 2, "expected nested [re, im] number pairs of shape (8, 2), got shape (16, 2)"),
    ])
    def test_non_integral_state_sizes_exit_1(self, tmp_path, capsys, field, value, message):
        from mubpurity.linalg import density_to_json
        from mubpurity.states import random_density

        state_path = tmp_path / "state.json"
        obj = density_to_json(random_density(4, 4, 0, dims=(2, 2))) | {field: value}
        state_path.write_text(json.dumps(obj))
        assert main(["relation", "--state", str(state_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_x_exits_1(self):
        assert main(["relation", "--x", "1.5"]) == 1

    @pytest.mark.parametrize("flag,value", [("--alpha", "0.3"), ("--x", "0.2"), ("--x", "1")])
    def test_family_flag_with_state_exits_1(self, tmp_path, capsys, flag, value):
        # --alpha and --x set the family state, which a state file replaces;
        # even the default value, given explicitly, is refused
        from mubpurity.linalg import density_to_json
        from mubpurity.states import random_density

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(density_to_json(random_density(4, 4, 0, dims=(2, 2)))))
        out = tmp_path / "rel.json"
        assert main(["relation", "--state", str(state_path), flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} sets the family state and does not apply to --state\n"
        assert captured.out == "" and not out.exists()

    def test_family_defaults_are_pi_over_2_and_1(self, capsys):
        assert main(["relation"]) == 0
        default = capsys.readouterr().out
        assert main(["relation", "--alpha", "pi/2", "--x", "1"]) == 0
        assert capsys.readouterr().out == default

    def test_d_one_basis_file_exits_2(self, tmp_path, capsys):
        from mubpurity.linalg import density_to_json
        from mubpurity.states import random_density

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(density_to_json(random_density(2, 2, 0, dims=(1, 2)))))
        mubs = _write_d_one_file(tmp_path)
        assert main(["relation", "--mubs", str(mubs), "--state", str(state_path)]) == 2
        captured = capsys.readouterr()
        assert "d >= 2" in captured.err
        assert "equality_expected" not in captured.out


    def test_one_dimensional_a_side_exits_1(self, tmp_path, capsys):
        from mubpurity.linalg import density_to_json
        from mubpurity.states import random_density

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(density_to_json(random_density(2, 2, 0, dims=(1, 2)))))
        assert main(["relation", "--state", str(state_path)]) == 1
        # the A side is the d of construct_mubs
        assert capsys.readouterr().err == "error: need d >= 2, got 1\n"

    @pytest.mark.parametrize("dims,code,message", [
        ((4,), 1, "expected a bipartite state, got dims (4,)"),
        ((4, 1, 1), 1, "expected a bipartite state, got dims (4, 1, 1)"),
        ((5,), 1, "expected a bipartite state, got dims (5,)"),
        ((6, 1), 2, "d=6 is not prime; basis sets are constructed for prime d only"),
        # rows = cols = 1 is the least size the reader accepts
        pytest.param((1,), 1, "expected a bipartite state, got dims (1,)", id="one-by-one"),
    ])
    def test_state_dims_decide_the_exit(self, tmp_path, capsys, dims, code, message):
        # a state without two factors has no d, so the primality of its
        # first factor does not decide the exit
        from mubpurity.linalg import density_to_json
        from mubpurity.states import random_density

        dim = int(np.prod(dims))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(density_to_json(random_density(dim, dim, 0, dims=dims))))
        assert main(["relation", "--state", str(state_path)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content,cause", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (None, "[Errno 2] No such file or directory"),
        # json's RecursionError, and its ValueError past the integer digit limit; their texts differ between versions
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "", id="deeply-nested"),
        pytest.param(HUGE_INTEGER.encode(), "", id="huge-integer"),
    ])
    def test_unreadable_state_file_exits_1_naming_it(self, tmp_path, capsys, content, cause):
        # a state file and a basis-set file are read by one rule: only the exit code and what was read differ
        state_path = tmp_path / "state.json"
        if content is not None:
            state_path.write_bytes(content)
        out = tmp_path / "o.json"
        assert main(["relation", "--state", str(state_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read state from {state_path}: {cause}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert main(["mub", "--d", "2", "--load", str(state_path), "--out", str(out)]) == 2
        loaded = capsys.readouterr()
        assert loaded.err == captured.err.replace("cannot read state from", "cannot read basis set from", 1)
        assert loaded.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", [[], "state"], ids=["list", "str"])
    def test_state_file_not_an_object_exits_1(self, tmp_path, capsys, value):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(value))
        assert main(["relation", "--state", str(state_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: expected a density matrix object, got {type(value).__name__}\n"
        assert captured.out == ""

    def test_family_state_reads_mubs_file(self, tmp_path, capsys):
        # --mubs applies to the family state too, through the same resolver
        assert main(["relation", "--mubs", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read basis set from ")
        pair = tmp_path / "pair.json"
        assert main(["mub", "--d", "2", "--m", "2", "--out", str(pair)]) == 0
        out = tmp_path / "rel.json"
        assert main(["relation", "--mubs", str(pair), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["M"] == 2
        five = tmp_path / "five.json"
        assert main(["mub", "--d", "5", "--out", str(five)]) == 0
        capsys.readouterr()
        assert main(["relation", "--mubs", str(five)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: state A-dimension 2 does not match basis dimension 5\n"
        assert "equality_expected" not in captured.out

    def test_unreadable_mubs_file_exits_2_naming_it(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(_write_mub_file(tmp_path).read_text().replace("1.0", HUGE_INTEGER, 1))
        capsys.readouterr()
        assert main(["relation", "--mubs", str(huge)]) == 2
        captured = capsys.readouterr()
        # the prefix only: the interpreter's text of the digit limit varies
        assert captured.err.startswith(f"error: cannot read basis set from {huge}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_mubs_file_disagreeing_with_m_exits_1(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        assert main(["mub", "--d", "2", "--m", "2", "--out", str(pair)]) == 0
        capsys.readouterr()
        out = tmp_path / "rel.json"
        assert main(["relation", "--mubs", str(pair), "--m", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --m 3 does not match the 2 bases in {pair}\n"
        assert "equality_expected" not in captured.out
        assert not out.exists()
        assert main(["relation", "--mubs", str(pair), "--m", "2", "--out", str(out)]) == 0
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
        from mubpurity.mub import construct_mubs
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

    @pytest.mark.parametrize("simulate", [False, True])
    @pytest.mark.parametrize("args,alpha,x", [
        (["--param", "alpha", "--from", "-0.25"], -0.25, 1.0),
        (["--param", "alpha", "--to", "2"], 2.0, 1.0),
        (["--param", "alpha", "--fixed", "1.5"], 0.0, 1.5),
        (["--param", "x", "--from", "-1", "--to", "0.5"], math.pi / 2, -1.0),
        (["--param", "x", "--to", "1.5", "--steps", "3"], math.pi / 2, 1.5),
        (["--param", "x", "--fixed", "pi"], math.pi, 0.0),
    ])
    def test_out_of_domain_exits_1_with_library_message(self, tmp_path, capsys, args, alpha, x, simulate):
        from mubpurity.states import rho_family

        with pytest.raises(ValueError) as exc:
            rho_family(alpha, x)  # the first point of the grid outside the domain
        extra = ["--simulate"] if simulate else []
        out = tmp_path / "s.csv"
        assert main(["sweep", *args, *extra, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("flag,value", [("--to", "inf"), ("--from", "-inf"), ("--from", "nan")])
    def test_non_finite_bound_exits_1(self, tmp_path, capsys, flag, value):
        # rejected before the grid is built: no numpy warning, no nan point
        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "alpha", f"{flag}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"
        assert not out.exists()

    def test_overflowing_span_exits_1(self, tmp_path, capsys):
        # finite bounds whose difference overflows: rejected before numpy warns
        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "alpha", "--from=-1.7e308", "--to", "1.7e308", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sweep span --to minus --from must be finite, got inf\n"
        assert not out.exists()

    def test_write_failure_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.csv"
        assert main(["sweep", "--param", "x", "--steps", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("steps", ["1", "0"])
    def test_steps_below_two_exit_1(self, tmp_path, capsys, steps):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "x", "--steps", steps, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: need steps >= 2, got {steps}\n"
        assert not out.exists()

    def test_empty_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--param", "x", "--from", "0.5", "--to", "0.5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sweep range must satisfy from < to\n"
        assert not out.exists()

    def test_bad_range_exits_1(self, tmp_path):
        assert main(["sweep", "--param", "x", "--from", "0.5", "--to", "0.2",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["sweep", "--param", "alpha", "--to", "5", "--steps", "5",
                     "--out", str(tmp_path / "y.csv")]) == 1
        # the noise model is checked whether or not the sweep simulates
        for extra in ([], ["--simulate"]):
            assert main(["sweep", "--param", "x", "--noise", "2", *extra,
                         "--out", str(tmp_path / "z.csv")]) == 1


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

    def test_lost_signal_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # at --noise 1 the probe signal is gone, so no rescaled panel exists
        commands = {
            "p1.json": ["expsim", "--alpha", "pi/2", "--x", "0.5", "--noise", "1"],
            "p1.csv": ["sweep", "--param", "x", "--steps", "5", "--simulate", "--noise", "1"],
        }
        for name, argv in commands.items():
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(r"error: attenuation factor for purity_AB .*\n", captured.err)
            assert not out.exists()
        assert main(["expsim", "--alpha", "pi/2", "--x", "0.5", "--noise", "0.99"]) == 0

    def test_bad_params_exit_1(self):
        assert main(["expsim", "--alpha", "pi", "--x", "1"]) == 1
        assert main(["expsim", "--alpha", "0", "--x", "2"]) == 1
        assert main(["expsim", "--alpha", "0", "--x", "1", "--noise", "2"]) == 1


@pytest.mark.parametrize("alpha,x", [(2.0, 1.5), (-0.25, -1.0)])
def test_both_values_bad_names_x(tmp_path, capsys, alpha, x):
    """At the first point outside the domain x is named before alpha, on every path."""
    from mubpurity.expsim import run_protocol
    from mubpurity.states import rho_family

    message = f"x={x!r} outside [0, 1]"
    for alphas, xs in [(alpha, x), (np.array([0.1, alpha, 2.0]), np.array([0.5, x, 0.5]))]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_protocol(alphas, xs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rho_family(alpha, x)
    sweep = ["sweep", "--param", "alpha", "--from", repr(alpha), "--to", repr(alpha + 0.1), "--fixed", repr(x)]
    for argv in (
        ["expsim", "--alpha", repr(alpha), "--x", repr(x)],
        ["relation", "--alpha", repr(alpha), "--x", repr(x)],
        [*sweep, "--out", str(tmp_path / "s.csv")],
        [*sweep, "--simulate", "--out", str(tmp_path / "s.csv")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_bad_seed_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("PURITY_SEED", "abc")
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "1"]) == 1
        assert "PURITY_SEED" in capsys.readouterr().err
        # an explicit seed does not read the environment
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
