import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mubpurity.cli import main, parse_angle
from mubpurity.mub import load_mubs


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

    def test_rejects_junk(self):
        for bad in ("pie", "pi/", "2+pi", "x", "pi/0", "3pi/0.0"):
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

    def test_non_prime_exits_2(self, tmp_path, capsys):
        code = main(["mub", "--d", "6", "--m", "3", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--load" in capsys.readouterr().err

    def test_load_round_trip(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["mub", "--d", "5", "--m", "4", "--out", str(first)]) == 0
        assert main(["mub", "--d", "5", "--load", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_d_below_two_exits_1(self, tmp_path, capsys, d):
        assert main(["mub", "--d", d, "--out", str(tmp_path / "m.json")]) == 1
        assert "--d" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_load_invalid_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        obj = json.loads(_write_mub_file(tmp_path).read_text())
        obj["bases"][1][0][0] = [5.0, 0.0]
        bad.write_text(json.dumps(obj))
        assert main(["mub", "--d", "2", "--load", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_m_out_of_range_exits_1(self, tmp_path):
        assert main(["mub", "--d", "3", "--m", "9", "--out", str(tmp_path / "x.json")]) == 1

    def test_load_d_one_exits_2(self, tmp_path, capsys):
        path = _write_d_one_file(tmp_path)
        assert main(["mub", "--d", "1", "--load", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "d >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


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
        assert "gamma min eigenvalue" in capsys.readouterr().out

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

    def test_zero_trials_exits_1(self, capsys):
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "0"]) == 1
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert "all checks passed" not in captured.out

    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_d_below_two_exits_1(self, capsys, d):
        assert main(["verify", "--d", d, "--m", "2", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert "--d" in captured.err
        assert "all checks passed" not in captured.out

    def test_zero_big_d_exits_1(self, capsys):
        assert main(["verify", "--d", "2", "--m", "3", "--big-d", "0", "--trials", "1"]) == 1
        assert "error:" in capsys.readouterr().err


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

    def test_bad_x_exits_1(self):
        assert main(["relation", "--x", "1.5"]) == 1

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
        out = tmp_path / "s.json"
        assert main(["sweep", "--param", "x", "--steps", "3", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert all((row["d"], row["M"]) == (2, 3) for row in rows)

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

    def test_simulated_columns_match_per_point_runs(self, tmp_path, monkeypatch):
        from mubpurity import cli
        from mubpurity.expsim import PANEL_FIELDS, NoiseModel, calibration_factors, run_protocol

        args = ["sweep", "--param", "alpha", "--fixed", "0.4", "--steps", "7", "--simulate",
                "--noise", "0.05"]
        assert main(args + ["--out", str(tmp_path / "whole.csv")]) == 0
        monkeypatch.setattr(cli, "SWEEP_CHUNK", 3)  # chunks of 3, 3 and 1 points
        assert main(args + ["--out", str(tmp_path / "chunked.csv")]) == 0
        whole = (tmp_path / "whole.csv").read_text()
        assert (tmp_path / "chunked.csv").read_text() == whole
        lines = whole.splitlines()
        noise = NoiseModel(0.05, enabled=True)
        calibration = calibration_factors(noise)
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            panel = run_protocol(float(row["alpha"]), float(row["x"]), noise, calibration=calibration)
            for name in PANEL_FIELDS:
                assert row[f"raw_{name}"] == repr(panel.raw[name])
                assert row[f"rescaled_{name}"] == repr(panel.rescaled[name])

    def test_bad_range_exits_1(self, tmp_path):
        assert main(["sweep", "--param", "x", "--from", "0.5", "--to", "0.2",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["sweep", "--param", "alpha", "--to", "5", "--steps", "5",
                     "--out", str(tmp_path / "y.csv")]) == 1


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

    def test_bad_params_exit_1(self):
        assert main(["expsim", "--alpha", "pi", "--x", "1"]) == 1
        assert main(["expsim", "--alpha", "0", "--x", "2"]) == 1
        assert main(["expsim", "--alpha", "0", "--x", "1", "--noise", "2"]) == 1


class TestUsageErrors:
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
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "mubpurity", "relation", "--alpha", "pi/0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert "invalid parse_angle value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_seed_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("PURITY_SEED", "abc")
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "1"]) == 1
        assert "PURITY_SEED" in capsys.readouterr().err
        # an explicit seed does not read the environment
        assert main(["verify", "--d", "2", "--m", "3", "--trials", "1", "--seed", "3"]) == 0
