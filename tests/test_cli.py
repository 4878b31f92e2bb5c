"""CLI contract: parsing, grids, output formats, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pspin.cli import RunConfig, emit, main, parse_beta_grid, parse_config


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pspin.cli", *args], capture_output=True, text=True
    )


class TestGridParsing:
    def test_range_spec_is_inclusive(self):
        grid = parse_beta_grid("0:5:0.01")
        assert len(grid) == 501
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(5.0, abs=1e-12)

    def test_comma_list(self):
        assert parse_beta_grid("0.5,1,2") == [0.5, 1.0, 2.0]

    def test_scalar(self):
        assert parse_beta_grid("1.5") == [1.5]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_beta_grid("1:2")
        with pytest.raises(ValueError):
            parse_beta_grid("2:1:0.1")


class TestParseConfig:
    def test_critical_defaults(self):
        cfg = parse_config(["critical", "--p", "3"])
        assert cfg == RunConfig(
            command="critical", p=3, seed=0, tolerances={"tol": 1e-13}, options={}
        )

    def test_sweep_grid(self):
        cfg = parse_config(["sweep", "--p", "3", "--beta", "0:5:0.01"])
        assert len(cfg.beta_grid) == 501

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("PSPIN_SEED", "777")
        cfg = parse_config(["critical", "--p", "3"])
        assert cfg.seed == 777
        cfg = parse_config(["critical", "--p", "3", "--seed", "5"])
        assert cfg.seed == 5

    def test_rejects_small_p(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--p", "1"])
        assert exc.value.code == 2

    def test_config_file_defaults_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": "0:1:0.5", "format": "json"}))
        cfg = parse_config(["--config", str(path), "sweep", "--p", "3"])
        assert cfg.format == "json"
        assert cfg.beta_grid == [0.0, 0.5, 1.0]
        cfg = parse_config(["--config", str(path), "sweep", "--p", "3", "--format", "csv"])
        assert cfg.format == "csv"

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(path), "sweep", "--p", "3"])
        assert exc.value.code == 2


class TestEmit:
    def test_csv_shape(self, capsys):
        emit([{"a": 1, "b": 0.5}], {"seed": 0}, "csv", None)
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3  # comment + header + one row
        assert lines[0].startswith("# pspin v")
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"

    def test_json_rows(self, capsys):
        emit([{"a": 1}, {"a": 2}], {"seed": 0}, "json", None)
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 2
        assert doc["meta"]["seed"] == 0

    def test_csv_floats_round_trip(self, tmp_path):
        values = [math.pi, 1e-300, 0.1, 2.0 / 3.0, 1.2065557345680356]
        rows = [{"x": v} for v in values]
        path = tmp_path / "out.csv"
        emit(rows, {}, "csv", str(path))
        lines = path.read_text().strip().split("\n")[2:]
        assert [float(line) for line in lines] == values

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit([], {}, "csv", None)


class TestCommands:
    def test_critical_p2_row(self):
        proc = run_cli("critical", "--p", "2")
        assert proc.returncode == 0
        row = proc.stdout.strip().split("\n")[-1].split(",")
        assert float(row[1]) == 0.0
        assert float(row[2]) == pytest.approx(0.7071067811865475, abs=1e-12)
        assert float(row[3]) == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_sweep_inserts_critical_beta(self):
        proc = run_cli("sweep", "--p", "3", "--beta", "1.0:1.5:0.1")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")[2:]
        branches = [ln.split(",")[4] for ln in lines]
        assert "critical" in branches
        f = [float(ln.split(",")[3]) for ln in lines]
        assert all(b >= a - 1e-12 for a, b in zip(f, f[1:]))
        i = branches.index("critical")
        beta_c = float(lines[i].split(",")[0])
        assert abs(f[i] - 0.5 * beta_c**2) <= 1e-6  # seam matches the RS value

    def test_thermo_csv_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = run_cli(
            "thermo", "--p", "3", "--n", "8", "--beta-max", "0.4", "--rungs", "3",
            "--sweeps", "40", "--burn-in", "20", "--seed", "3", "-o", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1].split(",")[:4] == ["beta", "f_estimate", "stderr", "f_theory"]
        assert len(lines) >= 5

    def test_gstate_output(self, tmp_path):
        out = tmp_path / "g.json"
        proc = run_cli(
            "gstate", "--p", "2", "--n", "12", "--restarts", "3", "--seed", "4",
            "--format", "json", "-o", str(out),
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 3
        assert sum(r["is_best"] for r in doc["rows"]) == 1
        for r in doc["rows"]:
            assert r["stop_reason"] == "tol" and r["converged"] and r["iterations"] >= 1
        assert doc["meta"]["best_energy_per_spin"] == max(
            r["energy_per_spin"] for r in doc["rows"]
        )

    def test_mc_verify_rows(self):
        proc = run_cli(
            "mc-verify", "--p", "3", "--n", "6", "--draws", "1500", "--trials", "3",
            "--seed", "1",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        kinds = {ln.split(",")[0] for ln in lines[2:]}
        assert kinds == {"covariance", "gradient_fd"}

    def test_probe_histogram_and_meta(self, tmp_path):
        out = tmp_path / "p.json"
        proc = run_cli(
            "probe", "--p", "3", "--n", "10", "--k", "2", "--rungs", "4",
            "--sweeps", "30", "--burn-in", "10", "--bins", "20",
            "--seed", "2", "--format", "json", "-o", str(out),
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 20
        assert sum(r["count"] for r in doc["rows"]) == doc["meta"]["pair_count"]
        assert "modal_overlap" in doc["meta"]
        assert "equilibrated" in doc["meta"]["diagnostics"]

    def test_disorder_file_cycle(self, tmp_path):
        dpath = tmp_path / "J.bin"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["gstate", "--p", "3", "--n", "8", "--restarts", "2", "--seed", "9",
                "--disorder-file", str(dpath)]
        assert run_cli(*args, "-o", str(out1)).returncode == 0
        assert dpath.exists()
        assert run_cli(*args, "-o", str(out2)).returncode == 0
        assert out1.read_text() == out2.read_text()

    def test_disorder_file_shape_mismatch_is_numerical_failure(self, tmp_path):
        dpath = tmp_path / "J.bin"
        base = ["gstate", "--p", "3", "--n", "8", "--restarts", "2",
                "--disorder-file", str(dpath)]
        assert run_cli(*base).returncode == 0
        proc = run_cli("gstate", "--p", "3", "--n", "10", "--restarts", "2",
                       "--disorder-file", str(dpath))
        assert proc.returncode == 1
        assert "n=8" in proc.stderr


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run_cli("sweep", "--p", "1").returncode == 2
        assert run_cli("sweep", "--p", "3", "--beta", "5:0:1").returncode == 2
        assert run_cli("nonsense").returncode == 2

    def test_numerical_failure_is_one(self, tmp_path):
        # output path in a missing directory: compute succeeds, write fails
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        proc = run_cli("critical", "--p", "3", "-o", str(missing))
        assert proc.returncode == 1
        assert not missing.exists()

    def test_probe_rejects_zero_beta(self):
        proc = run_cli("probe", "--p", "3", "--n", "4", "--beta", "0", "--k", "2",
                       "--rungs", "2", "--sweeps", "2", "--burn-in", "0")
        assert proc.returncode != 0
        assert "probe beta must be positive" in proc.stderr

    def test_reproducible_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["thermo", "--p", "2", "--n", "6", "--beta-max", "0.5", "--rungs", "3",
                "--sweeps", "30", "--burn-in", "10", "--seed", "11"]
        assert run_cli(*args, "-o", str(a)).returncode == 0
        assert run_cli(*args, "-o", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_main_entry_point(self, capsys):
        assert main(["critical", "--p", "2"]) == 0
        assert capsys.readouterr().out.startswith("# pspin")
