"""CLI contract: parsing, grids, output formats, exit codes."""

import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from pspin.cli import MAX_GRID_POINTS, RUNNERS, emit, main, parse_beta_grid, parse_config
from pspin.simulator import checks


def _refuse(constant):
    raise ValueError(f"not JSON: {constant}")


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
        for spec in ("nan", "0,inf", "0:inf:1", "inf:inf:1", "0:1:nan", "0:1e300:1e-300"):
            with pytest.raises(ValueError, match="must be finite"):
                parse_beta_grid(spec)

    def test_range_point_count_is_bounded(self):
        # 0:1e9:1 built a list of 10^9 floats before the first free energy
        assert len(parse_beta_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        assert len(parse_beta_grid("0:1:0.3")) == 5  # the endpoint is added
        for spec in (f"0:{MAX_GRID_POINTS}:1", "0:1:1e-6", "0:1e9:1"):
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
                parse_beta_grid(spec)


class TestParseConfig:
    def test_critical_defaults(self):
        cfg = parse_config(["critical", "--p", "3"])
        assert (cfg.command, cfg.p, cfg.seed, cfg.beta_grid) == ("critical", 3, 0, None)
        with pytest.raises(SystemExit) as exc:
            parse_config(["critical", "--p", "3", "--tol", "1e-7"])
        assert exc.value.code == 2

    def test_tol_must_be_positive(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["gstate", "--p", "3", "--n", "8", "--tol", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gstate", "--tol", "nan"],
        ["gstate", "--tol", "inf"],
        ["thermo", "--beta-max", "inf"],
        ["thermo", "--beta-max", "nan"],
        ["probe", "--beta", "inf"],
        ["probe", "--beta", "nan"],
        ["sweep", "--beta", "nan"],
        ["sweep", "--beta", "0,inf"],
        ["sweep", "--beta", "0:inf:1"],
        ["sweep", "--beta", "0:1e300:1e-300"],
    ])
    def test_values_not_finite_are_usage_errors(self, argv, capsys):
        # nan kept every gstate restart to max_iters, inf stopped each at
        # iteration 0; a thermo ladder to inf ran its chains on NaN kicks; a
        # sweep grid failed in free_energy, or overflowed counting its points
        sweep = argv[0] == "sweep"
        with pytest.raises(SystemExit) as exc:
            parse_config([*argv[:1], "--p", "3", *([] if sweep else ["--n", "8"]), *argv[1:]])
        assert exc.value.code == 2
        expected = (f"grid spec {argv[2]!r}: values and point count must be finite" if sweep
                    else f"{argv[1]} must be finite")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gstate", "--max-iters", "-1"],
        ["probe", "--bins", "0"],
        ["probe", "--burn-in", "-5"],
        ["thermo", "--burn-in", "-5"],
        # rejected by the parser, before any disorder is sampled
        ["thermo", "--rungs", "1"],
        ["probe", "--rungs", "1"],
        ["probe", "--k", "1"],
        ["thermo", "--sweeps", "0"],
        ["probe", "--sweeps", "0"],
        ["gstate", "--restarts", "0"],
        ["mc-verify", "--trials", "-1"],
        ["thermo", "--beta-max", "0"],
        ["thermo", "--beta-max=-1"],
        ["probe", "--beta", "0"],
        ["mc-verify", "--draws", "10"],
    ])
    def test_counts_out_of_range_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_config([*argv[:1], "--p", "3", "--n", "8", *argv[1:]])
        assert exc.value.code == 2

    def test_zero_max_iters_and_burn_in_are_allowed(self):
        cfg = parse_config(["gstate", "--p", "3", "--n", "8", "--max-iters", "0"])
        assert cfg.max_iters == 0
        cfg = parse_config(["probe", "--p", "3", "--n", "8", "--burn-in", "0", "--bins", "1"])
        assert (cfg.burn_in, cfg.bins) == (0, 1)
        cfg = parse_config(["mc-verify", "--p", "3", "--n", "8", "--trials", "0"])
        assert cfg.trials == 0

    def test_sweep_grid(self):
        cfg = parse_config(["sweep", "--p", "3", "--beta", "0:5:0.01"])
        assert len(cfg.beta_grid) == 501

    def test_sweep_grid_too_long_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--p", "3", "--beta", "0:1e6:1"])
        assert exc.value.code == 2
        assert f"more than {MAX_GRID_POINTS} points" in capsys.readouterr().err

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("PSPIN_SEED", "777")
        cfg = parse_config(["critical", "--p", "3"])
        assert cfg.seed == 777
        cfg = parse_config(["critical", "--p", "3", "--seed", "5"])
        assert cfg.seed == 5

    @pytest.mark.parametrize("argv, env, config", [
        (["critical", "--p", "3"], "abc", None),
        (["critical", "--p", "3"], "1.5", None),
        (["critical", "--p", "3", "--seed", "-1"], None, None),
        (["gstate", "--p", "3", "--n", "4", "--seed", "-1"], None, None),
        (["gstate", "--p", "3", "--n", "4", "--seed", str(2**128)], None, None),
        (["critical", "--p", "3", "--seed", str(2**128)], None, None),
        (["gstate", "--p", "3", "--n", "4"], "-1", None),
        (["gstate", "--p", "3", "--n", "4"], None, {"seed": -1}),
        (["gstate", "--p", "3", "--n", "4"], None, {"seed": 2**128}),
    ])
    def test_bad_seed_is_a_usage_error(self, tmp_path, argv, env, config):
        # PSPIN_SEED=abc died in a traceback, and a seed outside [0, 2**128)
        # reached Philox, which exits 1 after the parse
        extra = {} if env is None else {"PSPIN_SEED": env}
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path), *argv]
        proc = subprocess.run([sys.executable, "-m", "pspin.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, **extra})
        assert proc.returncode == 2 and proc.stdout == ""
        assert "seed" in proc.stderr.lower() and "Traceback" not in proc.stderr

    def test_seed_bounds(self, monkeypatch, capsys):
        for seed in (0, 2**128 - 1):
            assert parse_config(["critical", "--p", "3", "--seed", str(seed)]).seed == seed
        monkeypatch.setenv("PSPIN_SEED", "abc")
        assert parse_config(["critical", "--p", "3", "--seed", "4"]).seed == 4  # env unread
        with pytest.raises(SystemExit):
            parse_config(["critical", "--p", "3"])
        assert "PSPIN_SEED must hold an integer seed, got 'abc'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            parse_config(["critical", "--p", "3", "--seed", str(2**128)])
        assert f"--seed must be < 2**128, got {2**128}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("values, message", [
        ({"format": "xml"}, "argument --format: invalid choice: 'xml'"),
        ({"restarts": 2.5}, "argument --restarts: invalid int value: '2.5'"),
        ({"tol": "small"}, "argument --tol: invalid float value: 'small'"),
        ({"restarts": True}, "config key 'restarts' must hold a string, a number or null"),
        ({"output": ["a.csv"]}, "config key 'output' must hold a string, a number or null"),
    ])
    def test_config_values_pass_the_options_checks(self, tmp_path, capsys, values, message):
        # "xml" ran the whole search and then exited 1 in emit; 2.5 died in the search
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(path), "gstate", "--p", "3", "--n", "8"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_config_numbers_convert_as_flags_do(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"restarts": 3, "tol": 1e-6, "seed": None, "format": "json"}))
        cfg = parse_config(["--config", str(path), "gstate", "--p", "3", "--n", "8"])
        assert (cfg.restarts, cfg.tol, cfg.seed, cfg.format) == (3, 1e-6, 0, "json")
        assert type(cfg.restarts) is int and type(cfg.tol) is float

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(path), "sweep", "--p", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file {path}: [Errno 2]"),
        ("{bad", "cannot read config file {path}: Expecting property name"),
        ("[1, 2]", "config file {path} must hold a JSON object"),
        ('{"command": "probe"}', "unknown config key 'command'"),
        ('{"config": "other.json"}', "unknown config key 'config'"),
    ])
    def test_config_file_errors_are_usage_errors(self, tmp_path, capsys, content, message):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            parse_config(["--config", str(path), "critical", "--p", "3"])
        assert exc.value.code == 2
        assert message.format(path=path) in capsys.readouterr().err

    def test_config_keys_bind_to_the_chosen_command(self, tmp_path, monkeypatch):
        # a config file named like a command must not be taken for the command
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep").write_text(json.dumps({"restarts": 3, "max-iters": 40}))
        cfg = parse_config(["--config", "sweep", "gstate", "--p", "3", "--n", "8"])
        assert (cfg.command, cfg.restarts, cfg.max_iters) == ("gstate", 3, 40)
        cfg = parse_config(["--config", "sweep", "gstate", "--p", "3", "--n", "8",
                            "--restarts", "5"])
        assert (cfg.restarts, cfg.max_iters) == (5, 40)


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

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("earlier output\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(RuntimeError, match="rename refused"):
            emit([{"a": 1}], {}, "json", str(path))
        assert path.read_text() == "earlier output\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_write_through_symlink_keeps_link_and_mode(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("earlier output\n")
        real.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        emit([{"a": 1}], {}, "json", str(link))
        assert link.is_symlink()
        assert json.loads(real.read_text())["rows"] == [{"a": 1}]
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        emit([{"a": 1}], {}, "json", str(fifo))
        reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert got and json.loads(got[0])["rows"] == [{"a": 1}]

    def test_failed_disorder_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        from pspin.simulator import sample_disorder, save_disorder

        path = tmp_path / "J.bin"
        save_disorder(sample_disorder(4, 3, seed=1), str(path))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            save_disorder(sample_disorder(4, 3, seed=2), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["J.bin"]

    def test_undefined_values_are_null_and_empty_cells(self, tmp_path):
        # JSON has no NaN: json.dumps wrote a bare NaN, which strict parsers reject
        rows = [{"a": float("nan"), "b": np.float64("inf"), "c": 1.5}]
        emit(rows, {"rhat": np.array([np.nan, 1.0])}, "json", str(tmp_path / "x.json"))
        doc = json.loads((tmp_path / "x.json").read_text(), parse_constant=_refuse)
        assert doc["rows"] == [{"a": None, "b": None, "c": 1.5}]
        assert doc["meta"]["rhat"] == [None, 1.0]
        emit(rows, {}, "csv", str(tmp_path / "x.csv"))
        assert (tmp_path / "x.csv").read_text().split("\n")[1:3] == ["a,b,c", ",,1.5"]

    @pytest.mark.parametrize("argv", [
        ["thermo", "--p", "3", "--n", "8", "--rungs", "3", "--sweeps", "2", "--burn-in", "0"],
        ["probe", "--p", "3", "--n", "4", "--k", "2", "--rungs", "2", "--sweeps", "2",
         "--burn-in", "0"],
    ])
    def test_short_runs_write_valid_json(self, argv):
        # two sweeps leave the batch-means stderr and the replicas' R-hat undefined
        proc = run_cli(*argv, "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout, parse_constant=_refuse)
        undefined = ([row["stderr"] for row in doc["rows"]] if argv[0] == "thermo"
                     else [doc["meta"]["diagnostics"]["replica_energy_rhat"]])
        assert None in undefined

    def test_write_is_synced_before_and_after_the_rename(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            fsync(fd)

        def record_replace(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        emit([{"a": 1}], {}, "json", str(tmp_path / "out.json"))
        assert calls == ["fsync file", "replace", "fsync dir"]
        assert json.loads((tmp_path / "out.json").read_text())["rows"] == [{"a": 1}]

        calls.clear()  # a FIFO is written in place, with no sync
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = threading.Thread(target=fifo.read_text, daemon=True)
        reader.start()
        emit([{"a": 1}], {}, "json", str(fifo))
        reader.join(timeout=10)
        assert calls == []

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

    @pytest.mark.parametrize("p", [1000, 5000, 100000])
    def test_critical_large_p(self, p):
        # a(q)'s terms grow like p, and so does the rounding of a root polished to the last bit
        proc = run_cli("critical", "--p", str(p), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        (row,) = json.loads(proc.stdout)["rows"]
        assert 0.0 < row["q_c"] < 1.0
        scale = abs(math.log1p(-row["q_c"]))
        assert max(abs(row[r]) for r in ("r_I", "r_IIa", "r_IIb")) <= 1e-9 * scale, row

    def test_sweep_large_p(self):
        proc = run_cli("sweep", "--p", "1000", "--beta", "3:8:1", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        tap = [r for r in json.loads(proc.stdout)["rows"] if r["branch"] == "tap"]
        assert [r["beta"] for r in tap] == [4.0, 5.0, 6.0, 7.0, 8.0]
        assert all(0.0 < r["q_beta"] < 1.0 and r["free_energy"] < 0.5 * r["beta"] ** 2
                   for r in tap)

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
            assert 0 <= r["newton_steps"] <= r["iterations"]
        assert doc["meta"]["best_energy_per_spin"] == max(
            r["energy_per_spin"] for r in doc["rows"]
        )

    def test_gstate_tol_is_an_option(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gstate", "--p", "3", "--n", "6", "--restarts", "2", "--tol", "1e-6",
                     "--format", "json", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["options"]["tol"] == 1e-6

    def test_no_meta_has_tolerances(self, tmp_path):
        small = {
            "critical": [],
            "sweep": ["--beta", "0.5,1"],
            "gstate": ["--n", "4", "--restarts", "1"],
            "mc-verify": ["--n", "4", "--draws", "1000", "--trials", "1"],
            "thermo": ["--n", "4", "--rungs", "2", "--sweeps", "2", "--burn-in", "0"],
            "probe": ["--n", "4", "--k", "2", "--rungs", "2", "--sweeps", "2", "--burn-in", "0"],
        }
        assert set(small) == set(RUNNERS)
        out = tmp_path / "m.json"
        for command, args in small.items():
            assert main([command, "--p", "3", *args, "--format", "json", "-o", str(out)]) == 0
            assert "tolerances" not in json.loads(out.read_text())["meta"], command

    def test_probe_beta_is_the_last_option(self, tmp_path):
        # JSON keeps key order: the probed beta follows the probe's own options
        out = tmp_path / "p.json"
        args = ["probe", "--p", "3", "--n", "4", "--k", "2", "--rungs", "2", "--sweeps", "2",
                "--burn-in", "0", "--format", "json", "-o", str(out)]
        assert main([*args, "--beta", "1.5"]) == 0
        options = json.loads(out.read_text())["meta"]["options"]
        assert list(options) == ["k", "rungs", "sweeps", "burn_in", "bins", "beta"]
        assert options["beta"] == 1.5
        assert main(args) == 0
        assert "beta" not in json.loads(out.read_text())["meta"]["options"]

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

    def test_meta_reports_sampled_ladder(self, tmp_path):
        # default_ladder adds beta_c as one more point to the requested rungs
        from pspin import solve_critical
        from pspin.simulator import default_ladder

        out = tmp_path / "p.json"
        assert run_cli("probe", "--p", "3", "--n", "8", "--rungs", "14", "--k", "2",
                       "--sweeps", "2", "--burn-in", "0", "--format", "json",
                       "-o", str(out)).returncode == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["options"]["rungs"] == 14
        assert len(meta["ladder"]) == 15
        assert meta["ladder"][0] == 0.0 and meta["ladder"][-1] == meta["diagnostics"]["beta"]

        assert run_cli("thermo", "--p", "3", "--n", "6", "--beta-max", "1.5", "--rungs", "5",
                       "--sweeps", "4", "--burn-in", "0", "--format", "json",
                       "-o", str(out)).returncode == 0
        doc = json.loads(out.read_text())
        beta_c = solve_critical(3).beta_c
        assert doc["meta"]["ladder"] == default_ladder(1.5, 5, beta_c=beta_c).tolist()
        assert [row["beta"] for row in doc["rows"]] == doc["meta"]["ladder"]

    @pytest.mark.parametrize("n", [6, 13])
    def test_meta_reports_sampler(self, tmp_path, n):
        # moves per sweep, and each chain's frozen step size and acceptance:
        # one per rung for thermo, one per replica and rung for the probe
        out = tmp_path / "s.json"
        common = ["--p", "3", "--n", str(n), "--rungs", "3", "--sweeps", "4", "--burn-in", "2",
                  "--format", "json", "-o", str(out)]
        for command, extra, shape in (("thermo", [], ()), ("probe", ["--k", "2"], (2,))):
            assert main([command, *common, *extra]) == 0
            doc = json.loads(out.read_text())
            sampler = doc["meta"]["sampler"]
            assert set(sampler) == {"moves_per_sweep", "step_size", "acceptance"}
            assert sampler["moves_per_sweep"] == max(2, n // 4)
            rungs = len(doc["meta"]["ladder"])
            for key in ("step_size", "acceptance"):
                assert np.shape(sampler[key]) == shape + (rungs,)
            assert all(0.0 < e <= 100.0 for e in np.ravel(sampler["step_size"]))
            assert all(0.0 <= a <= 1.0 for a in np.ravel(sampler["acceptance"]))

    def test_disorder_file_cycle(self, tmp_path):
        dpath = tmp_path / "J.bin"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["gstate", "--p", "3", "--n", "8", "--restarts", "2", "--seed", "9",
                "--disorder-file", str(dpath)]
        assert run_cli(*args, "-o", str(out1)).returncode == 0
        assert dpath.exists()
        assert run_cli(*args, "-o", str(out2)).returncode == 0
        (comment1, rows1), (comment2, rows2) = (
            out.read_text().split("\n", 1) for out in (out1, out2)
        )
        assert rows1 == rows2
        meta1, meta2 = (json.loads(c.split(" ", 3)[3]) for c in (comment1, comment2))
        assert meta1.pop("disorder")["source"] == "seed"
        assert meta2.pop("disorder")["source"] == "file"
        assert meta1 == meta2

    def test_disorder_provenance_in_meta(self, tmp_path):
        dpath = tmp_path / "J.bin"
        out = tmp_path / "g.json"
        args = ["gstate", "--p", "3", "--n", "6", "--restarts", "2", "--seed", "9",
                "--format", "json", "-o", str(out)]
        assert run_cli(*args).returncode == 0
        assert json.loads(out.read_text())["meta"]["disorder"] == {"source": "seed", "seed": 9}
        assert run_cli(*args, "--disorder-file", str(dpath)).returncode == 0
        assert json.loads(out.read_text())["meta"]["disorder"] == {"source": "seed", "seed": 9}
        assert run_cli(*args, "--disorder-file", str(dpath)).returncode == 0
        digest = hashlib.sha256(dpath.read_bytes()).hexdigest()
        assert json.loads(out.read_text())["meta"]["disorder"] == {
            "source": "file", "path": str(dpath), "sha256": digest,
        }

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
        gstate = run_cli("gstate", "--p", "3", "--n", "8", "--max-iters", "-1")
        assert gstate.returncode == 2 and gstate.stdout == ""
        assert "--max-iters must be >= 0" in gstate.stderr
        thermo = run_cli("thermo", "--p", "3", "--n", "8", "--beta-max", "inf")
        assert thermo.returncode == 2 and thermo.stdout == ""
        assert "--beta-max must be finite" in thermo.stderr
        # the parser's bound, checked before any covariance draw
        verify = run_cli("mc-verify", "--p", "3", "--n", "4", "--draws", "10", "--trials", "1")
        assert verify.returncode == 2 and verify.stdout == ""
        assert "--draws must be >= 1000, got 10" in verify.stderr

    def test_numerical_failure_is_one(self, tmp_path):
        # output path in a missing directory: compute succeeds, write fails
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        proc = run_cli("critical", "--p", "3", "-o", str(missing))
        assert proc.returncode == 1
        assert not missing.exists()

    def test_budget_error_names_n_and_p_without_n_to_the_p(self, capsys):
        # 100^5000 has 10,001 digits: the message must not try to print it
        assert main(["gstate", "--p", "5000", "--n", "100"]) == 1
        err = capsys.readouterr().err
        assert "n=100, p=5000" in err and "budget" in err and len(err) < 200

    def test_mc_verify_past_the_budget_is_one(self, capsys, monkeypatch):
        # n^p = 2^32 entries, refused before the covariance check builds anything
        def built(*args):
            raise AssertionError("_kr_power called past the entry budget")

        monkeypatch.setattr(checks, "_kr_power", built)
        assert main(["mc-verify", "--p", "32", "--n", "2", "--draws", "1000", "--trials", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "n=2, p=32" in err and "budget" in err

    def test_probe_rejects_zero_beta(self):
        proc = run_cli("probe", "--p", "3", "--n", "4", "--beta", "0", "--k", "2",
                       "--rungs", "2", "--sweeps", "2", "--burn-in", "0")
        assert proc.returncode == 2
        assert "--beta must be finite and positive, got 0.0" in proc.stderr

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
