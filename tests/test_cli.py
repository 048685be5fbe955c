import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vfi import cli, makarov
from vfi.cli import run_cli
from vfi.empirical import load_sample_csv
from vfi.simulate import ExperimentConfig

CLI = [sys.executable, "-m", "vfi.cli"]
GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(*args, env_extra=None, **kw):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env, **kw)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rng = np.random.default_rng(100)
    paths = {}
    for name, vals in (
        ("treated", rng.normal(0.5, 1, 30)),
        ("control", rng.normal(0, 1, 30)),
        ("b", rng.normal(0.2, 1, 30)),
    ):
        p = d / f"{name}.csv"
        p.write_text("".join(f"{float(v)!r}\n" for v in vals))
        paths[name] = str(p)
    return paths


class TestBounds:
    def test_csv_output(self, data):
        r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                "--grid-step", "0.25")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "x,lower,upper"
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        assert np.all(rows[:, 1] <= rows[:, 2])

    def test_roundtrip_precision(self, data):
        r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                "--grid-step", "0.25")
        for ln in r.stdout.strip().splitlines()[1:]:
            for cell in ln.split(","):
                assert repr(float(cell)) == cell

    def test_byte_identical_across_runs_and_chunks(self, monkeypatch, tmp_path):
        args = ["bounds", "--treated", str(GOLDEN / "inputs" / "treated.csv"),
                "--control", str(GOLDEN / "inputs" / "control.csv")]
        golden = (GOLDEN / "bounds.csv").read_text()
        assert {run(*args).stdout for _ in range(4)} == {golden}
        # these inputs fit one chunk; the scan also gives them with one
        # grid row per chunk
        monkeypatch.setattr(makarov, "_CHUNK", 1)
        X1, X0 = (load_sample_csv(GOLDEN / "inputs" / f"{arm}.csv", label=arm)
                  for arm in ("treated", "control"))
        assert makarov.bounds_to_csv(makarov.compute_bounds(X1, X0)) == golden
        for k in range(2):
            out = tmp_path / f"bounds_{k}.csv"
            assert run_cli(args + ["--output", str(out)]) == 0
            assert out.read_text() == golden


class TestBand:
    def test_json_schema(self, data):
        r = run("band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--seed", "7", "--grid-step", "0.25", "--threads", "1")
        assert r.returncode == 0, r.stderr
        body = json.loads(r.stdout)
        assert body["schema_version"] == 1
        assert body["which"] == "lower"
        assert body["alpha"] == 0.05
        assert body["c_star"] >= 0
        for row in body["band"]:
            assert row["lo"] <= row["center"] <= row["hi"]

    def test_byte_identical_across_runs_and_threads(self, data):
        outs = set()
        for threads in ("1", "4"):
            for _ in range(2):
                r = run("band", "--treated", data["treated"], "--control", data["control"],
                        "--R", "19", "--seed", "7", "--grid-step", "0.25",
                        "--threads", threads)
                outs.add(r.stdout)
        assert len(outs) == 1

    def test_dump_replicates(self, data, tmp_path):
        dump = tmp_path / "reps.csv"
        r = run("band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--seed", "7", "--grid-step", "0.25",
                "--dump-replicates", str(dump))
        assert r.returncode == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "replicate,value" and len(lines) == 20


class TestCdfBand:
    def test_runs_and_orders(self, data):
        r = run("cdf-band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--seed", "3", "--grid-step", "0.25", "--format", "csv")
        assert r.returncode == 0, r.stderr
        rows = [ln.split(",") for ln in r.stdout.strip().splitlines()[1:]]
        lo = np.array([float(r[1]) for r in rows])
        hi = np.array([float(r[3]) for r in rows])
        assert np.all(lo <= hi)
        assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)


class TestDominance:
    def test_json_output(self, data):
        r = run("dominance-test", "--control", data["control"],
                "--treatment-a", data["treated"], "--treatment-b", data["b"],
                "--R", "19", "--seed", "5", "--grid-step", "0.25")
        assert r.returncode == 0, r.stderr
        body = json.loads(r.stdout)
        assert body["reject"] == (body["statistic"] > body["critical_value"])
        assert body["replicates"]["count"] == 19
        assert body["orientation"] == "necessary"


class TestQuantileBounds:
    def test_output(self, data):
        r = run("quantile-bounds", "--treated", data["treated"], "--control",
                data["control"], "--taus", "0.25,0.5,0.75")
        assert r.returncode == 0
        rows = [ln.split(",") for ln in r.stdout.strip().splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[1]) <= float(row[2])


class TestErrors:
    def test_missing_file_exit_1(self, data):
        r = run("bounds", "--treated", "/nonexistent/x.csv", "--control", data["control"])
        assert r.returncode == 1
        assert "/nonexistent/x.csv" in r.stderr

    def test_malformed_csv_exit_1(self, data, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1\nbogus\n")
        r = run("bounds", "--treated", str(p), "--control", data["control"])
        assert r.returncode == 1
        assert "bad.csv:2" in r.stderr

    def test_non_finite_csv_cell_exit_1(self, data, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1\n2\nnan\n")
        r = run("bounds", "--treated", str(p), "--control", data["control"])
        assert r.returncode == 1
        assert "nan.csv:3: not a finite number" in r.stderr

    def test_usage_error_exit_2(self):
        r = run("bounds")
        assert r.returncode == 2

    def test_bad_taus_exit_2(self, data):
        r = run("quantile-bounds", "--treated", data["treated"], "--control",
                data["control"], "--taus", "0.25,half")
        assert r.returncode == 2
        assert "--taus" in r.stderr and "0.25,half" in r.stderr

    def test_nan_and_out_of_range_taus_exit_2(self, data):
        for taus in ("nan", "0.5,1.5", "0"):
            r = run("quantile-bounds", "--treated", data["treated"], "--control",
                    data["control"], "--taus", taus)
            assert r.returncode == 2, taus
            assert "--taus" in r.stderr and "(0, 1)" in r.stderr

    def test_grid_budget_exit_2(self, data):
        r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                "--grid-step", "1e-9")
        assert r.returncode == 2
        assert "1000000 grid points" in r.stderr and "Traceback" not in r.stderr

    def test_bad_grid_step_exit_2(self, data):
        for step in ("0", "-0.5", "nan", "inf", "-inf", "fine"):
            r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                    f"--grid-step={step}")
            assert r.returncode == 2, step
            assert "--grid-step" in r.stderr and "positive finite" in r.stderr, step

    def test_bad_grid_step_env_exit_2(self, data):
        for step in ("0", "nan", "inf", "abc"):
            r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                    env_extra={"VFI_GRID_STEP": step})
            assert r.returncode == 2, step
            assert "VFI_GRID_STEP" in r.stderr and "positive finite" in r.stderr, step
            assert "Traceback" not in r.stderr
        r = run("band", "--treated", data["treated"], "--control", data["control"],
                env_extra={"VFI_SEED": "seven"})
        assert r.returncode == 2 and "VFI_SEED" in r.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--R", "0", "replicate count"),
        ("--R", "many", "replicate count"),
        ("--alpha", "1.5", "(0, 1)"),
        ("--alpha", "nan", "(0, 1)"),
        ("--threads", "0", "thread count"),
        ("--an-const", "-1", "tuning constant"),
        ("--bn-const", "-1", "tuning constant"),
        ("--an-const", "inf", "tuning constant"),
    ])
    def test_bad_bootstrap_flag_exit_2(self, data, capsys, flag, value, message):
        # these used to reach a dataclass check and exit 1
        rc = run_cli(["band", "--treated", data["treated"], "--control", data["control"],
                      f"{flag}={value}"])
        err = capsys.readouterr().err
        assert rc == 2 and flag in err and message in err and "Traceback" not in err

    def test_bad_bootstrap_env_exit_2(self, data, capsys, monkeypatch):
        for name, value in (("VFI_R", "0"), ("VFI_ALPHA", "1.5"), ("VFI_THREADS", "0"),
                            ("VFI_AN_CONST", "-1"), ("VFI_BN_CONST", "-1")):
            monkeypatch.setenv(name, value)
            rc = run_cli(["band", "--treated", data["treated"], "--control", data["control"]])
            monkeypatch.delenv(name)
            assert rc == 2 and name in capsys.readouterr().err, name

    def test_bounds_bad_threads_exit_2(self, data, capsys, monkeypatch):
        # bounds scans on one thread and takes no --threads
        args = ["bounds", "--treated", data["treated"], "--control", data["control"]]
        assert run_cli(args + ["--threads", "1"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert run_cli(args) == 0
        want = capsys.readouterr().out
        monkeypatch.setenv("VFI_THREADS", "x")
        assert run_cli(args) == 0
        out, err = capsys.readouterr()
        assert out == want and err == ""

    def test_simulate_threads_0_exit_2(self):
        # it used to run and exit 0
        r = run("simulate", "normal", "--n", "40", "--R", "19", "--reps", "1",
                "--threads", "0")
        assert r.returncode == 2 and "--threads" in r.stderr
        with pytest.raises(ValueError, match="thread count"):
            ExperimentConfig(kind="normal_location", threads=0)

    def test_threads_above_the_cap_exit_2(self, data, capsys):
        # only the parser is run: no pool is started at either value
        assert cli._threads(str(cli.MAX_THREADS)) == cli.MAX_THREADS
        assert cli.MAX_THREADS >= (os.cpu_count() or 1)
        for args in (["band", "--treated", data["treated"], "--control", data["control"]],
                     ["simulate", "dominance", "--n", "40"]):
            rc = run_cli(args + ["--threads", str(cli.MAX_THREADS + 1)])
            err = capsys.readouterr().err
            assert rc == 2 and "--threads" in err and str(cli.MAX_THREADS) in err

    def test_argmax_cell_budget_exit_2(self, data, capsys, monkeypatch):
        monkeypatch.setattr(makarov, "MAX_ARGMAX_CELLS", 5000)
        rc = run_cli(["band", "--treated", data["treated"], "--control", data["control"],
                      "--an-const", "1e9", "--R", "9"])
        err = capsys.readouterr().err
        assert rc == 2 and "5000 near-argmax candidate cells" in err

    def test_non_finite_range_exit_1(self, data, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("1e308\n-1e308\n0.5\n")
        r = run("bounds", "--treated", str(p), "--control", data["control"])
        assert r.returncode == 1
        assert "too wide" in r.stderr and "Traceback" not in r.stderr

    def test_bad_deltas_exit_2(self):
        r = run("simulate", "normal", "--n", "40", "--R", "19", "--reps", "1",
                "--deltas", "0,,1")
        assert r.returncode == 2
        assert "--deltas" in r.stderr and "0,,1" in r.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--reps", "0", "repetition count must be at least 1"),
        ("--reps", "many", "repetition count must be at least 1"),
        ("--n", "5", "n must be at least 16"),
        ("--n", "15", "n must be at least 16"),
        ("--deltas", "nan", "finite"),
        ("--deltas", "0,inf", "finite"),
        ("--deltas", "-inf", "finite"),
    ])
    def test_bad_simulate_flag_exit_2(self, capsys, flag, value, message):
        # these used to reach ExperimentConfig or the sampler and exit 1;
        # only the parser runs, so no Monte Carlo problem is started
        rc = run_cli(["simulate", "normal", "--R", "19", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert rc == 2 and flag in err and message in err and "Traceback" not in err
        assert repr(value) in err

    def test_unknown_flag_exit_2(self, data):
        r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                "--frobnicate")
        assert r.returncode == 2


class TestEnvPrecedence:
    def test_env_seed_used(self, data):
        a = run("band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--grid-step", "0.25", env_extra={"VFI_SEED": "42"})
        b = run("band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--grid-step", "0.25", "--seed", "42")
        assert a.stdout == b.stdout

    def test_flag_beats_env(self, data):
        a = run("band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--grid-step", "0.25", "--seed", "1",
                env_extra={"VFI_SEED": "42"})
        b = run("band", "--treated", data["treated"], "--control", data["control"],
                "--R", "19", "--grid-step", "0.25", "--seed", "1")
        assert a.stdout == b.stdout

    def test_env_for_option_the_command_lacks_is_not_read(self, data):
        args = ("bounds", "--treated", data["treated"], "--control", data["control"],
                "--grid-step", "0.25")
        plain = run(*args)
        r = run(*args, env_extra={"VFI_SEED": "seven", "VFI_R": "many", "VFI_ALPHA": "x"})
        assert r.returncode == 0, r.stderr
        assert r.stdout == plain.stdout


class TestColumn:
    def test_index_on_headerless_files(self, data, tmp_path):
        paths = {}
        for name in ("treated", "control"):
            with open(data[name]) as fh:
                text = "".join(f"9.5,{ln}" for ln in fh)
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        r = run("bounds", "--treated", str(paths["treated"]), "--control",
                str(paths["control"]), "--grid-step", "0.25", "--column", "1")
        plain = run("bounds", "--treated", data["treated"], "--control", data["control"],
                    "--grid-step", "0.25")
        assert r.returncode == 0, r.stderr
        assert r.stdout == plain.stdout


class TestSimulateCommand:
    def test_power_curve_csv(self, data):
        r = run("simulate", "normal", "--n", "40", "--R", "19", "--reps", "3",
                "--deltas", "0", "--seed", "1")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "delta,reject_rate,se"
        assert len(lines) == 2


def _readme_commands():
    """Each ``vfi`` command of the README's sh blocks, continuation lines
    joined, split as a shell would."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines() if line.startswith("vfi ")]


def test_readme_examples_parse():
    # only the parser runs: no file is read and no pool is started
    commands = _readme_commands()
    assert {c[1] for c in commands} >= {"bounds", "band", "cdf-band", "dominance-test",
                                        "quantile-bounds", "simulate"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
