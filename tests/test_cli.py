import hashlib
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
from vfi.bootstrap import BootstrapConfig
from vfi.cli import run_cli

CLI = [sys.executable, "-m", "vfi.cli"]
GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(*args, env_extra=None, **kw):
    """The CLI in a subprocess, with RuntimeWarnings raised as errors as in
    the in-process tests; ``env_extra`` wins over both."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **(env_extra or {})}
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

    def test_grid_step_refused_and_its_variable_not_read(self, data):
        # quantile bounds are read off the ECDFs: no grid is built
        args = ("quantile-bounds", "--treated", data["treated"], "--control",
                data["control"], "--taus", "0.25,0.5,0.75")
        r = run(*args, "--grid-step", "0.001")
        assert r.returncode == 2 and "unrecognized arguments: --grid-step" in r.stderr
        plain = run(*args)
        r = run(*args, env_extra={"VFI_GRID_STEP": "0"})
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout == plain.stdout

    @pytest.mark.parametrize("tau, row", [("1e-10", "1e-10,-4.0,-2.0"),
                                          ("0.9999999999", "0.9999999999,1.0,3.0"),
                                          ("1e-320", "1e-320,-4.0,-2.0"),
                                          ("5e-324", "5e-324,-4.0,-2.0")])
    def test_level_next_to_0_or_1(self, tmp_path, tau, row):
        # neither a breakpoint nor a point 1e-9 inside an end lies in (0, tau)
        # or in (tau, 1), so that side is read at its midpoint, not reduced
        # over no candidate at all; no float lies inside (0, 5e-324), whose
        # midpoint rounds to 0, so that side is read at tau itself
        paths = _write_samples(tmp_path, t=[0.0, 1.0, 2.0, 3.0], c=[0.0, 1.0, 4.0])
        r = run("quantile-bounds", "--treated", paths["t"], "--control", paths["c"],
                "--taus", tau)
        assert (r.returncode, r.stdout, r.stderr) == (0, f"tau,lower,upper\n{row}\n", "")


class TestErrors:
    def test_missing_file_exit_1(self, data):
        r = run("bounds", "--treated", "/nonexistent/x.csv", "--control", data["control"])
        assert r.returncode == 1
        assert "/nonexistent/x.csv" in r.stderr

    @pytest.mark.parametrize("flag", ["--treated", "--output", "--dump-replicates"])
    def test_directory_as_path_exit_1(self, data, tmp_path, flag):
        # a path that open() refuses ends in one line naming it, not a traceback
        options = {"--treated": data["treated"], "--control": data["control"],
                   "--R": "9", "--threads": "1", flag: str(tmp_path)}
        r = run("band", *(a for option in options.items() for a in option))
        assert r.returncode == 1 and r.stderr.count("\n") == 1, r.stderr
        assert "Is a directory" in r.stderr and str(tmp_path) in r.stderr

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
            BootstrapConfig(threads=0)

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

    def test_slack_below_the_floor_exit_2(self, data, capsys):
        # a_n = 1e-12 * log(log(60)) / sqrt(60), about 1.8e-13
        for args in (["band", "--treated", data["treated"], "--control", data["control"]],
                     ["dominance-test", "--control", data["control"],
                      "--treatment-a", data["treated"], "--treatment-b", data["b"]]):
            rc = run_cli(args + ["--an-const", "1e-12", "--R", "9"])
            err = capsys.readouterr().err
            assert rc == 2 and "a_n=" in err and f"at least {makarov.MIN_SLACK!r}" in err, args

    @pytest.mark.parametrize("treated, control, effect_range", [
        ("5e-324,1e-323", "0,5e-324", "[0.0, 1e-323]"),  # the default step underflows to 0
        ("1,1.0000000000000002", "0", "[1.0, 1.0000000000000002]"),  # below the float spacing
        ("0,1.797e308", "0", "[0.0, 1.797e+308]"),  # the padded end overflows
    ])
    def test_range_without_a_default_grid_exit_1(self, tmp_path, treated, control, effect_range):
        paths = []
        for arm, values in (("treated", treated), ("control", control)):
            p = tmp_path / f"{arm}.csv"
            p.write_text(values.replace(",", "\n") + "\n")
            paths.append(str(p))
        r = run("bounds", "--treated", paths[0], "--control", paths[1])
        assert r.returncode == 1 and r.stderr.count("\n") == 1, r.stderr
        assert f"effect range {effect_range}" in r.stderr

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
        # flags of band and dominance-test that simulate would ignore
        ("--an-const", "50", "unrecognized arguments"),
        ("--bn-const", "1e-9", "unrecognized arguments"),
        ("--dump-replicates", "reps.csv", "unrecognized arguments"),
    ])
    def test_bad_simulate_flag_exit_2(self, capsys, flag, value, message):
        # these used to reach ExperimentConfig or the sampler and exit 1, or
        # were accepted and dropped; only the parser runs, so no Monte Carlo
        # problem is started and no file is written
        rc = run_cli(["simulate", "normal", "--R", "19", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert rc == 2 and flag in err and message in err and "Traceback" not in err
        assert repr(value) in err or f"{flag}={value}" in err

    def test_cdf_band_dump_replicates_exit_2(self, data, capsys, tmp_path):
        # only band and dominance-test keep replicates; cdf-band used to
        # accept the flag and write nothing
        dump = tmp_path / "reps.csv"
        rc = run_cli(["cdf-band", "--treated", data["treated"], "--control", data["control"],
                      "--dump-replicates", str(dump)])
        err = capsys.readouterr().err
        assert rc == 2 and "--dump-replicates" in err and "unrecognized arguments" in err
        assert not dump.exists()

    def test_unknown_flag_exit_2(self, data):
        r = run("bounds", "--treated", data["treated"], "--control", data["control"],
                "--frobnicate")
        assert r.returncode == 2


def _write_samples(d, **samples):
    """One headerless CSV per keyword in directory ``d``; their paths by name."""
    paths = {}
    for name, values in samples.items():
        p = d / f"{name}.csv"
        p.write_text("".join(f"{v!r}\n" for v in values))
        paths[name] = str(p)
    return paths


class TestFloatEdges:
    """Samples at the ends of the float range; ``run`` raises any
    RuntimeWarning as an error, so a warning fails these tests."""

    @pytest.fixture(scope="class")
    def far(self, tmp_path_factory):
        k = range(8)
        return _write_samples(tmp_path_factory.mktemp("far"), t=[1e308], c=[-5e307, 5e307],
                              ft=[1e308 - i * 1e306 for i in k],
                              fc=[-5e307 + i * 1.4e307 for i in k])

    # the sha256 prefixes are the output of the code before the u-space
    # shifts j0 + x were allowed to overflow quietly
    @pytest.mark.parametrize("argv, digest", [
        ("bounds --treated t --control c", "9339437de7f8f73c"),
        ("bounds --treated ft --control fc", "7b3f7362fd80db7d"),
        ("band --treated ft --control fc --R 9 --threads 1", "7a3211b5c91fb393"),
        ("cdf-band --treated ft --control fc --R 9 --threads 1 --format csv", "b84d533533977d19"),
        ("dominance-test --R 9 --threads 1 --control fc --treatment-a ft --treatment-b ft",
         "9c26eb9327b7270d"),
    ])
    def test_shifts_past_the_float_range(self, far, argv, digest):
        r = run(*(far.get(a, a) for a in argv.split()))
        assert r.returncode == 0 and r.stderr == "", r.stderr
        assert hashlib.sha256(r.stdout.encode()).hexdigest()[:16] == digest

    @pytest.fixture(scope="class")
    def extremes(self, tmp_path_factory):
        return _write_samples(tmp_path_factory.mktemp("extremes"),
                              wide=[-1.7e308, 1.7e308], unit=[0.0, 1.0],
                              top=[1.7e308, 1.6e308], bottom=[-1.7e308, -1.6e308])

    def test_sample_spanning_the_float_range(self, extremes):
        # its own width overflows, but not its order check
        r = run("bounds", "--treated", extremes["wide"], "--control", extremes["unit"])
        assert r.returncode == 1 and r.stderr.count("\n") == 1, r.stderr
        assert "too wide to grid" in r.stderr
        r = run("quantile-bounds", "--treated", extremes["wide"], "--control", extremes["unit"],
                "--taus", "0.5")
        assert (r.returncode, r.stderr) == (0, ""), r.stderr
        assert r.stdout == "tau,lower,upper\n0.5,-1.7e+308,1.7e+308\n"

    def test_quantile_difference_past_the_float_range_is_inf(self, extremes):
        r = run("quantile-bounds", "--treated", extremes["top"], "--control", extremes["bottom"],
                "--taus", "0.5")
        assert (r.returncode, r.stdout, r.stderr) == (0, "tau,lower,upper\n0.5,inf,inf\n", "")


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


def test_readme_python_runs():
    # the library sketch, in a fresh interpreter, against the signatures it shows
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    for code in blocks:
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr


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
