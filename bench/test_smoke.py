"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit
in both modes, that the output checks fire on corrupted outputs, that the
traced run survives a layer function that no longer exists, and that the
harness refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _harness(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = _harness(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines[:-1]), m["name"]
    assert "error_rate = 0 ratio" in lines[:-1]


def _smoke_output(workload: str, tmp_path: Path) -> str:
    wl = run.WORKLOADS[workload]
    files = wl.inputs(run.DEFAULT_SEED, "smoke", tmp_path)
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "vfi.cli", *wl.argv(run.DEFAULT_SEED, "smoke", files, out)]
    assert run.run_process(argv, tmp_path).rc == 0
    return out.read_text()


def _edit_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def _swap_cells(text: str, row: int, a: int, b: int) -> str:
    cells = text.splitlines()[row].split(",")
    return _edit_cell(_edit_cell(text, row, a, cells[b]), row, b, cells[a])


def _mid_row(text: str) -> int:
    """A data row whose value columns are not all equal."""
    lines = text.splitlines()
    for i in range(len(lines) // 2, len(lines)):
        cells = lines[i].split(",")[1:]
        if len(set(cells)) == len(cells):
            return i
    raise AssertionError("no row with distinct values")


@pytest.mark.parametrize("workload", ["bounds-1e5", "cdf-band-1e3"])
def test_checks_fire_on_corrupted_band_output(workload, tmp_path):
    wl = run.WORKLOADS[workload]
    text = _smoke_output(workload, tmp_path)
    assert wl.check(text, run.DEFAULT_SEED, "smoke") == []
    row = _mid_row(text)
    last = text.splitlines()[row].count(",")
    corrupted = {
        "digest only": text.replace("\n", "\r\n", 1),
        "value above 1": _edit_cell(text, row, 1, "1.5"),
        "limits swapped": _swap_cells(text, row, 1, last),
        "row dropped": "".join(text.splitlines(keepends=True)[:-1]),
        "not a number": _edit_cell(text, row, 1, "nan?"),
        "empty": "",
    }
    for what, bad in corrupted.items():
        assert wl.check(bad, run.DEFAULT_SEED, "smoke"), what
    # invariants alone, as for a seed without a recorded digest
    for what, bad in corrupted.items():
        if what != "digest only":
            assert wl.check(bad, run.DEFAULT_SEED + 1, "smoke"), what


def test_checks_fire_on_corrupted_simulate_output(tmp_path):
    wl = run.WORKLOADS["mc-dominance-1e2"]
    text = _smoke_output("mc-dominance-1e2", tmp_path)
    assert wl.check(text, run.DEFAULT_SEED, "smoke") == []
    corrupted = {
        "se off": _edit_cell(text, 1, 2, "0.25"),
        "rate not a count": _edit_cell(text, 1, 1, "0.3"),
        "wrong delta": _edit_cell(text, 1, 0, "1.0"),
        "row dropped": "".join(text.splitlines(keepends=True)[:-1]),
    }
    for what, bad in corrupted.items():
        assert wl.check(bad, run.DEFAULT_SEED, "smoke"), what


def test_failed_exit_counts_as_failure():
    tally = run.Tally()
    assert not tally.record(run.Proc(rc=1, wall_s=1.0, cpu_s=1.0, rss_mb=1.0, stderr="boom"),
                            [], "test")
    assert tally.record(run.Proc(rc=0, wall_s=1.0, cpu_s=1.0, rss_mb=1.0, stderr=""), [], "test")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_run_survives_a_missing_layer_function(tmp_path):
    """A wrapped name that disappears reads 0 instead of failing the run."""
    wl = run.WORKLOADS["cdf-band-1e3"]
    files = wl.inputs(1, "smoke", tmp_path)
    spans = tmp_path / "spans.json"
    cli = wl.argv(1, "smoke", files, tmp_path / "out.csv")
    code = ("import sys, vfi.cli, vfi.makarov\n"
            "del vfi.makarov.MakarovStructure\n"
            f"sys.path.insert(0, {str(BENCH)!r})\n"
            "import traced\n"
            "sys.exit(traced.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, "--spans", str(spans), "--", *cli],
                          env=run._env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MakarovStructure" in proc.stderr
    m = run.layer_metrics(json.loads(spans.read_text()))
    assert m["makarov.structure_build_s"][0] == 0
    assert m["makarov.evaluate.calls"][0] == 0
    assert m["bootstrap.replicates"][0] == 2 * wl.sizes["smoke"].R
    assert m["derivative.argmax_nnz"][0] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _harness("bounds-1e5", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
