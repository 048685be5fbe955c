"""Benchmark of the `vfi` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` of that checkout.  Inputs are generated from `--seed` and written as
shortest-repr CSV into a scratch directory inside the checkout, removed at
exit; the program sees only those files.

`--trace 0` runs the workload's CLI command in fresh processes, one at a
time, until they have taken `--seconds` (at least once), and reports the
end-to-end metrics: median wall and CPU time and peak RSS per process,
median set-up time over several fresh processes that import `vfi.cli` and
load the inputs (run between the invocations), and work items per second
of the median invocation.

`--trace 1` runs the command once untraced and once through
`bench/traced.py`, which wraps each layer's public functions in spans, and
reports the per-layer metrics, each layer's self time and the tracing
overhead (the CPU time the traced process spends beyond the untraced one).

Every output is checked (invariants for any seed, and byte digests for the
default seed); a non-zero exit or a failed check counts as a failed
invocation.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

`--size smoke` runs tiny inputs, for the harness's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 170.0
GRID_POINTS = 515  # default grid: 512 steps over the range, padded one step each side

# sha256 of the output bytes at DEFAULT_SEED, keyed by (workload, size).
# `simulate` output has no digest: its bootstrap seeding is due to change.
DIGESTS = {
    ("bounds-1e5", "full"):
        "4054b9ceaeaaf169e7df8cd63064179515b2cc51e82fd2aef67e71bee17e5f74",
    ("bounds-1e5", "smoke"):
        "bd19dcc055bd8d1e9cdadcba9f563818ec5dd022f6faceb122341977c2388a2c",
    ("cdf-band-1e3", "full"):
        "eeee9258c59af270b0c1110eb2083021a8ae4658cda7b570ba940607bec17b5e",
    ("cdf-band-1e3", "smoke"):
        "a8e24b481a0b71e60cd3e07d4f7f481e7ab4b3d9929ff256357158fd051d5ee0",
}


@dataclass(frozen=True)
class Shape:
    n: int
    R: int = 199
    reps: int = 0
    deltas: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # vfi subcommand: "bounds", "cdf-band" or "simulate"
    unit: str  # what items_per_s counts
    sizes: dict

    def inputs(self, seed: int, size: str, work: Path) -> list[Path]:
        """Treated N(0.4, 1) and control N(0, 1) samples, n per arm;
        `simulate` draws its own samples from the seed it is given."""
        if self.command == "simulate":
            return []
        n = self.sizes[size].n
        rng = np.random.default_rng(seed)
        paths = []
        for label, mean in (("treated", 0.4), ("control", 0.0)):
            p = work / f"{label}.csv"
            p.write_text("".join(f"{v!r}\n" for v in rng.normal(mean, 1.0, n).tolist()))
            paths.append(p)
        return paths

    def argv(self, seed: int, size: str, files: list[Path], out: Path) -> list[str]:
        s = self.sizes[size]
        if self.command == "bounds":
            return ["bounds", "--treated", str(files[0]), "--control", str(files[1]),
                    "--output", str(out)]
        if self.command == "cdf-band":
            return ["cdf-band", "--treated", str(files[0]), "--control", str(files[1]),
                    "--format", "csv", "--threads", "1", "--R", str(s.R),
                    "--seed", str(seed), "--output", str(out)]
        return ["simulate", "dominance", "--n", str(s.n), "--R", str(s.R),
                "--reps", str(s.reps), "--deltas=" + ",".join(map(repr, s.deltas)),
                "--threads", "2", "--seed", str(seed), "--output", str(out)]

    def items(self, size: str) -> int:
        s = self.sizes[size]
        if self.command == "bounds":
            return GRID_POINTS
        if self.command == "cdf-band":
            return 2 * s.R
        return s.reps * len(s.deltas)

    def check(self, text: str, seed: int, size: str) -> list[str]:
        """Failed checks of one output; empty when it is correct."""
        try:
            errors = self._invariants(text, self.sizes[size])
        except (ValueError, IndexError) as exc:
            return [f"unparsable output: {exc}"]
        digest = DIGESTS.get((self.name, size))
        if digest and seed == DEFAULT_SEED:
            got = hashlib.sha256(text.encode()).hexdigest()
            if got != digest:
                errors.append(f"sha256 {got} != recorded {digest}")
        return errors

    def _invariants(self, text: str, s: Shape) -> list[str]:
        lines = text.splitlines()
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        errors = []
        if self.command == "simulate":
            if lines[0] != "delta,reject_rate,se":
                errors.append(f"header {lines[0]!r}")
            if rows.shape != (len(s.deltas), 3):
                return errors + [f"shape {rows.shape}, expected {(len(s.deltas), 3)}"]
            if rows[:, 0].tolist() != list(s.deltas):
                errors.append("delta column differs from the requested deltas")
            for p, se in rows[:, 1:].tolist():
                if not 0.0 <= p <= 1.0 or round(p * s.reps) / s.reps != p:
                    errors.append(f"reject rate {p!r} is not a count over {s.reps} reps")
                if se != math.sqrt(p * (1.0 - p) / s.reps):
                    errors.append(f"se {se!r} != sqrt(p(1-p)/reps) for p={p!r}")
            return errors
        header = "x,lower,upper" if self.command == "bounds" else "x,lo,center,hi"
        if lines[0] != header:
            errors.append(f"header {lines[0]!r}")
        if rows.shape != (GRID_POINTS, header.count(",") + 1):
            return errors + [f"shape {rows.shape}, expected {GRID_POINTS} rows"]
        x, vals = rows[:, 0], rows[:, 1:]
        if not np.all(np.diff(x) > 0):
            errors.append("grid is not strictly increasing")
        if not (np.all(vals >= 0.0) and np.all(vals <= 1.0)):
            errors.append("a value lies outside [0, 1]")
        if not np.all(np.diff(vals[:, 0]) >= 0) or not np.all(np.diff(vals[:, -1]) >= 0):
            errors.append("a limit is not nondecreasing in x")
        if not np.all(np.diff(vals, axis=1) >= 0):
            errors.append("columns out of order (need L <= U, lo <= center <= hi)")
        if self.command == "bounds" and (
                vals[0].tolist() != [0.0, 0.0] or vals[-1].tolist() != [1.0, 1.0]):
            errors.append("bounds do not run from 0 below the support to 1 above it")
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds-1e5", "bounds", "grid points", {
            "full": Shape(n=100_000), "smoke": Shape(n=300)}),
        Workload("cdf-band-1e3", "cdf-band", "bootstrap replicates", {
            "full": Shape(n=1_000, R=199), "smoke": Shape(n=60, R=19)}),
        Workload("mc-dominance-1e2", "simulate", "Monte Carlo problems", {
            "full": Shape(n=100, R=199, reps=2, deltas=(-5.0, 0.0, 5.0, 10.0)),
            "smoke": Shape(n=20, R=19, reps=2, deltas=(0.0, 5.0))}),
    )
}


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(argv: list[str], work: Path) -> Proc:
    """Run argv to completion; time it and read its own rusage via wait4."""
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(rc=proc.returncode, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                rss_mb=ru.ru_maxrss / 1024.0, stderr=err_path.read_text(errors="replace"))


def _setup_argv(files: list[Path]) -> list[str]:
    code = ("import sys, vfi.cli, vfi\n"
            "for p in sys.argv[1:]:\n"
            "    vfi.load_sample_csv(p)\n")
    return [sys.executable, "-c", code, *map(str, files)]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, proc: Proc, errors: list[str], what: str) -> bool:
        self.attempted += 1
        if proc.rc != 0:
            errors = [f"exit code {proc.rc}: {proc.stderr.strip()[-500:]}"] + errors
        if errors:
            self.failed += 1
            for e in errors:
                print(f"FAILED {what}: {e}", file=sys.stderr)
        return not errors


def _invoke(wl: Workload, args, files, work: Path, tally: Tally, traced: Path | None):
    out = work / "out.csv"
    out.unlink(missing_ok=True)
    cli = wl.argv(args.seed, args.size, files, out)
    if traced is None:
        argv = [sys.executable, "-m", "vfi.cli", *cli]
    else:
        argv = [sys.executable, str(BENCH / "traced.py"), "--spans", str(traced), "--", *cli]
    proc = run_process(argv, work)
    text = out.read_text() if out.exists() else ""
    errors = wl.check(text, args.seed, args.size) if proc.rc == 0 else []
    tally.record(proc, errors, f"{wl.name} {'traced' if traced else 'run'}")
    return proc


def _compile_sources() -> None:
    # bytecode is compiled once per checkout, not on every user's run
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "vfi")],
                   stdout=subprocess.DEVNULL, check=True)


def _setup(files: list[Path], work: Path) -> Proc:
    p = run_process(_setup_argv(files), work)
    if p.rc != 0:
        raise SystemExit(f"set-up process failed ({p.rc}): {p.stderr.strip()[-500:]}")
    return p


def end_to_end(wl: Workload, args, files, work: Path, tally: Tally) -> dict:
    _compile_sources()
    # Invocations until their walls would pass --seconds, going by their mean
    # so far, with the set-up processes alternating with them so that both
    # sample the same stretch of the host's speed.
    setups, runs = [], []
    total_wall = 0.0
    while True:
        more = not runs or total_wall * (len(runs) + 1) / len(runs) <= args.seconds
        if not more and len(setups) >= SETUP_REPEATS:
            break
        if len(setups) < SETUP_REPEATS:
            setups.append(_setup(files, work))
        if more:
            runs.append(_invoke(wl, args, files, work, tally, None))
            total_wall += runs[-1].wall_s
    print("invocation wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in runs))
    wall = statistics.median(p.wall_s for p in runs)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in runs), "s"),
        "setup_s": (statistics.median(p.wall_s for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in runs), "MiB"),
        "items_per_s": (wl.items(args.size) / wall, "1/s"),
    }


LAYERS = ("cli", "empirical", "makarov", "derivative", "bootstrap", "inference", "simulate")


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; 0 for no values."""
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from the spans and counts written by traced.py."""
    spans = trace["spans"]
    counts = trace["counts"]
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        # span duration minus the union of its children's intervals
        covered, end = 0.0, spans[i][1]
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            s, e = max(s, end), min(e, spans[i][2])
            if e > s:
                covered += e - s
                end = e
        return dur(i) - covered

    def outermost(name):
        # spans of `name` not nested in another span of the same name
        out = []
        for i, sp in enumerate(spans):
            if sp[0] != name:
                continue
            p = sp[3]
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                out.append(i)
        return out

    def total(name):
        return sum(dur(i) for i in outermost(name))

    def calls(name):
        return sum(1 for sp in spans if sp[0] == name)

    reps = [dur(i) for i in outermost("bootstrap.replicate")]
    problems = [dur(i) for i in outermost("simulate.problem")]
    cells = counts.get("derivative.argmax_cells", 0)
    m = {
        "cli.import_s": (total("cli.import"), "s"),
        "cli.format_s": (total("cli.format"), "s"),
        "empirical.load_csv_s": (total("empirical.load_csv"), "s"),
        "empirical.ecdf_build_s": (total("empirical.ecdf_build"), "s"),
        "makarov.support_grid_s": (total("makarov.support_grid"), "s"),
        "makarov.bound_scan_s": (total("makarov.bound_scan"), "s"),
        "makarov.bound_scan.calls": (calls("makarov.bound_scan"), "count"),
        "makarov.scan_cells": (counts.get("makarov.scan_cells", 0), "count"),
        "makarov.structure_build_s": (total("makarov.structure_build"), "s"),
        "makarov.structure_mb": (counts.get("makarov.structure_mb", 0), "MB"),
        "makarov.evaluate_s": (total("makarov.evaluate"), "s"),
        "makarov.evaluate.calls": (calls("makarov.evaluate"), "count"),
        "derivative.eps_argmax_s": (total("derivative.eps_argmax"), "s"),
        "derivative.estimate_s": (total("derivative.estimate"), "s"),
        "derivative.argmax_nnz": (counts.get("derivative.argmax_nnz", 0), "count"),
        "derivative.argmax_density": (
            counts.get("derivative.argmax_nnz", 0) / cells if cells else 0.0, "ratio"),
        "derivative.contact_size": (counts.get("derivative.contact_size", 0), "count"),
        "derivative.contact_fallback": (counts.get("derivative.contact_fallback", 0), "count"),
        "bootstrap.run_s": (total("bootstrap.run"), "s"),
        "bootstrap.replicate_s.p50": (_quantile(reps, 0.5), "s"),
        "bootstrap.replicate_s.p95": (_quantile(reps, 0.95), "s"),
        "bootstrap.draw_weights_s": (total("bootstrap.draw_weights"), "s"),
        "bootstrap.replicates": (len(reps), "count"),
        "inference.replicate_self_s": (
            sum(self_time(i) for i in outermost("inference.replicate")), "s"),
        "inference.procedure_s": (total("inference.procedure"), "s"),
        "simulate.problem_s.p50": (_quantile(problems, 0.5), "s"),
        "simulate.problem_s.p90": (_quantile(problems, 0.9), "s"),
        "simulate.problems": (len(problems), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(self_time(i) for i, sp in enumerate(spans)
                                    if sp[0].split(".")[0] == layer), "s")
    return m


def per_layer(wl: Workload, args, files, work: Path, tally: Tally) -> dict:
    _compile_sources()
    plain = _invoke(wl, args, files, work, tally, None)
    spans_path = work / "spans.json"
    traced = _invoke(wl, args, files, work, tally, spans_path)
    if traced.rc != 0 or not spans_path.exists():
        raise SystemExit("traced run failed; no spans to report")
    m = layer_metrics(json.loads(spans_path.read_text()))
    # CPU, not wall: wall times differ more between runs than the tracer costs
    m["trace.overhead_s"] = (traced.cpu_s - plain.cpu_s, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vfi CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if not (SRC / "vfi" / "cli.py").is_file():
        print(f"error: no vfi sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        files = wl.inputs(args.seed, args.size, work)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(wl, args, files, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {wl.name} seed {args.seed} size {args.size}: "
          f"{tally.failed} of {tally.attempted} invocations failed; "
          f"items_per_s counts {wl.unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # not among the JSON metrics, which must never read 0; it is carried
    # there by `attempted` and `failed`
    print(f"error_rate = {tally.failed / tally.attempted:.6g} ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
