"""Steadiness check for the benchmark.

    python3 bench/steady.py [--runs 10] [--workloads a,b] [--out FILE]

Runs `bench/run.py` once per seed (seeds 1..runs) on each workload with
`run_seconds` from BENCHMARK.json, and reports for every end-to-end metric
its median and its quartile spread: (Q3 - Q1) / median, with quartiles from
`statistics.quantiles(values, n=4)`.  A spread above the metric's bound
fails the check; a spread above a third of the bound is flagged as not yet
steady.

It then runs the traced mode twice on one seed per workload and fails
unless the computed counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTS = ("makarov.scan_cells", "makarov.structure_mb",
                "derivative.argmax_nnz", "derivative.contact_size")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for wl in names:
        runs = [run_once(spec, wl, 1 + i, 0) for i in range(args.runs)]
        rows = {}
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            state = "ok"
            if spread > bound:
                state, ok = "FAIL", False
            elif spread > bound / 3:
                state = "wide"
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "unit": runs[0][name]["unit"], "values": values}
            print(f"{wl:18s} {name:12s} median {med:10.4f} spread {spread:7.4f} "
                  f"bound {bound:5.3f} {state}", flush=True)
        traced = [run_once(spec, wl, 1, 1) for _ in range(2)]
        counts = {}
        for name in EXACT_COUNTS:
            a, b = (t[name]["value"] for t in traced)
            counts[name] = a
            if a != b:
                ok = False
                print(f"{wl:18s} {name} differs between traced runs: {a} != {b}")
        print(f"{wl:18s} counts {counts}", flush=True)
        summary[wl] = {"end_to_end": rows, "counts": counts,
                       "per_layer": traced[0]}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
