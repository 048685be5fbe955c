"""Golden outputs: the exact bytes every CLI command writes on small fixed
inputs.

Each case runs `vfi` in-process through `run_cli` and compares every file
it writes (the output and, where asked, the replicate dump) with the copy
under `tests/golden/`.  The replicate dumps pin every bootstrap replicate,
not only the critical value.  The numpy, scipy and Python versions the
files were made with are in `tests/golden/versions.json`.

A change that is meant to alter output regenerates the files with

    PYTHONPATH=src python tests/test_golden.py --regen

and says which files changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from vfi.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# name -> (argv, files written); "{in}" is the inputs directory and "{out}"
# the directory the written files land in
CASES = {
    "bounds": (
        ["bounds", "--treated", "{in}/treated.csv", "--control", "{in}/control.csv",
         "--output", "{out}/bounds.csv"],
        ["bounds.csv"],
    ),
    "bounds_ties": (
        ["bounds", "--treated", "{in}/treated_ties.csv", "--control", "{in}/control_ties.csv",
         "--grid-step", "0.1", "--output", "{out}/bounds_ties.csv"],
        ["bounds_ties.csv"],
    ),
    "band_lower": (
        ["band", "--which", "lower", "--treated", "{in}/treated.csv",
         "--control", "{in}/control.csv", "--R", "49", "--seed", "7", "--grid-step", "0.1",
         "--threads", "1", "--dump-replicates", "{out}/band_lower_reps.csv",
         "--output", "{out}/band_lower.json"],
        ["band_lower.json", "band_lower_reps.csv"],
    ),
    "band_upper_ties_bayesian": (
        ["band", "--which", "upper", "--treated", "{in}/treated_ties.csv",
         "--control", "{in}/control_ties.csv", "--R", "49", "--seed", "11",
         "--scheme", "bayesian", "--grid-step", "0.1", "--threads", "2",
         "--dump-replicates", "{out}/band_upper_ties_reps.csv",
         "--output", "{out}/band_upper_ties.json"],
        ["band_upper_ties.json", "band_upper_ties_reps.csv"],
    ),
    "cdf_band_csv": (
        ["cdf-band", "--treated", "{in}/treated.csv", "--control", "{in}/control.csv",
         "--R", "49", "--seed", "3", "--threads", "1", "--format", "csv",
         "--output", "{out}/cdf_band.csv"],
        ["cdf_band.csv"],
    ),
    "cdf_band_json": (
        ["cdf-band", "--treated", "{in}/treated_ties.csv", "--control", "{in}/control_ties.csv",
         "--R", "49", "--seed", "3", "--threads", "1", "--grid-step", "0.1",
         "--format", "json", "--output", "{out}/cdf_band_ties.json"],
        ["cdf_band_ties.json"],
    ),
    "dominance_necessary": (
        ["dominance-test", "--control", "{in}/dom_control.csv",
         "--treatment-a", "{in}/dom_a.csv", "--treatment-b", "{in}/dom_b.csv",
         "--orientation", "necessary", "--R", "49", "--seed", "5", "--grid-step", "0.02",
         "--threads", "1", "--dump-replicates", "{out}/dominance_necessary_reps.csv",
         "--output", "{out}/dominance_necessary.json"],
        ["dominance_necessary.json", "dominance_necessary_reps.csv"],
    ),
    "dominance_sufficient": (
        ["dominance-test", "--control", "{in}/dom_control.csv",
         "--treatment-a", "{in}/dom_a.csv", "--treatment-b", "{in}/dom_b.csv",
         "--orientation", "sufficient", "--R", "49", "--seed", "5", "--grid-step", "0.02",
         "--scheme", "bayesian", "--threads", "1",
         "--dump-replicates", "{out}/dominance_sufficient_reps.csv",
         "--output", "{out}/dominance_sufficient.json"],
        ["dominance_sufficient.json", "dominance_sufficient_reps.csv"],
    ),
    "quantile_bounds": (
        ["quantile-bounds", "--treated", "{in}/treated_ties.csv",
         "--control", "{in}/control_ties.csv", "--taus", "0.05,0.25,0.5,0.75,0.95",
         "--output", "{out}/quantile_bounds.csv"],
        ["quantile_bounds.csv"],
    ),
    "simulate_normal": (
        ["simulate", "normal", "--n", "20", "--R", "19", "--reps", "3",
         "--deltas", "0,2.5", "--seed", "1", "--threads", "1",
         "--output", "{out}/simulate_normal.csv"],
        ["simulate_normal.csv"],
    ),
    "simulate_dominance": (
        ["simulate", "dominance", "--n", "20", "--R", "19", "--reps", "3",
         "--deltas=-2.5,0", "--seed", "1", "--threads", "2",
         "--output", "{out}/simulate_dominance.csv"],
        ["simulate_dominance.csv"],
    ),
}


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def _run(argv: list[str], out: Path) -> None:
    argv = [a.replace("{in}", str(INPUTS)).replace("{out}", str(out)) for a in argv]
    rc = run_cli(argv)
    assert rc == 0, f"vfi {' '.join(argv)} exited {rc}"


@pytest.fixture
def no_vfi_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("VFI_"):
            monkeypatch.delenv(key)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path, no_vfi_env):
    _run(CASES[name][0], tmp_path)
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    for fname in CASES[name][1]:
        got = (tmp_path / fname).read_bytes()
        want = (GOLDEN / fname).read_bytes()
        assert got == want, (
            f"{fname} differs from tests/golden/{fname} "
            f"(recorded with {recorded}, running {_versions()})"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_equals_the_output_file(name, tmp_path, capsys, no_vfi_env):
    # the same case without its --output; a replicate dump still goes to its path
    argv = CASES[name][0]
    k = argv.index("--output")
    _run(argv[:k] + argv[k + 2:], tmp_path)
    want = (GOLDEN / argv[k + 1].removeprefix("{out}/")).read_bytes()
    assert capsys.readouterr().out.encode() == want


def regenerate() -> None:
    for key in [k for k in os.environ if k.startswith("VFI_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in sorted(CASES):
            _run(CASES[name][0], out)
            for fname in CASES[name][1]:
                (GOLDEN / fname).write_bytes((out / fname).read_bytes())
    (GOLDEN / "versions.json").write_text(json.dumps(_versions(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    regenerate()
