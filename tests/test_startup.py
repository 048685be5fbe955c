"""What importing vfi does to the process: one OpenBLAS thread and no
variable left behind, no BLAS call in the package that would want more, no
scipy until a command needs it, and no thread-pool module until a pool
starts."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vfi"

# numpy's BLAS entry points; `@` is checked as an operator
BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "inner", "tensordot"}


def _fresh(code, **env):
    """What the last line ``code`` prints holds, as JSON, after it runs in a
    fresh interpreter whose environment lacks OPENBLAS_NUM_THREADS unless
    given."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), full.get("PYTHONPATH"))))
    full.update(env)
    r = subprocess.run([sys.executable, "-c", code], env=full,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def _after_import(code, **env):
    """The OpenBLAS variable and thread count after ``code`` runs."""
    report = ("import json, os\n"
              "task = '/proc/self/task'\n"
              "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
              "                  len(os.listdir(task)) if os.path.isdir(task) else None]))\n")
    return _fresh(code + "\n" + report, **env)


def _loaded(code, *packages):
    """The modules of ``packages`` loaded after ``code`` runs."""
    report = ("import json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              f"                        if m.split('.')[0] in {packages!r})))\n")
    return _fresh(code + "\n" + report)


# a thread pool's module and the logging it imports
POOL_PACKAGES = ("concurrent", "logging")


def test_import_pins_openblas_to_one_thread():
    value, threads = _after_import("import vfi.cli")
    assert value is None  # removed again once numpy is in: children do not inherit it
    if threads is None:
        pytest.skip("no /proc/self/task to count threads")
    assert threads == 1


def test_user_setting_wins():
    assert _after_import("import vfi", OPENBLAS_NUM_THREADS="3")[0] == "3"


def test_numpy_imported_first_is_left_alone():
    value, threads = _after_import("import numpy, vfi")
    assert value is None
    assert threads == _after_import("import numpy")[1]


def test_cli_import_loads_no_scipy():
    assert _loaded("import vfi.cli", "scipy") == []


def test_cli_import_loads_no_pool_module():
    assert _loaded("import vfi.cli", *POOL_PACKAGES) == []


def _after_simulate(experiment, *packages, threads=1):
    return _loaded(
        "import vfi.cli\n"
        f"argv = ['simulate', '{experiment}', '--n', '20', '--R', '9', '--reps', '1',\n"
        f"        '--deltas', '0', '--threads', '{threads}']\n"
        "assert vfi.cli.run_cli(argv) == 0", *packages)


def test_simulate_dominance_loads_no_scipy():
    assert _after_simulate("dominance", "scipy") == []


def test_simulate_on_two_threads_loads_no_pool_module():
    # its structures fit one chunk of the candidate pass, so no pool starts
    assert _after_simulate("dominance", *POOL_PACKAGES, threads=2) == []


def test_simulate_normal_loads_scipy_special_only():
    # its closed form takes ndtr, not scipy.stats' norm.cdf
    loaded = _after_simulate("normal", "scipy")
    assert "scipy.special" in loaded and "scipy.stats" not in loaded


def _blas_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and BLAS_NAMES & set(node.name.split(".")):
            yield node.lineno, node.name


def test_scan_finds_blas_calls():
    code = ("import numpy.linalg\nfrom numpy import einsum\n"
            "a @ b\na @= b\nnp.dot(a, b)\nnp.inner(a, b)\ntensordot(a, b)\nmatmul(a, b)\n")
    assert [name for _, name in sorted(_blas_uses(ast.parse(code)))] == [
        "numpy.linalg", "einsum", "@", "@", "dot", "inner", "tensordot", "matmul"]


def test_package_makes_no_blas_call():
    # the OpenBLAS pin in vfi/__init__.py assumes this; a BLAS call added to
    # the package should revisit that pin rather than run on one thread
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.rglob("*.py"))
             for line, name in _blas_uses(ast.parse(path.read_text()))]
    assert found == []
