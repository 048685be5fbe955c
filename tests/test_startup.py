"""What importing vfi does to the process: one OpenBLAS thread and no
variable left behind, and no BLAS call in the package that would want more."""

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


def _after_import(code, **env):
    """The OpenBLAS variable and thread count after ``code`` runs in a fresh
    interpreter whose environment lacks OPENBLAS_NUM_THREADS unless given."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), full.get("PYTHONPATH"))))
    full.update(env)
    report = ("import json, os\n"
              "task = '/proc/self/task'\n"
              "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
              "                  len(os.listdir(task)) if os.path.isdir(task) else None]))\n")
    r = subprocess.run([sys.executable, "-c", code + "\n" + report], env=full,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


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
