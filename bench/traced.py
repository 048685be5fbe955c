"""Run one `vfi` CLI command in-process with every layer wrapped in spans.

    python3 bench/traced.py --spans SPANS.json -- <vfi arguments>

The public functions of each layer (`cli`, `empirical`, `makarov`,
`derivative`, `bootstrap`, `inference`, `simulate`) are replaced at every
module that imported them by wrappers that record a `perf_counter` span
and, where named, a count.  Spans are kept in memory and written as JSON
when the command ends; `bench/run.py` turns them into per-layer metrics.

Nothing under `src/vfi` is changed.  A wrapped name that a later version of
the package no longer has is skipped, so its metrics read 0 rather than the
run failing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter


class Recorder:
    """In-memory spans and counters.

    A span is [name, start, end, parent]; parent is the index of the
    innermost span open in the same thread.  Work started in a pool thread
    with nothing open gets the innermost span of the main thread as parent,
    which is the span that submitted it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._local = threading.local()
        self._seen: dict[int, object] = {}

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:
            stack.remove(idx)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def first_sight(self, obj) -> bool:
        """True the first time obj is passed; holding obj keeps its id unique."""
        with self._lock:
            if id(obj) in self._seen:
                return False
            self._seen[id(obj)] = obj
            return True

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def wrap(self, name: str, fn, count=None):
        """fn timed as span `name`; count(rec, result, args, kwargs) runs
        after the span closes so its own cost is not charged to the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, out, args, kwargs)
            return out

        return wrapper

    # A bootstrap replicate starts at its first weight draw and ends when
    # the problem's replicate statistic returns; both happen in one thread.
    def draw(self, fn):
        timed = self.wrap("bootstrap.draw_weights", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(self._local, "replicate", None) is None:
                self._local.replicate = self.open("bootstrap.replicate")
            return timed(*args, **kwargs)

        return wrapper

    def replicate(self, fn):
        timed = self.wrap("inference.replicate", fn)

        def wrapper(*args, **kwargs):
            rep = getattr(self._local, "replicate", None)
            if rep is None:
                rep = self.open("bootstrap.replicate")
            self._local.replicate = None
            try:
                return timed(*args, **kwargs)
            finally:
                self.close(rep)
                self.add("bootstrap.replicates", 1)

        return wrapper

    def dump(self, path: Path) -> None:
        now = perf_counter()
        for span in self.spans:  # a span left open ends with the trace
            if span[2] is None:
                span[2] = now
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


class _TimedProblem:
    """Bootstrap problem seen by `bootstrap_statistic_distribution`: the
    wrapped problem with `replicate_stat` timed, everything else forwarded."""

    def __init__(self, problem, rec: Recorder):
        self._problem = problem
        self.replicate_stat = rec.replicate(problem.replicate_stat)

    def __getattr__(self, name):
        return getattr(self._problem, name)


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_scan(rec, out, args, kwargs):
    F1, F0 = _arg(args, kwargs, 0, "F1"), _arg(args, kwargs, 1, "F0")
    grid = getattr(out, "grid", None)
    try:
        m = F1.jump_points.size + F0.jump_points.size
    except AttributeError:
        return
    if grid is not None:
        rec.add("makarov.scan_cells", len(grid) * 2 * m)


def _count_structure(rec, out, args, kwargs):
    s = args[0]
    parts = [getattr(s, a, None) for a in ("events", "i1r", "i1l", "i0r", "i0l")]
    rec.peak("makarov.structure_mb", sum(p.nbytes for p in parts if p is not None) / 1e6)


def _count_argmax(rec, out, args, kwargs):
    per_x = getattr(out, "per_x", None)
    if per_x is not None:
        rec.add("derivative.argmax_nnz", int(per_x.sum()))
        rec.add("derivative.argmax_cells", int(per_x.size))
    if getattr(out, "contact_fallback", False):
        rec.add("derivative.contact_fallback", 1)


def _count_contact(rec, out, args, kwargs):
    # every replicate of a problem passes the same contact set; count it once
    contact = _arg(args, kwargs, 2, "contact")
    if contact is None or not rec.first_sight(contact):
        return
    import numpy as np  # not at the top: `cli.import` must pay for numpy

    size = int(np.count_nonzero(contact))
    rec.add("derivative.contact_size", size)
    if size == 0:
        rec.add("derivative.contact_fallback", 1)


def _bootstrap(rec: Recorder, fn):
    inner = rec.wrap("bootstrap.run", fn)

    def wrapper(problem, *args, **kwargs):
        return inner(_TimedProblem(problem, rec), *args, **kwargs)

    return functools.wraps(fn)(wrapper)


def _replace_everywhere(original, replacement) -> None:
    """Rebind `original` to `replacement` in every loaded vfi module that
    holds it, i.e. at each `from .x import name` site and its definition."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "vfi" or mod_name.startswith("vfi.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# (defining module, function name, span name, counter or None)
FUNCTIONS = [
    ("vfi.empirical", "load_sample_csv", "empirical.load_csv", None),
    ("vfi.empirical", "ecdf_build", "empirical.ecdf_build", None),
    ("vfi.makarov", "support_bounds", "makarov.support_grid", None),
    ("vfi.makarov", "default_grid", "makarov.support_grid", None),
    ("vfi.makarov", "lower_bound", "makarov.bound_scan", _count_scan),
    ("vfi.makarov", "upper_bound", "makarov.bound_scan", _count_scan),
    ("vfi.derivative", "eps_argmax", "derivative.eps_argmax", _count_argmax),
    ("vfi.derivative", "derivative_estimate", "derivative.estimate", None),
    ("vfi.derivative", "dominance_derivative_estimate", "derivative.estimate",
     _count_contact),
    ("vfi.inference", "uniform_band", "inference.procedure", None),
    ("vfi.inference", "dominance_test", "inference.procedure", None),
    ("vfi.inference", "cdf_band", "inference.cdf_band", None),
    ("vfi.simulate", "run_normal_location", "simulate.run", None),
    ("vfi.simulate", "run_uniform_dominance", "simulate.run", None),
    ("vfi.makarov", "bounds_to_csv", "cli.format", None),
    ("vfi.cli", "_band_rows", "cli.format", None),
    ("vfi.cli", "_band_json", "cli.format", None),
    ("vfi.cli", "_write", "cli.format", None),
    ("vfi.cli", "run_cli", "cli.run", None),
]

# (defining module, class name, method, span name, counter or None)
METHODS = [
    ("vfi.makarov", "MakarovStructure", "__init__", "makarov.structure_build",
     _count_structure),
    ("vfi.makarov", "MakarovStructure", "evaluate", "makarov.evaluate", None),
]

# Procedures `simulate` runs once per Monte Carlo problem.
SIMULATE_PROBLEMS = ("uniform_band", "dominance_test")


def install(rec: Recorder) -> list[str]:
    """Wrap every layer function that exists; return the names skipped."""
    missing = []
    for mod_name, name, span, counter in FUNCTIONS:
        fn = getattr(sys.modules.get(mod_name), name, None)
        if fn is None:
            missing.append(f"{mod_name}.{name}")
            continue
        _replace_everywhere(fn, rec.wrap(span, fn, counter))
    for mod_name, cls_name, meth, span, counter in METHODS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            missing.append(f"{mod_name}.{cls_name}.{meth}")
            continue
        setattr(cls, meth, rec.wrap(span, fn, counter))
    boot = sys.modules.get("vfi.bootstrap")
    for name, make in (("bootstrap_statistic_distribution", _bootstrap),
                       ("draw_weights", lambda r, f: r.draw(f))):
        fn = getattr(boot, name, None)
        if fn is None:
            missing.append(f"vfi.bootstrap.{name}")
            continue
        _replace_everywhere(fn, make(rec, fn))
    sim = sys.modules.get("vfi.simulate")
    for name in SIMULATE_PROBLEMS:
        fn = getattr(sim, name, None)
        if fn is not None:
            setattr(sim, name, rec.wrap("simulate.problem", fn))
    return missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, type=Path)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    rec = Recorder()
    idx = rec.open("cli.import")
    import vfi.cli  # noqa: F401  (the import is what this span measures)
    rec.close(idx)
    for name in install(rec):
        print(f"traced: {name} not found; its spans read 0", file=sys.stderr)
    rc = sys.modules["vfi.cli"].run_cli(cli_args)
    rec.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
