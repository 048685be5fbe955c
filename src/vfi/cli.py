"""Command-line front end.

Subcommands cover bound computation, uniform bands, the combined CDF band,
the dominance test, quantile bounds, and the Monte Carlo experiments.
Outputs are CSV or JSON with shortest-roundtrip float formatting so that a
fixed seed reproduces byte-identical files, independent of --threads.

Configuration precedence: command-line flags, then VFI_* environment
variables, then built-in defaults.  A VFI_* variable is read only when the
chosen subcommand has its option.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bootstrap import SCHEMES, BootstrapConfig
from .derivative import Tuning
from .empirical import CsvParseError, ecdf_build, load_sample_csv
from .inference import cdf_band, dominance_test, uniform_band
from .makarov import ArgmaxBudgetError, GridBudgetError, compute_bounds, quantile_bounds
from .simulate import ExperimentConfig, run_normal_location, run_uniform_dominance

SCHEMA_VERSION = 1


def _env(name: str, cast, fallback):
    raw = os.environ.get("VFI_" + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:  # a usage error, as for a flag
        print(f"vfi: error: VFI_{name}: {exc}", file=sys.stderr)
        raise SystemExit(2)


# Every thread pool starts up to min(threads, work items) threads.
MAX_THREADS = 4 * (os.cpu_count() or 1)


def _checked(cast, ok, what: str):
    """argparse type: ``cast`` the text and require ``ok`` of the value;
    a failure is a usage error."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value
    return parse


def _positive_finite(v: float) -> bool:
    return 0.0 < v < float("inf")


_grid_step = _checked(float, _positive_finite, "grid step must be a positive finite number")
_alpha = _checked(float, lambda v: 0.0 < v < 1.0, "alpha must lie in (0, 1)")
_replicates = _checked(int, lambda v: v >= 1, "replicate count must be at least 1")
_threads = _checked(int, lambda v: 1 <= v <= MAX_THREADS,
                    f"thread count must lie in 1..{MAX_THREADS} (4 per CPU)")
_tuning_const = _checked(float, _positive_finite, "tuning constant must be a positive finite number")


def _float_list(text: str) -> tuple[float, ...]:
    """argparse type for comma-separated numbers; a bad list is a usage error."""
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


_deltas = _checked(_float_list, lambda ds: all(map(math.isfinite, ds)),
                   "deltas must be finite numbers")
_sample_size = _checked(int, lambda v: v >= 16, "per-sample n must be at least 16")
_repetitions = _checked(int, lambda v: v >= 1, "repetition count must be at least 1")


def _levels(text: str) -> tuple[float, ...]:
    """argparse type for comma-separated quantile levels in (0, 1)."""
    taus = _float_list(text)
    if not all(0.0 < t < 1.0 for t in taus):
        raise argparse.ArgumentTypeError(f"levels must lie in (0, 1), got {text!r}")
    return taus


def _write(path: str | None, columns: dict | None = None, body: dict | None = None):
    """The one output writer: every command's result and replicate dump is
    turned into text here and written to ``path``, or to stdout if it is
    None.  ``columns`` (name -> values) alone go out as CSV, a header and
    one line per row, each float in shortest round-trip form and a ``range``
    (the replicate index) as ints.  ``body`` goes out as indented JSON with
    sorted keys; with ``columns`` as well, its "band" entry holds one object
    per row."""
    if body is None:
        cells = [map(str, c) if isinstance(c, range) else [repr(float(v)) for v in c]
                 for c in columns.values()]
        text = "".join(",".join(line) + "\n" for line in (columns, *zip(*cells)))
    else:
        if columns is not None:
            rows = zip(*(c.tolist() for c in columns.values()))
            body = {**body, "band": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# Options that a VFI_* variable can set, by argparse dest: (variable name
# after VFI_, type, built-in default).  Their flags default to None, and
# ``_apply_env`` fills those the chosen subcommand has and no flag set.
# The defaults are the library's, apart from threads.
_ENV_OPTIONS = {
    "grid_step": ("GRID_STEP", _grid_step, None),
    "alpha": ("ALPHA", _alpha, BootstrapConfig.alpha),
    "R": ("R", _replicates, BootstrapConfig.R),
    "seed": ("SEED", int, BootstrapConfig.seed),
    "scheme": ("SCHEME", str, BootstrapConfig.scheme),
    "threads": ("THREADS", _threads, os.cpu_count() or 1),
    "an_const": ("AN_CONST", _tuning_const, Tuning.a_const),
    "bn_const": ("BN_CONST", _tuning_const, Tuning.b_const),
}


def _apply_env(args):
    for dest, (name, cast, fallback) in _ENV_OPTIONS.items():
        if dest in vars(args) and getattr(args, dest) is None:
            setattr(args, dest, _env(name, cast, fallback))


def _add_common(p, grid: bool = True, bootstrap: bool = False, tuning: bool = False):
    """The options shared by subcommands; each takes only those it reads, so
    a flag it would ignore is a usage error."""
    if grid:
        p.add_argument("--grid-step", type=_grid_step)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    if bootstrap:
        p.add_argument("--alpha", type=_alpha)
        p.add_argument("--R", type=_replicates)
        p.add_argument("--seed", type=int)
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--threads", type=_threads)
    if tuning:
        p.add_argument("--an-const", type=_tuning_const)
        p.add_argument("--bn-const", type=_tuning_const)


def _two_sample_args(p):
    p.add_argument("--treated", required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--column", default=None,
                   help="CSV column name or index (default: first column)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vfi",
                                 description="Bound functions and uniform inference "
                                             "for treatment-effect distributions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="plug-in lower/upper bound functions")
    _two_sample_args(p)
    _add_common(p)

    p = sub.add_parser("band", help="uniform confidence band for one bound")
    _two_sample_args(p)
    p.add_argument("--which", choices=("lower", "upper"), default="lower")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dump-replicates", default=None, metavar="PATH")
    _add_common(p, bootstrap=True, tuning=True)

    p = sub.add_parser("cdf-band", help="combined conservative band for the effect CDF")
    _two_sample_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, bootstrap=True, tuning=True)

    p = sub.add_parser("dominance-test", help="bootstrap dominance test, A vs B")
    p.add_argument("--control", required=True)
    p.add_argument("--treatment-a", required=True)
    p.add_argument("--treatment-b", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--orientation", choices=("necessary", "sufficient"),
                   default="necessary")
    p.add_argument("--dump-replicates", default=None, metavar="PATH")
    _add_common(p, bootstrap=True, tuning=True)

    p = sub.add_parser("quantile-bounds", help="bounds on effect quantiles")
    _two_sample_args(p)
    p.add_argument("--taus", type=_levels, default="0.1,0.25,0.5,0.75,0.9",
                   help="comma-separated levels in (0,1)")
    _add_common(p, grid=False)

    p = sub.add_parser("simulate", help="Monte Carlo power curves")
    p.add_argument("experiment", choices=("normal", "dominance"))
    p.add_argument("--n", type=_sample_size, default=100)
    p.add_argument("--reps", type=_repetitions, default=300)
    p.add_argument("--deltas", type=_deltas, default="-5,-2.5,0,2.5,5")
    _add_common(p, bootstrap=True)
    return ap


def _load(args, *dests: str) -> list:
    """The sample at the path of each argparse dest in ``dests``, labelled by its dest."""
    return [load_sample_csv(getattr(args, d), column=args.column, label=d) for d in dests]


def _bconfig(args) -> BootstrapConfig:
    return BootstrapConfig(R=args.R, scheme=args.scheme, seed=args.seed,
                           alpha=args.alpha, threads=args.threads)


def _dump_replicates(run, path):
    if path is not None:
        _write(path, {"replicate": range(len(run.replicates)), "value": run.replicates})


def _write_band(band, args, which: str):
    """A band as CSV rows, or as JSON with its level, c* and r_n."""
    body = None
    if args.format == "json":
        body = {"schema_version": SCHEMA_VERSION, "alpha": band.alpha, "c_star": band.c_star,
                "r_n": band.r_n, "which": which, "seed": args.seed}
    _write(args.output, {"x": band.grid.points, "lo": band.lo, "center": band.center,
                         "hi": band.hi}, body)


def _cmd_bounds(args) -> int:
    pair = compute_bounds(*_load(args, "treated", "control"), step=args.grid_step)
    _write(args.output, {"x": pair.grid.points, "lower": pair.lower.values,
                         "upper": pair.upper.values})
    return 0


def _tuning(args, n: int) -> Tuning:
    return Tuning(n=n, a_const=args.an_const, b_const=args.bn_const)


def _cmd_band(args) -> int:
    X1, X0 = _load(args, "treated", "control")
    band = uniform_band(args.which, X1, X0, config=_bconfig(args), step=args.grid_step,
                        tuning=_tuning(args, len(X1) + len(X0)))
    _dump_replicates(band.run, args.dump_replicates)
    _write_band(band, args, args.which)
    return 0


def _cmd_cdf_band(args) -> int:
    X1, X0 = _load(args, "treated", "control")
    combined = cdf_band(X1, X0, config=_bconfig(args), step=args.grid_step,
                        tuning=_tuning(args, len(X1) + len(X0)))
    _write_band(combined, args, "cdf")
    return 0


def _cmd_dominance(args) -> int:
    X0, XA, XB = _load(args, "control", "treatment_a", "treatment_b")
    res = dominance_test(X0, XA, XB, config=_bconfig(args),
                         step=args.grid_step, orientation=args.orientation,
                         tuning=_tuning(args, len(X0) + len(XA) + len(XB)))
    _dump_replicates(res.run, args.dump_replicates)
    _write(args.output, body={
        "schema_version": SCHEMA_VERSION,
        "statistic": res.statistic,
        "critical_value": res.critical_value,
        "reject": res.reject,
        "alpha": res.alpha,
        "orientation": args.orientation,
        "replicates": {"count": res.rep_count, "mean": res.rep_mean, "max": res.rep_max},
        "seed": args.seed,
    })
    return 0


def _cmd_quantile_bounds(args) -> int:
    F1, F0 = map(ecdf_build, _load(args, "treated", "control"))
    lo, hi = quantile_bounds(F1, F0, args.taus)
    _write(args.output, {"tau": args.taus, "lower": lo, "upper": hi})
    return 0


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(n=args.n, reps=args.reps, deltas=args.deltas,
                              grid_step=args.grid_step, bootstrap=_bconfig(args))
    run = run_normal_location if args.experiment == "normal" else run_uniform_dominance
    curve = run(config)
    _write(args.output, {"delta": curve.deltas, "reject_rate": curve.reject_rate,
                         "se": curve.se})
    return 0


_DISPATCH = {
    "bounds": _cmd_bounds,
    "band": _cmd_band,
    "cdf-band": _cmd_cdf_band,
    "dominance-test": _cmd_dominance,
    "quantile-bounds": _cmd_quantile_bounds,
    "simulate": _cmd_simulate,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_env(args)
    except SystemExit as exc:  # argparse and _env use exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (GridBudgetError, ArgmaxBudgetError) as exc:  # a flag value past a limit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CsvParseError, ValueError, OSError) as exc:  # OSError: a path open() refuses
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
