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

import numpy as np

from .bootstrap import BootstrapConfig
from .derivative import Tuning
from .empirical import CsvParseError, ecdf_build, load_sample_csv
from .inference import Band, bound_bands, cdf_band, dominance_test, uniform_band
from .makarov import (
    ArgmaxBudgetError,
    GridBudgetError,
    bounds_to_csv,
    compute_bounds,
    quantile_bounds,
)
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Options that a VFI_* variable can set, by argparse dest: (variable name
# after VFI_, type, built-in default).  Their flags default to None, and
# ``_apply_env`` fills those the chosen subcommand has and no flag set.
_ENV_OPTIONS = {
    "grid_step": ("GRID_STEP", _grid_step, None),
    "alpha": ("ALPHA", _alpha, 0.05),
    "R": ("R", _replicates, 199),
    "seed": ("SEED", int, 0),
    "scheme": ("SCHEME", str, "multinomial"),
    "threads": ("THREADS", _threads, os.cpu_count() or 1),
    "an_const": ("AN_CONST", _tuning_const, 0.2),
    "bn_const": ("BN_CONST", _tuning_const, 3.0),
}


def _apply_env(args):
    for dest, (name, cast, fallback) in _ENV_OPTIONS.items():
        if dest in vars(args) and getattr(args, dest) is None:
            setattr(args, dest, _env(name, cast, fallback))


def _add_common(p, with_bootstrap: bool):
    p.add_argument("--grid-step", type=_grid_step)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    if with_bootstrap:
        p.add_argument("--alpha", type=_alpha)
        p.add_argument("--R", type=_replicates)
        p.add_argument("--seed", type=int)
        p.add_argument("--scheme", choices=("multinomial", "bayesian"))
        p.add_argument("--threads", type=_threads)
        p.add_argument("--an-const", type=_tuning_const)
        p.add_argument("--bn-const", type=_tuning_const)
        p.add_argument("--dump-replicates", default=None, metavar="PATH")


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
    _add_common(p, with_bootstrap=False)

    p = sub.add_parser("band", help="uniform confidence band for one bound")
    _two_sample_args(p)
    p.add_argument("--which", choices=("lower", "upper"), default="lower")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, with_bootstrap=True)

    p = sub.add_parser("cdf-band", help="combined conservative band for the effect CDF")
    _two_sample_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, with_bootstrap=True)

    p = sub.add_parser("dominance-test", help="bootstrap dominance test, A vs B")
    p.add_argument("--control", required=True)
    p.add_argument("--treatment-a", required=True)
    p.add_argument("--treatment-b", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--orientation", choices=("necessary", "sufficient"),
                   default="necessary")
    _add_common(p, with_bootstrap=True)

    p = sub.add_parser("quantile-bounds", help="bounds on effect quantiles")
    _two_sample_args(p)
    p.add_argument("--taus", type=_levels, default="0.1,0.25,0.5,0.75,0.9",
                   help="comma-separated levels in (0,1)")
    _add_common(p, with_bootstrap=False)

    p = sub.add_parser("simulate", help="Monte Carlo power curves")
    p.add_argument("experiment", choices=("normal", "dominance"))
    p.add_argument("--n", type=_sample_size, default=100)
    p.add_argument("--reps", type=_repetitions, default=300)
    p.add_argument("--deltas", type=_deltas, default="-5,-2.5,0,2.5,5")
    _add_common(p, with_bootstrap=True)
    return ap


def _load_pair(args):
    X1 = load_sample_csv(args.treated, column=args.column, label="treated")
    X0 = load_sample_csv(args.control, column=args.column, label="control")
    return X1, X0


def _bconfig(args, alpha=None) -> BootstrapConfig:
    return BootstrapConfig(R=args.R, scheme=args.scheme, seed=args.seed,
                           alpha=alpha if alpha is not None else args.alpha,
                           threads=args.threads)


def _band_rows(band: Band) -> str:
    lines = ["x,lo,center,hi"]
    for x, lo, c, hi in zip(band.grid.points, band.lo, band.center, band.hi):
        lines.append(f"{_fmt(x)},{_fmt(lo)},{_fmt(c)},{_fmt(hi)}")
    return "\n".join(lines) + "\n"


def _band_json(band: Band, extra: dict) -> str:
    body = {
        "schema_version": SCHEMA_VERSION,
        "alpha": band.alpha,
        "c_star": band.c_star,
        "r_n": band.r_n,
        "band": [
            {"x": x, "lo": lo, "center": c, "hi": hi}
            for x, lo, c, hi in zip(
                band.grid.points.tolist(), band.lo.tolist(),
                band.center.tolist(), band.hi.tolist()
            )
        ],
    }
    body.update(extra)
    return _json_dumps(body)


def _dump_replicates(run, path):
    if path is None or run is None:
        return
    lines = ["replicate,value"]
    lines += [f"{r},{_fmt(v)}" for r, v in enumerate(run.replicates)]
    _write("\n".join(lines) + "\n", path)


def _cmd_bounds(args) -> int:
    X1, X0 = _load_pair(args)
    pair = compute_bounds(X1, X0, step=args.grid_step)
    _write(bounds_to_csv(pair), args.output)
    return 0


def _tuning(args, n: int) -> Tuning:
    return Tuning(n=n, a_const=args.an_const, b_const=args.bn_const)


def _cmd_band(args) -> int:
    X1, X0 = _load_pair(args)
    band = uniform_band(args.which, X1, X0, alpha=args.alpha,
                        config=_bconfig(args), step=args.grid_step,
                        tuning=_tuning(args, len(X1) + len(X0)))
    _dump_replicates(band.run, args.dump_replicates)
    if args.format == "csv":
        _write(_band_rows(band), args.output)
    else:
        _write(_band_json(band, {"which": args.which, "seed": args.seed}), args.output)
    return 0


def _cmd_cdf_band(args) -> int:
    X1, X0 = _load_pair(args)
    half = args.alpha / 2.0
    tuning = _tuning(args, len(X1) + len(X0))
    combined = cdf_band(*bound_bands(X1, X0, alpha=half, config=_bconfig(args, half),
                                     step=args.grid_step, tuning=tuning))
    if args.format == "csv":
        _write(_band_rows(combined), args.output)
    else:
        _write(_band_json(combined, {"which": "cdf", "seed": args.seed}), args.output)
    return 0


def _cmd_dominance(args) -> int:
    X0 = load_sample_csv(args.control, column=args.column, label="control")
    XA = load_sample_csv(args.treatment_a, column=args.column, label="A")
    XB = load_sample_csv(args.treatment_b, column=args.column, label="B")
    res = dominance_test(X0, XA, XB, alpha=args.alpha, config=_bconfig(args),
                         step=args.grid_step, orientation=args.orientation,
                         tuning=_tuning(args, len(X0) + len(XA) + len(XB)))
    _dump_replicates(res.run, args.dump_replicates)
    body = {
        "schema_version": SCHEMA_VERSION,
        "statistic": res.statistic,
        "critical_value": res.critical_value,
        "reject": res.reject,
        "alpha": res.alpha,
        "orientation": args.orientation,
        "replicates": {"count": res.rep_count, "mean": res.rep_mean, "max": res.rep_max},
        "seed": args.seed,
    }
    _write(_json_dumps(body), args.output)
    return 0


def _cmd_quantile_bounds(args) -> int:
    X1, X0 = _load_pair(args)
    taus = np.array(args.taus)
    lo, hi = quantile_bounds(ecdf_build(X1), ecdf_build(X0), taus)
    lines = ["tau,lower,upper"]
    lines += [f"{_fmt(t)},{_fmt(a)},{_fmt(b)}" for t, a, b in zip(taus, lo, hi)]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    kind = "normal_location" if args.experiment == "normal" else "uniform_dominance"
    config = ExperimentConfig(
        kind=kind, n=args.n, R=args.R, reps=args.reps,
        deltas=args.deltas,
        alpha=args.alpha, seed=args.seed, grid_step=args.grid_step,
        scheme=args.scheme, threads=args.threads,
    )
    curve = (run_normal_location if kind == "normal_location" else run_uniform_dominance)(config)
    lines = ["delta,reject_rate,se"]
    lines += [
        f"{_fmt(d)},{_fmt(p)},{_fmt(s)}"
        for d, p, s in zip(curve.deltas, curve.reject_rate, curve.se)
    ]
    _write("\n".join(lines) + "\n", args.output)
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
    except (CsvParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
