"""Empirical distribution and quantile functions for one-dimensional samples.

Everything downstream (bound functions, bootstrap directions) is built from
right-continuous step CDFs, so exact evaluation at jump points and left
limits matters more than speed here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Sample",
    "StepCDF",
    "ecdf_build",
    "weighted_ecdf",
    "load_sample_csv",
]


@dataclass(frozen=True)
class Sample:
    """A finite sample of real outcomes with an optional label.  Its tie
    blocks start at ``block_starts``, indices into ``sorted_values``."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if v.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"sample {self.label!r} contains non-finite values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_sorted", np.sort(v))
        object.__setattr__(self, "block_starts", _run_starts(self._sorted))

    def __len__(self) -> int:
        return self.values.size

    @property
    def sorted_values(self) -> np.ndarray:
        return self._sorted

    @property
    def min(self) -> float:
        return float(self._sorted[0])

    @property
    def max(self) -> float:
        return float(self._sorted[-1])


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous step distribution function.

    ``jump_points`` are strictly increasing, ``cum_probs`` increasing with
    final element exactly 1.  ``cum0`` is ``cum_probs`` after a 0.0, read-only.
    """

    jump_points: np.ndarray
    cum_probs: np.ndarray

    def __post_init__(self):
        jp = np.asarray(self.jump_points, dtype=float)
        cp = np.asarray(self.cum_probs, dtype=float)
        if jp.size == 0 or jp.shape != cp.shape:
            raise ValueError("jump_points and cum_probs must be nonempty and congruent")
        if not np.all(jp[1:] > jp[:-1]):
            raise ValueError("jump_points must be strictly increasing")
        if cp.size > 1 and np.any(np.diff(cp) <= 0):
            raise ValueError("cum_probs must be strictly increasing")
        if abs(cp[-1] - 1.0) > 1e-12:
            raise ValueError("cum_probs must end at 1 (within 1e-12)")
        cp = cp.copy()
        cp[-1] = 1.0
        object.__setattr__(self, "jump_points", jp)
        object.__setattr__(self, "cum_probs", cp)
        # leading zero so searchsorted indices map directly to probabilities
        object.__setattr__(self, "cum0", np.concatenate(([0.0], cp)))
        self.cum0.flags.writeable = False

    def eval(self, x):
        """P(X <= x), right-continuous in x.  Accepts scalars or arrays."""
        idx = np.searchsorted(self.jump_points, x, side="right")
        out = self.cum0[idx]
        return float(out) if np.isscalar(x) else out

    __call__ = eval

    def left_limit(self, x):
        """P(X < x): the limit of ``eval`` from the left."""
        idx = np.searchsorted(self.jump_points, x, side="left")
        out = self.cum0[idx]
        return float(out) if np.isscalar(x) else out

    def quantile(self, tau):
        """Generalized inverse inf{x : F(x) >= tau} for tau in (0, 1]."""
        t = np.asarray(tau, dtype=float)
        if not np.all((t > 0.0) & (t <= 1.0)):  # NaN fails too
            raise ValueError("quantile level must lie in (0, 1]")
        idx = np.searchsorted(self.cum_probs, t, side="left")
        out = self.jump_points[idx]
        return float(out) if np.isscalar(tau) else out


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Where each run of equal values of sorted ``v`` starts (-0.0 == 0.0)."""
    return np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))


def _cum_from_weights(w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Cumulative mass array (leading zero) of a sample reweighted by ``w``,
    summed over its tie blocks (``starts``) and divided by n; for a (B, n)
    block of weight rows, one array per row.  Unit weights give ``cum0``."""
    mass = np.add.reduceat(w, starts, axis=-1)
    cum = np.zeros(mass.shape[:-1] + (mass.shape[-1] + 1,))
    np.cumsum(mass, axis=-1, out=cum[..., 1:])
    cum[..., 1:] /= w.shape[-1]
    return cum


def ecdf_build(sample: Sample) -> StepCDF:
    """Empirical CDF, ties merged into one jump: the unit-weight reweighting."""
    starts = sample.block_starts
    cum = _cum_from_weights(np.ones(len(sample)), starts)
    return StepCDF(jump_points=sample.sorted_values[starts], cum_probs=cum[1:])


def weighted_ecdf(values: np.ndarray, weights: np.ndarray) -> StepCDF:
    """Step CDF putting mass w_i / sum(w) at each observation."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("weights length must match sample size")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError("weights must be finite and nonnegative")
    total = weights.sum()
    if not 0 < total < np.inf:
        raise ValueError("weights must have a positive, finite total mass")
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    # merge ties
    start = _run_starts(v)
    mass = np.add.reduceat(w, start) / total
    keep = mass > 0
    cum = np.cumsum(mass[keep])
    cum[-1] = 1.0
    return StepCDF(jump_points=v[start[keep]], cum_probs=cum)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


class CsvParseError(ValueError):
    """Malformed CSV input; message carries the offending line number."""


def load_sample_csv(path, column=None, label: str | None = None) -> Sample:
    """Read one numeric column from a CSV file into a Sample.

    ``column`` selects by header name or zero-based index; defaults to the
    first column.  A string names a header cell when the first row has a
    non-numeric cell and holds that name; otherwise a string of digits is
    an index.  With an index, the first row is a header when its cell in
    that column is not a number.  Rows whose cells are all blank are
    skipped.  The file is read as UTF-8; a leading byte-order mark is
    dropped.

    The file is read once.  Only its first non-blank row is parsed to
    decide the header and column; numpy's C reader then converts the
    column.  Text it does not read cleanly (a cell spelled ``1_000``, a
    whitespace-only row, a row without the column, a non-finite value, no
    rows) is parsed again row by row, which accepts every spelling
    ``float`` does and reports the first bad line.  So a pipe or FIFO
    path loads as a regular file does.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    # a bad byte raises here, its position counted from the start of the file;
    # the streams below decode chunk by chunk
    raw.decode("utf-8-sig")
    reader = csv.reader(_text(raw, newline=""))
    skip = 0  # lines before the first data row
    # the first row with a non-blank cell: a header or the first data row
    for start, first in enumerate(reader):
        if any(cell.strip() for cell in first):
            break
        skip = reader.line_num
    else:
        raise CsvParseError(f"{path}: no data rows")
    col_idx, header = _column_index(path, first, column)
    if header:
        start, skip = start + 1, reader.line_num

    # a header with no non-empty row after it goes straight to the row loop
    # (numpy would warn of no data)
    values = _c_column(raw, col_idx, skip) if not header or any(reader) else None
    if values is None:
        rows = list(csv.reader(_text(raw, newline="")))
        values = _checked_column(path, rows, start, col_idx)
    return Sample(values, label=label or path.stem)


def _text(raw: bytes, newline: str | None) -> io.TextIOWrapper:
    """A text stream over the bytes of a file, decoded as it is read, so no
    decoded copy of the whole file is held (``io.StringIO`` holds four bytes
    a character)."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=newline)


def _column_index(path: Path, first: list[str], column) -> tuple[int, bool]:
    """The index of ``column`` and whether ``first``, the first non-blank
    row, is a header."""
    names = [c.strip() for c in first]
    if isinstance(column, str) and column in names and not all(map(_is_number, names)):
        return names.index(column), True
    if isinstance(column, str):
        if not (column.isascii() and column.isdigit()):
            raise CsvParseError(f"{path}: column {column!r} not found in header")
        column = int(column)
    col_idx = 0 if column is None else int(column)
    try:
        return col_idx, not _is_number(names[col_idx])
    except IndexError:
        return col_idx, True


def _c_column(raw: bytes, col_idx: int, skip: int) -> np.ndarray | None:
    """Column ``col_idx`` of the lines of ``raw`` after the first ``skip``,
    parsed by numpy's C reader (universal newlines, empty lines skipped,
    quotes as ``csv`` reads them); None when it raises, a value is not
    finite or no row is left, for ``_checked_column`` to report or skip
    row by row."""
    try:
        values = np.loadtxt(_text(raw, newline=None), delimiter=",", usecols=col_idx,
                            skiprows=skip, comments=None, quotechar='"', ndmin=1, dtype=float)
    except Exception:
        # any failure, an OverflowError for a huge index among them: the row
        # loop reports it
        return None
    return values if values.size and np.isfinite(values).all() else None


def _checked_column(path: Path, rows: list[list[str]], start: int, col_idx: int) -> np.ndarray:
    """Column ``col_idx`` of ``rows[start:]`` row by row, skipping rows whose
    cells are all blank and naming the line of the first bad cell."""
    values = []
    for lineno, row in enumerate(rows[start:], start + 1):
        if not any(cell.strip() for cell in row):
            continue
        if col_idx >= len(row):
            raise CsvParseError(f"{path}:{lineno}: missing column {col_idx}")
        cell = row[col_idx].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise CsvParseError(f"{path}:{lineno}: not a number: {cell!r}") from None
        if not math.isfinite(values[-1]):
            raise CsvParseError(f"{path}:{lineno}: not a finite number: {cell!r}")
    if not values:
        raise CsvParseError(f"{path}: no numeric rows")
    return np.asarray(values)
