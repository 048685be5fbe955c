import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from vfi import empirical
from vfi.empirical import (
    CsvParseError,
    Sample,
    StepCDF,
    ecdf_build,
    load_sample_csv,
    weighted_ecdf,
)


class TestSample:
    def test_sorted_and_extremes(self):
        s = Sample(np.array([3.0, 1.0, 1.0, 5.0]))
        assert_array_equal(s.sorted_values, [1.0, 1.0, 3.0, 5.0])
        assert s.min == 1.0 and s.max == 5.0
        assert len(s) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty sample"):
            Sample(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Sample(np.array([1.0, np.nan]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((2, 2)))

    def test_block_starts_merge_signed_zeros(self):
        s = Sample(np.array([1.0, 0.0, -2.0, -0.0, 1.0]))
        assert_array_equal(s.block_starts, [0, 1, 3])


class TestEcdf:
    def test_jumps_merge_ties(self):
        F = ecdf_build(Sample(np.array([3.0, 1.0, 1.0, 5.0])))
        assert_array_equal(F.jump_points, [1.0, 3.0, 5.0])
        assert_allclose(F.cum_probs, [0.5, 0.75, 1.0])

    def test_eval_right_continuous(self):
        F = ecdf_build(Sample(np.array([3.0, 1.0, 1.0, 5.0])))
        assert F(1.0) == 0.5
        assert F(0.99) == 0.0
        assert F(5.0) == 1.0
        assert F(100.0) == 1.0
        assert F.left_limit(1.0) == 0.0
        assert F.left_limit(3.0) == 0.5
        assert F.left_limit(5.0 + 1e-9) == 1.0

    def test_quantile(self):
        F = ecdf_build(Sample(np.array([3.0, 1.0, 1.0, 5.0])))
        assert F.quantile(0.75) == 3.0
        assert F.quantile(0.5) == 1.0
        assert F.quantile(0.51) == 3.0
        assert F.quantile(1.0) == 5.0
        with pytest.raises(ValueError):
            F.quantile(0.0)
        with pytest.raises(ValueError):
            F.quantile(1.1)

    def test_eval_array(self):
        F = ecdf_build(Sample(np.array([0.0, 1.0])))
        assert_array_equal(F(np.array([-1.0, 0.0, 0.5, 2.0])), [0.0, 0.5, 0.5, 1.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_counting_definition(self, xs):
        vals = np.asarray(xs)
        F = ecdf_build(Sample(vals))
        probe = np.concatenate([vals, vals + 0.5, vals - 0.5])
        for x in probe:
            assert F(x) == pytest.approx(np.mean(vals <= x), abs=1e-12)
            assert F.left_limit(x) == pytest.approx(np.mean(vals < x), abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.integers(1, 100))
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_generalized_inverse(self, xs, k):
        F = ecdf_build(Sample(np.asarray(xs)))
        tau = k / 100
        q = F.quantile(tau)
        assert F(q) >= tau
        # q is the smallest such jump point
        below = F.jump_points[F.jump_points < q]
        if below.size:
            assert F(below[-1]) < tau


class TestStepCDFValidation:
    def test_requires_increasing_jumps(self):
        with pytest.raises(ValueError):
            StepCDF(np.array([1.0, 1.0]), np.array([0.5, 1.0]))

    def test_requires_terminal_one(self):
        with pytest.raises(ValueError):
            StepCDF(np.array([1.0, 2.0]), np.array([0.3, 0.9]))

    def test_snaps_terminal_within_tolerance(self):
        F = StepCDF(np.array([0.0]), np.array([1.0 - 1e-13]))
        assert F.cum_probs[-1] == 1.0

    def test_quantile_rejects_nan_level(self):
        F = ecdf_build(Sample(np.array([3.0, 1.0])))
        for tau in (float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
                F.quantile(tau)

    def test_cum0_is_read_only(self):
        F = ecdf_build(Sample(np.array([3.0, 1.0])))
        assert_array_equal(F.cum0, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            F.cum0[0] = 1.0


class TestWeightedEcdf:
    def test_identity_weights_recover_ecdf(self):
        vals = np.array([2.0, 0.0, 2.0, 5.0])
        F = weighted_ecdf(vals, np.ones(4))
        G = ecdf_build(Sample(vals))
        assert_array_equal(F.jump_points, G.jump_points)
        assert_allclose(F.cum_probs, G.cum_probs)

    def test_zero_weight_drops_point(self):
        F = weighted_ecdf(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]))
        assert_array_equal(F.jump_points, [0.0, 2.0])
        assert_allclose(F.cum_probs, [0.5, 1.0])

    def test_degenerate_mass(self):
        F = weighted_ecdf(np.array([0.0, 7.0]), np.array([0.0, 2.0]))
        assert_array_equal(F.jump_points, [7.0])
        assert F(7.0) == 1.0 and F(6.9) == 0.0

    def test_random_weights_match_counting_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            vals = rng.integers(0, 6, size=12).astype(float)  # force ties
            w = rng.exponential(size=12)
            F = weighted_ecdf(vals, w)
            for x in np.linspace(-1, 6, 29):
                expect = w[vals <= x].sum() / w.sum()
                assert F(x) == pytest.approx(expect, abs=1e-12)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            weighted_ecdf(np.array([1.0]), np.array([-1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_ecdf(np.array([1.0, 2.0]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            weighted_ecdf(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_rejects_overflowing_total(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite total"):
            weighted_ecdf(np.array([1.0, 2.0]), np.array([1e308, 1e308]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            weighted_ecdf(np.array([1.0, bad]), np.array([1.0, 1.0]))


def _outcome(path, column):
    """Values as float.hex (so -0.0 counts) or the CsvParseError message."""
    try:
        return [v.hex() for v in load_sample_csv(path, column=column).values.tolist()]
    except CsvParseError as exc:
        return str(exc)


# Cells the two readers could read differently: float spellings only
# Python's float accepts, values that overflow or are not finite, comment
# and quote characters, padding, and quoted commas and line breaks.
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NUMBERS = st.one_of(
    _FINITE,
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0.0", "+.5", "1e-320", "2E3", "1e500", "-1e500", "inf", "-Infinity",
                     "nan", "1_000", "\uff11", "0x10"]),
)
_CELLS = st.one_of(
    _FINITE,
    _FINITE,
    _FINITE,
    _FINITE,
    _NUMBERS,
    _NUMBERS.map(lambda c: f'"{c}"'),
    _NUMBERS.map(lambda c: f" {c}\t"),
    _NUMBERS.map(lambda c: f"\xa0{c}"),
    _NUMBERS.map(lambda c: f"#{c}"),
    st.sampled_from(["", " ", "\t", "value", "x", "#", "#1", "# 2", '""', '"1,5"', '" 2.5 "',
                     ' "1.5"', '"1.5" ', '1.5"', '"a""b"', '"3\n"', '"v\r\nw"', '"\n4"']),
)


@st.composite
def csv_files(draw):
    """CSV text, with a column to select: None, an index, a string of digits
    or a header name."""
    width = draw(st.integers(1, 3))
    header = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["value", "x", "y z", '"q,r"', "1", "#"]),
                          min_size=width, max_size=width))
    rows = [",".join(names)] if header else []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["cells"] * 6 + ["ragged", "empty", "blank"]))
        if kind == "empty":
            rows.append("")
        elif kind == "blank":
            rows.append(draw(st.sampled_from([" ", "\t", " , ", ","])))
        else:
            n = draw(st.integers(1, width)) if kind == "ragged" else width
            rows.append(",".join(draw(st.lists(_CELLS, min_size=n, max_size=n))))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(["", " ", ","])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(rows), max_size=len(rows)))
    text = "".join(r + e for r, e in zip(rows, ends))
    if rows and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line break at the end
    if draw(st.booleans()):
        text = "\ufeff" + text
    column = draw(st.one_of(st.none(), st.integers(0, width), st.integers(0, width).map(str),
                            st.sampled_from([n.strip('"') for n in names])))
    return text, column


class TestCsvLoading:
    def test_plain_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.5\n2.5\n-3\n")
        s = load_sample_csv(p)
        assert_array_equal(s.values, [1.5, 2.5, -3.0])

    def test_header_by_name(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("y,earnings\n0,100\n1,250.5\n")
        s = load_sample_csv(p, column="earnings")
        assert_array_equal(s.values, [100.0, 250.5])

    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("value\n3\n4\n")
        assert_array_equal(load_sample_csv(p).values, [3.0, 4.0])

    def test_bad_cell_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1\n2\noops\n4\n")
        with pytest.raises(CsvParseError, match=r"d\.csv:3"):
            load_sample_csv(p)

    def test_non_finite_cell_reports_line(self, tmp_path):
        for cell, line in (("nan", 2), ("inf", 3), ("-Infinity", 1)):
            p = tmp_path / "f.csv"
            rows = ["1", "2", "4"]
            rows[line - 1] = cell
            p.write_text("\n".join(rows) + "\n")
            with pytest.raises(CsvParseError, match=rf"f\.csv:{line}: not a finite number: '{cell}'"):
                load_sample_csv(p)

    def test_missing_column_name(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(CsvParseError, match="not found"):
            load_sample_csv(p, column="z")

    def test_index_string_on_headerless_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("1,10\n2,20\n3,30\n")
        assert_array_equal(load_sample_csv(p, column="1").values, [10.0, 20.0, 30.0])
        assert_array_equal(load_sample_csv(p, column=1).values, [10.0, 20.0, 30.0])

    def test_index_string_on_headed_file(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("y,earnings\n0,100\n1,250.5\n")
        assert_array_equal(load_sample_csv(p, column="1").values, [100.0, 250.5])
        assert_array_equal(load_sample_csv(p, column="0").values, [0.0, 1.0])

    def test_header_name_beats_index(self, tmp_path):
        p = tmp_path / "i.csv"
        p.write_text("1,x\n5,7\n6,8\n")
        assert_array_equal(load_sample_csv(p, column="1").values, [5.0, 6.0])
        assert_array_equal(load_sample_csv(p, column="x").values, [7.0, 8.0])

    def test_non_index_string_not_in_header(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_text("1,10\n2,20\n")
        for column in ("-1", "1.0", "z"):
            with pytest.raises(CsvParseError, match="not found"):
                load_sample_csv(p, column=column)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sample_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("row_loop", [False, True], ids=["c-reader", "row-loop"])
    @pytest.mark.parametrize("text, column, want", [
        pytest.param("1.5\n2.5\n3.5\n", None, [1.5, 2.5, 3.5], id="headerless"),
        pytest.param("value,other\n1.5,9\n2.5,9\n", "value", [1.5, 2.5], id="header-by-name"),
    ])
    def test_byte_order_mark(self, tmp_path, monkeypatch, row_loop, text, column, want):
        if row_loop:
            monkeypatch.setattr(empirical, "_c_column", lambda text, col_idx, skip: None)
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert_array_equal(load_sample_csv(p, column=column).values, want)

    # ``want`` is the loaded column, or the tail of the CsvParseError message
    @pytest.mark.parametrize("text, column, fast, want", [
        pytest.param("1.5\n\n2.5\n\n\n-3\n", None, True, [1.5, 2.5, -3.0], id="blank-lines"),
        pytest.param("1.5\n  \n2.5\n\t,  \n-3\n", None, False, [1.5, 2.5, -3.0],
                     id="whitespace-only-lines"),
        pytest.param("value\n3\n\n4\n", None, True, [3.0, 4.0], id="header"),
        pytest.param("y,earnings\n0,100\n\n1,250.5\n", "1", True, [100.0, 250.5],
                     id="index-past-header"),
        pytest.param("9,1.5\n9, 2.5 \n9,-3\n", 1, True, [1.5, 2.5, -3.0], id="index-padded-cells"),
        pytest.param("1_000\n2e3\n-0.0\n", None, False, [1000.0, 2000.0, -0.0],
                     id="float-spellings"),
        pytest.param("2e3\n-0.0\n.5\n", None, True, [2000.0, -0.0, 0.5], id="c-float-spellings"),
        pytest.param('"1.5"\r\n"2,5",x\r\n', 0, False, ":2: not a number: '2,5'", id="quoted-comma"),
        pytest.param("1,#\n#2\n3\n", 0, False, ":2: not a number: '#2'", id="comment-cell"),
        pytest.param("1\n2\n", str(10**20), False, f":2: missing column {10**20}",
                     id="index-past-any-row"),
        pytest.param('"a\nb",v\r"1.5",2\r\n3,"4"\n', "v", True, [2.0, 4.0],
                     id="quoted-cells-and-newlines"),
    ])
    def test_fast_and_checked_paths_agree(self, tmp_path, monkeypatch, text, column, fast, want):
        p = tmp_path / "k.csv"
        p.write_text(text, newline="")
        taken = []

        def c_column(text, col_idx, skip):
            values = c_column_impl(text, col_idx, skip)
            taken.append(values is not None)
            return values

        c_column_impl = empirical._c_column
        monkeypatch.setattr(empirical, "_c_column", c_column)
        got = _outcome(p, column)
        assert taken == [fast]
        if isinstance(want, list):
            assert got == [v.hex() for v in want]  # -0.0 too
        else:
            assert isinstance(got, str) and got.endswith(want), got
        monkeypatch.setattr(empirical, "_c_column", lambda text, col_idx, skip: None)
        assert got == _outcome(p, column)

    def test_header_without_rows(self, tmp_path, monkeypatch, recwarn):
        p = tmp_path / "l.csv"
        p.write_text("value\n\n\r\n")
        monkeypatch.setattr(empirical, "_c_column", mock.Mock(side_effect=empirical._c_column))
        with pytest.raises(CsvParseError, match=r"l\.csv: no numeric rows"):
            load_sample_csv(p)
        empirical._c_column.assert_not_called()  # numpy would warn of no data
        assert not recwarn.list

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reopens a pipe by /dev/fd")
    def test_pipe_path(self, tmp_path):
        # more than one 8 KiB read: a second open of the path would start
        # mid-stream, after what the first read took
        values = [i / 8 - 300.0 for i in range(4000)]
        data = ("value\n" + "".join(f"{v!r}\n" for v in values)).encode()
        assert 8192 < len(data) < 65536  # fits the pipe's buffer, so no writer thread
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            w = None
            got = load_sample_csv(f"/dev/fd/{r}").values
        finally:
            os.close(r)
            if w is not None:
                os.close(w)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in values]

    def test_no_decoded_copy_of_the_file(self, tmp_path):
        # two io.StringIO copies of the text (four bytes a character) would
        # peak at about 9.5 times a 1e5-row file's size
        values = np.random.default_rng(0).normal(size=100_000)
        p = tmp_path / "big.csv"
        p.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        tracemalloc.start()
        try:
            got = load_sample_csv(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.values.tobytes() == values.tobytes()
        assert peak < 3 * p.stat().st_size, (peak, p.stat().st_size)

    @given(csv_files())
    @settings(max_examples=400, deadline=None)
    def test_c_reader_matches_row_loop(self, tmp_path_factory, case):
        text, column = case
        p = tmp_path_factory.getbasetemp() / "differential.csv"
        p.write_bytes(text.encode())
        got = _outcome(p, column)
        with mock.patch.object(empirical, "_c_column", return_value=None):
            assert got == _outcome(p, column)

