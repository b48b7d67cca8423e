import csv
import datetime as dt
import io
import json
import os
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryptodynamics as cd
from cryptodynamics.exports import write_drop_report

import reference

PRICE = """date,AAA,BBB,CCC
2020-01-01,10.0,5.0,1.0
2020-01-02,11.0,4.5,1.1
2020-01-03,10.5,4.8,1.2
"""

CAP = """date,AAA,BBB,CCC
2020-01-01,100.0,50.0,10.0
2020-01-02,110.0,45.0,11.0
2020-01-03,105.0,48.0,12.0
"""

JAN1 = dt.date(2020, 1, 1)
JAN3 = dt.date(2020, 1, 3)


def files(tmp_path, price=PRICE, cap=CAP):
    p = tmp_path / "price.csv"
    c = tmp_path / "marketcap.csv"
    p.write_text(price, encoding="utf-8", newline="")
    c.write_text(cap, encoding="utf-8", newline="")
    return p, c


def test_load_basic(tmp_path):
    p, c = files(tmp_path)
    panel = cd.load_panel_with_report(p, c, JAN1, JAN3)[0]
    assert panel.tickers == ("AAA", "BBB", "CCC")
    assert panel.n_days == 3
    assert panel.dates[0] == JAN1 and panel.dates[-1] == JAN3
    np.testing.assert_array_equal(panel.closes[0], [10.0, 11.0, 10.5])
    np.testing.assert_array_equal(panel.market_caps[2], [10.0, 11.0, 12.0])


def test_load_subrange(tmp_path):
    p, c = files(tmp_path)
    panel = cd.load_panel_with_report(p, c, dt.date(2020, 1, 2), JAN3)[0]
    assert panel.n_days == 2
    np.testing.assert_array_equal(panel.closes[1], [4.5, 4.8])


def test_column_order_follows_price_header(tmp_path):
    cap = "date,CCC,AAA,BBB\n2020-01-01,10.0,100.0,50.0\n"
    price = "date,AAA,BBB,CCC\n2020-01-01,10.0,5.0,1.0\n"
    p, c = files(tmp_path, price, cap)
    panel = cd.load_panel_with_report(p, c, JAN1, JAN1)[0]
    assert panel.tickers == ("AAA", "BBB", "CCC")
    np.testing.assert_array_equal(panel.market_caps[:, 0], [100.0, 50.0, 10.0])


def test_round_trip_is_bit_exact(tmp_path, small_panel):
    p1 = tmp_path / "p1.csv"
    c1 = tmp_path / "c1.csv"
    cd.write_panel(small_panel, p1, c1)
    again = cd.load_panel_with_report(p1, c1, small_panel.dates[0], small_panel.dates[-1])[0]
    np.testing.assert_array_equal(again.closes, small_panel.closes)
    np.testing.assert_array_equal(again.market_caps, small_panel.market_caps)
    assert again.dates == small_panel.dates
    assert again.tickers == small_panel.tickers
    p2 = tmp_path / "p2.csv"
    c2 = tmp_path / "c2.csv"
    cd.write_panel(again, p2, c2)
    assert p1.read_bytes() == p2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()


def test_a_failed_write_leaves_the_previous_panel_pair(tmp_path, small_panel,
                                                       second_panel_file_fails):
    p, c = tmp_path / "price.csv", tmp_path / "marketcap.csv"
    p.write_text("date,AAA\n")
    c.write_text("date,AAA\n")
    with pytest.raises(OSError, match="No space left"):
        cd.write_panel(small_panel, p, c)
    assert len(second_panel_file_fails) == 2
    assert (p.read_text(), c.read_text()) == ("date,AAA\n", "date,AAA\n")
    assert sorted(os.listdir(tmp_path)) == ["marketcap.csv", "price.csv"]


def test_the_pair_writer_writes_a_nan_cell_blank(tmp_path):
    from cryptodynamics.panel import _write_pair

    p, c = tmp_path / "price.csv", tmp_path / "marketcap.csv"
    _write_pair(p, c, [JAN1, JAN1 + dt.timedelta(days=1)], ["AAA", "B,B"],
                np.array([[1.5, np.nan], [0.1, 2.0]]), np.array([[np.nan, 3.0], [4.0, 5.0]]))
    assert p.read_bytes() == b'date,AAA,"B,B"\r\n2020-01-01,1.5,0.1\r\n2020-01-02,,2.0\r\n'
    assert c.read_bytes() == b'date,AAA,"B,B"\r\n2020-01-01,,4.0\r\n2020-01-02,3.0,5.0\r\n'
    assert sorted(os.listdir(tmp_path)) == ["marketcap.csv", "price.csv"]


def test_drop_missing_cap_column(tmp_path):
    cap = "\n".join(line.rsplit(",", 1)[0] for line in CAP.splitlines()) + "\n"
    p, c = files(tmp_path, PRICE, cap)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert panel.tickers == ("AAA", "BBB")
    assert len(drops) == 1
    assert drops[0].ticker == "CCC"
    assert drops[0].reason == "missing market-cap column"
    assert drops[0].first_missing_date == JAN1


def test_cap_column_without_a_price_column_is_reported(tmp_path):
    # Cap-only columns follow the price-header drops, in cap-header order.
    price = ("date,AAA,BBB\n"
             "2020-01-01,10.0,5.0\n"
             "2020-01-02,11.0,\n"
             "2020-01-03,10.5,4.8\n")
    cap = ("date,EEE,AAA,BBB,CCC\n"
           "2020-01-01,1.0,100.0,50.0,10.0\n"
           "2020-01-02,1.0,110.0,45.0,11.0\n"
           "2020-01-03,1.0,105.0,48.0,12.0\n")
    p, c = files(tmp_path, price, cap)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert panel.tickers == ("AAA",)
    expected = [("BBB", "missing value", dt.date(2020, 1, 2)),
                ("EEE", "missing price column", JAN1),
                ("CCC", "missing price column", JAN1)]
    assert [(d.ticker, d.reason, d.first_missing_date) for d in drops] == expected
    assert reference.load_reference(p, c, JAN1, JAN3)[4] == expected


def test_drop_missing_value_records_first_bad_day(tmp_path):
    price = PRICE.replace("2020-01-02,11.0,4.5,1.1", "2020-01-02,11.0,,1.1")
    p, c = files(tmp_path, price)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert panel.tickers == ("AAA", "CCC")
    assert [(d.ticker, d.reason, d.first_missing_date) for d in drops] == [
        ("BBB", "missing value", dt.date(2020, 1, 2))
    ]


def test_drop_non_positive_close(tmp_path):
    price = PRICE.replace("10.5,4.8,1.2", "10.5,0.0,1.2")
    p, c = files(tmp_path, price)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert panel.tickers == ("AAA", "CCC")
    assert drops[0].reason == "non-positive close"
    assert drops[0].first_missing_date == JAN3


def test_drop_negative_market_cap(tmp_path):
    cap = CAP.replace("110.0,45.0,11.0", "110.0,-45.0,11.0")
    p, c = files(tmp_path, PRICE, cap)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert panel.tickers == ("AAA", "CCC")
    assert drops[0].reason == "negative market cap"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_drop_non_finite_value(tmp_path, cell):
    cap = CAP.replace("110.0,45.0,11.0", f"110.0,45.0,{cell}")
    p, c = files(tmp_path, PRICE, cap)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert panel.tickers == ("AAA", "BBB")
    assert [(d.ticker, d.reason, d.first_missing_date) for d in drops] == [
        ("CCC", "non-finite value", dt.date(2020, 1, 2))
    ]


def test_nan_close_is_dropped_and_reported_by_the_cli(tmp_path, small_dataset_dir):
    from cryptodynamics.cli import main

    data = tmp_path / "data"
    data.mkdir()
    lines = (small_dataset_dir / "price.csv").read_text().splitlines()
    ticker = lines[0].split(",")[2]
    row = next(k for k, line in enumerate(lines) if line.startswith("2019-08-15,"))
    cells = lines[row].split(",")
    cells[2] = "nan"
    lines[row] = ",".join(cells)
    (data / "price.csv").write_text("\n".join(lines) + "\n")
    (data / "marketcap.csv").write_bytes((small_dataset_dir / "marketcap.csv").read_bytes())
    out = tmp_path / "out"
    code = main(["all", "--data-dir", str(data), "--out-dir", str(out),
                 "--from", "2019-06-01", "--to", "2019-12-31",
                 "--correlation-days", "30", "--spectral-days", "30",
                 "--inconsistency-days", "30", "--volatility-days", "30",
                 "--sg-window", "11", "--tp-l", "5"])
    assert code == 0
    report = json.loads((out / "drop_report.json").read_text())
    assert report == [{"ticker": ticker, "reason": "non-finite value",
                       "first_missing_date": "2019-08-15"}]


def test_empty_panel_raises(tmp_path):
    price = "date,AAA\n2020-01-01,\n"
    cap = "date,AAA\n2020-01-01,1.0\n"
    p, c = files(tmp_path, price, cap)
    with pytest.raises(cd.EmptyPanelError):
        cd.load_panel_with_report(p, c, JAN1, JAN1)


def test_missing_day_raises_gap_error(tmp_path):
    price = PRICE.replace("2020-01-02,11.0,4.5,1.1\n", "")
    cap = CAP.replace("2020-01-02,110.0,45.0,11.0\n", "")
    p, c = files(tmp_path, price, cap)
    with pytest.raises(cd.GapError) as exc:
        cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert exc.value.missing_dates == [dt.date(2020, 1, 2)]


def test_a_gap_error_shows_the_first_ten_missing_dates():
    missing = [dt.date(2020, 1, 1) + dt.timedelta(days=2 * k) for k in range(11)]
    shown = "date axis is not contiguous; missing: " + ", ".join(map(str, missing[:10]))
    assert str(cd.GapError(missing[:10])) == shown
    assert str(cd.GapError(missing)) == shown + " (+1 more)"
    assert cd.GapError(missing).missing_dates == missing


def test_parse_error_names_row_and_column(tmp_path):
    price = PRICE.replace("11.0,4.5", "11.0,oops")
    p, c = files(tmp_path, price)
    with pytest.raises(cd.ParseError) as exc:
        cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert exc.value.row == 3
    assert exc.value.column == "BBB"


def test_malformed_cell_outside_the_range_is_not_read(tmp_path):
    price = PRICE.replace("11.0,4.5", "11.0,oops")
    p, c = files(tmp_path, price)
    panel = cd.load_panel_with_report(p, c, JAN3, JAN3)[0]
    np.testing.assert_array_equal(panel.closes[:, 0], [10.5, 4.8, 1.2])
    with pytest.raises(cd.ParseError) as exc:
        cd.load_panel_with_report(p, c, dt.date(2020, 1, 2), JAN3)
    assert (exc.value.row, exc.value.column) == (3, "BBB")


@pytest.mark.parametrize("bad_row", [
    "2020-13-01,1.0,1.0,1.0",       # the date does not parse
    "2020-01-01,1.0,1.0,1.0",       # a duplicate of row 2
    "2020-01-04,1.0,1.0",           # one cell short
], ids=["bad-date", "duplicate-date", "cell-count"])
def test_row_structure_is_checked_outside_the_range(tmp_path, bad_row):
    p, c = files(tmp_path, PRICE + bad_row + "\n")
    with pytest.raises(cd.ParseError) as exc:
        cd.load_panel_with_report(p, c, JAN3, JAN3)
    assert exc.value.row == 5
    assert exc.value.column == "date"


@pytest.mark.parametrize("written", ["20200102", "2020-W01-4", "2020W014", "2020-01-2"])
def test_a_date_not_written_yyyy_mm_dd_is_a_parse_error(tmp_path, written):
    # From Python 3.11 on date.fromisoformat reads the first three as
    # 2020-01-02; the loader reads them on no version.
    p, c = files(tmp_path, PRICE.replace("2020-01-02", written))
    with pytest.raises(cd.ParseError, match=f"row 3, column 'date': "
                                            f"Invalid isoformat string: '{written}'$"):
        cd.load_panel_with_report(p, c, JAN1, JAN3)


@pytest.mark.parametrize("bound", ["20200101", "2020-W01-3"])
def test_a_bound_not_written_yyyy_mm_dd_is_an_input_error(tmp_path, bound):
    p, c = files(tmp_path)
    with pytest.raises(cd.InputError, match=f"^bad date '{bound}': Invalid isoformat"):
        cd.load_panel_with_report(p, c, bound, JAN3)


def test_a_quoted_field_may_not_run_onto_the_next_line(tmp_path):
    # The csv module would join rows 3 and 4 into one record whose BBB cell
    # is "4.5\n"; the loader reads one line at a time and names the row,
    # even outside the range, as it does every structural fault.
    price = PRICE.replace("11.0,4.5,", '11.0,"4.5\n",')
    p, c = files(tmp_path, price)
    with pytest.raises(cd.ParseError) as exc:
        cd.load_panel_with_report(p, c, JAN3, JAN3)
    assert exc.value.row == 3
    assert "runs onto the next line" in str(exc.value)


def test_a_quoted_field_over_the_csv_limit_is_a_parse_error(tmp_path):
    # csv.field_size_limit() is 131,072 characters by default.
    for row, price in ((4, PRICE.replace("10.5,", '"' + "1" * 140_000 + '",')),
                       (1, PRICE.replace("AAA", '"' + "A" * 140_000 + '"'))):
        p, c = files(tmp_path, price)
        with pytest.raises(cd.ParseError) as exc:
            cd.load_panel_with_report(p, c, JAN1, JAN3)
        assert (exc.value.path, exc.value.row, exc.value.column) == (p, row, "")
        assert "field larger than field limit" in str(exc.value)


@pytest.mark.parametrize("where", ["header", "row"])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_it(tmp_path, where):
    p, c = files(tmp_path)
    old = b"BBB" if where == "header" else b"48.0"
    c.write_bytes(c.read_bytes().replace(old, "\u00e9".encode("latin-1")))
    with pytest.raises(cd.InputError) as exc:
        cd.load_panel_with_report(p, c, JAN1, JAN3)
    assert str(exc.value) == f"{c}: not UTF-8 text: invalid continuation byte (byte 0xe9)"


class _Timestamp(dt.datetime):
    """A datetime subclass, as pandas.Timestamp is."""


@pytest.mark.parametrize("start, end", [
    (dt.datetime(2020, 1, 1), JAN3),
    (JAN1, _Timestamp(2020, 1, 3)),
    ("2020-01-01T00:00", JAN3),
], ids=["datetime", "timestamp", "iso-with-time"])
def test_a_bound_with_a_time_is_an_input_error(tmp_path, start, end):
    p, c = files(tmp_path)
    with pytest.raises(cd.InputError, match="bad date"):
        cd.load_panel_with_report(p, c, start, end)


def test_a_range_decades_past_the_file_is_a_gap_error(tmp_path):
    p, c = files(tmp_path)
    end = dt.date(2080, 12, 31)
    with pytest.raises(cd.GapError) as exc:
        cd.load_panel_with_report(p, c, JAN1, end)
    first = dt.date(2020, 1, 4)
    assert exc.value.missing_dates == [first + dt.timedelta(days=k)
                                       for k in range((end - first).days + 1)]


def test_byte_order_mark_is_accepted(tmp_path):
    plain = cd.load_panel_with_report(*files(tmp_path), JAN1, JAN3)[0]
    bom = tmp_path / "bom"
    bom.mkdir()
    p, c = files(bom)
    p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    panel = cd.load_panel_with_report(p, c, JAN1, JAN3)[0]
    assert panel.tickers == plain.tickers
    np.testing.assert_array_equal(panel.closes, plain.closes)
    np.testing.assert_array_equal(panel.market_caps, plain.market_caps)


def test_reason_priority_on_a_day_with_several_faults(tmp_path):
    # On 2020-01-02 AAA is missing, non-finite and negative-cap at once, BBB
    # non-finite, non-positive and negative-cap, CCC non-positive and
    # negative-cap, DDD negative-cap. On 2020-01-03 each of them misses its
    # close, the top-priority reason, which must not win over the earlier day.
    price = ("date,AAA,BBB,CCC,DDD,EEE\n"
             "2020-01-01,1.0,1.0,1.0,1.0,1.0\n"
             "2020-01-02,,-inf,0.0,1.0,1.0\n"
             "2020-01-03,,,,,1.0\n")
    cap = ("date,EEE,DDD,CCC,BBB,AAA\n"
           "2020-01-01,1.0,1.0,1.0,1.0,1.0\n"
           "2020-01-02,1.0,-5.0,-5.0,-5.0,-inf\n"
           "2020-01-03,1.0,1.0,1.0,1.0,1.0\n")
    p, c = files(tmp_path, price, cap)
    panel, drops = cd.load_panel_with_report(p, c, JAN1, JAN3)
    day2 = dt.date(2020, 1, 2)
    expected = [("AAA", "missing value", day2), ("BBB", "non-finite value", day2),
                ("CCC", "non-positive close", day2), ("DDD", "negative market cap", day2)]
    assert [(d.ticker, d.reason, d.first_missing_date) for d in drops] == expected
    assert reference.load_reference(p, c, JAN1, JAN3)[4] == expected
    assert panel.tickers == ("EEE",)


def test_duplicate_date_rejected(tmp_path):
    price = PRICE + "2020-01-03,1.0,1.0,1.0\n"
    p, c = files(tmp_path, price)
    with pytest.raises(cd.ParseError):
        cd.load_panel_with_report(p, c, JAN1, JAN3)


def test_header_must_start_with_date(tmp_path):
    p, c = files(tmp_path, PRICE.replace("date,", "day,"))
    with pytest.raises(cd.ParseError):
        cd.load_panel_with_report(p, c, JAN1, JAN3)


def test_drop_report_serialization(tmp_path):
    from cryptodynamics.panel import DropRecord
    drops = [DropRecord("ZZZ", "missing value", JAN1)]
    out = tmp_path / "drops.json"
    write_drop_report(drops, out)
    data = json.loads(out.read_text())
    assert data == [{"ticker": "ZZZ", "reason": "missing value",
                     "first_missing_date": "2020-01-01"}]
    # every JSON output is indented by 2 with sorted keys
    assert out.read_text() == ('[\n  {\n    "first_missing_date": "2020-01-01",\n'
                               '    "reason": "missing value",\n    "ticker": "ZZZ"\n  }\n]\n')


def test_panel_rejects_gapped_dates():
    dates = (JAN1, dt.date(2020, 1, 3))
    tickers = ("AAA",)
    with pytest.raises(cd.GapError):
        cd.PricePanel(dates, tickers, np.ones((1, 2)), np.ones((1, 2)))


def test_panel_rejects_duplicate_tickers():
    tickers = ("AAA", "AAA")
    dates = (JAN1,)
    with pytest.raises(cd.InputError):
        cd.PricePanel(dates, tickers, np.ones((2, 1)), np.ones((2, 1)))


def test_panels_reject_an_empty_ticker_and_carry_a_ticker_tuple():
    with pytest.raises(cd.InputError, match="ticker must be non-empty"):
        cd.PricePanel((JAN1,), ("AAA", ""), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(cd.InputError, match="ticker must be non-empty"):
        cd.ReturnsPanel((JAN1,), ("AAA", ""), np.zeros((2, 1)), np.ones((2, 1)))
    panel = cd.PricePanel((JAN1, JAN1 + dt.timedelta(days=1)), ["AAA", "BBB"],
                          np.ones((2, 2)), np.ones((2, 2)))
    assert panel.tickers == ("AAA", "BBB")
    assert cd.log_returns(panel).tickers == ("AAA", "BBB")


def test_panel_rejects_non_positive_close():
    tickers = ("AAA",)
    with pytest.raises(cd.InputError):
        cd.PricePanel((JAN1,), tickers, np.zeros((1, 1)), np.ones((1, 1)))


def test_default_periods_skip_leap_day():
    periods = cd.default_periods()
    assert [p.label for p in periods] == ["Pre-COVID", "Peak COVID", "Post-COVID", "Bull", "Bear"]
    leap = dt.date(2020, 2, 29)
    assert all(not (p.start <= leap <= p.end) for p in periods)
    assert periods.periods[0].end == dt.date(2020, 2, 28)
    assert periods.periods[1].start == dt.date(2020, 3, 1)


def test_a_period_may_end_on_its_first_day():
    assert cd.Period("day", JAN1, JAN1).end == JAN1
    with pytest.raises(cd.InputError, match="end before start"):
        cd.Period("back", JAN1, JAN1 - dt.timedelta(days=1))


def test_period_partition_rejects_overlap():
    with pytest.raises(cd.InputError):
        cd.PeriodPartition((
            cd.Period("a", JAN1, dt.date(2020, 1, 5)),
            cd.Period("b", dt.date(2020, 1, 5), dt.date(2020, 1, 9)),
        ))


# Cells the differential test draws: usable numbers, padded numbers, and
# every kind of value that drops an asset. Nothing unparseable, since the
# reference converts every cell of the file.
_NUMBER = st.floats(min_value=1e-6, max_value=1e9).map(repr)
_CLOSE_CELL = st.one_of(_NUMBER, _NUMBER.map(lambda v: f" {v} "),
                        st.sampled_from(["", " ", "nan", "inf", "-inf", "0", "0.0", "-1.5"]))
_CAP_CELL = st.one_of(_NUMBER, st.sampled_from(["", "nan", "-inf", "0", "-0.0", "-2.5"]))


@st.composite
def _files(draw):
    n = draw(st.integers(1, 5))
    days = draw(st.integers(3, 12))
    first = draw(st.integers(1, days - 2))
    last = draw(st.integers(first, days - 2))
    tickers = [f"T{i}" for i in range(n)]
    # None writes cells joined by commas; the csv quoting styles can carry a
    # ticker holding a comma.
    quoting = draw(st.sampled_from([None, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    if quoting is not None and draw(st.booleans()):
        tickers[0] = "T,0"
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    cap_tickers = draw(st.permutations(tickers))
    if n > 1 and draw(st.booleans()):
        cap_tickers = cap_tickers[:-1]
    if draw(st.booleans()):  # a cap column with no price column
        cap_tickers.insert(draw(st.integers(0, len(cap_tickers))), "C0")
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(days)]

    def table(header, cell):
        rows = [[d.isoformat()] + [draw(cell) for _ in header] for d in dates]
        rows = draw(st.permutations(rows))
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [" ", " "])
        if draw(st.integers(0, 9)) == 0:
            # A whitespace date cell with values is not a blank row.
            rows.insert(draw(st.integers(0, len(rows))), [" "] + [draw(cell) for _ in header])
        rows.insert(0, ["date"] + list(header))
        if quoting is None:
            return "".join(",".join(row) + newline for row in rows)
        out = io.StringIO()
        csv.writer(out, quoting=quoting, lineterminator=newline).writerows(rows)
        return out.getvalue()

    return (table(tickers, _CLOSE_CELL), table(cap_tickers, _CAP_CELL),
            dates[first], dates[last])


@settings(max_examples=150, deadline=None)
@given(_files())
def test_loader_matches_the_cell_by_cell_reference(drawn):
    price, cap, start, end = drawn
    with tempfile.TemporaryDirectory() as tmp:
        p, c = files(pathlib.Path(tmp), price, cap)
        try:
            days, kept, closes, caps, ref_drops = reference.load_reference(p, c, start, end)
        except ValueError:  # a row the reference cannot read: a date that does not parse
            with pytest.raises(cd.ParseError):
                cd.load_panel_with_report(p, c, start, end)
            return
        if not kept:
            with pytest.raises(cd.EmptyPanelError):
                cd.load_panel_with_report(p, c, start, end)
            return
        panel, drops = cd.load_panel_with_report(p, c, start, end)
    assert [(d.ticker, d.reason, d.first_missing_date) for d in drops] == ref_drops
    assert panel.dates == tuple(days)
    assert panel.tickers == tuple(kept)
    assert panel.closes.tobytes() == np.array(closes).tobytes()
    assert panel.market_caps.tobytes() == np.array(caps).tobytes()


def test_rows_outside_the_range_cost_no_memory(tmp_path):
    # 1,500 days x 100 assets, of which the last 150 days are loaded. A
    # loader that holds every cell of both files as Python floats peaks at
    # about 17 MiB here, and one that holds every row as a float64 array at
    # about 2.7 MiB. One that converts only the kept rows but stacks them
    # from per-row arrays peaks at 1.0 MiB; writing them straight into the
    # (150, 100) blocks peaks at 0.66-0.69 MiB, mostly the blocks and the
    # masks of the drop checks. The bound leaves 0.16 MiB, more than one
    # 117 KiB float64 block, for numpy and Python versions.
    rng = np.random.default_rng(0)
    n, t = 100, 1500
    dates = tuple(JAN1 + dt.timedelta(days=k) for k in range(t))
    tickers = tuple(f"A{i}" for i in range(n))
    panel = cd.PricePanel(dates, tickers, np.exp(rng.standard_normal((n, t))),
                          np.exp(rng.standard_normal((n, t))))
    p, c = tmp_path / "price.csv", tmp_path / "marketcap.csv"
    cd.write_panel(panel, p, c)
    tracemalloc.start()
    try:
        loaded = cd.load_panel_with_report(p, c, dates[-150], dates[-1])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.closes, panel.closes[:, -150:])
    assert peak < 0.85 * 2**20
