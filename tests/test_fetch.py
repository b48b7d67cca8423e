import datetime as dt
import errno
import os
import socket

import pytest

import cryptodynamics as cd
from cryptodynamics import fetch
from cryptodynamics.fetch import (
    fetch_daily_history,
    fetch_dataset,
    history_url,
    parse_history_csv,
)

START = dt.date(2019, 6, 1)
END = dt.date(2019, 6, 5)

BTC_CSV = """\
date,close,market_cap
2019-06-01,100.0,2000.0
2019-06-02,101.5,2030.0
2019-06-03,99.25,1985.0
2019-06-04,102.0,2040.0
2019-06-05,103.0,2060.0
"""

# ETH has no row for June 3rd; the assembled panel gets blank cells there
ETH_CSV = """\
date,close,market_cap
2019-06-01,10.0,400.0
2019-06-02,10.2,408.0
2019-06-04,10.4,416.0
2019-06-05,10.5,420.0
"""


def template(base):
    return base + "/hist/{ticker}.csv?from={start}&to={end}"


def test_history_url_fills_placeholders():
    url = history_url("https://api.example/v1/{ticker}?a={start}&b={end}",
                      "BTC", START, END)
    assert url == "https://api.example/v1/BTC?a=2019-06-01&b=2019-06-05"


def test_history_url_rejects_unknown_placeholder():
    with pytest.raises(cd.InputError, match="url template"):
        history_url("https://api.example/{symbol}", "BTC", START, END)


def test_fetch_requires_ticker_and_template():
    with pytest.raises(cd.InputError):
        fetch_daily_history("https://api.example/{ticker}", "", START, END)
    with pytest.raises(cd.InputError):
        fetch_daily_history("", "BTC", START, END)


def test_fetch_returns_body_verbatim(local_http):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    payload = fetch_daily_history(template(base), "BTC", START, END)
    assert payload == BTC_CSV.encode("utf-8")


def test_http_error_status_is_reported(local_http):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (503, "upstream down")
    with pytest.raises(cd.TransportError) as info:
        fetch_daily_history(template(base), "BTC", START, END)
    assert info.value.status == 503
    assert "upstream down" in str(info.value)
    assert "/hist/BTC.csv" in info.value.url


def test_missing_route_is_a_404(local_http):
    base, _ = local_http
    with pytest.raises(cd.TransportError) as info:
        fetch_daily_history(template(base), "NOPE", START, END)
    assert info.value.status == 404


def test_connection_failure_has_no_status():
    with socket.socket() as s:  # grab a port that is free, then leave it closed
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    with pytest.raises(cd.TransportError) as info:
        fetch_daily_history(f"http://127.0.0.1:{port}/{{ticker}}", "BTC", START, END)
    assert info.value.status is None


def test_parse_history_rows():
    rows = parse_history_csv(BTC_CSV, "BTC")
    assert len(rows) == 5
    assert rows[0] == (dt.date(2019, 6, 1), 100.0, 2000.0)
    assert rows[-1] == (dt.date(2019, 6, 5), 103.0, 2060.0)


def test_parse_history_accepts_mixed_case_header_and_blank_lines():
    text = "Date,Close,MARKET_CAP\n\n2019-06-01,1.0,2.0\n  ,  ,\n"
    assert parse_history_csv(text) == [(dt.date(2019, 6, 1), 1.0, 2.0)]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty response"),
    pytest.param('date,close,market_cap\n2019-06-01,"' + "1" * 140_000 + '",2.0\n',
                 "line 2: field larger than field limit", id="over-long-quoted-cell"),
    ("date,price,market_cap\n", "expected header"),
    ("date,close,market_cap\n2019-06-01,1.0\n", "expected 3 cells"),
    ("date,close,market_cap\n2019-06-01,abc,2.0\n", "line 2"),
    ("date,close,market_cap\nJune 1st,1.0,2.0\n", "line 2"),
])
def test_parse_history_rejects_malformed_payloads(text, fragment):
    with pytest.raises(cd.SchemaError, match=fragment):
        parse_history_csv(text, "BTC")


def test_parse_history_rejects_a_repeated_date():
    text = "date,close,market_cap\n2021-01-01,1,2\n2021-01-01,3,4\n"
    with pytest.raises(cd.SchemaError, match="^BTC: line 3: duplicate date 2021-01-01$"):
        parse_history_csv(text, "BTC")


def test_fetch_dataset_assembles_union_of_dates(local_http, tmp_path):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    routes["/hist/ETH.csv"] = (200, ETH_CSV)
    price = tmp_path / "price.csv"
    caps = tmp_path / "marketcap.csv"
    raw = tmp_path / "raw"

    dates = fetch_dataset(template(base), ["BTC", "ETH"], START, END,
                          price, caps, raw_dir=raw)
    assert dates == [START + dt.timedelta(days=k) for k in range(5)]
    assert (raw / "BTC.csv").read_text() == BTC_CSV
    assert (raw / "ETH.csv").read_text() == ETH_CSV

    lines = price.read_text().splitlines()
    assert lines[0] == "date,BTC,ETH"
    assert lines[3] == "2019-06-03,99.25,"  # ETH's gap becomes a blank cell

    # the loader's drop policy turns the blank cells into a dropped asset
    panel, drops = cd.load_panel_with_report(price, caps, START, END)
    assert panel.tickers == ["BTC"]
    (drop,) = drops
    assert drop.ticker == "ETH"
    assert drop.first_missing_date == dt.date(2019, 6, 3)


def test_history_url_rejects_malformed_template():
    for url_template in ("http://h/{ticker", "http://h/{ticker!z}", "http://h/{ticker.x}",
                         "http://h/{ticker[a]}"):
        with pytest.raises(cd.InputError, match="bad url template"):
            history_url(url_template, "BTC", START, END)


def test_payloads_decode_as_utf8_and_raw_files_keep_their_bytes(local_http, tmp_path):
    # Served as text/csv without a charset, which requests alone would
    # decode as ISO-8859-1: the BOM and the no-break spaces (which strip()
    # and float() drop) would then come out as other characters.
    base, routes = local_http
    btc = ("\ufeffdate,close,market_cap\u00a0\n2019-06-01,100.0,2000.0\n"
           "2019-06-02,\u00a0101.5,2030.0\n").encode("utf-8")
    eth = "date,close,market_cap\n2019-06-01,10.0,400.0\n2019-06-02,\u00e9,408.0\n"
    routes["/hist/BTC.csv"] = (200, btc)
    routes["/hist/ETH.csv"] = (200, eth.encode("latin-1"))
    raw = tmp_path / "raw"
    dates = fetch_dataset(template(base), ["BTC"], START, START + dt.timedelta(days=1),
                          tmp_path / "price.csv", tmp_path / "marketcap.csv", raw_dir=raw)
    assert dates == [START, START + dt.timedelta(days=1)]
    assert (raw / "BTC.csv").read_bytes() == btc
    assert (tmp_path / "price.csv").read_text().splitlines() == [
        "date,BTC", "2019-06-01,100.0", "2019-06-02,101.5"]
    assert (tmp_path / "marketcap.csv").read_text().splitlines() == [
        "date,BTC", "2019-06-01,2000.0", "2019-06-02,2030.0"]

    with pytest.raises(cd.SchemaError, match="^ETH: not UTF-8 text"):
        fetch_dataset(template(base), ["ETH"], START, END,
                      tmp_path / "price.csv", tmp_path / "marketcap.csv", raw_dir=raw)
    assert (raw / "ETH.csv").read_bytes() == eth.encode("latin-1")


def test_fetch_dataset_needs_tickers(tmp_path):
    with pytest.raises(cd.InputError):
        fetch_dataset("http://x/{ticker}", [], START, END,
                      tmp_path / "p.csv", tmp_path / "c.csv")


def test_a_failed_write_leaves_the_previous_panel_pair(local_http, tmp_path, monkeypatch):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    routes["/hist/ETH.csv"] = (200, ETH_CSV)
    price, caps = tmp_path / "price.csv", tmp_path / "marketcap.csv"
    fetch_dataset(template(base), ["BTC"], START, END, price, caps)
    before = price.read_bytes(), caps.read_bytes()

    class DiskFull:
        """A file whose second write fails, as on a full disk."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

    opened = []

    def second_file_fails(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return DiskFull(opened[-1]) if len(opened) == 2 else opened[-1]

    monkeypatch.setattr(fetch, "open", second_file_fails, raising=False)
    with pytest.raises(OSError, match="No space left"):
        fetch_dataset(template(base), ["BTC", "ETH"], START, END, price, caps)
    assert len(opened) == 2
    assert (price.read_bytes(), caps.read_bytes()) == before
    assert sorted(os.listdir(tmp_path)) == ["marketcap.csv", "price.csv"]
