import datetime as dt
import os
import socket
from urllib.parse import quote

import pytest

import cryptodynamics as cd
from cryptodynamics import fetch
from cryptodynamics.cli import main
from cryptodynamics.fetch import fetch_daily_history, fetch_dataset, history_url

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


def test_history_url_percent_encodes_the_ticker(local_http, tmp_path):
    # Unencoded, "#B" would be a fragment and A's history saved as A#B's.
    base, routes = local_http
    routes["/hist/A.csv"] = (200, ETH_CSV)
    routes["/hist/A%23B.csv"] = (200, BTC_CSV)
    raw = tmp_path / "raw"
    fetch_dataset(template(base), ["A#B"], START, END,
                  tmp_path / "price.csv", tmp_path / "marketcap.csv", raw)
    assert (raw / "A#B.csv").read_text() == BTC_CSV
    assert (tmp_path / "price.csv").read_text().splitlines()[:2] == [
        "date,A#B", "2019-06-01,100.0"]


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


def test_a_2xx_status_other_than_200_is_reported(local_http):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (201, BTC_CSV)
    with pytest.raises(cd.TransportError) as info:
        fetch_daily_history(template(base), "BTC", START, END)
    assert info.value.status == 201
    assert "date,close,market_cap 2019-06-01" in str(info.value)


@pytest.mark.parametrize("target", ["file", "ftp", "unparsable", "redirect to ftp"])
def test_only_http_and_https_urls_are_opened(local_http, tmp_path, capsys, target):
    # urllib's default opener reads file: and ftp: URLs, and follows a
    # redirect to ftp:; each must end the fetch as a transport error,
    # exit 3, without reading the file or connecting to the port.
    base, routes = local_http
    (tmp_path / "BTC.csv").write_text(BTC_CSV)
    with socket.socket() as ftp_server:
        ftp_server.bind(("127.0.0.1", 0))
        ftp_server.listen()
        ftp_server.setblocking(False)
        ftp = f"ftp://127.0.0.1:{ftp_server.getsockname()[1]}/{{ticker}}.csv"
        routes["/hist/BTC.csv"] = (302, "", {"Location": ftp.format(ticker="BTC")})
        url_template = {"file": tmp_path.as_uri() + "/{ticker}.csv", "ftp": ftp,
                        "unparsable": "http://[::1/{ticker}",
                        "redirect to ftp": template(base)}[target]
        with pytest.raises(cd.TransportError) as info:
            fetch_daily_history(url_template, "BTC", START, END)
        assert info.value.status is None
        assert "2019-06-01,100.0" not in str(info.value)
        code = main(["fetch", "--data-dir", str(tmp_path / "data"),
                     "--out-dir", str(tmp_path / "out"), "--url-template", url_template,
                     "--tickers", "BTC"])
        with pytest.raises(BlockingIOError):
            ftp_server.accept()
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: transport: fetch failed for "), err


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


def fetch_one(local_http, tmp_path, payload, start=START, end=END):
    """Serve ``payload`` as BTC's history and fetch it; returns the raw file's path."""
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, payload)
    raw = tmp_path / "raw"
    fetch_dataset(template(base), ["BTC"], start, end,
                  tmp_path / "price.csv", tmp_path / "marketcap.csv", raw)
    return raw / "BTC.csv"


def panel_lines(tmp_path):
    return [(tmp_path / name).read_text().splitlines() for name in ("price.csv", "marketcap.csv")]


def test_parse_history_rows(local_http, tmp_path):
    fetch_one(local_http, tmp_path, BTC_CSV)
    price, caps = panel_lines(tmp_path)
    assert price[0] == caps[0] == "date,BTC"
    assert len(price) == len(caps) == 6
    assert (price[1], caps[1]) == ("2019-06-01,100.0", "2019-06-01,2000.0")
    assert (price[-1], caps[-1]) == ("2019-06-05,103.0", "2019-06-05,2060.0")


def test_parse_history_accepts_mixed_case_header_and_blank_lines(local_http, tmp_path):
    fetch_one(local_http, tmp_path, " Date,Close , MARKET_CAP\n\n2019-06-01,1.0,2.0\n  ,  ,\n")
    assert panel_lines(tmp_path) == [["date,BTC", "2019-06-01,1.0"],
                                     ["date,BTC", "2019-06-01,2.0"]]


# The ids name each payload and the line its fault is on; each fault is the
# panel loader's ParseError on the raw file.
@pytest.mark.parametrize("text,row,detail", [
    pytest.param("", 1, "empty file", id="-empty response"),
    pytest.param('date,close,market_cap\n2019-06-01,"' + "1" * 140_000 + '",2.0\n',
                 2, "field larger than field limit", id="over-long-quoted-cell"),
    pytest.param("date,price,market_cap\n", 1, "expected header 'date,close,market_cap', "
                 "got 'date,price,market_cap'", id="date,price,market_cap\n-expected header"),
    pytest.param("date,close,market_cap\n2019-06-01,1.0\n", 2, "expected 3 cells, got 2",
                 id="date,close,market_cap\n2019-06-01,1.0\n-expected 3 cells"),
    pytest.param("date,close,market_cap\n2019-06-01,abc,2.0\n", 2, "not a number: 'abc'",
                 id="date,close,market_cap\n2019-06-01,abc,2.0\n-line 2"),
    pytest.param("date,close,market_cap\nJune 1st,1.0,2.0\n", 2, "Invalid isoformat",
                 id="date,close,market_cap\nJune 1st,1.0,2.0\n-line 2"),
    pytest.param("date,close,market_cap\n20190601,1.0,2.0\n", 2,
                 "Invalid isoformat string: '20190601'", id="-YYYYMMDD date"),
])
def test_parse_history_rejects_malformed_payloads(local_http, tmp_path, text, row, detail):
    with pytest.raises(cd.ParseError) as info:
        fetch_one(local_http, tmp_path, text)
    assert info.value.path == tmp_path / "raw" / "BTC.csv"
    assert info.value.row == row
    assert detail in str(info.value)
    assert not (tmp_path / "price.csv").exists()


def test_parse_history_rejects_a_repeated_date(local_http, tmp_path):
    text = "date,close,market_cap\n2021-01-01,1,2\n2021-01-01,3,4\n"
    with pytest.raises(cd.ParseError, match="row 3, column 'date': duplicate date 2021-01-01$"):
        fetch_one(local_http, tmp_path, text, dt.date(2021, 1, 1), dt.date(2021, 1, 1))


def test_a_quoted_cell_may_not_run_onto_the_next_line_of_a_payload(local_http, tmp_path):
    text = 'date,close,market_cap\n2021-01-01,"1\n",2\n2021-01-01,3,4\n'
    with pytest.raises(cd.ParseError) as info:
        fetch_one(local_http, tmp_path, text, dt.date(2021, 1, 1), dt.date(2021, 1, 1))
    assert info.value.row == 2
    assert str(info.value).endswith("quoted field runs onto the next line")


@pytest.mark.parametrize("cell", ["nan", " "])
def test_a_payload_nan_or_blank_cell_is_a_missing_value(local_http, tmp_path, cell):
    # Written blank, so the loader drops the asset as of that day.
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    routes["/hist/ETH.csv"] = (200, BTC_CSV.replace("2019-06-02,101.5", f"2019-06-02,{cell}"))
    price, caps = tmp_path / "price.csv", tmp_path / "marketcap.csv"
    fetch_dataset(template(base), ["BTC", "ETH"], START, END, price, caps, tmp_path / "raw")
    assert price.read_text().splitlines()[2] == "2019-06-02,101.5,"
    panel, (drop,) = cd.load_panel_with_report(price, caps, START, END)
    assert panel.tickers == ("BTC",)
    assert (drop.ticker, drop.reason, drop.first_missing_date) == (
        "ETH", "missing value", dt.date(2019, 6, 2))


def test_payload_rows_outside_the_range_are_checked_but_not_copied(local_http, tmp_path):
    fetch_one(local_http, tmp_path,
              "date,close,market_cap\n2019-05-31,oops,1.0\n2019-06-01,1.0,2.0\n"
              "2019-06-06,3.0,4.0\n")
    assert panel_lines(tmp_path)[0] == ["date,BTC", "2019-06-01,1.0"]
    with pytest.raises(cd.ParseError, match="row 3, column 'date': expected 3 cells"):
        fetch_one(local_http, tmp_path, "date,close,market_cap\n2019-06-01,1.0,2.0\n"
                                        "2019-06-06,3.0\n")


def test_fetch_dataset_rejects_end_before_start(tmp_path):
    with pytest.raises(cd.InputError, match="before start"):
        fetch_dataset("http://127.0.0.1:9/{ticker}", ["BTC"], END, START,
                      tmp_path / "p.csv", tmp_path / "c.csv", tmp_path / "raw")
    assert list(tmp_path.iterdir()) == []


def test_fetch_writes_the_files_write_panel_writes(local_http, tmp_path, small_panel,
                                                   small_dataset_dir):
    base, routes = local_http
    for ticker, closes, caps in zip(small_panel.tickers, small_panel.closes,
                                    small_panel.market_caps):
        rows = [f"{day},{close!r},{cap!r}"
                for day, close, cap in zip(small_panel.dates, closes.tolist(), caps.tolist())]
        routes[f"/hist/{ticker}.csv"] = (200, "\n".join(["date,close,market_cap"] + rows))
    dates = fetch_dataset(template(base), small_panel.tickers, small_panel.dates[0],
                          small_panel.dates[-1], tmp_path / "price.csv",
                          tmp_path / "marketcap.csv", tmp_path / "raw")
    assert tuple(dates) == small_panel.dates
    for name in ("price.csv", "marketcap.csv"):
        assert (tmp_path / name).read_bytes() == (small_dataset_dir / name).read_bytes()


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
    assert panel.tickers == ("BTC",)
    (drop,) = drops
    assert drop.ticker == "ETH"
    assert drop.first_missing_date == dt.date(2019, 6, 3)


def test_every_failing_ticker_is_named_in_ticker_order(local_http, tmp_path, capsys):
    # Two tickers the server lacks or refuses, among two it serves: every
    # ticker is tried, and one error names both failures in ticker order.
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    routes["/hist/ETH.csv"] = (200, ETH_CSV)
    routes["/hist/XRP.csv"] = (503, "<html>\n upstream  down\n</html>")
    tickers = ["NOPE", "BTC", "XRP", "ETH"]
    nope, xrp = (history_url(template(base), t, START, END) for t in ("NOPE", "XRP"))
    data = tmp_path / "data"
    with pytest.raises(cd.TransportError) as info:
        fetch_dataset(template(base), tickers, START, END, data / "price.csv",
                      data / "marketcap.csv", data / "raw")
    assert (info.value.url, info.value.status) == (nope, 404)
    message = (f"fetch failed for 2 URLs: {nope} (HTTP 404): no such route; "
               f"{xrp} (HTTP 503): <html> upstream down </html>")
    assert str(info.value) == message
    assert sorted(os.listdir(data)) == ["raw"]
    assert sorted(os.listdir(data / "raw")) == ["BTC.csv", "ETH.csv"]

    code = main(["fetch", "--data-dir", str(tmp_path / "cli"),
                 "--out-dir", str(tmp_path / "out"), "--from", str(START), "--to", str(END),
                 "--url-template", template(base), "--tickers", ",".join(tickers)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: transport: {message}\n"
    assert sorted(os.listdir(tmp_path / "cli")) == ["raw"]


def test_a_malformed_payload_stops_the_fetch_after_a_failed_ticker(local_http, tmp_path):
    base, routes = local_http
    routes["/hist/BAD.csv"] = (200, "date,close,market_cap\n2019-06-01,abc,2.0\n")
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    raw = tmp_path / "raw"
    with pytest.raises(cd.ParseError, match="not a number: 'abc'"):
        fetch_dataset(template(base), ["NOPE", "BAD", "BTC"], START, END,
                      tmp_path / "price.csv", tmp_path / "marketcap.csv", raw)
    assert sorted(os.listdir(raw)) == ["BAD.csv"]


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

    with pytest.raises(cd.InputError, match=f"^{raw / 'ETH.csv'}: not UTF-8 text"):
        fetch_dataset(template(base), ["ETH"], START, END,
                      tmp_path / "price.csv", tmp_path / "marketcap.csv", raw_dir=raw)
    assert (raw / "ETH.csv").read_bytes() == eth.encode("latin-1")


def test_fetch_dataset_needs_tickers(tmp_path):
    with pytest.raises(cd.InputError):
        fetch_dataset("http://x/{ticker}", [], START, END,
                      tmp_path / "p.csv", tmp_path / "c.csv", tmp_path / "raw")


@pytest.mark.parametrize("tickers,message", [
    (["BTC", "ETH", "BTC"], "^tickers repeats BTC$"),
    (["BTC", "../escaped"], "^tickers holds a path separator: ../escaped$"),
    (["BTC", ""], "^tickers holds an empty ticker$"),
])
def test_bad_tickers_fail_before_any_request_or_write(local_http, tmp_path, monkeypatch,
                                                      tickers, message):
    # The server answers 200 for every ticker: unchecked, "../escaped" was
    # written to <data>/escaped.csv, beside raw/ instead of in it.
    base, routes = local_http
    for ticker in tickers:
        routes[f"/hist/{quote(ticker, safe='')}.csv"] = (200, BTC_CSV)
    requested = []
    download = fetch.fetch_daily_history
    monkeypatch.setattr(fetch, "fetch_daily_history",
                        lambda *args: requested.append(args[1]) or download(*args))
    data = tmp_path / "data"
    with pytest.raises(cd.ConfigError, match=message):
        fetch_dataset(template(base), tickers, START, END,
                      data / "price.csv", data / "marketcap.csv", data / "raw")
    assert requested == [] and list(tmp_path.iterdir()) == []


def test_a_failed_write_leaves_the_previous_panel_pair(local_http, tmp_path,
                                                       second_panel_file_fails):
    # The pair writer's own test is in test_panel.py; this one checks that
    # fetch writes through it, its raw files aside.
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, BTC_CSV)
    routes["/hist/ETH.csv"] = (200, ETH_CSV)
    price, caps = tmp_path / "price.csv", tmp_path / "marketcap.csv"
    price.write_text("date,BTC\n")
    caps.write_text("date,BTC\n")
    with pytest.raises(OSError, match="No space left"):
        fetch_dataset(template(base), ["BTC", "ETH"], START, END, price, caps, tmp_path / "raw")
    assert len(second_panel_file_fails) == 2
    assert (price.read_text(), caps.read_text()) == ("date,BTC\n", "date,BTC\n")
    assert sorted(os.listdir(tmp_path)) == ["marketcap.csv", "price.csv", "raw"]
