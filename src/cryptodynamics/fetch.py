"""Minimal HTTP client for daily close/market-cap history.

Fetching is deliberately isolated from analysis: this module downloads
per-ticker CSV payloads and assembles the two-file panel layout on disk,
and the analysis pipelines only ever read those persisted files. That
keeps every analysis run reproducible and offline-testable. The CSV
layout itself, read and written, is ``panel``'s.

A history endpoint is configured as a URL template with ``{ticker}``
(percent-encoded), ``{start}`` and ``{end}`` placeholders (config key
``data.url_template``) and must return UTF-8 CSV (a byte-order mark is
accepted) with the header ``date,close,market_cap``.
"""

from __future__ import annotations

import datetime as dt
import http.client
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote

import numpy as np

from . import panel
from .errors import InputError, ParseError, TransportError

RAW_HEADER = ("date", "close", "market_cap")
_TIMEOUT_SECONDS = 30.0


def history_url(url_template, ticker, start, end) -> str:
    try:
        return url_template.format(ticker=quote(ticker, safe=""), start=start.isoformat(),
                                   end=end.isoformat())
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"bad url template {url_template!r}: {exc}") from None


def _opener():
    """urllib's default opener without its file:, ftp: and data: handlers.

    A scheme other than http and https, a redirect's target included, is a
    URLError "unknown url type". Proxies come from the environment, as
    for ``urllib.request.urlopen``, for those two schemes only.
    """
    proxies = {scheme: url for scheme, url in urllib.request.getproxies().items()
               if scheme in ("http", "https")}
    opener = urllib.request.OpenerDirector()
    for handler in (urllib.request.ProxyHandler(proxies), urllib.request.UnknownHandler(),
                    urllib.request.HTTPHandler(), urllib.request.HTTPSHandler(),
                    urllib.request.HTTPDefaultErrorHandler(),
                    urllib.request.HTTPRedirectHandler(), urllib.request.HTTPErrorProcessor()):
        opener.add_handler(handler)
    return opener


def fetch_daily_history(url_template, ticker, start, end) -> bytes:
    """Download one ticker's raw history CSV and return its bytes as received.

    The caller persists them; nothing here feeds analysis directly. Any
    status but 200 is a TransportError carrying it and the start of the
    body; a failure to connect, read or parse the URL is one without a
    status.
    """
    if not ticker:
        raise InputError("ticker must be non-empty")
    if not url_template:
        raise InputError("no url template configured (data.url_template)")
    url = history_url(url_template, ticker, start, end)
    try:
        try:
            response = _opener().open(url, timeout=_TIMEOUT_SECONDS)
        except urllib.error.HTTPError as exc:  # a status outside 2xx, with its body
            response = exc
        with response:
            status, body = response.status, response.read()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise TransportError(url, None, str(exc)) from None
    if status != 200:
        raise TransportError(url, status, body.decode("utf-8", "replace")[:200])
    return body


def fetch_dataset(url_template, tickers, start, end,
                  price_csv_path, marketcap_csv_path, raw_dir):
    """Fetch every ticker and assemble the two panel CSVs; returns the dates written.

    Each ticker's response is written to ``<raw_dir>/<ticker>.csv`` byte
    for byte as received and read back by the panel loader's reader, so a
    payload is held to the panel files' CSV dialect: UTF-8 whatever charset
    the server declares, else an InputError naming the file, and a fault
    in it is a ParseError naming the file, its row and its column. Only
    its rows in [start, end] are converted. Panel rows cover the union of
    returned dates in range, with blank cells where a ticker has no value
    (the loader's drop policy deals with those). The pair replaces the old
    one only once both files are written (``panel._write_pair``).

    Tickers must be non-empty, distinct and free of path separators
    (``panel.check_tickers``); any other list is a ConfigError before any
    request or file write. A ticker that fails to download does not stop
    the others: once all are tried, one TransportError names every failed
    URL in ticker order, and no pair is written. A ParseError in a payload
    stops the fetch at once.
    """
    tickers = list(tickers)
    if not tickers:
        raise InputError("no tickers to fetch")
    panel.check_tickers(tickers, "tickers")
    if end < start:
        raise InputError(f"date range end {end} before start {start}")
    raw_dir = Path(raw_dir)
    raw_dir.mkdir(parents=True, exist_ok=True)
    shape = ((end - start).days + 1, len(tickers))
    closes, caps = np.full(shape, np.nan), np.full(shape, np.nan)
    any_row = np.zeros(shape[0], dtype=bool)
    failed = []
    for k, ticker in enumerate(tickers):
        try:
            body = fetch_daily_history(url_template, ticker, start, end)
        except TransportError as exc:
            failed.append((exc.url, exc.status, exc.detail))
            continue
        raw = raw_dir / f"{ticker}.csv"
        raw.write_bytes(body)
        header, values, _, present = panel._read_range(raw, start, end)
        if [h.lower() for h in header] != list(RAW_HEADER[1:]):
            raise ParseError(raw, 1, "", f"expected header {','.join(RAW_HEADER)!r}, "
                                         f"got {','.join(['date'] + header)!r}")
        closes[present, k], caps[present, k] = values[present].T
        any_row |= present
    if failed:
        raise TransportError(*failed[0], *failed[1:])

    days = np.flatnonzero(any_row)
    dates = [start + dt.timedelta(days=int(d)) for d in days]
    panel._write_pair(price_csv_path, marketcap_csv_path, dates, tickers,
                      closes[days].T, caps[days].T)
    return dates
