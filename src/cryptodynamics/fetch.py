"""Minimal HTTP client for daily close/market-cap history.

Fetching is deliberately isolated from analysis: this module downloads
per-ticker CSV text and assembles the two-file panel layout on disk, and
the analysis pipelines only ever read those persisted files. That keeps
every analysis run reproducible and offline-testable.

A history endpoint is configured as a URL template with ``{ticker}``,
``{start}`` and ``{end}`` placeholders (config key ``data.url_template``)
and must return UTF-8 CSV (a byte-order mark is accepted) with the header
``date,close,market_cap``.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from pathlib import Path

import requests

from .errors import InputError, SchemaError, TransportError

RAW_HEADER = ("date", "close", "market_cap")
_TIMEOUT_SECONDS = 30.0


def history_url(url_template, ticker, start, end) -> str:
    try:
        return url_template.format(ticker=ticker, start=start.isoformat(),
                                   end=end.isoformat())
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"bad url template {url_template!r}: {exc}") from None


def fetch_daily_history(url_template, ticker, start, end, session=None) -> bytes:
    """Download one ticker's raw history CSV and return its bytes as received.

    The caller persists them; nothing here feeds analysis directly.
    """
    if not ticker:
        raise InputError("ticker must be non-empty")
    if not url_template:
        raise InputError("no url template configured (data.url_template)")
    url = history_url(url_template, ticker, start, end)
    http = session if session is not None else requests
    try:
        response = http.get(url, timeout=_TIMEOUT_SECONDS)
    except requests.RequestException as exc:
        raise TransportError(url, None, str(exc)) from None
    if response.status_code != 200:
        raise TransportError(url, response.status_code, response.text[:200])
    return response.content


def _csv_rows(text, source):
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise SchemaError(f"{source}: line {reader.line_num}: {exc}") from None


def parse_history_csv(text, source="<response>"):
    """Rows of (date, close, market_cap) from raw history text.

    Raises SchemaError when the payload does not match the expected
    three-column layout or repeats a date.
    """
    reader = _csv_rows(text, source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{source}: empty response") from None
    if tuple(h.strip().lower() for h in header) != RAW_HEADER:
        raise SchemaError(
            f"{source}: expected header {','.join(RAW_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    rows, seen = [], set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise SchemaError(f"{source}: line {lineno}: expected 3 cells, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip())
            close = float(row[1])
            cap = float(row[2])
        except ValueError as exc:
            raise SchemaError(f"{source}: line {lineno}: {exc}") from None
        if day in seen:
            raise SchemaError(f"{source}: line {lineno}: duplicate date {day}")
        seen.add(day)
        rows.append((day, close, cap))
    return rows


def fetch_dataset(url_template, tickers, start, end,
                  price_csv_path, marketcap_csv_path,
                  raw_dir=None, session=None):
    """Fetch every ticker and assemble the two panel CSVs.

    Payloads are decoded as UTF-8, a byte-order mark accepted, whatever
    charset the server declares. Panel rows cover the union of returned
    dates, with blank cells where a ticker has no data (the loader's drop
    policy deals with those).
    When ``raw_dir`` is given, each ticker's raw response is also written
    there as ``<ticker>.csv``, byte for byte as received.

    Both panel files are written to ``<name>.tmp`` beside them first and
    replace the old pair only once both are complete, so a failed write
    leaves the previous pair as it was and no temp file behind.
    """
    tickers = list(tickers)
    if not tickers:
        raise InputError("no tickers to fetch")
    per_ticker = {}
    for ticker in tickers:
        payload = fetch_daily_history(url_template, ticker, start, end, session=session)
        if raw_dir is not None:
            raw_dir = Path(raw_dir)
            raw_dir.mkdir(parents=True, exist_ok=True)
            (raw_dir / f"{ticker}.csv").write_bytes(payload)
        try:
            text = payload.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{ticker}: not UTF-8 text: {exc}") from None
        per_ticker[ticker] = {day: (close, cap)
                              for day, close, cap in parse_history_csv(text, ticker)}

    all_dates = sorted({day for rows in per_ticker.values() for day in rows})
    temps = [(Path(path).with_name(Path(path).name + ".tmp"), path)
             for path in (price_csv_path, marketcap_csv_path)]
    try:
        for pick, (temp, _) in enumerate(temps):
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["date"] + tickers)
                for day in all_dates:
                    row = [day.isoformat()]
                    for ticker in tickers:
                        values = per_ticker[ticker].get(day)
                        row.append("" if values is None else repr(values[pick]))
                    writer.writerow(row)
        for temp, path in temps:
            temp.replace(path)
    finally:
        for temp, _ in temps:  # only a failed write leaves one
            temp.unlink(missing_ok=True)
    return all_dates
