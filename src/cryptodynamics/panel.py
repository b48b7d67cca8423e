"""Daily price/market-cap panel loading, validation and partitioning.

Panels are aligned N x (T+1) matrices over a contiguous calendar-day axis.
Assets with any unusable value inside the requested range are dropped and
reported rather than imputed. Panels are immutable once built; every
downstream module can rely on their invariants.

CSV schema: first column ``date`` (ISO-8601), one column per ticker,
header row required, UTF-8 (a byte-order mark is accepted), ``.`` decimal
point. The loader streams each file line by line. Every row is checked for
structure, but only the rows inside the requested range are split into
cells and converted, each straight into its day's row of a (T, N) float64
block, so memory grows with range x N, not with the file. A line holding a
``"`` is split by the csv module's rules; a quoted field may not run onto
the next line. The drop checks run as masks over the (T, N) blocks.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPanelError, GapError, InputError, ParseError, frozen_array, set_fields

_DAY = dt.timedelta(days=1)

# Default tickers, in column order: what `fetch` requests unless told
# otherwise, and the names of the simulated market's assets.
DEFAULT_TICKERS = (
    "BTC", "ETH", "BNB", "ADA", "XRP", "DOGE", "BCH", "LTC", "LINK", "ETC",
    "XLM", "THETA", "VET", "FIL", "TRX", "SMR", "EOS", "CRO", "MKR", "BSV",
    "NEO", "XTZ", "MIOTA", "DCR", "HT", "XEM", "WAVES", "CEL", "DASH", "ZEC",
    "MANA", "ENJ", "HOT", "QNT", "KCS", "NEXO", "BAT", "ZIL", "BTG", "BNT",
    "ONT", "ZEN", "SC", "DGB", "QTUM", "CHSB", "ZRX", "RVN", "OMG", "NANO",
    "ICX", "FTM",
)


@dataclass(frozen=True)
class AssetMeta:
    ticker: str

    def __post_init__(self):
        if not self.ticker:
            raise InputError("asset ticker must be non-empty")


@dataclass(frozen=True)
class PricePanel:
    """Aligned daily closes and market caps for N assets over T+1 days."""

    dates: tuple
    assets: tuple
    closes: np.ndarray       # (N, T+1), strictly positive
    market_caps: np.ndarray  # (N, T+1), non-negative

    def __post_init__(self):
        dates = tuple(self.dates)
        assets = tuple(self.assets)
        if len(dates) < 1:
            raise InputError("panel needs at least one date")
        gaps = [a + _DAY for a, b in zip(dates, dates[1:]) if b != a + _DAY]
        if gaps:
            raise GapError(gaps)
        tickers = [a.ticker for a in assets]
        if len(set(tickers)) != len(tickers):
            raise InputError("duplicate tickers in panel")
        shape = (len(assets), len(dates))
        closes = frozen_array(self.closes, "closes", shape)
        caps = frozen_array(self.market_caps, "market caps", shape)
        if np.any(closes <= 0):
            raise InputError("closes must be strictly positive")
        if np.any(caps < 0):
            raise InputError("market caps must be non-negative")
        set_fields(self, dates=dates, assets=assets, closes=closes, market_caps=caps)

    @property
    def n_assets(self):
        return len(self.assets)

    @property
    def n_days(self):
        return len(self.dates)

    @property
    def tickers(self):
        return [a.ticker for a in self.assets]


@dataclass(frozen=True)
class Period:
    label: str
    start: dt.date
    end: dt.date

    def __post_init__(self):
        if self.end < self.start:
            raise InputError(f"period {self.label!r}: end before start")


@dataclass(frozen=True)
class PeriodPartition:
    """Ordered, non-overlapping named date intervals."""

    periods: tuple

    def __post_init__(self):
        periods = tuple(self.periods)
        for prev, cur in zip(periods, periods[1:]):
            if cur.start <= prev.end:
                raise InputError(
                    f"periods {prev.label!r} and {cur.label!r} overlap or are out of order"
                )
        object.__setattr__(self, "periods", periods)

    def __iter__(self):
        return iter(self.periods)

    def __len__(self):
        return len(self.periods)

    def labels(self):
        return [p.label for p in self.periods]


@dataclass(frozen=True)
class DropRecord:
    ticker: str
    reason: str
    first_missing_date: dt.date

    def to_dict(self):
        return {
            "ticker": self.ticker,
            "reason": self.reason,
            "first_missing_date": self.first_missing_date.isoformat(),
        }


def default_periods() -> PeriodPartition:
    """The five named market phases used throughout the analyses.

    Note the intervals do not tile the calendar: 2020-02-29 falls between
    the first two phases and belongs to neither.
    """
    d = dt.date
    return PeriodPartition((
        Period("Pre-COVID", d(2019, 1, 1), d(2020, 2, 28)),
        Period("Peak COVID", d(2020, 3, 1), d(2020, 5, 30)),
        Period("Post-COVID", d(2020, 5, 31), d(2020, 8, 31)),
        Period("Bull", d(2020, 9, 1), d(2021, 4, 14)),
        Period("Bear", d(2021, 4, 15), d(2021, 6, 30)),
    ))


def _coerce_date(value):
    if isinstance(value, dt.datetime):
        # A date subclass (so is a pandas Timestamp) that does not compare with dates.
        raise InputError(f"bad date {value!r}: expected a date without a time")
    if isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError as exc:
        raise InputError(f"bad date {value!r}: {exc}") from None


def _quoted_cells(path, lineno, line):
    """The cells of a line holding a quote, by the csv module's rules.

    The loader reads one line at a time, so a quoted field may not run onto
    the next line: an odd number of quotes on a line is a ParseError.
    """
    if line.count('"') % 2:
        raise ParseError(path, lineno, "", "quoted field runs onto the next line")
    return next(csv.reader([line]))


def _read_range(path, start, end):
    """Read one CSV line by line, converting only the rows dated in [start, end].

    Every row's structure is checked: its date parses and is not a
    duplicate, and it has one cell per header column. Returns the header
    tickers and three blocks over the days of [start, end]: the (T, N)
    float64 values (NaN at blank cells), the (T, N) blank-cell mask and the
    (T,) mask of days the file has a row for. Errors raise ParseError with
    the 1-based row number and the column name.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line = fh.readline()
        if not line:
            raise ParseError(path, 1, "date", "empty file")
        header = _quoted_cells(path, 1, line) if '"' in line else line.rstrip("\r\n").split(",")
        if header[0].strip().lower() != "date":
            raise ParseError(path, 1, header[0], "first column must be 'date'")
        tickers = [h.strip() for h in header[1:]]
        if any(not t for t in tickers):
            raise ParseError(path, 1, "", "blank ticker column in header")
        if len(set(tickers)) != len(tickers):
            raise ParseError(path, 1, "", "duplicate ticker column in header")
        width = len(tickers) + 1
        shape = ((end - start).days + 1, len(tickers))
        # Untouched pages of np.empty are never resident, so a range far
        # past the file costs only the rows it holds.
        values = np.empty(shape)
        missing = np.zeros(shape, dtype=bool)
        present = np.zeros(shape[0], dtype=bool)
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            if '"' in line:
                cells = _quoted_cells(path, lineno, line)
                head, count = cells[0], len(cells)
            else:
                cells = None
                head = line.partition(",")[0]
                count = line.count(",") + 1
            head = head.strip()
            if not head and not "".join(cells or line.split(",")).strip():
                continue
            try:
                date = dt.date.fromisoformat(head)
            except ValueError as exc:
                raise ParseError(path, lineno, "date", str(exc)) from None
            if date in seen:
                raise ParseError(path, lineno, "date", f"duplicate date {date}")
            seen.add(date)
            if count != width:
                raise ParseError(path, lineno, "date", f"expected {width} cells, got {count}")
            if start <= date <= end:
                day = (date - start).days
                present[day] = True
                cells = cells or line.split(",")
                _convert_row(path, lineno, tickers, cells[1:], values[day], missing[day])
    return tickers, values, missing, present


def _convert_row(path, lineno, tickers, cells, values, missing):
    """Write one row's value cells into ``values``; blank cells are NaN and marked in ``missing``."""
    try:
        # float() accepts surrounding whitespace; whatever it rejects goes
        # through the slower paths, which strip with str.strip().
        values[:] = np.fromiter(map(float, cells), float, len(cells))
        return
    except ValueError:
        pass
    missing[:] = blank = [not cell.strip() for cell in cells]
    filled = ["nan" if b else cell for b, cell in zip(blank, cells)]
    try:
        values[:] = np.fromiter(map(float, filled), float, len(cells))
    except ValueError:
        for ticker, cell in zip(tickers, cells):
            cell = cell.strip()
            try:
                float(cell or "nan")
            except ValueError:
                raise ParseError(path, lineno, ticker, f"not a number: {cell!r}") from None
        raise


# Drop reasons in priority order: on an asset's first failing day, the
# first reason that applies is the one reported.
_REASONS = ("missing value", "non-finite value", "non-positive close",
            "negative market cap")


def load_panel_with_report(price_csv_path, marketcap_csv_path, start, end):
    """Load and align a panel; returns (PricePanel, drop records).

    Assets survive only if both files give a usable value on every day of
    [start, end]: a finite positive close and a finite non-negative market
    cap. Each dropped asset is reported with the first day that failed and,
    if several checks fail that day, the first of: missing value,
    non-finite value, non-positive close, negative market cap. An asset
    without a market-cap column is dropped as of ``start``. Drops come in
    price-header order. Missing whole days raise GapError instead.

    Each file is streamed once. Every row is checked for structure, but
    only rows inside [start, end] are converted to numbers, so a malformed
    cell outside the range is never read. The checks then run as masks
    over the kept (T, N) blocks. ``start`` and ``end`` are dates or ISO
    date strings; a datetime is an InputError.
    """
    start = _coerce_date(start)
    end = _coerce_date(end)
    if end < start:
        raise InputError(f"date range end {end} before start {start}")

    price_tickers, close, close_missing, close_present = _read_range(price_csv_path, start, end)
    cap_tickers, cap, cap_missing, cap_present = _read_range(marketcap_csv_path, start, end)
    for present in (close_present, cap_present):
        if not present.all():
            raise GapError([start + int(k) * _DAY for k in np.flatnonzero(~present)])
    days = [start + k * _DAY for k in range(len(close_present))]

    price_column = {t: k for k, t in enumerate(price_tickers)}
    cap_column = {t: k for k, t in enumerate(cap_tickers)}
    paired = [t for t in price_tickers if t in cap_column]
    columns = [price_column[t] for t in paired]
    close, close_missing = close[:, columns], close_missing[:, columns]
    columns = [cap_column[t] for t in paired]
    cap, cap_missing = cap[:, columns], cap_missing[:, columns]
    fault = np.select([close_missing | cap_missing,
                       ~(np.isfinite(close) & np.isfinite(cap)),
                       close <= 0,
                       cap < 0], [1, 2, 3, 4])
    first = (fault > 0).argmax(axis=0)
    code = fault[first, np.arange(len(paired))]

    verdict = dict(zip(paired, zip(code.tolist(), first.tolist())))
    drops = []
    for ticker in price_tickers:
        if ticker not in verdict:
            drops.append(DropRecord(ticker, "missing market-cap column", start))
        elif verdict[ticker][0]:
            reason, day = verdict[ticker]
            drops.append(DropRecord(ticker, _REASONS[reason - 1], days[day]))

    ok = code == 0
    kept = [t for t, good in zip(paired, ok) if good]
    if not kept:
        raise EmptyPanelError("no asset survived alignment over the requested range")
    assets = tuple(AssetMeta(t) for t in kept)
    panel = PricePanel(tuple(days), assets, close[:, ok].T, cap[:, ok].T)
    return panel, drops


def write_panel(panel: PricePanel, price_csv_path, marketcap_csv_path):
    """Write a panel back to the two-file CSV layout, round-trip exact.

    Values use repr() formatting so reloading reproduces every float
    bit-exactly.
    """
    for path, matrix in ((price_csv_path, panel.closes),
                         (marketcap_csv_path, panel.market_caps)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + panel.tickers)
            for j, day in enumerate(panel.dates):
                writer.writerow([day.isoformat()] + [repr(float(v)) for v in matrix[:, j]])
