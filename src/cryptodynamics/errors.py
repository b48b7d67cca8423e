"""Exception hierarchy shared by all analysis modules.

Each class carries the CLI's exit code and message prefix for its errors
(``AnalysisError.exit_code`` and ``prefix``, overridden by NumericalError
and TransportError).

The analysis records hold their arrays as ``frozen_array`` returns them
and set their fields through ``set_fields``.
"""

import numpy as np


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    prefix = ""


class InputError(AnalysisError):
    """Invalid input data: malformed files, bad shapes, unusable values."""


def frozen_array(values, what, shape):
    """``values`` as a read-only, C-contiguous float64 array of ``shape``.

    A C-contiguous float64 array comes back as itself, not as a copy.
    ``None`` in ``shape`` leaves that dimension free. Raises InputError,
    naming the array as ``what``, for input that does not convert to
    float, a shape mismatch or a NaN or infinite entry.
    """
    try:
        array = np.ascontiguousarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be numeric: {exc}") from None
    if array.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(array.shape, shape)):
        expected = ", ".join("any" if want is None else str(want) for want in shape)
        raise InputError(f"{what} has shape {array.shape}, expected ({expected})")
    if not np.isfinite(array).all():
        raise InputError(f"{what} must be finite")
    array.flags.writeable = False
    return array


def set_fields(record, **fields):
    """Set fields of a frozen dataclass instance, from its ``__post_init__``."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)


class ConfigError(InputError):
    """Invalid configuration or parameter choice."""


class GapError(InputError):
    """Date axis has missing calendar days."""

    def __init__(self, missing_dates):
        self.missing_dates = list(missing_dates)
        shown = ", ".join(str(d) for d in self.missing_dates[:10])
        more = "" if len(self.missing_dates) <= 10 else f" (+{len(self.missing_dates) - 10} more)"
        super().__init__(f"date axis is not contiguous; missing: {shown}{more}")


class EmptyPanelError(InputError):
    """No asset survived alignment."""


class ParseError(InputError):
    """CSV cell could not be parsed; names the offending row/column."""

    def __init__(self, path, row, column, detail):
        self.path = path
        self.row = row
        self.column = column
        super().__init__(f"{path}: row {row}, column {column!r}: {detail}")


class DegenerateDataError(InputError):
    """Data is degenerate for the requested operation (e.g. zero variance)."""


class NumericalError(AnalysisError):
    """A numerical routine failed to converge or produced invalid output."""

    exit_code = 2
    prefix = "numerical: "


class TransportError(AnalysisError):
    """HTTP fetch failed at the transport level, for one URL or for several.

    ``more`` holds one (url, status, detail) triple per further failed URL,
    as another TransportError holds them; the one-line message names every
    URL in order.
    """

    exit_code = 3
    prefix = "transport: "

    def __init__(self, url, status=None, detail="", *more):
        detail = " ".join(detail.split())  # an HTML error page spans lines
        self.url = url
        self.status = status
        self.detail = detail
        shown = [u + ("" if s is None else f" (HTTP {s})") + (f": {d}" if d else "")
                 for u, s, d in [(url, status, detail), *more]]
        count = f"{len(shown)} URLs: " if more else ""
        super().__init__(f"fetch failed for {count}{'; '.join(shown)}")
