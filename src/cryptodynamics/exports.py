"""The CSV and JSON writers every output file goes through.

Every CSV file goes through ``write_csv``, which prints numbers with
``%.12g`` (12 significant digits). Every JSON file goes through
``write_json``, one ``json.dump(indent=2, sort_keys=True)`` writer, so
JSON floats are written at full precision (``repr``). Dates are
ISO-8601, and no file carries timestamps or environment-dependent
content, so identical inputs always serialize to byte-identical files.
"""

from __future__ import annotations

import datetime as dt
import json
import re

from .dispersion import Dendrogram

_FLOAT_FMT = "%.12g"


def slugify(label) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, dt.date):
        return value.isoformat()
    return "" if value is None else _FLOAT_FMT % value


def write_csv(path, **columns):
    """One column per keyword, named after it; row k holds entry k of every column.

    Text is written as it is, dates in ISO-8601, None as an empty cell and
    numbers with ``%.12g``. Returns ``path``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(map(_cell, row)) + "\n")
    return path


def write_json(path, obj):
    """``obj`` as indented JSON with sorted keys; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_drop_report(drops, path):
    return write_json(path, [d.to_dict() for d in drops])


def write_dendrogram_json(dendro: Dendrogram, path):
    """The leaf dates, and the merges as rows of a scipy linkage matrix.

    Row k is ``[cluster_a, cluster_b, height, size]`` and creates cluster
    ``n_leaves + k``; leaf i is the day ``dendro.dates[i]``. Returns ``path``.
    """
    return write_json(path, {
        "dates": [d.isoformat() for d in dendro.dates],
        "merges": [[int(a), int(b), height, int(size)]
                   for a, b, height, size in dendro.merges.tolist()],
        "n_leaves": dendro.n_leaves,
    })
