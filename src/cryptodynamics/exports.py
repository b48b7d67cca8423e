"""CSV/JSON writers for every analysis product.

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
from .errors import InputError

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
    numbers with ``%.12g``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(map(_cell, row)) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_drop_report(drops, path):
    write_json(path, [d.to_dict() for d in drops])


def write_norm_series(series, csv_path, json_path):
    smoothed = series.smoothed
    write_csv(csv_path, date=series.dates, raw=series.raw,
              smoothed=[None] * len(series.dates) if smoothed is None else smoothed)
    write_json(json_path, {
        "dates": [d.isoformat() for d in series.dates],
        "raw": [float(v) for v in series.raw],
        "smoothed": None if smoothed is None else [float(v) for v in smoothed],
    })


def write_period_stats(stats, csv_path, json_path):
    write_csv(csv_path, period=[s.label for s in stats], mean=[s.mean for s in stats],
              std=[s.std for s in stats])
    write_json(json_path, [
        {"period": s.label, "start": s.start.isoformat(),
         "end": s.end.isoformat(), "n_days": s.n_days,
         "mean": float(s.mean), "std": float(s.std)}
        for s in stats
    ])


def write_density_curves(stats, out_dir):
    """One `density_<period>.csv` per period; returns the written paths.

    Zero-variance periods have no density estimate and get a header-only
    file.
    """
    paths = []
    for s in stats:
        path = out_dir / f"density_{slugify(s.label)}.csv"
        write_csv(path, x=s.density_x, density=s.density_y)
        paths.append(path)
    return paths


def write_turning_points(seq, path):
    write_csv(path, index=[p.index for p in seq], date=[p.date for p in seq],
              value=[p.value for p in seq], kind=[p.kind for p in seq])


def write_dendrogram_csv(dendro: Dendrogram, path):
    a, b, height, size = dendro.merges.T
    write_csv(path, step=range(len(height)), cluster_a=a, cluster_b=b, height=height,
              size=size)


def write_dendrogram_json(dendro: Dendrogram, path, dates):
    """The leaf dates, and the merges as rows of a scipy linkage matrix.

    Row k is ``[cluster_a, cluster_b, height, size]`` and creates cluster
    ``n_leaves + k``; leaf i is the day ``dates[i]``.
    """
    if len(dates) != dendro.n_leaves:
        raise InputError("dates length must match leaf count")
    write_json(path, {
        "dates": [d.isoformat() for d in dates],
        "merges": [[int(a), int(b), height, int(size)]
                   for a, b, height, size in dendro.merges.tolist()],
        "n_leaves": dendro.n_leaves,
    })
