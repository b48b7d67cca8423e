"""CSV/JSON writers for every analysis product.

CSV floats are printed with ``%.12g`` (12 significant digits). Every
JSON file goes through ``write_json``, one ``json.dump(indent=2,
sort_keys=True)`` writer, so JSON floats are written at full precision
(``repr``). Dates are ISO-8601, and no file carries timestamps or
environment-dependent content, so identical inputs always serialize to
byte-identical files.
"""

from __future__ import annotations

import json
import re

from .dispersion import Dendrogram
from .errors import InputError

_FLOAT_FMT = "%.12g"


def fmt(value) -> str:
    return _FLOAT_FMT % float(value)


def slugify(label) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_drop_report(drops, path):
    write_json(path, [d.to_dict() for d in drops])


def write_norm_series(series, csv_path, json_path):
    smoothed = series.smoothed
    rows = (
        (d.isoformat(), fmt(r), "" if smoothed is None else fmt(s))
        for d, r, s in zip(series.dates, series.raw,
                           series.raw if smoothed is None else smoothed)
    )
    write_csv(csv_path, ("date", "raw", "smoothed"), rows)
    write_json(json_path, {
        "dates": [d.isoformat() for d in series.dates],
        "raw": [float(v) for v in series.raw],
        "smoothed": None if smoothed is None else [float(v) for v in smoothed],
    })


def write_period_stats(stats, csv_path, json_path):
    write_csv(csv_path, ("period", "mean", "std"),
              ((s.label, fmt(s.mean), fmt(s.std)) for s in stats))
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
        write_csv(path, ("x", "density"),
                  ((fmt(x), fmt(y)) for x, y in zip(s.density_x, s.density_y)))
        paths.append(path)
    return paths


def write_turning_points(seq, path):
    write_csv(path, ("index", "date", "value", "kind"),
              ((str(p.index), "" if p.date is None else p.date.isoformat(),
                fmt(p.value), p.kind) for p in seq))


def write_dated_csv(path, dates, **columns):
    """A ``date`` column, then one column per keyword, named after it.

    Row k holds ``dates[k]`` and entry k of every column.
    """
    write_csv(path, ("date", *columns),
              ((d.isoformat(), *map(fmt, values))
               for d, *values in zip(dates, *columns.values())))


def write_dendrogram_csv(dendro: Dendrogram, path):
    write_csv(path, ("step", "cluster_a", "cluster_b", "height", "size"),
              ((str(step), str(int(a)), str(int(b)), fmt(height), str(int(size)))
               for step, (a, b, height, size) in enumerate(dendro.merges.tolist())))


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
