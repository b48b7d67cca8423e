"""Command-line front-end: fetch data, run the four analysis pipelines.

Subcommands: fetch, correlation, spectral, inconsistency, dispersion, all.
Exit codes: 0 success, 1 usage error, else the package error's own
``exit_code`` (see errors.py), 3 for OS-level I/O and out-of-memory
failures. Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import correlation, dispersion, exports, inconsistency, spectral
from .config import KEY_FIELDS, config_echo_text, parse_bool, parse_value, resolve_config
from .errors import AnalysisError, InputError
from .exports import write_drop_report
from .panel import default_periods, load_panel_with_report
from .turning_points import find_turning_points

# A smoothed norm series whose max − min is at most this many float
# spacings at its largest magnitude counts as flat. Smoothing a constant
# series wobbles by about 10 spacings at the default fit (31 points,
# degree 3) and by under 200 at fits up to 801 points and degree 10; the
# default simulated market's smoothed norm series spans about 4e15.
_FLAT_ULPS = 1024


def _flag(field):
    """A RunConfig field's flag: "--" and the field name with dashes, but --from and --to."""
    return {"start": "--from", "end": "--to"}.get(field, "--" + field.replace("_", "-"))


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="flat-keyed config file")
    for key, (field, parse) in KEY_FIELDS.items():
        switch = parse is parse_bool  # bare, it means true
        parser.add_argument(_flag(field), dest=field, help=f"config key {key}",
                            nargs="?" if switch else None,
                            const="true" if switch else None)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, not argparse's 2 (numerical failure here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="cryptodynamics",
        description="Rolling correlation, market-mode, inconsistency and "
                    "volatility-dispersion analytics for daily asset panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    blurbs = {"fetch": "download per-ticker history and assemble the panel CSVs",
              **{name: analysis.blurb for name, analysis in _ANALYSES.items()},
              "all": "run every analysis command on one shared panel"}
    for name, blurb in blurbs.items():
        _add_common_flags(sub.add_parser(name, help=blurb))
    return parser


def _config_from_args(args):
    """The run configuration; each flag's text is read as its key's file value is."""
    flags = {field: parse_value(key, getattr(args, field), _flag(field))
             for key, (field, _) in KEY_FIELDS.items() if getattr(args, field) is not None}
    return resolve_config(args.config, **flags)


def _prepare_out_dir(cfg):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "resolved_config.txt").write_text(config_echo_text(cfg),
                                                     encoding="utf-8")


def _load_returns(cfg):
    """Yield the loaded panel's drop report as it is written; return its returns.

    The returns panel carries the caps, so the price panel, closes
    included, is freed when this returns.
    """
    for path in (cfg.price_csv, cfg.marketcap_csv):
        if not path.exists():
            raise InputError(f"data file not found: {path}")
        if not path.is_file():
            raise InputError(f"data path is not a regular file: {path}")
    panel, drops = load_panel_with_report(cfg.price_csv, cfg.marketcap_csv,
                                          cfg.start, cfg.end)
    yield write_drop_report(drops, cfg.out_dir / "drop_report.json")
    return correlation.log_returns(panel)


def cmd_fetch(cfg):
    from .fetch import fetch_dataset  # analysis commands never touch the network

    cfg.data_dir.mkdir(parents=True, exist_ok=True)
    fetch_dataset(cfg.url_template, cfg.tickers, cfg.start, cfg.end,
                  cfg.price_csv, cfg.marketcap_csv, raw_dir=cfg.data_dir / "raw")
    yield cfg.price_csv
    yield cfg.marketcap_csv


def cmd_correlation(cfg, returns, series):
    out = cfg.out_dir
    series = series.with_smoothed(cfg.sg_window, cfg.sg_degree)
    yield exports.write_csv(out / "norm_series.csv", date=series.dates, raw=series.raw,
                            smoothed=series.smoothed)
    yield exports.write_json(out / "norm_series.json", {
        "dates": [d.isoformat() for d in series.dates],
        "raw": [float(v) for v in series.raw],
        "smoothed": [float(v) for v in series.smoothed],
    })

    # A series flat up to rounding (one asset, clone assets, or S = 2, where
    # every correlation is ±1) has no co-movement to segment: its wobble is
    # smoothing noise, not turning points.
    smoothed = series.smoothed
    flat = np.ptp(smoothed) <= _FLAT_ULPS * np.spacing(np.abs(smoothed).max())
    points = [] if flat else find_turning_points(smoothed, cfg.turning_point_params(),
                                                 dates=series.dates)
    yield exports.write_csv(out / "turning_points.csv", index=[p.index for p in points],
                            date=[p.date for p in points], value=[p.value for p in points],
                            kind=[p.kind for p in points])

    periods = correlation.period_entry_stats(returns, default_periods(),
                                             exclude_diagonal=cfg.exclude_diagonal)
    yield exports.write_csv(out / "period_stats.csv", period=[s.label for s in periods],
                            mean=[s.mean for s in periods], std=[s.std for s in periods])
    yield exports.write_json(out / "period_stats.json", [
        {"period": s.label, "start": s.start.isoformat(),
         "end": s.end.isoformat(), "n_days": s.n_days,
         "mean": float(s.mean), "std": float(s.std)}
        for s in periods
    ])
    for s in periods:  # a zero-variance period has no density estimate: a header-only file
        yield exports.write_csv(out / f"density_{exports.slugify(s.label)}.csv",
                                x=s.density_x, density=s.density_y)


def cmd_spectral(cfg, returns, lam):
    out = cfg.out_dir
    size = spectral.rolling_market_size(returns, cfg.spectral_days)
    yield exports.write_csv(out / "lambda1_series.csv", date=lam.dates, lambda1=lam.lambda1)
    yield exports.write_csv(out / "market_size.csv", date=size.dates, market_size=size.values)
    try:
        rho = spectral.series_correlation(size.values, lam.lambda1)
        summary = {"rho_market_size_lambda1": rho}
    except AnalysisError:
        summary = {"rho_market_size_lambda1": "degenerate"}
    summary["n_windows"] = len(lam.dates)
    summary["window_days"] = cfg.spectral_days
    yield exports.write_json(out / "correlation_summary.json", summary)


def cmd_inconsistency(cfg, returns, vol):
    series = inconsistency.inconsistency_norms(returns, vol)
    yield exports.write_csv(cfg.out_dir / "inconsistency_norms.csv", date=series.dates,
                            nu_MR=series.nu_MR, nu_MSigma=series.nu_MSigma)


def cmd_dispersion(cfg, returns, vol):
    out = cfg.out_dir
    variances = dispersion.variance_series(vol)
    yield exports.write_csv(out / "variance_series.csv", date=variances.dates,
                            variance=variances.values)

    dendro = dispersion.hierarchical_cluster(vol, cfg.linkage)
    a, b, height, size = dendro.merges.T
    yield exports.write_csv(out / "dendrogram.csv", step=range(len(height)), cluster_a=a,
                            cluster_b=b, height=height, size=size)
    yield exports.write_dendrogram_json(dendro, out / "dendrogram.json")
    labels = dispersion.two_cluster_cut(dendro)
    yield exports.write_csv(out / "two_cluster_cut.csv", date=dendro.dates, cluster=labels)


class _Analysis(NamedTuple):
    run: Callable     # (cfg, returns, series): writes its outputs from its
                      # statistic's record, yielding each path as it is written
    statistic: str    # the record it reads from the kernel pass (correlation.STATISTICS)
    window: str       # the RunConfig field holding its window length in days
    blurb: str


# In the order `all` runs them.
_ANALYSES = {
    "correlation": _Analysis(cmd_correlation, "norm", "correlation_days",
                             "norm series, turning points, period stats, densities"),
    "spectral": _Analysis(cmd_spectral, "lambda1", "spectral_days",
                          "first-eigenvalue series, market size, their correlation"),
    "inconsistency": _Analysis(cmd_inconsistency, "sigma", "inconsistency_days",
                               "size-vs-returns and size-vs-volatility norms"),
    "dispersion": _Analysis(cmd_dispersion, "sigma", "volatility_days",
                            "variance series, dispersion clustering, dendrogram"),
}


def _run_analyses(cfg, analyses):
    """Load the returns, make one kernel pass per distinct window length, run ``analyses``.

    Analyses reading the same window length share its pass, and each is
    handed its statistic's record from it. Yields every output path as it
    is written: the drop report's, then each analysis's.
    """
    returns = yield from _load_returns(cfg)
    windows = [getattr(cfg, analysis.window) for analysis in analyses]
    wanted = {}
    for analysis, days in zip(analyses, windows):
        wanted.setdefault(days, set()).add(analysis.statistic)
    passes = {days: correlation.rolling_statistics(returns, days, what)
              for days, what in wanted.items()}
    for analysis, days in zip(analyses, windows):
        yield from analysis.run(cfg, returns, passes[days][analysis.statistic])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _prepare_out_dir(cfg)
        if args.command == "fetch":
            written = cmd_fetch(cfg)
        else:
            written = _run_analyses(cfg, _ANALYSES.values() if args.command == "all"
                                    else [_ANALYSES[args.command]])
        for path in written:  # each as it is written, so a failed run names its files too
            print(path)
    except AnalysisError as exc:
        print(f"error: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: i/o: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
