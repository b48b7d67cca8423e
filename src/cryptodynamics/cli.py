"""Command-line front-end: fetch data, run the four analysis pipelines.

Subcommands: fetch, correlation, spectral, inconsistency, dispersion, all.
Exit codes: 0 success; 1 input or configuration problem, usage errors
included; 2 numerical failure; 3 I/O, transport or resource failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import correlation, dispersion, exports, inconsistency, spectral
from .config import KEY_FIELDS, RunConfig, resolve_config, config_echo_text
from .errors import (
    AnalysisError,
    InputError,
    NumericalError,
    SchemaError,
    TransportError,
)
from .exports import write_drop_report
from .panel import PeriodPartition, default_periods, load_panel_with_report
from .turning_points import find_turning_points

# Fields whose flag is not "--" plus the field name with dashes.
_FLAG_NAMES = {"start": "--from", "end": "--to"}
# Key parsers argparse applies itself, so that a bad value is a usage error;
# the others raise ConfigError, which has to reach main's handler.
_ARGPARSE_TYPES = (int, float, str, Path)


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="flat-keyed config file")
    for key, (field, parse) in KEY_FIELDS.items():
        flag = _FLAG_NAMES.get(field, "--" + field.replace("_", "-"))
        switch = isinstance(getattr(RunConfig, field), bool)  # bare, it means true
        parser.add_argument(flag, dest=field, help=f"config key {key}",
                            nargs="?" if switch else None,
                            const="true" if switch else None,
                            type=parse if parse in _ARGPARSE_TYPES else None)


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
    """The run configuration; flags argparse did not type go through their key's parser."""
    flags = {}
    for field, parse in KEY_FIELDS.values():
        value = getattr(args, field)
        if value is not None and parse not in _ARGPARSE_TYPES:
            value = parse(value)
        flags[field] = value
    return resolve_config(args.config, **flags)


def _prepare_out_dir(cfg):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "resolved_config.txt").write_text(config_echo_text(cfg),
                                                     encoding="utf-8")


def _read_panel(cfg):
    """The panel, and the path of the drop report written beside the outputs."""
    for path in (cfg.price_csv, cfg.marketcap_csv):
        if not path.exists():
            raise InputError(f"data file not found: {path}")
    panel, drops = load_panel_with_report(cfg.price_csv, cfg.marketcap_csv,
                                          cfg.start, cfg.end)
    report = cfg.out_dir / "drop_report.json"
    write_drop_report(drops, report)
    return panel, report


def cmd_fetch(cfg):
    from .fetch import fetch_dataset  # analysis commands never touch the network

    cfg.data_dir.mkdir(parents=True, exist_ok=True)
    fetch_dataset(cfg.url_template, cfg.tickers, cfg.start, cfg.end,
                  cfg.price_csv, cfg.marketcap_csv, raw_dir=cfg.data_dir / "raw")
    return [cfg.price_csv, cfg.marketcap_csv]


def cmd_correlation(cfg, panel, returns, days, stats):
    series_csv, points_csv, periods_csv = (
        cfg.out_dir / name
        for name in ("norm_series.csv", "turning_points.csv", "period_stats.csv"))
    series = correlation.rolling_norm_series(returns, days, stats)
    series = series.with_smoothed(cfg.sg_window, cfg.sg_degree)
    exports.write_norm_series(series, series_csv, cfg.out_dir / "norm_series.json")

    points = find_turning_points(series.smoothed, cfg.turning_point_params(),
                                 dates=series.dates)
    exports.write_turning_points(points, points_csv)

    # stats only for periods the analysis range actually covers (>= 2 return days)
    first, last = returns.dates[0], returns.dates[-1]
    covered = tuple(p for p in default_periods()
                    if (min(p.end, last) - max(p.start, first)).days + 1 >= 2)
    periods = correlation.period_entry_stats(returns, PeriodPartition(covered),
                                             exclude_diagonal=cfg.exclude_diagonal)
    exports.write_period_stats(periods, periods_csv, cfg.out_dir / "period_stats.json")
    return [series_csv, points_csv, periods_csv,
            *exports.write_density_curves(periods, cfg.out_dir)]


def cmd_spectral(cfg, panel, returns, days, stats):
    lam_csv, size_csv, summary_json = (
        cfg.out_dir / name
        for name in ("lambda1_series.csv", "market_size.csv", "correlation_summary.json"))
    lam = spectral.lambda1_series(returns, days, stats=stats)
    size = spectral.rolling_market_size(panel, days)
    exports.write_csv(lam_csv, date=lam.dates, lambda1=lam.lambda1)
    exports.write_csv(size_csv, date=size.dates, market_size=size.values)
    try:
        rho = spectral.series_correlation(size.values, lam.lambda1)
        summary = {"rho_market_size_lambda1": rho}
    except AnalysisError:
        summary = {"rho_market_size_lambda1": "degenerate"}
    summary["n_windows"] = len(lam.dates)
    summary["window_days"] = days
    exports.write_json(summary_json, summary)
    return [lam_csv, size_csv, summary_json]


def cmd_inconsistency(cfg, panel, returns, days, stats):
    path = cfg.out_dir / "inconsistency_norms.csv"
    vol = inconsistency.rolling_volatility(returns, days, stats)
    series = inconsistency.inconsistency_norms(panel, returns, vol, days)
    exports.write_csv(path, date=series.dates, nu_MR=series.nu_MR,
                      nu_MSigma=series.nu_MSigma)
    return [path]


def cmd_dispersion(cfg, panel, returns, days, stats):
    variance_csv, dendro_csv, dendro_json, cut_csv = (
        cfg.out_dir / name for name in ("variance_series.csv", "dendrogram.csv",
                                        "dendrogram.json", "two_cluster_cut.csv"))
    vol = inconsistency.rolling_volatility(returns, days, stats)
    variances = dispersion.variance_series(vol)
    exports.write_csv(variance_csv, date=variances.dates, variance=variances.values)

    matrix = dispersion.dispersion_matrix(vol)
    dendro = dispersion.hierarchical_cluster(matrix, cfg.linkage)
    exports.write_dendrogram_csv(dendro, dendro_csv)
    exports.write_dendrogram_json(dendro, dendro_json, dates=matrix.dates)
    labels = dispersion.two_cluster_cut(dendro)
    exports.write_csv(cut_csv, date=matrix.dates, cluster=labels)
    return [variance_csv, dendro_csv, dendro_json, cut_csv]


class _Analysis(NamedTuple):
    run: Callable     # (cfg, panel, returns, days, stats): writes its outputs, returns their paths
    statistic: str    # what it reads from the kernel pass (correlation.STATISTICS)
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
    """Load the panel, make one kernel pass per distinct window length, run ``analyses``.

    Analyses reading the same window length share its pass. The drop
    report's path is printed after the load, and each analysis's output
    paths after it has run.
    """
    panel, report = _read_panel(cfg)
    print(report)
    returns = correlation.log_returns(panel)
    windows = [getattr(cfg, analysis.window) for analysis in analyses]
    wanted = {}
    for analysis, days in zip(analyses, windows):
        wanted.setdefault(days, set()).add(analysis.statistic)
    stats = {days: correlation.rolling_statistics(returns, days, what)
             for days, what in wanted.items()}
    for analysis, days in zip(analyses, windows):
        print(*analysis.run(cfg, panel, returns, days, stats[days]), sep="\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _prepare_out_dir(cfg)
        if args.command == "fetch":
            print(*cmd_fetch(cfg), sep="\n")
        else:
            _run_analyses(cfg, _ANALYSES.values() if args.command == "all"
                          else [_ANALYSES[args.command]])
    except (TransportError,) as exc:
        print(f"error: transport: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except (InputError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
