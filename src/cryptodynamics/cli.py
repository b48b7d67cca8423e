"""Command-line front-end: fetch data, run the four analysis pipelines.

Subcommands: fetch, correlation, spectral, inconsistency, dispersion, all.
Exit codes: 0 success; 1 input or configuration problem, usage errors
included; 2 numerical failure; 3 I/O, transport or resource failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys

from . import correlation, dispersion, exports, inconsistency, spectral
from .config import parse_tickers, resolve_config, config_echo_text
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


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="flat-keyed config file")
    parser.add_argument("--data-dir", dest="data_dir", metavar="DIR")
    parser.add_argument("--out-dir", dest="out_dir", metavar="DIR")
    parser.add_argument("--from", dest="start", metavar="DATE",
                        help="analysis range start (ISO)")
    parser.add_argument("--to", dest="end", metavar="DATE",
                        help="analysis range end (ISO)")
    for flag, kind in (
        ("--correlation-days", int), ("--spectral-days", int),
        ("--inconsistency-days", int), ("--volatility-days", int),
        ("--tp-l", int), ("--tp-delta", float), ("--tp-epsilon", float),
        ("--sg-window", int), ("--sg-degree", int),
        ("--linkage", str), ("--url-template", str), ("--tickers", str),
    ):
        parser.add_argument(flag, type=kind, dest=flag[2:].replace("-", "_"))
    parser.add_argument("--exclude-diagonal", dest="exclude_diagonal",
                        action="store_const", const=True, default=None)


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
    for name, blurb in (
        ("fetch", "download per-ticker history and assemble the panel CSVs"),
        ("correlation", "norm series, turning points, period stats, densities"),
        ("spectral", "first-eigenvalue series, market size, their correlation"),
        ("inconsistency", "size-vs-returns and size-vs-volatility norms"),
        ("dispersion", "variance series, dispersion clustering, dendrogram"),
        ("all", "run every analysis command on one shared panel"),
    ):
        _add_common_flags(sub.add_parser(name, help=blurb))
    return parser


def _config_from_args(args):
    flags = {
        field: getattr(args, field)
        for field in ("data_dir", "out_dir", "start", "end",
                      "correlation_days", "spectral_days", "inconsistency_days",
                      "volatility_days", "tp_l", "tp_delta", "tp_epsilon",
                      "sg_window", "sg_degree", "exclude_diagonal", "linkage",
                      "url_template", "tickers")
    }
    for key in ("start", "end"):
        if flags[key] is not None:
            flags[key] = dt.date.fromisoformat(flags[key])
    if flags["tickers"] is not None:
        flags["tickers"] = parse_tickers(flags["tickers"])
    return resolve_config(args.config, **flags)


def _prepare_out_dir(cfg):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "resolved_config.txt").write_text(config_echo_text(cfg),
                                                     encoding="utf-8")


def _emit(path):
    print(path)


def _load_panel(cfg):
    for path in (cfg.price_csv, cfg.marketcap_csv):
        if not path.exists():
            raise InputError(f"data file not found: {path}")
    panel, drops = load_panel_with_report(cfg.price_csv, cfg.marketcap_csv,
                                          cfg.start, cfg.end)
    report = cfg.out_dir / "drop_report.json"
    write_drop_report(drops, report)
    _emit(report)
    return panel


def cmd_fetch(cfg):
    from .fetch import fetch_dataset  # analysis commands never touch the network

    cfg.data_dir.mkdir(parents=True, exist_ok=True)
    fetch_dataset(cfg.url_template, cfg.tickers, cfg.start, cfg.end,
                  cfg.price_csv, cfg.marketcap_csv, raw_dir=cfg.data_dir / "raw")
    _emit(cfg.price_csv)
    _emit(cfg.marketcap_csv)


def _load_inputs(cfg, wanted=None):
    """The panel, its log returns, and one kernel pass per window length.

    ``wanted`` maps each window length to the rolling statistics needed at
    it, so analyses sharing a window length share its pass. Without it the
    pass dict is empty and each analysis runs its own pass.
    """
    panel = _load_panel(cfg)
    returns = correlation.log_returns(panel)
    stats = {days: correlation.rolling_statistics(returns, days, what)
             for days, what in (wanted or {}).items()}
    return panel, returns, stats


def cmd_correlation(cfg, inputs=None):
    _, returns, stats = inputs or _load_inputs(cfg)
    days = cfg.correlation_days
    series = correlation.rolling_norm_series(returns, days, stats.get(days))
    series = series.with_smoothed(cfg.sg_window, cfg.sg_degree)
    exports.write_norm_series(series, cfg.out_dir / "norm_series.csv",
                              cfg.out_dir / "norm_series.json")
    _emit(cfg.out_dir / "norm_series.csv")

    points = find_turning_points(series.smoothed, cfg.turning_point_params(),
                                 dates=series.dates)
    exports.write_turning_points(points, cfg.out_dir / "turning_points.csv")
    _emit(cfg.out_dir / "turning_points.csv")

    # stats only for periods the analysis range actually covers (>= 2 return days)
    first, last = returns.dates[0], returns.dates[-1]
    covered = tuple(p for p in default_periods()
                    if (min(p.end, last) - max(p.start, first)).days + 1 >= 2)
    stats = correlation.period_entry_stats(returns, PeriodPartition(covered),
                                           exclude_diagonal=cfg.exclude_diagonal)
    exports.write_period_stats(stats, cfg.out_dir / "period_stats.csv",
                               cfg.out_dir / "period_stats.json")
    _emit(cfg.out_dir / "period_stats.csv")
    for path in exports.write_density_curves(stats, cfg.out_dir):
        _emit(path)


def cmd_spectral(cfg, inputs=None):
    panel, returns, stats = inputs or _load_inputs(cfg)
    days = cfg.spectral_days
    lam = spectral.lambda1_series(returns, days, stats=stats.get(days))
    size = spectral.rolling_market_size(panel, days)
    exports.write_lambda1_series(lam, cfg.out_dir / "lambda1_series.csv")
    exports.write_market_size(size, cfg.out_dir / "market_size.csv")
    try:
        rho = spectral.series_correlation(size.values, lam.lambda1)
        summary = {"rho_market_size_lambda1": rho}
    except AnalysisError:
        summary = {"rho_market_size_lambda1": "degenerate"}
    summary["n_windows"] = len(lam.dates)
    summary["window_days"] = cfg.spectral_days
    exports.write_json(cfg.out_dir / "correlation_summary.json", summary)
    for name in ("lambda1_series.csv", "market_size.csv", "correlation_summary.json"):
        _emit(cfg.out_dir / name)


def cmd_inconsistency(cfg, inputs=None):
    panel, returns, stats = inputs or _load_inputs(cfg)
    days = cfg.inconsistency_days
    vol = inconsistency.rolling_volatility(returns, days, stats.get(days))
    series = inconsistency.inconsistency_norms(panel, returns, vol, days)
    exports.write_inconsistency(series, cfg.out_dir / "inconsistency_norms.csv")
    _emit(cfg.out_dir / "inconsistency_norms.csv")


def cmd_dispersion(cfg, inputs=None):
    _, returns, stats = inputs or _load_inputs(cfg)
    days = cfg.volatility_days
    vol = inconsistency.rolling_volatility(returns, days, stats.get(days))
    variances = dispersion.variance_series(vol)
    exports.write_variance_series(variances, cfg.out_dir / "variance_series.csv")
    _emit(cfg.out_dir / "variance_series.csv")

    matrix = dispersion.dispersion_matrix(vol)
    dendro = dispersion.hierarchical_cluster(matrix, cfg.linkage)
    exports.write_dendrogram_csv(dendro, cfg.out_dir / "dendrogram.csv")
    exports.write_dendrogram_json(dendro, cfg.out_dir / "dendrogram.json",
                                  dates=matrix.dates)
    labels = dispersion.two_cluster_cut(dendro)
    exports.write_cluster_cut(matrix.dates, labels,
                              cfg.out_dir / "two_cluster_cut.csv")
    for name in ("dendrogram.csv", "dendrogram.json", "two_cluster_cut.csv"):
        _emit(cfg.out_dir / name)


def cmd_all(cfg):
    wanted = {}
    for what, days in (("norm", cfg.correlation_days), ("lambda1", cfg.spectral_days),
                       ("sigma", cfg.inconsistency_days), ("sigma", cfg.volatility_days)):
        wanted.setdefault(days, set()).add(what)
    inputs = _load_inputs(cfg, wanted)
    for command in (cmd_correlation, cmd_spectral, cmd_inconsistency, cmd_dispersion):
        command(cfg, inputs)


_COMMANDS = {
    "fetch": cmd_fetch,
    "correlation": cmd_correlation,
    "spectral": cmd_spectral,
    "inconsistency": cmd_inconsistency,
    "dispersion": cmd_dispersion,
    "all": cmd_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _prepare_out_dir(cfg)
        _COMMANDS[args.command](cfg)
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
