"""Rolling-correlation, market-mode, inconsistency and volatility-dispersion
analytics for daily asset panels."""

from .correlation import (
    CorrelationMatrix,
    NormSeries,
    ReturnsPanel,
    correlation_matrix,
    log_returns,
    period_entry_stats,
    rolling_norm_series,
    smooth_series,
)
from .dispersion import (
    Dendrogram,
    DispersionMatrix,
    cut_clusters,
    dispersion_matrix,
    hierarchical_cluster,
    two_cluster_cut,
    variance_series,
)
from .errors import (
    AnalysisError,
    ConfigError,
    DegenerateDataError,
    EmptyPanelError,
    GapError,
    InputError,
    NumericalError,
    ParseError,
    SchemaError,
    TransportError,
)
from .inconsistency import (
    InconsistencySeries,
    VolatilityPanel,
    inconsistency_norms,
    rolling_volatility,
)
from .panel import (
    AssetMeta,
    Period,
    PeriodPartition,
    PricePanel,
    default_periods,
    load_panel_with_report,
    write_panel,
)
from .simulate import simulated_market, write_simulated_dataset
from .spectral import (
    MarketSizeSeries,
    SpectralSeries,
    lambda1_series,
    rolling_market_size,
    series_correlation,
)
from .turning_points import (
    TurningPoint,
    TurningPointParams,
    TurningPointSequence,
    detect_candidates,
    find_turning_points,
    min_adjust,
    refine,
)

__version__ = "0.1.0"
