"""Benchmark-adjusted structural break detection for fund style analysis.

The library detects dates at which an equity fund's style-factor
exposures shifted relative to its benchmark, classifies each resulting
regime into a nine-cell size/value style box, grades every break's
intensity (Rotation, Drift, Strengthen, Weaken, Unchanged) and
attributes risk-adjusted performance to break-count groups. A
deterministic synthetic generator plants regimes with known ground
truth for end-to-end verification, and the ``fundshift`` CLI wraps the
whole pipeline.
"""

from .breaks import (
    DEFAULT_TRIM,
    BreakDetectionError,
    BreakSet,
    Partition,
    SsrTable,
    build_ssr_table,
    default_h,
    filter_short_regimes,
    max_breaks_bound,
    optimal_partition,
    optimal_partitions,
    select_break_count,
    ssr_table_from_arrays,
)
from .marketdata import (
    MIN_ALIGNED_OBS,
    AlignedSample,
    BenchmarkMap,
    FactorPanel,
    MarketDataError,
    NavSeries,
    ReturnSeries,
    align,
    compute_returns,
    parse_benchmark_map_csv,
    parse_factor_csv,
    parse_nav_csv,
    write_benchmark_map_csv,
    write_factor_csv,
    write_nav_csv,
)
from .perf import (
    TRADING_DAYS_PER_YEAR,
    FundMetrics,
    PerfError,
    annualized_metrics,
    break_histogram,
    decile_analysis,
    group_by_break_count,
    pre_post_compare,
)
from .pipeline import (
    AnalysisConfig,
    ConfigError,
    FundRecord,
    analyze_fund,
    build_report,
    render_table,
)
from .regress import (
    DEFAULT_SIG_LEVEL,
    FactorLoading,
    RegressionError,
    RegressionResult,
    fit_benchmark_adjusted,
    fit_carhart,
    fit_ff3,
    nw_bandwidth,
    ols,
    subsample,
)
from .stylebox import (
    STYLE_BOX_LABELS,
    STYLE_BOX_ORDER,
    BreakShift,
    FactorState,
    FactorShift,
    IntensityClass,
    RegimeStyle,
    SizeClass,
    StyleBox,
    StyleError,
    ValueClass,
    accumulate_transitions,
    classify_factor_shift,
    classify_size,
    classify_value,
    fund_shift_intensity,
    grade_breaks,
    regime_styles,
    style_of,
)
from .synth import (
    BenchmarkSpec,
    FactorVols,
    FundSpec,
    PlantedTruth,
    RegimeSpec,
    SimSpec,
    SynthError,
    gen_benchmark,
    gen_factors,
    gen_fund,
    parse_sim_spec,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # marketdata
    "MIN_ALIGNED_OBS", "AlignedSample", "BenchmarkMap", "FactorPanel",
    "MarketDataError", "NavSeries", "ReturnSeries", "align", "compute_returns",
    "parse_benchmark_map_csv", "parse_factor_csv", "parse_nav_csv",
    "write_benchmark_map_csv", "write_factor_csv", "write_nav_csv",
    # regress
    "DEFAULT_SIG_LEVEL", "FactorLoading", "RegressionError", "RegressionResult",
    "fit_benchmark_adjusted", "fit_carhart", "fit_ff3", "nw_bandwidth", "ols",
    "subsample",
    # breaks
    "DEFAULT_TRIM", "BreakDetectionError", "BreakSet",
    "Partition", "SsrTable", "build_ssr_table", "default_h",
    "filter_short_regimes", "max_breaks_bound", "optimal_partition", "optimal_partitions",
    "select_break_count",
    "ssr_table_from_arrays",
    # stylebox
    "STYLE_BOX_LABELS", "STYLE_BOX_ORDER", "BreakShift", "FactorState",
    "FactorShift", "IntensityClass", "RegimeStyle", "SizeClass", "StyleBox",
    "StyleError", "ValueClass", "accumulate_transitions",
    "classify_factor_shift", "classify_size", "classify_value",
    "fund_shift_intensity", "grade_breaks", "regime_styles", "style_of",
    # perf
    "TRADING_DAYS_PER_YEAR", "FundMetrics", "PerfError",
    "annualized_metrics", "break_histogram", "decile_analysis",
    "group_by_break_count", "pre_post_compare",
    # synth
    "BenchmarkSpec", "FactorVols", "FundSpec", "PlantedTruth", "RegimeSpec",
    "SimSpec", "SynthError", "gen_benchmark", "gen_factors", "gen_fund",
    "parse_sim_spec", "run_simulation",
    # pipeline
    "AnalysisConfig", "ConfigError", "FundRecord", "analyze_fund", "build_report",
    "render_table",
]
