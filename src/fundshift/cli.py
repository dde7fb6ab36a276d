"""Command-line front end.

Three subcommands cover the whole workflow:

* ``fundshift simulate`` renders a JSON simulation spec into NAV,
  benchmark, factor and map files plus the planted ground truth,
* ``fundshift analyze`` runs the detection/classification/metrics
  pipeline over a directory of funds and writes one JSON report,
* ``fundshift report`` renders an aggregate table (breaks,
  transitions, performance, deciles) from a report file as CSV or
  Markdown.

Exit codes are stable: 0 success, 2 usage or configuration error,
3 I/O error, 4 analysis produced no analyzable fund. The env var
``FUNDSHIFT_LOG`` (DEBUG/INFO/WARNING/ERROR) controls verbosity. All
output files are written atomically (temp file, then rename) and are
byte-identical across reruns on identical inputs.

At import the module loads only the standard library and ``tables``.
``simulate`` and ``analyze`` load ``marketdata`` and ``logging`` when they
run, ``analyze`` the analysis stack and ``simulate`` the generator, so
``report``, ``--help`` and ``--version`` load none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .tables import REPORT_TABLES, render_table

if TYPE_CHECKING:
    from .marketdata import (
        MarketDataError, ReturnSeries, align, compute_returns, parse_benchmark_map_csv,
        parse_factor_csv, parse_nav_csv, write_benchmark_map_csv, write_factor_csv, write_nav_csv,
    )
    from .pipeline import AnalysisConfig, ConfigError, analyze_fund, build_report, search_breaks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4

#: The names ``simulate`` and ``analyze`` use, each with the module that
#: defines it. They are attributes of this module, loaded on first use, so
#: ``report`` loads neither module and a caller can wrap them before a run.
_LAZY = {
    **dict.fromkeys(("MarketDataError", "align", "compute_returns", "parse_benchmark_map_csv",
                     "parse_factor_csv", "parse_nav_csv", "write_benchmark_map_csv",
                     "write_factor_csv", "write_nav_csv"), "marketdata"),
    **dict.fromkeys(("AnalysisConfig", "ConfigError", "analyze_fund", "build_report",
                     "search_breaks"), "pipeline"),
}


def _load(module: str) -> None:
    """Import ``module`` and set its ``_LAZY`` names here, keeping any already set.

    If the pipeline loads before numpy, OpenBLAS defaults to one thread:
    the search's solves are at most five columns wide, where a second
    thread only adds overhead. A user's own setting wins, and a caller
    that loaded numpy first keeps the environment it has.
    """
    if module == "pipeline" and "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    source = import_module(f".{module}", __package__)
    for name, home in _LAZY.items():
        if home == module:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if name in _LAZY:
        _load(_LAZY[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _logger():
    """The ``fundshift`` logger, at the ``FUNDSHIFT_LOG`` level unless logging is already set up."""
    import logging

    level = getattr(logging, os.environ.get("FUNDSHIFT_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    return logging.getLogger("fundshift")


def _fail(message: str, code: int) -> int:
    print(f"fundshift: error: {message}", file=sys.stderr)
    return code


def _atomic_write(path: Path, data: str | dict) -> None:
    """Write a string, or stream any other ``data`` as JSON, to ``path`` via a temp file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                json.dump(data, fh, sort_keys=True, indent=2, allow_nan=False)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: Path) -> str:
    """Contents of a UTF-8 input file; other bytes raise MarketDataError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        _load("marketdata")
        raise MarketDataError(
            f"{path.name}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def cmd_simulate(args: argparse.Namespace) -> int:
    _load("marketdata")
    from .synth import SynthError, parse_sim_spec, run_simulation, truth_to_dict

    spec_path = Path(args.spec)
    try:
        text = _read_text(spec_path)
    except OSError as exc:
        return _fail(f"cannot read spec file: {exc}", EXIT_IO)
    except MarketDataError as exc:
        return _fail(f"invalid simulation spec: {exc}", EXIT_CONFIG)
    try:
        spec = parse_sim_spec(json.loads(text))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and SynthError, the plain ValueError json.loads
        # raises for an integer literal of more than 4300 digits, and the
        # RecursionError of arrays or objects nested too deep to read.
        return _fail(f"invalid simulation spec: {exc}", EXIT_CONFIG)

    try:
        sim = run_simulation(spec, seed=args.seed)
    except SynthError as exc:
        return _fail(f"simulation failed: {exc}", EXIT_CONFIG)

    out = Path(args.out)
    # Every file shares the factor calendar, so each date is formatted once.
    iso: dict = {}
    try:
        for nav in sim.funds:
            _atomic_write(out / "nav" / f"{nav.fund_id}.csv", write_nav_csv(nav, iso))
        for nav in sim.benchmarks:
            _atomic_write(out / "bench_nav" / f"{nav.fund_id}.csv", write_nav_csv(nav, iso))
        _atomic_write(out / "factors.csv", write_factor_csv(sim.factors, iso))
        _atomic_write(out / "benchmark_map.csv", write_benchmark_map_csv(sim.benchmark_map))
        truths = [truth_to_dict(f) for f in sorted(spec.funds, key=lambda f: f.fund_id)]
        _atomic_write(out / "truth.json", {"seed": sim.seed, "funds": truths})
    except OSError as exc:
        return _fail(f"cannot write outputs: {exc}", EXIT_IO)

    _logger().info("simulated %d funds into %s", len(sim.funds), out)
    return EXIT_OK


def _skip(skipped: list[tuple[str, str]], fund_id: str, reason: str) -> None:
    _logger().warning("skipping %s: %s", fund_id, reason)
    skipped.append((fund_id, reason))


def _read_samples(fund_paths, bmap, factors, bench_dir: Path) -> tuple[list, list]:
    """Each readable fund's aligned sample, and ``(fund_id, reason)`` per fund skipped."""
    samples = []
    skipped: list[tuple[str, str]] = []
    # Each benchmark is read when a fund first needs it; its returns, or
    # the reason it is unusable, serve every other fund that uses it.
    benchmarks: dict[str, ReturnSeries | str] = {}
    # Funds on one calendar with one benchmark share its dates and columns.
    calendars: dict = {}
    for path in fund_paths:
        fund_id = path.stem
        bench_id = bmap.benchmark_for(fund_id)
        if bench_id is not None and bench_id not in benchmarks:
            try:
                nav = parse_nav_csv(_read_text(bench_dir / f"{bench_id}.csv"), bench_id)
                benchmarks[bench_id] = compute_returns(nav)
            except (OSError, MarketDataError) as exc:
                benchmarks[bench_id] = f"benchmark {bench_id}: {exc}"
        bench = benchmarks.get(bench_id, "no benchmark")
        if isinstance(bench, str):
            _skip(skipped, fund_id, bench)
            continue
        try:
            nav = parse_nav_csv(_read_text(path), fund_id)
            samples.append(align(compute_returns(nav), bench, factors, calendars))
        except (ValueError, OSError) as exc:
            _skip(skipped, fund_id, str(exc))
    return samples, skipped


def cmd_analyze(args: argparse.Namespace) -> int:
    _load("marketdata")
    _load("pipeline")
    # A flag left out keeps AnalysisConfig's default.
    given = {"sig_level": args.sig, "trim": args.trim, "max_breaks": args.max_breaks,
             "min_regime_obs": args.min_regime_obs}
    try:
        config = AnalysisConfig(
            **{name: value for name, value in given.items() if value is not None},
            hac=args.hac,
            carhart=args.carhart,
        )
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    if args.jobs < 1:
        return _fail(f"--jobs must be >= 1, got {args.jobs}", EXIT_CONFIG)

    try:
        factors = parse_factor_csv(_read_text(Path(args.factors)))
        bmap = parse_benchmark_map_csv(_read_text(Path(args.bench_map)))
    except OSError as exc:
        return _fail(f"cannot read input: {exc}", EXIT_IO)
    except MarketDataError as exc:
        return _fail(f"bad input file: {exc}", EXIT_CONFIG)
    if config.carhart and not factors.has_mom:
        return _fail("--carhart requires a mom column in the factor file", EXIT_CONFIG)

    nav_dir = Path(args.nav)
    try:
        fund_paths = sorted(p for p in nav_dir.iterdir() if p.suffix == ".csv")
    except OSError as exc:
        return _fail(f"cannot list NAV directory: {exc}", EXIT_IO)

    # Parsed inputs hold a Python object per value. The helper's locals die when
    # it returns and the panel and map go here, so none lives through the search.
    samples, skipped = _read_samples(fund_paths, bmap, factors, Path(args.bench_nav))
    del factors, bmap

    # Equal-length funds share one break search; each fund then runs on alone.
    searched, failed = search_breaks(samples, config)
    for fund_id, reason in failed:
        _skip(skipped, fund_id, reason)
    log = _logger()
    records = []
    for fund in searched:
        try:
            record = analyze_fund(fund, config)
        except ValueError as exc:
            _skip(skipped, fund.fund_id, str(exc))
            continue
        log.info("analyzed %s: %d break(s)", fund.fund_id, record.break_set.chosen_m)
        records.append(record)

    if not records:
        return _fail("no analyzable fund", EXIT_EMPTY)

    report = build_report(records, skipped, config, version=__version__)
    try:
        _atomic_write(Path(args.out), report)
    except OSError as exc:
        return _fail(f"cannot write report: {exc}", EXIT_IO)
    log.info("analyzed %d fund(s), skipped %d", len(records), len(skipped))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        text = _read_text(Path(args.report_path))
        rendered = render_table(json.loads(text)["aggregates"], args.table, args.format)
    except OSError as exc:
        return _fail(f"cannot read report: {exc}", EXIT_IO)
    except (ValueError, RecursionError, LookupError, TypeError, AttributeError) as exc:
        # ValueError and RecursionError cover bytes that are not UTF-8 and malformed
        # or too deeply nested JSON; the rest, misshapen report data.
        return _fail(f"invalid report file: {exc}", EXIT_CONFIG)
    sys.stdout.write(rendered)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundshift",
        description=(
            "Detect benchmark-adjusted structural breaks in fund style exposures, "
            "classify style regimes and attribute performance by break count."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic fixtures from a JSON spec")
    p_sim.add_argument("--spec", required=True, help="simulation spec JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="run the full pipeline over a fund directory")
    p_an.add_argument("--nav", required=True, help="directory of per-fund NAV CSVs")
    p_an.add_argument("--factors", required=True, help="factor panel CSV")
    p_an.add_argument("--bench-map", required=True, help="fund-to-benchmark map CSV")
    p_an.add_argument("--bench-nav", required=True, help="directory of benchmark NAV CSVs")
    p_an.add_argument("--out", required=True, help="output report JSON file")
    # Defaults are AnalysisConfig's, applied in cmd_analyze: reading them
    # here would load the analysis stack for every command.
    p_an.add_argument("--sig", type=float, help="significance level")
    p_an.add_argument("--trim", type=float,
                      help="minimum segment fraction, in [0.001, 0.5)")
    p_an.add_argument(
        "--max-breaks", type=int,
        help="maximum break count; default and upper bound floor(1/trim) - 1 "
        "(5 at the default trim)",
    )
    p_an.add_argument(
        "--min-regime-obs", type=int,
        help="drop breaks flanked by regimes shorter than this (500 is about 24 months)",
    )
    p_an.add_argument("--hac", action="store_true", help="Newey-West standard errors")
    p_an.add_argument("--carhart", action="store_true",
                      help="add a four-factor diagnostic fit per fund")
    p_an.add_argument("--jobs", type=int, default=1,
                      help="kept for compatibility, must be >= 1; changes nothing: all "
                      "funds run in one process, and equal-length funds share one "
                      "break search")
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="render an aggregate table from a report file")
    p_rep.add_argument("--in", dest="report_path", required=True, help="report JSON file")
    p_rep.add_argument(
        "--table", required=True, choices=REPORT_TABLES, help="table to render"
    )
    p_rep.add_argument("--format", choices=["csv", "md"], default="csv")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
