"""fundshift benchmark: ``analyze`` and ``report`` timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload long|wide --seed N \\
        --seconds S --trace 0|1

The program runs as a batch user runs it: ``python -m fundshift.cli`` in
a fresh process per call, one process at a time, ``--jobs 1``, with
``PYTHONPATH=src`` added and the environment otherwise passed through.
Inputs come from ``fundshift simulate`` (see ``workloads.py``). Set-up
generates them before the timed loop and again after every ``report``
call, at least ``SETUP_REPEATS`` times, and reports the median as
``setup_s``.

``--trace 0`` times ``analyze`` and ``report`` processes from outside
and prints the end-to-end metrics. ``--trace 1`` runs ``analyze``
in-process with a span around every public layer call and prints the
per-layer metrics (see ``LAYER_METRICS``). Both check every output
against the planted truth and against repeats of the same call. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import machine
import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for inputs, reports and span files (git-ignored).
WORK = ROOT / ".perfbench_run"

TABLES = ("breaks", "transitions", "performance", "deciles")
FORMATS = ("csv", "md")
COMBOS = [(t, f) for t in TABLES for f in FORMATS]

#: A timed run sets up at least this many times; ``setup_s`` is the median.
SETUP_REPEATS = 11
#: Each ``analyze`` is followed by ``report`` calls for this share of its time.
REPORT_SHARE = 0.15
#: Fresh-process samples of ``import fundshift.cli`` in a traced run.
IMPORT_SAMPLES = 3

END_TO_END = {
    "analyze_s": "s",
    "analyze_cpu_s": "s",
    "fund_days_per_s": "1/s",
    "peak_rss_mb": "MB",
    "report_s": "s",
    "setup_s": "s",
}

#: Per-layer metrics of a traced run. Times are self time per ``analyze``
#: pass over the whole cohort, the unit ``analyze_s`` is in, except
#: ``pipeline.analyze_fund*`` which are per fund.
LAYER_METRICS = {
    "breaks.ssr_table_s": ("s", "build_ssr_table self time"),
    "breaks.ssr_table_mb": ("MB", "largest SSR table, values.nbytes (computed, not RSS)"),
    "breaks.ssr_cells": ("count", "admissible SSR cells per fund, from n and h"),
    "breaks.ssr_cells_useful_ratio": ("1", "share of admissible cells some partition reaches"),
    "breaks.select_s": ("s", "select_break_count on a prebuilt table"),
    "breaks.dp_levels": ("count", "sum of m over optimal_partition calls, per fund"),
    "breaks.filter_s": ("s", "filter_short_regimes self time"),
    "cli.import_s": ("s", "fresh python -c 'import fundshift.cli'"),
    "cli.render_s": ("s", "in-process main(['report', ...]) per table"),
    "cli.serialise_s": ("s", "json.dumps of the report with the CLI's settings"),
    "cli.report_bytes": ("bytes", "size of the report file"),
    "marketdata.parse_s": ("s", "parse_nav_csv, parse_factor_csv, parse_benchmark_map_csv"),
    "marketdata.align_s": ("s", "compute_returns and align"),
    "marketdata.rows": ("count", "rows parsed per pass"),
    "regress.fit_s": ("s", "full-sample fit_ff3, fit_benchmark_adjusted, fit_carhart"),
    "regress.fits": ("count", "OLS fits per fund"),
    "stylebox.regime_styles_s": ("s", "regime_styles"),
    "stylebox.grade_s": ("s", "grade_breaks and apply_style_flags"),
    "stylebox.regimes": ("count", "regimes classified per pass"),
    "perf.metrics_s": ("s", "annualized_metrics and pre_post_compare"),
    "perf.aggregate_s": ("s", "build_aggregates"),
    "pipeline.analyze_fund_s": ("s", "analyze_fund per fund, median"),
    "pipeline.analyze_fund_tail_s": ("s", "analyze_fund per fund, tail percentile (max if n < 20)"),
    "pipeline.build_report_s": ("s", "build_report"),
    "pipeline.layer_coverage": ("1", "layer self time / analyze_fund time"),
    "pipeline.trace_overhead_ratio": ("1", "traced / untraced analyze_fund time"),
}

#: Span name of each wrapped call, by the module attribute it replaces.
#: ``cli`` names are the calls ``cmd_analyze`` makes; ``pipeline`` names
#: the calls ``analyze_fund`` and ``build_report`` make.
CLI_SPANS = {
    "parse_factor_csv": "marketdata.parse",
    "parse_benchmark_map_csv": "marketdata.parse",
    "parse_nav_csv": "marketdata.parse",
    "compute_returns": "marketdata.align",
    "align": "marketdata.align",
    "build_report": "pipeline.build_report",
}
PIPELINE_SPANS = {
    "build_ssr_table": "breaks.ssr_table",
    "select_break_count": "breaks.select",
    "filter_short_regimes": "breaks.filter",
    "regime_styles": "stylebox.regime_styles",
    "grade_breaks": "stylebox.grade",
    "apply_style_flags": "stylebox.grade",
    "fit_ff3": "regress.fit",
    "fit_benchmark_adjusted": "regress.fit",
    "fit_carhart": "regress.fit",
    "annualized_metrics": "perf.metrics",
    "pre_post_compare": "perf.metrics",
    "build_aggregates": "perf.aggregate",
}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "fundshift.cli", *args]


def analyze_args(inputs: Path, out: Path, flags) -> list[str]:
    return [
        "analyze",
        "--nav", str(inputs / "nav"),
        "--factors", str(inputs / "factors.csv"),
        "--bench-map", str(inputs / "benchmark_map.csv"),
        "--bench-nav", str(inputs / "bench_nav"),
        "--out", str(out),
        "--jobs", "1",
        *flags,
    ]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Setup:
    """Generates a workload's inputs and times every generation.

    The first copy is the one the run uses. ``repeat`` generates another
    copy, checks it is byte-identical and deletes it. A timed run spreads
    its repeats over the whole loop, so ``setup_s``, their median, sees
    the same machine as the other metrics rather than one second of it.
    """

    def __init__(self, workload: str, seed: int, work: Path, cli_main, tally: Tally) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.cli_main, self.tally = cli_main, tally
        self.times: list[float] = []
        self.inputs = work / "inputs"
        self.digest = self._generate(self.inputs)

    def _generate(self, out: Path) -> str:
        start = time.perf_counter()
        workloads.generate(self.workload, self.seed, out, self.cli_main)
        self.times.append(time.perf_counter() - start)
        return tree_digest(out)

    def repeat(self) -> None:
        out = self.work / "inputs-repeat"
        self.tally.check(self._generate(out) == self.digest,
                         "set-up repeat gave different input files")
        shutil.rmtree(out)

    def median(self) -> float:
        print(f"setup_s {measure.summary(self.times)}")
        return statistics.median(self.times)


def render_in_process(cli_main, report: Path, table: str, fmt: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["report", "--in", str(report), "--table", table, "--format", fmt])
    if code != 0:
        raise RuntimeError(f"in-process report {table}/{fmt} exited {code}")
    return buf.getvalue().encode()


class TimedRun:
    """``analyze`` and ``report`` processes in a closed loop of one."""

    def __init__(self, wl, setup: Setup, work: Path, cli_main, spawner, tally: Tally) -> None:
        self.wl, self.setup, self.work, self.cli_main = wl, setup, work, cli_main
        self.inputs = setup.inputs
        self.spawner, self.tally = spawner, tally
        self.env = child_env()
        self.analyze: list[measure.ChildRun] = []
        self.reports: list[measure.ChildRun] = []
        self.report_path = work / "report.json"
        self.report_bytes: bytes | None = None
        self.expected: dict[tuple[str, str], bytes] = {}

    def run_analyze(self) -> None:
        out = self.work / "analyze-out.json"
        run, _ = self.spawner.run(
            cli_argv(*analyze_args(self.inputs, out, self.wl.analyze_flags)),
            self.env, self.work / "analyze.stdout",
        )
        self.analyze.append(run)
        if not self.tally.check(run.exit_code == 0 and out.exists(),
                                f"analyze exited {run.exit_code}"):
            return
        data = out.read_bytes()
        out.unlink()
        report = json.loads(data)
        if self.report_bytes is None:
            self.report_bytes = data
            self.report_path.write_bytes(data)
            for fund_id, error in checks.recovery_errors(report, self.inputs).items():
                self.tally.check(not error, f"{fund_id}: {error}")
            for table, fmt in COMBOS:
                self.expected[table, fmt] = render_in_process(
                    self.cli_main, self.report_path, table, fmt)
        self.tally.check(not report["skipped"], f"analyze skipped {report['skipped']}")
        self.tally.check(data == self.report_bytes, "analyze repeat differs from the first report")

    def run_report(self) -> None:
        if self.report_bytes is None:
            raise SystemExit("perfbench: no report to render; analyze failed")
        table, fmt = COMBOS[len(self.reports) % len(COMBOS)]
        run, stdout = self.spawner.run(
            cli_argv("report", "--in", str(self.report_path), "--table", table, "--format", fmt),
            self.env, self.work / "report.stdout",
        )
        self.reports.append(run)
        self.tally.check(run.exit_code == 0, f"report {table}/{fmt} exited {run.exit_code}")
        self.tally.check(stdout == self.expected[table, fmt],
                         f"report {table}/{fmt} differs from the in-process render")
        self.setup.repeat()

    def loop(self, seconds: float) -> None:
        """Fill ``seconds`` with calls, starting none that would overrun.

        Each cycle is one ``analyze`` followed by ``report`` calls for at
        least ``REPORT_SHARE`` of that analyze's time. When another cycle
        would overrun, ``report`` calls fill what is left. There are at
        least two ``analyze`` calls, so a repeat can be compared, and one
        ``report`` per table and format. Set-up is repeated after every
        ``report`` call.
        """
        deadline = time.perf_counter() + seconds
        left = lambda: deadline - time.perf_counter()
        med = lambda runs: statistics.median(r.wall_s for r in runs)
        while True:
            if len(self.analyze) < 2 or left() >= med(self.analyze) * (1 + REPORT_SHARE):
                self.run_analyze()
                spent = 0.0
                while spent < REPORT_SHARE * self.analyze[-1].wall_s:
                    self.run_report()
                    spent += self.reports[-1].wall_s
            elif len(self.reports) < len(COMBOS) or left() >= med(self.reports):
                self.run_report()
            else:
                break
        while len(self.setup.times) < SETUP_REPEATS:
            self.setup.repeat()

    def metrics(self) -> dict[str, float]:
        report = json.loads(self.report_bytes)
        fund_days = sum(f["n_obs"] for f in report["funds"])
        analyze_s = statistics.median(r.wall_s for r in self.analyze)
        for name, values in (
            ("analyze_s", [r.wall_s for r in self.analyze]),
            ("analyze_cpu_s", [r.cpu_s for r in self.analyze]),
            ("peak_rss_mb", [r.peak_rss_mb for r in self.analyze]),
            ("report_s", [r.wall_s for r in self.reports]),
        ):
            print(f"{name} {measure.summary(values)}")
        print(f"fund_days {fund_days} over {len(report['funds'])} funds")
        print(f"report sha256 {hashlib.sha256(self.report_bytes).hexdigest()}")
        return {
            "analyze_s": analyze_s,
            "analyze_cpu_s": statistics.median(r.cpu_s for r in self.analyze),
            "fund_days_per_s": fund_days / analyze_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in self.analyze),
            "report_s": statistics.median(r.wall_s for r in self.reports),
            "setup_s": self.setup.median(),
        }


def ssr_cells(n: int, h: int) -> tuple[int, int]:
    """Admissible SSR cells, and those some partition can reach.

    A segment (i, j) is admissible when j - i + 1 >= h. It can appear in
    a partition only if it starts at 0 or at i >= h, and ends at n-1 or
    at j <= n-h-1.
    """
    admissible = (n - h + 1) * (n - h + 2) // 2
    useful = 0
    for i in [0, *range(h, n - h + 1)]:
        useful += max(0, n - 2 * h - i + 1) + 1
    return admissible, useful


class TracedRun:
    """In-process ``main(['analyze', ...])`` with spans around layer calls."""

    def __init__(self, wl, inputs: Path, work: Path, spawner, tally: Tally) -> None:
        from fundshift import breaks, cli, pipeline, regress

        self.wl, self.inputs, self.work = wl, inputs, work
        self.spawner, self.tally = spawner, tally
        self.cli = cli
        self.tracer = tr = spans.Tracer()
        self.passes: list[tuple[int, int]] = []
        self.pass_s: list[float] = []
        self.untraced_s: list[float] = []
        self.tables: list[tuple[int, int, int]] = []
        self.rows = 0
        self.report = None
        self.report_path = work / "traced-report.json"

        original = pipeline.analyze_fund
        traced = tr.span("pipeline.analyze_fund", original, lambda a: a[0].fund_id)

        def untraced(args):
            with tr.pause():
                start = time.perf_counter()
                record = original(*args)
                self.untraced_s.append(time.perf_counter() - start)
            return record

        def analyze_fund(*args):
            # Each fund runs traced and untraced; the records must be identical.
            # The order alternates, so neither run always finds memory warm.
            untraced_first = len(self.untraced_s) % 2 == 1
            reference = untraced(args) if untraced_first else None
            record = traced(*args)
            if not untraced_first:
                reference = untraced(args)
            dump = lambda r: json.dumps(pipeline.fund_record_dict(r), sort_keys=True)
            tally.check(dump(record) == dump(reference),
                        f"{record.fund_id}: traced record differs from analyze_fund's")
            return record

        def count_rows(result, args):
            self.rows += len(getattr(result, "dates", None) or getattr(result, "entries", ()))

        def keep_report(result, args):
            self.report = result

        def table_size(table, args):
            self.tables.append((table.n, table.h, table.values.nbytes))

        fund_of = {
            "parse_nav_csv": lambda a: a[1],
            "compute_returns": lambda a: a[0].fund_id,
            "align": lambda a: a[0].series_id,
        }
        on_result = {
            "parse_factor_csv": count_rows,
            "parse_benchmark_map_csv": count_rows,
            "parse_nav_csv": count_rows,
            "build_report": keep_report,
            "build_ssr_table": table_size,
        }
        self.patches = [
            (module, attr, tr.span(name, getattr(module, attr), fund_of.get(attr),
                                   on_result.get(attr)))
            for module, names in ((cli, CLI_SPANS), (pipeline, PIPELINE_SPANS))
            for attr, name in names.items()
        ]
        self.patches += [
            (cli, "analyze_fund", analyze_fund),
            (breaks, "optimal_partition",
             tr.counter("breaks.dp_levels", breaks.optimal_partition, lambda a: a[1])),
            (regress, "ols", tr.counter("regress.fits", regress.ols)),
        ]

    def run_pass(self) -> None:
        out = self.report_path
        first = len(self.tracer.spans)
        with spans.installed(self.patches):
            code = self.cli.main(analyze_args(self.inputs, out, self.wl.analyze_flags))
        self.passes.append((first, len(self.tracer.spans)))
        if not self.tally.check(code == 0, f"in-process analyze exited {code}"):
            return
        data = out.read_bytes()
        expect = json.dumps(self.report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        self.tally.check(data == expect.encode(), "report file differs from the serialised report")
        self.tally.check(not self.report["skipped"], f"skipped {self.report['skipped']}")

    def loop(self, seconds: float) -> None:
        """Traced passes until the next one would overrun ``seconds`` (at least one)."""
        deadline = time.perf_counter() + seconds
        while not self.pass_s or time.perf_counter() + statistics.median(self.pass_s) <= deadline:
            start = time.perf_counter()
            self.run_pass()
            self.pass_s.append(time.perf_counter() - start)

    def metrics(self) -> dict[str, float]:
        tr = self.tracer
        selfs = tr.self_times()
        per_pass: dict[str, list[float]] = {}
        for first, last in self.passes:
            sums: dict[str, float] = {}
            for span in tr.spans[first:last]:
                key = span.name + "_s"
                sums[key] = sums.get(key, 0.0) + selfs[span.id]
            for key, value in sums.items():
                per_pass.setdefault(key, []).append(value)
        funds = [s for s in tr.spans if s.name == "pipeline.analyze_fund"]
        fund_s = [s.duration for s in funds]
        fund_total = sum(fund_s)
        npasses = len(self.passes)
        nfunds = len(funds)
        cells = [ssr_cells(n, h) for n, h, _ in self.tables]
        build_report_s = [s.duration for s in tr.spans if s.name == "pipeline.build_report"]

        env = child_env()
        imports = [
            self.spawner.run([sys.executable, "-c", "import fundshift.cli"], env,
                             self.work / "import.stdout")[0]
            for _ in range(IMPORT_SAMPLES)
        ]
        for run in imports:
            self.tally.check(run.exit_code == 0, f"import exited {run.exit_code}")
        render = []
        for table, fmt in COMBOS:
            start = time.perf_counter()
            render_in_process(self.cli.main, self.report_path, table, fmt)
            render.append(time.perf_counter() - start)
        serialise = []
        for _ in range(3):
            start = time.perf_counter()
            json.dumps(self.report, sort_keys=True, indent=2, allow_nan=False)
            serialise.append(time.perf_counter() - start)

        med = lambda key: statistics.median(per_pass.get(key, [0.0]))
        out = {
            "breaks.ssr_table_s": med("breaks.ssr_table_s"),
            "breaks.ssr_table_mb": max(b for _, _, b in self.tables) / 1e6,
            "breaks.ssr_cells": sum(a for a, _ in cells) / len(cells),
            "breaks.ssr_cells_useful_ratio": sum(u for _, u in cells) / sum(a for a, _ in cells),
            "breaks.select_s": med("breaks.select_s"),
            "breaks.dp_levels": tr.counts["breaks.dp_levels"] / nfunds,
            "breaks.filter_s": med("breaks.filter_s"),
            "cli.import_s": statistics.median(r.wall_s for r in imports),
            "cli.render_s": statistics.median(render),
            "cli.serialise_s": statistics.median(serialise),
            "cli.report_bytes": self.report_path.stat().st_size,
            "marketdata.parse_s": med("marketdata.parse_s"),
            "marketdata.align_s": med("marketdata.align_s"),
            "marketdata.rows": self.rows / npasses,
            "regress.fit_s": med("regress.fit_s"),
            "regress.fits": tr.counts["regress.fits"] / nfunds,
            "stylebox.regime_styles_s": med("stylebox.regime_styles_s"),
            "stylebox.grade_s": med("stylebox.grade_s"),
            "stylebox.regimes": sum(len(f["regimes"]) for f in self.report["funds"]),
            "perf.metrics_s": med("perf.metrics_s"),
            "perf.aggregate_s": med("perf.aggregate_s"),
            "pipeline.analyze_fund_s": statistics.median(fund_s),
            "pipeline.analyze_fund_tail_s": (measure.tail_percentile(fund_s) or ("", max(fund_s)))[1],
            "pipeline.build_report_s": statistics.median(build_report_s),
            "pipeline.layer_coverage":
                1.0 - sum(selfs[s.id] for s in funds) / fund_total,
            "pipeline.trace_overhead_ratio": fund_total / sum(self.untraced_s),
        }
        print(f"passes {npasses}, funds analysed {nfunds}")
        print(f"pipeline.analyze_fund_s {measure.summary(fund_s)}")
        print(f"cli.import_s {measure.summary([r.wall_s for r in imports])}")
        ingest = out["marketdata.parse_s"] + out["marketdata.align_s"]
        # A pass also re-runs every fund untraced; that part is not analyze's.
        traced_pass = statistics.median(self.pass_s) - sum(self.untraced_s) / npasses
        share = ingest / traced_pass
        print(f"marketdata parse+align {ingest:.4f} s per pass, about {share:.1%} of "
              "analyze: a gain there sits below the noise bound of analyze_s")
        return out


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fundshift" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'fundshift'} not found; run from a fundshift checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fundshift import cli

    wl = workloads.WORKLOADS[args.workload]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine {json.dumps(machine.facts(), sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK))
    tally = Tally()
    try:
        with measure.Spawner() as spawner:
            setup = Setup(wl.name, args.seed, work, cli.main, tally)
            if args.trace:
                run = TracedRun(wl, setup.inputs, work, spawner, tally)
                run.loop(args.seconds)
                metrics = run.metrics()
                units = {k: u for k, (u, _) in LAYER_METRICS.items()}
                span_file = WORK / f"spans-{wl.name}-{args.seed}.jsonl"
                run.tracer.write(span_file)
                print(f"spans written to {span_file.relative_to(ROOT)}")
            else:
                run = TimedRun(wl, setup, work, cli.main, spawner, tally)
                run.loop(args.seconds)
                metrics = run.metrics()
                units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(f"failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    for name, value in metrics.items():
        note = LAYER_METRICS[name][1] if args.trace else ""
        print(f"  {name:32s} {value:.6g} {units[name]:6s} {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
