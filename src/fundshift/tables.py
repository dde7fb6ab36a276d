"""The report's aggregate tables: the count tables' arithmetic, and CSV or Markdown text.

``break_histogram`` and ``transitions`` build the count tables of a report,
and ``render_table`` prints any table from the report's JSON, checking the
count tables against those builders. This module imports only the standard
library, so ``fundshift report`` loads neither numpy nor scipy.
"""

from __future__ import annotations

import csv
import io
import math

#: Columns of the performance-by-breaks table, in order: the bucket, its
#: fund and break counts, then the equal-weighted mean of each metric.
GROUP_COLUMNS = (
    "group",
    "funds",
    "breaks",
    "excess_return_pa",
    "stdev_pa",
    "sharpe_pa",
    "ff3_alpha_pa",
    "agt_alpha_pa",
)


def write_csv(rows) -> str:
    """CSV text of ``rows``, quoting the cells that need it, such as ids with commas."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def break_histogram(funds: list[int]) -> dict:
    """The histogram of ``funds[m]`` funds with m breaks; its totals cover m >= 1."""
    rows = [{"n_breaks": m, "funds": count, "breaks": m * count} for m, count in enumerate(funds)]
    return {"rows": rows, "total_funds_with_breaks": sum(funds[1:]),
            "total_breaks": sum(r["breaks"] for r in rows)}


def transitions(labels: list[str], counts: list[list[int]]) -> dict:
    """The matrix ``counts[i][j]`` of label i followed by label j, with its grand total."""
    return {"labels": labels, "counts": counts, "grand_total": sum(map(sum, counts))}


def _render(header: list[str], rows: list[list[str]], fmt: str) -> str:
    # Cells may hold fund ids, which are file-name stems and can contain
    # the format's own separators; header cells may hold report labels.
    if fmt == "csv":
        return write_csv([header, *rows])
    lines = [header, ["---"] * len(header), *rows]
    return "".join("| " + " | ".join(c.replace("|", "\\|") for c in row) + " |\n" for row in lines)


def _label(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"table cell {value!r} is not a string")
    return value


def _count(value) -> str:
    if type(value) is not int or value < 0:
        raise TypeError(f"table cell {value!r} is not a count")
    return str(value)


def _metric(value) -> str:
    """A metric: a float, empty where undefined (NaN before the JSON round trip, null after)."""
    if value is None:
        return ""
    if not isinstance(value, float):
        raise TypeError(f"table cell {value!r} is not a metric")
    return repr(value) if math.isfinite(value) else ""


def _render_breaks(agg: dict, fmt: str) -> str:
    hist = agg["break_histogram"]
    rows = [[_count(r["n_breaks"]), _count(r["funds"]), _count(r["breaks"])] for r in hist["rows"]]
    rows.append(["total", _count(hist["total_funds_with_breaks"]), _count(hist["total_breaks"])])
    if hist != break_histogram([r["funds"] for r in hist["rows"]]):
        raise ValueError("break_histogram: n_breaks, breaks or totals disagree with its funds")
    return _render(["n_breaks", "funds", "breaks"], rows, fmt)


def _render_transitions(agg: dict, fmt: str) -> str:
    t = agg["transitions"]
    labels, counts = [_label(x) for x in t["labels"]], t["counts"]
    if len(counts) != len(labels) or any(len(row) != len(labels) for row in counts):
        raise ValueError(f"transitions: counts is not {len(labels)} x {len(labels)}")
    cells = [[_count(c) for c in row] for row in counts]
    if t["grand_total"] != transitions(labels, counts)["grand_total"]:
        raise ValueError(
            f"transitions: grand_total {t['grand_total']!r} is not the sum of the counts"
        )
    rows = [[label, *row, str(sum(c))] for label, row, c in zip(labels, cells, counts)]
    rows.append(["Total", *(str(sum(col)) for col in zip(*counts)), _count(t["grand_total"])])
    return _render(["style_t", *labels, "Total"], rows, fmt)


def _render_performance(agg: dict, fmt: str) -> str:
    rows = []
    for r in agg["performance_by_breaks"]["rows"]:
        group, funds, breaks, *metrics = (r[name] for name in GROUP_COLUMNS)
        rows.append([_label(group), _count(funds), _count(breaks), *map(_metric, metrics)])
    return _render(list(GROUP_COLUMNS), rows, fmt)


def _render_deciles(agg: dict, fmt: str) -> str:
    d = agg["deciles"]
    if d is None:
        return "no decile analysis (fewer than 10 funds)\n"
    rows = []
    for side in ("top", "bottom"):
        for i, fund_id in enumerate(d[f"{side}_fund_ids"], start=1):
            rows.append([f"{side}_funds", str(i), _label(fund_id)])
    for section in ("top_intensity", "bottom_intensity",
                    "top_destinations", "bottom_destinations"):
        for key, count in d[section].items():
            rows.append([section, _label(key), _count(count)])
    return _render(["section", "key", "value"], rows, fmt)


_TABLE_RENDERERS = {
    "breaks": _render_breaks,
    "transitions": _render_transitions,
    "performance": _render_performance,
    "deciles": _render_deciles,
}

#: Table names ``render_table`` accepts.
REPORT_TABLES = tuple(sorted(_TABLE_RENDERERS))


def render_table(aggregates: dict, table: str, fmt: str) -> str:
    """Render one aggregate table as ``csv`` or ``md`` (Markdown) text.

    ``aggregates`` is the dict ``pipeline.build_aggregates`` returns, before or
    after a JSON round trip. Each cell is read by its column's kind, so both
    formats accept the same reports: a label or id is a string, a count an
    int >= 0 and not a bool, a metric a float or null. Missing or misshapen
    data, a cell of another kind, a transitions matrix whose shape or total
    disagrees with its labels, or a break histogram other than ``break_histogram``
    of its funds column among them, raises LookupError, TypeError, AttributeError
    or ValueError (exit 2 in ``fundshift report``) before anything prints.
    Empty cells are undefined metrics. A format other than ``csv`` or ``md``
    raises ValueError.
    """
    if fmt not in ("csv", "md"):
        raise ValueError(f"table format must be 'csv' or 'md', got {fmt!r}")
    return _TABLE_RENDERERS[table](aggregates, fmt)
