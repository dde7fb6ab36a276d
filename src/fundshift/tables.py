"""The report's aggregate tables as CSV or Markdown text.

``render_table`` prints one of the tables ``pipeline.build_aggregates``
puts in a report, from the report's JSON. This module imports only the
standard library, so ``fundshift report`` loads neither numpy nor scipy.
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


def _render(header: list[str], rows: list[list[str]], fmt: str) -> str:
    # Both formats take text cells only, so they accept the same reports.
    for row in (header, *rows):
        for cell in row:
            if not isinstance(cell, str):
                raise TypeError(f"table cell {cell!r} is not a string")
    # Cells may hold fund ids, which are file-name stems and can contain
    # the format's own separators.
    if fmt == "csv":
        return write_csv([header, *rows])
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    # Empty buckets average to NaN; the report stores them as null.
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return "" if value is None else str(value)


def _render_breaks(agg: dict, fmt: str) -> str:
    hist = agg["break_histogram"]
    rows = [
        [str(r["n_breaks"]), str(r["funds"]), str(r["breaks"])] for r in hist["rows"]
    ]
    rows.append(
        ["total", str(hist["total_funds_with_breaks"]), str(hist["total_breaks"])]
    )
    return _render(["n_breaks", "funds", "breaks"], rows, fmt)


def _render_transitions(agg: dict, fmt: str) -> str:
    t = agg["transitions"]
    labels, counts = t["labels"], t["counts"]
    if len(counts) != len(labels) or any(len(row) != len(labels) for row in counts):
        raise ValueError(f"transitions: counts is not {len(labels)} x {len(labels)}")
    row_totals = [sum(row) for row in counts]
    if t["grand_total"] != sum(row_totals):
        raise ValueError(
            f"transitions: grand_total {t['grand_total']!r} is not the sum of the counts"
        )
    header = ["style_t"] + labels + ["Total"]
    rows = []
    for label, row, total in zip(labels, counts, row_totals):
        rows.append([label] + [str(c) for c in row] + [str(total)])
    col_totals = [sum(row[j] for row in counts) for j in range(len(labels))]
    rows.append(["Total"] + [str(c) for c in col_totals] + [str(t["grand_total"])])
    return _render(header, rows, fmt)


def _render_performance(agg: dict, fmt: str) -> str:
    rows = []
    for r in agg["performance_by_breaks"]["rows"]:
        rows.append([_cell(r[name]) for name in GROUP_COLUMNS])
    return _render(list(GROUP_COLUMNS), rows, fmt)


def _render_deciles(agg: dict, fmt: str) -> str:
    d = agg["deciles"]
    if d is None:
        return "no decile analysis (fewer than 10 funds)\n"
    rows = []
    for i, fund_id in enumerate(d["top_fund_ids"], start=1):
        rows.append(["top_funds", str(i), fund_id])
    for i, fund_id in enumerate(d["bottom_fund_ids"], start=1):
        rows.append(["bottom_funds", str(i), fund_id])
    for section in ("top_intensity", "bottom_intensity",
                    "top_destinations", "bottom_destinations"):
        for key, count in d[section].items():
            rows.append([section, key, str(count)])
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
    after a JSON round trip; missing or misshapen data, a non-string cell or a
    transitions matrix whose shape or total disagrees with its labels among
    them, raises LookupError, TypeError, AttributeError or ValueError (exit 2
    in ``fundshift report``). Empty cells are undefined values.
    """
    return _TABLE_RENDERERS[table](aggregates, fmt)
