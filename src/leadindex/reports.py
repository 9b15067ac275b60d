"""Report and plot-data emission.

Every report exists as CSV or as a JSON mirror with identical field names
(list of row objects). Floats are printed with 6 significant digits, rows
are ordered deterministically (pi_id / group / bin center / year), and
plot files are headerless delimited text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Union

from .analysis import (
    BinSeries,
    CohortReport,
    CorrelationRow,
    ExcludedSample,
    MetricSummary,
    TimeBin,
    TrendPoint,
    TrendSeries,
    COHORT_METRICS,
)
from .fileio import _write_csv
from .model import ScoreCard

Pathish = Union[str, Path]

# A scorecard's period is written as two columns. Every other report row is
# an analysis row type, written in its field order, alone or behind a prefix.
SCORECARD_COLUMNS = [
    "pi_id", "period_start", "period_end", "paper_count",
    "o_raw", "o_weighted", "t_equiv", "efficiency", "leadership", "l_fund",
]
COHORT_COLUMNS = ["grouping", "group", "n", "metric", *MetricSummary._fields]
BIN_COLUMNS = ["step", *TimeBin._fields]


def fmt_float(value: Optional[float]) -> str:
    """6 significant digits; empty string for absent values."""
    if value is None:
        return ""
    return f"{value:.6g}"


def _target(out_dir: Pathish, name: str) -> Path:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return Path(out_dir) / name


def _write_rows(out_dir: Pathish, name: str, columns: Sequence[str],
                rows: Sequence[tuple], fmt: str) -> Path:
    """Write tuples in ``columns`` order as name.csv or as name.json objects."""
    if fmt == "csv":
        path = _target(out_dir, f"{name}.csv")
        _write_csv(path, columns, (
            [fmt_float(v) if isinstance(v, float) else v for v in row] for row in rows
        ))
    elif fmt == "json":
        path = _target(out_dir, f"{name}.json")
        payload = [{c: float(fmt_float(v)) if isinstance(v, float) else v
                    for c, v in zip(columns, row)} for row in rows]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def _write_plot(out_dir: Pathish, name: str, rows: list[Sequence]) -> Path:
    path = _target(out_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write("\t".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row))
            f.write("\n")
    return path


def emit_scorecards(cards: Sequence[ScoreCard], out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    rows = [
        (c.pi_id, *c.period, c.paper_count, c.o_raw, c.o_weighted, c.t_equiv,
         c.efficiency, c.leadership, c.l_fund)
        for c in sorted(cards, key=lambda c: c.pi_id)
    ]
    return [_write_rows(out_dir, "scorecards", SCORECARD_COLUMNS, rows, fmt)]


def emit_cohort(report: CohortReport, out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    grouping = report.grouping.value
    rows = [(grouping, s.group, s.n, metric, *s.metrics[metric])
            for s in report.groups for metric in COHORT_METRICS]
    return [_write_rows(out_dir, f"cohort_{grouping}", COHORT_COLUMNS, rows, fmt)]


def emit_bins(series: BinSeries, out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    rows = [(series.step, *b) for b in series.bins]
    return [
        _write_rows(out_dir, "bins", BIN_COLUMNS, rows, fmt),
        _write_rows(out_dir, "bins_excluded", ExcludedSample._fields, series.excluded, fmt),
        _write_plot(out_dir, "bins.tsv", [row[1:3] for row in rows]),
    ]


def emit_trend(series: TrendSeries, out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    paths = [_write_rows(out_dir, "trend", TrendPoint._fields, series.points, fmt)]
    for i, metric in enumerate(TrendPoint._fields[2:], start=2):
        plot_rows = [(p.year, p[i]) for p in series.points if p[i] is not None]
        paths.append(_write_plot(out_dir, f"trend_{metric}.tsv", plot_rows))
    return paths


def emit_correlations(
    rows: Sequence[CorrelationRow],
    samples: Sequence[tuple[float, float, int]],
    out_dir: Pathish,
    fmt: str = "csv",
) -> list[Path]:
    return [
        _write_rows(out_dir, "correlations", CorrelationRow._fields, rows, fmt),
        _write_plot(out_dir, "funding_scatter.tsv", samples),
    ]
