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
    TrendSeries,
    COHORT_METRICS,
)
from .fileio import _write_csv
from .model import ScoreCard

Pathish = Union[str, Path]

SCORECARD_COLUMNS = [
    "pi_id", "period_start", "period_end", "paper_count",
    "o_raw", "o_weighted", "t_equiv", "efficiency", "leadership", "l_fund",
]
COHORT_COLUMNS = ["grouping", "group", "n", "metric", "mean", "sd", "p", "mark"]
BIN_COLUMNS = ["step", "center", "mean_leadership", "count"]
BIN_EXCLUDED_COLUMNS = ["t", "leadership", "reason"]
TREND_COLUMNS = ["year", "n", "leadership", "o_weighted", "efficiency", "t_equiv"]
CORRELATION_COLUMNS = ["group", "n", "r", "p", "mark"]


def fmt_float(value: Optional[float]) -> str:
    """6 significant digits; empty string for absent values."""
    if value is None:
        return ""
    return f"{value:.6g}"


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def _write_rows(path: Path, columns: Sequence[str], rows: list[dict], fmt: str) -> Path:
    if fmt == "csv":
        _write_csv(path.with_suffix(".csv"), columns, ([
            fmt_float(row[c]) if isinstance(row[c], float) else
            ("" if row[c] is None else row[c])
            for c in columns
        ] for row in rows))
        return path.with_suffix(".csv")
    if fmt == "json":
        payload = [{c: _json_value(row[c]) for c in columns} for row in rows]
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        return path.with_suffix(".json")
    raise ValueError(f"unknown report format {fmt!r}")


def _write_plot(path: Path, rows: list[Sequence]) -> Path:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write("\t".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row))
            f.write("\n")
    return path


def emit_scorecards(cards: Sequence[ScoreCard], out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for card in sorted(cards, key=lambda c: c.pi_id):
        rows.append({
            "pi_id": card.pi_id,
            "period_start": card.period[0],
            "period_end": card.period[1],
            "paper_count": card.paper_count,
            "o_raw": card.o_raw,
            "o_weighted": card.o_weighted,
            "t_equiv": card.t_equiv,
            "efficiency": card.efficiency,
            "leadership": card.leadership,
            "l_fund": card.l_fund,
        })
    return [_write_rows(out_dir / "scorecards", SCORECARD_COLUMNS, rows, fmt)]


def emit_cohort(report: CohortReport, out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for summary in report.groups:
        for metric in COHORT_METRICS:
            m = summary.metrics[metric]
            rows.append({
                "grouping": report.grouping.value,
                "group": summary.group,
                "n": summary.n,
                "metric": metric,
                "mean": m.mean,
                "sd": m.sd,
                "p": m.p,
                "mark": m.mark,
            })
    name = f"cohort_{report.grouping.value}"
    return [_write_rows(out_dir / name, COHORT_COLUMNS, rows, fmt)]


def emit_bins(series: BinSeries, out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        {"step": series.step, "center": b.center,
         "mean_leadership": b.mean_leadership, "count": b.count}
        for b in series.bins
    ]
    excluded = [
        {"t": e.t, "leadership": e.leadership, "reason": e.reason}
        for e in series.excluded
    ]
    paths = [
        _write_rows(out_dir / "bins", BIN_COLUMNS, rows, fmt),
        _write_rows(out_dir / "bins_excluded", BIN_EXCLUDED_COLUMNS, excluded, fmt),
        _write_plot(out_dir / "bins.tsv",
                    [(b.center, b.mean_leadership) for b in series.bins]),
    ]
    return paths


def emit_trend(series: TrendSeries, out_dir: Pathish, fmt: str = "csv") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        {"year": p.year, "n": p.n, "leadership": p.leadership,
         "o_weighted": p.o_weighted, "efficiency": p.efficiency, "t_equiv": p.t_equiv}
        for p in series.points
    ]
    paths = [_write_rows(out_dir / "trend", TREND_COLUMNS, rows, fmt)]
    for metric in ("leadership", "o_weighted", "efficiency", "t_equiv"):
        plot_rows = [
            (p.year, getattr(p, metric)) for p in series.points
            if getattr(p, metric) is not None
        ]
        paths.append(_write_plot(out_dir / f"trend_{metric}.tsv", plot_rows))
    return paths


def emit_correlations(
    rows: Sequence[CorrelationRow],
    samples: Sequence[tuple[float, float, int]],
    out_dir: Pathish,
    fmt: str = "csv",
) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = [
        {"group": r.group, "n": r.n, "r": r.r, "p": r.p, "mark": r.mark}
        for r in rows
    ]
    return [
        _write_rows(out_dir / "correlations", CORRELATION_COLUMNS, table, fmt),
        _write_plot(out_dir / "funding_scatter.tsv", [list(s) for s in samples]),
    ]
