"""Cohort statistics, time-binned series, annual trends and correlations.

Everything here aggregates immutable scorecards or valued papers, so the
functions are pure. Output ordering is by group key / bin center / year,
never by input order.
"""

from __future__ import annotations

import enum
import math
from array import array
from typing import Iterable, NamedTuple, Optional, Sequence

from .credit import CreditScenario
from .errors import DataValidationError
from .metrics import _metrics, _valuer
from .model import ScoreCard, ValidatedDataset
from .stats import _welch, mean, mean_sd, pearson, significance_mark
from .toughness import ToughnessTable

# Metric keys of a scorecard as they appear in cohort reports, in report
# row order. paper_count is averaged like the rest.
COHORT_METRICS = ("paper_count", "o_raw", "o_weighted", "t_equiv", "efficiency", "leadership")

_AGE_BANDS = ((36, "Under 36"), (41, "36-40"), (46, "41-45"), (51, "46-50"),
              (56, "51-55"), (61, "56-60"))


class Grouping(enum.Enum):
    CLASS = "class"
    GENDER = "gender"
    AGE_BAND = "age_band"
    RANK = "rank"
    COUNTRY = "country"


def age_band(age: int) -> str:
    """Label for an age, inclusive lower bounds: 36 belongs to '36-40'."""
    for upper, label in _AGE_BANDS:
        if age < upper:
            return label
    return "Over 60"


class MetricSummary(NamedTuple):
    """Mean and sample SD of one metric in one group, with the significance
    mark from a Welch test against the reference group ('' when no
    comparison was made)."""

    mean: float
    sd: float
    p: Optional[float] = None
    mark: str = ""


class CohortSummary(NamedTuple):
    group: str
    n: int
    metrics: dict[str, MetricSummary]


class CohortReport(NamedTuple):
    grouping: Grouping
    groups: tuple[CohortSummary, ...]
    reference_group: Optional[str]
    unscored: int
    unknown_group: int


class TimeBin(NamedTuple):
    center: float
    mean_leadership: float
    count: int


class ExcludedSample(NamedTuple):
    t: float
    leadership: float
    reason: str


class BinSeries(NamedTuple):
    step: float
    bins: tuple[TimeBin, ...]
    excluded: tuple[ExcludedSample, ...]


class TrendPoint(NamedTuple):
    year: int
    n: int
    leadership: Optional[float]
    o_weighted: Optional[float]
    efficiency: Optional[float]
    t_equiv: Optional[float]


class TrendSeries(NamedTuple):
    span: tuple[int, int]
    points: tuple[TrendPoint, ...]


class CorrelationRow(NamedTuple):
    group: str
    n: int
    r: Optional[float]
    p: Optional[float]
    mark: str


def _group_label(
    profile, grouping: Grouping, age_reference_year: Optional[int]
) -> Optional[str]:
    if grouping is Grouping.CLASS:
        return str(profile.tier)
    if grouping is Grouping.GENDER:
        return profile.gender.value if profile.gender is not None else None
    if grouping is Grouping.RANK:
        return profile.rank.value if profile.rank is not None else None
    if grouping is Grouping.COUNTRY:
        return profile.country
    if profile.birth_year is None:
        return None
    if age_reference_year < profile.birth_year:
        raise ValueError(f"{profile.pi_id}: age reference year {age_reference_year} "
                         f"is before birth year {profile.birth_year}")
    return age_band(age_reference_year - profile.birth_year)


_BAND_ORDER = {label: i for i, (_, label) in enumerate(_AGE_BANDS)}
_BAND_ORDER["Over 60"] = len(_BAND_ORDER)


def _group_sort_key(grouping: Grouping, label: str):
    if grouping is Grouping.AGE_BAND:
        return _BAND_ORDER.get(label, len(_BAND_ORDER) + 1)
    return label


def cohort_report(
    dataset: ValidatedDataset,
    scorecards: Sequence[ScoreCard],
    grouping: Grouping,
    reference_group: Optional[str] = None,
    age_reference_year: Optional[int] = None,
) -> CohortReport:
    """Per-group mean and SD of every metric, with marks vs a reference.

    Only scored investigators with a known group label contribute; the
    excluded counts are reported. Groups are compared to reference_group
    with Welch's two-sided t-test when both sides have n >= 2; the mark is
    '**' for p < 0.01 and '*' for p < 0.05.
    """
    if grouping is Grouping.AGE_BAND and age_reference_year is None and scorecards:
        age_reference_year = scorecards[0].period[0]

    by_group: dict[str, list[ScoreCard]] = {}
    unscored = 0
    unknown = 0
    for card in scorecards:
        if not card.scored:
            unscored += 1
            continue
        profile = dataset.profiles[card.pi_id]
        label = _group_label(profile, grouping, age_reference_year)
        if label is None:
            unknown += 1
            continue
        by_group.setdefault(label, []).append(card)

    # Per group, in report order, one (n, mean, sd) per metric: each comparison
    # reads these, so the reference group's values are summed once in all.
    moments = {
        label: [(len(cards), *mean_sd([float(getattr(c, metric)) for c in cards]))
                for metric in COHORT_METRICS]
        for label, cards in sorted(by_group.items(),
                                   key=lambda item: _group_sort_key(grouping, item[0]))
    }
    reference = moments.get(reference_group)
    compare = reference is not None and reference[0][0] >= 2

    summaries = []
    for label, rows in moments.items():
        metrics: dict[str, MetricSummary] = {}
        for k, metric in enumerate(COHORT_METRICS):
            n, center, sd = rows[k]
            metrics[metric] = MetricSummary(center, sd)
            if compare and label != reference_group and n >= 2:
                _, _, p = _welch(*rows[k], *reference[k])
                metrics[metric] = MetricSummary(center, sd, p, significance_mark(p))
        summaries.append(CohortSummary(group=label, n=n, metrics=metrics))

    return CohortReport(
        grouping=grouping,
        groups=tuple(summaries),
        reference_group=reference_group,
        unscored=unscored,
        unknown_group=unknown,
    )


def bin_by_time(
    samples: Iterable[tuple[float, float]],
    step: float = 0.5,
    max_t: Optional[float] = None,
    exclude: Optional[Sequence[float]] = None,
) -> BinSeries:
    """Cluster (T, L) samples to the nearest multiple of step.

    Midpoint ties round up to the larger center. Samples whose T is in the
    exclude list (exact match) or above max_t go to the excluded list with
    a reason; everything else lands in exactly one bin.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    if max_t is not None and math.isnan(max_t):
        raise ValueError("max_t must not be NaN")
    excluded_ts = set(exclude) if exclude else set()
    if not all(map(math.isfinite, excluded_ts)):
        raise ValueError(f"exclude values must be finite, got {sorted(excluded_ts)}")

    bins: dict[int, list[float]] = {}
    excluded: list[ExcludedSample] = []
    for t, lead in samples:
        if t in excluded_ts:
            excluded.append(ExcludedSample(t, lead, "in exclusion list"))
            continue
        if max_t is not None and t > max_t:
            excluded.append(ExcludedSample(t, lead, f"t above max_t {max_t!r}"))
            continue
        scaled = t / step
        if not math.isfinite(scaled):
            raise ValueError(f"step {step!r} is too small for T {t!r}: T / step is not finite")
        index = math.floor(scaled + 0.5)
        bins.setdefault(index, []).append(lead)

    series = []
    for index in sorted(bins):
        values = bins[index]
        series.append(
            TimeBin(
                center=index * step,
                mean_leadership=mean(values),
                count=len(values),
            )
        )
    return BinSeries(step=step, bins=tuple(series), excluded=tuple(excluded))


def trend(
    dataset: ValidatedDataset,
    table: ToughnessTable,
    span: tuple[int, int],
    scenario: CreditScenario = CreditScenario.RANKED,
    country: Optional[str] = None,
    tier: Optional[int] = None,
) -> TrendSeries:
    """Year-by-year cohort means of L, O, E and T.

    Each investigator is scored on each year's papers alone; a year's point
    averages the investigators scored that year. Years where nobody
    published carry None values. country/tier restrict the cohort.
    """
    start, end = span
    if start > end:
        raise ValueError(f"span start {start} after end {end}")

    pi_ids = [
        pid
        for pid in dataset.pi_ids
        if (country is None or dataset.profiles[pid].country == country)
        and (tier is None or dataset.profiles[pid].tier == tier)
    ]

    # One pass over each investigator's papers values each once; every
    # (investigator, year) keeps only its (O', O, T, E, L) as five packed
    # doubles, so a year's k-th metric is the slice rows[k::5].
    by_year = {year: array("d") for year in range(start, end + 1)}
    valued = _valuer(dataset, table, scenario)
    for pid in pi_ids:
        papers: dict[int, list[tuple]] = {}
        for paper in valued(pid, span):
            papers.setdefault(paper[0], []).append(paper)
        for year, group in papers.items():
            by_year[year].extend(_metrics(pid, (year, year), group))

    points = []
    for year, rows in by_year.items():
        o = t = e = lead = None
        if rows:
            o, t, e, lead = (mean(rows[k::5]) for k in range(1, 5))
        points.append(TrendPoint(year=year, n=len(rows) // 5, leadership=lead,
                                 o_weighted=o, efficiency=e, t_equiv=t))
    return TrendSeries(span=span, points=tuple(points))


def funding_correlations(
    dataset: ValidatedDataset,
    scorecards: Sequence[ScoreCard],
) -> tuple[list[CorrelationRow], list[tuple[float, float, int]]]:
    """Leadership-vs-funding correlation, overall and per class.

    Includes scored investigators with a known positive funding total. All
    of them must be funded in one currency; mixing raises. Groups too small
    (n < 3) or without variance get a row with blank r and p. Returns the
    rows and the (funding, leadership, tier) scatter samples sorted by
    pi_id.
    """
    samples: list[tuple[float, float, int]] = []
    currencies: set[str] = set()
    for card in sorted(scorecards, key=lambda c: c.pi_id):
        if not card.scored:
            continue
        profile = dataset.profiles[card.pi_id]
        if profile.total_funding is None or profile.total_funding <= 0:
            continue
        currencies.add(profile.currency)
        samples.append((profile.total_funding, card.leadership, profile.tier))
    if len(currencies) > 1:
        raise DataValidationError(
            [f"funding correlation mixes currencies: {', '.join(sorted(currencies))}"]
        )

    def row(group: str, pairs: list[tuple[float, float]]) -> CorrelationRow:
        x = [f for f, _ in pairs]
        y = [l for _, l in pairs]
        try:
            r, p = pearson(x, y)
        except ValueError:
            return CorrelationRow(group=group, n=len(pairs), r=None, p=None, mark="")
        return CorrelationRow(group=group, n=len(pairs), r=r, p=p, mark=significance_mark(p))

    rows = [row("overall", [(f, l) for f, l, _ in samples])]
    for tier in sorted({t for _, _, t in samples}):
        pairs = [(f, l) for f, l, t in samples if t == tier]
        rows.append(row(str(tier), pairs))
    return rows, samples
