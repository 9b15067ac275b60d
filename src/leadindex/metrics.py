"""Per-investigator output, time, efficiency and leadership metrics.

Output O is the sum of toughness-weighted impact factors of the papers an
investigator led as corresponding author. Equivalent time T divides each
paper's value by the investigator's credit share and normalizes by O, so a
sole author always has T = 1 and larger teams push T up. Efficiency is
E = O/T and leadership is their geometric mean L = sqrt(O*E) = O/sqrt(T).

All sums use math.fsum so the algebraic identities between the three L
formulations survive large corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .credit import CreditScenario, scenario_share
from .errors import UndefinedMetricError
from .model import PublicationRecord, ScoreCard, ValidatedDataset
from .toughness import ToughnessTable, weighted_if


@dataclass(frozen=True)
class ScoredPaper:
    """One paper as it enters an investigator's metrics.

    ``value_raw`` is the journal impact factor, ``value`` its
    toughness-weighted counterpart, ``a`` the investigator's credit share.
    """

    paper_id: str
    value_raw: float
    value: float
    a: float

    def __post_init__(self):
        if self.value_raw < 0 or self.value < 0:
            raise ValueError("paper values must be >= 0")
        if not 0 < self.a <= 1:
            raise ValueError(f"credit share must be in (0, 1], got {self.a}")
        if self.value == 0 and self.value_raw != 0:
            raise ValueError("weighted value can only vanish with the raw value")


def output_raw(papers: Iterable[ScoredPaper]) -> float:
    """Unweighted output: sum of raw impact factors."""
    return math.fsum(p.value_raw for p in papers)


def output_weighted(papers: Iterable[ScoredPaper]) -> float:
    """Output O: sum of toughness-weighted impact factors."""
    return math.fsum(p.value for p in papers)


def team_output(papers: Iterable[tuple[float, float]]) -> float:
    """Output of a whole team: sum of a_i * value_i over (share, value) pairs."""
    total = []
    for a, value in papers:
        if not 0 < a <= 1:
            raise ValueError(f"credit share must be in (0, 1], got {a}")
        total.append(a * value)
    return math.fsum(total)


def equivalent_time(papers: Iterable[ScoredPaper]) -> float:
    """Equivalent managed time T = (1 / sum v_j) * sum (v_j / a_j).

    Scale-invariant in the values; equals 1 exactly when every paper is
    sole-authored. Undefined (UndefinedMetricError) when all values are
    zero.
    """
    papers = list(papers)
    total = math.fsum(p.value for p in papers)
    if total <= 0:
        raise UndefinedMetricError(
            "equivalent time undefined: no paper with positive value"
        )
    return math.fsum(p.value / p.a for p in papers) / total


def efficiency(o: float, t: float) -> float:
    """Efficiency E = O / T."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    return o / t


def leadership(o: float, e: float) -> float:
    """Leadership L: geometric mean of output and efficiency."""
    if o < 0 or e < 0:
        raise ValueError("output and efficiency must be >= 0")
    return math.sqrt(o * e)


def leadership_from_funding(o: float, funding: float) -> float:
    """Resource-based leadership variant O / sqrt(funding).

    Only meaningful when every investigator compared was funded in the
    same currency; callers enforce that.
    """
    if funding <= 0:
        raise ValueError(f"funding must be > 0, got {funding}")
    return o / math.sqrt(funding)


def _scored_paper(
    dataset: ValidatedDataset,
    rec: PublicationRecord,
    table: ToughnessTable,
    scenario: CreditScenario,
) -> ScoredPaper:
    """One corresponding-author record, valued and credited."""
    raw = dataset.resolved_if[rec.paper_id]
    return ScoredPaper(
        paper_id=rec.paper_id,
        value_raw=raw,
        value=weighted_if(table, raw),
        a=scenario_share(rec.author_count, rec.credit_position, rec.tie_span, scenario),
    )


def _card(
    dataset: ValidatedDataset,
    pi_id: str,
    period: tuple[int, int],
    papers: list[ScoredPaper],
) -> ScoreCard:
    """The card of one investigator's papers in a period; unscored when empty."""
    if not papers:
        return ScoreCard(
            pi_id=pi_id,
            period=period,
            paper_count=0,
            o_raw=None,
            o_weighted=None,
            t_equiv=None,
            efficiency=None,
            leadership=None,
        )

    try:
        o_prime = output_raw(papers)
        o = output_weighted(papers)
        t = equivalent_time(papers)
    except OverflowError:  # fsum of finite values beyond the float range
        raise ValueError(
            f"investigator {pi_id}: non-finite metric in {period[0]}-{period[1]}"
        ) from None
    e = efficiency(o, t)
    lead = leadership(o, e)

    profile = dataset.profiles[pi_id]
    l_fund: Optional[float] = None
    if profile.total_funding is not None and profile.total_funding > 0:
        l_fund = leadership_from_funding(o, profile.total_funding)

    return ScoreCard(
        pi_id=pi_id,
        period=period,
        paper_count=len(papers),
        o_raw=o_prime,
        o_weighted=o,
        t_equiv=t,
        efficiency=e,
        leadership=lead,
        l_fund=l_fund,
    )


def score_investigator(
    dataset: ValidatedDataset,
    pi_id: str,
    period: tuple[int, int],
    table: ToughnessTable,
    scenario: CreditScenario = CreditScenario.RANKED,
) -> ScoreCard:
    """All five metrics for one investigator over [start, end] inclusive.

    Investigators with no eligible papers get an unscored card. The funding
    variant l_fund is filled in when the profile carries a positive total.
    """
    if pi_id not in dataset.profiles:
        raise KeyError(f"unknown pi_id {pi_id}")
    start, end = period
    if start > end:
        raise ValueError(f"period start {start} after end {end}")
    papers = [
        _scored_paper(dataset, rec, table, scenario)
        for rec in dataset.corresponding_papers(pi_id, period)
    ]
    return _card(dataset, pi_id, period, papers)


def score_all(
    dataset: ValidatedDataset,
    period: tuple[int, int],
    table: ToughnessTable,
    scenario: CreditScenario = CreditScenario.RANKED,
) -> list[ScoreCard]:
    """Score every profiled investigator, sorted by pi_id."""
    return [
        score_investigator(dataset, pid, period, table, scenario)
        for pid in dataset.pi_ids
    ]
