"""Per-investigator output, time, efficiency and leadership metrics.

Output O is the sum of toughness-weighted impact factors of the papers an
investigator led as corresponding author. Equivalent time T divides each
paper's value by the investigator's credit share and normalizes by O, so a
sole author always has T = 1 and larger teams push T up. Efficiency is
E = O/T and leadership is their geometric mean L = sqrt(O*E) = O/sqrt(T).

The public functions are the one kernel: score_all and trend call them on
their (year, IF, weighted IF, share) tuples, as a caller may on a list of
ScoredPapers. Each sum is one math.fsum, so the algebraic identities
between the three L formulations survive large corpora.
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter, truediv
from typing import Iterable, NamedTuple, Optional

from .credit import CreditScenario, scenario_share
from .errors import UndefinedMetricError
from .model import ScoreCard, ValidatedDataset
from .toughness import ToughnessTable, weighted_if


class _ScoredPaperFields(NamedTuple):
    paper_id: str
    value_raw: float
    value: float
    a: float


class ScoredPaper(_ScoredPaperFields):
    """One paper as it enters an investigator's metrics.

    ``value_raw`` is the journal impact factor, ``value`` its
    toughness-weighted counterpart, ``a`` the investigator's credit share.
    Items 1-3 sit where the scoring pipeline's ``(year, IF, weighted IF,
    share)`` tuples hold them, so the sums below take either shape. As with
    model's records, ``_replace`` and ``_make`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, paper_id: str, value_raw: float, value: float, a: float):
        if not all(math.isfinite(v) and v >= 0 for v in (value_raw, value)):
            raise ValueError("paper values must be finite and >= 0")
        if not 0 < a <= 1:
            raise ValueError(f"credit share must be in (0, 1], got {a}")
        if value == 0 and value_raw != 0:
            raise ValueError("weighted value can only vanish with the raw value")
        return tuple.__new__(cls, (paper_id, value_raw, value, a))


def _fsum(values: Iterable[float], name: str, divisor: float = 1.0) -> float:
    """math.fsum(values) / divisor; a ValueError naming it when that is not finite."""
    try:
        total = math.fsum(values) / divisor
    except OverflowError:  # finite values summing beyond the float range
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"{name} leaves the float range")
    return total


def output_raw(papers: Iterable[ScoredPaper]) -> float:
    """Unweighted output O': sum of item 1 (raw IF) of ScoredPapers or pipeline tuples."""
    return _fsum(map(itemgetter(1), papers), "output O'")


def output_weighted(papers: Iterable[ScoredPaper]) -> float:
    """Output O: sum of item 2 (weighted IF) of ScoredPapers or pipeline tuples."""
    return _fsum(map(itemgetter(2), papers), "output O")


def _time(papers: list, o: float) -> float:
    """sum (v_j / a_j) / O over papers whose output O is already summed."""
    return _fsum(map(truediv, map(itemgetter(2), papers), map(itemgetter(3), papers)),
                 "equivalent time T", o)


def equivalent_time(papers: Iterable[ScoredPaper]) -> float:
    """Equivalent managed time T = (1 / sum v_j) * sum (v_j / a_j).

    v_j and a_j are items 2 and 3 of ScoredPapers or pipeline tuples.
    Scale-invariant in the values; equals 1 exactly when every paper is
    sole-authored. Undefined (UndefinedMetricError) when all values are zero;
    a ValueError names O or T when it leaves the float range.
    """
    papers = list(papers)
    total = output_weighted(papers)
    if total <= 0:
        raise UndefinedMetricError(
            "equivalent time undefined: no paper with positive value"
        )
    return _time(papers, total)


def efficiency(o: float, t: float) -> float:
    """Efficiency E = O / T."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    return o / t


def leadership(o: float, e: float) -> float:
    """Leadership L: geometric mean of output and efficiency.

    sqrt(O*E) while the product is a normal float; sqrt(O) * sqrt(E) once
    it leaves that range, so L stays finite wherever it is representable.
    """
    if o < 0 or e < 0:
        raise ValueError("output and efficiency must be >= 0")
    product = o * e
    if sys.float_info.min <= product <= sys.float_info.max:
        return math.sqrt(product)
    return math.sqrt(o) * math.sqrt(e)


def leadership_from_funding(o: float, funding: float) -> float:
    """Resource-based leadership variant O / sqrt(funding).

    Only meaningful when every investigator compared was funded in the
    same currency; callers enforce that.
    """
    if funding <= 0:
        raise ValueError(f"funding must be > 0, got {funding}")
    return o / math.sqrt(funding)


def _valuer(dataset: ValidatedDataset, table: ToughnessTable, scenario: CreditScenario):
    """A function ``valued(pi_id, period)`` over one dataset, table and scenario.

    ``valued`` returns the (year, IF, weighted IF, credit share) of each of
    the investigator's corresponding papers in the period. It computes
    weighted_if once per distinct IF and the credit share once per distinct
    (author_count, position, tie span), and keeps both caches for as long
    as it lives: one scoring call.
    """
    weighted: dict[float, float] = {}
    shares: dict[tuple[int, int, int], float] = {}
    _, _, years, _, counts, positions, spans, _ = dataset.columns
    ifs, by_pi = dataset._ifs, dataset._by_pi

    def valued(pi_id: str, period: tuple[int, int]) -> list[tuple[int, float, float, float]]:
        start, end = period
        papers = []
        for k in by_pi.get(pi_id, ()):
            year = years[k]
            if not start <= year <= end:
                continue
            raw = ifs[k]
            value = weighted.get(raw)
            if value is None:
                value = weighted[raw] = weighted_if(table, raw)
            key = (counts[k], positions[k], spans[k])
            share = shares.get(key)
            if share is None:
                share = shares[key] = scenario_share(*key, scenario)
            papers.append((year, raw, value, share))
        return papers

    return valued


def _metrics(
    pi_id: str,
    period: tuple[int, int],
    papers: list[tuple[int, float, float, float]],
) -> tuple[float, float, float, float, float]:
    """(O', O, T, E, L) of non-empty valued papers, in ScoreCard's field order.

    L = O/sqrt(T). Raises an error naming the investigator and period when
    every paper is worth 0 (T undefined) or a metric leaves the float range:
    beyond it, or below sys.float_info.min, where the values are rounded to a
    grid too coarse for T's quotients. E and L are finite once O and T are,
    since T >= 1.
    """
    start, end = period
    try:
        o_prime = output_raw(papers)
        o = output_weighted(papers)
        if o == 0:
            raise UndefinedMetricError(
                f"investigator {pi_id}: equivalent time undefined in {start}-{end}: "
                "no paper with positive value"
            )
        t = _time(papers, o)
    except ValueError:  # a sum beyond the float range, named for one list of papers
        raise ValueError(
            f"investigator {pi_id}: non-finite metric in {start}-{end}") from None
    e, lead = efficiency(o, t), o / math.sqrt(t)
    if min(o_prime, e) < sys.float_info.min:  # T >= 1, so E <= L <= O
        raise ValueError(
            f"investigator {pi_id}: metric below the normal float range in {start}-{end}")
    return o_prime, o, t, e, lead


def _card(
    dataset: ValidatedDataset,
    pi_id: str,
    period: tuple[int, int],
    papers: list[tuple[int, float, float, float]],
) -> ScoreCard:
    """The card of one investigator's valued papers in a period; unscored when empty."""
    metrics = _metrics(pi_id, period, papers) if papers else (None,) * 5
    funding = dataset.profiles[pi_id].total_funding
    l_fund: Optional[float] = None
    if papers and funding is not None and funding > 0:
        l_fund = leadership_from_funding(metrics[1], funding)
    return ScoreCard(pi_id, period, len(papers), *metrics, l_fund=l_fund)


def score_all(
    dataset: ValidatedDataset,
    period: tuple[int, int],
    table: ToughnessTable,
    scenario: CreditScenario = CreditScenario.RANKED,
) -> list[ScoreCard]:
    """Score every profiled investigator, sorted by pi_id."""
    start, end = period
    if start > end:
        raise ValueError(f"period start {start} after end {end}")
    valued = _valuer(dataset, table, scenario)
    return [_card(dataset, pid, period, valued(pid, period)) for pid in dataset.pi_ids]
