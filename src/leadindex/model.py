"""Domain types and dataset validation.

All types are immutable after construction. Collections inside
ValidatedDataset are built once during validation and treated as
read-only from then on.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from itertools import islice, repeat
from operator import attrgetter, eq, getitem, itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional

from .credit import MAX_AUTHOR_COUNT
from .errors import DataValidationError

# Institutional classes an investigator profile may name, 1 being the top.
TIERS = (1, 2, 3)


class Gender(enum.Enum):
    MALE = "male"
    FEMALE = "female"


class Rank(enum.Enum):
    PROFESSOR = "professor"
    ASSOC_PROFESSOR = "assoc_professor"
    ASSIST_PROFESSOR = "assist_professor"


class IFFallback(enum.Enum):
    """Policy when a publication's (journal, year) has no impact factor."""

    OFF = "off"
    NEAREST_PRIOR_YEAR = "nearest-prior-year"


# The four input records are tuples: a NamedTuple base declares the fields,
# and each record's __new__ checks the values before tuple.__new__ stores
# them, so a record costs one tuple. _replace and _make skip __new__ and its
# checks; a changed record is built through the constructor instead.


class _PublicationFields(NamedTuple):
    paper_id: str
    pi_id: str
    year: int
    journal: str
    author_count: int
    credit_position: int
    tie_span: int = 1
    is_corresponding: bool = True


class PublicationRecord(_PublicationFields):
    """One paper attributed to an investigator.

    ``credit_position`` is the investigator's rank in the paper's
    contribution ordering; ``tie_span`` counts the consecutive positions
    (starting there) that contributed equally, 1 meaning no tie. Only
    records with ``is_corresponding`` enter scoring. ``author_count`` is
    at most MAX_AUTHOR_COUNT.
    """

    __slots__ = ()

    def __new__(cls, paper_id: str, pi_id: str, year: int, journal: str,
                author_count: int, credit_position: int, tie_span: int = 1,
                is_corresponding: bool = True):
        if not paper_id:
            raise ValueError("paper_id must be non-empty")
        if not pi_id:
            raise ValueError("pi_id must be non-empty")
        if not journal:
            raise ValueError("journal must be non-empty")
        if author_count < 1:
            raise ValueError(f"author_count must be >= 1, got {author_count}")
        if author_count > MAX_AUTHOR_COUNT:
            raise ValueError(
                f"author_count must be <= {MAX_AUTHOR_COUNT}, got {author_count}")
        if not 1 <= credit_position <= author_count:
            raise ValueError(
                f"credit_position {credit_position} out of range 1..{author_count}"
            )
        if tie_span < 1:
            raise ValueError(f"tie_span must be >= 1, got {tie_span}")
        if credit_position + tie_span - 1 > author_count:
            raise ValueError(
                f"tie_span {tie_span} at position {credit_position} "
                f"exceeds author_count {author_count}"
            )
        return tuple.__new__(cls, (paper_id, pi_id, year, journal, author_count,
                                   credit_position, tie_span, is_corresponding))


class _JournalYearIFFields(NamedTuple):
    journal: str
    year: int
    impact_factor: float


class JournalYearIF(_JournalYearIFFields):
    """Journal impact factor for one calendar year."""

    __slots__ = ()

    def __new__(cls, journal: str, year: int, impact_factor: float):
        if not journal:
            raise ValueError("journal must be non-empty")
        if not (math.isfinite(impact_factor) and impact_factor >= 0):
            raise ValueError(
                f"impact_factor must be finite and >= 0, got {impact_factor}")
        return tuple.__new__(cls, (journal, year, impact_factor))


class _InvestigatorProfileFields(NamedTuple):
    pi_id: str
    country: str
    tier: int
    gender: Optional[Gender] = None
    birth_year: Optional[int] = None
    rank: Optional[Rank] = None
    total_funding: Optional[float] = None
    currency: Optional[str] = None


class InvestigatorProfile(_InvestigatorProfileFields):
    """Demographic and institutional attributes of one investigator.

    ``tier`` is the institutional class (1 = top tier, 2, 3). Funding
    amounts are only comparable within one currency; comparison sites
    enforce that, not this type.
    """

    __slots__ = ()

    def __new__(cls, pi_id: str, country: str, tier: int,
                gender: Optional[Gender] = None, birth_year: Optional[int] = None,
                rank: Optional[Rank] = None, total_funding: Optional[float] = None,
                currency: Optional[str] = None):
        if not pi_id:
            raise ValueError("pi_id must be non-empty")
        if not country:
            raise ValueError("country must be non-empty")
        if tier not in TIERS:
            raise ValueError(f"tier must be 1, 2 or 3, got {tier}")
        if total_funding is not None:
            if not (math.isfinite(total_funding) and total_funding >= 0):
                raise ValueError("total_funding must be finite and >= 0")
            if not currency:
                raise ValueError("currency required when total_funding is set")
        return tuple.__new__(cls, (pi_id, country, tier, gender, birth_year, rank,
                                   total_funding, currency))


class _GrantFields(NamedTuple):
    pi_id: str
    year: int
    amount: float
    currency: str


class GrantRecord(_GrantFields):
    """One year of funding to one investigator."""

    __slots__ = ()

    def __new__(cls, pi_id: str, year: int, amount: float, currency: str):
        if not pi_id:
            raise ValueError("pi_id must be non-empty")
        if not (math.isfinite(amount) and amount >= 0):
            raise ValueError(f"amount must be finite and >= 0, got {amount}")
        if not currency:
            raise ValueError("currency must be non-empty")
        return tuple.__new__(cls, (pi_id, year, amount, currency))


@dataclass(frozen=True)
class ScoreCard:
    """Per-investigator metrics for one period.

    Cards with ``paper_count`` 0 are unscored: every metric field is None.
    Every metric of a scored card is finite.
    """

    pi_id: str
    period: tuple[int, int]
    paper_count: int
    o_raw: Optional[float]
    o_weighted: Optional[float]
    t_equiv: Optional[float]
    efficiency: Optional[float]
    leadership: Optional[float]
    l_fund: Optional[float] = None

    def __post_init__(self):
        metrics = (self.o_raw, self.o_weighted, self.t_equiv, self.efficiency, self.leadership)
        if self.paper_count == 0:
            if any(m is not None for m in metrics):
                raise ValueError("unscored card (paper_count 0) must carry no metrics")
        elif None in metrics:
            raise ValueError("scored card must carry all metrics")
        elif not all(map(math.isfinite, metrics + (self.l_fund or 0.0,))):
            start, end = self.period
            raise ValueError(f"investigator {self.pi_id}: non-finite metric in {start}-{end}")

    @property
    def scored(self) -> bool:
        return self.paper_count > 0


@dataclass(frozen=True)
class ValidatedDataset:
    """Cross-checked analysis inputs with impact factors resolved per paper."""

    publications: tuple[PublicationRecord, ...]
    profiles: Mapping[str, InvestigatorProfile]
    _: KW_ONLY
    warnings: tuple[str, ...] = ()
    # Per investigator, its corresponding records in input order, and their
    # impact factors in the same order.
    _by_pi: Mapping[str, tuple[list[PublicationRecord], list[float]]] = field(
        default_factory=dict, compare=False, repr=False)
    # Per journal, its impact factor by each year a publication names;
    # resolved_if reads it.
    _impact: Mapping[str, Mapping[int, float]] = field(
        default_factory=dict, compare=False, repr=False)

    @cached_property
    def resolved_if(self) -> Mapping[str, float]:
        """Impact factor per paper_id, built on first read; scoring does not read it."""
        impact = self._impact
        return {r.paper_id: impact[r.journal][r.year] for r in self.publications}

    def corresponding_papers(
        self, pi_id: str, period: Optional[tuple[int, int]] = None
    ) -> list[PublicationRecord]:
        """Scoring-eligible records of one investigator, optionally by period."""
        records, _ = self._by_pi.get(pi_id, ((), ()))
        if period is None:
            return list(records)
        start, end = period
        return [r for r in records if start <= r.year <= end]

    def _papers_with_if(self, pi_id: str) -> Iterable[tuple[PublicationRecord, float]]:
        """(record, impact factor) of each scoring-eligible record of one investigator."""
        records, ifs = self._by_pi.get(pi_id, ((), ()))
        return zip(records, ifs)

    @property
    def pi_ids(self) -> list[str]:
        return sorted(self.profiles)


class _JournalYears(dict):
    """One journal's impact factor per year: its entries, and each other year
    resolved on its first lookup.

    ``years`` ascend and ``ifs`` holds their impact factors. A year takes
    the latest entry not after it, or with ``any_prior_year`` false only its
    own; None when there is none.
    """

    __slots__ = ("years", "ifs", "any_prior_year")

    def __init__(self, years: list[int], ifs: list[float], any_prior_year: bool):
        super().__init__(zip(years, ifs))
        self.years = years
        self.ifs = ifs
        self.any_prior_year = any_prior_year

    def __missing__(self, year: int) -> Optional[float]:
        years = self.years
        i = bisect_right(years, year)  # years[i - 1] is the latest entry not after year
        value = None
        if i and (self.any_prior_year or years[i - 1] == year):
            value = self.ifs[i - 1]
        self[year] = value
        return value


def validate_dataset(
    publications: Iterable[PublicationRecord],
    journals: Iterable[JournalYearIF],
    profiles: Iterable[InvestigatorProfile],
    fallback: IFFallback = IFFallback.OFF,
) -> ValidatedDataset:
    """Cross-check records and resolve every publication's impact factor.

    A publication takes the latest entry of its journal not after its own
    year; IFFallback.OFF accepts only an entry for that year itself.

    Raises DataValidationError listing every problem found: duplicate
    paper_id or (journal, year) entries, duplicate profiles, publications
    with an unknown pi_id, and publications whose (journal, year) cannot be
    resolved to an impact factor under the fallback policy. The error list
    is sorted, so input order never changes the reported set.

    Non-corresponding publications are kept in the dataset (they never
    enter scoring) and show up in the warnings.
    """
    publications = tuple(publications)
    errors: list[str] = []
    warnings: list[str] = []

    any_prior_year = fallback is IFFallback.NEAREST_PRIOR_YEAR
    # Per journal, its entry years ascending and their impact factors.
    index: dict[str, tuple[list[int], list[float]]] = {}
    for j in sorted(journals, key=attrgetter("journal", "year")):
        years, ifs = index.setdefault(j.journal, ([], []))
        if years and years[-1] == j.year:
            errors.append(f"duplicate impact factor entry for {j.journal} {j.year}")
        else:
            years.append(j.year)
            ifs.append(j.impact_factor)
    impact = {journal: _JournalYears(years, ifs, any_prior_year)
              for journal, (years, ifs) in index.items()}

    profile_map: dict[str, InvestigatorProfile] = {}
    for p in profiles:
        if p.pi_id in profile_map:
            errors.append(f"duplicate profile for pi_id {p.pi_id}")
        else:
            profile_map[p.pi_id] = p

    # Checked a column at a time, one temporary column after another; each
    # distinct (journal, year) is resolved once, and a journal with no
    # entries resolves every year to None. paper_ids are unique when no two
    # neighbours of the sorted column are equal: a list of pointers, where
    # a hash set of them would cost five times as much.
    ids = sorted(map(itemgetter(0), publications))
    unique_ids = not any(map(eq, ids, islice(ids, 1, None)))
    del ids
    known_pis = profile_map.keys() >= set(map(itemgetter(1), publications))
    unlisted = _JournalYears([], [], any_prior_year)
    ifs = list(map(getitem,
                   map(impact.get, map(itemgetter(3), publications), repeat(unlisted)),
                   map(itemgetter(2), publications)))
    if errors or not unique_ids or not known_pis or None in ifs:
        # Row by row, to name each bad paper.
        seen_papers: set[str] = set()
        for rec, value in zip(publications, ifs):
            if rec.paper_id in seen_papers:
                errors.append(f"duplicate paper_id {rec.paper_id}")
                continue
            seen_papers.add(rec.paper_id)
            if rec.pi_id not in profile_map:
                errors.append(f"paper {rec.paper_id}: unknown pi_id {rec.pi_id}")
            if value is None:
                errors.append(
                    f"paper {rec.paper_id}: no impact factor for {rec.journal} {rec.year}"
                )
        raise DataValidationError(sorted(errors))

    by_pi: dict[str, tuple[list[PublicationRecord], list[float]]] = {}
    for rec, value in zip(publications, ifs):
        if rec[7]:  # is_corresponding
            pi_records, pi_ifs = by_pi.setdefault(rec[1], ([], []))
            pi_records.append(rec)
            pi_ifs.append(value)

    non_corresponding = len(publications) - sum(len(r) for r, _ in by_pi.values())
    if non_corresponding:
        warnings.append(
            f"{non_corresponding} non-corresponding record(s) excluded from scoring"
        )

    return ValidatedDataset(
        publications=publications,
        profiles=profile_map,
        warnings=tuple(warnings),
        _by_pi=by_pi,
        _impact=impact,
    )


def aggregate_grants(grants: Iterable[GrantRecord]) -> dict[str, tuple[float, str]]:
    """Total funding per investigator; mixed currencies for one PI are an error.

    Each total is one correctly rounded ``math.fsum`` of the investigator's
    amounts in their first currency, so the order of the rows cannot change it.
    """
    amounts: dict[str, tuple[list[float], str]] = {}
    errors: list[str] = []
    for g in grants:
        if g.pi_id in amounts:
            values, currency = amounts[g.pi_id]
            if currency != g.currency:
                errors.append(
                    f"pi_id {g.pi_id}: grants in multiple currencies "
                    f"({currency}, {g.currency})"
                )
                continue
            values.append(g.amount)
        else:
            amounts[g.pi_id] = ([g.amount], g.currency)
    totals: dict[str, tuple[float, str]] = {}
    for pi_id, (values, currency) in amounts.items():
        try:
            totals[pi_id] = (math.fsum(values), currency)
        except OverflowError:
            errors.append(f"pi_id {pi_id}: grant total overflows the float range")
    if errors:
        raise DataValidationError(sorted(set(errors)))
    return totals


def apply_funding(
    profiles: Iterable[InvestigatorProfile],
    totals: Mapping[str, tuple[float, str]],
) -> list[InvestigatorProfile]:
    """Profiles with grant totals filled in; grant data wins over profile fields."""
    out = []
    for p in profiles:
        if p.pi_id in totals:
            amount, currency = totals[p.pi_id]
            # The constructor, not _replace, so the new total is checked.
            p = InvestigatorProfile(p.pi_id, p.country, p.tier, p.gender,
                                    p.birth_year, p.rank, amount, currency)
        out.append(p)
    return out
