"""Domain types and dataset validation.

All types are immutable after construction and safe to share across
threads. Collections inside ValidatedDataset are built once during
validation and treated as read-only from then on.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
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
    resolved_if: Mapping[str, float]
    warnings: tuple[str, ...] = ()
    _by_pi: Mapping[str, tuple[PublicationRecord, ...]] = field(default_factory=dict, repr=False)

    def corresponding_papers(
        self, pi_id: str, period: Optional[tuple[int, int]] = None
    ) -> list[PublicationRecord]:
        """Scoring-eligible records of one investigator, optionally by period."""
        records = self._by_pi.get(pi_id, ())
        if period is None:
            return list(records)
        start, end = period
        return [r for r in records if start <= r.year <= end]

    @property
    def pi_ids(self) -> list[str]:
        return sorted(self.profiles)


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

    # Per journal, its entry years ascending and their impact factors.
    index: dict[str, tuple[list[int], list[float]]] = {}
    for j in sorted(journals, key=attrgetter("journal", "year")):
        years, ifs = index.setdefault(j.journal, ([], []))
        if years and years[-1] == j.year:
            errors.append(f"duplicate impact factor entry for {j.journal} {j.year}")
        else:
            years.append(j.year)
            ifs.append(j.impact_factor)

    profile_map: dict[str, InvestigatorProfile] = {}
    for p in profiles:
        if p.pi_id in profile_map:
            errors.append(f"duplicate profile for pi_id {p.pi_id}")
        else:
            profile_map[p.pi_id] = p

    any_prior_year = fallback is IFFallback.NEAREST_PRIOR_YEAR
    # Every paper_id seen so far, with None where its IF did not resolve;
    # that case is an error, so no None survives validation.
    resolved: dict[str, float | None] = {}
    by_pi: dict[str, list[PublicationRecord]] = {}
    non_corresponding = 0
    for rec in publications:
        if rec.paper_id in resolved:
            errors.append(f"duplicate paper_id {rec.paper_id}")
            continue
        if rec.pi_id not in profile_map:
            errors.append(f"paper {rec.paper_id}: unknown pi_id {rec.pi_id}")
        # years[i - 1] is the latest entry not after rec.year.
        years, ifs = index.get(rec.journal, ((), ()))
        i = bisect_right(years, rec.year)
        if i and (any_prior_year or years[i - 1] == rec.year):
            resolved[rec.paper_id] = ifs[i - 1]
        else:
            resolved[rec.paper_id] = None
            errors.append(
                f"paper {rec.paper_id}: no impact factor for {rec.journal} {rec.year}"
            )
        if rec.is_corresponding:
            by_pi.setdefault(rec.pi_id, []).append(rec)
        else:
            non_corresponding += 1

    if errors:
        raise DataValidationError(sorted(errors))

    if non_corresponding:
        warnings.append(
            f"{non_corresponding} non-corresponding record(s) excluded from scoring"
        )

    return ValidatedDataset(
        publications=publications,
        profiles=profile_map,
        resolved_if=resolved,
        warnings=tuple(warnings),
        _by_pi={pi: tuple(records) for pi, records in by_pi.items()},
    )


def aggregate_grants(grants: Iterable[GrantRecord]) -> dict[str, tuple[float, str]]:
    """Total funding per investigator; mixed currencies for one PI are an error."""
    totals: dict[str, tuple[float, str]] = {}
    errors: list[str] = []
    for g in grants:
        if g.pi_id in totals:
            amount, currency = totals[g.pi_id]
            if currency != g.currency:
                errors.append(
                    f"pi_id {g.pi_id}: grants in multiple currencies "
                    f"({currency}, {g.currency})"
                )
                continue
            totals[g.pi_id] = (amount + g.amount, currency)
        else:
            totals[g.pi_id] = (g.amount, g.currency)
    errors += [f"pi_id {pi_id}: grant total overflows the float range"
               for pi_id, (amount, _) in totals.items() if not math.isfinite(amount)]
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
