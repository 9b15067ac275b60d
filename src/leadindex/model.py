"""Domain types and dataset validation.

All types are immutable after construction. Collections inside
ValidatedDataset are built once during validation and treated as
read-only from then on.
"""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_right
from itertools import compress, groupby, islice, repeat
from operator import eq, getitem, is_not, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .credit import check_credit
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


# Checked values are tuples: a NamedTuple base declares the fields and the subclass's
# __new__ checks them, so a value costs one tuple; a record's __new__ spells out its
# fields, which is faster. _replace and _make skip the checks: build changed values anew.


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
    records with ``is_corresponding`` enter scoring. The credit triple is
    checked by credit.check_credit, as a_index checks it.
    """

    __slots__ = ()

    def __new__(cls, paper_id: str, pi_id: str, year: int, journal: str,
                author_count: int, credit_position: int, tie_span: int = 1,
                is_corresponding: bool = True):
        if not (paper_id and pi_id and journal):
            check_text("paper_id", paper_id)
            check_text("pi_id", pi_id)
            check_text("journal", journal)
        check_credit(author_count, credit_position, tie_span)
        return tuple.__new__(cls, (paper_id, pi_id, year, journal, author_count,
                                   credit_position, tie_span, is_corresponding))


def check_text(name: str, value: str) -> None:
    """A record's text field must be non-empty."""
    if not value:
        raise ValueError(f"{name} must be non-empty")


def check_amount(name: str, value: float) -> None:
    """A record's amount must be finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_amounts(name: str, column: list) -> None:
    """check_amount over a column: each value is screened at once, and the
    first one refused raises through check_amount."""
    if not (all(map(math.isfinite, column)) and min(column, default=0.0) >= 0):
        for value in column:
            check_amount(name, value)


def check_publication_columns(columns: Sequence[list]) -> Sequence[list]:
    """Run PublicationRecord's checks over its eight columns, in field order; return them.

    Each text column is checked at once, and each distinct credit triple
    once. Raises ValueError if any row would be refused, not necessarily
    with the message the row's own constructor would give.
    """
    paper_ids, pi_ids, _, journals, author_counts, positions, spans, _ = columns
    for name, column in (("paper_id", paper_ids), ("pi_id", pi_ids), ("journal", journals)):
        if not all(column):
            check_text(name, "")
    for triple in set(zip(author_counts, positions, spans)):
        check_credit(*triple)
    return columns


class _JournalYearIFFields(NamedTuple):
    journal: str
    year: int
    impact_factor: float


class JournalYearIF(_JournalYearIFFields):
    """Journal impact factor for one calendar year."""

    __slots__ = ()

    def __new__(cls, journal: str, year: int, impact_factor: float):
        if not journal:
            check_text("journal", journal)
        if not (math.isfinite(impact_factor) and impact_factor >= 0):
            check_amount("impact_factor", impact_factor)
        return tuple.__new__(cls, (journal, year, impact_factor))


def check_journal_columns(columns: Sequence[list]) -> Sequence[list]:
    """Run JournalYearIF's checks over its three columns, in field order; return them.

    Each column is screened at once. Raises ValueError if any row would be
    refused; for one row, with the message its constructor gives.
    """
    journals, _, impact_factors = columns
    if not all(journals):
        check_text("journal", "")
    _check_amounts("impact_factor", impact_factors)
    return columns


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
        if not (pi_id and country):
            check_text("pi_id", pi_id)
            check_text("country", country)
        if tier not in TIERS:
            raise ValueError(f"tier must be 1, 2 or 3, got {tier}")
        if total_funding is not None:
            if not (math.isfinite(total_funding) and total_funding >= 0):
                raise ValueError("total_funding must be finite and >= 0")
            if not currency:
                raise ValueError("currency required when total_funding is set")
        return tuple.__new__(cls, (pi_id, country, tier, gender, birth_year, rank,
                                   total_funding, currency))


def check_profile_columns(columns: Sequence[list]) -> Sequence[list]:
    """Run InvestigatorProfile's checks over its eight columns, in field order; return them.

    Each rule is screened over its columns at once. Where the screen fails,
    InvestigatorProfile is built from each row, so the first row refused
    raises the constructor's own text.
    """
    pi_ids, countries, tiers, _, _, _, fundings, currencies = columns
    funded = list(map(is_not, fundings, repeat(None)))
    amounts = list(compress(fundings, funded))
    if not (all(pi_ids) and all(countries) and set(tiers).issubset(TIERS)
            and all(map(math.isfinite, amounts)) and min(amounts, default=0.0) >= 0
            and all(compress(currencies, funded))):
        for row in zip(*columns):
            InvestigatorProfile(*row)
    return columns


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
            check_text("pi_id", pi_id)
        if not (math.isfinite(amount) and amount >= 0):
            check_amount("amount", amount)
        if not currency:
            check_text("currency", currency)
        return tuple.__new__(cls, (pi_id, year, amount, currency))


def check_grant_columns(columns: Sequence[list]) -> Sequence[list]:
    """Run GrantRecord's checks over its four columns, in field order; return them.

    Raises ValueError as check_journal_columns does.
    """
    pi_ids, _, amounts, currencies = columns
    if not all(pi_ids):
        check_text("pi_id", "")
    _check_amounts("amount", amounts)
    if not all(currencies):
        check_text("currency", "")
    return columns


class _ScoreCardFields(NamedTuple):
    pi_id: str
    period: tuple[int, int]
    paper_count: int
    o_raw: Optional[float]
    o_weighted: Optional[float]
    t_equiv: Optional[float]
    efficiency: Optional[float]
    leadership: Optional[float]
    l_fund: Optional[float] = None


class ScoreCard(_ScoreCardFields):
    """Per-investigator metrics for one period.

    Cards with ``paper_count`` 0 are unscored: every metric field is None.
    Every metric of a scored card is finite.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        metrics = (self.o_raw, self.o_weighted, self.t_equiv, self.efficiency, self.leadership)
        if self.paper_count < 0:
            raise ValueError(f"paper_count must be >= 0, got {self.paper_count}")
        if self.paper_count == 0:
            if any(m is not None for m in metrics + (self.l_fund,)):
                raise ValueError("unscored card (paper_count 0) must carry no metrics")
        elif None in metrics:
            raise ValueError("scored card must carry all metrics")
        elif not all(map(math.isfinite, metrics + (self.l_fund or 0.0,))):
            start, end = self.period
            raise ValueError(f"investigator {self.pi_id}: non-finite metric in {start}-{end}")
        return self

    @property
    def scored(self) -> bool:
        return self.paper_count > 0


class ValidatedDataset(NamedTuple):
    """Cross-checked analysis inputs with impact factors resolved per paper.

    ``columns`` holds the publications as one list per PublicationRecord
    field, in field order, each in input order, and ``ifs`` each row's
    impact factor. ``rows_by_pi`` holds each investigator's corresponding
    rows, ascending, through which scoring reads the columns.
    """

    columns: tuple[list, ...]
    profiles: Mapping[str, InvestigatorProfile]
    ifs: list[float]
    rows_by_pi: Mapping[str, array]
    warnings: tuple[str, ...]

    @property
    def pi_ids(self) -> list[str]:
        return sorted(self.profiles)

    # No command reads the two views below; perfbench/replay.py does.
    @property
    def publications(self) -> tuple[PublicationRecord, ...]:
        """The records in input order, built on each read."""
        return tuple(map(PublicationRecord._make, zip(*self.columns)))

    @property
    def resolved_if(self) -> Mapping[str, float]:
        """Impact factor per paper_id, read-only."""
        return MappingProxyType(_resolved_if(self.columns[0], self.ifs))


_last_resolved_if: tuple = ((), (), {})


def _resolved_if(paper_ids: list[str], ifs: list[float]) -> dict[str, float]:
    """dict(zip(paper_ids, ifs)), reused while the same two lists come again, as
    they do for a caller that reads ``resolved_if`` once per paper."""
    global _last_resolved_if
    last_ids, last_values, mapping = _last_resolved_if
    if paper_ids is not last_ids or ifs is not last_values:
        mapping = dict(zip(paper_ids, ifs))
        _last_resolved_if = (paper_ids, ifs, mapping)
    return mapping


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

    The records are split into the dataset's columns, which cost a pointer
    per field and record beside the caller's records; validate_columns
    takes columns as fileio.read_publication_columns reads them.
    """
    return validate_columns(_columns(publications), journals, profiles, fallback)


def _columns(publications: Iterable[PublicationRecord]) -> list[list]:
    """One list per PublicationRecord field, in field order.

    The tuple of the records is freed on return, before validation runs.
    """
    records = tuple(publications)
    return [list(map(itemgetter(k), records)) for k in range(len(PublicationRecord._fields))]


def validate_columns(
    columns: Sequence[list],
    journals: Iterable[Sequence],
    profiles: Iterable[InvestigatorProfile],
    fallback: IFFallback = IFFallback.OFF,
) -> ValidatedDataset:
    """validate_dataset over publications given as columns, which the dataset keeps.

    ``columns`` holds one list per PublicationRecord field, in field order,
    whose rows each pass PublicationRecord's checks. ``journals`` holds
    JournalYearIFs or plain (journal, year, impact_factor) rows.
    """
    errors: list[str] = []
    warnings: list[str] = []

    any_prior_year = fallback is IFFallback.NEAREST_PRIOR_YEAR
    # Per journal, its entry years ascending and their impact factors.
    impact: dict[str, _JournalYears] = {}
    for journal, entries in groupby(sorted(journals, key=itemgetter(0, 1)), itemgetter(0)):
        years: list[int] = []
        ifs: list[float] = []
        for _, year, impact_factor in entries:
            if years and years[-1] == year:
                errors.append(f"duplicate impact factor entry for {journal} {year}")
            else:
                years.append(year)
                ifs.append(impact_factor)
        impact[journal] = _JournalYears(years, ifs, any_prior_year)

    profile_map: dict[str, InvestigatorProfile] = {}
    for p in profiles:
        if p.pi_id in profile_map:
            errors.append(f"duplicate profile for pi_id {p.pi_id}")
        else:
            profile_map[p.pi_id] = p

    # Checked a column at a time; each distinct (journal, year) is resolved
    # once, and a journal with no entries resolves every year to None.
    # paper_ids are unique when no two neighbours of the sorted column are
    # equal: a list of pointers, where a hash set of them would cost five
    # times as much.
    paper_ids, pi_ids, years, journal_names, _, _, _, corresponding = columns
    ids = sorted(paper_ids)
    unique_ids = not any(map(eq, ids, islice(ids, 1, None)))
    del ids
    known_pis = profile_map.keys() >= set(pi_ids)
    unlisted = _JournalYears([], [], any_prior_year)
    ifs = list(map(getitem, map(impact.get, journal_names, repeat(unlisted)), years))
    if errors or not unique_ids or not known_pis or None in ifs:
        # Row by row, to name each bad paper.
        seen_papers: set[str] = set()
        for paper_id, pi_id, year, journal, value in zip(
                paper_ids, pi_ids, years, journal_names, ifs):
            if paper_id in seen_papers:
                errors.append(f"duplicate paper_id {paper_id}")
                continue
            seen_papers.add(paper_id)
            if pi_id not in profile_map:
                errors.append(f"paper {paper_id}: unknown pi_id {pi_id}")
            if value is None:
                errors.append(f"paper {paper_id}: no impact factor for {journal} {year}")
        raise DataValidationError(sorted(errors))

    by_pi: dict[str, array] = {}
    for k, pi_id in compress(enumerate(pi_ids), corresponding):
        rows = by_pi.get(pi_id)
        if rows is None:
            rows = by_pi[pi_id] = array("l")
        rows.append(k)

    non_corresponding = len(paper_ids) - sum(map(len, by_pi.values()))
    if non_corresponding:
        warnings.append(
            f"{non_corresponding} non-corresponding record(s) excluded from scoring"
        )

    return ValidatedDataset(tuple(columns), profile_map, ifs, by_pi, tuple(warnings))


def aggregate_grants(grants: Iterable[Sequence]) -> dict[str, tuple[float, str]]:
    """Total funding per investigator; mixed currencies for one PI are an error.

    ``grants`` holds GrantRecords or plain (pi_id, year, amount, currency)
    rows. Each total is one correctly rounded ``math.fsum`` of the
    investigator's amounts in their first currency, so the order of the rows
    cannot change it.
    """
    amounts: dict[str, tuple[list[float], str]] = {}
    errors: list[str] = []
    for pi_id, _, amount, currency in grants:
        if pi_id in amounts:
            values, first = amounts[pi_id]
            if first != currency:
                errors.append(
                    f"pi_id {pi_id}: grants in multiple currencies ({first}, {currency})")
                continue
            values.append(amount)
        else:
            amounts[pi_id] = ([amount], currency)
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
    """Profiles with grant totals filled in; grant data wins over profile fields.

    Each funded profile is built through InvestigatorProfile, not _make:
    ``totals`` is the caller's, and aggregate_grants is only one source of
    them, so the constructor checks each new total and its currency.
    """
    out = []
    for p in profiles:
        if p.pi_id in totals:
            amount, currency = totals[p.pi_id]
            p = InvestigatorProfile(p.pi_id, p.country, p.tier, p.gender,
                                    p.birth_year, p.rank, amount, currency)
        out.append(p)
    return out
