import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex.credit import MAX_AUTHOR_COUNT
from leadindex.errors import DataValidationError
from leadindex.model import (
    Gender,
    GrantRecord,
    IFFallback,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    Rank,
    ScoreCard,
    ValidatedDataset,
    aggregate_grants,
    apply_funding,
    validate_dataset,
)


class TestPublicationRecord:
    def test_valid_record(self):
        rec = PublicationRecord("p1", "P1", 2010, "J", 3, 2, tie_span=2)
        assert rec.tie_span == 2
        assert rec.is_corresponding

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(author_count=0, credit_position=1),
            dict(author_count=3, credit_position=0),
            dict(author_count=3, credit_position=4),
            dict(author_count=3, credit_position=1, tie_span=0),
            dict(author_count=3, credit_position=3, tie_span=2),
        ],
    )
    def test_rejects_inconsistent_authorship(self, kwargs):
        with pytest.raises(ValueError):
            PublicationRecord("p1", "P1", 2010, "J", **kwargs)

    def test_rejects_empty_ids(self):
        with pytest.raises(ValueError):
            PublicationRecord("", "P1", 2010, "J", 1, 1)
        with pytest.raises(ValueError):
            PublicationRecord("p1", "P1", 2010, "", 1, 1)


def test_journal_if_must_be_non_negative():
    JournalYearIF("J", 2010, 0.0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            JournalYearIF("J", 2010, bad)


class TestInvestigatorProfile:
    def test_minimal_profile(self):
        p = InvestigatorProfile("P1", "CN", 2)
        assert p.gender is None and p.rank is None

    def test_tier_restricted(self):
        with pytest.raises(ValueError):
            InvestigatorProfile("P1", "CN", 4)

    def test_funding_needs_currency(self):
        with pytest.raises(ValueError):
            InvestigatorProfile("P1", "CN", 1, total_funding=1000.0)
        InvestigatorProfile("P1", "CN", 1, total_funding=1000.0, currency="CNY")

    def test_negative_funding_rejected(self):
        for bad in (-5.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                InvestigatorProfile("P1", "CN", 1, total_funding=bad, currency="CNY")


def test_grant_amount_must_be_non_negative():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            GrantRecord("P1", 2010, bad, "CNY")


# Each input record type, valid values for its fields in order, and one bad
# value for each check of its constructor.
RECORD_CASES = [
    (PublicationRecord,
     dict(paper_id="p1", pi_id="P1", year=2010, journal="J", author_count=3,
          credit_position=2, tie_span=2, is_corresponding=False),
     [("paper_id", ""), ("pi_id", ""), ("journal", ""), ("author_count", 0),
      ("author_count", MAX_AUTHOR_COUNT + 1), ("credit_position", 0),
      ("credit_position", 4), ("tie_span", 0), ("tie_span", 3)]),
    (JournalYearIF,
     dict(journal="J", year=2010, impact_factor=1.5),
     [("journal", ""), ("impact_factor", -0.1), ("impact_factor", math.nan),
      ("impact_factor", math.inf)]),
    (InvestigatorProfile,
     dict(pi_id="P1", country="CN", tier=2, gender=Gender.FEMALE, birth_year=1970,
          rank=Rank.PROFESSOR, total_funding=10.0, currency="CNY"),
     [("pi_id", ""), ("country", ""), ("tier", 4), ("total_funding", -5.0),
      ("total_funding", math.nan), ("currency", None)]),
    (GrantRecord,
     dict(pi_id="P1", year=2010, amount=5e4, currency="CNY"),
     [("pi_id", ""), ("amount", -1.0), ("amount", math.inf), ("currency", "")]),
]
BAD_VALUES = [(cls, values, field, bad)
              for cls, values, cases in RECORD_CASES for field, bad in cases]


class TestInputRecords:
    """The four input records are tuples that check their values when built."""

    @pytest.mark.parametrize("cls, values, _", RECORD_CASES,
                             ids=[c[0].__name__ for c in RECORD_CASES])
    def test_positional_and_keyword_forms_agree(self, cls, values, _):
        record = cls(*values.values())
        assert record == cls(**values) == tuple(values.values())
        assert record._fields == tuple(values)
        assert repr(record).startswith(f"{cls.__name__}(")

    @pytest.mark.parametrize("cls, values, field, bad", BAD_VALUES,
                             ids=[f"{c.__name__}-{f}={b!r}" for c, _, f, b in BAD_VALUES])
    def test_bad_value_refused_by_position_and_keyword(self, cls, values, field, bad):
        values = {**values, field: bad}
        with pytest.raises(ValueError):
            cls(*values.values())
        with pytest.raises(ValueError):
            cls(**values)

    @pytest.mark.parametrize("cls, values, _", RECORD_CASES,
                             ids=[c[0].__name__ for c in RECORD_CASES])
    def test_immutable(self, cls, values, _):
        record = cls(**values)
        for field in values:
            with pytest.raises(AttributeError):
                setattr(record, field, values[field])
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict either

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1.0])
    def test_apply_funding_checks_the_new_total(self, total):
        with pytest.raises(ValueError, match="total_funding must be finite and >= 0"):
            apply_funding([InvestigatorProfile("P1", "CN", 1)], {"P1": (total, "CNY")})


class TestScoreCard:
    def test_unscored_card_carries_no_metrics(self):
        card = ScoreCard("P1", (2010, 2012), 0, None, None, None, None, None)
        assert not card.scored

    def test_unscored_with_metrics_rejected(self):
        with pytest.raises(ValueError):
            ScoreCard("P1", (2010, 2012), 0, 1.0, None, None, None, None)

    def test_scored_requires_all_metrics(self):
        with pytest.raises(ValueError):
            ScoreCard("P1", (2010, 2012), 2, 5.0, 9.0, None, 6.0, 7.3)

    @pytest.mark.parametrize("field", range(6))  # the five metrics, then l_fund
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_metric_rejected(self, field, bad):
        metrics = [5.0, 9.0, 1.5, 6.0, 7.3, 0.01]
        metrics[field] = bad
        with pytest.raises(ValueError, match="investigator P1: non-finite metric in 2010-2012"):
            ScoreCard("P1", (2010, 2012), 2, *metrics)


class TestValidateDataset:
    def test_happy_path_resolves_ifs(self, small_dataset):
        assert small_dataset.resolved_if["p1"] == 4.0
        assert small_dataset.resolved_if["p3"] == 4.5
        assert small_dataset.pi_ids == ["P1", "P2", "P3"]

    def test_corresponding_filter_and_period(self, small_dataset):
        assert [r.paper_id for r in small_dataset.corresponding_papers("P1")] == ["p1", "p2"]
        assert small_dataset.corresponding_papers("P1", (2011, 2012)) == []
        assert small_dataset.corresponding_papers("P3") == []

    def test_non_corresponding_counted_in_warnings(self, small_dataset):
        assert any("non-corresponding" in w for w in small_dataset.warnings)

    def test_all_problems_collected_in_one_error(self):
        publications = [
            PublicationRecord("p1", "P1", 2010, "JA", 1, 1),
            PublicationRecord("p1", "P1", 2010, "JA", 1, 1),  # duplicate id
            PublicationRecord("p2", "P9", 2010, "JA", 1, 1),  # unknown PI
            PublicationRecord("p3", "P1", 2011, "JB", 1, 1),  # no IF entry
        ]
        journals = [JournalYearIF("JA", 2010, 2.0)]
        profiles = [InvestigatorProfile("P1", "CN", 1)]
        with pytest.raises(DataValidationError) as err:
            validate_dataset(publications, journals, profiles)
        messages = err.value.errors
        assert len(messages) == 3
        assert any("duplicate paper_id p1" in m for m in messages)
        assert any("unknown pi_id P9" in m for m in messages)
        assert any("no impact factor for JB 2011" in m for m in messages)

    def test_duplicate_of_paper_without_impact_factor(self):
        """A paper whose IF does not resolve still counts as seen."""
        publications = [
            PublicationRecord("p1", "P1", 2011, "JB", 1, 1),  # no IF entry
            PublicationRecord("p1", "P1", 2010, "JA", 1, 1),  # duplicate id
        ]
        journals = [JournalYearIF("JA", 2010, 2.0)]
        profiles = [InvestigatorProfile("P1", "CN", 1)]
        with pytest.raises(DataValidationError) as err:
            validate_dataset(publications, journals, profiles)
        assert err.value.errors == ["duplicate paper_id p1",
                                    "paper p1: no impact factor for JB 2011"]

    def test_error_set_independent_of_record_order(self):
        publications = [
            PublicationRecord("p1", "P9", 2010, "JA", 1, 1),
            PublicationRecord("p2", "P1", 2011, "JB", 1, 1),
            PublicationRecord("p3", "P8", 2012, "JC", 1, 1),
        ]
        journals = [JournalYearIF("JA", 2010, 2.0)]
        profiles = [InvestigatorProfile("P1", "CN", 1)]

        def errors_for(pubs):
            with pytest.raises(DataValidationError) as err:
                validate_dataset(pubs, journals, profiles)
            return err.value.errors

        baseline = errors_for(publications)
        for seed in range(5):
            shuffled = publications[:]
            random.Random(seed).shuffle(shuffled)
            assert errors_for(shuffled) == baseline

    def test_duplicate_journal_and_profile_entries(self):
        journals = [JournalYearIF("JA", 2010, 2.0), JournalYearIF("JA", 2010, 3.0)]
        profiles = [InvestigatorProfile("P1", "CN", 1), InvestigatorProfile("P1", "US", 2)]
        with pytest.raises(DataValidationError) as err:
            validate_dataset([], journals, profiles)
        assert any("duplicate impact factor entry for JA 2010" in m for m in err.value.errors)
        assert any("duplicate profile for pi_id P1" in m for m in err.value.errors)

    def test_equal_whether_or_not_resolved_if_was_read(self):
        inputs = ([PublicationRecord("p1", "P1", 2011, "JA", 1, 1)],
                  [JournalYearIF("JA", 2010, 2.0)], [InvestigatorProfile("P1", "CN", 1)],
                  IFFallback.NEAREST_PRIOR_YEAR)
        read, unread = validate_dataset(*inputs), validate_dataset(*inputs)
        assert read.resolved_if == {"p1": 2.0}
        assert read == unread

    def test_fields_after_profiles_are_keyword_only(self, small_dataset):
        with pytest.raises(TypeError):
            ValidatedDataset(small_dataset.publications, small_dataset.profiles, ("w",))


class TestIFFallback:
    journals = [JournalYearIF("JA", 2009, 2.0), JournalYearIF("JA", 2011, 3.0)]

    def test_off_requires_exact_year(self):
        pubs = [PublicationRecord("p1", "P1", 2012, "JA", 1, 1)]
        with pytest.raises(DataValidationError):
            validate_dataset(pubs, self.journals, [InvestigatorProfile("P1", "CN", 1)])

    def test_nearest_prior_year_picks_latest_earlier_entry(self):
        pubs = [PublicationRecord("p1", "P1", 2012, "JA", 1, 1)]
        dataset = validate_dataset(
            pubs, self.journals, [InvestigatorProfile("P1", "CN", 1)],
            fallback=IFFallback.NEAREST_PRIOR_YEAR,
        )
        assert dataset.resolved_if["p1"] == 3.0

    def test_no_prior_year_still_fails(self):
        pubs = [PublicationRecord("p1", "P1", 2008, "JA", 1, 1)]
        with pytest.raises(DataValidationError):
            validate_dataset(
                pubs, self.journals, [InvestigatorProfile("P1", "CN", 1)],
                fallback=IFFallback.NEAREST_PRIOR_YEAR,
            )

    def test_exact_match_wins_over_fallback(self):
        pubs = [
            PublicationRecord("p1", "P1", 2011, "JA", 1, 1),
            PublicationRecord("p2", "P1", 2010, "JA", 1, 1),
        ]
        profiles = [InvestigatorProfile("P1", "CN", 1)]
        dataset = validate_dataset(pubs, self.journals, profiles,
                                   fallback=IFFallback.NEAREST_PRIOR_YEAR)
        assert dataset.resolved_if == {"p1": 3.0, "p2": 2.0}
        with pytest.raises(DataValidationError) as err:
            validate_dataset([PublicationRecord("p3", "P1", 2011, "JB", 1, 1)],
                             self.journals, profiles, fallback=IFFallback.NEAREST_PRIOR_YEAR)
        assert err.value.errors == ["paper p3: no impact factor for JB 2011"]

    def test_all_miss_fallback_is_linear(self):
        """40k IF rows on even years, 50k papers on odd years: every paper misses."""
        journals = [JournalYearIF(f"J{j}", year, j + year / 10000)
                    for j in range(2000) for year in range(1980, 2020, 2)]
        pubs = [PublicationRecord(f"p{i}", "P1", 1981 + 2 * (i % 19), f"J{i % 2000}", 1, 1)
                for i in range(50000)]
        t0 = time.perf_counter()
        dataset = validate_dataset(pubs, journals, [InvestigatorProfile("P1", "CN", 1)],
                                   fallback=IFFallback.NEAREST_PRIOR_YEAR)
        assert time.perf_counter() - t0 < 5.0
        assert len(dataset.resolved_if) == 50000
        for rec in pubs[:100]:
            assert dataset.resolved_if[rec.paper_id] == int(rec.journal[1:]) + (rec.year - 1) / 10000

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.dictionaries(
            st.tuples(st.sampled_from("ABC"), st.integers(2000, 2010)),
            st.floats(0, 100), max_size=20),
        papers=st.lists(
            st.tuples(st.sampled_from("ABCD"), st.integers(1998, 2012)), max_size=20),
        fallback=st.sampled_from(list(IFFallback)),
    )
    def test_matches_brute_force_lookup(self, entries, papers, fallback):
        """Each paper gets its journal's entry of the latest year not after its own."""
        journals = [JournalYearIF(j, y, v) for (j, y), v in entries.items()]
        pubs = [PublicationRecord(f"p{i}", "P1", y, j, 1, 1) for i, (j, y) in enumerate(papers)]
        expected, missing = {}, []
        for rec in pubs:
            years = [y for (j, y) in entries if j == rec.journal and y <= rec.year]
            if years and (fallback is IFFallback.NEAREST_PRIOR_YEAR or rec.year in years):
                expected[rec.paper_id] = entries[(rec.journal, max(years))]
            else:
                missing.append(f"paper {rec.paper_id}: no impact factor for "
                               f"{rec.journal} {rec.year}")
        profiles = [InvestigatorProfile("P1", "CN", 1)]
        if missing:
            with pytest.raises(DataValidationError) as err:
                validate_dataset(pubs, journals, profiles, fallback)
            assert err.value.errors == sorted(missing)
        else:
            assert validate_dataset(pubs, journals, profiles, fallback).resolved_if == expected


class TestGrants:
    def test_yearly_rows_sum_per_investigator(self):
        grants = [GrantRecord("P1", y, 100.0 + y, "CNY") for y in range(2010, 2015)]
        totals = aggregate_grants(grants)
        assert totals["P1"] == (500.0 + sum(range(2010, 2015)), "CNY")

    def test_mixed_currencies_rejected(self):
        grants = [GrantRecord("P1", 2010, 5.0, "CNY"), GrantRecord("P1", 2011, 5.0, "USD")]
        with pytest.raises(DataValidationError, match="multiple currencies"):
            aggregate_grants(grants)

    def test_overflowing_total_rejected(self):
        grants = [GrantRecord("P1", 2010, 1e308, "CNY"), GrantRecord("P1", 2011, 1e308, "CNY")]
        with pytest.raises(DataValidationError) as err:
            aggregate_grants(grants)
        assert err.value.errors == ["pi_id P1: grant total overflows the float range"]

    def test_total_does_not_depend_on_row_order(self):
        # Added one at a time from 1e16, each 1.0 is half an ulp and rounds
        # away; the exact sum is 1e16 + 2, which is a float.
        amounts = [1e16, 1.0, 1.0]
        for order in (amounts, amounts[::-1]):
            grants = [GrantRecord("P1", 2010 + i, a, "CNY") for i, a in enumerate(order)]
            assert aggregate_grants(grants) == {"P1": (1.0000000000000002e16, "CNY")}

    def test_apply_funding_overrides_profile(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, total_funding=1.0, currency="CNY"),
            InvestigatorProfile("P2", "CN", 2),
        ]
        updated = apply_funding(profiles, {"P1": (900.0, "CNY")})
        assert updated[0].total_funding == 900.0
        assert updated[1].total_funding is None
        # untouched fields survive
        assert updated[0].tier == 1


def test_enums_expose_stable_labels():
    assert Gender.MALE.value == "male"
    assert Rank.ASSOC_PROFESSOR.value == "assoc_professor"
    assert IFFallback.NEAREST_PRIOR_YEAR.value == "nearest-prior-year"


def _validate_row_by_row(publications, journals, profiles, fallback):
    """The per-record validation loop, the reference for validate_dataset.

    Returns (resolved_if, corresponding paper_ids per investigator, warnings),
    or the sorted errors.
    """
    errors, entries = [], {}
    for j in journals:
        if (j.journal, j.year) in entries:
            errors.append(f"duplicate impact factor entry for {j.journal} {j.year}")
        entries[(j.journal, j.year)] = j.impact_factor
    profile_ids = set()
    for p in profiles:
        if p.pi_id in profile_ids:
            errors.append(f"duplicate profile for pi_id {p.pi_id}")
        profile_ids.add(p.pi_id)
    resolved, by_pi, non_corresponding = {}, {}, 0
    for rec in publications:
        if rec.paper_id in resolved:
            errors.append(f"duplicate paper_id {rec.paper_id}")
            continue
        if rec.pi_id not in profile_ids:
            errors.append(f"paper {rec.paper_id}: unknown pi_id {rec.pi_id}")
        years = [y for (j, y) in entries if j == rec.journal and y <= rec.year]
        if years and (fallback is IFFallback.NEAREST_PRIOR_YEAR or rec.year in years):
            resolved[rec.paper_id] = entries[(rec.journal, max(years))]
        else:
            resolved[rec.paper_id] = None
            errors.append(f"paper {rec.paper_id}: no impact factor for {rec.journal} {rec.year}")
        if rec.is_corresponding:
            by_pi.setdefault(rec.pi_id, []).append(rec.paper_id)
        else:
            non_corresponding += 1
    if errors:
        return sorted(errors)
    warnings = ((f"{non_corresponding} non-corresponding record(s) excluded from scoring",)
                if non_corresponding else ())
    return resolved, by_pi, warnings


class TestDuplicatePaperIdsInAnyOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 12), min_size=1, max_size=20),
        pis=st.lists(st.sampled_from(["P1", "P2", "P3"]), min_size=20, max_size=20),
        same_ends=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    def test_refused_exactly_when_an_id_repeats(self, ids, pis, same_ends, rng):
        """Shuffled ids, spread across investigators, optionally with the
        first row's id repeated on the last row: the sort finds a repeat
        wherever it sits, and the errors are the row-by-row ones."""
        rng.shuffle(ids)
        if same_ends and len(ids) > 1:
            ids[-1] = ids[0]
        # Each record builds its own paper_id string, so repeats are equal
        # values, not one shared object.
        pubs = [PublicationRecord(f"p{k}", pi, 2000, "A", 2, 1)
                for k, pi in zip(ids, pis)]
        journals = [JournalYearIF("A", 2000, 1.5)]
        profiles = [InvestigatorProfile(pi, "CN", 1) for pi in ("P1", "P2", "P3")]
        expected = _validate_row_by_row(pubs, journals, profiles, IFFallback.OFF)
        if len(set(ids)) == len(ids):
            dataset = validate_dataset(pubs, journals, profiles)
            assert list(dataset.resolved_if) == [f"p{k}" for k in ids]
            return
        with pytest.raises(DataValidationError) as err:
            validate_dataset(pubs, journals, profiles)
        assert err.value.errors == expected
        assert {f"duplicate paper_id p{k}" for k in ids if ids.count(k) > 1} == set(
            err.value.errors)


class TestValidationMatchesRowByRow:
    @settings(max_examples=300, deadline=None)
    @given(
        papers=st.lists(st.tuples(
            st.sampled_from(["P1", "P2", "P3"]), st.integers(2000, 2004),
            st.sampled_from("ABC"), st.booleans()), max_size=12),
        duplicate=st.booleans(),
        dropped=st.sets(st.tuples(st.sampled_from("ABC"), st.integers(2000, 2004)),
                        max_size=3),
        ifs=st.lists(st.sampled_from([0.0, -0.0, 1.5, 2.25, 7.0]), min_size=15, max_size=15),
        pi_ids=st.sampled_from([["P1", "P2", "P3"], ["P3", "P1", "P2"], ["P1", "P2"],
                                ["P1", "P2", "P3", "P2"]]),
        fallback=st.sampled_from(list(IFFallback)),
    )
    def test_same_datasets_and_errors(self, papers, duplicate, dropped, ifs, pi_ids,
                                      fallback):
        """Checked a column at a time, resolved once per (journal, year): the same
        resolved_if, corresponding papers, scoring IFs and warnings, or the same
        sorted errors, as the loop over records."""
        pubs = [PublicationRecord(f"p{i}", pi, y, j, 2, 1, 1, c)
                for i, (pi, y, j, c) in enumerate(papers)]
        if duplicate and pubs:
            pubs.append(pubs[0])
        entries = [(j, y) for j in "ABC" for y in range(2000, 2005) if (j, y) not in dropped]
        journals = [JournalYearIF(j, y, v) for (j, y), v in zip(entries, ifs)]
        profiles = [InvestigatorProfile(pi, "CN", 1) for pi in pi_ids]
        expected = _validate_row_by_row(pubs, journals, profiles, fallback)
        try:
            dataset = validate_dataset(pubs, journals, profiles, fallback)
        except DataValidationError as exc:
            assert exc.errors == expected
            return
        resolved, by_pi, warnings = expected
        assert [(k, repr(v)) for k, v in dataset.resolved_if.items()] == [
            (k, repr(v)) for k, v in resolved.items()]
        assert dataset.warnings == warnings
        for pi in pi_ids:
            papers_of = dataset.corresponding_papers(pi)
            assert [r.paper_id for r in papers_of] == by_pi.get(pi, [])
            assert [(r, repr(v)) for r, v in dataset._papers_with_if(pi)] == [
                (r, repr(resolved[r.paper_id])) for r in papers_of]
