"""Cohort summaries, T-binning, trends and funding correlations."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex.analysis import (
    Grouping,
    age_band,
    bin_by_time,
    cohort_report,
    funding_correlations,
    trend,
)
from leadindex.credit import CreditScenario, scenario_share
from leadindex.errors import DataValidationError
from leadindex.metrics import score_all
from leadindex.model import (
    Gender,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    Rank,
    ScoreCard,
    validate_dataset,
)
from leadindex.stats import significance_mark
from leadindex.toughness import DivisorMode, ToughnessTable

# Two groups drawn from one normal distribution (seeded, reference Welch
# result frozen independently): p is comfortably nonsignificant.
SAME_DIST_G1 = [51.2573, 48.679, 56.4042, 51.049, 44.6433, 53.616, 63.04,
                59.4708, 42.9626, 37.3458, 43.7673, 50.4133]
SAME_DIST_G2 = [26.7497, 47.8121, 37.5409, 42.6773, 44.5574, 46.837, 54.1163,
                60.4251, 48.7147, 63.6646, 43.3481, 53.5151, 59.0347, 50.9401,
                42.565]
SAME_DIST_P = 0.5312795416473539


def profiles_dataset(profiles):
    return validate_dataset([], [], profiles)


def card_from_leadership(pid, v, paper_count=3):
    """Scorecard whose metrics are affine images of one leadership value.

    A common affine map applied to both groups leaves the Welch statistic
    unchanged, so every metric of a cohort built this way shares one
    reference p-value.
    """
    return ScoreCard(
        pi_id=pid,
        period=(2010, 2012),
        paper_count=paper_count,
        o_raw=v + 5.0,
        o_weighted=2.0 * v,
        t_equiv=v / 50.0 + 1.0,
        efficiency=0.3 * v + 2.0,
        leadership=v,
    )


class TestAgeBand:
    @pytest.mark.parametrize(
        "age,band",
        [(25, "Under 36"), (35, "Under 36"), (36, "36-40"), (40, "36-40"),
         (41, "41-45"), (45, "41-45"), (46, "46-50"), (50, "46-50"),
         (51, "51-55"), (55, "51-55"), (56, "56-60"), (60, "56-60"),
         (61, "Over 60"), (75, "Over 60")],
    )
    def test_inclusive_lower_bounds(self, age, band):
        assert age_band(age) == band


class TestCohortReport:
    def make_two_tier_inputs(self):
        profiles = []
        cards = []
        for i, v in enumerate(SAME_DIST_G1):
            pid = f"A{i:02d}"
            profiles.append(InvestigatorProfile(pid, "CN", 1))
            cards.append(card_from_leadership(pid, v))
        for i, v in enumerate(SAME_DIST_G2):
            pid = f"B{i:02d}"
            profiles.append(InvestigatorProfile(pid, "CN", 2))
            cards.append(card_from_leadership(pid, v))
        return profiles_dataset(profiles), cards

    def test_same_distribution_groups_earn_no_marks(self):
        dataset, cards = self.make_two_tier_inputs()
        report = cohort_report(dataset, cards, Grouping.CLASS, reference_group="1")
        assert [g.group for g in report.groups] == ["1", "2"]
        group2 = report.groups[1]
        assert group2.n == len(SAME_DIST_G2)
        lead = group2.metrics["leadership"]
        assert lead.p == pytest.approx(SAME_DIST_P, rel=1e-9)
        assert lead.mark == ""
        # the affine metrics share the same p; paper_count is constant in
        # both groups, which by convention compares as p = 1
        for metric in ("o_raw", "o_weighted", "t_equiv", "efficiency"):
            assert group2.metrics[metric].p == pytest.approx(SAME_DIST_P, rel=1e-9)
            assert group2.metrics[metric].mark == ""
        assert group2.metrics["paper_count"].p == 1.0

    def test_reference_group_itself_is_never_compared(self):
        dataset, cards = self.make_two_tier_inputs()
        report = cohort_report(dataset, cards, Grouping.CLASS, reference_group="1")
        reference = next(g for g in report.groups if g.group == "1")
        for summary in reference.metrics.values():
            assert summary.p is None
            assert summary.mark == ""

    def test_separated_groups_earn_double_stars(self):
        profiles = []
        cards = []
        for i, v in enumerate(SAME_DIST_G1):
            profiles.append(InvestigatorProfile(f"A{i:02d}", "CN", 1))
            cards.append(card_from_leadership(f"A{i:02d}", v))
        for i, v in enumerate(SAME_DIST_G2):
            profiles.append(InvestigatorProfile(f"B{i:02d}", "CN", 2))
            cards.append(card_from_leadership(f"B{i:02d}", v + 200.0))
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.CLASS,
                               reference_group="1")
        lead = report.groups[1].metrics["leadership"]
        assert lead.p < 0.01
        assert lead.mark == "**"

    def test_marks_always_consistent_with_p(self):
        dataset, cards = self.make_two_tier_inputs()
        report = cohort_report(dataset, cards, Grouping.CLASS, reference_group="1")
        for group in report.groups:
            for summary in group.metrics.values():
                if summary.p is not None and group.group != "1":
                    assert summary.mark == significance_mark(summary.p)

    def test_single_group_cohort_has_no_marks(self):
        profiles = [InvestigatorProfile(f"P{i}", "CN", 1) for i in range(4)]
        cards = [card_from_leadership(f"P{i}", 10.0 + i) for i in range(4)]
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.CLASS,
                               reference_group="1")
        assert len(report.groups) == 1
        for summary in report.groups[0].metrics.values():
            assert summary.mark == ""

    def test_unscored_and_unknown_counted(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, gender=Gender.MALE),
            InvestigatorProfile("P2", "CN", 1),  # gender unknown
            InvestigatorProfile("P3", "CN", 1, gender=Gender.FEMALE),
        ]
        cards = [
            card_from_leadership("P1", 5.0),
            card_from_leadership("P2", 6.0),
            ScoreCard("P3", (2010, 2012), 0, None, None, None, None, None),
        ]
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.GENDER)
        assert report.unscored == 1
        assert report.unknown_group == 1
        assert sum(g.n for g in report.groups) == 1

    def test_group_counts_partition_scored_known_cards(self):
        rng = random.Random(5)
        profiles = []
        cards = []
        for i in range(60):
            pid = f"P{i:02d}"
            profiles.append(InvestigatorProfile(pid, "CN", rng.choice((1, 2, 3))))
            if rng.random() < 0.8:
                cards.append(card_from_leadership(pid, rng.uniform(1, 30)))
            else:
                cards.append(ScoreCard(pid, (2010, 2012), 0, None, None, None, None, None))
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.CLASS)
        scored = sum(1 for c in cards if c.scored)
        assert sum(g.n for g in report.groups) + report.unscored == len(cards)
        assert sum(g.n for g in report.groups) == scored

    def test_age_band_grouping_with_boundary_birth_year(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, birth_year=1974),  # exactly 36 in 2010
            InvestigatorProfile("P2", "CN", 1, birth_year=1980),
            InvestigatorProfile("P3", "CN", 1),  # unknown birth year
        ]
        cards = [card_from_leadership(p.pi_id, 4.0 + i) for i, p in enumerate(profiles)]
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.AGE_BAND,
                               age_reference_year=2010)
        assert [g.group for g in report.groups] == ["Under 36", "36-40"]
        assert report.unknown_group == 1

    def test_age_bands_default_reference_is_period_start(self):
        profiles = [InvestigatorProfile("P1", "CN", 1, birth_year=1974)]
        cards = [card_from_leadership("P1", 4.0)]  # period starts 2010
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.AGE_BAND)
        assert report.groups[0].group == "36-40"

    def test_reference_year_before_birth_year_rejected(self):
        profiles = [InvestigatorProfile("P1", "CN", 1, birth_year=1974),
                    InvestigatorProfile("P2", "CN", 1, birth_year=1980)]
        cards = [card_from_leadership(p.pi_id, 4.0) for p in profiles]
        with pytest.raises(ValueError, match="P2"):
            cohort_report(profiles_dataset(profiles), cards, Grouping.AGE_BAND,
                          age_reference_year=1979)
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.AGE_BAND,
                               age_reference_year=1980)
        assert [g.group for g in report.groups] == ["Under 36"]

    def test_age_bands_sorted_by_age_not_lexicographically(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, birth_year=1980),  # Under 36
            InvestigatorProfile("P2", "CN", 1, birth_year=1940),  # Over 60
            InvestigatorProfile("P3", "CN", 1, birth_year=1962),  # 46-50
        ]
        cards = [card_from_leadership(p.pi_id, 4.0) for p in profiles]
        report = cohort_report(profiles_dataset(profiles), cards, Grouping.AGE_BAND,
                               age_reference_year=2010)
        assert [g.group for g in report.groups] == ["Under 36", "46-50", "Over 60"]

    def test_rank_and_country_groupings(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, rank=Rank.PROFESSOR),
            InvestigatorProfile("P2", "US", 2, rank=Rank.ASSIST_PROFESSOR),
        ]
        cards = [card_from_leadership("P1", 4.0), card_from_leadership("P2", 6.0)]
        dataset = profiles_dataset(profiles)
        by_rank = cohort_report(dataset, cards, Grouping.RANK)
        assert [g.group for g in by_rank.groups] == ["assist_professor", "professor"]
        by_country = cohort_report(dataset, cards, Grouping.COUNTRY)
        assert [g.group for g in by_country.groups] == ["CN", "US"]


class TestBinByTime:
    def test_nearest_neighbor_assignment(self):
        series = bin_by_time([(3.74, 1.0)], step=0.5)
        assert series.bins[0].center == 3.5

    def test_midpoint_ties_round_up(self):
        series = bin_by_time([(3.75, 1.0)], step=0.5)
        assert series.bins[0].center == 4.0

    def test_named_outliers_go_to_excluded(self):
        samples = [(36.0, 4.745829), (50.0, 0.9015656), (84.5, 1.838076),
                   (2.0, 3.0)]
        series = bin_by_time(samples, step=0.5, exclude=[36.0, 50.0, 84.5])
        assert len(series.excluded) == 3
        assert {e.t for e in series.excluded} == {36.0, 50.0, 84.5}
        assert [b.center for b in series.bins] == [2.0]

    def test_max_t_cap(self):
        series = bin_by_time([(1.0, 5.0), (30.2, 2.0)], step=0.5, max_t=20.0)
        assert len(series.bins) == 1
        assert series.excluded[0].t == 30.2
        assert "max_t" in series.excluded[0].reason

    def test_mean_and_count_per_bin(self):
        series = bin_by_time([(1.1, 2.0), (0.9, 4.0), (2.0, 9.0)], step=1.0)
        assert series.bins[0] .center == 1.0
        assert series.bins[0].count == 2
        assert series.bins[0].mean_leadership == 3.0

    def test_nonpositive_step_rejected(self):
        for step in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                bin_by_time([], step=step)
        with pytest.raises(ValueError):
            bin_by_time([(30.2, 2.0)], step=0.5, max_t=math.nan)
        with pytest.raises(ValueError):
            bin_by_time([(30.2, 2.0)], step=0.5, exclude=[30.2, math.nan])

    def test_empty_input(self):
        series = bin_by_time([], step=0.5)
        assert series.bins == () and series.excluded == ()

    def test_step_too_small_for_a_sample_is_named(self):
        assert bin_by_time([(1.5, 2.0)], step=1e-300).bins[0].count == 1
        with pytest.raises(ValueError, match=r"step 5e-324 is too small for T 1\.5"):
            bin_by_time([(1.5, 2.0)], step=5e-324)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=500.0),
                      st.floats(min_value=0.0, max_value=50.0)),
            max_size=300,
        ),
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=60)
    def test_partition_and_center_properties(self, samples, step):
        series = bin_by_time(samples, step=step)
        assert sum(b.count for b in series.bins) + len(series.excluded) == len(samples)
        centers = [b.center for b in series.bins]
        assert centers == sorted(centers)
        for center in centers:
            assert center == pytest.approx(round(center / step) * step, rel=1e-12)
        for b in series.bins:
            assert b.count >= 1


def build_trend_dataset():
    publications = [
        PublicationRecord("p1", "P1", 2010, "JA", 1, 1),
        PublicationRecord("p2", "P2", 2012, "JA", 2, 1),
    ]
    journals = [JournalYearIF("JA", year, 2.0) for year in (2010, 2011, 2012)]
    profiles = [
        InvestigatorProfile("P1", "CN", 1),
        InvestigatorProfile("P2", "US", 2),
    ]
    return validate_dataset(publications, journals, profiles)


@pytest.fixture
def one_level_table():
    return ToughnessTable((), 1, 1, DivisorMode.GEOMETRIC_SUM, (1,))


class TestTrend:
    def test_single_paper_year_carries_its_metrics(self, one_level_table):
        dataset = build_trend_dataset()
        series = trend(dataset, one_level_table, (2010, 2012), country="CN")
        assert [p.year for p in series.points] == [2010, 2011, 2012]
        first = series.points[0]
        assert first.n == 1
        assert first.o_weighted == 2.0
        assert first.t_equiv == 1.0
        assert first.leadership == 2.0
        assert series.points[1].n == 0
        assert series.points[1].leadership is None

    def test_disjoint_investigators_average_alone(self, one_level_table):
        dataset = build_trend_dataset()
        series = trend(dataset, one_level_table, (2010, 2012))
        assert series.points[0].n == 1
        assert series.points[2].n == 1
        # P2 published with a coauthor: a = a_index(2, 1) = 0.75
        assert series.points[2].t_equiv == pytest.approx(1.0 / 0.75, rel=1e-12)

    def test_tier_filter(self, one_level_table):
        dataset = build_trend_dataset()
        series = trend(dataset, one_level_table, (2010, 2012), tier=2)
        assert series.points[0].n == 0
        assert series.points[2].n == 1

    def test_inverted_span_rejected(self, one_level_table):
        with pytest.raises(ValueError):
            trend(build_trend_dataset(), one_level_table, (2012, 2010))

    def test_overflowing_year_sum_takes_the_halving_mean(self, one_level_table):
        # Two sole authors at IF 1e308 in one year: each column of the year
        # sums past the float range, so its mean comes from stats.mean's
        # halving path over the packed rows.
        publications = [PublicationRecord("p1", "P1", 2011, "JA", 1, 1),
                        PublicationRecord("p2", "P2", 2011, "JA", 1, 1)]
        journals = [JournalYearIF("JA", 2011, 1e308)]
        profiles = [InvestigatorProfile("P1", "CN", 1), InvestigatorProfile("P2", "US", 1)]
        dataset = validate_dataset(publications, journals, profiles)
        series = trend(dataset, one_level_table, (2010, 2012))
        point = series.points[1]
        assert (point.year, point.n) == (2011, 2)
        assert point.o_weighted == point.efficiency == point.leadership == 1e308
        assert point.t_equiv == 1.0
        for empty in (series.points[0], series.points[2]):
            assert empty.n == 0
            assert empty[2:] == (None,) * 4

    def test_matches_naive_regroup_oracle(self, two_level_table):
        # JA (IF 3.0) sits in the top level of two_level_table and weighs 2;
        # JB (IF 1.5) sits in the bottom level and weighs 1.
        rng = random.Random(31)
        publications = []
        weighted = {"JA": 6.0, "JB": 1.5}
        journals = [JournalYearIF(j, y, 3.0 if j == "JA" else 1.5)
                    for j in weighted for y in range(2007, 2014)]
        profiles = [InvestigatorProfile(f"P{i}", "CN", 1) for i in range(8)]
        for i in range(80):
            n = rng.randint(1, 6)
            position = rng.randint(1, n)
            publications.append(
                PublicationRecord(f"p{i}", f"P{rng.randrange(8)}",
                                  rng.randint(2007, 2013), rng.choice(("JA", "JB")),
                                  n, position, rng.randint(1, n - position + 1),
                                  rng.random() < 0.8)
            )
        assert any(r.tie_span > 1 for r in publications)
        dataset = validate_dataset(publications, journals, profiles)

        for scenario in CreditScenario:
            series = trend(dataset, two_level_table, (2008, 2012), scenario)
            assert [p.year for p in series.points] == list(range(2008, 2013))
            for point in series.points:
                leads = []
                for pid in sorted(p.pi_id for p in profiles):
                    records = [r for r in publications if r.pi_id == pid
                               and r.year == point.year and r.is_corresponding]
                    if not records:
                        continue
                    values = [weighted[r.journal] for r in records]
                    shares = [scenario_share(r.author_count, r.credit_position,
                                             r.tie_span, scenario) for r in records]
                    o = sum(values)
                    t = sum(v / a for v, a in zip(values, shares)) / o
                    leads.append(o / math.sqrt(t))
                assert point.n == len(leads)
                if leads:
                    assert point.leadership == pytest.approx(
                        sum(leads) / len(leads), rel=1e-9
                    )

                cards = [c for c in score_all(dataset, (point.year, point.year),
                                              two_level_table, scenario) if c.scored]
                assert point.n == len(cards)
                for metric in ("leadership", "o_weighted", "efficiency", "t_equiv"):
                    expected = (math.fsum(getattr(c, metric) for c in cards) / len(cards)
                                if cards else None)
                    assert getattr(point, metric) == expected


class TestFundingCorrelations:
    def funded_profiles(self, currency="CNY"):
        rng = random.Random(77)
        profiles = []
        cards = []
        for i in range(12):
            pid = f"P{i:02d}"
            funding = rng.uniform(1e4, 1e6)
            tier = (i % 3) + 1
            profiles.append(
                InvestigatorProfile(pid, "CN", tier, total_funding=funding,
                                    currency=currency)
            )
            cards.append(card_from_leadership(pid, funding / 1e4))  # perfectly linear
        return profiles_dataset(profiles), cards

    def test_perfect_linear_relation(self):
        dataset, cards = self.funded_profiles()
        rows, samples = funding_correlations(dataset, cards)
        overall = rows[0]
        assert overall.group == "overall"
        assert overall.n == 12
        assert overall.r == pytest.approx(1.0, abs=1e-12)
        assert overall.mark == "**"
        assert [r.group for r in rows] == ["overall", "1", "2", "3"]
        assert len(samples) == 12

    def test_mixed_currencies_rejected(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, total_funding=10.0, currency="CNY"),
            InvestigatorProfile("P2", "US", 1, total_funding=10.0, currency="USD"),
        ]
        cards = [card_from_leadership("P1", 1.0), card_from_leadership("P2", 2.0)]
        with pytest.raises(DataValidationError, match="currencies"):
            funding_correlations(profiles_dataset(profiles), cards)

    def test_small_groups_get_blank_rows(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, total_funding=10.0, currency="CNY"),
            InvestigatorProfile("P2", "CN", 1, total_funding=20.0, currency="CNY"),
        ]
        cards = [card_from_leadership("P1", 1.0), card_from_leadership("P2", 2.0)]
        rows, _ = funding_correlations(profiles_dataset(profiles), cards)
        assert all(r.r is None and r.p is None and r.mark == "" for r in rows)

    def test_equal_funding_gets_a_blank_row(self):
        profiles = [InvestigatorProfile(f"P{i}", "CN", 1, total_funding=10.0, currency="CNY")
                    for i in range(3)]
        cards = [card_from_leadership(f"P{i}", float(i + 1)) for i in range(3)]
        rows, _ = funding_correlations(profiles_dataset(profiles), cards)
        assert [(r.group, r.n, r.r, r.p, r.mark) for r in rows] == [
            ("overall", 3, None, None, ""), ("1", 3, None, None, "")]

    def test_unfunded_and_unscored_cards_skipped(self):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, total_funding=10.0, currency="CNY"),
            InvestigatorProfile("P2", "CN", 1),
        ]
        cards = [
            ScoreCard("P1", (2010, 2012), 0, None, None, None, None, None),
            card_from_leadership("P2", 2.0),
        ]
        rows, samples = funding_correlations(profiles_dataset(profiles), cards)
        assert samples == []
        assert rows[0].n == 0
