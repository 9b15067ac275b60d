"""Output, equivalent time, efficiency and leadership.

The hand-computable expectations below use the two-journal dataset from
conftest: JA has IF 4.0 in 2010 (weighted 8.0 by the two-level table),
JB has IF 1.0 (weighted 1.0).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex import analysis, metrics
from leadindex.analysis import trend
from leadindex.credit import CreditScenario, a_index
from leadindex.errors import UndefinedMetricError
from leadindex.metrics import (
    ScoredPaper,
    _metrics,
    efficiency,
    equivalent_time,
    leadership,
    leadership_from_funding,
    output_raw,
    output_weighted,
    score_all,
)
from leadindex.model import (
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    validate_dataset,
)
from leadindex.toughness import weighted_if


def paper(value, a, raw=None, pid="x"):
    return ScoredPaper(paper_id=pid, value_raw=value if raw is None else raw,
                       value=value, a=a)


def random_corpus(rng, max_papers=200, max_authors=30):
    papers = []
    for i in range(rng.randint(1, max_papers)):
        impact = rng.uniform(1e-6, 50.0)
        n = rng.randint(1, max_authors)
        share = a_index(n, rng.randint(1, n))
        papers.append(paper(impact, share, pid=f"p{i}"))
    return papers


class TestScoredPaper:
    def test_share_must_be_a_probability(self):
        with pytest.raises(ValueError):
            paper(1.0, 0.0)
        with pytest.raises(ValueError):
            paper(1.0, 1.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_values_must_be_finite(self, bad):
        for raw, value in ((bad, bad), (1.0, bad), (bad, 1.0)):
            with pytest.raises(ValueError, match="^paper values must be finite and >= 0$"):
                ScoredPaper("x", raw, value, 1.0)

    def test_weighted_value_zero_implies_raw_zero(self):
        with pytest.raises(ValueError):
            ScoredPaper("x", 2.0, 0.0, 1.0)
        ScoredPaper("x", 0.0, 0.0, 1.0)


class TestOutput:
    def test_empty_sum_is_zero(self):
        assert output_raw([]) == 0.0
        assert output_weighted([]) == 0.0

    def test_two_terms(self):
        papers = [paper(3.0, 1.0), paper(2.5, 1.0)]
        assert output_raw(papers) == 5.5

    def test_unit_weight_matches_raw(self):
        p = ScoredPaper("x", 2.5, 2.5, 0.5)
        assert output_weighted([p]) == output_raw([p])

    def test_matches_naive_loop_exactly_on_grid_values(self):
        # values on a 1/1024 grid keep every partial sum exact, so the
        # naive left-to-right loop is an exact oracle
        rng = random.Random(1234)
        papers = [paper(rng.randrange(1, 4096) / 1024.0, 1.0) for _ in range(50)]
        total = 0.0
        for p in papers:
            total += p.value_raw
        assert output_raw(papers) == total


class TestEquivalentTime:
    def test_sole_author_single_paper(self):
        assert equivalent_time([paper(7.3, 1.0)]) == 1.0

    def test_two_half_credit_papers(self):
        t = equivalent_time([paper(8.0, 0.5), paper(2.0, 0.5)])
        assert t == 2.0

    def test_undefined_when_all_values_zero(self):
        with pytest.raises(UndefinedMetricError):
            equivalent_time([paper(0.0, 0.5)])
        with pytest.raises(UndefinedMetricError):
            equivalent_time([])

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_scale_invariant_and_at_least_one(self, seed):
        rng = random.Random(seed)
        papers = random_corpus(rng, max_papers=60)
        t = equivalent_time(papers)
        assert t >= 1.0
        for c in (0.1, 3.0, 1000.0):
            scaled = [paper(c * p.value, p.a) for p in papers]
            assert equivalent_time(scaled) == pytest.approx(t, rel=1e-12)


class TestEfficiencyAndLeadership:
    def test_plain_ratio(self):
        assert efficiency(10.0, 2.0) == 5.0
        assert efficiency(0.0, 1.0) == 0.0

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            efficiency(1.0, 0.0)

    def test_geometric_mean(self):
        assert leadership(10.0, 5.0) == math.sqrt(50.0)
        assert leadership(0.0, 17.0) == 0.0

    def test_finite_where_the_product_leaves_the_float_range(self):
        assert leadership(1e300, 1e300) == pytest.approx(1e300, rel=1e-15)
        assert leadership(1e-200, 1e-200) == pytest.approx(1e-200, rel=1e-15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            leadership(-1.0, 1.0)

    def test_funding_variant(self):
        assert leadership_from_funding(10.0, 4.0) == 5.0
        with pytest.raises(ValueError):
            leadership_from_funding(10.0, 0.0)

    def test_sole_author_corpus_collapses_to_output(self):
        papers = [paper(v, 1.0) for v in (3.5, 1.25, 9.0)]
        o = output_weighted(papers)
        t = equivalent_time(papers)
        assert t == 1.0
        assert leadership(o, efficiency(o, t)) == pytest.approx(o, rel=1e-9)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_three_formulations_agree(self, seed):
        rng = random.Random(seed)
        papers = random_corpus(rng)
        o = output_weighted(papers)
        t = equivalent_time(papers)
        via_efficiency = leadership(o, efficiency(o, t))
        via_time = o / math.sqrt(t)
        closed_form = o**1.5 / math.sqrt(math.fsum(p.value / p.a for p in papers))
        assert via_time == pytest.approx(via_efficiency, rel=1e-9)
        assert closed_form == pytest.approx(via_efficiency, rel=1e-9)


valued_papers = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300)),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=100).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))),
    ),
    min_size=1, max_size=30,
).filter(lambda papers: any(raw > 0 for raw, _, _ in papers))


class TestKernel:
    """_metrics, the pipeline's kernel, runs the public functions on its tuples."""

    @given(valued_papers)
    @settings(max_examples=100)
    def test_matches_public_functions(self, drawn):
        tuples = [(2010, raw, weight * raw, a_index(n, i)) for raw, weight, (n, i) in drawn]
        papers = [ScoredPaper(f"p{k}", raw, value, a)
                  for k, (_, raw, value, a) in enumerate(tuples)]
        o_prime, o, t, e, lead = _metrics("P1", (2010, 2010), tuples)
        for shape in (papers, tuples):
            assert o_prime == output_raw(shape)
            assert o == output_weighted(shape)
            assert t == equivalent_time(shape)
        assert t >= 1.0
        assert e == efficiency(o, t)
        assert lead == pytest.approx(leadership(o, e), rel=1e-14)
        assert lead == o / math.sqrt(t)

    def test_zero_value_names_investigator_and_period(self):
        with pytest.raises(UndefinedMetricError,
                           match=r"^investigator P7: equivalent time undefined in 2010-2012: "
                                 r"no paper with positive value$"):
            _metrics("P7", (2010, 2012), [(2010, 0.0, 0.0, 0.5), (2011, 0.0, 0.0, 1.0)])

    def test_score_all_and_trend_run_the_public_sums(
            self, small_dataset, two_level_table, monkeypatch):
        calls = []

        def counted(papers):
            calls.append(papers)
            return output_weighted(papers)

        monkeypatch.setattr(metrics, "output_weighted", counted)
        cards = score_all(small_dataset, (2010, 2011), two_level_table)
        assert len(calls) == sum(c.scored for c in cards) > 0
        calls.clear()
        series = trend(small_dataset, two_level_table, (2010, 2011))
        assert len(calls) == sum(p.n for p in series.points) > 0


class TestSumsBeyondTheFloatRange:
    """A public sum that leaves the float range raises a ValueError naming it;
    the kernel keeps its own text, naming the investigator and period."""

    big = ScoredPaper("a", 1e308, 1e308, 0.5)

    def test_time_of_one_paper(self):
        with pytest.raises(ValueError, match=r"^equivalent time T leaves the float range$"):
            equivalent_time([self.big])

    @pytest.mark.parametrize("function, name", [
        (output_raw, "output O'"), (output_weighted, "output O"), (equivalent_time, "output O"),
    ])
    def test_two_papers(self, function, name):
        with pytest.raises(ValueError, match=f"^{name} leaves the float range$"):
            function([self.big, self.big])

    @pytest.mark.parametrize("count", [1, 2])
    def test_kernel_names_investigator_and_period(self, count):
        with pytest.raises(ValueError, match=r"^investigator P1: non-finite metric in 2010-2011$"):
            _metrics("P1", (2010, 2011), [(2010, 1e308, 1e308, 0.5)] * count)

    @pytest.mark.parametrize("papers", [
        [(2010, 5e-324, 5e-324, 0.75)] * 2,  # O subnormal: T would read 2, not 4/3
        [(2010, 3e-308, 3e-308, 0.01)],  # O normal, E = O/100 and L = O/10 not
    ])
    def test_kernel_refuses_a_metric_below_the_normal_range(self, papers):
        with pytest.raises(ValueError, match=r"^investigator P1: metric below the normal "
                                             r"float range in 2010-2011$"):
            _metrics("P1", (2010, 2011), papers)


def card_of(dataset, pi_id, period, table, scenario=CreditScenario.RANKED):
    """The card that score_all returns for one investigator."""
    [card] = [c for c in score_all(dataset, period, table, scenario) if c.pi_id == pi_id]
    return card


class TestScoreAll:
    def test_cards_sorted_by_pi_and_include_unscored(self, small_dataset, two_level_table):
        cards = score_all(small_dataset, (2010, 2011), two_level_table)
        assert [c.pi_id for c in cards] == ["P1", "P2", "P3"]
        assert [c.scored for c in cards] == [True, True, False]

    def test_hand_computed_card(self, small_dataset, two_level_table):
        card = card_of(small_dataset, "P1", (2010, 2010), two_level_table)
        # papers: JA IF 4.0 weighted 8.0 with a = a_index(2,1) = 0.75,
        #         JB IF 1.0 weighted 1.0 with a = 1.0
        assert card.paper_count == 2
        assert card.o_raw == 5.0
        assert card.o_weighted == 9.0
        expected_t = (8.0 / 0.75 + 1.0) / 9.0
        assert card.t_equiv == pytest.approx(expected_t, rel=1e-12)
        assert card.efficiency == pytest.approx(9.0 / expected_t, rel=1e-12)
        assert card.leadership == pytest.approx(9.0 / math.sqrt(expected_t), rel=1e-12)
        assert card.l_fund == pytest.approx(9.0 / math.sqrt(250000.0), rel=1e-12)

    def test_period_filters_out_everything(self, small_dataset, two_level_table):
        card = card_of(small_dataset, "P1", (2012, 2013), two_level_table)
        assert not card.scored
        assert card.paper_count == 0
        assert card.leadership is None

    def test_non_corresponding_papers_never_score(self, small_dataset, two_level_table):
        # P1's only 2011 paper is non-corresponding
        card = card_of(small_dataset, "P1", (2011, 2011), two_level_table)
        assert not card.scored

    def test_inverted_period_rejected(self, small_dataset, two_level_table):
        with pytest.raises(ValueError):
            score_all(small_dataset, (2012, 2010), two_level_table)

    def test_unfunded_profile_has_no_l_fund(self, small_dataset, two_level_table):
        card = card_of(small_dataset, "P2", (2010, 2011), two_level_table)
        assert card.scored
        assert card.l_fund is None

    def test_zero_funding_has_no_l_fund(self, small_dataset, two_level_table):
        profiles = dict(small_dataset.profiles)
        profiles["P2"] = InvestigatorProfile("P2", "CN", 2, total_funding=0.0, currency="CNY")
        dataset = validate_dataset(small_dataset.publications, [
            JournalYearIF("JA", 2010, 4.0), JournalYearIF("JA", 2011, 4.5),
            JournalYearIF("JB", 2010, 1.0), JournalYearIF("JB", 2011, 1.25),
        ], profiles.values())
        card = card_of(dataset, "P2", (2010, 2011), two_level_table)
        assert card.scored
        assert card.l_fund is None

    def test_tied_scenario_changes_the_share(self, two_level_table):
        dataset = validate_dataset(
            [PublicationRecord("p1", "P1", 2010, "JA", 4, 1, tie_span=2)],
            [JournalYearIF("JA", 2010, 2.0)],
            [InvestigatorProfile("P1", "CN", 1)],
        )
        ranked = card_of(dataset, "P1", (2010, 2010), two_level_table, CreditScenario.RANKED)
        tied = card_of(dataset, "P1", (2010, 2010), two_level_table, CreditScenario.TIED)
        assert ranked.t_equiv == pytest.approx(1.0 / a_index(4, 1), rel=1e-12)
        assert tied.t_equiv == pytest.approx(1.0 / a_index(4, 1, 2), rel=1e-12)
        assert tied.t_equiv > ranked.t_equiv


def per_paper_valuer(dataset, table, scenario):
    """The reference valuation: a_index and weighted_if called for every paper."""
    tied = scenario is CreditScenario.TIED

    _, _, years, _, counts, positions, spans, _ = dataset.columns

    def valued(pi_id, period):
        start, end = period
        papers = []
        for k in dataset.rows_by_pi.get(pi_id, ()):
            if not start <= years[k] <= end:
                continue
            raw = dataset.ifs[k]
            share = a_index(counts[k], positions[k], spans[k] if tied else 1)
            papers.append((years[k], raw, weighted_if(table, raw), share))
        return papers

    return valued


class TestMemoisedValuation:
    @pytest.mark.parametrize("scenario", list(CreditScenario))
    def test_score_all_and_trend_match_per_paper_valuation(
            self, two_level_table, scenario, monkeypatch):
        # JA and JB share each year's IF; JC sits on the table's cutoff 3.0.
        rng = random.Random(9)
        journals = [JournalYearIF(j, year, impact)
                    for year in range(2008, 2013)
                    for j, impact in (("JA", 1.5 + year % 2), ("JB", 1.5 + year % 2),
                                      ("JC", 3.0), ("JD", 7.25))]
        publications = []
        for k in range(300):
            n = rng.randint(1, 5)
            i = rng.randint(1, n)
            publications.append(PublicationRecord(
                f"p{k}", f"P{rng.randrange(12)}", rng.randint(2008, 2012),
                f"J{rng.choice('ABCD')}", n, i, rng.randint(1, n - i + 1),
                rng.random() < 0.8))
        profiles = [InvestigatorProfile(f"P{k}", "CN", 1 + k % 3) for k in range(13)]
        dataset = validate_dataset(publications, journals, profiles)
        period = (2009, 2012)

        cards = score_all(dataset, period, two_level_table, scenario)
        series = trend(dataset, two_level_table, period, scenario)
        monkeypatch.setattr(metrics, "_valuer", per_paper_valuer)
        monkeypatch.setattr(analysis, "_valuer", per_paper_valuer)
        assert cards == score_all(dataset, period, two_level_table, scenario)
        assert series == trend(dataset, two_level_table, period, scenario)
        assert sum(c.scored for c in cards) >= 10
