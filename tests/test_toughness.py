"""Toughness level construction and weight lookup."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex.toughness import (
    DivisorMode,
    ToughnessTable,
    build_table,
    estimate_paper_counts,
    weight_of,
    weighted_if,
)


class TestEstimatePaperCounts:
    def test_plain_division(self):
        rows, warnings = estimate_paper_counts([("J1", 1000, 2.0)])
        assert rows == [("J1", 500, 2.0)]
        assert warnings == []

    def test_rounds_half_to_even(self):
        rows, _ = estimate_paper_counts([("J1", 1001, 4.0), ("J2", 1250, 500.0)])
        assert rows[0][1] == 250  # 250.25
        assert rows[1][1] == 2    # 2.5 -> even neighbor

    def test_zero_impact_factor_passes_through_with_warning(self):
        rows, warnings = estimate_paper_counts([("J1", 900, 0.0)])
        assert rows == [("J1", 0, 0.0)]
        assert len(warnings) == 1 and "J1" in warnings[0]

    @pytest.mark.parametrize("citations,impact", [(-1, 2.0), (10, -0.5)])
    def test_rejects_negative_inputs(self, citations, impact):
        with pytest.raises(ValueError):
            estimate_paper_counts([("J1", citations, impact)])

    @pytest.mark.parametrize("citations,impact", [(5, 1e-320), (10**400, 2.5)],
                             ids=["quotient-inf", "citations-past-float"])
    def test_count_out_of_float_range_names_the_row(self, citations, impact):
        with pytest.raises(ValueError, match=r"^J1 \(2010\): paper count .* float range"):
            estimate_paper_counts([("J1 (2010)", citations, impact)])


def distinct_if_corpus(total, start=10_000.0):
    """`total` single-paper rows with strictly decreasing impact factors."""
    return [(1, start - i) for i in range(total)]


class TestBuildTable:
    def test_exact_doubling_partition(self):
        table = build_table(distinct_if_corpus(1023))
        assert table.base_count == 1
        assert table.level_sizes == tuple(2**i for i in range(10))
        assert table.weights == tuple(range(10, 0, -1))

    def test_cutoffs_are_level_minima(self):
        # 1023 papers with IFs 10000, 9999, ... level 1 = top paper only
        table = build_table(distinct_if_corpus(1023))
        assert table.cutoffs[0] == 10_000.0
        assert table.cutoffs[1] == 10_000.0 - 2  # level 2 holds papers 2..3
        assert weight_of(table, 10_000.0) == 10
        assert weight_of(table, 9_999.0) == 9
        assert weight_of(table, 0.5) == 1

    def test_divisor_modes_differ_on_the_same_corpus(self):
        corpus = [(85_696_000, 5.0)]
        geometric = build_table(corpus, divisor_mode=DivisorMode.GEOMETRIC_SUM)
        half_pow = build_table(corpus, divisor_mode=DivisorMode.HALF_POW)
        # the two documented readings of the level-size rule disagree on X;
        # both are pinned here and selectable
        assert geometric.base_count == 85_696_000 // 1023 == 83_769
        assert half_pow.base_count == 85_696_000 // 512 == 167_375

    def test_boundary_tie_takes_higher_level(self):
        # base 1; two papers share the top IF, so level 1 grows to hold both
        corpus = [(2, 100.0)] + [(1, 99.0 - 0.05 * i) for i in range(1021)]
        table = build_table(corpus)
        assert table.base_count == 1
        assert table.level_sizes[0] == 2
        assert weight_of(table, 100.0) == 10
        assert weight_of(table, 99.0) == 9

    def test_giant_tie_group_leaves_middle_levels_empty(self):
        table = build_table([(600, 5.0), (423, 1.0)])
        assert table.level_sizes == (600, 0, 0, 0, 0, 0, 0, 0, 0, 423)
        # empty levels inherit the cutoff above and can never match
        assert weight_of(table, 5.0) == 10
        assert weight_of(table, 4.999) == 1
        assert weight_of(table, 1.0) == 1

    def test_single_level_weights_everything_one(self):
        table = build_table([(50, 3.0), (10, 8.0)], level_count=1)
        assert table.cutoffs == ()
        assert weight_of(table, 1000.0) == 1

    def test_corpus_too_small_rejected(self):
        with pytest.raises(ValueError, match="need at least"):
            build_table([(1022, 2.0)])

    def test_huge_level_count_rejected_before_building_it(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="need at least"):
            build_table([(1023, 2.0)], level_count=10**18)
        assert time.perf_counter() - started < 1.0

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            build_table([(-1, 2.0), (2000, 1.0)])
        with pytest.raises(ValueError):
            build_table([(2000, -2.0)])

    def test_zero_count_rows_are_ignored(self):
        with_zero = build_table(distinct_if_corpus(1023) + [(0, 123.0)])
        without = build_table(distinct_if_corpus(1023))
        assert with_zero == without

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50)
    def test_level_sizes_partition_the_corpus(self, seed):
        rng = random.Random(seed)
        corpus = [
            (rng.randint(1, 500), round(rng.uniform(0.1, 60.0), 3))
            for _ in range(rng.randint(40, 120))
        ]
        total = sum(c for c, _ in corpus)
        if total < 1023:
            corpus.append((1023, 0.05))
            total += 1023
        table = build_table(corpus)
        assert sum(table.level_sizes) == total == table.total_papers
        assert all(a >= b for a, b in zip(table.cutoffs, table.cutoffs[1:]))

    def test_corpus_members_get_the_weight_of_their_level(self):
        rng = random.Random(99)
        corpus = [(rng.randint(1, 30), round(rng.uniform(0.1, 40.0), 2))
                  for _ in range(200)]
        table = build_table(corpus)
        # brute force: expand to single papers, walk levels of nominal size
        # base * 2^i, pulling whole tie groups up at boundaries
        papers = sorted(
            (impact for count, impact in corpus for _ in range(count)),
            reverse=True,
        )
        expected = {}
        position = 0
        boundaries = [table.base_count * (2**i - 1) for i in range(1, 10)]
        i = 0
        while i < len(papers):
            j = i
            while j < len(papers) and papers[j] == papers[i]:
                j += 1
            level = next((k for k, b in enumerate(boundaries) if position < b), 9)
            expected[papers[i]] = 10 - level
            position += j - i
            i = j
        for impact, weight in expected.items():
            assert weight_of(table, impact) == weight


class TestWeightOf:
    def test_rejects_negative_if(self, two_level_table):
        with pytest.raises(ValueError):
            weight_of(two_level_table, -1.0)

    def test_weighted_if_is_multiplicative(self, two_level_table):
        assert weighted_if(two_level_table, 4.0) == 8.0
        assert weighted_if(two_level_table, 2.5) == 2.5
        assert weighted_if(two_level_table, 0.0) == 0.0

    def test_monotone_over_sweep(self):
        table = build_table(distinct_if_corpus(2000))
        previous = 0
        for i in range(2000):
            weight = weight_of(table, 8000.0 + i)
            assert weight >= previous
            previous = weight


class TestTableInvariants:
    def test_weights_must_descend_to_one(self):
        for levels in (1, 2, 5, 10):
            table = build_table(distinct_if_corpus(2**levels - 1), level_count=levels)
            assert table.weights == tuple(range(levels, 0, -1))
            assert table.level_count == len(table.level_sizes) == levels

    def test_cutoffs_must_not_increase(self):
        with pytest.raises(ValueError):
            ToughnessTable((1.0, 5.0), 1, 7, DivisorMode.GEOMETRIC_SUM, (1, 2, 4))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            ToughnessTable((5.0,), 1, 7, DivisorMode.GEOMETRIC_SUM, (1, 2, 4))

    def test_table_without_levels_rejected(self):
        with pytest.raises(ValueError):
            ToughnessTable((), 0, 0, DivisorMode.GEOMETRIC_SUM, ())
