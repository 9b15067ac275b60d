"""Toughness level construction and weight lookup."""

import math
import random
import time
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadindex.toughness import (
    DivisorMode,
    ToughnessTable,
    build_table,
    estimate_paper_counts,
    top_level_size,
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
        # A NaN IF would sort anywhere; in the bottom level it is no cutoff.
        with pytest.raises(ValueError, match="impact_factor must be >= 0, got nan"):
            build_table([(2000, 1.0), (1, math.nan)])

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


def walk_table(corpus, level_count=10, divisor_mode=DivisorMode.GEOMETRIC_SUM):
    """The reference build: walk the impact factors from the top, placing each
    group by where its first paper falls among the boundaries."""
    if level_count < 1:
        raise ValueError("level_count must be >= 1")
    by_if = {}
    for count, impact_factor in corpus:
        if count < 0:
            raise ValueError(f"paper_count must be >= 0, got {count}")
        if not impact_factor >= 0:
            raise ValueError(f"impact_factor must be >= 0, got {impact_factor}")
        if count:
            by_if[impact_factor] = by_if.get(impact_factor, 0) + count
    base = top_level_size(sum(by_if.values()), level_count, divisor_mode)
    boundaries = [base * (2**i - 1) for i in range(1, level_count)]
    level_min = [None] * level_count
    level_sizes = [0] * level_count
    position = 0
    for impact_factor in sorted(by_if, reverse=True):
        level = bisect_right(boundaries, position)
        level_sizes[level] += by_if[impact_factor]
        level_min[level] = impact_factor
        position += by_if[impact_factor]
    cutoffs = []
    for minimum in level_min[:-1]:
        cutoffs.append(cutoffs[-1] if minimum is None else minimum)
    return ToughnessTable(tuple(cutoffs), divisor_mode, tuple(level_sizes))


def built_or_refused(build, corpus, level_count, divisor_mode):
    """A build's cutoffs (by repr) and level sizes, or its error text."""
    try:
        table = build(corpus, level_count, divisor_mode)
    except ValueError as error:
        return str(error)
    return list(map(repr, table.cutoffs)), table.level_sizes


@st.composite
def levelled_corpora(draw):
    """Corpora of unit counts, whose groups start on boundaries, of big groups
    that leave middle levels empty, of zero counts and repeated IFs; a few are
    too small or hold a refused row."""
    levels = draw(st.integers(1, 16))
    impacts = st.sampled_from([0.0, 5e-324, 1.0, 2.0, 7.0, 1e300]) | st.floats(0, 1e6)
    counts = st.sampled_from([0, 1]) | st.integers(0, 2**levels)
    corpus = draw(st.lists(st.tuples(counts, impacts), max_size=40))
    corpus.insert(draw(st.integers(0, len(corpus))),
                  (draw(st.integers(0, 2 ** (levels + 1))), draw(impacts)))
    if draw(st.integers(0, 9)):
        short = 2**levels - 1 - sum(count for count, _ in corpus)
        if short > 0:
            corpus.append((short, draw(impacts)))
    if not draw(st.integers(0, 9)):
        corpus.insert(draw(st.integers(0, len(corpus))),
                      draw(st.sampled_from([(-1, 1.0), (1, -1.0), (1, math.nan)])))
    return corpus, levels, draw(st.sampled_from(DivisorMode))


class TestBuildTableMatchesTheWalk:
    @given(levelled_corpora())
    @example((distinct_if_corpus(7), 3, DivisorMode.GEOMETRIC_SUM))  # starts on boundaries
    @example(([(600, 5.0), (423, 1.0)], 10, DivisorMode.GEOMETRIC_SUM))  # empty levels
    @example(([(1, 2.0), (0, 9.0), (3, 2.0), (4, 1.0)], 3, DivisorMode.HALF_POW))
    @settings(max_examples=400, deadline=None)
    def test_same_cutoffs_sizes_and_errors(self, drawn):
        corpus, levels, mode = drawn
        assert (built_or_refused(build_table, corpus, levels, mode)
                == built_or_refused(walk_table, corpus, levels, mode))


def scan_weight(table, impact_factor):
    """The reference lookup: the first cutoff from the top that the IF reaches."""
    for i, cutoff in enumerate(table.cutoffs):
        if impact_factor >= cutoff:
            return table.level_count - i
    return 1


@st.composite
def built_tables(draw):
    """build_table tables with tie groups, empty levels and single levels."""
    levels = draw(st.integers(1, 9))
    impacts = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, 7.0, 40.0]) | st.floats(0, 1e6)
    corpus = draw(st.lists(st.tuples(st.integers(0, 300), impacts), max_size=25))
    short = 2**levels - 1 - sum(count for count, _ in corpus)
    if short > 0:
        corpus.append((short, draw(impacts)))
    return build_table(corpus, levels, draw(st.sampled_from(DivisorMode)))


class TestWeightOf:
    def test_rejects_negative_if(self, two_level_table):
        with pytest.raises(ValueError):
            weight_of(two_level_table, -1.0)

    def test_rejects_nan_if(self, two_level_table):
        with pytest.raises(ValueError, match="impact_factor must be >= 0, got nan"):
            weight_of(two_level_table, math.nan)

    @given(built_tables(), st.lists(st.floats(0, 1e7), max_size=10))
    @example(build_table([(600, 5.0), (423, 1.0)]), [4.999])  # eight empty levels
    @example(build_table([(5, 3.0)], 1), [3.0])  # one level, no cutoff
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scan_over_cutoffs(self, table, extra):
        probes = [0.0, math.inf, *extra]
        for cutoff in table.cutoffs:
            probes += [cutoff, math.nextafter(cutoff, 0.0), math.nextafter(cutoff, math.inf)]
        for impact in probes:
            assert weight_of(table, impact) == scan_weight(table, impact), impact

    def test_lookup_does_not_grow_with_the_level_count(self):
        """Levels x distinct IFs, as score_all looks them up: 8x the levels
        must cost ~8x, not the 64x of a scan over every cutoff."""

        def seconds(levels):
            # One level per IF: 2**i papers at IF levels - i, base count 1.
            table = build_table([(2**i, float(levels - i)) for i in range(levels)], levels)
            impacts = [levels - i + 0.5 for i in range(levels)]
            best = math.inf
            for _ in range(5):
                started = time.perf_counter()
                for impact in impacts:
                    weight_of(table, impact)
                best = min(best, time.perf_counter() - started)
            return best

        ratio = seconds(2_000) / seconds(250)
        assert ratio < 25, f"8x the levels took {ratio:.1f}x as long"

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
            ToughnessTable((1.0, 5.0), DivisorMode.GEOMETRIC_SUM, (1, 2, 4))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            ToughnessTable((5.0,), DivisorMode.GEOMETRIC_SUM, (1, 2, 4))

    def test_table_without_levels_rejected(self):
        with pytest.raises(ValueError):
            ToughnessTable((), DivisorMode.GEOMETRIC_SUM, ())

    def test_counts_are_derived_not_stored(self):
        table = ToughnessTable((5.0, 2.0), DivisorMode.HALF_POW, (3, 6, 14))
        assert list(table._fields) == ["cutoffs", "divisor_mode", "level_sizes"]
        assert table.total_papers == 23
        assert table.base_count == 23 // 4
        for name in ("total_papers", "base_count", "level_count", "weights"):
            with pytest.raises(AttributeError):
                setattr(table, name, 1)

    def test_negative_level_size_rejected(self):
        with pytest.raises(ValueError, match=r"^level sizes must be >= 0, got -1$"):
            ToughnessTable((5.0, 2.0), DivisorMode.GEOMETRIC_SUM, (8, -1, 100))

    def test_too_few_papers_rejected_with_the_divisor_rule_text(self):
        with pytest.raises(ValueError) as exc:
            ToughnessTable((5.0, 2.0), DivisorMode.GEOMETRIC_SUM, (1, 1, 3))
        assert str(exc.value) == "corpus has 5 papers, need at least 2**3 - 1 for 3 levels"

    @pytest.mark.parametrize("cutoffs", [(math.nan,), (math.nan, 1.0), (5.0, math.nan)])
    def test_nan_cutoff_rejected(self, cutoffs):
        sizes = tuple(2**i for i in range(len(cutoffs) + 1))
        with pytest.raises(ValueError, match=r"^cutoffs must be non-increasing$"):
            ToughnessTable(cutoffs, DivisorMode.GEOMETRIC_SUM, sizes)
