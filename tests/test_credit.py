"""Harmonic credit shares: anchors, normalization, ties, group sizing."""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex import credit
from leadindex.credit import (
    MAX_AUTHOR_COUNT,
    CreditScenario,
    a_index,
    group_size_for_credit,
    scenario_share,
)


def exact_share(n, i, s=1):
    """Rational-arithmetic reference for the harmonic credit share."""
    def h(k):
        return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))
    return sum((h(n) - h(k - 1)) / n for k in range(i, i + s)) / s


def test_sole_author_gets_everything():
    assert a_index(1, 1) == 1.0


def test_two_author_split_is_exact():
    assert a_index(2, 1) == 0.75
    assert a_index(2, 2) == 0.25


def test_first_of_seventeen_is_about_a_fifth():
    share = a_index(17, 1)
    assert share == pytest.approx(float(exact_share(17, 1)), rel=1e-12)
    assert 0.195 <= share <= 0.205
    # one more author pushes the lead share under the 0.20 target
    assert a_index(18, 1) < 0.20


@pytest.mark.parametrize("n,i,s", [(5, 2, 2), (9, 1, 3), (30, 28, 3), (4, 4, 1)])
def test_matches_rational_reference(n, i, s):
    assert a_index(n, i, s) == pytest.approx(float(exact_share(n, i, s)), rel=1e-12)


def test_tied_share_is_mean_of_tied_positions():
    tied = a_index(6, 2, 3)
    spread = [a_index(6, j) for j in (2, 3, 4)]
    assert tied == pytest.approx(sum(spread) / 3, rel=1e-12)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=60)
def test_shares_normalize_to_one(n):
    total = math.fsum(a_index(n, i) for i in range(1, n + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=2, max_value=150))
@settings(max_examples=40)
def test_shares_strictly_decrease_down_the_list(n):
    shares = [a_index(n, i) for i in range(1, n + 1)]
    assert all(a > b for a, b in zip(shares, shares[1:]))
    assert all(0 < s <= 1 for s in shares)


@pytest.mark.parametrize("n,i,s", [(0, 1, 1), (3, 0, 1), (3, 4, 1), (3, 1, 0), (3, 3, 2)])
def test_rejects_out_of_range_positions(n, i, s):
    with pytest.raises(ValueError):
        a_index(n, i, s)


@pytest.mark.parametrize("n,s,message", [
    (MAX_AUTHOR_COUNT + 1, 1, r"^author_count must be <= 100000, got 100001$"),
    (5, 0, r"^tie_span must be >= 1, got 0$"),
])
def test_refusals_use_the_record_texts_and_leave_the_cache(n, s, message):
    cached = len(credit._HARMONIC)
    with pytest.raises(ValueError, match=message):
        a_index(n, 1, s)
    assert len(credit._HARMONIC) == cached


def test_group_size_for_a_fifth_is_seventeen():
    assert group_size_for_credit(0.20) == 17


def test_group_size_tied_lead_pair():
    # with the top two positions tied, the share stays >= 0.20 up to n = 13
    assert group_size_for_credit(0.20, CreditScenario.TIED) == 13
    assert float(exact_share(13, 1, 2)) >= 0.20 > float(exact_share(14, 1, 2))


def test_group_size_full_credit_means_working_alone():
    assert group_size_for_credit(1.0) == 1


@pytest.mark.parametrize("target", [0.0, -0.1, 1.0001])
def test_group_size_rejects_bad_targets(target):
    with pytest.raises(ValueError):
        group_size_for_credit(target)


def test_group_size_target_below_the_author_cap_is_refused():
    # a_index(100000, 1) is about 1.2e-4, so the sweep runs out of authors
    with pytest.raises(ValueError, match="not reached within 100000 authors"):
        group_size_for_credit(1e-5)


def test_scenario_share_ranked_ignores_tie_span():
    assert scenario_share(5, 2, 3, CreditScenario.RANKED) == a_index(5, 2)


def test_scenario_share_tied_honors_tie_span():
    assert scenario_share(5, 2, 3, CreditScenario.TIED) == a_index(5, 2, 3)


def test_cache_is_safe_under_concurrent_growth():
    results = {}

    def worker(k):
        results[k] = a_index(3000 + k, 1)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k, value in results.items():
        assert value == a_index(3000 + k, 1)
