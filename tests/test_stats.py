"""Descriptive stats, Welch's t, Pearson's r against frozen reference values.

The fixtures below were computed with an independent reference
implementation (exact rational arithmetic where possible) and frozen
before this module was written.
"""

import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex.stats import (
    mean_sd,
    pearson,
    regularized_incomplete_beta,
    significance_mark,
    t_two_sided_p,
    welch_t_test,
)

# welch_t_test([1,2,3], [1,2,3,4,5,6]) reference values
WELCH_T = -1.5666989036012808
WELCH_DF = 6.797752808988765
WELCH_P = 0.16243478744179743

# 20-point seeded pearson fixture with its reference r and p
PEARSON_X = [5.4277, 2.5299, 2.8093, 2.75, 8.0344, 8.5942, 9.9989, 7.5622,
             0.902, 1.3423, 8.1083, 6.0067, 5.0637, 0.5047, 2.6409, 7.3619,
             0.1813, 6.1865, 5.1112, 1.0454]
PEARSON_Y = [4.8108, 4.6551, 2.5005, 4.581, 5.6768, 8.6951, 7.1894, 9.3038,
             2.3856, 0.5708, 5.7042, 5.6968, 5.8335, -1.9456, 1.9078, 3.4333,
             -0.8168, 7.5579, 4.7728, 2.6147]
PEARSON_R = 0.8301243259864621
PEARSON_P = 5.933262147143821e-06


class TestMeanSd:
    def test_singleton(self):
        assert mean_sd([5.0]) == (5.0, 0.0)

    def test_two_values(self):
        mean, sd = mean_sd([1.0, 3.0])
        assert mean == 2.0
        assert sd == math.sqrt(2.0)

    def test_constant_list_has_exactly_zero_sd(self):
        assert mean_sd([2.0, 2.0, 2.0, 2.0]) == (2.0, 0.0)
        # 0.1 is not exactly representable; the constant guard must still hold
        assert mean_sd([0.1] * 3) == (0.1, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_sd([])

    def test_squares_beyond_float_range(self):
        mean, sd = mean_sd([1e200, 3e200])
        assert mean == 2e200
        assert sd == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)

    def test_sums_beyond_float_range(self):
        mean, sd = mean_sd([1.5e308, 1.6e308])
        assert mean == pytest.approx(1.55e308, rel=1e-15)
        assert sd == pytest.approx(1e307 / math.sqrt(2.0), rel=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
    @settings(max_examples=60)
    def test_matches_exact_rational_reference(self, values):
        mean, sd = mean_sd(values)
        assert mean == pytest.approx(statistics.mean(values), rel=1e-12, abs=1e-12)
        assert sd == pytest.approx(statistics.stdev(values), rel=1e-12, abs=1e-12)


class TestWelch:
    def test_reference_fixture(self):
        t, df, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert t == pytest.approx(WELCH_T, rel=1e-12)
        assert df == pytest.approx(WELCH_DF, rel=1e-12)
        assert p == pytest.approx(WELCH_P, abs=1e-6)

    def test_identical_samples(self):
        t, _, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == 1.0

    def test_wide_separation_is_significant(self):
        _, _, p = welch_t_test([0.0, 0.001, 0.002], [100.0, 100.001, 100.002])
        assert 0.0 < p < 1e-6

    def test_both_constant_and_equal(self):
        t, df, p = welch_t_test([3.0, 3.0], [3.0, 3.0, 3.0])
        assert (t, p) == (0.0, 1.0)
        assert df == 3.0

    def test_both_constant_and_different(self):
        with pytest.warns(UserWarning):
            t, _, p = welch_t_test([0.0, 0.0], [1.0, 1.0])
        assert p == 0.0
        assert t == float("-inf")

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_scale_free(self, factor):
        a, b = [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        t, df, p = welch_t_test([v * factor for v in a], [v * factor for v in b])
        assert t == pytest.approx(WELCH_T, rel=1e-12)
        assert df == pytest.approx(WELCH_DF, rel=1e-12)
        assert p == pytest.approx(WELCH_P, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
    )
    @settings(max_examples=60)
    def test_antisymmetric_in_arguments(self, a, b):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t_ab, df_ab, p_ab = welch_t_test(a, b)
            t_ba, df_ba, p_ba = welch_t_test(b, a)
        assert t_ab == -t_ba or (t_ab == 0.0 and t_ba == 0.0)
        assert df_ab == df_ba
        assert p_ab == pytest.approx(p_ba, abs=1e-12)


def exact_pearson_r(x, y):
    """Pearson r of the given floats in rational arithmetic; None without variance."""
    fx = [Fraction(v) for v in x]
    fy = [Fraction(v) for v in y]
    mx = sum(fx) / len(fx)
    my = sum(fy) / len(fy)
    sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    sxx = sum((a - mx) ** 2 for a in fx)
    syy = sum((b - my) ** 2 for b in fy)
    if sxx == 0 or syy == 0:
        return None
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


class TestPearson:
    def test_exact_linear_relation(self):
        r, p = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert r == 1.0
        assert p == 0.0

    def test_exact_antilinear_relation(self):
        r, _ = pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0])
        assert r == -1.0

    def test_reference_fixture(self):
        r, p = pearson(PEARSON_X, PEARSON_Y)
        assert r == pytest.approx(PEARSON_R, rel=1e-12)
        assert p == pytest.approx(PEARSON_P, rel=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_collinear_values_near_an_ulp_apart(self):
        # Centering on unscaled means rounded these to r = 0.9428.
        r, p = pearson([0.0, 0.0, 2.220446049250313e-16], [1.0, 1.0, 1.0000000000000004])
        assert r == 1.0
        assert p == 0.0

    def test_spread_beyond_float_range(self):
        x = [-1e308, 1e308, 0.0, 5e307]
        r, _ = pearson(x, [1.0, 2.0, 1.5, 3.0])
        assert r == pytest.approx(exact_pearson_r(x, [1.0, 2.0, 1.5, 3.0]), abs=1e-12)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=40),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=60)
    def test_invariant_under_positive_affine_maps(self, x, scale, shift):
        # Rounding in the map itself can change r (x=[0, 2**-52, 2.58e-17],
        # scale 1, shift 1 gives r = 0.99434), so each r is checked against
        # the exact r of the floats actually passed.
        y = [0.7 * v + math.sin(v) for v in x]
        for values in (y, [scale * v + shift for v in y]):
            expected = exact_pearson_r(x, values)
            if expected is None:
                with pytest.raises(ValueError):
                    pearson(x, values)
            else:
                r, _ = pearson(x, values)
                assert r == pytest.approx(expected, abs=1e-12)


class TestIncompleteBeta:
    def test_uniform_cdf_special_case(self):
        # I_x(1, 1) is the identity
        for x in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry(self):
        lhs = regularized_incomplete_beta(2.5, 4.0, 0.3)
        rhs = 1.0 - regularized_incomplete_beta(4.0, 2.5, 0.7)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("a,b,x", [(0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 1.5)])
    def test_domain_errors(self, a, b, x):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, x)

    def test_monotone_in_x(self):
        values = [regularized_incomplete_beta(3.0, 5.0, x / 20) for x in range(21)]
        assert all(u <= v for u, v in zip(values, values[1:]))


def test_t_zero_gives_p_one():
    assert t_two_sided_p(0.0, 10.0) == 1.0


def test_t_infinite_gives_p_zero():
    assert t_two_sided_p(float("inf"), 10.0) == 0.0


@pytest.mark.parametrize(
    "p,mark",
    [(0.001, "**"), (0.009999, "**"), (0.01, "*"), (0.033, "*"),
     (0.049999, "*"), (0.05, ""), (0.9, "")],
)
def test_significance_marks_follow_thresholds(p, mark):
    assert significance_mark(p) == mark
