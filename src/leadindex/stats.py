"""Statistical primitives: descriptive stats, Welch's t-test, Pearson's r.

Significance comes from the Student t distribution evaluated through the
regularized incomplete beta function, computed here with a continued
fraction so the package carries no external statistics dependency.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

_CF_EPS = 1e-10
_CF_MAX_ITER = 300
_CF_FPMIN = 1e-300


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; finite for finite values whose sum passes the float range."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        # Halving and doubling are exact, so the mean is the same up to rounding.
        return 2 * (math.fsum(v / 2 for v in values) / len(values))


def mean_sd(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator; 0.0 for n = 1)."""
    n = len(values)
    if n == 0:
        raise ValueError("mean_sd requires at least one value")
    first = values[0]
    if all(v == first for v in values):
        # Keep sd exactly 0 for constant input; fsum(n*v)/n can be off by
        # an ulp and would leak a spurious nonzero deviation.
        return float(first), 0.0
    center = mean(values)
    scale, unit = _unit_deviations(values, center)
    return center, scale * math.sqrt(math.fsum(u * u for u in unit) / (n - 1))


def _unit_deviations(values: list[float], center: float) -> tuple[float, list[float]]:
    """(scale, unit) with values - center == scale * unit and max |unit| in [1, 2).

    scale is a power of two, so the division is exact and squares of the
    units round as squares of the deviations would, but the largest can
    neither overflow nor underflow. A spread beyond the float range is
    taken on halves. All-zero deviations give scale 0.
    """
    deviations = [v - center for v in values]
    halved = math.isinf(max(map(abs, deviations)))
    if halved:
        deviations = [v / 2 - center / 2 for v in values]
    largest = max(map(abs, deviations))
    if largest == 0.0:
        return 0.0, deviations
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    return scale * (2 if halved else 1), [d / scale for d in deviations]


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # The even then the odd step of the fraction; only the odd one ends it.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_FPMIN:
                d = _CF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _CF_FPMIN:
                c = _CF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value of a t statistic with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(a: list[float], b: list[float]) -> tuple[float, float, float]:
    """Welch's unequal-variance t-test; returns (t, df, two-sided p).

    Degrees of freedom follow Welch-Satterthwaite. Degenerate inputs where
    both samples are constant have no defined statistic; by convention equal
    constants give p = 1 and different constants give p = 0 (with a warning),
    both reported with the pooled df n_a + n_b - 2.
    """
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("welch_t_test requires at least two values per sample")
    mean_a, sd_a = mean_sd(a)
    mean_b, sd_b = mean_sd(b)
    # Variances in units of the larger SD, so squaring neither overflows
    # nor underflows.
    scale, (ua, ub) = _unit_deviations([sd_a, sd_b], 0.0)
    va_n = ua * ua / na
    vb_n = ub * ub / nb
    if scale == 0.0:
        df = float(na + nb - 2)
        if mean_a == mean_b:
            return 0.0, df, 1.0
        warnings.warn(
            "welch_t_test: both samples constant with different values; "
            "p = 0 by convention",
            stacklevel=2,
        )
        return math.copysign(math.inf, mean_a - mean_b), df, 0.0
    t = (mean_a - mean_b) / scale / math.sqrt(va_n + vb_n)
    # Welch-Satterthwaite, with the variance shares normalized first so
    # squaring subnormal variances cannot underflow the denominator.
    share_a = va_n / (va_n + vb_n)
    share_b = vb_n / (va_n + vb_n)
    df = 1.0 / (share_a**2 / (na - 1) + share_b**2 / (nb - 1))
    return t, df, t_two_sided_p(t, df)


def pearson(x: list[float], y: list[float]) -> tuple[float, float]:
    """Pearson correlation coefficient and its two-sided p-value.

    p comes from t = r * sqrt((n-2) / (1-r^2)) on n-2 degrees of freedom;
    perfectly correlated inputs give p = 0.
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 3:
        raise ValueError("pearson requires at least three paired values")
    # Shift by the first value and scale before taking means: tiny spreads
    # around a large offset keep their precision and squares can neither
    # overflow nor underflow.
    x_scale, dx = _unit_deviations(x, x[0])
    y_scale, dy = _unit_deviations(y, y[0])
    if x_scale == 0.0 or y_scale == 0.0:
        raise ValueError("pearson is undefined for a zero-variance input")
    mx = math.fsum(dx) / n
    my = math.fsum(dy) / n
    sxy = math.fsum((xi - mx) * (yi - my) for xi, yi in zip(dx, dy))
    sxx = math.fsum((xi - mx) ** 2 for xi in dx)
    syy = math.fsum((yi - my) ** 2 for yi in dy)
    denom = math.sqrt(sxx * syy)
    r = sxy / denom
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if 1.0 - r * r <= 0.0:
        return r, 0.0
    t = r * math.sqrt(df / (1.0 - r * r))
    return r, t_two_sided_p(t, df)


def significance_mark(p: float) -> str:
    """Star convention: '**' for p < 0.01, '*' for p < 0.05, else ''."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
