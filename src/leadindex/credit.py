"""Fractional author-credit shares based on harmonic rank weighting.

A paper with ``n`` authors distributes one unit of credit across the
contribution-ranked author list: the author at position ``i`` receives

    A_i = (1/n) * sum_{j=i}^{n} 1/j

so shares decrease with position and sum to exactly 1 over all positions.
Ties (several consecutive positions contributing equally) receive the
arithmetic mean of the tied positions' shares.
"""

from __future__ import annotations

import enum

# Largest author list a publication record may name and a_index accepts, so
# the harmonic cache below holds at most this many entries plus one; also the
# search limit of group_size_for_credit.
MAX_AUTHOR_COUNT = 100_000


def check_credit(author_count: int, credit_position: int, tie_span: int) -> None:
    """A publication's credit triple: 1 <= author_count <= MAX_AUTHOR_COUNT, and
    the tie of tie_span >= 1 positions from credit_position fits in the author list."""
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


# Prefix cache of harmonic numbers, extended lazily as larger k are asked for.
# _HARMONIC[k] holds H_k accumulated with Neumaier compensation, which keeps
# tail differences H_n - H_{i-1} accurate to ~1 ulp out to n ~ 10^4 and beyond.
_HARMONIC: list[float] = [0.0]
_h_sum = 0.0
_h_comp = 0.0


class CreditScenario(enum.Enum):
    """How a run interprets the investigator's position in the credit order.

    RANKED: the investigator holds their credit position outright.
    TIED: the investigator shares equal credit across the consecutive
    positions named by a record's tie span.
    """

    RANKED = "ranked"
    TIED = "tied"


def _harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k (H_0 = 0), from the shared prefix cache."""
    if k < len(_HARMONIC):
        return _HARMONIC[k]
    global _h_sum, _h_comp
    while len(_HARMONIC) <= k:
        term = 1.0 / len(_HARMONIC)
        t = _h_sum + term
        if abs(_h_sum) >= term:
            _h_comp += (_h_sum - t) + term
        else:
            _h_comp += (term - t) + _h_sum
        _h_sum = t
        _HARMONIC.append(_h_sum + _h_comp)
    return _HARMONIC[k]


def a_index(author_count: int, credit_position: int, tie_span: int = 1) -> float:
    """Credit share of the author at ``credit_position`` among ``author_count``.

    With ``tie_span`` s > 1 the author shares equal credit with the s-1
    following positions and receives the mean of the tied shares. The result
    lies in (0, 1]; the shares of all positions (tie_span 1) sum to 1.

    Raises check_credit's ValueError for an author count outside
    1..MAX_AUTHOR_COUNT or a position or span outside the list.
    """
    check_credit(author_count, credit_position, tie_span)
    n, i, s = author_count, credit_position, tie_span
    h_n = _harmonic(n)
    total = 0.0
    for k in range(i, i + s):
        total += (h_n - _harmonic(k - 1)) / n
    return total / s


def scenario_share(
    author_count: int,
    credit_position: int,
    tie_span: int,
    scenario: CreditScenario,
) -> float:
    """Credit share of a publication record under the run's scenario.

    RANKED ignores the record's tie span (the position is held outright);
    TIED averages over it.
    """
    if scenario is CreditScenario.RANKED:
        return a_index(author_count, credit_position, 1)
    return a_index(author_count, credit_position, tie_span)


def group_size_for_credit(
    target_a: float,
    scenario: CreditScenario = CreditScenario.RANKED,
) -> int:
    """Largest group size whose lead position still earns at least ``target_a``.

    Sweeps n upward and returns the largest n with a_index(n, 1, s) >= target_a,
    where s is 1 for RANKED and 2 for TIED (a lead position shared with the
    next one). The share at position 1 strictly decreases with n, so the first
    n falling below the target ends the sweep.
    """
    if not 0.0 < target_a <= 1.0:
        raise ValueError(f"target_a must lie in (0, 1], got {target_a}")
    best = 1
    for n in range(1, MAX_AUTHOR_COUNT + 1):
        s = 1 if scenario is CreditScenario.RANKED else min(2, n)
        if a_index(n, 1, s) >= target_a:
            best = n
        else:
            return best
    raise ValueError(f"target_a {target_a} not reached within {MAX_AUTHOR_COUNT} authors")
