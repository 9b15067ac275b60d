"""Toughness weighting of impact factors.

A reference corpus of papers is ranked by journal impact factor and cut
into levels on a doubling scale: the top level holds the X hardest papers
and each level below holds twice as many as the one above. With L levels
the top level carries integer weight L and the bottom carries 1. A paper's
toughness-weighted impact factor is weight * IF, so publishing where few
papers land is worth proportionally more.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable


class DivisorMode(enum.Enum):
    """How the top-level size X is derived from the corpus size Y.

    GEOMETRIC_SUM solves X + 2X + ... + 2^(L-1) X = Y exactly:
    X = floor(Y / (2^L - 1)). HALF_POW uses X = floor(Y / 2^(L-1)),
    which makes the bottom level the corpus "half" and leaves the level
    sum short of Y; the remainder stays in the bottom level.
    """

    GEOMETRIC_SUM = "geometric_sum"
    HALF_POW = "half_pow"


@dataclass(frozen=True)
class ToughnessTable:
    """Weight lookup once a corpus has been levelled.

    ``cutoffs`` holds the minimum impact factor of each level from the top,
    for levels 1..L-1 (the bottom level matches anything). ``level_sizes``
    records how many corpus papers landed in each level after boundary ties
    were pulled up; its length is the level count L.
    """

    cutoffs: tuple[float, ...]
    base_count: int
    total_papers: int
    divisor_mode: DivisorMode
    level_sizes: tuple[int, ...]

    def __post_init__(self):
        # Also refuses a table with no levels: it would need -1 cutoffs.
        if len(self.cutoffs) != len(self.level_sizes) - 1:
            raise ValueError(f"{len(self.level_sizes)} level size(s) need one cutoff per "
                             f"level above the bottom, got {len(self.cutoffs)}")
        for a, b in zip(self.cutoffs, self.cutoffs[1:]):
            if b > a:
                raise ValueError("cutoffs must be non-increasing")

    @property
    def level_count(self) -> int:
        """L: one level per entry of ``level_sizes``."""
        return len(self.level_sizes)

    @property
    def weights(self) -> tuple[int, ...]:
        """Weight of each level from the top: L down to 1."""
        return tuple(range(self.level_count, 0, -1))


def estimate_paper_counts(
    journal_citations: Iterable[tuple[str, int, float]],
) -> tuple[list[tuple[str, int, float]], list[str]]:
    """Per-journal paper counts from citation totals and impact factors.

    Input rows are (journal, total_citations, impact_factor); the estimated
    count is citations / IF rounded half to even. Journals with a zero
    impact factor cannot be estimated: they pass through with count 0 and a
    warning. A quotient outside the float range raises. Returns (rows,
    warnings).
    """
    rows: list[tuple[str, int, float]] = []
    warnings: list[str] = []
    for journal, citations, impact_factor in journal_citations:
        if citations < 0:
            raise ValueError(f"{journal}: total_citations must be >= 0")
        if impact_factor < 0:
            raise ValueError(f"{journal}: impact_factor must be >= 0")
        if impact_factor == 0:
            warnings.append(f"{journal}: zero impact factor, cannot estimate paper count")
            rows.append((journal, 0, impact_factor))
        else:
            try:
                count = round(citations / impact_factor)
            except OverflowError:
                raise ValueError(f"{journal}: paper count (total_citations / "
                                 f"{impact_factor!r}) is out of the float range") from None
            rows.append((journal, count, impact_factor))
    return rows, warnings


def build_table(
    corpus: Iterable[tuple[int, float]],
    level_count: int = 10,
    divisor_mode: DivisorMode = DivisorMode.GEOMETRIC_SUM,
) -> ToughnessTable:
    """Level a corpus of (paper_count, impact_factor) rows.

    Papers are ranked by impact factor, descending; level i (1-based from
    the top) ends at cumulative position X * (2^i - 1). All papers sharing
    an impact factor land in one level: the level where their first copy
    falls, so ties on a boundary take the higher weight.
    """
    if level_count < 1:
        raise ValueError("level_count must be >= 1")
    by_if: dict[float, int] = {}
    total = 0
    for count, impact_factor in corpus:
        if count < 0:
            raise ValueError(f"paper_count must be >= 0, got {count}")
        if impact_factor < 0:
            raise ValueError(f"impact_factor must be >= 0, got {impact_factor}")
        if count:
            by_if[impact_factor] = by_if.get(impact_factor, 0) + count
            total += count

    # Bit lengths first: 2**level_count alone can be too large to build.
    if level_count > total.bit_length() or total < (min_size := 2**level_count - 1):
        raise ValueError(
            f"corpus has {total} papers, need at least 2**{level_count} - 1 for "
            f"{level_count} levels"
        )
    if divisor_mode is DivisorMode.GEOMETRIC_SUM:
        base = total // min_size
    else:
        base = total // 2 ** (level_count - 1)

    # Cumulative end position of each level above the bottom.
    boundaries = [base * (2**i - 1) for i in range(1, level_count)]

    level_min: list[float | None] = [None] * level_count
    level_sizes = [0] * level_count
    position = 0  # papers consumed so far
    for impact_factor in sorted(by_if, reverse=True):
        # Boundaries strictly increase (base >= 1); past the last, the bottom level.
        level = bisect_right(boundaries, position)
        group = by_if[impact_factor]
        level_sizes[level] += group
        level_min[level] = impact_factor  # descending walk: last write is the min
        position += group

    cutoffs: list[float] = []
    for i in range(level_count - 1):
        if level_min[i] is not None:
            cutoffs.append(level_min[i])
        else:
            # Empty level: inherit the cutoff above so it can never match.
            cutoffs.append(cutoffs[-1])

    return ToughnessTable(
        cutoffs=tuple(cutoffs),
        base_count=base,
        total_papers=total,
        divisor_mode=divisor_mode,
        level_sizes=tuple(level_sizes),
    )


def weight_of(table: ToughnessTable, impact_factor: float) -> int:
    """Toughness weight for an impact factor; ties on a cutoff weigh higher."""
    if impact_factor < 0:
        raise ValueError(f"impact_factor must be >= 0, got {impact_factor}")
    for i, cutoff in enumerate(table.cutoffs):
        if impact_factor >= cutoff:
            return table.level_count - i
    return 1


def weighted_if(table: ToughnessTable, impact_factor: float) -> float:
    """Toughness-weighted impact factor: weight * IF."""
    return weight_of(table, impact_factor) * impact_factor
