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
import math
from bisect import bisect_left
from itertools import accumulate
from operator import neg, sub, truediv
from typing import Callable, Iterable, NamedTuple, Sequence


class DivisorMode(enum.Enum):
    """How the top-level size X is derived from the corpus size Y.

    GEOMETRIC_SUM solves X + 2X + ... + 2^(L-1) X = Y exactly:
    X = floor(Y / (2^L - 1)). HALF_POW uses X = floor(Y / 2^(L-1)),
    which makes the bottom level the corpus "half" and leaves the level
    sum short of Y; the remainder stays in the bottom level.
    """

    GEOMETRIC_SUM = "geometric_sum"
    HALF_POW = "half_pow"


class _ToughnessTableFields(NamedTuple):
    cutoffs: tuple[float, ...]
    divisor_mode: DivisorMode
    level_sizes: tuple[int, ...]


class ToughnessTable(_ToughnessTableFields):
    """Weight lookup once a corpus has been levelled.

    ``cutoffs`` holds the minimum impact factor of each level from the top,
    for levels 1..L-1 (the bottom level matches anything). ``level_sizes``
    records how many corpus papers landed in each level after boundary ties
    were pulled up; its length is the level count L. The corpus size and the
    top level's size follow from these and ``divisor_mode``, so a table
    cannot hold counts that disagree.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Also refuses a table with no levels: it would need -1 cutoffs.
        if len(self.cutoffs) != len(self.level_sizes) - 1:
            raise ValueError(f"{len(self.level_sizes)} level size(s) need one cutoff per "
                             f"level above the bottom, got {len(self.cutoffs)}")
        # Written so that a NaN, which bisect cannot order, fails too.
        for a, b in zip((math.inf, *self.cutoffs), self.cutoffs):
            if not b <= a:
                raise ValueError("cutoffs must be non-increasing")
        if min(self.level_sizes) < 0:
            raise ValueError(f"level sizes must be >= 0, got {min(self.level_sizes)}")
        self.base_count  # refuses too few papers for the levels
        return self

    @property
    def level_count(self) -> int:
        """L: one level per entry of ``level_sizes``."""
        return len(self.level_sizes)

    @property
    def weights(self) -> tuple[int, ...]:
        """Weight of each level from the top: L down to 1."""
        return tuple(range(self.level_count, 0, -1))

    @property
    def total_papers(self) -> int:
        """Y: the corpus size, the sum of the level sizes."""
        return sum(self.level_sizes)

    @property
    def base_count(self) -> int:
        """X: the top level's size under ``divisor_mode``."""
        return top_level_size(self.total_papers, self.level_count, self.divisor_mode)


def estimate_paper_counts(
    journal_citations: Iterable[tuple[str, int, float]],
) -> tuple[list[tuple[str, int, float]], list[str]]:
    """Per-journal paper counts from citation totals and impact factors.

    Input rows are (journal, total_citations, impact_factor); the estimated
    count is citations / IF rounded half to even. Journals with a zero
    impact factor cannot be estimated: they pass through with count 0 and a
    warning. A quotient outside the float range raises. Returns (rows,
    warnings). The counts are paper_counts', each row named by its journal.
    """
    journals, citations, impact_factors = list(zip(*journal_citations)) or ((), (), ())
    counts, warnings = paper_counts(citations, impact_factors, journals.__getitem__)
    return list(zip(journals, counts, impact_factors)), warnings


def paper_counts(
    citations: Sequence[int], impact_factors: Sequence[float], label: Callable[[int], str],
) -> tuple[list[int], list[str]]:
    """estimate_paper_counts over columns: one count per row, and the warnings.

    ``label(k)`` names row k in a warning or an error, and is called only
    for such a row. The counts are computed a column at a time; a column
    holding a negative or zero value, or a quotient outside the float range,
    is gone through row by row, to warn or raise at the row concerned.
    """
    if min(citations, default=0) >= 0 and min(impact_factors, default=1.0) > 0:
        try:
            return list(map(round, map(truediv, citations, impact_factors))), []
        except OverflowError:
            pass
    counts: list[int] = []
    warnings: list[str] = []
    for k, (cited, impact_factor) in enumerate(zip(citations, impact_factors)):
        if cited < 0:
            raise ValueError(f"{label(k)}: total_citations must be >= 0")
        if impact_factor < 0:
            raise ValueError(f"{label(k)}: impact_factor must be >= 0")
        if impact_factor == 0:
            warnings.append(f"{label(k)}: zero impact factor, cannot estimate paper count")
            counts.append(0)
        else:
            try:
                counts.append(round(cited / impact_factor))
            except OverflowError:
                raise ValueError(f"{label(k)}: paper count (total_citations / "
                                 f"{impact_factor!r}) is out of the float range") from None
    return counts, warnings


def top_level_size(total: int, level_count: int, divisor_mode: DivisorMode) -> int:
    """X for ``total`` papers cut into ``level_count`` >= 1 levels under ``divisor_mode``.

    Raises ValueError when ``total`` is below 2**level_count - 1, where
    the top level would hold no paper.
    """
    # Bit lengths first: 2**level_count alone can be too large to build.
    if level_count > total.bit_length() or total < (min_size := 2**level_count - 1):
        raise ValueError(
            f"corpus has {total} papers, need at least 2**{level_count} - 1 for "
            f"{level_count} levels"
        )
    if divisor_mode is DivisorMode.GEOMETRIC_SUM:
        return total // min_size
    return total // 2 ** (level_count - 1)


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
    for count, impact_factor in corpus:
        if count < 0:
            raise ValueError(f"paper_count must be >= 0, got {count}")
        if not impact_factor >= 0:
            raise ValueError(f"impact_factor must be >= 0, got {impact_factor}")
        if count:
            by_if[impact_factor] = by_if.get(impact_factor, 0) + count

    impact_factors = sorted(by_if, reverse=True)
    # Papers ranked above each impact factor's papers, then the corpus size.
    above = list(accumulate(map(by_if.__getitem__, impact_factors), initial=0))
    base = top_level_size(above[-1], level_count, divisor_mode)
    # Level i ends at position X * (2^i - 1), below the corpus size. Count the
    # impact factors whose first paper ranks above that end: the last of them
    # is the level's cutoff, so an empty level repeats the cutoff above it.
    counts = [bisect_left(above, base * (2**i - 1)) for i in range(1, level_count)]
    cutoffs = tuple(impact_factors[k - 1] for k in counts)
    ends = [*map(above.__getitem__, counts), above[-1]]
    return ToughnessTable(cutoffs, divisor_mode, tuple(map(sub, ends, [0, *ends])))


def weight_of(table: ToughnessTable, impact_factor: float) -> int:
    """Toughness weight for an impact factor; ties on a cutoff weigh higher."""
    if not impact_factor >= 0:
        raise ValueError(f"impact_factor must be >= 0, got {impact_factor}")
    # Negated cutoffs ascend; the position counts the cutoffs above the IF.
    return table.level_count - bisect_left(table.cutoffs, -impact_factor, key=neg)


def weighted_if(table: ToughnessTable, impact_factor: float) -> float:
    """Toughness-weighted impact factor: weight * IF."""
    return weight_of(table, impact_factor) * impact_factor
