"""Output checks for one workload's reports, with an independent oracle.

The structural checks parse every emitted row. The oracle recomputes a
fixed sample of scorecards (and, for trends, every annual point) straight
from the generated CSVs with the paper's formulas:

    A(n, i) = (1/n) * sum_{j=i..n} 1/j            (ranked credit share)
    O = sum w*IF,  T = sum(w*IF / A) / O,  E = O/T,  L = O/sqrt(T)

where w is the toughness weight looked up in the table the CLI emits with
``toughness-build``, and IF is the exact (journal, year) impact factor or,
under the nearest-prior-year fallback, the journal's latest earlier one.
It shares no code with the package.
"""

from __future__ import annotations

import bisect
import csv
import math
from pathlib import Path

# Reports print 6 significant digits, so a printed value is within 5e-6
# relative of the exact one, and a quotient of printed values within ~1.6e-5.
ORACLE_RTOL = 1e-5
PRINT_RTOL = 2e-5
SAMPLE_SIZE = 100


def _close(a: float, b: float, rtol: float = PRINT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first != header:
            raise ValueError(f"{path.name}: bad header {first!r}")
        return list(reader)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_table(path: Path) -> list[tuple[int, float]]:
    """(weight, min_if) rows of an emitted toughness table, top level first."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("# toughness-table"):
        raise ValueError(f"{path.name}: missing table marker")
    rows = list(csv.reader(lines[1:]))
    if rows[0] != ["weight", "min_if"]:
        raise ValueError(f"{path.name}: bad header {rows[0]!r}")
    table = [(int(w), _float(m)) for w, m in rows[1:]]
    weights = [w for w, _ in table]
    floors = [m for _, m in table]
    if weights != list(range(len(table), 0, -1)) or floors != sorted(floors, reverse=True):
        raise ValueError(f"{path.name}: weights or floors out of order")
    return table


def _a_index(n: int, i: int) -> float:
    return math.fsum(1.0 / j for j in range(i, n + 1)) / n


class Inputs:
    """The generated CSVs, read with the csv module only."""

    def __init__(self, inputs: Path, years: tuple[int, int], fallback: bool, table):
        self.years = years
        self.table = table
        ifs: dict[str, dict[int, float]] = {}
        for journal, year, impact in _rows(inputs / "journals.csv",
                                           ["journal", "year", "impact_factor"]):
            ifs.setdefault(journal, {})[int(year)] = float(impact)
        self._ifs = ifs
        self._years = {j: sorted(by_year) for j, by_year in ifs.items()}
        self._fallback = fallback
        self.profiles = {
            row[0]: row for row in _rows(
                inputs / "profiles.csv",
                ["pi_id", "country", "class", "gender", "birth_year", "rank",
                 "total_funding", "currency"])
        }
        self.papers: dict[str, list[tuple[int, str, int, int]]] = {}
        for _, pi, year, journal, n, i, _, corresponding in _rows(
            inputs / "publications.csv",
            ["paper_id", "pi_id", "year", "journal", "author_count",
             "credit_position", "tie_span", "is_corresponding"],
        ):
            if corresponding == "true" and years[0] <= int(year) <= years[1]:
                self.papers.setdefault(pi, []).append((int(year), journal, int(n), int(i)))
        self.funding: dict[str, float] = {}
        for pi, _, amount, _ in _rows(inputs / "grants.csv",
                                      ["pi_id", "year", "amount", "currency"]):
            self.funding[pi] = self.funding.get(pi, 0.0) + float(amount)

    def impact_factor(self, journal: str, year: int) -> float:
        by_year = self._ifs[journal]
        if year in by_year or not self._fallback:
            return by_year[year]
        years = self._years[journal]
        prior = bisect.bisect_left(years, year)
        if prior == 0:
            raise KeyError(f"no impact factor for {journal} {year} or earlier")
        return by_year[years[prior - 1]]

    def weight(self, impact: float) -> int:
        for weight, floor in self.table:
            if impact >= floor:
                return weight
        raise ValueError(f"impact factor {impact} below every floor")

    def score(self, papers) -> tuple[float, float, float, float, float]:
        """(O_raw, O, T, E, L) of a non-empty list of papers."""
        raw, value, time = [], [], []
        for year, journal, n, i in papers:
            impact = self.impact_factor(journal, year)
            v = self.weight(impact) * impact
            raw.append(impact)
            value.append(v)
            time.append(v / _a_index(n, i))
        o = math.fsum(value)
        t = math.fsum(time) / o
        return math.fsum(raw), o, t, o / t, o / math.sqrt(t)


SCORECARD_HEADER = [
    "pi_id", "period_start", "period_end", "paper_count",
    "o_raw", "o_weighted", "t_equiv", "efficiency", "leadership", "l_fund",
]
TREND_HEADER = ["year", "n", "leadership", "o_weighted", "efficiency", "t_equiv"]
TREND_PLOTS = ("leadership", "o_weighted", "efficiency", "t_equiv")


def check_scorecards(out_dir: Path, data: Inputs, with_funding: bool) -> list[str]:
    """Problems found in scorecards.csv; an empty list means it passed."""
    problems: list[str] = []
    try:
        rows = _rows(out_dir / "scorecards.csv", SCORECARD_HEADER)
    except (OSError, ValueError) as exc:
        return [f"scorecards.csv: {exc}"]
    ids = [row[0] for row in rows]
    if ids != sorted(data.profiles):
        problems.append("scorecards.csv: pi_ids differ from profiles.csv or are unsorted")
    period = [str(y) for y in data.years]
    cards = {}
    for line, row in enumerate(rows, start=2):
        try:
            if len(row) != len(SCORECARD_HEADER) or row[1:3] != period:
                raise ValueError("bad field count or period")
            count = int(row[3])
            if count == 0:
                if any(row[4:]):
                    raise ValueError("unscored card carries metrics")
                continue
            o_raw, o, t, e, lead = (_float(x) for x in row[4:9])
            if t < 1:
                raise ValueError(f"T = {t} < 1")
            if not _close(e, o / t):
                raise ValueError(f"E = {e} but O/T = {o / t}")
            if not _close(lead, o / math.sqrt(t)):
                raise ValueError(f"L = {lead} but O/sqrt(T) = {o / math.sqrt(t)}")
            l_fund = _float(row[9]) if row[9] else None
            cards[row[0]] = (count, o_raw, o, t, e, lead, l_fund)
        except ValueError as exc:
            problems.append(f"scorecards.csv:{line}: {exc}")
    if problems:
        return problems[:10]

    step = max(1, len(ids) // SAMPLE_SIZE)
    for pi in ids[::step]:
        papers = data.papers.get(pi, [])
        card = cards.get(pi)
        if not papers:
            if card is not None:
                problems.append(f"oracle {pi}: expected an unscored card")
            continue
        if card is None:
            problems.append(f"oracle {pi}: expected a scored card")
            continue
        try:
            expected = (len(papers),) + data.score(papers)
        except (KeyError, ValueError) as exc:
            problems.append(f"oracle {pi}: {exc}")
            continue
        funding = data.funding.get(pi) if with_funding else None
        if funding:
            expected += (expected[2] / math.sqrt(funding),)
        else:
            expected += (None,)
        if card[0] != expected[0] or (card[6] is None) != (expected[6] is None) or not all(
            _close(got, want, ORACLE_RTOL) for got, want in zip(card[1:], expected[1:])
            if want is not None
        ):
            problems.append(f"oracle {pi}: card {card} != expected {expected}")
    return problems[:10]


def check_trend(out_dir: Path, data: Inputs) -> list[str]:
    """Problems found in trend.csv and the trend_*.tsv plot files."""
    try:
        rows = _rows(out_dir / "trend.csv", TREND_HEADER)
    except (OSError, ValueError) as exc:
        return [f"trend.csv: {exc}"]
    start, end = data.years
    if [row[0] for row in rows] != [str(y) for y in range(start, end + 1)]:
        return ["trend.csv: years do not cover the span"]

    by_year: dict[int, list[tuple[float, float, float, float]]] = {}
    for papers in data.papers.values():
        per_year: dict[int, list] = {}
        for paper in papers:
            per_year.setdefault(paper[0], []).append(paper)
        for year, group in per_year.items():
            try:
                _, o, t, e, lead = data.score(group)
            except (KeyError, ValueError) as exc:
                return [f"trend oracle: {exc}"]
            by_year.setdefault(year, []).append((lead, o, e, t))

    problems = []
    plots = {metric: [] for metric in TREND_PLOTS}
    for row in rows:
        year = int(row[0])
        scored = by_year.get(year, [])
        try:
            if len(row) != len(TREND_HEADER) or int(row[1]) != len(scored):
                raise ValueError(f"bad field count or n, oracle n = {len(scored)}")
            if not scored:
                if any(row[2:]):
                    raise ValueError("empty year carries metrics")
                continue
            got = [_float(x) for x in row[2:]]
        except ValueError as exc:
            problems.append(f"trend.csv {year}: {exc}")
            continue
        n = len(scored)
        want = [math.fsum(s[k] for s in scored) / n for k in range(4)]
        if got[3] < 1 or not all(_close(g, w, ORACLE_RTOL) for g, w in zip(got, want)):
            problems.append(f"trend.csv {year}: {got} != oracle {want}")
        for metric, text in zip(TREND_PLOTS, row[2:]):
            plots[metric].append(f"{year}\t{text}\n")
    for metric, lines in plots.items():
        path = out_dir / f"trend_{metric}.tsv"
        if not path.is_file() or path.read_text(encoding="utf-8") != "".join(lines):
            problems.append(f"{path.name}: does not match trend.csv")
    return problems[:10]
