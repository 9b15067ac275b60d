"""CSV readers and writers for every on-disk format.

Parsing is strict: exact headers, exact column counts, no whitespace or
type coercion. Every malformed row is reported with its line number, and
all problems in a file are collected before raising. Writers emit the
canonical form the readers accept, with floats in repr form so a
write/read cycle reproduces values exactly.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import Iterable, Sequence, Union

from .errors import FileFormatError
from .model import (
    Gender,
    GrantRecord,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    Rank,
)
from .toughness import DivisorMode, ToughnessTable

Pathish = Union[str, Path]

PUBLICATIONS_HEADER = [
    "paper_id", "pi_id", "year", "journal",
    "author_count", "credit_position", "tie_span", "is_corresponding",
]
JOURNALS_HEADER = ["journal", "year", "impact_factor"]
PROFILES_HEADER = [
    "pi_id", "country", "class", "gender",
    "birth_year", "rank", "total_funding", "currency",
]
GRANTS_HEADER = ["pi_id", "year", "amount", "currency"]
CORPUS_HEADER = ["journal", "year", "total_citations", "impact_factor"]

_TABLE_MARKER = "# toughness-table"
_TABLE_VERSION = 1

_INT_RE = re.compile(r"[+-]?\d+")
_FLOAT_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")

_GENDERS = {g.value: g for g in Gender}
_RANKS = {r.value: r for r in Rank}


class _RowError(ValueError):
    """Field-level parse failure; converted to a line-numbered message."""


def _parse_int(text: str, field: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise _RowError(f"{field}: not an integer: {text!r}")
    return int(text)


def _parse_float(text: str, field: str) -> float:
    if not _FLOAT_RE.fullmatch(text):
        raise _RowError(f"{field}: not a number: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise _RowError(f"{field}: not a finite number: {text!r}")
    return value


def _parse_bool(text: str, field: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise _RowError(f"{field}: expected true or false, got {text!r}")


def _parse_choice(text: str, field: str, choices: dict):
    if text not in choices:
        raise _RowError(f"{field}: expected one of {sorted(choices)}, got {text!r}")
    return choices[text]


def _read_rows(path: Pathish, header: Sequence[str]) -> list[tuple[int, list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            first = next(reader)
        except StopIteration:
            raise FileFormatError(
                [f"{path}: empty file, expected header {','.join(header)}"]
            ) from None
        if first != list(header):
            raise FileFormatError(
                [f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}"]
            )
        return [(reader.line_num, row) for row in reader]


def _parse_file(path, header, build):
    """Run ``build(row)`` per data row, collecting every error with its line."""
    records = []
    errors = []
    for line, row in _read_rows(path, header):
        if len(row) != len(header):
            errors.append(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
            continue
        try:
            records.append(build(row))
        except ValueError as exc:  # _RowError or model invariant violation
            errors.append(f"{path}:{line}: {exc}")
    if errors:
        raise FileFormatError(errors)
    return records


def read_publications(path: Pathish) -> list[PublicationRecord]:
    def build(row):
        return PublicationRecord(
            paper_id=row[0],
            pi_id=row[1],
            year=_parse_int(row[2], "year"),
            journal=row[3],
            author_count=_parse_int(row[4], "author_count"),
            credit_position=_parse_int(row[5], "credit_position"),
            tie_span=_parse_int(row[6], "tie_span"),
            is_corresponding=_parse_bool(row[7], "is_corresponding"),
        )

    return _parse_file(path, PUBLICATIONS_HEADER, build)


def read_journals(path: Pathish) -> list[JournalYearIF]:
    def build(row):
        return JournalYearIF(
            journal=row[0],
            year=_parse_int(row[1], "year"),
            impact_factor=_parse_float(row[2], "impact_factor"),
        )

    return _parse_file(path, JOURNALS_HEADER, build)


def read_profiles(path: Pathish) -> list[InvestigatorProfile]:
    def build(row):
        return InvestigatorProfile(
            pi_id=row[0],
            country=row[1],
            tier=_parse_int(row[2], "class"),
            gender=_parse_choice(row[3], "gender", _GENDERS) if row[3] else None,
            birth_year=_parse_int(row[4], "birth_year") if row[4] else None,
            rank=_parse_choice(row[5], "rank", _RANKS) if row[5] else None,
            total_funding=_parse_float(row[6], "total_funding") if row[6] else None,
            currency=row[7] if row[7] else None,
        )

    return _parse_file(path, PROFILES_HEADER, build)


def read_grants(path: Pathish) -> list[GrantRecord]:
    def build(row):
        return GrantRecord(
            pi_id=row[0],
            year=_parse_int(row[1], "year"),
            amount=_parse_float(row[2], "amount"),
            currency=row[3],
        )

    return _parse_file(path, GRANTS_HEADER, build)


def read_toughness_corpus(path: Pathish) -> list[tuple[str, int, int, float]]:
    """Rows of (journal, year, total_citations, impact_factor)."""

    def build(row):
        citations = _parse_int(row[2], "total_citations")
        if citations < 0:
            raise _RowError(f"total_citations: must be >= 0, got {citations}")
        impact_factor = _parse_float(row[3], "impact_factor")
        if impact_factor < 0:
            raise _RowError(f"impact_factor: must be >= 0, got {impact_factor}")
        return (row[0], _parse_int(row[1], "year"), citations, impact_factor)

    return _parse_file(path, CORPUS_HEADER, build)


def _writer(f):
    return csv.writer(f, lineterminator="\n")


def _fmt_opt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_publications(path: Pathish, records: Iterable[PublicationRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(PUBLICATIONS_HEADER)
        for r in records:
            w.writerow([
                r.paper_id, r.pi_id, r.year, r.journal,
                r.author_count, r.credit_position, r.tie_span,
                "true" if r.is_corresponding else "false",
            ])


def write_journals(path: Pathish, records: Iterable[JournalYearIF]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(JOURNALS_HEADER)
        for r in records:
            w.writerow([r.journal, r.year, repr(r.impact_factor)])


def write_profiles(path: Pathish, records: Iterable[InvestigatorProfile]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(PROFILES_HEADER)
        for r in records:
            w.writerow([
                r.pi_id, r.country, r.tier,
                r.gender.value if r.gender else "",
                _fmt_opt(r.birth_year),
                r.rank.value if r.rank else "",
                _fmt_opt(r.total_funding),
                r.currency or "",
            ])


def write_grants(path: Pathish, records: Iterable[GrantRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(GRANTS_HEADER)
        for r in records:
            w.writerow([r.pi_id, r.year, repr(r.amount), r.currency])


def write_toughness_corpus(
    path: Pathish, rows: Iterable[tuple[str, int, int, float]]
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(CORPUS_HEADER)
        for journal, year, citations, impact_factor in rows:
            w.writerow([journal, year, citations, repr(impact_factor)])


def write_toughness_table(path: Pathish, table: ToughnessTable) -> None:
    """Versioned (weight, min_if) CSV; construction metadata in the marker line."""
    meta = (
        f"{_TABLE_MARKER} v={_TABLE_VERSION} levels={table.level_count} "
        f"divisor_mode={table.divisor_mode.value} base_count={table.base_count} "
        f"total_papers={table.total_papers} "
        f"level_sizes={'|'.join(str(s) for s in table.level_sizes)}"
    )
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(meta + "\n")
        w = _writer(f)
        w.writerow(["weight", "min_if"])
        # The bottom level matches any remaining IF, so its floor is 0.
        floors = list(table.cutoffs) + [0.0]
        for weight, min_if in zip(table.weights, floors):
            w.writerow([weight, repr(min_if)])


def read_toughness_table(path: Pathish) -> ToughnessTable:
    with open(path, newline="", encoding="utf-8") as f:
        marker = f.readline().rstrip("\n")
        if not marker.startswith(_TABLE_MARKER + " "):
            raise FileFormatError([f"{path}: not a toughness table file"])
        meta = {}
        for token in marker[len(_TABLE_MARKER) + 1 :].split():
            key, _, value = token.partition("=")
            meta[key] = value
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError([f"{path}: missing weight,min_if header"]) from None
        if header != ["weight", "min_if"]:
            raise FileFormatError([f"{path}: bad header {','.join(header)!r}"])
        rows = [(reader.line_num, row) for row in reader]

    errors = []
    try:
        version = int(meta.get("v", "0"))
        levels = int(meta["levels"])
        mode = DivisorMode(meta["divisor_mode"])
        base_count = int(meta["base_count"])
        total_papers = int(meta["total_papers"])
        level_sizes = tuple(int(s) for s in meta["level_sizes"].split("|"))
    except (KeyError, ValueError) as exc:
        raise FileFormatError([f"{path}: bad table metadata: {exc}"]) from None
    if version != _TABLE_VERSION:
        raise FileFormatError([f"{path}: unsupported table version {version}"])

    weights = []
    floors = []
    for line, row in rows:
        if len(row) != 2:
            errors.append(f"{path}:{line}: expected 2 fields, got {len(row)}")
            continue
        try:
            weights.append(_parse_int(row[0], "weight"))
            floors.append(_parse_float(row[1], "min_if"))
        except ValueError as exc:
            errors.append(f"{path}:{line}: {exc}")
    if errors:
        raise FileFormatError(errors)
    if weights != list(range(levels, 0, -1)):
        raise FileFormatError(
            [f"{path}: weights must run {levels}..1, got {weights}"]
        )
    try:
        return ToughnessTable(
            level_count=levels,
            cutoffs=tuple(floors[:-1]),
            weights=tuple(weights),
            base_count=base_count,
            total_papers=total_papers,
            divisor_mode=mode,
            level_sizes=level_sizes,
        )
    except ValueError as exc:
        raise FileFormatError([f"{path}: {exc}"]) from None
