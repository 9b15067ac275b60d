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
from itertools import chain, islice, repeat
from pathlib import Path
from types import SimpleNamespace
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

_TABLE_MARKER = "# toughness-table"
_TABLE_VERSION = 1

_FLOAT_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")

# Data lines per chunk of _parse_rows' columnar path.
_CHUNK = 2048
# Most entries per column memo in _parse_rows. Years, journals, author
# counts and impact factors repeat down a column and fit many times over.
# Text is stored until the bound, so repeated text shares one string. The
# columnar path stores nothing from a chunk where no text cell repeats
# (paper_id) or few typed cells do (grant amounts). Past the bound the row
# loop costs one failed lookup per row rather than one entry per row.
_MEMO_LIMIT = 2**16
_MISS = object()  # memo lookups can hit a None, which _optional yields


class _RowError(ValueError):
    """Field-level parse failure; converted to a line-numbered message."""


def _parse_int(text: str, field: str) -> int:
    # An optional sign, then one or more Unicode decimal digits: int() would
    # also take surrounding whitespace and "_" between digits.
    if not (text[1:] if text[:1] in "+-" else text).isdecimal():
        raise _RowError(f"{field}: not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise _RowError(f"{field}: integer too long: {len(text)} characters") from None


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


def _choice(enum_type):
    """Parser for the values of ``enum_type``."""
    choices = {member.value: member for member in enum_type}

    def parse_choice(text: str, field: str):
        if text not in choices:
            raise _RowError(f"{field}: expected one of {sorted(choices)}, got {text!r}")
        return choices[text]

    return parse_choice


def _optional(parse=None):
    """Empty text reads as None; other text goes through ``parse`` (None: kept as text)."""

    def parse_optional(text: str, field: str):
        if not text:
            return None
        return text if parse is None else parse(text, field)

    return parse_optional


def _non_negative(parse):
    def parse_non_negative(text: str, field: str):
        value = parse(text, field)
        if value < 0:
            raise _RowError(f"{field}: must be >= 0, got {value}")
        return value

    return parse_non_negative


# Each format is its ordered (column, parser) list; None keeps the text as is.
# Records take the parsed values positionally, so their fields follow this order.
_PUBLICATIONS = [
    ("paper_id", None), ("pi_id", None), ("year", _parse_int), ("journal", None),
    ("author_count", _parse_int), ("credit_position", _parse_int),
    ("tie_span", _parse_int), ("is_corresponding", _parse_bool),
]
_JOURNALS = [("journal", None), ("year", _parse_int), ("impact_factor", _parse_float)]
_PROFILES = [
    ("pi_id", None), ("country", None), ("class", _parse_int),
    ("gender", _optional(_choice(Gender))), ("birth_year", _optional(_parse_int)),
    ("rank", _optional(_choice(Rank))), ("total_funding", _optional(_parse_float)),
    ("currency", _optional()),
]
_GRANTS = [("pi_id", None), ("year", _parse_int), ("amount", _parse_float),
           ("currency", None)]
_CORPUS = [
    ("journal", None), ("year", _parse_int),
    ("total_citations", _non_negative(_parse_int)),
    ("impact_factor", _non_negative(_parse_float)),
]
_TABLE = [("weight", _parse_int), ("min_if", _parse_float)]

PUBLICATIONS_HEADER = [name for name, _ in _PUBLICATIONS]
JOURNALS_HEADER = [name for name, _ in _JOURNALS]
PROFILES_HEADER = [name for name, _ in _PROFILES]
GRANTS_HEADER = [name for name, _ in _GRANTS]
CORPUS_HEADER = [name for name, _ in _CORPUS]
_TABLE_HEADER = [name for name, _ in _TABLE]


def _tuple(*values):
    return values


def _parse_rows(path: Pathish, f, columns, make, header_line: int = 1) -> list:
    """Check the header line of ``f``, then build ``make(*values)`` per data row.

    Every bad row is reported as ``path:line: ...``, at the line the row
    starts on, naming its first bad column from the left; all of them are
    raised together. ``header_line`` is the file line ``f`` starts at.

    Rows are read ``_CHUNK`` lines at a time and parsed a column at a time
    while each chunk is plain CSV and error-free. From the first chunk that
    is not, the rest of the file goes through the row loop, which is the one
    path that reads quoted cells and reports errors.
    """
    header = [name for name, _ in columns]
    reader = csv.reader(f)
    try:
        first = next(reader, None)
    except csv.Error as exc:
        raise FileFormatError([f"{path}:{header_line}: {exc}"]) from None
    if first is None:
        raise FileFormatError([f"{path}: missing header {','.join(header)}"])
    if first != header:
        raise FileFormatError(
            [f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}"]
        )
    width = len(columns)
    # Each column's memo maps cell text to its value; a bad cell raises
    # before it is stored, so it is reported on every line it appears on.
    memos = [(i, name, parse, {}) for i, (name, parse) in enumerate(columns)]
    records = []
    start = reader.line_num + header_line  # file line the next row starts on
    lines = []
    # A blank line is a row of no cells to csv.reader, which only its comma
    # count tells apart from a row of one empty cell.
    while width > 1:
        lines = list(islice(f, _CHUNK))
        chunk = _columnar(lines, memos, make) if lines else None
        if chunk is None:
            break
        records += chunk
        start += len(lines)

    errors = []
    reader = csv.reader(chain(lines, f))
    first_line = start
    try:
        for row in reader:
            line, start = start, reader.line_num + first_line
            if len(row) != width:
                errors.append(f"{path}:{line}: expected {width} fields, got {len(row)}")
                continue
            try:
                # Cells are converted in place, leftmost first.
                for i, name, parse, memo in memos:
                    text = row[i]
                    value = memo.get(text, _MISS)
                    if value is _MISS:
                        value = text if parse is None else parse(text, name)
                        if len(memo) < _MEMO_LIMIT:
                            memo[text] = value
                    row[i] = value
                records.append(make(*row))
            except ValueError as exc:  # _RowError or model invariant violation
                errors.append(f"{path}:{line}: {exc}")
    except csv.Error as exc:  # such as a cell over csv.field_size_limit()
        # The reader stops inside the row, so no later row can be told apart.
        errors.append(f"{path}:{start}: {exc}")
    if errors:
        raise FileFormatError(errors)
    return records


def _columnar(lines: list, memos, make) -> list | None:
    """The records of ``lines``, one row per line, parsed a column at a time.

    None when csv.reader might read the lines otherwise (a quote, a lone
    carriage return, a line of the wrong field count, a cell that may pass
    csv.field_size_limit(), a NUL, which it refuses before Python 3.11) or
    when a cell or a record check fails: the row loop then reads them, and
    reports what is wrong.
    """
    width, n = len(memos), len(lines)
    text = ",".join(lines)
    if ('"' in text or "\0" in text
            or ("\r" in text and text.count("\r") != text.count("\r\n"))
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    cells = text.split(",")
    if len(cells) != n * width:
        return None
    # A line's break ends its last cell. With n * width cells in all, every
    # line holds width of them if and only if all breaks end a row's last cell.
    ends = "".join(cells[width - 1::width])
    if ends.count("\n") != text.count("\n"):
        return None
    cells[width - 1::width] = ends.replace("\r\n", "\n").split("\n")[:n]
    cols = []
    try:
        for i, name, parse, memo in memos:
            col = cells[i::width]
            try:  # Through the memo even for text, so repeated cells share one string.
                col = list(map(memo.__getitem__, col))
            except KeyError:  # a cell not seen before
                distinct = set(col)
                if len(distinct) == n if parse is None else 8 * len(distinct) > 7 * n:
                    # No text cell repeats in the chunk (paper_id), or fewer than one
                    # typed cell in eight (grant amounts): a memo would be hit by
                    # few rows. Text that repeats is stored, so it shares one string.
                    if parse is not None:
                        col = list(map(parse, col, repeat(name)))
                else:
                    new = distinct.difference(memo)
                    if len(memo) + len(new) > _MEMO_LIMIT:  # a lookup for this chunk alone
                        memo = {cell: memo[cell] for cell in distinct - new}
                    memo.update({cell: cell if parse is None else parse(cell, name)
                                 for cell in new})
                    col = list(map(memo.__getitem__, col))
            cols.append(col)
        return list(map(make, *cols))
    except ValueError:  # _RowError or model invariant violation
        return None


def _read_csv(path: Pathish, columns, make) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return _parse_rows(path, f, columns, make)


def read_publications(path: Pathish) -> list[PublicationRecord]:
    return _read_csv(path, _PUBLICATIONS, PublicationRecord)


def read_journals(path: Pathish) -> list[JournalYearIF]:
    return _read_csv(path, _JOURNALS, JournalYearIF)


def read_profiles(path: Pathish) -> list[InvestigatorProfile]:
    return _read_csv(path, _PROFILES, InvestigatorProfile)


def read_grants(path: Pathish) -> list[GrantRecord]:
    return _read_csv(path, _GRANTS, GrantRecord)


def read_toughness_corpus(path: Pathish) -> list[tuple[str, int, int, float]]:
    """Rows of (journal, year, total_citations, impact_factor)."""
    return _read_csv(path, _CORPUS, _tuple)


def _write_csv(
    path: Pathish, header: Sequence[str], rows: Iterable[Sequence], marker: str = ""
) -> None:
    r"""Write an optional marker line, ``header``, then ``rows``, one per "\n" line.

    Cells go to csv.writer as they are: None is written as an empty cell,
    a float as its repr.

    A cell holding a delimiter, a quote, "\n" or "\r" is quoted, as Python
    3.13 does. Before 3.13 csv.writer quotes a line break only if it is in
    the line terminator, so the writer is given "\r\n" and each row it
    hands over (whole, in one write call) is stored ending in "\n".
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        if marker:
            f.write(marker + "\n")
        sink = SimpleNamespace(write=lambda line: f.write(line[:-2] + "\n"))
        w = csv.writer(sink, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def write_publications(path: Pathish, records: Iterable[PublicationRecord]) -> None:
    _write_csv(path, PUBLICATIONS_HEADER, (
        [r.paper_id, r.pi_id, r.year, r.journal,
         r.author_count, r.credit_position, r.tie_span,
         "true" if r.is_corresponding else "false"]
        for r in records
    ))


def write_journals(path: Pathish, records: Iterable[JournalYearIF]) -> None:
    _write_csv(path, JOURNALS_HEADER, records)


def write_profiles(path: Pathish, records: Iterable[InvestigatorProfile]) -> None:
    _write_csv(path, PROFILES_HEADER, (
        [r.pi_id, r.country, r.tier,
         r.gender.value if r.gender else None,
         r.birth_year,
         r.rank.value if r.rank else None,
         r.total_funding,
         r.currency]
        for r in records
    ))


def write_grants(path: Pathish, records: Iterable[GrantRecord]) -> None:
    _write_csv(path, GRANTS_HEADER, records)


def write_toughness_corpus(
    path: Pathish, rows: Iterable[tuple[str, int, int, float]]
) -> None:
    _write_csv(path, CORPUS_HEADER, rows)


def write_toughness_table(path: Pathish, table: ToughnessTable) -> None:
    """Versioned (weight, min_if) CSV; construction metadata in the marker line."""
    meta = (
        f"{_TABLE_MARKER} v={_TABLE_VERSION} levels={table.level_count} "
        f"divisor_mode={table.divisor_mode.value} base_count={table.base_count} "
        f"total_papers={table.total_papers} "
        f"level_sizes={'|'.join(str(s) for s in table.level_sizes)}"
    )
    # The bottom level matches any remaining IF, so its floor is 0.
    floors = list(table.cutoffs) + [0.0]
    _write_csv(path, _TABLE_HEADER, zip(table.weights, floors), marker=meta)


def read_toughness_table(path: Pathish) -> ToughnessTable:
    with open(path, newline="", encoding="utf-8") as f:
        marker = f.readline().rstrip("\n")
        if not marker.startswith(_TABLE_MARKER + " "):
            raise FileFormatError([f"{path}: not a toughness table file"])
        meta = {}
        for token in marker[len(_TABLE_MARKER) + 1 :].split():
            key, _, value = token.partition("=")
            meta[key] = value
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
        rows = _parse_rows(path, f, _TABLE, _tuple, header_line=2)

    weights = [weight for weight, _ in rows]
    # The row count first: the marker's levels= is not bounded by the file.
    if len(rows) != levels or weights != list(range(levels, 0, -1)):
        raise FileFormatError(
            [f"{path}: weights must run {levels}..1, got {weights}"]
        )
    try:
        return ToughnessTable(
            cutoffs=tuple(min_if for _, min_if in rows[:-1]),
            base_count=base_count,
            total_papers=total_papers,
            divisor_mode=mode,
            level_sizes=level_sizes,
        )
    except ValueError as exc:
        raise FileFormatError([f"{path}: {exc}"]) from None
