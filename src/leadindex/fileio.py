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
from typing import Callable, Iterable, Sequence, Union

from .errors import FileFormatError
from .model import (
    Gender,
    GrantRecord,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    Rank,
    check_grant_columns,
    check_journal_columns,
    check_publication_columns,
)
from .toughness import DivisorMode, ToughnessTable, top_level_size

Pathish = Union[str, Path]

_TABLE_MARKER = "# toughness-table"
_TABLE_VERSION = 1
_TABLE_KEYS = ("v", "levels", "divisor_mode", "base_count", "total_papers", "level_sizes")

_FLOAT_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")

# Data lines per chunk of _parse_columns' columnar path.
_CHUNK = 2048
# Most entries per column memo in _parse_columns. Years, journals, author
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


def _plain(cells: list) -> None:
    """Raise ValueError if a cell holds "_" or whitespace, which int() and
    float() take (between digits; around the number) but the CSV rules refuse."""
    joined = "".join(cells)
    if "_" in joined or joined.split() != [joined]:
        raise ValueError("a cell holds '_' or whitespace")


def _int_column(cells: list) -> list[int]:
    """_parse_int over a column at once. Raises ValueError, naming no cell,
    where _parse_int would refuse a cell: the row loop then reports it."""
    values = list(map(int, cells))
    _plain(cells)
    return values


def _float_column(cells: list) -> list[float]:
    """_parse_float over a column at once, as _int_column is _parse_int's."""
    values = list(map(float, cells))
    _plain(cells)
    if not all(map(math.isfinite, values)):
        raise ValueError("a cell is not a finite number")
    return values


# A number parser's column form, which _columnar calls in place of the parser
# on each cell: the same cells are accepted, with the same values.
_parse_int.column = _int_column
_parse_float.column = _float_column


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
    ("total_citations", _parse_int), ("impact_factor", _parse_float),
]
_TABLE = [("weight", _parse_int), ("min_if", _parse_float)]

PUBLICATIONS_HEADER = [name for name, _ in _PUBLICATIONS]
JOURNALS_HEADER = [name for name, _ in _JOURNALS]
PROFILES_HEADER = [name for name, _ in _PROFILES]
GRANTS_HEADER = [name for name, _ in _GRANTS]
CORPUS_HEADER = [name for name, _ in _CORPUS]
_TABLE_HEADER = [name for name, _ in _TABLE]


def _kept(columns: list[list]) -> list[list]:
    """The check of a format with no rule beyond its cells: keeps every column."""
    return columns


def _check_corpus(columns: list[list]) -> list[list]:
    """The corpus's rule: total_citations, then impact_factor, must be >= 0."""
    for name, column in zip(CORPUS_HEADER[2:], columns[2:]):
        value = min(column, default=0)
        if value < 0:
            raise ValueError(f"{name}: must be >= 0, got {value}")
    return columns


def _records(record) -> Callable:
    """A check that builds ``record`` of each row through its constructor, the
    one copy of the record's rules, and keeps the records as one column."""
    return lambda columns: [list(map(record, *columns))]


def _made(record, check: Callable) -> Callable:
    """A check that runs ``check``, which applies ``record``'s rules to a chunk's
    columns, then builds the records with _make and keeps them as one column."""
    return lambda columns: [list(map(record._make, zip(*check(columns))))]


def _parse_columns(path: Pathish, f, columns, check: Callable = _kept,
                   header_line: int = 1) -> list[list]:
    """Check the header line of ``f``, then read its data rows as value columns.

    Every bad row is reported as ``path:line: ...``, at the line the row
    starts on, and all of them are raised together. A row is named by its
    leftmost cell that fails to parse; only a row whose cells all parse is
    then given to ``check``. ``check`` takes value columns, one list per
    (column, parser) of ``columns``, a chunk's or one row's as one-item
    columns, and returns the columns to keep; a ValueError it raises
    refuses the row, with that row's own text for one row. The result is
    its output for no rows, extended by its output for each chunk and row.
    ``header_line`` is where ``f`` starts.

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
    out = check([[] for _ in range(width)])
    start = reader.line_num + header_line  # file line the next row starts on
    lines = []
    # A blank line is a row of no cells to csv.reader, which only its comma
    # count tells apart from a row of one empty cell.
    while width > 1:
        lines = list(islice(f, _CHUNK))
        chunk = _columnar(lines, memos, check) if lines else None
        if chunk is None:
            break
        for column, part in zip(out, chunk):
            column += part
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
                for column, part in zip(out, check([[value] for value in row])):
                    column += part
            except ValueError as exc:  # _RowError or a check's refusal
                errors.append(f"{path}:{line}: {exc}")
    except csv.Error as exc:  # such as a cell over csv.field_size_limit()
        # The reader stops inside the row, so no later row can be told apart.
        errors.append(f"{path}:{start}: {exc}")
    if errors:
        raise FileFormatError(errors)
    return out


def _columnar(lines: list, memos, check: Callable) -> list[list] | None:
    """The value columns of ``lines``, one row per line, parsed a column at a
    time, or what ``check`` keeps of them.

    None when csv.reader might read the lines otherwise (a quote, a lone
    carriage return, a line of the wrong field count, a cell that may pass
    csv.field_size_limit(), a NUL, which it refuses before Python 3.11) or
    when a cell or ``check`` fails: the row loop then reads them, and
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
                        col = _parsed(parse, name, col)
                else:
                    new = list(distinct.difference(memo))
                    if len(memo) + len(new) > _MEMO_LIMIT:  # a lookup for this chunk alone
                        memo = {cell: memo[cell] for cell in distinct.difference(new)}
                    memo.update(zip(new, new if parse is None else _parsed(parse, name, new)))
                    col = list(map(memo.__getitem__, col))
            cols.append(col)
        return check(cols)
    except ValueError:  # _RowError or a check's refusal
        return None


def _parsed(parse, name: str, cells: list) -> list:
    """``parse`` over ``cells``, through its column form where it has one."""
    if hasattr(parse, "column"):
        return parse.column(cells)
    return list(map(parse, cells, repeat(name)))


def _read_columns(path: Pathish, columns, check: Callable = _kept) -> list[list]:
    with open(path, newline="", encoding="utf-8") as f:
        return _parse_columns(path, f, columns, check)


def read_publications(path: Pathish) -> list[PublicationRecord]:
    """The publications as PublicationRecords, in file order.

    Each chunk is checked as read_publication_columns checks it, then its
    records are built with _make; no column outlives its chunk.
    """
    return _read_columns(path, _PUBLICATIONS,
                         _made(PublicationRecord, check_publication_columns))[0]


def read_publication_columns(path: Pathish) -> list[list]:
    """The publications as one list per PublicationRecord field, in field order.

    Every row is checked as PublicationRecord checks it, each distinct credit
    triple once per chunk, and a bad row is reported with its line, but no
    record is kept: model.validate_columns takes the lists.
    """
    return _read_columns(path, _PUBLICATIONS, check_publication_columns)


def read_journals(path: Pathish) -> list[JournalYearIF]:
    return _read_columns(path, _JOURNALS, _made(JournalYearIF, check_journal_columns))[0]


def read_journal_columns(path: Pathish) -> list[list]:
    """The journals as one list per JournalYearIF field, each row checked as
    JournalYearIF checks it, with no record built."""
    return _read_columns(path, _JOURNALS, check_journal_columns)


def read_profiles(path: Pathish) -> list[InvestigatorProfile]:
    return _read_columns(path, _PROFILES, _records(InvestigatorProfile))[0]


def read_grants(path: Pathish) -> list[GrantRecord]:
    return _read_columns(path, _GRANTS, _made(GrantRecord, check_grant_columns))[0]


def read_grant_columns(path: Pathish) -> list[list]:
    """The grants as one list per GrantRecord field, each row checked as
    GrantRecord checks it, with no record built."""
    return _read_columns(path, _GRANTS, check_grant_columns)


def read_toughness_corpus(path: Pathish) -> list[tuple[str, int, int, float]]:
    """Rows of (journal, year, total_citations, impact_factor)."""
    return list(zip(*read_corpus_columns(path)))


def read_corpus_columns(path: Pathish) -> list[list]:
    """The toughness corpus as its journal, year, total_citations and
    impact_factor columns, each count and impact factor at least 0."""
    return _read_columns(path, _CORPUS, _check_corpus)


def _write_csv(
    path: Pathish, header: Sequence[str], rows: Iterable[Sequence], marker: str = ""
) -> None:
    r"""Write an optional marker line, ``header``, then ``rows``, one per "\n" line.

    The bytes are those csv.writer writes for the same rows: None is
    written as an empty cell, a float as its repr, any other cell as its
    str. A cell holding a delimiter, a quote, "\n" or "\r" is quoted, as
    Python 3.13 does. Before 3.13 csv.writer quotes a line break only if it
    is in the line terminator, so the writer is given "\r\n" and each row
    it hands over (whole, in one write call) is stored ending in "\n".

    Rows are taken ``_CHUNK`` at a time. A chunk is formatted in one pass,
    and written as formatted where csv.writer would write the same text;
    any other chunk goes to csv.writer row by row.
    """
    width = len(header)
    template = ",".join(["%s"] * width) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as f:
        if marker:
            f.write(marker + "\n")
        sink = SimpleNamespace(write=lambda line: f.write(line[:-2] + "\n"))
        w = csv.writer(sink, lineterminator="\r\n")
        w.writerow(header)
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK)):
            text = _formatted(chunk, template, width)
            if text is None:
                w.writerows(chunk)
            else:
                f.write(text)


def _formatted(rows: list, template: str, width: int) -> str | None:
    """``template`` applied to each row, or None where csv.writer might write other text.

    csv.writer writes a row of ``width`` cells as their str joined by
    commas, unless a cell is None (an empty cell, not "None"), needs quoting
    (a comma, a quote, a line break), holds a NUL (refused before Python
    3.11), or the row is a lone empty cell (written as ""). A float's repr
    is its str. A tuple of other than ``width`` items fails to format.
    """
    if width < 2:
        return None
    try:
        text = "".join(map(template.__mod__, rows))
    except TypeError:  # a row of the wrong length, or a list among the tuples
        return None
    n = len(rows)
    if ('"' in text or "\r" in text or "\0" in text or "None" in text
            or text.count(",") != n * (width - 1) or text.count("\n") != n):
        return None
    return text


def write_publications(path: Pathish, records: Iterable[PublicationRecord]) -> None:
    _write_csv(path, PUBLICATIONS_HEADER, (
        (r.paper_id, r.pi_id, r.year, r.journal,
         r.author_count, r.credit_position, r.tie_span,
         "true" if r.is_corresponding else "false")
        for r in records
    ))


def write_journals(path: Pathish, records: Iterable[JournalYearIF]) -> None:
    _write_csv(path, JOURNALS_HEADER, records)


def write_profiles(path: Pathish, records: Iterable[InvestigatorProfile]) -> None:
    # An absent value is an empty cell, as csv.writer writes None.
    _write_csv(path, PROFILES_HEADER, (
        (r.pi_id, r.country, r.tier,
         r.gender.value if r.gender else "",
         "" if r.birth_year is None else r.birth_year,
         r.rank.value if r.rank else "",
         "" if r.total_funding is None else r.total_funding,
         "" if r.currency is None else r.currency)
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
    _write_csv(path, _TABLE_HEADER, zip(table.weights, (*table.cutoffs, 0.0)), marker=meta)


def read_toughness_table(path: Pathish) -> ToughnessTable:
    with open(path, newline="", encoding="utf-8") as f:
        marker = f.readline().rstrip("\n")
        if not marker.startswith(_TABLE_MARKER + " "):
            raise FileFormatError([f"{path}: not a toughness table file"])
        meta: dict[str, str] = {}
        try:
            for token in marker[len(_TABLE_MARKER) + 1 :].split():
                key, equals, value = token.partition("=")
                if not equals or key not in _TABLE_KEYS:
                    raise ValueError(f"unknown token {token!r}")
                if key in meta:
                    raise ValueError(f"repeated key {key!r}")
                meta[key] = value
            version = _parse_int(meta.get("v", "0"), "v")
            levels = _parse_int(meta["levels"], "levels")
            mode = DivisorMode(meta["divisor_mode"])
            base_count = _parse_int(meta["base_count"], "base_count")
            total_papers = _parse_int(meta["total_papers"], "total_papers")
            level_sizes = []
            for token in meta["level_sizes"].split("|"):  # each refused before the next is parsed
                level_sizes.append(_parse_int(token, "level_sizes"))
                if level_sizes[-1] < 0:
                    raise ValueError(f"level_sizes: must be >= 0, got {level_sizes[-1]}")
        except (KeyError, ValueError) as exc:
            raise FileFormatError([f"{path}: bad table metadata: {exc}"]) from None
        if version != _TABLE_VERSION:
            raise FileFormatError([f"{path}: unsupported table version {version}"])
        weights, floors = _parse_columns(path, f, _TABLE, header_line=2)

    # The row count first: the marker's levels= is not bounded by the file.
    if levels < 1 or len(weights) != levels or weights != list(range(levels, 0, -1)):
        raise FileFormatError([f"{path}: weights must run {levels}..1, got {weights}"])
    # The bottom level matches any remaining IF, so its floor is written as 0.
    if floors[-1] != 0:
        raise FileFormatError([f"{path}: bottom min_if must be 0, got {floors[-1]}"])
    try:
        # The declared total first, so too few papers reads as bad metadata.
        top_level_size(total_papers, levels, mode)
        try:
            table = ToughnessTable(tuple(floors[:-1]), mode, tuple(level_sizes))
        except ValueError as exc:
            raise FileFormatError([f"{path}: {exc}"]) from None
        # The marker's counts must be the table's own.
        if table.total_papers != total_papers:
            raise ValueError(f"level_sizes sum to {table.total_papers}, "
                             f"total_papers is {total_papers}")
        if table.base_count != base_count:
            raise ValueError(f"base_count {base_count} is not {table.base_count}, the "
                             f"{mode.value} top level of {total_papers} papers in "
                             f"{levels} levels")
    except ValueError as exc:
        raise FileFormatError([f"{path}: bad table metadata: {exc}"]) from None
    return table
