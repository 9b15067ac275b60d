"""CSV readers/writers: round-trips, strict parsing and error reporting."""

import csv
import io
import math
import random
import re
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leadindex import fileio
from leadindex.credit import MAX_AUTHOR_COUNT
from leadindex.errors import FileFormatError
from leadindex.fileio import (
    _optional,
    _parse_bool,
    _parse_float,
    _parse_columns,
    _parse_int,
    _RowError,
    _write_csv,
    read_grants,
    read_journals,
    read_profiles,
    read_publications,
    read_toughness_corpus,
    read_toughness_table,
    write_grants,
    write_journals,
    write_profiles,
    write_publications,
    write_toughness_corpus,
    write_toughness_table,
)
from leadindex.model import (
    Gender,
    GrantRecord,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    Rank,
    check_grant_columns,
    check_journal_columns,
    check_profile_columns,
    check_publication_columns,
)
from leadindex.toughness import DivisorMode, ToughnessTable, build_table


def random_publications(rng, n):
    records = []
    for i in range(n):
        authors = rng.randint(1, 30)
        position = rng.randint(1, authors)
        span = rng.randint(1, authors - position + 1)
        records.append(
            PublicationRecord(
                paper_id=f"p{i:04d}",
                pi_id=f"P{rng.randrange(40):03d}",
                year=rng.randint(1990, 2020),
                journal=f"J{rng.randrange(60):03d}",
                author_count=authors,
                credit_position=position,
                tie_span=span,
                is_corresponding=rng.random() < 0.8,
            )
        )
    return records


class TestRoundTrips:
    def test_publications(self, tmp_path):
        records = random_publications(random.Random(3), 500)
        path = tmp_path / "pubs.csv"
        write_publications(path, records)
        assert read_publications(path) == records

    def test_publications_are_built_from_the_column_read(self, tmp_path, monkeypatch):
        records = random_publications(random.Random(5), 50)
        path = tmp_path / "pubs.csv"
        write_publications(path, records)
        constructed = []
        record_new = PublicationRecord.__new__

        def counted(cls, *args, **kwargs):
            constructed.append(args)
            return record_new(cls, *args, **kwargs)

        monkeypatch.setattr(PublicationRecord, "__new__", counted)
        assert read_publications(path) == records
        assert constructed == []

    def test_journal_ifs_preserve_float_bits(self, tmp_path):
        rng = random.Random(4)
        rows = [JournalYearIF(f"J{i}", 2000 + i % 20, rng.uniform(0.0001, 300.0))
                for i in range(200)]
        path = tmp_path / "ifs.csv"
        write_journals(path, rows)
        back = read_journals(path)
        assert back == rows
        for a, b in zip(back, rows):
            assert a.impact_factor == b.impact_factor  # bitwise, not approx

    def test_profiles_with_gaps(self, tmp_path):
        profiles = [
            InvestigatorProfile("P1", "CN", 1, gender=Gender.FEMALE,
                                birth_year=1970, rank=Rank.PROFESSOR,
                                total_funding=123456.78, currency="CNY"),
            InvestigatorProfile("P2", "US", 3),
            InvestigatorProfile("P3", "DE", 2, gender=Gender.MALE),
        ]
        path = tmp_path / "profiles.csv"
        write_profiles(path, profiles)
        assert read_profiles(path) == profiles

    def test_grants(self, tmp_path):
        grants = [GrantRecord("P1", 2010, 5e4, "CNY"),
                  GrantRecord("P1", 2011, 1.25e5, "CNY"),
                  GrantRecord("P2", 2010, 8e4, "CNY")]
        path = tmp_path / "grants.csv"
        write_grants(path, grants)
        assert read_grants(path) == grants

    def test_corpus(self, tmp_path):
        rows = [("Journal of Tests", 2009, 150000, 12.5),
                ("Plain", 2009, 80, 0.25)]
        path = tmp_path / "corpus.csv"
        write_toughness_corpus(path, rows)
        assert read_toughness_corpus(path) == rows

    def test_awkward_journal_names_survive_quoting(self, tmp_path):
        names = ['Has, Comma', 'Has "Quotes"', 'Tab\there', "Mix,\"of'all",
                 "CR\rin", "CRLF\r\nin", "LF\nin"]
        rows = [JournalYearIF(name, 2010, 1.0) for name in names]
        path = tmp_path / "ifs.csv"
        write_journals(path, rows)
        assert [r.journal for r in read_journals(path)] == names
        # Quoted on every Python, as 3.13's csv.writer does.
        assert b'\n"CR\rin",2010,1.0\n"CRLF\r\nin",2010,1.0\n"LF\nin",2010' in path.read_bytes()

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "pubs.csv"
        write_publications(path, [])
        assert read_publications(path) == []


class TestStrictParsing:
    def write_lines(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_empty_file_is_missing_its_header(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text("")
        with pytest.raises(FileFormatError) as exc:
            read_publications(path)
        header = ",".join(fileio.PUBLICATIONS_HEADER)
        assert exc.value.errors == [f"{path}: missing header {header}"]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "pubs.csv"
        self.write_lines(path, ["paper,pi,year", "p1,P1,2010"])
        with pytest.raises(FileFormatError):
            read_publications(path)

    def test_bad_int_reports_line_number(self, tmp_path):
        path = tmp_path / "pubs.csv"
        self.write_lines(path, [
            "paper_id,pi_id,year,journal,author_count,credit_position,tie_span,is_corresponding",
            "p1,P1,2010,JA,3,1,1,true",
            "p2,P1,20 10,JA,3,1,1,true",
        ])
        with pytest.raises(FileFormatError) as exc:
            read_publications(path)
        assert any("line 3" in e or ":3:" in e for e in exc.value.errors)

    def test_multi_line_row_reported_at_its_first_line(self, tmp_path):
        path = tmp_path / "ifs.csv"
        path.write_text('journal,year,impact_factor\n"J\nK",20x,1.0\nJ,2010,-1\n')
        with pytest.raises(FileFormatError) as exc:
            read_journals(path)
        assert [e.split(" ", 1)[0] for e in exc.value.errors] == [f"{path}:2:", f"{path}:4:"]

    def test_float_with_junk_rejected(self, tmp_path):
        path = tmp_path / "ifs.csv"
        for value in ("1.5x", "1e400", "-1e400"):
            self.write_lines(path, ["journal,year,impact_factor", f"JA,2010,{value}"])
            with pytest.raises(FileFormatError) as exc:
                read_journals(path)
            assert exc.value.errors[0].startswith(f"{path}:2: impact_factor")

    @pytest.mark.parametrize("chunk", [1, 2048])
    def test_float_below_the_normal_range_rejected(self, tmp_path, chunk):
        """A nonzero cell that rounds to the subnormal grid or to zero does not
        hold its own value and is refused, on either path; zeros are kept."""
        path = tmp_path / "ifs.csv"
        cells = ["5e-324", "3e-324", "2.225073858507201e-308", "1e-400", "-1e-400",
                 "2.2250738585072014e-308", "0", "-0.0", "0e-400"]
        self.write_lines(path, ["journal,year,impact_factor",
                                *(f"JA,{2000 + k},{cell}" for k, cell in enumerate(cells))])
        with mock.patch.object(fileio, "_CHUNK", chunk), pytest.raises(FileFormatError) as exc:
            read_journals(path)
        assert exc.value.errors == [
            f"{path}:{k + 2}: impact_factor: below the normal float range: {cell!r}"
            for k, cell in enumerate(cells[:5])]

    @pytest.mark.parametrize("value", ["True", "FALSE", "1", "yes", ""])
    def test_bool_accepts_only_lowercase_words(self, tmp_path, value):
        path = tmp_path / "pubs.csv"
        self.write_lines(path, [
            "paper_id,pi_id,year,journal,author_count,credit_position,tie_span,is_corresponding",
            f"p1,P1,2010,JA,3,1,1,{value}",
        ])
        with pytest.raises(FileFormatError):
            read_publications(path)

    def test_errors_accumulate_across_rows(self, tmp_path):
        path = tmp_path / "pubs.csv"
        self.write_lines(path, [
            "paper_id,pi_id,year,journal,author_count,credit_position,tie_span,is_corresponding",
            "p1,P1,bad,JA,3,1,1,true",
            "p2,P1,2010,JA,0,1,1,true",
            "p3,P1,2010,JA,3,9,1,true",
        ])
        with pytest.raises(FileFormatError) as exc:
            read_publications(path)
        assert len(exc.value.errors) == 3

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "grants.csv"
        self.write_lines(path, ["pi_id,year,amount,currency", "P1,2010,100.0"])
        with pytest.raises(FileFormatError):
            read_grants(path)

    def test_record_invariants_surface_as_file_errors(self, tmp_path):
        path = tmp_path / "grants.csv"
        self.write_lines(path, ["pi_id,year,amount,currency", "P1,2010,-5.0,CNY"])
        with pytest.raises(FileFormatError):
            read_grants(path)

    def test_profile_enum_values_validated(self, tmp_path):
        path = tmp_path / "profiles.csv"
        self.write_lines(path, [
            "pi_id,country,class,gender,birth_year,rank,total_funding,currency",
            "P1,CN,1,other,,,,",
        ])
        with pytest.raises(FileFormatError):
            read_profiles(path)

    @pytest.mark.parametrize("row, column", [
        ("JA,2009,-1,2.5", "total_citations"),
        ("JA,2009,10,-0.5", "impact_factor"),
        ("JA,20x9,-1,-0.5", "year"),  # the first bad column from the left
        # The rule runs once every cell parses, so a bad cell names the row.
        ("JA,2009,-1,x", "impact_factor"),
    ])
    def test_corpus_reports_first_bad_column(self, tmp_path, row, column):
        path = tmp_path / "corpus.csv"
        self.write_lines(path, ["journal,year,total_citations,impact_factor", row])
        with pytest.raises(FileFormatError) as exc:
            read_toughness_corpus(path)
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith(f"{path}:2: {column}:")

    def test_author_count_capped(self, tmp_path):
        path = tmp_path / "pubs.csv"
        self.write_lines(path, [
            "paper_id,pi_id,year,journal,author_count,credit_position,tie_span,is_corresponding",
            f"p1,P1,2010,JA,{MAX_AUTHOR_COUNT + 1},1,1,true",
            f"p2,P1,2010,JA,{MAX_AUTHOR_COUNT},{MAX_AUTHOR_COUNT},1,true",
        ])
        with pytest.raises(FileFormatError) as exc:
            read_publications(path)
        assert exc.value.errors == [
            f"{path}:2: author_count must be <= 100000, got {MAX_AUTHOR_COUNT + 1}"]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no digit limit on int() before Python 3.10.7")
    @pytest.mark.parametrize("read, header, row", [
        (read_journals, "journal,year,impact_factor", "JA,{year},1.5"),
        (read_publications,
         "paper_id,pi_id,year,journal,author_count,credit_position,tie_span,is_corresponding",
         "p1,P1,{year},JA,3,1,1,true"),
    ], ids=["journals", "publications"])
    def test_integer_past_the_digit_limit_names_its_column(self, tmp_path, read, header, row):
        """int() refuses more than 4,300 digits; the error names the column
        and line like any bad cell, without echoing the digits."""
        path = tmp_path / "data.csv"
        self.write_lines(path, [header, row.format(year="1" * 5000)])
        with pytest.raises(FileFormatError) as exc:
            read(path)
        assert exc.value.errors == [f"{path}:2: year: integer too long: 5000 characters"]

    def test_bad_cell_repeated_on_k_lines_gives_k_errors(self, tmp_path):
        path = tmp_path / "ifs.csv"
        self.write_lines(path, ["journal,year,impact_factor", "JA,20x0,1.5",
                                "JA,2010,1.5", "JB,20x0,1.5", "JA,20x0,-1"])
        with pytest.raises(FileFormatError) as exc:
            read_journals(path)
        assert exc.value.errors == [
            f"{path}:{line}: year: not an integer: '20x0'" for line in (2, 4, 5)]

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_publications(tmp_path / "absent.csv")


class TestToughnessTableFile:
    def table(self):
        return ToughnessTable(
            cutoffs=(20.0, 9.5, 4.25),
            divisor_mode=DivisorMode.GEOMETRIC_SUM,
            level_sizes=(7, 14, 28, 57),
        )

    def write_marked(self, path, **meta):
        """The fixture's file with some of its marker's values replaced."""
        write_toughness_table(path, self.table())
        marker, rest = path.read_text().split("\n", 1)
        for key, value in meta.items():
            marker = re.sub(rf"\b{key}=\S+", f"{key}={value}", marker)
        path.write_text(marker + "\n" + rest)

    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        assert read_toughness_table(path) == self.table()

    def test_file_shape_is_weight_min_if(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# toughness-table v=1")
        assert lines[1] == "weight,min_if"
        assert lines[2].startswith("4,")
        assert lines[-1].startswith("1,")

    def test_missing_marker_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("weight,min_if\n1,0.0\n")
        with pytest.raises(FileFormatError):
            read_toughness_table(path)

    def test_tampered_weights_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        text = path.read_text().replace("\n3,", "\n5,")
        path.write_text(text)
        with pytest.raises(FileFormatError):
            read_toughness_table(path)

    def test_huge_levels_marker_rejected_before_building_it(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        marker, header, *_ = path.read_text().splitlines()
        marker = marker.replace("levels=4", "levels=1000000000000")
        path.write_text("\n".join([marker, header, "2,5.0", "1,0.0", ""]))
        started = time.perf_counter()
        with pytest.raises(FileFormatError, match="weights must run"):
            read_toughness_table(path)
        assert time.perf_counter() - started < 1.0

    def test_zero_levels_marker_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# toughness-table v=1 levels=0 divisor_mode=geometric_sum "
                        "base_count=5 total_papers=5 level_sizes=5\nweight,min_if\n")
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [f"{path}: weights must run 0..1, got []"]

    def test_non_integer_levels_is_bad_metadata(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        path.write_text(path.read_text().replace("levels=4", "levels=x"))
        with pytest.raises(FileFormatError, match="bad table metadata"):
            read_toughness_table(path)

    def test_rising_min_if_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        path.write_text(path.read_text().replace("\n2,4.25\n", "\n2,40.25\n"))
        with pytest.raises(FileFormatError, match="cutoffs must be non-increasing"):
            read_toughness_table(path)

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.floats(0, 1e3, allow_subnormal=False)),
                    max_size=30),
           st.integers(1, 12), st.sampled_from(DivisorMode))
    @settings(deadline=None)
    def test_every_built_table_passes_the_metadata_rules(self, corpus, levels, mode):
        try:
            table = build_table(corpus, levels, mode)
        except ValueError:  # too few papers for the levels
            return
        assert sum(table.level_sizes) == table.total_papers
        assert table.total_papers >= 2**levels - 1
        assert table.base_count == expected_base_count(table.total_papers, levels, mode)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "table.csv")
            write_toughness_table(path, table)
            assert read_toughness_table(path) == table

    def test_level_sizes_off_the_total_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        self.write_marked(path, level_sizes="7|14|28|58")
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [
            f"{path}: bad table metadata: level_sizes sum to 107, total_papers is 106"]

    @pytest.mark.parametrize("key,value,cell", [
        ("v", "0_1", "0_1"), ("levels", "0_4", "0_4"), ("base_count", "0_7", "0_7"),
        ("total_papers", "1_06", "1_06"), ("level_sizes", "7|14|28|5_7", "5_7"),
    ])
    def test_marker_integers_follow_the_csv_integer_rule(self, tmp_path, key, value, cell):
        # int() reads each of these as the fixture's own value.
        path = tmp_path / "table.csv"
        self.write_marked(path, **{key: value})
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [
            f"{path}: bad table metadata: {key}: not an integer: {cell!r}"]

    @pytest.mark.parametrize("extra,error", [
        ("levels=2", "repeated key 'levels'"),  # a dict keeps the last
        ("v=1", "repeated key 'v'"),
        ("garbage", "unknown token 'garbage'"),  # a dict keeps it, unread
        ("mode=half_pow", "unknown token 'mode=half_pow'"),
    ])
    def test_marker_refuses_repeated_keys_and_unknown_tokens(self, tmp_path, extra, error):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        marker, rest = path.read_text().split("\n", 1)
        path.write_text(f"{marker} {extra}\n{rest}")
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [f"{path}: bad table metadata: {error}"]

    @pytest.mark.parametrize("sizes, size", [
        ("7|14|-28|113", -28),  # the sizes still sum to total_papers: only the sign is wrong
        ("7|-14|x|113", -14),  # each size is refused before the next is parsed
    ])
    def test_negative_level_size_rejected(self, tmp_path, sizes, size):
        path = tmp_path / "table.csv"
        self.write_marked(path, level_sizes=sizes)
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [
            f"{path}: bad table metadata: level_sizes: must be >= 0, got {size}"]

    def test_too_few_papers_for_the_levels_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# toughness-table v=1 levels=3 divisor_mode=geometric_sum "
                        "base_count=0 total_papers=5 level_sizes=1|1|3\n"
                        "weight,min_if\n3,5.0\n2,2.0\n1,0.0\n")
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [f"{path}: bad table metadata: corpus has 5 papers, "
                                    "need at least 2**3 - 1 for 3 levels"]

    @pytest.mark.parametrize("meta", [dict(base_count=8), dict(divisor_mode="half_pow")])
    def test_base_count_off_the_divisor_mode_rejected(self, tmp_path, meta):
        path = tmp_path / "table.csv"
        self.write_marked(path, **meta)
        with pytest.raises(FileFormatError, match=r"bad table metadata: base_count \d+ is not"):
            read_toughness_table(path)

    @pytest.mark.parametrize("floor", ["3.0", "1e-300", "-0.0", "0"])
    def test_bottom_floor_must_be_zero(self, tmp_path, floor):
        """The bottom level matches any IF, so its min_if can only be 0: a
        file claiming another floor is refused, not read as if it held 0."""
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        text = path.read_text()
        assert text.endswith("\n1,0.0\n")
        path.write_text(text.removesuffix("0.0\n") + floor + "\n")
        if float(floor) == 0:
            assert read_toughness_table(path) == self.table()
            return
        with pytest.raises(FileFormatError) as exc:
            read_toughness_table(path)
        assert exc.value.errors == [f"{path}: bottom min_if must be 0, got {float(floor)}"]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        write_toughness_table(path, self.table())
        path.write_text(path.read_text().replace("v=1", "v=9"))
        with pytest.raises(FileFormatError):
            read_toughness_table(path)


# Text cells: any character but surrogates (not encodable as UTF-8) and NUL
# (which csv.reader refuses before Python 3.11).
CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")
TEXT = st.text(CHARS, min_size=1, max_size=12)
YEARS = st.integers(-10**6, 10**6)
COUNTS = st.integers(0, 10**12)
# Finite, >= 0 and never subnormal, which the readers refuse.
FLOATS = st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=False)


@st.composite
def publication_records(draw):
    authors = draw(st.integers(1, 500))
    position = draw(st.integers(1, authors))
    return PublicationRecord(
        draw(TEXT), draw(TEXT), draw(YEARS), draw(TEXT), authors, position,
        draw(st.integers(1, authors - position + 1)), draw(st.booleans()),
    )


@st.composite
def profile_records(draw):
    funding = draw(st.none() | FLOATS)
    return InvestigatorProfile(
        draw(TEXT), draw(TEXT), draw(st.sampled_from([1, 2, 3])),
        draw(st.none() | st.sampled_from(Gender)), draw(st.none() | YEARS),
        draw(st.none() | st.sampled_from(Rank)), funding,
        draw(TEXT if funding is not None else st.none() | TEXT),
    )


def expected_base_count(total, levels, mode):
    """The top level's size as DivisorMode defines it."""
    if mode is DivisorMode.GEOMETRIC_SUM:
        return total // (2**levels - 1)
    return total // 2**(levels - 1)


@st.composite
def toughness_tables(draw):
    """Any cutoffs, over level sizes that sum to at least 2**levels - 1 papers."""
    levels = draw(st.integers(1, 12))
    cutoffs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                      allow_subnormal=False),
                            min_size=levels - 1, max_size=levels - 1))
    mode = draw(st.sampled_from(DivisorMode))
    level_sizes = draw(st.lists(COUNTS, min_size=levels, max_size=levels))
    level_sizes[-1] += 2**levels - 1
    return ToughnessTable(
        cutoffs=tuple(sorted(cutoffs, reverse=True)),
        divisor_mode=mode, level_sizes=tuple(level_sizes),
    )


# Per format: writer, reader, records, header lines before the first data
# row, and each typed column with its index.
FORMATS = {
    "publications": (
        write_publications, read_publications, st.lists(publication_records(), max_size=5),
        1, {"year": 2, "author_count": 4, "credit_position": 5, "tie_span": 6,
            "is_corresponding": 7},
    ),
    "journals": (
        write_journals, read_journals, st.lists(st.builds(JournalYearIF, TEXT, YEARS, FLOATS),
                                                max_size=5),
        1, {"year": 1, "impact_factor": 2},
    ),
    "profiles": (
        write_profiles, read_profiles, st.lists(profile_records(), max_size=5),
        1, {"class": 2, "gender": 3, "birth_year": 4, "rank": 5, "total_funding": 6},
    ),
    "grants": (
        write_grants, read_grants,
        st.lists(st.builds(GrantRecord, TEXT, YEARS, FLOATS, TEXT), max_size=5),
        1, {"year": 1, "amount": 2},
    ),
    "corpus": (
        write_toughness_corpus, read_toughness_corpus,
        st.lists(st.tuples(st.text(CHARS, max_size=12), YEARS, COUNTS, FLOATS), max_size=5),
        1, {"year": 1, "total_citations": 2, "impact_factor": 3},
    ),
    "table": (
        write_toughness_table, read_toughness_table, toughness_tables(),
        2, {"weight": 0, "min_if": 1},
    ),
}

# Junk that every typed parser refuses, whatever else the column allows.
JUNK = (st.sampled_from([" 1", "1.5x", "true ", "nan", "inf", "-", "1e400", "0x10"])
        | st.text(CHARS, max_size=6).map(lambda t: t + "?"))


class TestEveryFormatFuzzed:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    @given(data=st.data())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_valid_records_round_trip(self, tmp_path, name, data):
        write, read, records, _, _ = FORMATS[name]
        value = data.draw(records)
        path = tmp_path / f"{name}.csv"
        write(path, value)
        assert read(path) == value

    @pytest.mark.parametrize("name", sorted(FORMATS))
    @given(data=st.data())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_junk_in_a_typed_column_names_that_column(self, tmp_path, name, data):
        """One junk cell gives one error, on its line, naming its column."""
        write, read, records, header_lines, typed = FORMATS[name]
        value = data.draw(records.filter(bool))
        column = data.draw(st.sampled_from(sorted(typed)))
        path = tmp_path / f"{name}.csv"
        write(path, value)
        with open(path, newline="", encoding="utf-8") as f:
            marker = [f.readline() for _ in range(header_lines - 1)]
            rows = list(csv.reader(f))
        row = rows[1]
        row[typed[column]] = data.draw(JUNK)
        _write_csv(path, rows[0], rows[1:], marker="".join(marker).rstrip("\n"))
        line = header_lines + 1  # where the row starts, whatever breaks its cells hold
        with pytest.raises(FileFormatError) as exc:
            read(path)
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith(f"{path}:{line}: {column}:")


# The integer check as a regular expression, as the parser once had it: the
# reference the isdecimal() check must agree with, error texts included.
_INT_RE = re.compile(r"[+-]?\d+")


def _parse_int_by_regex(text, field):
    if not _INT_RE.fullmatch(text):
        raise _RowError(f"{field}: not an integer: {text!r}")
    return int(text)


# Signs, ASCII and other Unicode decimal digits (Arabic-Indic, Devanagari,
# fullwidth, mathematical bold), digits that are not decimal (superscript two,
# one half), and what int() alone would let through: "_" and whitespace.
INT_CHARS = st.sampled_from("+-0123456789_ \t\n\r\u0663\u096d\uff15\U0001d7d3\u00b2\u00bd.ex")


def _parse_year_cell(cell, parse_int):
    """``_parse_columns`` over one journals row whose year is ``cell``: rows or errors."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerows(
        [["journal", "year", "impact_factor"], ["JA", cell, "1.5"]])
    columns = [("journal", None), ("year", parse_int), ("impact_factor", _parse_float)]
    try:
        return list(zip(*_parse_columns(
            "ifs.csv", io.StringIO(buffer.getvalue(), newline=""), columns)))
    except FileFormatError as exc:
        return exc.errors


class TestIntParserMatchesRegex:
    @given(cell=st.text(INT_CHARS, max_size=6) | st.text(CHARS, max_size=6))
    @example(cell="")
    @example(cell="+")
    @example(cell="-0")
    @example(cell="+-1")
    @example(cell="1_000")
    @example(cell=" 12")
    @example(cell="12\n")
    @example(cell="\u0663\uff15")  # accepted: 35
    @example(cell="-\U0001d7d3")  # accepted: -5
    @example(cell="\u00b2")
    @settings(max_examples=500)
    def test_same_cells_accepted_with_same_errors(self, cell):
        try:
            expected = _parse_int_by_regex(cell, "year")
        except _RowError as exc:
            with pytest.raises(_RowError) as got:
                _parse_int(cell, "year")
            assert str(got.value) == str(exc)
        else:
            assert _parse_int(cell, "year") == expected
        assert (_parse_year_cell(cell, _parse_int)
                == _parse_year_cell(cell, _parse_int_by_regex))


# Cells a number parser must agree on with int() or float(): signs, ASCII and
# other Unicode decimal digits, ".", "e", "_", and whitespace that int() and
# float() strip (space, "\t", EN SPACE) or do not (the separator "\x1c").
NUMBER_CHARS = st.sampled_from("+-0123456789.e_ \t\u2002\x1c\u0663\uff15")
NUMBER_CELLS = (st.text(NUMBER_CHARS, max_size=6)
                | st.sampled_from(["inf", "-inf", "nan", "Infinity", "1e400", "1" * 4301]))
NUMBER_PARSERS = {"int": _parse_int, "float": _parse_float}


class TestColumnFormMatchesParser:
    @pytest.mark.parametrize("name", sorted(NUMBER_PARSERS))
    @given(cells=st.lists(NUMBER_CELLS, min_size=1, max_size=4))
    @example(cells=["1.5", "2.5 ", "3.5"])
    @example(cells=[" 1", "2"])
    @example(cells=["1", "2\t"])
    @example(cells=["1_0"])
    @example(cells=["1\u2002"])
    @example(cells=["\x1c1"])
    @example(cells=["-0", "-0.0", "0"])
    @example(cells=["\u0663\uff15", "-\u0663.5e\uff15"])
    @example(cells=["Infinity"])
    @example(cells=["1e400"])
    @example(cells=["1" * 4301])
    @example(cells=[""])
    @settings(max_examples=300)
    def test_same_cells_accepted_with_same_values(self, name, cells):
        """The column form accepts a column exactly when the parser accepts
        each of its cells, and reads the same values, signed zeros included."""
        parse = NUMBER_PARSERS[name]
        try:
            expected = [parse(cell, name) for cell in cells]
        except _RowError:
            expected = None
        try:
            got = parse.column(cells)
        except ValueError:
            got = None
        assert repr(got) == repr(expected)


def _parse_each_cell(rows, columns, check):
    """``_parse_columns`` without memos, the reference: every cell parsed on
    its own, and each row checked alone, keeping what the check returns. Its
    rows, or its errors."""
    records, errors = [], []
    for line, row in enumerate(rows, start=2):
        try:
            kept = [[text if parse is None else parse(text, name)]
                    for (name, parse), text in zip(columns, row)]
            records.extend(zip(*check(kept)))
        except ValueError as exc:
            errors.append(f"t.csv:{line}: {exc}")
    return errors or records


def _odd_sum_refused(columns):
    """A check: refuses rows whose integers sum to an odd number, keeps the rest."""
    for values in zip(*columns):
        if sum(v for v in values if type(v) is int) % 2:
            raise ValueError("integers sum to an odd number")
    return columns


# Few distinct cells, so that most repeat down a column: good and bad integers
# with signs and Unicode digits, floats, booleans and empty cells.
MEMO_CELLS = st.sampled_from([
    "", "0", "7", "+7", "-7", "-0", "+-1", "1_0", " 1", "\u0663\uff15", "-\U0001d7d3",
    "\u00b2", "1.5", "-0.0", "0.0", "1e3", "1e400", "nan", "true", "false", "x",
])
MEMO_COLUMNS = [
    ("text", None), ("int", _parse_int), ("count", _parse_int),
    ("opt_int", _optional(_parse_int)), ("number", _parse_float), ("flag", _parse_bool),
    ("note", _optional()),
]


class TestMemoisedRowsMatchPerCellParsing:
    @given(rows=st.lists(st.lists(MEMO_CELLS, min_size=len(MEMO_COLUMNS),
                                  max_size=len(MEMO_COLUMNS)), max_size=30),
           check=st.sampled_from([fileio._kept, _odd_sum_refused]),
           limit=st.sampled_from([0, 2, 2**16]))
    @settings(max_examples=300)
    def test_same_records_and_errors(self, rows, check, limit):
        """Same values (types and signed zeros too) and the same errors, a bad
        cell giving one error on each line it appears on, at any memo bound."""
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerows(
            [[name for name, _ in MEMO_COLUMNS], *rows])
        with mock.patch.object(fileio, "_MEMO_LIMIT", limit):
            try:
                got = list(zip(*_parse_columns(
                    "t.csv", io.StringIO(buffer.getvalue(), newline=""), MEMO_COLUMNS, check)))
            except FileFormatError as exc:
                got = exc.errors
        assert repr(got) == repr(_parse_each_cell(rows, MEMO_COLUMNS, check))


def _read_rows(text, columns, check, header_line=1):
    """``_parse_columns`` on ``text``: the rows of its value columns as
    tuples, each record of a column of records as a row, or the errors it raised."""
    f = io.StringIO(text, newline="")
    try:
        kept = _parse_columns("t.csv", f, columns, check, header_line)
        return kept[0] if len(kept) == 1 else list(zip(*kept))
    except FileFormatError as exc:
        return exc.errors


def _typed(result):
    """The rows with each value's type and repr (so -0.0 differs from 0.0), or the errors."""
    if result and isinstance(result[0], str):
        return result
    return [[(type(v), repr(v)) for v in r] for r in result]


def _row_loop_only(lines, memos, check):
    return None


# Cells per kind of column: (plain, odd). Plain cells are unquoted and mostly
# valid, so that most chunks go columnar; an odd one is special to csv or to
# a check, or bad.
TEXT_CELLS = (["a", "b", "J1", "P1"], [
    "", ",", 'q"t', "l\nm", "l\r\nm", "c\rd", "\x0b", "v\u2028w", "a\0b", " ", "\x85"])
YEAR_CELLS = (["2010", "1999", "-3"], [" 1", "7 ", "1_0", "1.5", "x", "+4", "-0", "00007"])
FLOAT_CELLS = (["1.5", "0.0", "2", "3.25"],
               ["-0.0", "1e3", "nan", "inf", "-1.0", "1e400", "2.5 ", "\t2.5", "2_5", "5e-324"])
PUBLICATION_CELLS = [
    TEXT_CELLS, TEXT_CELLS, YEAR_CELLS, TEXT_CELLS,
    (["1", "2", "3"], ["0", "100000", "100001", "-1"]),
    (["1", "2"], ["0", "4", "x"]), (["1", "2"], ["0", "3"]),
    (["true", "false"], ["True", ""])]
PROFILE_CELLS = [
    TEXT_CELLS, TEXT_CELLS, (["1", "2", "3"], ["0", "4"]),
    (["", "male", "female"], ["x", "professor"]), (["", "1970"], ["x"]),
    (["", "professor"], ["male"]), (["", "5.0"], ["-0.0", "-1.0", "x"]),
    (["", "USD"], [])]


def _records(record):
    """A check that builds ``record`` of each row through its constructor, the
    one copy of the record's rules, and keeps the records as one column: the
    reference a format's column check must agree with."""
    return lambda columns: [list(map(record, *columns))]


# Per format: its columns, check and the cells of each column.
CELL_FORMATS = {
    "publications": (fileio._PUBLICATIONS, _records(PublicationRecord), PUBLICATION_CELLS),
    # The readers' check: columns checked once per distinct key, no record per row.
    "publication columns": (fileio._PUBLICATIONS, check_publication_columns, PUBLICATION_CELLS),
    # The record readers' checks: the checked columns' records, built with _make.
    "publication records": (
        fileio._PUBLICATIONS, fileio._made(PublicationRecord, check_publication_columns),
        PUBLICATION_CELLS),
    "journals": (fileio._JOURNALS, _records(JournalYearIF),
                 [TEXT_CELLS, YEAR_CELLS, FLOAT_CELLS]),
    "journal columns": (fileio._JOURNALS, check_journal_columns,
                        [TEXT_CELLS, YEAR_CELLS, FLOAT_CELLS]),
    "journal records": (fileio._JOURNALS, fileio._made(JournalYearIF, check_journal_columns),
                        [TEXT_CELLS, YEAR_CELLS, FLOAT_CELLS]),
    "profiles": (fileio._PROFILES, _records(InvestigatorProfile), PROFILE_CELLS),
    "profile records": (
        fileio._PROFILES, fileio._made(InvestigatorProfile, check_profile_columns),
        PROFILE_CELLS),
    "grants": (fileio._GRANTS, _records(GrantRecord),
               [TEXT_CELLS, YEAR_CELLS, FLOAT_CELLS, TEXT_CELLS]),
    "grant columns": (fileio._GRANTS, check_grant_columns,
                      [TEXT_CELLS, YEAR_CELLS, FLOAT_CELLS, TEXT_CELLS]),
    "grant records": (fileio._GRANTS, fileio._made(GrantRecord, check_grant_columns),
                      [TEXT_CELLS, YEAR_CELLS, FLOAT_CELLS, TEXT_CELLS]),
    "corpus": (fileio._CORPUS, fileio._check_corpus, [
        TEXT_CELLS, YEAR_CELLS, (["0", "10"], ["-1", "x"]), FLOAT_CELLS]),
    "text": ([("x", None), ("y", None)], fileio._kept, [TEXT_CELLS, TEXT_CELLS]),
    "memo": (MEMO_COLUMNS, _odd_sum_refused, [(
        ["", "0", "7", "-0", "1.5", "-0.0", "true", "x"],
        ["+-1", "1_0", " 1", "\u0663\uff15", "1e400", "nan"])] * len(MEMO_COLUMNS)),
}


def _quote(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def csv_texts(draw, columns, cells):
    r"""A file of ``columns``: rows of plain cells, rows with one odd cell,
    quoted and multi-line cells, blank lines, rows of the wrong width, and
    "\n", "\r\n" or "\r" line ends."""
    text = ",".join(name for name, _ in columns) + "\n"
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 8 + ["odd"] * 4 + ["blank", "short", "long"]))
        row = [draw(st.sampled_from(plain)) for plain, _ in cells]
        if kind == "odd":
            k = draw(st.integers(0, len(row) - 1))
            plain, odd = cells[k]
            row[k] = draw(st.sampled_from(plain + odd))
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append(row[0])
        row = [_quote(cell) if (set(cell) & set(',"\r\n')
                                or draw(st.integers(0, 29)) == 0) else cell
               for cell in row]
        end = draw(st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"]))
        text += ("" if kind == "blank" else ",".join(row)) + end
    if draw(st.booleans()):
        text = text[:-1]  # no line break after the last row
    return text


class TestColumnarMatchesRowLoop:
    @pytest.mark.parametrize("name", sorted(CELL_FORMATS))
    @given(data=st.data(), chunk=st.sampled_from([1, 2, 3, 5]),
           limit=st.sampled_from([0, 3, 2**16]), header_line=st.sampled_from([1, 2]))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_records_and_errors(self, name, data, chunk, limit, header_line):
        """Chunks read a column at a time, then the row loop from the first chunk
        that is not plain or not clean, give what the row loop gives alone: the
        same records, value types and signed zeros, or the same errors."""
        columns, check, cells = CELL_FORMATS[name]
        text = data.draw(csv_texts(columns, cells))
        with mock.patch.object(fileio, "_CHUNK", chunk), \
                mock.patch.object(fileio, "_MEMO_LIMIT", limit):
            got = _read_rows(text, columns, check, header_line)
        with mock.patch.object(fileio, "_columnar", _row_loop_only):
            expected = _read_rows(text, columns, check, header_line)
        assert _typed(got) == _typed(expected)

    @pytest.mark.parametrize("name", sorted(CELL_FORMATS))
    def test_each_odd_cell_in_a_later_chunk(self, name):
        """Plain rows, then one row with one odd cell, in the second chunk."""
        columns, check, cells = CELL_FORMATS[name]
        header = ",".join(name for name, _ in columns)
        plain_row = [plain[-1] for plain, _ in cells]
        for k, (_, odd) in enumerate(cells):
            for cell in odd:
                row = plain_row.copy()
                row[k] = _quote(cell) if set(cell) & set(',"\r\n') else cell
                text = "\n".join([header, *[",".join(plain_row)] * 3, ",".join(row), ""])
                with mock.patch.object(fileio, "_CHUNK", 2):
                    got = _read_rows(text, columns, check)
                with mock.patch.object(fileio, "_columnar", _row_loop_only):
                    expected = _read_rows(text, columns, check)
                assert _typed(got) == _typed(expected), (k, cell)

    @pytest.mark.parametrize("name, columns, records", [
        ("journals", "journal columns", "journals"), ("grants", "grant columns", "grants"),
        ("journal records", "journal records", "journals"),
        ("grant records", "grant records", "grants"),
        ("publication records", "publication records", "publications"),
        ("profile records", "profile records", "profiles")])
    @given(data=st.data(), chunk=st.sampled_from([1, 3, 2048]), pinned=st.none())
    # Pinned files: a plain row, then that row with the named cells replaced
    # (a format without those columns reads two plain rows). Each fails once
    # one rule of check_profile_columns is deleted, whatever hypothesis saved.
    @example(data=None, chunk=2048, pinned={"class": "0"})
    @example(data=None, chunk=2048, pinned={"total_funding": "5.0", "currency": ""})
    @example(data=None, chunk=2048, pinned={"total_funding": "-1.0", "currency": "USD"})
    @settings(max_examples=100)
    def test_column_check_reads_what_the_record_reader_reads(self, name, columns, records,
                                                             data, chunk, pinned):
        """A format's column check, or its record reader's check, keeps the rows
        the record's constructor builds, and refuses the rows it refuses, with
        the same errors."""
        fields, check, cells = CELL_FORMATS[columns]
        if pinned is None:
            text = data.draw(csv_texts(fields, cells))
        else:
            plain_row = [plain[-1] for plain, _ in cells]
            row = [pinned.get(field, cell) for (field, _), cell in zip(fields, plain_row)]
            text = "\n".join(",".join(r) for r in ([f for f, _ in fields], plain_row, row))
        with mock.patch.object(fileio, "_CHUNK", chunk):
            got = _read_rows(text, fields, check)
            expected = _read_rows(text, fields, CELL_FORMATS[records][1])
        assert _typed(got) == _typed(expected)

    @pytest.mark.parametrize("cells", [["1.5", "2.5 ", "3.5"], [" 1.5", "2.5", "3.5"],
                                       ["1.5", "2.5", "3.5\t"]])
    def test_padded_number_inside_a_chunk(self, cells):
        """A padded cell anywhere in a chunk's column sends the chunk to the
        row loop, which refuses it on its own line."""
        rows = [f"J1,{2010 + k},{cell}" for k, cell in enumerate(cells)]
        text = "journal,year,impact_factor\n" + "\n".join(rows) + "\n"
        got = _read_rows(text, fileio._JOURNALS, check_journal_columns)
        with mock.patch.object(fileio, "_columnar", _row_loop_only):
            expected = _read_rows(text, fileio._JOURNALS, check_journal_columns)
        line = 2 + next(k for k, cell in enumerate(cells) if cell != cell.strip())
        padded = next(cell for cell in cells if cell != cell.strip())
        assert got == expected == [f"t.csv:{line}: impact_factor: not a number: {padded!r}"]

    def test_bad_cell_in_a_later_chunk_keeps_its_line(self):
        rows = [f"p{i},P1,2010,J1,3,1,1,true" for i in range(10)]
        rows[7] = "p7,P1,20x0,J1,3,1,1,true"
        rows[8] = '"p8",P1,2010,J1,3,4,1,true'
        text = ",".join(fileio.PUBLICATIONS_HEADER) + "\n" + "\n".join(rows) + "\n"
        columnar, read_columns = [], fileio._columnar

        def spy(lines, memos, check):
            columnar.append(read_columns(lines, memos, check))
            return columnar[-1]

        with mock.patch.object(fileio, "_CHUNK", 3), mock.patch.object(fileio, "_columnar", spy):
            errors = _read_rows(text, fileio._PUBLICATIONS, check_publication_columns)
        assert errors == ["t.csv:9: year: not an integer: '20x0'",
                          "t.csv:10: credit_position 4 out of range 1..3"]
        # Rows per columnar chunk: the length of its first value column.
        assert [len(chunk[0]) for chunk in columnar[:-1]] == [3, 3]
        assert columnar[-1] is None

    def test_repeated_text_cells_share_one_string(self):
        rows = [f"p{i},P{i % 2},2010,J1,3,1,1,true" for i in range(9)]
        text = ",".join(fileio.PUBLICATIONS_HEADER) + "\n" + "\n".join(rows) + "\n"
        with mock.patch.object(fileio, "_CHUNK", 4):
            _, pi_ids, _, journals, *_ = _parse_columns(
                "t.csv", io.StringIO(text, newline=""), fileio._PUBLICATIONS,
                check_publication_columns)
        assert len(set(map(id, pi_ids))) == 2
        assert len(set(map(id, journals))) == 1

    def test_text_mostly_distinct_in_each_chunk_still_shares_one_string(self):
        """15 journals in each 16-line chunk: all but one cell is new to the
        chunk, yet each journal is one string across every chunk."""
        journals = [f"J{i}" for i in range(15)] + ["J0"]
        rows = [f"p{i},P1,2010,{journals[i % 16]},3,1,1,true" for i in range(48)]
        text = ",".join(fileio.PUBLICATIONS_HEADER) + "\n" + "\n".join(rows) + "\n"
        with mock.patch.object(fileio, "_CHUNK", 16):
            journals = _parse_columns(
                "t.csv", io.StringIO(text, newline=""), fileio._PUBLICATIONS,
                check_publication_columns)[3]
        assert len(set(map(id, journals))) == 15


class TestOversizedCell:
    limit = csv.field_size_limit()

    @pytest.mark.parametrize("chunk", [1, 4, 4096])
    def test_refused_at_the_line_of_its_row(self, tmp_path, chunk):
        path = tmp_path / "publications.csv"
        rows = [f"p{i},P1,2010,J1,3,1,1,true" for i in range(6)]
        rows[4] = "x" * (self.limit + 1) + ",P1,2010,J1,3,1,1,true"
        path.write_text(",".join(fileio.PUBLICATIONS_HEADER) + "\n" + "\n".join(rows) + "\n")
        with mock.patch.object(fileio, "_CHUNK", chunk), \
                pytest.raises(FileFormatError) as err:
            read_publications(path)
        assert err.value.errors == [
            f"{path}:6: field larger than field limit ({self.limit})"]

    def test_in_the_header(self, tmp_path):
        path = tmp_path / "journals.csv"
        path.write_text("j" * (self.limit + 1) + ",year,impact_factor\nJ1,2010,1.5\n")
        with pytest.raises(FileFormatError) as err:
            read_journals(path)
        assert err.value.errors == [
            f"{path}:1: field larger than field limit ({self.limit})"]

    def test_cell_at_the_limit_is_read(self, tmp_path):
        path = tmp_path / "journals.csv"
        journal = "j" * self.limit
        path.write_text(f"journal,year,impact_factor\n{journal},2010,1.5\n")
        assert read_journals(path) == [JournalYearIF(journal, 2010, 1.5)]


def _per_row_write_csv(path, header, rows, marker=""):
    """The reference writer: every row through csv.writer, which _write_csv must match."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        if marker:
            f.write(marker + "\n")
        sink = SimpleNamespace(write=lambda line: f.write(line[:-2] + "\n"))
        w = csv.writer(sink, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


# Cells csv.writer writes as they are, and cells it writes otherwise: quoted,
# empty (None), refused (NUL before Python 3.11) or through repr (floats).
WRITER_CELLS = (
    st.text(st.sampled_from('ab ,"\r\n\0'), max_size=4)
    | st.sampled_from([",", '"', "\r", "\n", "\r\n", "None", "", "x"])
    | st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320])
)
ROW_KINDS = {"tuple": tuple, "list": list, "generator": lambda cells: (c for c in cells)}


@st.composite
def writer_inputs(draw):
    """A header of 1 to 4 columns and rows of cells as (kind, cells): mostly
    tuples of the header's width, some lists and generators, some shorter or
    longer than the header."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        size = draw(st.sampled_from([width] * 6 + [0, width - 1, width + 1]))
        kind = draw(st.sampled_from(["tuple"] * 4 + ["list", "generator"]))
        rows.append((kind, [draw(WRITER_CELLS) for _ in range(size)]))
    return [f"h{i}" for i in range(width)], rows


def _written(write, header, rows, marker=""):
    """The bytes ``write`` puts in a file, or the error it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "out.csv")
        try:
            write(path, header, [ROW_KINDS[kind](cells) for kind, cells in rows], marker)
        except Exception as exc:  # the same refusal from both writers
            return type(exc), str(exc)
        return path.read_bytes()


class TestWriterMatchesCsvWriter:
    @given(writer_inputs(), st.sampled_from([1, 2, 3, fileio._CHUNK]),
           st.sampled_from(["", "# marker"]))
    @settings(max_examples=300, deadline=None)
    @example((["a"], [("tuple", [""]), ("tuple", [None]), ("list", [""])]), 2, "")
    @example((["a", "b"], [("tuple", [None, ""]), ("tuple", ["None", 1e-320])]), 3, "")
    def test_same_bytes(self, drawn, chunk, marker):
        header, rows = drawn
        with mock.patch.object(fileio, "_CHUNK", chunk):
            got = _written(_write_csv, header, rows, marker)
        assert got == _written(_per_row_write_csv, header, rows, marker)

    def test_a_chunk_holding_a_list_goes_to_csv_writer(self, tmp_path):
        """Every chunk is offered to the formatter, whatever its rows are; the
        one whose first row is a list gets csv.writer's bytes."""
        rows = ([("a", 1)] * fileio._CHUNK + [["b", 2]]
                + [("c", 3)] * (2 * fileio._CHUNK))
        formatted, format_chunk = [], fileio._formatted

        def spy(chunk, template, width):
            formatted.append(len(chunk))
            return format_chunk(chunk, template, width)

        with mock.patch.object(fileio, "_formatted", spy):
            _write_csv(tmp_path / "got.csv", ["x", "y"], iter(rows))
        _per_row_write_csv(tmp_path / "expected.csv", ["x", "y"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert formatted == [fileio._CHUNK] * 3 + [1]

    def test_lone_empty_cell_is_quoted(self, tmp_path):
        path = tmp_path / "one.csv"
        _write_csv(path, ["a"], [("",), (None,), ["x"]])
        assert path.read_text() == 'a\n""\n""\nx\n'

    @pytest.mark.parametrize("bad", [
        ("p", None, 1), ("p", '"q', 1), ("p", "a,b", 1), ("p", "l\nm", 1), ("p", "c\rd", 1),
        ("p", "a\0b", 1), ("p", "q"), ("p", "q", 1, 2), ["p", "q", 1], ("p", "None", 1)])
    def test_odd_row_in_a_later_chunk(self, tmp_path, bad):
        """Two chunks are written as formatted; the third, holding the one odd
        row, gives csv.writer's bytes."""
        rows = [(f"p{i}", "q", i) for i in range(2 * fileio._CHUNK + 5)]
        rows[-3] = bad
        formatted, format_chunk = [], fileio._formatted

        def spy(chunk, template, width):
            text = format_chunk(chunk, template, width)
            formatted.append(text is not None)
            return text

        header = ["a", "b", "c"]
        rows = [(type(r).__name__, r) for r in rows]
        with mock.patch.object(fileio, "_formatted", spy):
            got = _written(_write_csv, header, rows)
        assert got == _written(_per_row_write_csv, header, rows)
        assert formatted == [True, True, False]
