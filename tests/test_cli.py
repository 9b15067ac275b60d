"""End-to-end command-line behavior: exit codes, config files, outputs."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import logging
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex import cli, fileio
from leadindex.analysis import trend
from leadindex.cli import MAX_SPAN_YEARS, _parse_span, main
from leadindex.credit import CreditScenario
from leadindex.errors import DataValidationError
from leadindex.fileio import write_journals, write_profiles, write_publications
from leadindex.metrics import score_all
from leadindex.model import (
    IFFallback,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    ValidatedDataset,
    validate_dataset,
)
from leadindex.stats import significance_mark
from leadindex.toughness import DivisorMode, ToughnessTable


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small synthetic dataset plus a prebuilt toughness table."""
    root = tmp_path_factory.mktemp("cli-data")
    assert main(["synth", "--seed", "7", "--pis", "30",
                 "--out-dir", str(root)]) == 0
    assert main(["toughness-build",
                 "--corpus", str(root / "toughness_corpus.csv"),
                 "--out", str(root / "table.csv")]) == 0
    return root


def dataset_flags(root):
    return ["--publications", str(root / "publications.csv"),
            "--journals", str(root / "journals.csv"),
            "--profiles", str(root / "profiles.csv")]


def command_args(command, root, out):
    """A complete invocation of ``command`` that writes under ``out``."""
    if command == "toughness-build":
        return [command, "--corpus", str(root / "toughness_corpus.csv"),
                "--out", str(out / "table.csv")]
    args = [command, *dataset_flags(root), "--table", str(root / "table.csv"),
            "--out-dir", str(out)]
    if command == "report-trend":
        return [*args, "--span", "2008:2013"]
    args += ["--period", "2008:2013"]
    return [*args, "--grouping", "class"] if command == "report-cohort" else args


def write_inputs(root, dataset_dir, publications, journals, profiles=None):
    """A dataset under ``root`` with the given rows and the shared table.

    Without ``profiles`` the synthetic dataset's profiles are reused.
    """
    root.mkdir(parents=True, exist_ok=True)
    shutil.copy(dataset_dir / "table.csv", root / "table.csv")
    if profiles is None:
        shutil.copy(dataset_dir / "profiles.csv", root / "profiles.csv")
    else:
        write_profiles(root / "profiles.csv", profiles)
    write_publications(root / "publications.csv", publications)
    write_journals(root / "journals.csv", journals)
    return root


class TestExitCodes:
    def test_validate_ok(self, dataset_dir):
        assert main(["validate", *dataset_flags(dataset_dir)]) == 0

    def test_validation_failure_is_1_and_lists_errors(self, dataset_dir, tmp_path, capsys):
        orphan = tmp_path / "pubs.csv"
        orphan.write_text(
            "paper_id,pi_id,year,journal,author_count,credit_position,tie_span,is_corresponding\n"
            "p1,NOBODY,2010,J0001,3,1,1,true\n"
            "p2,GHOST,2010,J0001,3,1,1,true\n"
        )
        code = main(["validate",
                     "--publications", str(orphan),
                     "--journals", str(dataset_dir / "journals.csv"),
                     "--profiles", str(dataset_dir / "profiles.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "NOBODY" in err and "GHOST" in err

    def test_missing_file_is_1(self, dataset_dir, tmp_path):
        code = main(["validate",
                     "--publications", str(tmp_path / "absent.csv"),
                     "--journals", str(dataset_dir / "journals.csv"),
                     "--profiles", str(dataset_dir / "profiles.csv")])
        assert code == 1

    def test_missing_required_option_is_2(self, dataset_dir):
        code = main(["score", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv")])
        assert code == 2  # no --period anywhere

    def test_missing_table_source_is_2(self, dataset_dir):
        code = main(["score", *dataset_flags(dataset_dir),
                     "--period", "2008:2013"])
        assert code == 2

    def test_usage_checked_before_any_file_is_read(self, dataset_dir, tmp_path):
        absent = ["score", "--publications", str(tmp_path / "absent.csv"),
                  "--journals", str(dataset_dir / "journals.csv"),
                  "--profiles", str(dataset_dir / "profiles.csv")]
        # A usage error (2), not the missing file (1).
        assert main([*absent, "--table", str(dataset_dir / "table.csv")]) == 2
        assert main([*absent, "--period", "2008:2013"]) == 2

    def test_cell_over_the_field_size_limit_is_1(self, dataset_dir, tmp_path, capsys):
        pubs = tmp_path / "publications.csv"
        header = (dataset_dir / "publications.csv").read_text().splitlines()[0]
        pubs.write_text(f"{header}\n{'X' * 200_000},P0001,2010,J0001,1,1,1,true\n")
        code = main(["validate", "--publications", str(pubs),
                     "--journals", str(dataset_dir / "journals.csv"),
                     "--profiles", str(dataset_dir / "profiles.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{pubs}:2: field larger than field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, row, error", [
        ("publications", "X1,P0001,2010,J0001,100001,1,1,true",
         "author_count must be <= 100000"),
        pytest.param("journals", f"J0001,{1:05000d},1.5", "year: integer too long: 5000 characters",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no digit limit on int() before Python 3.10.7")),
    ], ids=["author-cap", "5000-digit-year"])
    def test_row_past_a_column_reader_limit_is_1(self, dataset_dir, tmp_path, capsys,
                                                 name, row, error):
        """The column readers the CLI calls refuse the row by file and line,
        with no traceback; the explicit flag overrides the config file's path."""
        bad = tmp_path / f"{name}.csv"
        header = (dataset_dir / f"{name}.csv").read_text().split("\n", 1)[0]
        bad.write_text(f"{header}\n{row}\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: str(dataset_dir / f"{key}.csv")
                                      for key in ("publications", "journals", "profiles")}))
        assert main(["validate", "--config", str(config), f"--{name}", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2: {error}" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [bad, config]

    @pytest.mark.parametrize("citations, impact", [("5", "2.5e-308"), ("1" * 400, "2.5")],
                             ids=["quotient-inf", "citations-past-float"])
    def test_paper_count_out_of_float_range_is_1(self, tmp_path, capsys, citations, impact):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("journal,year,total_citations,impact_factor\n"
                          f"J1,2010,{citations},{impact}\n")
        code = main(["toughness-build", "--corpus", str(corpus), "--levels", "1",
                     "--out", str(tmp_path / "table.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: J1 (2010): paper count" in err
        assert "Traceback" not in err
        assert not (tmp_path / "table.csv").exists()

    def test_table_with_a_nonzero_bottom_floor_is_1(self, dataset_dir, tmp_path, capsys):
        table = tmp_path / "table.csv"
        text = (dataset_dir / "table.csv").read_text()
        assert text.endswith("\n1,0.0\n")
        table.write_text(text.removesuffix("0.0\n") + "3.0\n")
        out = tmp_path / "out"
        code = main(["score", *dataset_flags(dataset_dir), "--table", str(table),
                     "--period", "2008:2013", "--out-dir", str(out)])
        assert code == 1
        assert f"{table}: bottom min_if must be 0, got 3.0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_impact_factor_row_is_named_and_counts_no_paper(self, dataset_dir, tmp_path):
        """One corpus row of IF 0 warns once, naming the row as journal (year),
        and builds the table the corpus without it builds. stderr is read from
        a fresh process, as a user sees it."""
        lines = (dataset_dir / "toughness_corpus.csv").read_text().splitlines(keepends=True)
        with_zero = tmp_path / "with_zero.csv"
        with_zero.write_text("".join([*lines[:5], "JZ,2011,500,0.0\n", *lines[5:]]))
        tables = {}
        for corpus in (dataset_dir / "toughness_corpus.csv", with_zero):
            tables[corpus] = tmp_path / f"table_{corpus.stem}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "leadindex.cli", "toughness-build",
                 "--corpus", str(corpus), "--out", str(tables[corpus])],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if "zero impact factor" in line]
        assert warned == ["JZ (2011): zero impact factor, cannot estimate paper count"]
        first, second = tables.values()
        assert first.read_bytes() == second.read_bytes()

    def test_step_too_small_for_a_sample_is_1(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*command_args("report-bins", dataset_dir, out), "--step", "5e-324"]) == 1
        err = capsys.readouterr().err
        assert "error: step 5e-324 is too small for T " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_table_marked_zero_levels_is_1(self, dataset_dir, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("# toughness-table v=1 levels=0 divisor_mode=geometric_sum "
                         "base_count=5 total_papers=5 level_sizes=5\nweight,min_if\n")
        out = tmp_path / "out"
        assert main([*command_args("score", dataset_dir, out), "--table", str(table)]) == 1
        assert f"{table}: weights must run 0..1, got []" in capsys.readouterr().err
        assert not out.exists()

    def test_table_metadata_past_its_rows_is_1(self, dataset_dir, tmp_path, capsys):
        # Three valid rows, but 5 papers cannot fill 3 levels, the sizes sum
        # to 3 and the base count is no mode's: the log would state "3 levels
        # over 5 papers", which the file cannot back.
        table = tmp_path / "table.csv"
        table.write_text("# toughness-table v=1 levels=3 divisor_mode=geometric_sum "
                         "base_count=999 total_papers=5 level_sizes=1|1|1\n"
                         "weight,min_if\n3,5.0\n2,2.0\n1,0.0\n")
        out = tmp_path / "out"
        assert main([*command_args("score", dataset_dir, out), "--table", str(table)]) == 1
        assert f"{table}: bad table metadata: " in capsys.readouterr().err
        assert not out.exists()

    def test_table_marker_integer_past_the_csv_rule_is_1(self, dataset_dir, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("# toughness-table v=1 levels=0_3 divisor_mode=geometric_sum "
                         "base_count=1 total_papers=7 level_sizes=1|2|4\n"
                         "weight,min_if\n3,5.0\n2,2.0\n1,0.0\n")
        out = tmp_path / "out"
        assert main([*command_args("score", dataset_dir, out), "--table", str(table)]) == 1
        err = capsys.readouterr().err
        assert f"{table}: bad table metadata: levels: not an integer: '0_3'" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra,error", [
        ("levels=2", "repeated key 'levels'"), ("garbage", "unknown token 'garbage'")])
    def test_table_marker_repeated_key_or_unknown_token_is_1(
            self, dataset_dir, tmp_path, capsys, extra, error):
        # Without either extra token the file is a valid 3-level table.
        table = tmp_path / "table.csv"
        table.write_text(f"# toughness-table v=1 levels=3 divisor_mode=geometric_sum {extra} "
                         "base_count=1 total_papers=7 level_sizes=1|2|4\n"
                         "weight,min_if\n3,5.0\n2,2.0\n1,0.0\n")
        out = tmp_path / "out"
        assert main([*command_args("score", dataset_dir, out), "--table", str(table)]) == 1
        assert f"{table}: bad table metadata: {error}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_toughness_build_takes_no_table(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["toughness-build", "--table", str(dataset_dir / "table.csv"),
                  "--corpus", str(dataset_dir / "toughness_corpus.csv"),
                  "--out", str(tmp_path / "table.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--step", "inf"], ["--step", "nan"], ["--step", "0"], ["--step", "-0.5"],
        ["--max-t", "nan"], ["--exclude-t", "nan"], ["--exclude-t", "1.5,inf"],
    ], ids=" ".join)
    def test_bad_bin_option_is_2_before_any_work(self, dataset_dir, tmp_path, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command_args("report-bins", dataset_dir, out), *flags])
        assert exc.value.code == 2
        assert not out.exists()

    def test_bad_enum_choice_is_2(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            main(["report-cohort", *dataset_flags(dataset_dir),
                  "--table", str(dataset_dir / "table.csv"),
                  "--period", "2008:2013", "--grouping", "shoe_size"])
        assert exc.value.code == 2

    def test_malformed_period_is_2(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            main(["score", *dataset_flags(dataset_dir),
                  "--table", str(dataset_dir / "table.csv"),
                  "--period", "2008-2013"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("span", ["2013:2008", "0:1000000000", "1000:2000"])
    @pytest.mark.parametrize("command, flag", [
        ("score", "--period"), ("report-trend", "--span"), ("synth", "--years"),
    ])
    def test_reversed_or_too_wide_span_is_2_before_any_file_is_read(
            self, dataset_dir, tmp_path, command, flag, span):
        out = tmp_path / "out"
        if command == "synth":
            args = ["synth", "--out-dir", str(out)]
        else:  # an absent input would exit 1 if it were read
            args = [*command_args(command, dataset_dir, out),
                    "--publications", str(tmp_path / "absent.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*args, flag, span])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("toughness-build", ["--levels", "0"]),
        ("toughness-build", ["--levels", "-3"]),
        ("report-trend", ["--tier", "0"]),
        ("report-trend", ["--tier", "9"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_levels_below_one_or_unknown_tier_is_2_before_any_file_is_read(
            self, dataset_dir, tmp_path, command, flags):
        out = tmp_path / "out"
        absent = tmp_path / "absent.csv"  # would exit 1 if it were read
        source = "--corpus" if command == "toughness-build" else "--publications"
        with pytest.raises(SystemExit) as exc:
            main([*command_args(command, dataset_dir, out), source, str(absent), *flags])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--papers-mean", "800"], ["--papers-mean", "inf"], ["--papers-mean", "nan"],
        ["--papers-mean", "-1"], ["--pis", "-1"], ["--journal-count", "-1"],
    ], ids=" ".join)
    def test_synth_size_out_of_range_is_2_before_anything_is_written(self, tmp_path, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", str(out), *flags])
        assert exc.value.code == 2
        assert not out.exists()

    def test_span_from_config_is_bounded_too(self, dataset_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"span": [2013, 2008]}))
        out = tmp_path / "out"
        assert main(["report-trend", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--out-dir", str(out), "--config", str(config)]) == 2
        assert not out.exists()

    def test_span_bounds_are_inclusive(self):
        assert _parse_span("2010:2010", "span") == (2010, 2010)
        assert _parse_span(f"1:{MAX_SPAN_YEARS}", "span") == (1, MAX_SPAN_YEARS)
        assert _parse_span([-5, MAX_SPAN_YEARS - 6], "span") == (-5, MAX_SPAN_YEARS - 6)

    def test_jobs_flag_and_config_key_are_2(self, dataset_dir, tmp_path):
        score = ["score", *dataset_flags(dataset_dir),
                 "--table", str(dataset_dir / "table.csv"),
                 "--period", "2008:2013", "--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*score, "--jobs", "2"])
        assert exc.value.code == 2
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"jobs": 2}))
        assert main([*score, "--config", str(config)]) == 2
        assert main(score) == 0

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("validate", "toughness-build", "score", "report-cohort",
                        "report-trend", "report-bins", "correlate", "synth"):
            assert command in out


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("case, code", [
        ("passes", 0), ("missing-file", 1), ("missing-option", 2), ("bad-flag", 2),
    ])
    def test_main_restores_the_callers_setting(self, dataset_dir, tmp_path,
                                               enabled, case, code):
        args = {
            "passes": ["validate", *dataset_flags(dataset_dir)],
            "missing-file": ["validate", *dataset_flags(dataset_dir),
                             "--publications", str(tmp_path / "absent.csv")],
            "missing-option": ["validate"],
            "bad-flag": ["validate", "--bogus"],  # argparse raises SystemExit
        }[case]
        prior = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                got = main(args)
            except SystemExit as exc:
                got = exc.code
            after = gc.isenabled()
        finally:
            (gc.enable if prior else gc.disable)()
        assert got == code
        assert after is enabled


class TestScore:
    def test_writes_scorecards(self, dataset_dir, tmp_path):
        code = main(["score", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "scorecards.csv").open()))
        assert len(rows) == 30
        assert [r["pi_id"] for r in rows] == sorted(r["pi_id"] for r in rows)

    def test_grants_flag_fills_l_fund(self, dataset_dir, tmp_path):
        common = ["score", *dataset_flags(dataset_dir),
                  "--table", str(dataset_dir / "table.csv"),
                  "--period", "2008:2013"]
        assert main([*common, "--out-dir", str(tmp_path / "plain")]) == 0
        assert main([*common, "--grants", str(dataset_dir / "grants.csv"),
                     "--out-dir", str(tmp_path / "funded")]) == 0
        plain = list(csv.DictReader((tmp_path / "plain" / "scorecards.csv").open()))
        funded = list(csv.DictReader((tmp_path / "funded" / "scorecards.csv").open()))
        assert all(r["l_fund"] == "" for r in plain)
        assert any(r["l_fund"] != "" for r in funded)

    def test_grants_without_a_profile_are_noted_and_ignored(
            self, dataset_dir, tmp_path, caplog):
        """A grants row for an investigator with no profile changes no report,
        and one note after the profiles line counts such investigators."""
        caplog.set_level(logging.INFO, logger="leadindex")
        grants = dataset_dir / "grants.csv"
        extra = tmp_path / "grants.csv"
        extra.write_text(grants.read_text() + "PX,2010,5.0,USD\n")
        common = ["score", *dataset_flags(dataset_dir),
                  "--table", str(dataset_dir / "table.csv"), "--period", "2008:2013"]
        note = "note: 1 investigator(s) in grants have no profile; their grants are ignored"
        messages = []
        for name, path in (("plain", grants), ("extra", extra)):
            caplog.clear()
            assert main([*common, "--grants", str(path),
                         "--out-dir", str(tmp_path / name)]) == 0
            messages.append([m for m in caplog.messages if not m.startswith("wrote ")])
        plain, with_extra = messages
        assert note not in plain
        k = [m.startswith("profiles:") for m in with_extra].index(True)
        assert with_extra == [*plain[:k + 1], note, *plain[k + 1:]]
        assert (tmp_path / "plain" / "scorecards.csv").read_bytes() == \
            (tmp_path / "extra" / "scorecards.csv").read_bytes()

    def test_table_built_from_corpus_matches_prebuilt(self, dataset_dir, tmp_path):
        base = ["score", *dataset_flags(dataset_dir), "--period", "2008:2013"]
        assert main([*base, "--table", str(dataset_dir / "table.csv"),
                     "--out-dir", str(tmp_path / "a")]) == 0
        assert main([*base, "--corpus", str(dataset_dir / "toughness_corpus.csv"),
                     "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "scorecards.csv").read_bytes() == \
            (tmp_path / "b" / "scorecards.csv").read_bytes()

    def test_json_format(self, dataset_dir, tmp_path):
        code = main(["score", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--format", "json",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "scorecards.json").read_text())
        assert len(data) == 30

    @pytest.mark.parametrize("papers", [1, 2])
    def test_non_finite_metrics_are_1_naming_the_investigator(
            self, dataset_dir, tmp_path, capsys, papers):
        """One paper at IF 1e308 weighs inf; two overflow the output sum itself."""
        root = write_inputs(tmp_path / "data", dataset_dir, [
            *(PublicationRecord(f"p{i}", "P0002", 2010, "JBIG", 2, 1) for i in range(papers)),
            PublicationRecord("q1", "P0003", 2010, "JA", 1, 1),
        ], [JournalYearIF("JBIG", 2010, 1e308), JournalYearIF("JA", 2010, 2.0)])
        for command in ("score", "report-trend"):
            out = tmp_path / command
            assert main(command_args(command, root, out)) == 1
            err = capsys.readouterr().err
            assert "error: investigator P0002: non-finite metric in " in err
            assert "Traceback" not in err
            assert not out.exists() or not any(out.iterdir())

    def test_leadership_finite_where_o_times_e_is_not(self, dataset_dir, tmp_path):
        """A sole author at IF 1e300: O*E passes the float range, L = O does not."""
        root = write_inputs(tmp_path / "data", dataset_dir,
                            [PublicationRecord("p1", "P0002", 2010, "JBIG", 1, 1)],
                            [JournalYearIF("JBIG", 2010, 1e300)])
        assert main(command_args("score", root, tmp_path / "out")) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "scorecards.csv").open()))
        card = next(r for r in rows if r["pi_id"] == "P0002")
        assert card["t_equiv"] == "1"
        assert card["leadership"] == card["o_weighted"] != ""

    @pytest.mark.parametrize("command, window", [("score", "--period"),
                                                 ("report-trend", "--span")])
    def test_subnormal_impact_factor_is_1_not_a_wrong_t(self, tmp_path, capsys,
                                                        command, window):
        """Two 3-author papers give T = 18/11 at any IF; at IF 5e-324 the
        quotients would round to the subnormal grid and T read 2.0, so the
        cell is refused where it is read."""
        files = {
            "journals": ["journal,year,impact_factor", "J,2000,{if_}"],
            "profiles": [",".join(fileio.PROFILES_HEADER), "P,US,1,,,,,"],
            "publications": [",".join(fileio.PUBLICATIONS_HEADER),
                             "A,P,2000,J,3,1,1,true", "B,P,2000,J,3,1,1,true"],
            "corpus": ["journal,year,total_citations,impact_factor", "C1,2000,10,1.0",
                       "C2,2000,100,2.0", "C3,2000,1000,3.0"],
        }
        codes = {}
        for if_ in ("1e-10", "5e-324"):
            root = tmp_path / if_
            root.mkdir()
            for name, lines in files.items():
                (root / f"{name}.csv").write_text("\n".join(lines).format(if_=if_) + "\n")
            out = root / "out"
            codes[if_] = main([command, *dataset_flags(root), "--corpus",
                               str(root / "corpus.csv"), "--levels", "2", window,
                               "2000:2000", "--format", "json", "--out-dir", str(out)])
            if if_ == "1e-10":
                data = json.loads(next(out.glob("*.json")).read_text())
                [t] = [row["t_equiv"] for row in data]
                assert t == round(18 / 11, 5)  # reports keep six significant digits
        assert codes == {"1e-10": 0, "5e-324": 1}
        err = capsys.readouterr().err
        journals = tmp_path / "5e-324" / "journals.csv"
        assert f"{journals}:2: impact_factor: below the normal float range: '5e-324'" in err
        out = tmp_path / "5e-324" / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_all_zero_impact_is_1_naming_the_investigator(self, dataset_dir, tmp_path, capsys):
        root = write_inputs(tmp_path / "data", dataset_dir, [
            PublicationRecord("p1", "P0002", 2010, "JZERO", 3, 1),
            PublicationRecord("q1", "P0003", 2010, "JA", 1, 1),
        ], [JournalYearIF("JZERO", 2010, 0.0), JournalYearIF("JA", 2010, 2.0)])
        for command, period in (("score", "2008-2013"), ("report-trend", "2010-2010")):
            out = tmp_path / command
            assert main(command_args(command, root, out)) == 1
            err = capsys.readouterr().err
            assert (f"error: investigator P0002: equivalent time undefined in {period}: "
                    "no paper with positive value") in err
            assert "Traceback" not in err
            assert not out.exists() or not any(out.iterdir())


class TestLoadOrder:
    """A scoring command reads its table source, then grants, journals,
    profiles and publications, so each input is reduced before the next,
    larger one is read."""

    READERS = ("read_corpus_columns", "read_toughness_table", "read_grant_columns",
               "read_journal_columns", "read_profiles", "read_publication_columns")

    @pytest.fixture
    def reads(self, monkeypatch):
        """The names of the fileio readers called, in call order."""
        calls = []
        for name in self.READERS:
            def recording(path, _read=getattr(fileio, name), _name=name):
                calls.append(_name)
                return _read(path)
            monkeypatch.setattr(fileio, name, recording)
        return calls

    @pytest.mark.parametrize("source, path, reader", [
        ("--corpus", "toughness_corpus.csv", "read_corpus_columns"),
        ("--table", "table.csv", "read_toughness_table"),
    ], ids=["corpus", "table"])
    def test_table_source_then_grants_journals_profiles_publications(
            self, dataset_dir, tmp_path, reads, caplog, source, path, reader):
        caplog.set_level(logging.INFO, logger="leadindex")
        assert main(["score", *dataset_flags(dataset_dir), source, str(dataset_dir / path),
                     "--grants", str(dataset_dir / "grants.csv"),
                     "--period", "2008:2013", "--out-dir", str(tmp_path)]) == 0
        assert reads == [reader, "read_grant_columns", "read_journal_columns",
                         "read_profiles", "read_publication_columns"]
        heads = [m.split(":")[0] for m in caplog.messages]
        assert heads.index("toughness table") < heads.index("publications") \
            < heads.index("profiles")

    def test_bad_corpus_fails_before_publications_are_read(
            self, dataset_dir, tmp_path, reads, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("journal,year,total_citations,impact_factor\n"
                          "J1,2010,-5,1.0\n")
        publications = tmp_path / "publications.csv"
        header = (dataset_dir / "publications.csv").read_text().splitlines()[0]
        publications.write_text(f"{header}\nX1,P0001,notayear,J0001,1,1,1,true\n")
        assert main(["score", "--publications", str(publications),
                     "--journals", str(dataset_dir / "journals.csv"),
                     "--profiles", str(dataset_dir / "profiles.csv"),
                     "--corpus", str(corpus), "--period", "2008:2013",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{corpus}:2: total_citations" in err
        assert str(publications) not in err
        assert reads == ["read_corpus_columns"]


class TestPublicationColumns:
    """The CLI carries the publications as the columns fileio reads."""

    def test_scoring_commands_build_no_record(self, dataset_dir, tmp_path, monkeypatch):
        views, constructed = [], []
        monkeypatch.setattr(ValidatedDataset, "publications",
                            property(lambda dataset: views.append(dataset)))
        record_new = PublicationRecord.__new__

        def counted(cls, *args, **kwargs):
            constructed.append(args)
            return record_new(cls, *args, **kwargs)

        monkeypatch.setattr(PublicationRecord, "__new__", counted)
        for command in ("score", "report-trend"):
            out = tmp_path / command
            assert main(command_args(command, dataset_dir, out)) == 0
            assert any(out.iterdir())
        assert views == []
        assert constructed == []


@st.composite
def valid_datasets(draw):
    """Up to 14 papers over three investigators and three journals, each
    journal with a positive IF in 2010 and in some later years; some
    paper_ids and a journal name hold a comma, so the writer quotes them
    and their chunks go through the row loop."""
    pis = ["P1", "P2", "P3"]
    names = ["J1", "J,2", "J3"]
    journals = [JournalYearIF(j, year, draw(st.floats(min_value=0.5, max_value=50.0)))
                for j in names for year in (2010, 2011, 2012)
                if year == 2010 or draw(st.booleans())]
    papers = []
    for k in range(draw(st.integers(min_value=0, max_value=14))):
        n = draw(st.integers(min_value=1, max_value=6))
        i = draw(st.integers(min_value=1, max_value=n))
        papers.append(PublicationRecord(
            draw(st.sampled_from([f"p{k}", f"p,{k}"])), draw(st.sampled_from(pis)),
            draw(st.integers(min_value=2010, max_value=2012)), draw(st.sampled_from(names)),
            n, i, draw(st.integers(min_value=1, max_value=n - i + 1)), draw(st.booleans())))
    profiles = [InvestigatorProfile(pid, "CN", 1) for pid in pis]
    return papers, journals, profiles


class TestTwoEntryPaths:
    """The CLI's columns and validate_dataset over the records read from the
    same files give the same dataset, the same errors and the same scores."""

    table = ToughnessTable(cutoffs=(3.0,), divisor_mode=DivisorMode.GEOMETRIC_SUM,
                           level_sizes=(1, 2))

    @staticmethod
    def _loaded(load):
        try:
            return load()
        except DataValidationError as exc:
            return exc.errors

    @given(valid_datasets(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_same_dataset_and_scores(self, drawn, chunk):
        papers, journals, profiles = drawn
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_publications(root / "publications.csv", papers)
            write_journals(root / "journals.csv", journals)
            write_profiles(root / "profiles.csv", profiles)
            for fallback in IFFallback:
                args = cli.build_parser().parse_args([
                    "validate", *dataset_flags(root), "--if-fallback", fallback.value])
                with mock.patch.object(fileio, "_CHUNK", chunk):
                    got = self._loaded(lambda: cli._load_dataset(args))
                    expected = self._loaded(lambda: validate_dataset(
                        fileio.read_publications(root / "publications.csv"),
                        journals, profiles, fallback))
                if isinstance(expected, list):
                    assert got == expected
                    continue
                assert got.publications == expected.publications == tuple(papers)
                assert [(k, repr(v)) for k, v in got.resolved_if.items()] == [
                    (k, repr(v)) for k, v in expected.resolved_if.items()]
                assert got._by_pi == expected._by_pi
                assert got.warnings == expected.warnings
                for scenario in CreditScenario:
                    assert score_all(got, (2010, 2012), self.table, scenario) == score_all(
                        expected, (2010, 2012), self.table, scenario)
                    assert trend(got, self.table, (2010, 2012), scenario) == trend(
                        expected, self.table, (2010, 2012), scenario)


class TestConfigFile:
    def test_options_can_come_from_config(self, dataset_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "publications": str(dataset_dir / "publications.csv"),
            "journals": str(dataset_dir / "journals.csv"),
            "profiles": str(dataset_dir / "profiles.csv"),
            "table": str(dataset_dir / "table.csv"),
            "period": "2008:2013",
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["score", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "scorecards.csv").exists()

    def test_explicit_flag_beats_config(self, dataset_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "publications": str(dataset_dir / "publications.csv"),
            "journals": str(dataset_dir / "journals.csv"),
            "profiles": str(dataset_dir / "profiles.csv"),
            "table": str(dataset_dir / "table.csv"),
            "period": "2008:2009",
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["score", "--config", str(config),
                     "--period", "2008:2013"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "scorecards.csv").open()))
        assert rows[0]["period_end"] == "2013"

    def test_unknown_config_key_is_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"perriod": "2008:2013"}))
        assert main(["validate", "--config", str(config)]) == 2

    def test_config_not_an_object_is_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]")
        assert main(["validate", "--config", str(config)]) == 2

    def test_config_bad_json_is_1(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{nope")
        assert main(["validate", "--config", str(config)]) == 1

    @pytest.mark.parametrize("command, key, value, flags", [
        ("report-trend", "tier", "1", ["--tier", "1"]),
        ("report-cohort", "reference_group", 1, ["--reference-group", "1"]),
        ("report-bins", "step", "0.25", ["--step", "0.25"]),
        ("toughness-build", "levels", True, None),
        ("toughness-build", "levels", 2.5, None),
        ("toughness-build", "levels", 0, None),
        ("report-trend", "tier", 9, None),
        ("score", "format", "xml", None),
        ("report-bins", "max_t", "x", None),
        ("score", "scenario", "bogus", None),
    ])
    def test_value_is_read_as_its_flag_reads_it(self, dataset_dir, tmp_path,
                                                command, key, value, flags):
        """A config value matches the same flag's run byte for byte, or, when
        the flag would refuse it, exits 2 before writing anything."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        from_config = tmp_path / "config"
        code = main([*command_args(command, dataset_dir, from_config),
                     "--config", str(config)])
        if flags is None:
            assert code == 2
            assert not from_config.exists()
            return
        assert code == 0
        from_flags = tmp_path / "flags"
        assert main([*command_args(command, dataset_dir, from_flags), *flags]) == 0
        names = sorted(p.name for p in from_flags.iterdir())
        assert sorted(p.name for p in from_config.iterdir()) == names
        for name in names:
            assert (from_config / name).read_bytes() == (from_flags / name).read_bytes()

    def test_exclude_t_list_acts_like_the_flag(self, dataset_dir, tmp_path):
        # P0002 is a sole author, so its T is exactly 1.
        root = write_inputs(tmp_path / "data", dataset_dir, [
            PublicationRecord("p1", "P0002", 2010, "JA", 1, 1),
            PublicationRecord("p2", "P0003", 2010, "JA", 3, 1),
        ], [JournalYearIF("JA", 2010, 2.0)])
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exclude_t": [1, 2.5]}))
        runs = {}
        for name, extra in (("config", ["--config", str(config)]),
                            ("flags", ["--exclude-t", "1,2.5"])):
            out = tmp_path / name
            assert main([*command_args("report-bins", root, out), *extra]) == 0
            runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs["config"] == runs["flags"]
        assert runs["flags"]["bins_excluded.csv"].count(b"in exclusion list") == 1

    def test_list_for_an_untyped_option_is_2(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"country": ["CN"]}))
        out = tmp_path / "out"
        assert main([*command_args("report-trend", dataset_dir, out),
                     "--config", str(config)]) == 2
        assert "config key country: expected one value" in capsys.readouterr().err
        assert not out.exists()


class TestCommandTable:
    # Every flag of each subcommand, in --help order.
    FLAGS = {
        "validate": "--publications --journals --profiles --grants --if-fallback --config",
        "toughness-build": "--corpus --levels --divisor-mode --out --config",
        "score": "--publications --journals --profiles --grants --if-fallback --table "
                 "--corpus --levels --divisor-mode --period --scenario --out-dir --format "
                 "--config",
        "report-cohort": "--publications --journals --profiles --grants --if-fallback "
                         "--table --corpus --levels --divisor-mode --period --scenario "
                         "--grouping --reference-group --age-reference-year --out-dir "
                         "--format --config",
        "report-trend": "--publications --journals --profiles --grants --if-fallback "
                        "--table --corpus --levels --divisor-mode --span --scenario "
                        "--country --tier --out-dir --format --config",
        "report-bins": "--publications --journals --profiles --grants --if-fallback "
                       "--table --corpus --levels --divisor-mode --period --scenario "
                       "--step --max-t --exclude-t --out-dir --format --config",
        "correlate": "--publications --journals --profiles --grants --if-fallback "
                     "--table --corpus --levels --divisor-mode --period --scenario "
                     "--country --out-dir --format --config",
        "synth": "--seed --pis --journal-count --years --papers-mean --out-dir --config",
    }

    def test_subcommands_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == list(self.FLAGS)

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flags_of_each_subcommand(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert flags == self.FLAGS[command].split()

    @pytest.mark.parametrize("args, missing", [
        (["validate"], "--publications is required"),
        (["validate", "--publications", "p.csv", "--journals", "j.csv"],
         "--profiles is required"),
        (["toughness-build"], "--corpus is required"),
        (["toughness-build", "--corpus", "c.csv"], "--out is required"),
        (["score", "--corpus", "c.csv"], "--period is required"),
        (["report-cohort", "--period", "2008:2013"], "--grouping is required"),
        (["report-trend"], "--span is required"),
        (["report-bins", "--period", "2008:2013", "--publications", "p.csv"],
         "need --table or --corpus"),
        (["correlate", "--period", "2008:2013", "--table", "t.csv"],
         "--publications is required"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_missing_options_named_in_order_before_any_file_is_read(
            self, tmp_path, monkeypatch, capsys, args, missing):
        monkeypatch.chdir(tmp_path)  # no input file exists; reports would land here
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {missing} (flag or config file)\n"
        assert not any(tmp_path.iterdir())

    def test_one_config_file_serves_several_subcommands(self, dataset_dir, tmp_path):
        """Each subcommand takes its own keys from one file and ignores the others'."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "publications": str(dataset_dir / "publications.csv"),
            "journals": str(dataset_dir / "journals.csv"),
            "profiles": str(dataset_dir / "profiles.csv"),
            "corpus": str(dataset_dir / "toughness_corpus.csv"),
            "period": "2008:2013",
            "span": [2009, 2012],
            "grouping": "class",
            "step": 0.25,
            "levels": 8,
            "out": str(tmp_path / "table.csv"),
            "out_dir": str(tmp_path / "out"),
        }))
        written = {
            "validate": None,
            "score": "scorecards.csv",
            "report-trend": "trend.csv",
            "report-cohort": "cohort_class.csv",
            "report-bins": "bins.csv",
            "toughness-build": None,
        }
        for command, name in written.items():
            assert main([command, "--config", str(config)]) == 0, command
            if name is not None:
                assert (tmp_path / "out" / name).exists(), command
        assert (tmp_path / "table.csv").exists()
        trend_rows = list(csv.DictReader((tmp_path / "out" / "trend.csv").open()))
        assert [r["year"] for r in trend_rows] == ["2009", "2010", "2011", "2012"]


class TestReports:
    def test_cohort_partitions_scored_investigators(self, dataset_dir, tmp_path):
        code = main(["report-cohort", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--grouping", "class",
                     "--reference-group", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "cohort_class.csv").open()))
        groups = {r["group"] for r in rows}
        assert groups <= {"1", "2", "3"}
        for group in groups:
            assert sum(1 for r in rows if r["group"] == group) == 6
        # Every class holds two or more investigators, so each other class's
        # row carries a p in [0, 1] and the mark significance_mark gives for
        # it; some of them are marked, so a constant mark cannot pass.
        compared = [r for r in rows if r["group"] != "1"]
        assert compared
        for row in compared:
            assert 0 <= float(row["p"]) <= 1, row
            assert row["mark"] == significance_mark(float(row["p"])), row
        assert any(row["mark"] for row in compared)

    def test_trend_covers_whole_span(self, dataset_dir, tmp_path):
        code = main(["report-trend", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--span", "2008:2013", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "trend.csv").open()))
        assert [r["year"] for r in rows] == [str(y) for y in range(2008, 2014)]
        # A span wider than the synth years (2008-2013): the years outside
        # carry n 0 and null metrics, the years inside their cohort means.
        wide = tmp_path / "wide"
        code = main(["report-trend", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--span", "2005:2015", "--format", "json", "--out-dir", str(wide)])
        assert code == 0
        points = {p["year"]: p for p in json.loads((wide / "trend.json").read_text())}
        assert list(points) == list(range(2005, 2016))
        metrics = ("leadership", "o_weighted", "efficiency", "t_equiv")
        for year in (2005, 2015):
            assert points[year]["n"] == 0, points[year]
            assert all(points[year][m] is None for m in metrics), points[year]
        assert points[2008]["n"] > 0, points[2008]

    def test_bins_with_exclusions(self, dataset_dir, tmp_path):
        code = main(["report-bins", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--step", "0.5",
                     "--max-t", "20", "--out-dir", str(tmp_path)])
        assert code == 0
        assert list(csv.DictReader((tmp_path / "bins.csv").open()))
        assert (tmp_path / "bins_excluded.csv").exists()
        assert (tmp_path / "bins.tsv").exists()

    def test_correlate_single_country(self, dataset_dir, tmp_path):
        code = main(["correlate", *dataset_flags(dataset_dir),
                     "--grants", str(dataset_dir / "grants.csv"),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--country", "CN",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "correlations.csv").open()))
        assert rows[0]["group"] == "overall"
        assert (tmp_path / "funding_scatter.tsv").exists()

    def test_cohort_of_squares_beyond_float_range(self, dataset_dir, tmp_path):
        """Class 1: one last-of-100 author at IF 1e155 and one ordinary investigator."""
        root = write_inputs(tmp_path / "data", dataset_dir, [
            PublicationRecord("p1", "P1", 2010, "JBIG", 100, 100),
            PublicationRecord("p2", "P2", 2010, "JA", 2, 1),
            PublicationRecord("p3", "P3", 2010, "JA", 1, 1),
            PublicationRecord("p4", "P4", 2010, "JA", 3, 1),
        ], [JournalYearIF("JBIG", 2010, 1e155), JournalYearIF("JA", 2010, 2.0)],
            [InvestigatorProfile("P1", "CN", 1), InvestigatorProfile("P2", "CN", 1),
             InvestigatorProfile("P3", "CN", 2), InvestigatorProfile("P4", "CN", 2)])
        out = tmp_path / "out"
        assert main([*command_args("report-cohort", root, out), "--reference-group", "2"]) == 0
        rows = list(csv.DictReader((out / "cohort_class.csv").open()))
        assert {r["group"] for r in rows} == {"1", "2"}
        for row in rows:
            assert all(math.isfinite(float(row[c])) for c in ("mean", "sd") if row[c])
        lead = next(r for r in rows if r["group"] == "1" and r["metric"] == "leadership")
        assert float(lead["p"]) <= 1.0

    def test_constant_groups_give_a_note_not_a_python_warning(self, dataset_dir, tmp_path):
        """Two sole authors per class, class 1 in JA and class 2 in JB: every
        metric is constant within a class, and four of them differ between
        the classes. stderr is read from a fresh process, as a user sees it."""
        root = write_inputs(tmp_path / "data", dataset_dir, [
            PublicationRecord(f"p{i}", f"P{i}", 2010, "JA" if i < 3 else "JB", 1, 1)
            for i in range(1, 5)
        ], [JournalYearIF("JA", 2010, 2.0), JournalYearIF("JB", 2010, 3.0)],
            [InvestigatorProfile(f"P{i}", "CN", 1 if i < 3 else 2) for i in range(1, 5)])
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "leadindex.cli",
             *command_args("report-cohort", root, out), "--reference-group", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert ("note: 4 comparison(s) of constant groups with different means "
                "took p = 0 by convention\n") in proc.stderr
        assert "UserWarning" not in proc.stderr
        assert ".py:" not in proc.stderr
        rows = list(csv.DictReader((out / "cohort_class.csv").open()))
        compared = {r["metric"]: (r["p"], r["mark"]) for r in rows if r["group"] == "2"}
        assert sorted(compared.values()) == [("0", "**")] * 4 + [("1", "")] * 2

    def test_means_of_sums_beyond_float_range(self, dataset_dir, tmp_path, capsys):
        """Two sole authors at IF 1.5e307: each card is finite, their sum is not."""
        root = write_inputs(tmp_path / "data", dataset_dir, [
            PublicationRecord("p1", "P0002", 2010, "JBIG", 1, 1),
            PublicationRecord("p2", "P0003", 2010, "JBIG", 1, 1),
        ], [JournalYearIF("JBIG", 2010, 1.5e307)])
        for command, flag in (("report-trend", "--span"), ("report-bins", "--period")):
            out = tmp_path / command
            assert main([*command_args(command, root, out), flag, "2010:2010"]) == 0
            assert "Traceback" not in capsys.readouterr().err
            for path in out.iterdir():
                assert not NON_FINITE.search(path.read_text()), path.name
        (year,) = csv.DictReader((tmp_path / "report-trend" / "trend.csv").open())
        assert year["n"] == "2"
        assert float(year["leadership"]) == pytest.approx(1.5e308)
        (bin_,) = csv.DictReader((tmp_path / "report-bins" / "bins.csv").open())
        assert float(bin_["mean_leadership"]) == pytest.approx(1.5e308)

    def test_correlate_mixed_currencies_is_1(self, dataset_dir, tmp_path):
        code = main(["correlate", *dataset_flags(dataset_dir),
                     "--grants", str(dataset_dir / "grants.csv"),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--out-dir", str(tmp_path)])
        assert code == 1  # CN and US funding cannot be pooled


REPORT_COMMANDS = ("score", "report-cohort", "report-bins", "report-trend", "correlate")
NON_FINITE = re.compile(r"\b(inf|nan|infinity)\b", re.IGNORECASE)

impact_factors = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=50.0, allow_subnormal=False),  # as the readers take
    st.floats(min_value=1e150, max_value=1e300),
)


@st.composite
def small_datasets(draw):
    """Profiles over three classes and papers of up to 100 authors, IF 0 to 1e300."""
    pis = [f"P{k}" for k in range(draw(st.integers(min_value=1, max_value=5)))]
    profiles = [
        InvestigatorProfile(
            pid, "CN", draw(st.integers(min_value=1, max_value=3)),
            total_funding=draw(st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e12))),
            currency="CNY")
        for pid in pis
    ]
    journals = [JournalYearIF(f"J{j}", year, draw(impact_factors))
                for j in range(3) for year in (2010, 2011, 2012)]
    papers = []
    for k in range(draw(st.integers(min_value=0, max_value=12))):
        n = draw(st.integers(min_value=1, max_value=100))
        i = draw(st.integers(min_value=1, max_value=n))
        papers.append(PublicationRecord(
            f"p{k}", draw(st.sampled_from(pis)), draw(st.integers(min_value=2010, max_value=2012)),
            f"J{draw(st.integers(min_value=0, max_value=2))}", n, i,
            tie_span=draw(st.integers(min_value=1, max_value=n - i + 1)),
            is_corresponding=draw(st.booleans())))
    return papers, journals, profiles


class TestAnyAcceptedDataset:
    """Every run ends with finite reports or an error naming an investigator,
    never a traceback."""

    @given(small_datasets(), st.sampled_from(["ranked", "tied"]))
    @settings(max_examples=25, deadline=None)
    def test_finite_or_refused(self, dataset_dir, drawn, scenario):
        papers, journals, profiles = drawn
        with tempfile.TemporaryDirectory() as tmp:
            root = write_inputs(Path(tmp) / "data", dataset_dir, papers, journals, profiles)
            for command in REPORT_COMMANDS:
                out = Path(tmp) / command
                args = [*command_args(command, root, out), "--scenario", scenario,
                        "--format", "json"]
                if command == "report-cohort":
                    args += ["--reference-group", "1"]
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = main(args)
                if code == 1:
                    assert re.search(r"^error: investigator P\d+: ", stderr.getvalue(), re.M)
                    continue
                assert code == 0
                for path in out.iterdir():
                    assert not NON_FINITE.search(path.read_text()), path.name
                if command == "score":
                    for card in json.loads((out / "scorecards.json").read_text()):
                        if card["paper_count"]:
                            assert card["t_equiv"] >= 1.0
                            assert card["leadership"] == pytest.approx(
                                card["o_weighted"] / math.sqrt(card["t_equiv"]), rel=2e-5)


@pytest.fixture(scope="module")
def seed3_dir(tmp_path_factory):
    """The ``synth --seed 3 --pis 5`` dataset, whose files SEED3_SUMS pins."""
    root = tmp_path_factory.mktemp("seed3")
    assert main(["synth", "--seed", "3", "--pis", "5", "--out-dir", str(root)]) == 0
    return root


SEED3_FILES = ("publications", "journals", "profiles", "grants", "toughness_corpus")
# sha256sum -c format; the installed console script's CI step checks it too.
SEED3_SUMS = Path(__file__).with_name("seed3.sha256")


def seed3_copy(seed3_dir, root, quoted=(), lines=None):
    """The seed-3 files under ``root``: the first cell of the first data row
    quoted in each file named in ``quoted``, and ``lines`` (a map from file
    name to {line number: row}) in place of those lines."""
    root.mkdir(parents=True)
    for name in SEED3_FILES:
        rows = (seed3_dir / f"{name}.csv").read_text().split("\n")
        for number, row in (lines or {}).get(name, {}).items():
            rows[number - 1] = row
        if name in quoted:
            first, rest = rows[1].split(",", 1)
            rows[1] = f'"{first}",{rest}'
        (root / f"{name}.csv").write_text("\n".join(rows))
    return root


def correlate(root, out, grants=None):
    """``correlate`` on the files under ``root`` for US investigators, as json."""
    return main(["correlate", *dataset_flags(root),
                 "--corpus", str(root / "toughness_corpus.csv"),
                 "--grants", str(grants or root / "grants.csv"),
                 "--period", "2008:2013", "--country", "US", "--format", "json",
                 "--out-dir", str(out)])


class TestSeed3Files:
    """The pinned digests, the row loop and the grant totals on the seed-3
    files, in-process."""

    def test_files_and_tables_match_their_pinned_digests(self, seed3_dir, tmp_path):
        """The generator replays random.Random's draws, so a Python that drew
        otherwise would move every seeded dataset, the benchmark's inputs
        included. With 14 levels, levels 2, 3 and 5-7 of the corpus's table are
        empty and repeat the cutoff above them."""
        corpus = str(seed3_dir / "toughness_corpus.csv")
        for name, flags in (("table_levels14", ["--levels", "14"]),
                            ("table_half_pow", ["--divisor-mode", "half_pow"])):
            assert main(["toughness-build", "--corpus", corpus, *flags,
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        pinned = dict(reversed(line.split("  ")) for line in SEED3_SUMS.read_text().splitlines())
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in [*seed3_dir.iterdir(), *tmp_path.iterdir()]} == pinned

    @pytest.mark.parametrize("quoted", [
        *((name,) for name in SEED3_FILES), SEED3_FILES], ids="+".join)
    def test_row_loop_reads_what_the_columnar_path_reads(self, seed3_dir, tmp_path, quoted):
        """One quoted first cell sends a file through the row loop, which must
        give the bytes the columnar path gives."""
        outputs = {}
        for form, names in (("plain", ()), ("quoted", quoted)):
            root = seed3_copy(seed3_dir, tmp_path / form, names)
            assert main(["score", *dataset_flags(root), "--corpus",
                         str(root / "toughness_corpus.csv"), "--period", "2008:2013",
                         "--if-fallback", "nearest-prior-year",
                         "--out-dir", str(root / "score")]) == 0
            assert correlate(root, root / "correlate") == 0
            assert main(["toughness-build", "--corpus", str(root / "toughness_corpus.csv"),
                         "--out", str(root / "table.csv")]) == 0
            outputs[form] = {path.name: path.read_bytes()
                             for path in [*(root / "score").iterdir(),
                                          *(root / "correlate").iterdir(), root / "table.csv"]}
        for name in quoted:
            assert ((tmp_path / "plain" / f"{name}.csv").read_bytes()
                    != (tmp_path / "quoted" / f"{name}.csv").read_bytes())
        assert sorted(outputs["plain"]) == ["correlations.json", "funding_scatter.tsv",
                                            "scorecards.csv", "table.csv"]
        assert all(outputs["plain"].values())
        assert outputs["quoted"] == outputs["plain"]

    def test_negative_count_refused_on_both_paths(self, seed3_dir, tmp_path, capsys):
        """A negative total_citations on file line 101: the plain copy's first
        chunk fails the corpus check and is read row by row, as the quoted
        copy is from line 2. Both give the same error."""
        row = (seed3_dir / "toughness_corpus.csv").read_text().split("\n")[100].split(",")
        row[2] = "-1"
        errors = {}
        for form, quoted in (("plain", ()), ("quoted", ("toughness_corpus",))):
            root = seed3_copy(seed3_dir, tmp_path / form, quoted,
                              {"toughness_corpus": {101: ",".join(row)}})
            code = main(["toughness-build", "--corpus", str(root / "toughness_corpus.csv"),
                         "--out", str(root / "table.csv")])
            assert code == 1
            assert not (root / "table.csv").exists()
            errors[form] = capsys.readouterr().err.replace(str(root), "ROOT")
        assert ("ROOT/toughness_corpus.csv:101: total_citations: must be >= 0, got -1"
                in errors["plain"])
        assert errors["quoted"] == errors["plain"]

    def test_grant_totals_do_not_depend_on_row_order(self, seed3_dir, tmp_path):
        """One scored US investigator gets the amounts 696853.0, 0.1, 0.2, 0.2:
        summed with + they give 696853 in this order and 696854 reversed, at the
        six significant digits reports write; fsum gives 696854 both ways."""
        root = seed3_copy(seed3_dir, tmp_path / "data")
        assert main(["score", *dataset_flags(root), "--corpus",
                     str(root / "toughness_corpus.csv"), "--period", "2008:2013",
                     "--out-dir", str(tmp_path / "score")]) == 0
        us = {row["pi_id"] for row in csv.DictReader((root / "profiles.csv").open())
              if row["country"] == "US"}
        pi = next(row["pi_id"]
                  for row in csv.DictReader((tmp_path / "score" / "scorecards.csv").open())
                  if row["pi_id"] in us and row["leadership"])
        rows = [f"{pi},2010,{amount},USD" for amount in ("696853.0", "0.1", "0.2", "0.2")]
        outputs = {}
        for order in ("forward", "reversed"):
            grants = tmp_path / order / "grants.csv"
            grants.parent.mkdir()
            grants.write_text("\n".join(["pi_id,year,amount,currency", *rows]) + "\n")
            assert correlate(root, tmp_path / order / "correlate", grants) == 0
            outputs[order] = {name: (tmp_path / order / "correlate" / name).read_bytes()
                              for name in ("funding_scatter.tsv", "correlations.json")}
            rows.reverse()
        assert b"696854" in outputs["forward"]["funding_scatter.tsv"]
        assert outputs["reversed"] == outputs["forward"]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "leadindex.cli", "synth", "--seed", "3",
             "--pis", "2", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "publications.csv").exists()
