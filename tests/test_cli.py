"""End-to-end command-line behavior: exit codes, config files, outputs."""

import contextlib
import csv
import gc
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadindex import fileio
from leadindex.cli import MAX_SPAN_YEARS, _parse_span, main
from leadindex.fileio import write_journals, write_profiles, write_publications
from leadindex.model import InvestigatorProfile, JournalYearIF, PublicationRecord


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

    @pytest.mark.parametrize("citations, impact", [("5", "1e-320"), ("1" * 400, "2.5")],
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

    def test_step_too_small_for_a_sample_is_1(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*command_args("report-bins", dataset_dir, out), "--step", "5e-324"]) == 1
        err = capsys.readouterr().err
        assert "error: step 5e-324 is too small for T " in err
        assert "Traceback" not in err
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

    READERS = ("read_toughness_corpus", "read_toughness_table", "read_grants",
               "read_journals", "read_profiles", "read_publications")

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
        ("--corpus", "toughness_corpus.csv", "read_toughness_corpus"),
        ("--table", "table.csv", "read_toughness_table"),
    ], ids=["corpus", "table"])
    def test_table_source_then_grants_journals_profiles_publications(
            self, dataset_dir, tmp_path, reads, caplog, source, path, reader):
        caplog.set_level(logging.INFO, logger="leadindex")
        assert main(["score", *dataset_flags(dataset_dir), source, str(dataset_dir / path),
                     "--grants", str(dataset_dir / "grants.csv"),
                     "--period", "2008:2013", "--out-dir", str(tmp_path)]) == 0
        assert reads == [reader, "read_grants", "read_journals", "read_profiles",
                         "read_publications"]
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
        assert reads == ["read_toughness_corpus"]


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

    def test_trend_covers_whole_span(self, dataset_dir, tmp_path):
        code = main(["report-trend", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--span", "2008:2013", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "trend.csv").open()))
        assert [r["year"] for r in rows] == [str(y) for y in range(2008, 2014)]

    def test_bins_with_exclusions(self, dataset_dir, tmp_path):
        code = main(["report-bins", *dataset_flags(dataset_dir),
                     "--table", str(dataset_dir / "table.csv"),
                     "--period", "2008:2013", "--step", "0.5",
                     "--max-t", "20", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "bins.csv").exists()
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
    st.floats(min_value=0.0, max_value=50.0),
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


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "leadindex.cli", "synth", "--seed", "3",
             "--pis", "2", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "publications.csv").exists()
