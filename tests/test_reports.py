"""Report emission: formatting, CSV/JSON parity, plot files."""

import csv
import json

import pytest

from leadindex.analysis import (
    CorrelationRow,
    Grouping,
    TrendPoint,
    TrendSeries,
    bin_by_time,
    cohort_report,
)
from leadindex.model import InvestigatorProfile, ScoreCard, validate_dataset
from leadindex.reports import (
    emit_bins,
    emit_cohort,
    emit_correlations,
    emit_scorecards,
    emit_trend,
    fmt_float,
)


def card(pid, lead, funded=False):
    return ScoreCard(
        pi_id=pid, period=(2008, 2013), paper_count=4,
        o_raw=lead + 1.0, o_weighted=2 * lead, t_equiv=1.5,
        efficiency=(2 * lead) / 1.5, leadership=lead,
        l_fund=lead / 100.0 if funded else None,
    )


class TestFmtFloat:
    @pytest.mark.parametrize(
        "value,text",
        [(1.0, "1"), (0.5, "0.5"), (1 / 3, "0.333333"),
         (123456789.0, "1.23457e+08"), (4.745829123, "4.74583"),
         (1e-7, "1e-07"), (None, "")],
    )
    def test_six_significant_digits(self, value, text):
        assert fmt_float(value) == text


class TestScorecards:
    def test_csv_shape_and_order(self, tmp_path):
        cards = [card("P2", 5.0), card("P1", 3.0, funded=True)]
        (path,) = emit_scorecards(cards, tmp_path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["pi_id", "period_start", "period_end", "paper_count",
                           "o_raw", "o_weighted", "t_equiv", "efficiency",
                           "leadership", "l_fund"]
        assert [r[0] for r in rows[1:]] == ["P1", "P2"]
        assert rows[1][-1] == "0.03"
        assert rows[2][-1] == ""  # unfunded

    def test_unscored_card_emits_blank_metrics(self, tmp_path):
        cards = [ScoreCard("P1", (2008, 2013), 0, None, None, None, None, None)]
        (path,) = emit_scorecards(cards, tmp_path)
        rows = list(csv.reader(path.open()))
        assert rows[1][4:] == [""] * 6

    def test_json_mirror_matches_csv_fields(self, tmp_path):
        cards = [card("P1", 1 / 3, funded=True)]
        (csv_path,) = emit_scorecards(cards, tmp_path, fmt="csv")
        (json_path,) = emit_scorecards(cards, tmp_path, fmt="json")
        csv_rows = list(csv.DictReader(csv_path.open()))
        json_rows = json.loads(json_path.read_text())
        assert len(json_rows) == len(csv_rows) == 1
        assert set(json_rows[0]) == set(csv_rows[0])
        # same 6-significant-digit rounding on both sides
        assert json_rows[0]["leadership"] == float(csv_rows[0]["leadership"])
        assert json_rows[0]["l_fund"] == 0.00333333

    def test_json_ends_with_newline(self, tmp_path):
        (path,) = emit_scorecards([card("P1", 2.0)], tmp_path, fmt="json")
        assert path.read_text().endswith("]\n")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_scorecards([card("P1", 2.0)], tmp_path, fmt="yaml")


class TestCohort:
    def make_report(self):
        profiles = [InvestigatorProfile(f"P{i}", "CN", 1 + i % 2) for i in range(8)]
        cards = [card(f"P{i}", 2.0 + i) for i in range(8)]
        dataset = validate_dataset([], [], profiles)
        return cohort_report(dataset, cards, Grouping.CLASS, reference_group="1")

    def test_file_named_for_grouping(self, tmp_path):
        (path,) = emit_cohort(self.make_report(), tmp_path)
        assert path.name == "cohort_class.csv"

    def test_six_rows_per_group(self, tmp_path):
        (path,) = emit_cohort(self.make_report(), tmp_path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 12  # 2 groups x 6 metrics
        assert {r["group"] for r in rows} == {"1", "2"}
        assert rows[0]["grouping"] == "class"
        reference_rows = [r for r in rows if r["group"] == "1"]
        assert all(r["p"] == "" and r["mark"] == "" for r in reference_rows)

    def test_json_mirror(self, tmp_path):
        report = self.make_report()
        (json_path,) = emit_cohort(report, tmp_path, fmt="json")
        data = json.loads(json_path.read_text())
        assert len(data) == 12
        assert list(data[0]) == ["grouping", "group", "n", "metric",
                                 "mean", "sd", "p", "mark"]


class TestBins:
    def series(self):
        return bin_by_time(
            [(1.0, 2.0), (1.1, 4.0), (3.8, 1.5), (36.0, 4.7)],
            step=0.5, exclude=[36.0],
        )

    def test_emits_three_files(self, tmp_path):
        paths = emit_bins(self.series(), tmp_path)
        assert [p.name for p in paths] == ["bins.csv", "bins_excluded.csv", "bins.tsv"]

    def test_plot_file_is_headerless_tsv(self, tmp_path):
        paths = emit_bins(self.series(), tmp_path)
        lines = paths[2].read_text().splitlines()
        assert len(lines) == 2
        first = lines[0].split("\t")
        assert first[0] == "1"
        assert float(first[1]) == 3.0

    def test_excluded_reasons_survive(self, tmp_path):
        paths = emit_bins(self.series(), tmp_path)
        rows = list(csv.DictReader(paths[1].open()))
        assert len(rows) == 1
        assert rows[0]["t"] == "36"
        assert "exclusion" in rows[0]["reason"]


class TestTrend:
    def series(self):
        return TrendSeries(
            span=(2010, 2012),
            points=(
                TrendPoint(2010, 2, 4.0, 8.0, 5.0, 1.6),
                TrendPoint(2011, 0, None, None, None, None),
                TrendPoint(2012, 1, 3.0, 3.0, 3.0, 1.0),
            ),
        )

    def test_table_keeps_empty_years(self, tmp_path):
        paths = emit_trend(self.series(), tmp_path)
        rows = list(csv.DictReader(paths[0].open()))
        assert [r["year"] for r in rows] == ["2010", "2011", "2012"]
        assert rows[1]["leadership"] == ""
        assert rows[1]["n"] == "0"

    def test_plot_files_skip_empty_years(self, tmp_path):
        paths = emit_trend(self.series(), tmp_path)
        names = [p.name for p in paths[1:]]
        assert names == ["trend_leadership.tsv", "trend_o_weighted.tsv",
                         "trend_efficiency.tsv", "trend_t_equiv.tsv"]
        for path in paths[1:]:
            years = [line.split("\t")[0] for line in path.read_text().splitlines()]
            assert years == ["2010", "2012"]


class TestCorrelations:
    def test_table_and_scatter(self, tmp_path):
        rows = [
            CorrelationRow("overall", 10, 0.81234567, 0.004321, "**"),
            CorrelationRow("1", 2, None, None, ""),
        ]
        samples = [(1e5, 4.0, 1), (2.5e5, 6.0, 2)]
        paths = emit_correlations(rows, samples, tmp_path)
        table = list(csv.DictReader(paths[0].open()))
        assert table[0]["r"] == "0.812346"
        assert table[1]["r"] == ""
        scatter = paths[1].read_text().splitlines()
        assert scatter == ["100000\t4\t1", "250000\t6\t2"]
