"""Acceptance gate: one test per release criterion.

Every criterion runs at its stated tolerance; the terminal summary hook in
conftest.py prints one PASS/FAIL line per test here. These are deliberately
self-contained (frozen constants inline) so the gate does not depend on the
unit-test modules.
"""

import csv
import hashlib
import math
import random
import time
import timeit
from pathlib import Path

import pytest

import regen_golden
from leadindex.analysis import Grouping, bin_by_time, cohort_report, trend
from leadindex.credit import CreditScenario, a_index, group_size_for_credit
from leadindex.metrics import (
    ScoredPaper,
    efficiency,
    equivalent_time,
    leadership,
    output_weighted,
    score_all,
)
from leadindex.model import aggregate_grants, apply_funding, validate_dataset
from leadindex.reports import emit_bins, emit_cohort, emit_scorecards, emit_trend
from leadindex.stats import mean_sd, pearson, significance_mark, welch_t_test
from leadindex.synth import SynthConfig, generate, write_dataset
from leadindex.toughness import DivisorMode, build_table, estimate_paper_counts, weight_of

GOLDEN_DIR = Path(__file__).parent / "golden"


def random_scored_papers(rng, max_papers=200, max_authors=30, sole=False):
    papers = []
    for i in range(rng.randint(1, max_papers)):
        value = rng.uniform(1e-6, 50.0)
        if sole:
            share = 1.0
        else:
            n = rng.randint(1, max_authors)
            share = a_index(n, rng.randint(1, n))
        papers.append(ScoredPaper(f"p{i}", value, value, share))
    return papers


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_c01_credit_anchor_is_exact_and_fast():
    anchor = a_index(17, 1, 1)
    assert 0.195 <= anchor <= 0.205
    assert group_size_for_credit(0.20, CreditScenario.RANKED) == 17
    per_call = timeit.timeit(lambda: a_index(17, 1, 1), number=1000) / 1000
    assert per_call < 1e-3


def test_c02_sole_author_collapses_to_output():
    rng = random.Random(2202)
    for _ in range(1000):
        papers = random_scored_papers(rng, sole=True)
        o = output_weighted(papers)
        t = equivalent_time(papers)
        lead = leadership(o, efficiency(o, t))
        assert abs(t - 1.0) <= 1e-12
        assert rel_err(lead, o) <= 1e-9


def test_c03_three_leadership_formulations_agree():
    rng = random.Random(3303)
    for _ in range(1000):
        papers = random_scored_papers(rng)
        o = output_weighted(papers)
        t = equivalent_time(papers)
        via_geometric_mean = leadership(o, efficiency(o, t))
        via_time = o / math.sqrt(t)
        via_closed_form = o ** 1.5 / math.sqrt(
            math.fsum(p.value / p.a for p in papers)
        )
        assert rel_err(via_geometric_mean, via_time) <= 1e-9
        assert rel_err(via_time, via_closed_form) <= 1e-9
        assert rel_err(via_geometric_mean, via_closed_form) <= 1e-9


def test_c04_time_is_scale_free_and_leadership_linear():
    rng = random.Random(4404)
    for _ in range(300):
        papers = random_scored_papers(rng)
        o = output_weighted(papers)
        t = equivalent_time(papers)
        lead = leadership(o, efficiency(o, t))
        for c in (0.1, 3.0, 1000.0):
            scaled = [
                ScoredPaper(p.paper_id, p.value_raw * c, p.value * c, p.a)
                for p in papers
            ]
            o_c = output_weighted(scaled)
            t_c = equivalent_time(scaled)
            lead_c = leadership(o_c, efficiency(o_c, t_c))
            assert rel_err(t_c, t) <= 1e-12
            assert rel_err(lead_c, c * lead) <= 1e-9


def test_c05_equivalent_time_never_below_one():
    rng = random.Random(5505)
    for _ in range(500):
        assert equivalent_time(random_scored_papers(rng)) >= 1.0
    data = generate(SynthConfig(seed=55, n_pis=200))
    dataset = validate_dataset(data.publications, data.journals, data.profiles)
    estimates, _ = estimate_paper_counts(
        (j, c, f) for j, _, c, f in data.corpus
    )
    table = build_table((count, impact) for _, count, impact in estimates)
    for card in score_all(dataset, (2008, 2013), table):
        if card.scored:
            assert card.t_equiv >= 1.0


def test_c06_level_sizes_double_and_both_divisors_are_pinned():
    for x in (1, 7, 100):
        total = 1023 * x
        corpus = [(1, 10000.0 - 0.01 * i) for i in range(total)]
        table = build_table(corpus)
        assert table.base_count == x
        assert table.level_sizes == tuple(x * 2 ** i for i in range(10))

    big = [(85_696_000, 5.0)]
    half = build_table(big, divisor_mode=DivisorMode.HALF_POW)
    geometric = build_table(big, divisor_mode=DivisorMode.GEOMETRIC_SUM)
    assert half.base_count == 167_375
    assert geometric.base_count == 83_769
    # the two documented readings of the base-size rule genuinely disagree;
    # both stay available and the default is the geometric-sum reading
    assert half.base_count != geometric.base_count
    assert build_table(big).base_count == geometric.base_count


def test_c07_weight_never_decreases_with_impact():
    rng = random.Random(7707)
    corpus = [(rng.randint(1, 400), rng.uniform(0.01, 60.0)) for _ in range(500)]
    table = build_table(corpus)
    previous = weight_of(table, 0.0)
    for i in range(10_000):
        current = weight_of(table, 70.0 * (i + 1) / 10_000)
        assert current >= previous
        previous = current


# frozen references, computed once with an independent statistics stack
FIXTURE_X = [5.4277, 2.5299, 2.8093, 2.75, 8.0344, 8.5942, 9.9989, 7.5622,
             0.902, 1.3423, 8.1083, 6.0067, 5.0637, 0.5047, 2.6409, 7.3619,
             0.1813, 6.1865, 5.1112, 1.0454]
FIXTURE_Y = [4.8108, 4.6551, 2.5005, 4.581, 5.6768, 8.6951, 7.1894, 9.3038,
             2.3856, 0.5708, 5.7042, 5.6968, 5.8335, -1.9456, 1.9078, 3.4333,
             -0.8168, 7.5579, 4.7728, 2.6147]
FIXTURE_MEAN = 4.6080749999999995
FIXTURE_SD = 3.0713921114005758
FIXTURE_R = 0.8301243259864621
FIXTURE_R_P = 5.933262147143821e-06
WELCH_A = [1.0, 2.0, 3.0]
WELCH_B = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
WELCH_P = 0.16243478744179743


def test_c08_statistics_match_frozen_references():
    mean, sd = mean_sd(FIXTURE_X)
    assert rel_err(mean, FIXTURE_MEAN) <= 1e-12
    assert rel_err(sd, FIXTURE_SD) <= 1e-12

    r, r_p = pearson(FIXTURE_X, FIXTURE_Y)
    assert rel_err(r, FIXTURE_R) <= 1e-12
    assert rel_err(r_p, FIXTURE_R_P) <= 1e-6

    _, _, p = welch_t_test(WELCH_A, WELCH_B)
    assert rel_err(p, WELCH_P) <= 1e-6

    assert significance_mark(0.009) == "**"
    assert significance_mark(0.01) == "*"
    assert significance_mark(0.049) == "*"
    assert significance_mark(0.05) == ""
    assert significance_mark(0.5) == ""


def test_c09_binning_matches_brute_force_and_excludes_outliers():
    rng = random.Random(9909)
    step = 0.5
    samples = [(rng.uniform(0.0, 30.0), rng.uniform(0.0, 20.0))
               for _ in range(10_000)]
    series = bin_by_time(samples, step=step)

    oracle = {}
    for t, lead in samples:
        k = math.floor(t / step)
        low, high = k * step, (k + 1) * step
        center = high if (t - low) >= (high - t) else low
        oracle.setdefault(center, []).append(lead)

    assert [b.center for b in series.bins] == sorted(oracle)
    for b in series.bins:
        values = oracle[b.center]
        assert b.count == len(values)
        assert b.mean_leadership == pytest.approx(
            math.fsum(values) / len(values), rel=1e-12
        )

    outliers = [(36.0, 4.745829), (50.0, 0.9015656), (84.5, 1.838076)]
    capped = bin_by_time(samples + outliers, step=step,
                         exclude=[36.0, 50.0, 84.5])
    assert {e.t for e in capped.excluded} == {36.0, 50.0, 84.5}
    assert sum(b.count for b in capped.bins) == len(samples)


def c10_pipeline(tmp_path: Path, tag: str) -> tuple[dict, float]:
    """Full synth -> files -> validate -> score -> reports run; hashes + seconds."""
    from leadindex import fileio

    started = time.perf_counter()
    out = tmp_path / tag
    data_dir = out / "data"
    report_dir = out / "reports"
    config = SynthConfig(seed=4242, n_pis=1000, papers_per_pi_mean=20.0)
    paths = write_dataset(generate(config), data_dir)

    publications = fileio.read_publications(paths["publications"])
    journals = fileio.read_journals(paths["journals"])
    profiles = apply_funding(fileio.read_profiles(paths["profiles"]),
                             aggregate_grants(fileio.read_grants(paths["grants"])))
    dataset = validate_dataset(publications, journals, profiles)
    assert len(dataset.publications) >= 15_000  # ~20k papers generated

    rows = fileio.read_toughness_corpus(paths["toughness_corpus"])
    estimates, _ = estimate_paper_counts((j, c, f) for j, _, c, f in rows)
    table = build_table((count, impact) for _, count, impact in estimates)

    cards = score_all(dataset, (2008, 2013), table)
    emit_scorecards(cards, report_dir)
    emit_cohort(cohort_report(dataset, cards, Grouping.CLASS, reference_group="1"),
                report_dir)
    emit_trend(trend(dataset, table, (2008, 2013)), report_dir)
    samples = [(c.t_equiv, c.leadership) for c in cards if c.scored]
    emit_bins(bin_by_time(samples, step=0.5), report_dir)
    elapsed = time.perf_counter() - started

    hashes = {}
    for directory in (data_dir, report_dir):
        for path in sorted(directory.iterdir()):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes, elapsed


def test_c10_large_run_is_deterministic_and_fast(tmp_path):
    first, t1 = c10_pipeline(tmp_path, "run1")
    second, t2 = c10_pipeline(tmp_path, "run2")
    assert first == second
    for elapsed in (t1, t2):
        assert elapsed < 10.0


def test_c11_reports_match_committed_golden_files(tmp_path):
    fresh = regen_golden.write_reports(tmp_path)
    for name in regen_golden.GOLDEN_FILES:
        golden = (GOLDEN_DIR / name).read_bytes()
        assert fresh[name].read_bytes() == golden, f"{name} drifted from golden"

    # independent spot-checks so the goldens cannot be silently nonsense
    dataset, _, cards = regen_golden.build_fixture()
    with open(GOLDEN_DIR / "cohort_class.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    lead_row = next(r for r in rows
                    if r["group"] == "1" and r["metric"] == "leadership")
    tier1 = [c.leadership for c in cards
             if c.scored and dataset.profiles[c.pi_id].tier == 1]
    assert lead_row["n"] == str(len(tier1))
    assert lead_row["mean"] == f"{math.fsum(tier1) / len(tier1):.6g}"

    trend_years = [line.split("\t")[0]
                   for line in (GOLDEN_DIR / "trend_leadership.tsv")
                   .read_text().splitlines()]
    assert trend_years == [str(y) for y in range(2008, 2014)]

    for line in (GOLDEN_DIR / "bins.tsv").read_text().splitlines():
        center = float(line.split("\t")[0])
        assert center == pytest.approx(round(center / 0.5) * 0.5, abs=1e-9)
