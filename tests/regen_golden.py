"""Regenerate the golden report files under tests/golden/.

Run directly after an intentional change to report formatting or scoring:

    python3 tests/regen_golden.py

The acceptance suite replays the same pipeline into a temp directory and
compares every file in GOLDEN_FILES byte-for-byte, so regenerate only on
purpose.
"""

from pathlib import Path

from leadindex.analysis import (
    Grouping,
    bin_by_time,
    cohort_report,
    funding_correlations,
    trend,
)
from leadindex.metrics import score_all
from leadindex.model import aggregate_grants, apply_funding, validate_dataset
from leadindex.reports import (
    emit_bins,
    emit_cohort,
    emit_correlations,
    emit_scorecards,
    emit_trend,
)
from leadindex.synth import SynthConfig, generate
from leadindex.toughness import build_table, estimate_paper_counts

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = (
    "cohort_class.csv", "trend_leadership.tsv", "bins.tsv",
    "scorecards.csv", "scorecards.json", "cohort_class.json",
    "trend.csv", "trend.json", "bins.csv",
    "bins_excluded.csv", "correlations.csv", "funding_scatter.tsv",
)

FIXTURE_CONFIG = SynthConfig(seed=1234, n_pis=60, n_journals=30,
                             years=(2008, 2013), papers_per_pi_mean=6.0)
PERIOD = (2008, 2013)
# Funding correlation needs one currency; the fixture's US investigators
# share one, as `correlate --country US` would select them.
CORRELATION_COUNTRY = "US"


def build_fixture():
    """Score the seeded fixture; returns (dataset, table, cards)."""
    data = generate(FIXTURE_CONFIG)
    profiles = apply_funding(data.profiles, aggregate_grants(data.grants))
    dataset = validate_dataset(data.publications, data.journals, profiles)
    estimates, _ = estimate_paper_counts(
        (f"{journal} ({year})", citations, impact)
        for journal, year, citations, impact in data.corpus
    )
    table = build_table((count, impact) for _, count, impact in estimates)
    cards = score_all(dataset, PERIOD, table)
    return dataset, table, cards


def write_reports(out_dir: Path) -> dict[str, Path]:
    """Emit every golden report into out_dir; returns name -> path."""
    dataset, table, cards = build_fixture()
    emit_scorecards(cards, out_dir)
    emit_scorecards(cards, out_dir, fmt="json")
    cohort = cohort_report(dataset, cards, Grouping.CLASS, reference_group="1")
    emit_cohort(cohort, out_dir)
    emit_cohort(cohort, out_dir, fmt="json")
    series = trend(dataset, table, PERIOD)
    emit_trend(series, out_dir)
    emit_trend(series, out_dir, fmt="json")
    samples = [(c.t_equiv, c.leadership) for c in cards if c.scored]
    emit_bins(bin_by_time(samples, step=0.5), out_dir)
    # Exclusions go to their own directory so the unexcluded bins.tsv
    # above keeps its bytes; both exclusion reasons appear.
    excluded_dir = out_dir / "excluded"
    emit_bins(bin_by_time(samples, step=0.5, max_t=20.0,
                          exclude=[min(t for t, _ in samples)]),
              excluded_dir)
    country_cards = [c for c in cards
                     if dataset.profiles[c.pi_id].country == CORRELATION_COUNTRY]
    emit_correlations(*funding_correlations(dataset, country_cards), out_dir)
    paths = {name: out_dir / name for name in GOLDEN_FILES}
    paths["bins_excluded.csv"] = excluded_dir / "bins_excluded.csv"
    return paths


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as staging:
        staged = write_reports(Path(staging))
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, path in staged.items():
            shutil.copyfile(path, GOLDEN_DIR / name)
            print(f"wrote {GOLDEN_DIR / name}")
