"""Traced peak memory of the stages that hold a row per input item.

validate_dataset checks paper_id uniqueness on a sorted list of the ids,
and trend keeps five packed doubles per (investigator, year). Each bound
here sits well under what a hash set of the ids, or a tuple of boxed
floats per (investigator, year), would cost. A scoring command's load
frees the corpus before it reads the dataset, so its peak is one stage's.
"""

import tracemalloc

from leadindex import cli, synth
from leadindex.analysis import trend
from leadindex.model import (
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    validate_dataset,
)


def traced_peak(fn, *args, **kwargs):
    """(bytes allocated at the peak of fn(*args) above what was live before, result).

    Only blocks allocated during the call are traced, so the inputs, built
    beforehand, do not count; what the call returns does.
    """
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, result


def test_validate_dataset_peak_per_publication():
    n = 50_000
    # As the CSV reader hands them over: a list, each record with its own strings.
    publications = [PublicationRecord(f"X{i:07d}", f"P{i % 1000:04d}", 2000 + i % 10,
                                      f"J{i % 200:03d}", 3, 1 + i % 3)
                    for i in range(n)]
    journals = [JournalYearIF(f"J{j:03d}", 2000 + y, 1.0 + j / 100)
                for j in range(200) for y in range(10)]
    profiles = [InvestigatorProfile(f"P{p:04d}", "CN", 1) for p in range(1000)]

    peak, dataset = traced_peak(validate_dataset, publications, journals, profiles)

    assert len(dataset.publications) == n
    assert peak / n <= 50


def test_trend_peak_per_investigator_year(two_level_table):
    pis, years = 1000, range(2000, 2020)
    publications = [PublicationRecord(f"X{p}-{y}", f"P{p:04d}", y, f"J{p % 50:02d}", 4, 2)
                    for p in range(pis) for y in years]
    journals = [JournalYearIF(f"J{j:02d}", y, 0.5 + j / 10) for j in range(50) for y in years]
    profiles = [InvestigatorProfile(f"P{p:04d}", "CN", 1) for p in range(pis)]
    dataset = validate_dataset(publications, journals, profiles)

    peak, series = traced_peak(trend, dataset, two_level_table, (years[0], years[-1]))

    assert [p.n for p in series.points] == [pis] * len(years)
    assert peak / (pis * len(years)) <= 80


def test_load_peak_is_one_stage_not_table_plus_dataset(tmp_path):
    # A corpus (500 journals x 20 years) with more rows than the ~8k publications.
    config = synth.SynthConfig(seed=1, n_pis=400, n_journals=500, years=(2000, 2019),
                               papers_per_pi_mean=20.0)
    paths = synth.write_dataset(synth.generate(config), tmp_path)
    args = cli.build_parser().parse_args([
        "score", "--publications", str(paths["publications"]),
        "--journals", str(paths["journals"]), "--profiles", str(paths["profiles"]),
        "--grants", str(paths["grants"]), "--corpus", str(paths["toughness_corpus"]),
        "--period", "2000:2019",
    ])

    dataset_peak, _ = traced_peak(cli._load_dataset, args)
    table_peak, _ = traced_peak(cli._build_table, args)
    load_peak, (dataset, _) = traced_peak(cli._load, args)

    assert len(dataset.publications) > 0
    # Built before the dataset is read, the table adds only what outlives
    # its stage; built after, its whole scratch would sit on the dataset.
    assert load_peak <= dataset_peak + table_peak / 4
