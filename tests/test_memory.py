"""Traced peak memory of the stages that hold a row per input item.

The CLI reads the publications as one list per field, with no record per
row, and the dataset keeps those lists. Validation checks paper_id
uniqueness on a sorted list of the ids, and trend keeps five packed
doubles per (investigator, year). Each bound here sits well under what a
record tuple per row, a hash set of the ids, or a tuple of boxed floats
per (investigator, year), would cost. A scoring command's load frees the
corpus before it reads the dataset, so its peak is one stage's.
"""

import tracemalloc

from leadindex import cli, fileio, synth
from leadindex.analysis import trend
from leadindex.model import (
    GrantRecord,
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    validate_columns,
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


def _inputs():
    journals = [JournalYearIF(f"J{j:03d}", 2000 + y, 1.0 + j / 100)
                for j in range(200) for y in range(10)]
    profiles = [InvestigatorProfile(f"P{p:04d}", "CN", 1) for p in range(1000)]
    return journals, profiles


def _publications_file(path, n):
    """A publications.csv of n rows over _inputs' investigators, journals and years."""
    fileio.write_publications(path, (
        PublicationRecord(f"SP{i:06d}", f"P{i % 1000:04d}", 2000 + i % 10,
                          f"J{i % 200:03d}", 3, 1 + i % 3) for i in range(n)))
    return path


def test_read_publication_columns_peak_per_row(tmp_path):
    # Enough rows that a chunk's scratch is small beside the columns.
    n = 100_000
    path = _publications_file(tmp_path / "publications.csv", n)

    peak, columns = traced_peak(fileio.read_publication_columns, path)

    assert len(columns[0]) == n
    assert peak / n <= 150


def test_read_publications_peak_per_row(tmp_path):
    # Each chunk's records are built from its checked columns, and no column
    # outlives its chunk: the whole file is held once, as records.
    n = 100_000
    path = _publications_file(tmp_path / "publications.csv", n)

    peak, records = traced_peak(fileio.read_publications, path)

    assert len(records) == n
    assert peak / n <= 215


def test_read_grants_peak_per_row(tmp_path):
    # Each row's record is built once, by the check, and kept.
    n = 100_000
    path = tmp_path / "grants.csv"
    fileio.write_grants(path, (GrantRecord(f"P{i % 1000:04d}", 2000 + i % 10,
                                           1000.0 + i * 0.25, "CNY") for i in range(n)))

    peak, records = traced_peak(fileio.read_grants, path)

    assert len(records) == n
    assert peak / n <= 135


def test_read_publications_then_validate_peak_per_row(tmp_path):
    # The library's record path: read_publications builds its records chunk
    # by chunk, and validate_dataset splits them into columns again.
    n = 100_000
    journals, profiles = _inputs()
    path = _publications_file(tmp_path / "publications.csv", n)

    peak, dataset = traced_peak(
        lambda: validate_dataset(fileio.read_publications(path), journals, profiles))

    assert len(dataset.columns[0]) == n
    assert peak / n <= 275


def test_validate_dataset_peak_per_publication():
    n = 50_000
    journals, profiles = _inputs()
    # As the CSV reader hands them over to the validator validate_dataset
    # runs: one list per field, one paper_id string per row, and each
    # repeated text or number one shared object.
    pi_ids = [f"P{p:04d}" for p in range(1000)]
    journal_names = [f"J{j:03d}" for j in range(200)]
    columns = [[f"X{i:07d}" for i in range(n)], [pi_ids[i % 1000] for i in range(n)],
               [2000 + i % 10 for i in range(n)], [journal_names[i % 200] for i in range(n)],
               [3] * n, [1 + i % 3 for i in range(n)], [1] * n, [True] * n]

    peak, dataset = traced_peak(validate_columns, columns, journals, profiles)

    assert len(dataset.columns[0]) == n
    assert peak / n <= 50


def test_validate_dataset_peak_over_a_record_list():
    n = 50_000
    journals, profiles = _inputs()
    # A caller's list, each record with its own strings.
    publications = [PublicationRecord(f"X{i:07d}", f"P{i % 1000:04d}", 2000 + i % 10,
                                      f"J{i % 200:03d}", 3, 1 + i % 3)
                    for i in range(n)]

    peak, dataset = traced_peak(validate_dataset, publications, journals, profiles)

    assert dataset.publications == tuple(publications)
    assert peak / n <= 120


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

    assert len(dataset.columns[0]) > 0
    # Built before the dataset is read, the table adds only what outlives
    # its stage; built after, its whole scratch would sit on the dataset.
    assert load_peak <= dataset_peak + table_peak / 4
