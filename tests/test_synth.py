"""Synthetic dataset generator: determinism and internal consistency."""

import hashlib
import math

import pytest

from leadindex.model import validate_dataset
from leadindex.synth import SynthConfig, generate, write_dataset


def file_hashes(paths):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()}


class TestGenerate:
    def test_same_seed_same_dataset(self):
        a = generate(SynthConfig(seed=9, n_pis=30))
        b = generate(SynthConfig(seed=9, n_pis=30))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=1, n_pis=30))
        b = generate(SynthConfig(seed=2, n_pis=30))
        assert a != b

    def test_output_validates_cleanly(self):
        data = generate(SynthConfig(seed=5, n_pis=50))
        dataset = validate_dataset(data.publications, data.journals,
                                   data.profiles)
        assert len(dataset.pi_ids) == 50

    def test_every_publication_has_an_impact_factor(self):
        data = generate(SynthConfig(seed=5, n_pis=40))
        known = {(j.journal, j.year) for j in data.journals}
        for record in data.publications:
            assert (record.journal, record.year) in known

    def test_grants_reference_known_pis(self):
        data = generate(SynthConfig(seed=5, n_pis=40))
        pis = {p.pi_id for p in data.profiles}
        assert all(g.pi_id in pis for g in data.grants)
        assert all(g.currency in ("CNY", "USD") for g in data.grants)

    def test_corpus_covers_each_journal_year(self):
        config = SynthConfig(seed=5, n_pis=10, n_journals=7, years=(2010, 2012))
        data = generate(config)
        assert len(data.corpus) == 7 * 3

    def test_zero_pis(self):
        data = generate(SynthConfig(seed=5, n_pis=0))
        assert data.publications == () and data.profiles == ()

    def test_no_journals_means_no_papers(self):
        data = generate(SynthConfig(seed=5, n_pis=10, n_journals=0))
        assert data.publications == ()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_pis=-1), dict(n_journals=-2), dict(years=(2013, 2008)),
         dict(papers_per_pi_mean=-0.5), dict(max_authors=0),
         dict(papers_per_pi_mean=math.nan), dict(author_mean=math.nan)],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            generate(SynthConfig(seed=1, **kwargs))


class TestWriteDataset:
    def test_byte_identical_across_runs(self, tmp_path):
        config = SynthConfig(seed=11, n_pis=25)
        first = write_dataset(generate(config), tmp_path / "a")
        second = write_dataset(generate(config), tmp_path / "b")
        assert file_hashes(first) == file_hashes(second)

    def test_expected_files_present(self, tmp_path):
        paths = write_dataset(generate(SynthConfig(seed=11, n_pis=5)), tmp_path)
        assert sorted(paths) == ["grants", "journals", "profiles",
                                 "publications", "toughness_corpus"]
        for path in paths.values():
            assert path.exists()
