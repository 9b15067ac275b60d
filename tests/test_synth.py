"""Synthetic dataset generator: determinism and internal consistency."""

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leadindex.model import (
    Gender, GrantRecord, InvestigatorProfile, JournalYearIF, PublicationRecord, Rank,
    validate_dataset,
)
from leadindex.synth import (
    MAX_PAPERS_MEAN, SynthConfig, SynthDataset, _draw_tier, _randbelow, generate, write_dataset,
)


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

    def test_largest_papers_mean_is_drawn_in_full(self):
        # Past a mean of ~745 the Poisson draw would stop near 745 whatever
        # was asked; the accepted maximum still draws its mean.
        data = generate(SynthConfig(seed=1, n_pis=20, n_journals=1, years=(2010, 2010),
                                    papers_per_pi_mean=MAX_PAPERS_MEAN))
        assert abs(len(data.publications) / 20 - MAX_PAPERS_MEAN) < 30

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_pis=-1), dict(n_journals=-2), dict(years=(2013, 2008)),
         dict(papers_per_pi_mean=-0.5), dict(papers_per_pi_mean=math.inf),
         dict(papers_per_pi_mean=math.nan), dict(papers_per_pi_mean=700.5)],
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

    def test_pinned_bytes(self, tmp_path):
        # The generator's constants and stream order fix these bytes; a change
        # to either moves every seeded dataset, the benchmark's inputs included.
        config = SynthConfig(seed=3, n_pis=6, n_journals=4, years=(2010, 2012),
                             papers_per_pi_mean=3.0)
        assert file_hashes(write_dataset(generate(config), tmp_path)) == {
            "grants": "63c43e37eb594644306871843b0e0a3025ba7468fc817e097221a6c2d3b2b2ea",
            "journals": "42fbe5d2f1789d3d184fc367638a819f406142360257b51300c9191b41822f8e",
            "profiles": "4d6f697446f86db2b55fd519cc8b59a21aa89113fa8ed47d8da30e1fe6048733",
            "publications": "e72fc064f946fbbd0f6d7c7b05f471d20d7b594abbaba3e20232f6cd54696059",
            "toughness_corpus":
                "e2ea6b2353db8a703780cfddc6a86a153c0b5b67047925c4e98f0274ea1deb97",
        }

    def test_pinned_bytes_mid_size(self, tmp_path):
        # Thousands of records over 30 years: every draw kind, rejected
        # getrandbits draws included, many times over.
        config = SynthConfig(seed=5, n_pis=300, n_journals=30, years=(1990, 2019),
                             papers_per_pi_mean=12.0)
        assert file_hashes(write_dataset(generate(config), tmp_path)) == {
            "grants": "b2cdb5d3a89a08534cbec2ac131af130b8f4b4baf3d04990c2c74b2375addb30",
            "journals": "d1bbbeb7c5367e195ec578818899b8a1014d274aa5368fc4ce1edf31cf349dc9",
            "profiles": "e87079001eeb21ef867c48297350591eba4fa1574d506fee8316e09ca552ea01",
            "publications": "6be6ae6d1559135a27e0124f66afcc73423c01332a59cab09f67981fc8c50f1f",
            "toughness_corpus":
                "218775b813d03edd6a568007a17e444fceff4d01d8054ae5e4c647078db0c6ff",
        }

    def test_expected_files_present(self, tmp_path):
        paths = write_dataset(generate(SynthConfig(seed=11, n_pis=5)), tmp_path)
        assert sorted(paths) == ["grants", "journals", "profiles",
                                 "publications", "toughness_corpus"]
        for path in paths.values():
            assert path.exists()


def _poisson(rng, lam):
    # Knuth's product method, one call per draw, as the reference generator draws it.
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _reference_generate(config):
    """The generator through random.Random's public calls: generate must make
    the same draws and so build the same records."""
    rng = random.Random(config.seed)
    start, end = config.years
    year_span = range(start, end + 1)
    journals, corpus = [], []
    journal_names = [f"J{i:04d}" for i in range(1, config.n_journals + 1)]
    for name in journal_names:
        base = rng.lognormvariate(0.8, 0.7)
        for year in year_span:
            impact = round(base * rng.uniform(0.85, 1.15), 4)
            journals.append(JournalYearIF(journal=name, year=year, impact_factor=impact))
            papers = rng.randint(80, 1500)
            corpus.append((name, year, int(round(papers * impact)), impact))
    profiles, grants, publications = [], [], []
    paper_seq = 0
    ranks = (Rank.PROFESSOR, Rank.ASSOC_PROFESSOR, Rank.ASSIST_PROFESSOR)
    for i in range(1, config.n_pis + 1):
        pid = f"P{i:04d}"
        country = ("CN", "US")[rng.randrange(2)]
        tier = rng.choices((1, 2, 3), weights=(2, 4, 4))[0]
        gender = None
        if rng.random() >= 0.05:
            gender = Gender.MALE if rng.random() < 0.6 else Gender.FEMALE
        birth_year = rng.randint(1945, 1985) if rng.random() >= 0.05 else None
        rank = ranks[rng.randrange(3)] if rng.random() >= 0.05 else None
        profiles.append(InvestigatorProfile(pi_id=pid, country=country, tier=tier,
                                            gender=gender, birth_year=birth_year, rank=rank))
        currency = {"CN": "CNY", "US": "USD"}[country]
        for year in year_span:
            if rng.random() < 0.7:
                amount = round(rng.lognormvariate(11.5, 0.8), 2)
                grants.append(GrantRecord(pi_id=pid, year=year, amount=amount,
                                          currency=currency))
        paper_budget = _poisson(rng, config.papers_per_pi_mean) if journal_names else 0
        for _ in range(paper_budget):
            paper_seq += 1
            authors = min(1 + _poisson(rng, 4.0), 25)
            position = 1 if rng.random() < 0.7 else rng.randint(1, authors)
            tie_span = 1
            if position < authors and rng.random() < 0.05:
                tie_span = 2
            publications.append(PublicationRecord(
                paper_id=f"SP{paper_seq:06d}", pi_id=pid, year=rng.randint(start, end),
                journal=journal_names[rng.randrange(len(journal_names))],
                author_count=authors, credit_position=position, tie_span=tie_span,
                is_corresponding=rng.random() >= 0.3,
            ))
    return SynthDataset(tuple(publications), tuple(journals), tuple(profiles),
                        tuple(grants), tuple(corpus))


SEEDS = st.integers(0, 2**64)
# Powers of two and one past them bound the rejection loop's best and worst
# case: 2**k needs k + 1 bits and rejects about half of the draws.
BOUNDS = (st.integers(1, 2**20) | st.integers(0, 20).map(lambda k: 2**k)
          | st.integers(0, 19).map(lambda k: 2**k + 1))


class TestDrawForDraw:
    """generate's own draws give what random.Random's calls give, and leave
    the generator where those calls leave it."""

    @given(SEEDS, st.lists(BOUNDS, min_size=1, max_size=40))
    def test_below_is_randrange(self, seed, bounds):
        rng, ref = random.Random(seed), random.Random(seed)
        below = _randbelow(rng)
        assert [below(n) for n in bounds] == [ref.randrange(n) for n in bounds]
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, st.lists(st.tuples(st.integers(-2**20, 2**20), BOUNDS), min_size=1,
                           max_size=40))
    def test_offset_below_is_randint(self, seed, spans):
        rng, ref = random.Random(seed), random.Random(seed)
        below = _randbelow(rng)
        assert ([a + below(n) for a, n in spans]
                == [ref.randint(a, a + n - 1) for a, n in spans])
        assert rng.getstate() == ref.getstate()

    @given(SEEDS, st.integers(1, 40))
    def test_tier_is_weighted_choice(self, seed, k):
        rng, ref = random.Random(seed), random.Random(seed)
        assert ([_draw_tier(rng.random) for _ in range(k)]
                == [ref.choices((1, 2, 3), weights=(2, 4, 4))[0] for _ in range(k)])
        assert rng.getstate() == ref.getstate()

    @given(st.floats(0.0, 1.0, exclude_max=True))
    @example(0.2)
    @example(0.6)
    @example(0.0)
    @example(1 - 2**-53)
    def test_tier_at_each_uniform(self, u):
        """Draws on and next to a cumulative weight's boundary land where choices puts them."""
        class Fixed(random.Random):
            def random(self):
                return u

        assert _draw_tier(lambda: u) == Fixed().choices((1, 2, 3), weights=(2, 4, 4))[0]

    @given(SEEDS, st.integers(0, 8), st.integers(0, 4), st.integers(0, 3),
           st.sampled_from([0.0, 0.5, 3.0, 12.0, 40.0]) | st.floats(0, MAX_PAPERS_MEAN))
    @settings(max_examples=60, deadline=None)
    @example(seed=1, n_pis=3, n_journals=2, extra_years=0, mean=float(MAX_PAPERS_MEAN))
    def test_generate_is_the_reference_generator(self, seed, n_pis, n_journals, extra_years,
                                                 mean):
        """Every record, so every Poisson draw (paper budgets and author counts), matches."""
        config = SynthConfig(seed=seed, n_pis=n_pis, n_journals=n_journals,
                             years=(2010, 2010 + extra_years), papers_per_pi_mean=mean)
        assert generate(config) == _reference_generate(config)
