"""Deterministic synthetic dataset generator.

Produces a schema-valid corpus (publications, journal impact factors,
profiles, grants, and a toughness reference corpus) from a single seeded
RNG, so a fixed seed yields byte-identical files. Impact factors are
log-normal; paper and coauthor counts are Poisson.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from . import fileio
from .model import Gender, GrantRecord, InvestigatorProfile, JournalYearIF, PublicationRecord, Rank

_CURRENCY = {"CN": "CNY", "US": "USD"}
_COUNTRIES = tuple(_CURRENCY)
# Log-normal parameters of a journal's base impact factor.
_IF_MU = 0.8
_IF_SIGMA = 0.7
# Coauthors per paper are 1 + Poisson(_AUTHOR_MEAN), capped at _MAX_AUTHORS.
_AUTHOR_MEAN = 4.0
_MAX_AUTHORS = 25
# Largest papers_per_pi_mean accepted. _poisson compares against exp(-mean),
# which leaves the normal float range past ~708 and is 0 past ~745, so a
# larger mean would silently draw about 745 papers.
MAX_PAPERS_MEAN = 700


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 42
    n_pis: int = 100
    n_journals: int = 40
    years: tuple[int, int] = (2008, 2013)
    papers_per_pi_mean: float = 8.0

    def __post_init__(self):
        if self.n_pis < 0 or self.n_journals < 0:
            raise ValueError("sizes must be >= 0")
        if self.years[0] > self.years[1]:
            raise ValueError("years span must be ordered")
        # A chained comparison also refuses NaN, on which _poisson would never return.
        if not 0 <= self.papers_per_pi_mean <= MAX_PAPERS_MEAN:
            raise ValueError(f"papers_per_pi_mean must lie in [0, {MAX_PAPERS_MEAN}], "
                             f"got {self.papers_per_pi_mean}")


@dataclass(frozen=True)
class SynthDataset:
    publications: tuple[PublicationRecord, ...]
    journals: tuple[JournalYearIF, ...]
    profiles: tuple[InvestigatorProfile, ...]
    grants: tuple[GrantRecord, ...]
    corpus: tuple[tuple[str, int, int, float], ...]


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's product method; exact only while exp(-lam) is a normal float.
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def generate(config: SynthConfig) -> SynthDataset:
    """Build the whole dataset in one fixed generation order."""
    rng = random.Random(config.seed)
    start, end = config.years
    year_span = range(start, end + 1)

    journals = []
    corpus = []
    journal_names = [f"J{i:04d}" for i in range(1, config.n_journals + 1)]
    for name in journal_names:
        base = rng.lognormvariate(_IF_MU, _IF_SIGMA)
        for year in year_span:
            impact = round(base * rng.uniform(0.85, 1.15), 4)
            journals.append(JournalYearIF(journal=name, year=year, impact_factor=impact))
            papers = rng.randint(80, 1500)
            corpus.append((name, year, int(round(papers * impact)), impact))

    profiles = []
    grants = []
    publications = []
    paper_seq = 0
    ranks = (Rank.PROFESSOR, Rank.ASSOC_PROFESSOR, Rank.ASSIST_PROFESSOR)
    for i in range(1, config.n_pis + 1):
        pid = f"P{i:04d}"
        country = _COUNTRIES[rng.randrange(len(_COUNTRIES))]
        tier = rng.choices((1, 2, 3), weights=(2, 4, 4))[0]
        gender = None
        if rng.random() >= 0.05:
            gender = Gender.MALE if rng.random() < 0.6 else Gender.FEMALE
        birth_year = rng.randint(1945, 1985) if rng.random() >= 0.05 else None
        rank = ranks[rng.randrange(3)] if rng.random() >= 0.05 else None
        profiles.append(
            InvestigatorProfile(
                pi_id=pid, country=country, tier=tier, gender=gender,
                birth_year=birth_year, rank=rank,
            )
        )

        currency = _CURRENCY[country]
        for year in year_span:
            if rng.random() < 0.7:
                amount = round(rng.lognormvariate(11.5, 0.8), 2)
                grants.append(
                    GrantRecord(pi_id=pid, year=year, amount=amount, currency=currency)
                )

        paper_budget = _poisson(rng, config.papers_per_pi_mean) if journal_names else 0
        for _ in range(paper_budget):
            paper_seq += 1
            authors = min(1 + _poisson(rng, _AUTHOR_MEAN), _MAX_AUTHORS)
            position = 1 if rng.random() < 0.7 else rng.randint(1, authors)
            tie_span = 1
            if position < authors and rng.random() < 0.05:
                tie_span = 2
            publications.append(
                PublicationRecord(
                    paper_id=f"SP{paper_seq:06d}",
                    pi_id=pid,
                    year=rng.randint(start, end),
                    journal=journal_names[rng.randrange(len(journal_names))],
                    author_count=authors,
                    credit_position=position,
                    tie_span=tie_span,
                    is_corresponding=rng.random() >= 0.3,
                )
            )

    return SynthDataset(
        publications=tuple(publications),
        journals=tuple(journals),
        profiles=tuple(profiles),
        grants=tuple(grants),
        corpus=tuple(corpus),
    )


def write_dataset(dataset: SynthDataset, out_dir: Path) -> dict[str, Path]:
    """Write all five files; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "publications": out_dir / "publications.csv",
        "journals": out_dir / "journals.csv",
        "profiles": out_dir / "profiles.csv",
        "grants": out_dir / "grants.csv",
        "toughness_corpus": out_dir / "toughness_corpus.csv",
    }
    fileio.write_publications(paths["publications"], dataset.publications)
    fileio.write_journals(paths["journals"], dataset.journals)
    fileio.write_profiles(paths["profiles"], dataset.profiles)
    fileio.write_grants(paths["grants"], dataset.grants)
    fileio.write_toughness_corpus(paths["toughness_corpus"], dataset.corpus)
    return paths

