"""Deterministic synthetic dataset generator.

Produces a schema-valid corpus (publications, journal impact factors,
profiles, grants, and a toughness reference corpus) from a single seeded
RNG, so a fixed seed yields byte-identical files. Impact factors are
log-normal; paper and coauthor counts are Poisson.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

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
# Largest papers_per_pi_mean accepted. The Poisson draw compares against
# exp(-mean), which leaves the normal float range past ~708 and is 0 past
# ~745, so a larger mean would silently draw about 745 papers.
MAX_PAPERS_MEAN = 700
# Institutional tiers 1, 2, 3 are drawn with weights 2:4:4; these are the
# cumulative weights.
_TIER_BOUNDS = (2, 6, 10)


class SynthConfig(NamedTuple):
    seed: int = 42
    n_pis: int = 100
    n_journals: int = 40
    years: tuple[int, int] = (2008, 2013)
    papers_per_pi_mean: float = 8.0


class SynthDataset(NamedTuple):
    publications: tuple[PublicationRecord, ...]
    journals: tuple[JournalYearIF, ...]
    profiles: tuple[InvestigatorProfile, ...]
    grants: tuple[GrantRecord, ...]
    corpus: tuple[tuple[str, int, int, float], ...]


def _randbelow(rng: random.Random):
    """``below(n)``: ``rng.randrange(n)`` for n >= 1, drawn as random.Random draws it.

    This is Random._randbelow_with_getrandbits, which randrange and randint
    call on every Python from 3.10 on: k = n.bit_length() bits at a time,
    redrawn until below n. It skips their argument checks, not a draw.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _draw_tier(draw) -> int:
    """``choices((1, 2, 3), weights=(2, 4, 4))[0]`` of the Random whose random is ``draw``.

    The same one draw random.choices makes: the first tier whose cumulative
    weight is above ``draw() * total``, bisected only as far as the last.
    """
    return 1 + bisect_right(_TIER_BOUNDS, draw() * _TIER_BOUNDS[-1], 0, 2)


def generate(config: SynthConfig) -> SynthDataset:
    """Build the whole dataset in one fixed generation order.

    The draws are those of ``random.Random(config.seed)``'s randrange, randint, choices and
    a Poisson product loop, made without the calls' overhead, so a seed gives the same
    records as those calls would. A bad config raises ValueError before any draw.
    """
    if config.n_pis < 0 or config.n_journals < 0:
        raise ValueError("sizes must be >= 0")
    if config.years[0] > config.years[1]:
        raise ValueError("years span must be ordered")
    # A chained comparison also refuses NaN, on which the Poisson draw would never end.
    if not 0 <= config.papers_per_pi_mean <= MAX_PAPERS_MEAN:
        raise ValueError(f"papers_per_pi_mean must lie in [0, {MAX_PAPERS_MEAN}], "
                         f"got {config.papers_per_pi_mean}")
    rng = random.Random(config.seed)
    draw = rng.random
    below = _randbelow(rng)
    start, end = config.years
    year_span = range(start, end + 1)
    n_years = end - start + 1

    journals = []
    corpus = []
    journal_names = [f"J{i:04d}" for i in range(1, config.n_journals + 1)]
    n_names = len(journal_names)
    for name in journal_names:
        base = rng.lognormvariate(_IF_MU, _IF_SIGMA)
        for year in year_span:
            impact = round(base * rng.uniform(0.85, 1.15), 4)
            journals.append(JournalYearIF(name, year, impact))
            papers = 80 + below(1500 - 80 + 1)  # randint(80, 1500)
            corpus.append((name, year, int(round(papers * impact)), impact))

    profiles = []
    grants = []
    publications = []
    paper_seq = 0
    ranks = (Rank.PROFESSOR, Rank.ASSOC_PROFESSOR, Rank.ASSIST_PROFESSOR)
    # Poisson draws by Knuth's product method, exact while exp(-mean) is a
    # normal float: count the uniform factors before the product falls to
    # exp(-mean) or below.
    papers_limit = math.exp(-config.papers_per_pi_mean)
    authors_limit = math.exp(-_AUTHOR_MEAN)
    for i in range(1, config.n_pis + 1):
        pid = f"P{i:04d}"
        country = _COUNTRIES[below(len(_COUNTRIES))]
        tier = _draw_tier(draw)
        gender = None
        if draw() >= 0.05:
            gender = Gender.MALE if draw() < 0.6 else Gender.FEMALE
        birth_year = 1945 + below(1985 - 1945 + 1) if draw() >= 0.05 else None
        rank = ranks[below(3)] if draw() >= 0.05 else None
        profiles.append(InvestigatorProfile(pid, country, tier, gender, birth_year, rank))

        currency = _CURRENCY[country]
        for year in year_span:
            if draw() < 0.7:
                amount = round(rng.lognormvariate(11.5, 0.8), 2)
                grants.append(GrantRecord(pid, year, amount, currency))

        paper_budget = 0
        if journal_names:
            p = draw()
            while p > papers_limit:
                paper_budget += 1
                p *= draw()
        for _ in range(paper_budget):
            paper_seq += 1
            authors = 1
            p = draw()
            while p > authors_limit:
                authors += 1
                p *= draw()
            if authors > _MAX_AUTHORS:
                authors = _MAX_AUTHORS
            position = 1 if draw() < 0.7 else 1 + below(authors)  # randint(1, authors)
            tie_span = 1
            if position < authors and draw() < 0.05:
                tie_span = 2
            # Arguments are evaluated left to right: year before journal.
            publications.append(PublicationRecord(
                f"SP{paper_seq:06d}", pid, start + below(n_years),
                journal_names[below(n_names)], authors, position, tie_span,
                draw() >= 0.3,
            ))

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

