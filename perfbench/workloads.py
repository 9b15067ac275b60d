"""Workload definitions and seeded input generation for the benchmark.

Run as a script, this generates one workload's input files from a seed,
three times over, and prints one JSON line with the set-up seconds of each
repetition and the workload's fingerprint. The benchmark runs it as a child
process: Linux carries a process's resident-memory high-water mark into every
child it later starts (across fork and exec), so generating 200k records in
the benchmark process itself would inflate the peak RSS measured for the CLI.

    python3 perfbench/workloads.py --workload score_10k --seed 1 --out DIR

With ``--record START:END`` it instead regenerates every workload for seeds
START..END-1 and rewrites fingerprints.json, which run.py checks each run
against so that a generator change cannot move the load silently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

INPUT_FILES = ("publications", "journals", "profiles", "grants", "toughness_corpus")
SETUP_REPEAT = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the generator's sizes and the CLI command.

    ``years`` is both the generated publication span and the scored period
    (``score``) or trend span (``report-trend``). ``if_drop`` is the share of
    (journal, year) impact-factor rows left out of journals.csv; each
    journal's first year is always kept, so under the nearest-prior-year
    fallback every paper still resolves.
    """

    name: str
    command: str
    years: tuple[int, int]
    pis: int
    journals: int
    papers_mean: float
    grants_to_cli: bool
    if_drop: float

    @property
    def year_count(self) -> int:
        return self.years[1] - self.years[0] + 1


# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="score_10k", command="score", years=(2008, 2013),
            pis=10_000, journals=200, papers_mean=20.0,
            grants_to_cli=True, if_drop=0.0,
        ),
        Workload(
            name="trend_40y", command="report-trend", years=(1980, 2019),
            pis=2_000, journals=100, papers_mean=40.0,
            grants_to_cli=False, if_drop=0.0,
        ),
        Workload(
            name="fallback_sparse", command="score", years=(2000, 2019),
            pis=1_500, journals=1_000, papers_mean=20.0,
            grants_to_cli=True, if_drop=0.2,
        ),
    )
}


def cli_args(w: Workload, inputs: Path, out_dir: Path) -> list[str]:
    """Arguments of the one ``leadindex`` invocation a workload measures.

    The table is always built from ``--corpus`` inside the run, and no
    ``--jobs`` flag is passed.
    """
    args = [
        w.command,
        "--publications", str(inputs / "publications.csv"),
        "--journals", str(inputs / "journals.csv"),
        "--profiles", str(inputs / "profiles.csv"),
        "--corpus", str(inputs / "toughness_corpus.csv"),
    ]
    if w.grants_to_cli:
        args += ["--grants", str(inputs / "grants.csv")]
    span = f"{w.years[0]}:{w.years[1]}"
    args += ["--period", span] if w.command == "score" else ["--span", span]
    if w.if_drop:
        args += ["--if-fallback", "nearest-prior-year"]
    return args + ["--out-dir", str(out_dir)]


def generate_inputs(w: Workload, seed: int, out_dir: Path) -> dict[str, int]:
    """Write the workload's five input files; return its fingerprint."""
    from leadindex import fileio
    from leadindex.synth import SynthConfig, generate

    data = generate(SynthConfig(
        seed=seed, n_pis=w.pis, n_journals=w.journals, years=w.years,
        papers_per_pi_mean=w.papers_mean,
    ))
    journals = data.journals
    if w.if_drop:
        rng = random.Random(f"{seed}:if-drop")
        journals = [
            j for j in journals
            if j.year == w.years[0] or rng.random() >= w.if_drop
        ]
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_publications(out_dir / "publications.csv", data.publications)
    fileio.write_journals(out_dir / "journals.csv", journals)
    fileio.write_profiles(out_dir / "profiles.csv", data.profiles)
    fileio.write_grants(out_dir / "grants.csv", data.grants)
    fileio.write_toughness_corpus(out_dir / "toughness_corpus.csv", data.corpus)

    covered = {(j.journal, j.year) for j in journals}
    return {
        "publications": len(data.publications),
        "investigators": len(data.profiles),
        "if_rows": len(journals),
        "if_misses": sum(
            1 for p in data.publications if (p.journal, p.year) not in covered
        ),
        "trend_pi_years": len(data.profiles) * w.year_count,
    }


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def record(seeds: range, scratch: Path) -> None:
    recorded = {
        name: {str(seed): generate_inputs(w, seed, scratch) for seed in seeds}
        for name, w in WORKLOADS.items()
    }
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--record", metavar="START:END")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.record:
        start, end = (int(x) for x in args.record.split(":"))
        record(range(start, end), args.out)
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    w = WORKLOADS[args.workload]

    seconds = []
    digests = set()
    fingerprint = None
    for _ in range(SETUP_REPEAT):
        t0 = time.perf_counter()
        fingerprint = generate_inputs(w, args.seed, args.out)
        seconds.append(time.perf_counter() - t0)
        digests.add(digest_files(args.out / f"{name}.csv" for name in INPUT_FILES))
    if len(digests) != 1:
        print(f"error: seed {args.seed} generated different inputs on repeat",
              file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": seconds, "fingerprint": fingerprint}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
