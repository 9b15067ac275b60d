"""Command-line driver.

Subcommands: validate, toughness-build, score, report-cohort, report-trend,
report-bins, correlate, synth. Options can also come from a JSON config
file (--config); explicit flags win. Diagnostics go to stderr, data to
files. Exit codes: 0 success, 1 validation/data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import fileio, reports, synth
from .analysis import Grouping, bin_by_time, cohort_report, funding_correlations, trend
from .credit import CreditScenario
from .errors import DataValidationError, LeadIndexError
from .metrics import score_all
from .model import (
    IFFallback,
    ValidatedDataset,
    aggregate_grants,
    apply_funding,
    validate_dataset,
)
from .toughness import DivisorMode, ToughnessTable, build_table, estimate_paper_counts

log = logging.getLogger("leadindex")


class UsageError(Exception):
    """Bad option combination discovered after argparse (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one run (CLI flags over config file)."""

    publications: Optional[Path] = None
    journals: Optional[Path] = None
    profiles: Optional[Path] = None
    grants: Optional[Path] = None
    corpus: Optional[Path] = None
    table: Optional[Path] = None
    period: Optional[tuple[int, int]] = None
    span: Optional[tuple[int, int]] = None
    levels: int = 10
    divisor_mode: DivisorMode = DivisorMode.GEOMETRIC_SUM
    scenario: CreditScenario = CreditScenario.RANKED
    if_fallback: IFFallback = IFFallback.OFF
    grouping: Optional[Grouping] = None
    reference_group: Optional[str] = None
    age_reference_year: Optional[int] = None
    country: Optional[str] = None
    tier: Optional[int] = None
    step: float = 0.5
    max_t: Optional[float] = None
    exclude_t: tuple[float, ...] = ()
    out: Optional[Path] = None
    out_dir: Path = Path(".")
    format: str = "csv"
    seed: int = 42
    pis: int = 100
    journal_count: int = 40
    years: tuple[int, int] = (2008, 2013)
    papers_mean: float = 8.0


_DEFAULTS = RunConfig()

def _parse_span(text, name: str) -> tuple[int, int]:
    if isinstance(text, (list, tuple)) and len(text) == 2:
        return int(text[0]), int(text[1])
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must look like START:END, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_exclude(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return tuple(float(x) for x in str(value).split(",") if x != "")


_PARSERS = {
    "publications": Path, "journals": Path, "profiles": Path, "grants": Path,
    "corpus": Path, "table": Path, "out": Path, "out_dir": Path,
    "period": lambda s: _parse_span(s, "period"),
    "span": lambda s: _parse_span(s, "span"),
    "years": lambda s: _parse_span(s, "years"),
    "divisor_mode": DivisorMode, "scenario": CreditScenario,
    "if_fallback": IFFallback, "grouping": Grouping,
    "exclude_t": _parse_exclude,
}


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over the optional JSON config over defaults."""
    file_config = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, encoding="utf-8") as f:
            file_config = json.load(f)
        if not isinstance(file_config, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        unknown = set(file_config) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys: {', '.join(sorted(unknown))}")

    values = {}
    for field in RunConfig.__dataclass_fields__:
        cli_value = getattr(args, field, None)
        if cli_value is not None:
            values[field] = cli_value
        elif field in file_config and file_config[field] is not None:
            raw = file_config[field]
            convert = _PARSERS.get(field)
            try:
                values[field] = convert(raw) if convert else raw
            except ValueError as exc:
                raise UsageError(f"config key {field}: {exc}") from None
        else:
            values[field] = getattr(_DEFAULTS, field)
    return RunConfig(**values)


def _load_dataset(config: RunConfig) -> ValidatedDataset:
    for name in ("publications", "journals", "profiles"):
        if getattr(config, name) is None:
            raise UsageError(f"--{name} is required (flag or config file)")
    publications = fileio.read_publications(config.publications)
    journals = fileio.read_journals(config.journals)
    profiles = fileio.read_profiles(config.profiles)
    if config.grants is not None:
        totals = aggregate_grants(fileio.read_grants(config.grants))
        profiles = apply_funding(profiles, totals)
    dataset = validate_dataset(publications, journals, profiles, config.if_fallback)
    corresponding = sum(1 for r in dataset.publications if r.is_corresponding)
    log.info("publications: %d total, %d corresponding-author",
             len(dataset.publications), corresponding)
    log.info("profiles: %d investigators", len(dataset.profiles))
    for warning in dataset.warnings:
        log.info("note: %s", warning)
    return dataset


def _load_table(config: RunConfig) -> ToughnessTable:
    if config.table is not None:
        table = fileio.read_toughness_table(config.table)
        log.info("toughness table: %d levels over %d papers (loaded)",
                 table.level_count, table.total_papers)
        return table
    if config.corpus is None:
        raise UsageError("need --table or --corpus (flag or config file)")
    rows = fileio.read_toughness_corpus(config.corpus)
    estimates, warnings = estimate_paper_counts(
        (f"{journal} ({year})", citations, impact)
        for journal, year, citations, impact in rows
    )
    for warning in warnings:
        log.warning("%s", warning)
    table = build_table(
        ((count, impact) for _, count, impact in estimates),
        level_count=config.levels,
        divisor_mode=config.divisor_mode,
    )
    log.info("toughness table: %d levels over %d papers (base %d, %s)",
             table.level_count, table.total_papers, table.base_count,
             table.divisor_mode.value)
    return table


def _score(config: RunConfig, dataset: ValidatedDataset, table: ToughnessTable):
    if config.period is None:
        raise UsageError("--period is required (flag or config file)")
    cards = score_all(dataset, config.period, table, config.scenario)
    scored = sum(1 for c in cards if c.scored)
    log.info("scored %d of %d investigators (%d unscored)",
             scored, len(cards), len(cards) - scored)
    return cards


def _log_written(paths) -> None:
    for path in paths:
        log.info("wrote %s", path)


def cmd_validate(args) -> int:
    config = _resolve(args)
    _load_dataset(config)
    log.info("validation passed")
    return 0


def cmd_toughness_build(args) -> int:
    config = _resolve(args)
    if config.corpus is None:
        raise UsageError("--corpus is required (flag or config file)")
    if config.out is None:
        raise UsageError("--out is required (flag or config file)")
    table = _load_table(config)
    fileio.write_toughness_table(config.out, table)
    log.info("wrote %s", config.out)
    return 0


def cmd_score(args) -> int:
    config = _resolve(args)
    dataset = _load_dataset(config)
    table = _load_table(config)
    cards = _score(config, dataset, table)
    _log_written(reports.emit_scorecards(cards, config.out_dir, config.format))
    return 0


def cmd_report_cohort(args) -> int:
    config = _resolve(args)
    if config.grouping is None:
        raise UsageError("--grouping is required (flag or config file)")
    dataset = _load_dataset(config)
    table = _load_table(config)
    cards = _score(config, dataset, table)
    report = cohort_report(
        dataset, cards, config.grouping,
        reference_group=config.reference_group,
        age_reference_year=config.age_reference_year,
    )
    log.info("cohort: %d group(s); excluded %d unscored, %d without %s",
             len(report.groups), report.unscored, report.unknown_group,
             config.grouping.value)
    _log_written(reports.emit_cohort(report, config.out_dir, config.format))
    return 0


def cmd_report_trend(args) -> int:
    config = _resolve(args)
    if config.span is None:
        raise UsageError("--span is required (flag or config file)")
    dataset = _load_dataset(config)
    table = _load_table(config)
    series = trend(dataset, table, config.span, config.scenario,
                   country=config.country, tier=config.tier)
    covered = sum(1 for p in series.points if p.n)
    log.info("trend: %d of %d year(s) with scored investigators",
             covered, len(series.points))
    _log_written(reports.emit_trend(series, config.out_dir, config.format))
    return 0


def cmd_report_bins(args) -> int:
    config = _resolve(args)
    dataset = _load_dataset(config)
    table = _load_table(config)
    cards = _score(config, dataset, table)
    samples = [(c.t_equiv, c.leadership) for c in cards if c.scored]
    series = bin_by_time(samples, step=config.step, max_t=config.max_t,
                         exclude=config.exclude_t)
    log.info("bins: %d bin(s), %d sample(s) excluded",
             len(series.bins), len(series.excluded))
    _log_written(reports.emit_bins(series, config.out_dir, config.format))
    return 0


def cmd_correlate(args) -> int:
    config = _resolve(args)
    dataset = _load_dataset(config)
    table = _load_table(config)
    cards = _score(config, dataset, table)
    if config.country is not None:
        cards = [c for c in cards if dataset.profiles[c.pi_id].country == config.country]
    rows, samples = funding_correlations(dataset, cards)
    log.info("correlations: %d funded investigator(s) in %d group row(s)",
             len(samples), len(rows))
    _log_written(reports.emit_correlations(rows, samples, config.out_dir, config.format))
    return 0


def cmd_synth(args) -> int:
    config = _resolve(args)
    synth_config = synth.SynthConfig(
        seed=config.seed,
        n_pis=config.pis,
        n_journals=config.journal_count,
        years=config.years,
        papers_per_pi_mean=config.papers_mean,
    )
    paths = synth.synth_corpus(synth_config, config.out_dir)
    _log_written(paths.values())
    return 0


def _add_config_option(parser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file; explicit flags win")


def _add_dataset_options(parser) -> None:
    parser.add_argument("--publications", type=Path, default=None)
    parser.add_argument("--journals", type=Path, default=None)
    parser.add_argument("--profiles", type=Path, default=None)
    parser.add_argument("--grants", type=Path, default=None)
    parser.add_argument("--if-fallback", dest="if_fallback", default=None,
                        type=IFFallback, choices=list(IFFallback),
                        metavar="{off,nearest-prior-year}",
                        help="impact-factor year fallback policy (default off)")


def _add_table_options(parser) -> None:
    parser.add_argument("--table", type=Path, default=None,
                        help="prebuilt toughness table file")
    parser.add_argument("--corpus", type=Path, default=None,
                        help="toughness reference corpus CSV")
    parser.add_argument("--levels", type=int, default=None,
                        help="toughness level count (default 10)")
    parser.add_argument("--divisor-mode", dest="divisor_mode", default=None,
                        type=DivisorMode, choices=list(DivisorMode),
                        metavar="{geometric_sum,half_pow}")


def _add_scoring_options(parser) -> None:
    parser.add_argument("--period", type=lambda s: _parse_span(s, "period"),
                        default=None, help="scoring years, START:END inclusive")
    parser.add_argument("--scenario", default=None,
                        type=CreditScenario, choices=list(CreditScenario),
                        metavar="{ranked,tied}", help="credit scenario (default ranked)")


def _add_output_options(parser) -> None:
    parser.add_argument("--out-dir", dest="out_dir", type=Path, default=None)
    parser.add_argument("--format", choices=["csv", "json"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadindex",
        description="Leadership index scoring and cohort analysis for "
                    "publication datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="cross-check a dataset")
    _add_dataset_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("toughness-build", help="build a toughness table from a corpus")
    _add_table_options(p)
    p.add_argument("--out", type=Path, default=None, help="table file to write")
    _add_config_option(p)
    p.set_defaults(func=cmd_toughness_build)

    p = sub.add_parser("score", help="score every investigator over a period")
    _add_dataset_options(p)
    _add_table_options(p)
    _add_scoring_options(p)
    _add_output_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report-cohort", help="per-group metric means with significance")
    _add_dataset_options(p)
    _add_table_options(p)
    _add_scoring_options(p)
    p.add_argument("--grouping", default=None, type=Grouping, choices=list(Grouping),
                   metavar="{class,gender,age_band,rank,country}")
    p.add_argument("--reference-group", dest="reference_group", default=None,
                   help="group label compared against (enables marks)")
    p.add_argument("--age-reference-year", dest="age_reference_year", type=int,
                   default=None, help="year ages are computed against "
                                      "(default: period start)")
    _add_output_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_report_cohort)

    p = sub.add_parser("report-trend", help="annual metric means for a cohort")
    _add_dataset_options(p)
    _add_table_options(p)
    p.add_argument("--span", type=lambda s: _parse_span(s, "span"), default=None,
                   help="years, START:END inclusive")
    p.add_argument("--scenario", default=None,
                   type=CreditScenario, choices=list(CreditScenario),
                   metavar="{ranked,tied}")
    p.add_argument("--country", default=None)
    p.add_argument("--tier", type=int, default=None, help="restrict to one class")
    _add_output_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_report_trend)

    p = sub.add_parser("report-bins", help="mean leadership by equivalent-time bin")
    _add_dataset_options(p)
    _add_table_options(p)
    _add_scoring_options(p)
    p.add_argument("--step", type=float, default=None, help="bin width (default 0.5)")
    p.add_argument("--max-t", dest="max_t", type=float, default=None,
                   help="exclude samples with T above this")
    p.add_argument("--exclude-t", dest="exclude_t", default=None,
                   type=_parse_exclude,
                   help="comma-separated T values to exclude")
    _add_output_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_report_bins)

    p = sub.add_parser("correlate", help="leadership vs funding correlations")
    _add_dataset_options(p)
    _add_table_options(p)
    _add_scoring_options(p)
    p.add_argument("--country", default=None,
                   help="restrict to one country (one currency)")
    _add_output_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pis", type=int, default=None)
    p.add_argument("--journal-count", dest="journal_count", type=int, default=None)
    p.add_argument("--years", type=lambda s: _parse_span(s, "years"), default=None,
                   help="publication years, START:END inclusive")
    p.add_argument("--papers-mean", dest="papers_mean", type=float, default=None)
    p.add_argument("--out-dir", dest="out_dir", type=Path, default=None)
    _add_config_option(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataValidationError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return 1
    except (LeadIndexError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
