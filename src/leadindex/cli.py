"""Command-line driver.

Subcommands: validate, toughness-build, score, report-cohort, report-trend,
report-bins, correlate, synth. Options can also come from a JSON config
file (--config); explicit flags win. Diagnostics go to stderr, data to
files. Exit codes: 0 success, 1 validation/data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import fileio, reports, synth
from .analysis import Grouping, bin_by_time, cohort_report, funding_correlations, trend
from .credit import CreditScenario
from .errors import DataValidationError, LeadIndexError
from .metrics import score_all
from .model import (
    TIERS,
    IFFallback,
    ScoreCard,
    ValidatedDataset,
    aggregate_grants,
    apply_funding,
    validate_dataset,
)
from .toughness import DivisorMode, ToughnessTable, build_table, estimate_paper_counts

log = logging.getLogger("leadindex")


class UsageError(Exception):
    """Bad option combination or config value found outside argparse (exit 2)."""


# Widest --period, --span or --years accepted: trend and report-trend do
# work and write a row for every year of the span.
MAX_SPAN_YEARS = 1000


def _parse_span(text, name: str) -> tuple[int, int]:
    if isinstance(text, list):  # config-file form [START, END]
        text = ":".join(map(str, text))
    try:
        start, end = (int(part) for part in text.split(":"))
    except ValueError:  # not two parts, or a part not an integer
        raise argparse.ArgumentTypeError(
            f"{name} must look like START:END, got {text!r}") from None
    if start > end:
        raise argparse.ArgumentTypeError(f"{name} START must not exceed END, got {text!r}")
    if end - start >= MAX_SPAN_YEARS:
        raise argparse.ArgumentTypeError(
            f"{name} must cover at most {MAX_SPAN_YEARS} years, got {text!r}")
    return start, end


def _number_flag(convert, rule: str, ok):
    """argparse type: ``convert(text)`` if ``ok`` holds for it, else a usage error citing ``rule``."""

    def number(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return number


_parse_step = _number_flag(float, "finite and > 0", lambda v: 0 < v < math.inf)
_parse_max_t = _number_flag(float, "a number, not NaN", lambda v: not math.isnan(v))
_parse_exclude_t = _number_flag(float, "finite", math.isfinite)
_parse_levels = _number_flag(int, ">= 1", lambda v: v >= 1)
_parse_count = _number_flag(int, ">= 0", lambda v: v >= 0)
_parse_papers_mean = _number_flag(
    float, f"between 0 and {synth.MAX_PAPERS_MEAN}",
    lambda v: 0 <= v <= synth.MAX_PAPERS_MEAN)


def _parse_exclude(value) -> tuple[float, ...]:
    if isinstance(value, list):  # config-file form [T, ...]
        value = ",".join(map(str, value))
    return tuple(_parse_exclude_t(x) for x in value.split(",") if x != "")


def _load_dataset(args: argparse.Namespace) -> ValidatedDataset:
    """Read grants, journals, profiles, then publications, and validate them.

    The grants are reduced to one total per investigator before the
    publications, the largest input, are read; and no name here keeps the
    publication list alive while validate_dataset copies it.
    """
    totals = {} if args.grants is None else aggregate_grants(fileio.read_grants(args.grants))
    journals = fileio.read_journals(args.journals)
    profiles = apply_funding(fileio.read_profiles(args.profiles), totals)
    dataset = validate_dataset(fileio.read_publications(args.publications),
                               journals, profiles, args.if_fallback)
    corresponding = sum(map(itemgetter(7), dataset.publications))  # is_corresponding
    log.info("publications: %d total, %d corresponding-author",
             len(dataset.publications), corresponding)
    log.info("profiles: %d investigators", len(dataset.profiles))
    for warning in dataset.warnings:
        log.info("note: %s", warning)
    return dataset


def _load(args: argparse.Namespace) -> tuple[ValidatedDataset, ToughnessTable]:
    """The dataset, and the toughness table read from --table or built from --corpus.

    The table comes first, so the corpus rows and their estimates are freed
    before the dataset is read: the peak holds one stage, not both.
    """
    if args.table is None:
        table = _build_table(args)
    else:
        table = fileio.read_toughness_table(args.table)
        log.info("toughness table: %d levels over %d papers (loaded)",
                 table.level_count, table.total_papers)
    return _load_dataset(args), table


def _build_table(args: argparse.Namespace) -> ToughnessTable:
    rows = fileio.read_toughness_corpus(args.corpus)
    estimates, warnings = estimate_paper_counts(
        (f"{journal} ({year})", citations, impact)
        for journal, year, citations, impact in rows
    )
    for warning in warnings:
        log.warning("%s", warning)
    table = build_table(
        ((count, impact) for _, count, impact in estimates),
        level_count=args.levels,
        divisor_mode=args.divisor_mode,
    )
    log.info("toughness table: %d levels over %d papers (base %d, %s)",
             table.level_count, table.total_papers, table.base_count,
             table.divisor_mode.value)
    return table


def _scored(args: argparse.Namespace) -> tuple[ValidatedDataset, list[ScoreCard]]:
    """Load, then score every investigator over --period."""
    dataset, table = _load(args)
    cards = score_all(dataset, args.period, table, args.scenario)
    scored = sum(1 for c in cards if c.scored)
    log.info("scored %d of %d investigators (%d unscored)",
             scored, len(cards), len(cards) - scored)
    return dataset, cards


# Each handler runs one subcommand on checked options and returns the paths it wrote.

def cmd_validate(args) -> Iterable[Path]:
    _load_dataset(args)
    log.info("validation passed")
    return ()


def cmd_toughness_build(args) -> Iterable[Path]:
    fileio.write_toughness_table(args.out, _build_table(args))
    return (args.out,)


def cmd_score(args) -> Iterable[Path]:
    _, cards = _scored(args)
    return reports.emit_scorecards(cards, args.out_dir, args.format)


def cmd_report_cohort(args) -> Iterable[Path]:
    dataset, cards = _scored(args)
    report = cohort_report(
        dataset, cards, args.grouping,
        reference_group=args.reference_group,
        age_reference_year=args.age_reference_year,
    )
    log.info("cohort: %d group(s); excluded %d unscored, %d without %s",
             len(report.groups), report.unscored, report.unknown_group,
             args.grouping.value)
    return reports.emit_cohort(report, args.out_dir, args.format)


def cmd_report_trend(args) -> Iterable[Path]:
    dataset, table = _load(args)
    series = trend(dataset, table, args.span, args.scenario,
                   country=args.country, tier=args.tier)
    covered = sum(1 for p in series.points if p.n)
    log.info("trend: %d of %d year(s) with scored investigators",
             covered, len(series.points))
    return reports.emit_trend(series, args.out_dir, args.format)


def cmd_report_bins(args) -> Iterable[Path]:
    _, cards = _scored(args)
    samples = [(c.t_equiv, c.leadership) for c in cards if c.scored]
    series = bin_by_time(samples, step=args.step, max_t=args.max_t,
                         exclude=args.exclude_t)
    log.info("bins: %d bin(s), %d sample(s) excluded",
             len(series.bins), len(series.excluded))
    return reports.emit_bins(series, args.out_dir, args.format)


def cmd_correlate(args) -> Iterable[Path]:
    dataset, cards = _scored(args)
    if args.country is not None:
        cards = [c for c in cards if dataset.profiles[c.pi_id].country == args.country]
    rows, samples = funding_correlations(dataset, cards)
    log.info("correlations: %d funded investigator(s) in %d group row(s)",
             len(samples), len(rows))
    return reports.emit_correlations(rows, samples, args.out_dir, args.format)


def cmd_synth(args) -> Iterable[Path]:
    synth_config = synth.SynthConfig(
        seed=args.seed,
        n_pis=args.pis,
        n_journals=args.journal_count,
        years=args.years,
        papers_per_pi_mean=args.papers_mean,
    )
    return synth.write_dataset(synth.generate(synth_config), args.out_dir).values()


# Every option but --config, declared once as (flag, add_argument keywords)
# and grouped by what it controls; each group lists its flags in --help order.
_OPTIONS: dict[str, tuple[tuple[str, dict], ...]] = {
    "dataset": (
        ("--publications", dict(type=Path)),
        ("--journals", dict(type=Path)),
        ("--profiles", dict(type=Path)),
        ("--grants", dict(type=Path)),
        ("--if-fallback", dict(default=IFFallback.OFF, type=IFFallback,
                               choices=list(IFFallback), metavar="{off,nearest-prior-year}",
                               help="impact-factor year fallback policy (default off)")),
    ),
    "table": (("--table", dict(type=Path, help="prebuilt toughness table file")),),
    "corpus": (
        ("--corpus", dict(type=Path, help="toughness reference corpus CSV")),
        ("--levels", dict(type=_parse_levels, default=10,
                          help="toughness level count (default 10)")),
        ("--divisor-mode", dict(default=DivisorMode.GEOMETRIC_SUM, type=DivisorMode,
                                choices=list(DivisorMode), metavar="{geometric_sum,half_pow}")),
    ),
    "out": (("--out", dict(type=Path, help="table file to write")),),
    "period": (
        ("--period", dict(type=lambda s: _parse_span(s, "period"),
                          help="scoring years, START:END inclusive")),
    ),
    "span": (
        ("--span", dict(type=lambda s: _parse_span(s, "span"),
                        help="years, START:END inclusive")),
    ),
    "scenario": (
        ("--scenario", dict(default=CreditScenario.RANKED, type=CreditScenario,
                            choices=list(CreditScenario), metavar="{ranked,tied}",
                            help="credit scenario (default ranked)")),
    ),
    "cohort": (
        ("--grouping", dict(type=Grouping, choices=list(Grouping),
                            metavar="{class,gender,age_band,rank,country}")),
        ("--reference-group", dict(help="group label compared against (enables marks)")),
        ("--age-reference-year", dict(type=int, help="year ages are computed against "
                                                     "(default: period start)")),
    ),
    "country": (("--country", dict(help="restrict to one country")),),
    "tier": (("--tier", dict(type=int, choices=TIERS, help="restrict to one class")),),
    "bins": (
        ("--step", dict(type=_parse_step, default=0.5, help="bin width (default 0.5)")),
        ("--max-t", dict(type=_parse_max_t, help="exclude samples with T above this")),
        ("--exclude-t", dict(default=(), type=_parse_exclude,
                             help="comma-separated T values to exclude")),
    ),
    "synth": (
        ("--seed", dict(type=int, default=42)),
        ("--pis", dict(type=_parse_count, default=100)),
        ("--journal-count", dict(type=_parse_count, default=40)),
        ("--years", dict(type=lambda s: _parse_span(s, "years"), default=(2008, 2013),
                         help="publication years, START:END inclusive")),
        ("--papers-mean", dict(type=_parse_papers_mean, default=8.0)),
    ),
    "out-dir": (("--out-dir", dict(type=Path, default=Path("."))),),
    "format": (("--format", dict(choices=["csv", "json"], default="csv")),),
}

_CONFIG = ("--config", dict(type=Path, help="JSON config file; explicit flags win"))


class Command(NamedTuple):
    help: str
    groups: tuple[str, ...]  # keys of _OPTIONS, in --help order; --config follows
    # Options that must be set once the config file is applied, checked in
    # order before any file is read; a tuple names options any one of which will do.
    required: tuple[str | tuple[str, ...], ...]
    handler: Callable[[argparse.Namespace], Iterable[Path]]


_INPUTS = ("dataset", "table", "corpus")
_REPORT = ("out-dir", "format")
_DATASET = ("publications", "journals", "profiles")
_LOADED = (("table", "corpus"), *_DATASET)  # what _load reads

_COMMANDS: dict[str, Command] = {
    "validate": Command("cross-check a dataset",
                        ("dataset",), _DATASET, cmd_validate),
    "toughness-build": Command("build a toughness table from a corpus",
                               ("corpus", "out"), ("corpus", "out"), cmd_toughness_build),
    "score": Command("score every investigator over a period",
                     (*_INPUTS, "period", "scenario", *_REPORT),
                     ("period", *_LOADED), cmd_score),
    "report-cohort": Command("per-group metric means with significance",
                             (*_INPUTS, "period", "scenario", "cohort", *_REPORT),
                             ("period", "grouping", *_LOADED), cmd_report_cohort),
    "report-trend": Command("annual metric means for a cohort",
                            (*_INPUTS, "span", "scenario", "country", "tier", *_REPORT),
                            ("span", *_LOADED), cmd_report_trend),
    "report-bins": Command("mean leadership by equivalent-time bin",
                           (*_INPUTS, "period", "scenario", "bins", *_REPORT),
                           ("period", *_LOADED), cmd_report_bins),
    "correlate": Command("leadership vs funding correlations",
                         (*_INPUTS, "period", "scenario", "country", *_REPORT),
                         ("period", *_LOADED), cmd_correlate),
    "synth": Command("generate a deterministic synthetic dataset",
                     ("synth", "out-dir"), (), cmd_synth),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _options(command: Command) -> list[tuple[str, dict]]:
    return [option for group in command.groups for option in _OPTIONS[group]]


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The leadindex parser, one subparser per _COMMANDS row.

    ``defaults`` (converted config-file values) replace the declared
    defaults of the options they name; explicit flags still win.
    """
    parser = argparse.ArgumentParser(
        prog="leadindex",
        description="Leadership index scoring and cohort analysis for "
                    "publication datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, spec in (*_options(command), _CONFIG):
            p.add_argument(flag, **spec)
        p.set_defaults(**(defaults or {}))
    return parser


def _config_value(spec: dict, value):
    """Convert one config value as argparse converts the flag's text."""
    convert, choices = spec.get("type"), spec.get("choices")
    if not isinstance(value, list):
        value = str(value)
    elif convert is None:
        raise ValueError(f"expected one value, got {value!r}")
    if convert is not None:
        value = convert(value)
    if choices is not None and value not in choices:
        raise ValueError(f"invalid choice {value!r}")
    return value


def _read_config(args: argparse.Namespace) -> dict:
    """The --config file's values for this subcommand's options, converted.

    Keys of other subcommands are ignored; unknown keys and values the flag
    would reject are usage errors.
    """
    with open(args.config, encoding="utf-8") as f:
        file_config = json.load(f)
    if not isinstance(file_config, dict):
        raise UsageError(f"{args.config}: config must be a JSON object")
    unknown = set(file_config).difference(
        _dest(flag) for group in _OPTIONS.values() for flag, _ in group)
    if unknown:
        raise UsageError(f"{args.config}: unknown config keys: {', '.join(sorted(unknown))}")
    own = {_dest(flag): spec for flag, spec in _options(_COMMANDS[args.command])}
    values = {}
    for key, value in file_config.items():
        if key in own and value is not None:
            try:
                values[key] = _config_value(own[key], value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{args.config}: config key {key}: {exc}") from None
    return values


def _require(args: argparse.Namespace, required) -> None:
    for need in required:
        if isinstance(need, str):
            if getattr(args, need) is None:
                raise UsageError(f"--{need} is required (flag or config file)")
        elif all(getattr(args, name) is None for name in need):
            either = " or ".join(f"--{name}" for name in need)
            raise UsageError(f"need {either} (flag or config file)")


def main(argv=None) -> int:
    # A run makes next to no reference cycles, yet each pass of the cyclic
    # collector would walk every loaded record: records are tuple
    # subclasses, which CPython never untracks. The caller's setting is
    # restored on every exit, a SystemExit from argparse included.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        if args.config is not None:
            args = build_parser(_read_config(args)).parse_args(argv)
        _require(args, command.required)
        for path in command.handler(args):
            log.info("wrote %s", path)
        return 0
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
