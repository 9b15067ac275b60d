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
from pathlib import Path

from . import fileio, reports, synth
from .analysis import Grouping, bin_by_time, cohort_report, funding_correlations, trend
from .credit import CreditScenario
from .errors import DataValidationError, LeadIndexError
from .metrics import score_all
from .model import (
    TIERS,
    IFFallback,
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


def _parse_exclude(value) -> tuple[float, ...]:
    if isinstance(value, list):  # config-file form [T, ...]
        value = ",".join(map(str, value))
    return tuple(_parse_exclude_t(x) for x in value.split(",") if x != "")


def _config_value(action: argparse.Action, value):
    """Convert one config value as argparse converts the flag's text."""
    if not isinstance(value, list):
        value = str(value)
    elif action.type is None:
        raise ValueError(f"expected one value, got {value!r}")
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {value!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Install the --config file's values as the subcommand's defaults.

    Keys of other subcommands are ignored; unknown keys and values the flag
    would reject are usage errors. Explicit flags still win on re-parse.
    """
    with open(args.config, encoding="utf-8") as f:
        file_config = json.load(f)
    if not isinstance(file_config, dict):
        raise UsageError(f"{args.config}: config must be a JSON object")
    subparsers = next(a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
        for name, p in subparsers.items()
    }
    unknown = set(file_config).difference(*options.values())
    if unknown:
        raise UsageError(f"{args.config}: unknown config keys: {', '.join(sorted(unknown))}")
    own = options[args.command]
    values = {}
    for key, value in file_config.items():
        if key in own and value is not None:
            try:
                values[key] = _config_value(own[key], value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{args.config}: config key {key}: {exc}") from None
    subparsers[args.command].set_defaults(**values)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required (flag or config file)")


def _load_dataset(args: argparse.Namespace) -> ValidatedDataset:
    _require(args, "publications", "journals", "profiles")
    publications = fileio.read_publications(args.publications)
    journals = fileio.read_journals(args.journals)
    profiles = fileio.read_profiles(args.profiles)
    if args.grants is not None:
        totals = aggregate_grants(fileio.read_grants(args.grants))
        profiles = apply_funding(profiles, totals)
    dataset = validate_dataset(publications, journals, profiles, args.if_fallback)
    corresponding = sum(1 for r in dataset.publications if r.is_corresponding)
    log.info("publications: %d total, %d corresponding-author",
             len(dataset.publications), corresponding)
    log.info("profiles: %d investigators", len(dataset.profiles))
    for warning in dataset.warnings:
        log.info("note: %s", warning)
    return dataset


def _load(args: argparse.Namespace, *required: str) -> tuple[ValidatedDataset, ToughnessTable]:
    """Refuse missing options before any file is read, then load dataset and table."""
    _require(args, *required)
    if args.table is None and args.corpus is None:
        raise UsageError("need --table or --corpus (flag or config file)")
    dataset = _load_dataset(args)
    if args.table is None:
        return dataset, _build_table(args)
    table = fileio.read_toughness_table(args.table)
    log.info("toughness table: %d levels over %d papers (loaded)",
             table.level_count, table.total_papers)
    return dataset, table


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


def _score(args: argparse.Namespace, dataset: ValidatedDataset, table: ToughnessTable):
    cards = score_all(dataset, args.period, table, args.scenario)
    scored = sum(1 for c in cards if c.scored)
    log.info("scored %d of %d investigators (%d unscored)",
             scored, len(cards), len(cards) - scored)
    return cards


def _log_written(paths) -> None:
    for path in paths:
        log.info("wrote %s", path)


def cmd_validate(args) -> int:
    _load_dataset(args)
    log.info("validation passed")
    return 0


def cmd_toughness_build(args) -> int:
    _require(args, "corpus", "out")
    table = _build_table(args)
    fileio.write_toughness_table(args.out, table)
    log.info("wrote %s", args.out)
    return 0


def cmd_score(args) -> int:
    dataset, table = _load(args, "period")
    cards = _score(args, dataset, table)
    _log_written(reports.emit_scorecards(cards, args.out_dir, args.format))
    return 0


def cmd_report_cohort(args) -> int:
    dataset, table = _load(args, "period", "grouping")
    cards = _score(args, dataset, table)
    report = cohort_report(
        dataset, cards, args.grouping,
        reference_group=args.reference_group,
        age_reference_year=args.age_reference_year,
    )
    log.info("cohort: %d group(s); excluded %d unscored, %d without %s",
             len(report.groups), report.unscored, report.unknown_group,
             args.grouping.value)
    _log_written(reports.emit_cohort(report, args.out_dir, args.format))
    return 0


def cmd_report_trend(args) -> int:
    dataset, table = _load(args, "span")
    series = trend(dataset, table, args.span, args.scenario,
                   country=args.country, tier=args.tier)
    covered = sum(1 for p in series.points if p.n)
    log.info("trend: %d of %d year(s) with scored investigators",
             covered, len(series.points))
    _log_written(reports.emit_trend(series, args.out_dir, args.format))
    return 0


def cmd_report_bins(args) -> int:
    dataset, table = _load(args, "period")
    cards = _score(args, dataset, table)
    samples = [(c.t_equiv, c.leadership) for c in cards if c.scored]
    series = bin_by_time(samples, step=args.step, max_t=args.max_t,
                         exclude=args.exclude_t)
    log.info("bins: %d bin(s), %d sample(s) excluded",
             len(series.bins), len(series.excluded))
    _log_written(reports.emit_bins(series, args.out_dir, args.format))
    return 0


def cmd_correlate(args) -> int:
    dataset, table = _load(args, "period")
    cards = _score(args, dataset, table)
    if args.country is not None:
        cards = [c for c in cards if dataset.profiles[c.pi_id].country == args.country]
    rows, samples = funding_correlations(dataset, cards)
    log.info("correlations: %d funded investigator(s) in %d group row(s)",
             len(samples), len(rows))
    _log_written(reports.emit_correlations(rows, samples, args.out_dir, args.format))
    return 0


def cmd_synth(args) -> int:
    synth_config = synth.SynthConfig(
        seed=args.seed,
        n_pis=args.pis,
        n_journals=args.journal_count,
        years=args.years,
        papers_per_pi_mean=args.papers_mean,
    )
    paths = synth.synth_corpus(synth_config, args.out_dir)
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
    parser.add_argument("--if-fallback", dest="if_fallback", default=IFFallback.OFF,
                        type=IFFallback, choices=list(IFFallback),
                        metavar="{off,nearest-prior-year}",
                        help="impact-factor year fallback policy (default off)")


def _add_table_options(parser) -> None:
    parser.add_argument("--table", type=Path, default=None,
                        help="prebuilt toughness table file")
    _add_corpus_options(parser)


def _add_corpus_options(parser) -> None:
    parser.add_argument("--corpus", type=Path, default=None,
                        help="toughness reference corpus CSV")
    parser.add_argument("--levels", type=_parse_levels, default=10,
                        help="toughness level count (default 10)")
    parser.add_argument("--divisor-mode", dest="divisor_mode",
                        default=DivisorMode.GEOMETRIC_SUM,
                        type=DivisorMode, choices=list(DivisorMode),
                        metavar="{geometric_sum,half_pow}")


def _add_scoring_options(parser) -> None:
    parser.add_argument("--period", type=lambda s: _parse_span(s, "period"),
                        default=None, help="scoring years, START:END inclusive")
    parser.add_argument("--scenario", default=CreditScenario.RANKED,
                        type=CreditScenario, choices=list(CreditScenario),
                        metavar="{ranked,tied}", help="credit scenario (default ranked)")


def _add_output_options(parser) -> None:
    parser.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("."))
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


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
    _add_corpus_options(p)
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
    p.add_argument("--scenario", default=CreditScenario.RANKED,
                   type=CreditScenario, choices=list(CreditScenario),
                   metavar="{ranked,tied}")
    p.add_argument("--country", default=None)
    p.add_argument("--tier", type=int, choices=TIERS, default=None,
                   help="restrict to one class")
    _add_output_options(p)
    _add_config_option(p)
    p.set_defaults(func=cmd_report_trend)

    p = sub.add_parser("report-bins", help="mean leadership by equivalent-time bin")
    _add_dataset_options(p)
    _add_table_options(p)
    _add_scoring_options(p)
    p.add_argument("--step", type=_parse_step, default=0.5, help="bin width (default 0.5)")
    p.add_argument("--max-t", dest="max_t", type=_parse_max_t, default=None,
                   help="exclude samples with T above this")
    p.add_argument("--exclude-t", dest="exclude_t", default=(),
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
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pis", type=int, default=100)
    p.add_argument("--journal-count", dest="journal_count", type=int, default=40)
    p.add_argument("--years", type=lambda s: _parse_span(s, "years"), default=(2008, 2013),
                   help="publication years, START:END inclusive")
    p.add_argument("--papers-mean", dest="papers_mean", type=float, default=8.0)
    p.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("."))
    _add_config_option(p)
    p.set_defaults(func=cmd_synth)

    return parser


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
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
