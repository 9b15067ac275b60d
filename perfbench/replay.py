"""In-process replay of a workload's CLI command, with per-layer spans.

    python3 perfbench/replay.py --workload score_10k --inputs DIR --out DIR [--trace]

run.py starts this script as a fresh process for each replay, so a replay
starts from the same clean interpreter state as a CLI invocation. It prints
one JSON line: the replay's wall seconds, or with ``--trace`` the per-layer
figures and a span summary.

The replay calls the package's public functions in the order the CLI does
and writes the same reports, so run.py can check that its files are
byte-identical to the CLI's. Tracing wraps each of those functions from
outside the package: a span records the function's name (``module.func``),
its parent span, start, end and, for list results, the row count. Nothing
under src/ is changed. Spans stay in memory until the run ends.

After the command itself, a traced run also sweeps the layers the command
does not call (trend for ``score``; grants and scoring for ``report-trend``;
the cohort, bin and correlation reports for both) on the same dataset, so
every per-layer metric has a figure on every workload. A metric reads the
command's spans when the command makes those calls and the sweep's
otherwise, where it shows the cost of a layer this workload leaves idle.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from workloads import SRC, WORKLOADS, Workload

LAYERS = {
    "fileio": ("read_publications", "read_journals", "read_profiles",
               "read_grants", "read_toughness_corpus"),
    "model": ("aggregate_grants", "apply_funding", "validate_dataset"),
    "toughness": ("estimate_paper_counts", "build_table"),
    "metrics": ("score_all",),
    "analysis": ("trend", "cohort_report", "bin_by_time", "funding_correlations"),
    "reports": ("emit_scorecards", "emit_trend"),
}


class Tracer:
    """Spans as [name, parent, root, start, end, rows]; self time on demand.

    ``parent`` and ``root`` are span indexes (None for a root span).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            root = self._open[0] if self._open else None
            span = [name, parent, root, time.perf_counter(), None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            if isinstance(result, list):
                span[5] = len(result)
            return result
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span[4] - span[3] for span in self.spans]
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def _layer_spans(self, names) -> list[int]:
        """Indexes of the named spans under the first root that has any."""
        by_root: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span[0] in names:
                by_root.setdefault(span[2], []).append(index)
        return by_root[min(by_root)] if by_root else []

    def total(self, *names: str) -> float:
        """Summed self time of the named spans, from the command when it
        makes these calls and from the idle-layer sweep otherwise."""
        own = self.self_times()
        return sum(own[i] for i in self._layer_spans(names))

    def rows(self, *names: str) -> int:
        return sum(self.spans[i][5] or 0 for i in self._layer_spans(names))

    def seconds(self, index: int) -> float:
        return self.spans[index][4] - self.spans[index][3]


def api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package's public stage functions, wrapped in spans when traced."""
    funcs = {}
    for module_name, names in LAYERS.items():
        module = importlib.import_module(f"leadindex.{module_name}")
        for name in names:
            fn = getattr(module, name)
            funcs[name] = tracer.wrap(f"{module_name}.{name}", fn) if tracer else fn
    if tracer:
        funcs["root"] = lambda name, fn: tracer.wrap(name, fn)()
    else:
        funcs["root"] = lambda name, fn: fn()
    return SimpleNamespace(**funcs)


def replay_command(f: SimpleNamespace, w: Workload, inputs: Path, out_dir: Path):
    """Run the workload's CLI command in-process; returns (dataset, table, cards)."""
    from leadindex.model import IFFallback

    publications = f.read_publications(inputs / "publications.csv")
    journals = f.read_journals(inputs / "journals.csv")
    profiles = f.read_profiles(inputs / "profiles.csv")
    if w.grants_to_cli:
        profiles = f.apply_funding(
            profiles, f.aggregate_grants(f.read_grants(inputs / "grants.csv")))
    fallback = IFFallback.NEAREST_PRIOR_YEAR if w.if_drop else IFFallback.OFF
    dataset = f.validate_dataset(publications, journals, profiles, fallback)
    rows = f.read_toughness_corpus(inputs / "toughness_corpus.csv")
    estimates, _ = f.estimate_paper_counts(
        (f"{journal} ({year})", citations, impact)
        for journal, year, citations, impact in rows
    )
    table = f.build_table((count, impact) for _, count, impact in estimates)
    cards = None
    if w.command == "score":
        cards = f.score_all(dataset, w.years, table)
        f.emit_scorecards(cards, out_dir)
    else:
        f.emit_trend(f.trend(dataset, table, w.years), out_dir)
    return dataset, table, cards


def sweep_idle_layers(f: SimpleNamespace, w: Workload, inputs: Path, dataset, table, cards):
    """Call the layers the command skipped, so each has a figure; returns cards."""
    from leadindex.analysis import Grouping

    if cards is None:
        f.apply_funding(dataset.profiles.values(),
                        f.aggregate_grants(f.read_grants(inputs / "grants.csv")))
        cards = f.score_all(dataset, w.years, table)
    else:
        f.trend(dataset, table, w.years)
    f.cohort_report(dataset, cards, Grouping.CLASS, reference_group="1")
    f.bin_by_time([(c.t_equiv, c.leadership) for c in cards if c.scored])
    # Correlations need one currency, so one country, as `correlate --country`.
    f.funding_correlations(
        dataset, [c for c in cards if dataset.profiles[c.pi_id].country == "CN"])
    return cards


def replay(w: Workload, inputs: Path, out_dir: Path) -> float:
    """Untraced replay of the command; returns its wall seconds."""
    f = api()
    t0 = time.perf_counter()
    replay_command(f, w, inputs, out_dir)
    return time.perf_counter() - t0


def _ns_per_call(fn, args_list, repeat: int = 5) -> float:
    """Median over repeats of the mean ns per call of ``fn(*args)``."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / len(args_list))
    return statistics.median(samples)


def traced_replay(w: Workload, inputs: Path, out_dir: Path) -> tuple[dict, Tracer]:
    """Traced replay plus idle-layer sweep and call-cost probes.

    Returns (figures, tracer): per-layer seconds and counts keyed by metric
    name, and the tracer holding every span.
    """
    from leadindex.credit import a_index
    from leadindex.toughness import weight_of

    tracer = Tracer()
    f = api(tracer)
    dataset, table, cards = f.root(
        "command", lambda: replay_command(f, w, inputs, out_dir))
    cards = f.root(
        "sweep", lambda: sweep_idle_layers(f, w, inputs, dataset, table, cards))

    start, end = w.years
    scored = [r for r in dataset.publications
              if r.is_corresponding and start <= r.year <= end]
    reads = LAYERS["fileio"]
    figures = {
        "command_s": tracer.seconds(0),
        "fileio.read_s": tracer.total(*(f"fileio.{n}" for n in reads)),
        "fileio.publications_s": tracer.total("fileio.read_publications"),
        "fileio.grants_s": tracer.total("fileio.read_grants"),
        "fileio.rows": tracer.rows(*(f"fileio.{n}" for n in reads)),
        "model.validate_s": tracer.total("model.validate_dataset"),
        "model.grants_s": tracer.total("model.aggregate_grants", "model.apply_funding"),
        "toughness.table_s": tracer.total("toughness.estimate_paper_counts",
                                          "toughness.build_table"),
        "toughness.weight_of_ns": _ns_per_call(
            weight_of, [(table, dataset.resolved_if[r.paper_id]) for r in scored]),
        "credit.a_index_ns": _ns_per_call(
            a_index, [(r.author_count, r.credit_position, r.tie_span) for r in scored]),
        "metrics.score_all_s": tracer.total("metrics.score_all"),
        "metrics.cards": len(cards),
        "metrics.papers_scored": sum(c.paper_count for c in cards),
        "analysis.trend_s": tracer.total("analysis.trend"),
        "analysis.cohort_s": tracer.total("analysis.cohort_report"),
        "analysis.bins_s": tracer.total("analysis.bin_by_time"),
        "analysis.correlate_s": tracer.total("analysis.funding_correlations"),
        "reports.emit_s": tracer.total("reports.emit_scorecards", "reports.emit_trend"),
        "reports.bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
    }
    pubs_rows = tracer.rows("fileio.read_publications")
    figures["fileio.us_per_row"] = figures["fileio.publications_s"] / pubs_rows * 1e6
    return figures, tracer


def span_table(tracer: Tracer) -> list[str]:
    """Per root span, one line per span name: calls and summed self seconds."""
    own = tracer.self_times()
    lines = []
    for root, (name, *_) in enumerate(tracer.spans):
        if tracer.spans[root][2] is not None:
            continue
        total = tracer.seconds(root)
        totals: dict[str, list] = {}
        for index, span in enumerate(tracer.spans):
            if span[2] == root:
                entry = totals.setdefault(span[0], [0, 0.0])
                entry[0] += 1
                entry[1] += own[index]
        lines.append(f"  {name}: {total:.4f} s, {own[root]:.4f} s outside the spans below")
        for span_name, (calls, seconds) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"    {span_name:32s} {calls:3d} call(s) {seconds:9.4f} s self "
                         f"{100 * seconds / total:5.1f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    if args.trace:
        figures, tracer = traced_replay(w, args.inputs, args.out)
        print(json.dumps({"figures": figures, "spans": span_table(tracer)}))
    else:
        print(json.dumps({"replay_s": replay(w, args.inputs, args.out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
