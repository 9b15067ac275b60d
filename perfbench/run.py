"""Benchmark of the leadindex CLI: end-to-end runs and a traced per-layer replay.

    python3 perfbench/run.py --workload score_10k --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from the seed (workloads.py, three
times in a child process; the median is ``setup_s``), then runs the real CLI
as a child process, one invocation at a time, for ``--seconds`` seconds and
at least three invocations: a closed loop with one client. Each invocation
is timed from spawn to exit, and its own peak RSS is read with ``os.wait4``
(``RUSAGE_CHILDREN`` would keep the high-water mark of every child). The
first successful invocation's reports are checked (every row, plus an
independent oracle, see checks.py); every later one must produce the same
report digest. An invocation fails on a nonzero exit or a failed check.
The benchmark process itself stays small, because Linux hands a parent's
RSS high-water mark on to each child it starts.

With ``--trace 1`` the run then replays the command in-process, three times
untraced and once traced (replay.py, each in a fresh interpreter), checks
that the replays write reports byte-identical to the CLI's, and reports the
per-layer figures instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count. ``error_rate`` is printed
there and carried in the JSON by ``failed`` / ``attempted``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from workloads import (  # noqa: E402
    FINGERPRINTS, ROOT, SRC, WORKLOADS, Workload, cli_args, digest_files,
)

WORK = ROOT / ".perfbench_work"
# Metric names and units are declared once, in BENCHMARK.json.
DECLARED = ROOT / "BENCHMARK.json"
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 60
# No invocation starts after this many seconds of a run, so that a slow
# machine still ends the run well inside three minutes.
RUN_BUDGET_S = 90
# Seeds without a recorded fingerprint must land within this share of the
# range the recorded seeds span.
FINGERPRINT_SLACK = 0.02
REPLAY_REPEAT = 3


class FingerprintError(Exception):
    """The generated load differs from the one recorded for the workload."""


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(args: list, log: Path) -> tuple[int, float, int]:
    """Run ``leadindex`` once; (exit code, wall seconds, peak RSS in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "leadindex.cli", *map(str, args)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        signal.alarm(INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:  # the alarm, or this run being stopped
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def digest_dir(path: Path) -> str:
    return digest_files(sorted(path.iterdir()))


def check_fingerprint(w: Workload, seed: int, fingerprint: dict) -> None:
    recorded = json.loads(FINGERPRINTS.read_text())[w.name]
    if str(seed) in recorded:
        if fingerprint != recorded[str(seed)]:
            raise FingerprintError(
                f"{w.name} seed {seed}: generated {fingerprint}, "
                f"recorded {recorded[str(seed)]}")
        return
    for key, value in fingerprint.items():
        seen = [r[key] for r in recorded.values()]
        low, high = min(seen) * (1 - FINGERPRINT_SLACK), max(seen) * (1 + FINGERPRINT_SLACK)
        if not low <= value <= high:
            raise FingerprintError(
                f"{w.name} seed {seed}: {key} = {value} outside the recorded "
                f"range {min(seen)}..{max(seen)}")


def check_outputs(w: Workload, inputs: Path, out_dir: Path, run_dir: Path) -> list[str]:
    """Problems in one invocation's reports, judged against the oracle."""
    table = run_dir / "table.csv"
    code, _, _ = spawn(["toughness-build", "--corpus", inputs / "toughness_corpus.csv",
                        "--out", table], run_dir / "cli.log")
    if code != 0:
        return [f"toughness-build exited {code}"]
    try:
        data = checks.Inputs(inputs, w.years, bool(w.if_drop), checks.read_table(table))
    except (OSError, ValueError) as exc:
        return [f"oracle could not read inputs: {exc}"]
    if w.command == "score":
        return checks.check_scorecards(out_dir, data, w.grants_to_cli)
    return checks.check_trend(out_dir, data)


def measure(w: Workload, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    started = time.monotonic()
    compileall.compile_dir(SRC, quiet=1)  # invocations run from cached bytecode
    inputs = run_dir / "inputs"
    setup = run_child("workloads.py", "--workload", w.name, "--seed", str(seed),
                      "--out", str(inputs))
    fingerprint = setup["fingerprint"]
    check_fingerprint(w, seed, fingerprint)

    invocations = []  # (exit code, seconds, peak RSS KiB, report digest)
    reference = None
    deadline = time.monotonic() + seconds
    while len(invocations) < MIN_INVOCATIONS or time.monotonic() < deadline:
        if time.monotonic() - started > RUN_BUDGET_S:
            break
        out_dir = run_dir / f"out{len(invocations)}"
        code, wall, rss = spawn(cli_args(w, inputs, out_dir), run_dir / "cli.log")
        digest = digest_dir(out_dir) if code == 0 else None
        invocations.append((code, wall, rss, digest))
        if code == 0 and reference is None:
            reference = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)

    problems = []
    if reference is None:
        problems.append("no invocation exited 0")
    else:
        problems += check_outputs(w, inputs, reference, run_dir)
    ref_digest = digest_dir(reference) if reference else None
    failed = sum(
        1 for code, _, _, digest in invocations
        if code != 0 or digest != ref_digest or problems
    )
    if failed and reference is not None and not problems:
        problems.append("report digests differ between invocations")
    if failed:
        log = (run_dir / "cli.log").read_text(errors="replace").splitlines()
        print("\n".join(log[-20:]), file=sys.stderr)

    times = [wall for _, wall, _, _ in invocations]
    run_s = statistics.median(times)
    result = {
        "workload": w.name, "seed": seed, "invocations": invocations,
        "problems": problems, "failed": failed, "fingerprint": fingerprint,
        "end_to_end": {
            "run_s": (run_s, len(times)),
            "rows_per_s": (fingerprint["publications"] / run_s, len(times)),
            "peak_rss_mb": (statistics.median(rss * 1024 / 1e6 for _, _, rss, _ in invocations),
                            len(invocations)),
            "setup_s": (statistics.median(setup["setup_s"]), len(setup["setup_s"])),
        },
    }
    if trace and reference is not None:
        result["per_layer"], result["spans"] = trace_layers(
            w, inputs, reference, run_dir, run_s, fingerprint, problems)
    return result


def run_child(script: str, *args: str) -> dict:
    """Run a benchmark script in a fresh interpreter; its last JSON line."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name(script)), *args],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True,
    )
    return json.loads(out.stdout.decode().splitlines()[-1])


def trace_layers(w, inputs, reference, run_dir, run_s, fingerprint, problems):
    """Untraced and traced replays; per-layer (value, unit, samples) figures."""
    replay_args = ("--workload", w.name, "--inputs", str(inputs), "--out")
    replay_s = statistics.median(
        run_child("replay.py", *replay_args, str(run_dir / "replay_out"))["replay_s"]
        for _ in range(REPLAY_REPEAT)
    )
    traced = run_child("replay.py", *replay_args, str(run_dir / "traced_out"), "--trace")
    for name in ("replay_out", "traced_out"):
        if digest_dir(run_dir / name) != digest_dir(reference):
            problems.append(f"in-process {name} reports differ from the CLI's")
    figures = traced["figures"]
    # A difference of two medians: it reads near zero, or below, when start-up
    # costs less than the run-to-run spread.
    figures["cli.overhead_s"] = run_s - replay_s
    # The replay records about twenty spans, which cost microseconds, so this
    # mostly reads the spread between replays; a large rise would mean the
    # tracing itself has become costly.
    figures["trace.overhead_s"] = figures.pop("command_s") - replay_s
    figures["model.if_rows"] = fingerprint["if_rows"]
    figures["model.if_misses"] = fingerprint["if_misses"]
    figures["analysis.trend_pi_years"] = fingerprint["trend_pi_years"]
    layer = {name: (value, 1) for name, value in figures.items()}
    layer["cli.overhead_s"] = (figures["cli.overhead_s"], REPLAY_REPEAT)
    return layer, traced["spans"]


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    declared = json.loads(DECLARED.read_text())
    attempted = len(result["invocations"])
    failed = result["failed"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{attempted} CLI invocation(s), {failed} failed; "
          f"fingerprint {json.dumps(result['fingerprint'])}")
    times = sorted(wall for _, wall, _, _ in result["invocations"])
    print(f"  invocation seconds: min {times[0]:.4f} max {times[-1]:.4f}")
    print(f"  {'error_rate':24s} {failed / attempted:14.6g} {'ratio':6s} "
          f"({failed} of {attempted} invocations)")
    metrics = {}
    for section in ["end_to_end"] + (["per_layer"] if trace else []):
        measured = result.get(section, {})
        for spec in declared[section]:
            name, unit = spec["name"], spec["unit"]
            if name not in measured:
                result["problems"].append(f"{name} was not measured")
                continue
            value, samples = measured[name]
            what = "median" if samples > 1 else "value"
            print(f"  {name:24s} {value:14.6g} {unit:6s} ({what} of {samples})")
            if section == ("per_layer" if trace else "end_to_end"):
                metrics[name] = {"value": value, "unit": unit}
    if trace:
        print("  spans by self time:")
        for line in result.get("spans", []):
            print(line)
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    return {
        "correct": not result["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leadindex" / "cli.py").is_file():
        print(f"error: no leadindex sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    # Stopped from outside: unwind, so children are killed and files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    run_dir = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = measure(w, args.seed, args.seconds, bool(args.trace), run_dir)
    except FingerprintError as exc:
        print(f"error: workload fingerprint changed: {exc}", file=sys.stderr)
        return 3
    except subprocess.SubprocessError as exc:
        print(f"error: benchmark child process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
