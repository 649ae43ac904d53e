"""End-to-end and per-layer benchmark of the repro PFI tool.

Run from the repository root::

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--trace 0`` times the passes of the workload that fill about
``--seconds`` with tracing off and prints the end-to-end metrics; ``--trace 1`` runs one fixed pass twice
untraced and twice traced and prints the per-layer metrics.  Either way
the outputs are checked, a human-readable report goes to stdout, and
the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 when every check passed, 1 when one failed (the
JSON line is still printed) and 2 when the program under test cannot be
found.  ``--record-expected`` rewrites ``expected.json`` from the code
as it stands.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from calibration import at_reference_speed, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"

WORKLOAD_NAMES = ("paper", "fuzz", "explore", "sweep")

#: fresh interpreters started to time set-up; setup_s is their median
SETUP_PROBES = 5
#: reference loops each of them times after its set-up
SETUP_LOOPS = 2


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="build the workload in DIR and exit (used to "
                             "time set-up in a fresh interpreter)")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from the current code")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_expected:
        parser.error("--workload is required")
    return args


def import_program() -> bool:
    """Put ``src`` on the path; False when repro is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro
    return Path(repro.__file__).resolve().is_relative_to(SRC.resolve())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def tail_percentile(values: Sequence[float], *, higher_better: bool = False):
    """(p, value): the highest percentile with >= 10 samples beyond it.

    None when the sample is too small for a tail above the median.  For
    a rate (higher is better) the tail is the slow end, the (100 - p)th
    percentile.
    """
    count = len(values)
    percent = math.floor(100 * (1 - 10 / count)) if count else 0
    if percent < 50:
        return None, None
    ordered = sorted(values, reverse=higher_better)
    rank = max(1, math.ceil(percent / 100 * count))
    return percent, ordered[rank - 1]


def describe(name: str, unit: str, values: Sequence[float], *,
             higher_better: bool = False) -> str:
    if not values:
        return f"  {name:<28} no samples"
    median = statistics.median(values)
    percent, tail = tail_percentile(values, higher_better=higher_better)
    tail_text = (f"p{percent} {tail:.6g}" if percent is not None
                 else "(n < 20: no tail)")
    return (f"  {name:<28} median {median:<10.6g} {unit:<7} "
            f"{tail_text:<18} n={len(values)}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> Tuple[List[float],
                                                    List[float]]:
    """Seconds from a fresh interpreter to a built workload, per probe.

    Returns the probe times and the reference loops timed around them.
    Each probe also times the loop itself, right after its set-up and
    on the core it ran on; those loops are not part of its time.
    """
    samples, reference = [], [time_reference()]
    for probe in range(SETUP_PROBES):
        probe_dir = WORK / f"setup-{workload}-{os.getpid()}-{probe}"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--setup-only", str(probe_dir)]
        started = perf_counter()
        try:
            done = subprocess.run(command, check=True, timeout=120,
                                  stdout=subprocess.PIPE, text=True)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        elapsed = perf_counter() - started
        own = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(elapsed - sum(own))
        reference.extend(own)
        reference.append(time_reference())
    return samples, reference


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

class Run:
    """Everything one invocation measured and checked."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        #: seconds of the calibration loop, timed between passes
        self.reference: List[float] = []

    def add(self, result) -> None:
        self.passes.append(result)
        self.attempted += result.attempted
        self.failed += result.failed
        self.failures.update(result.failures)
        self.problems.extend(result.problems)

    def samples(self, name: str) -> List[float]:
        return [value for result in self.passes
                for value in result.samples.get(name, ())]

    def total(self, name: str) -> float:
        return sum(result.totals.get(name, 0) for result in self.passes)

    def require_equal(self, what: str, values: List) -> None:
        """Fail loudly when values that must repeat exactly do not."""
        if any(value != values[0] for value in values[1:]):
            self.problems.append(
                f"NONDETERMINISM: {what} differs between passes that must "
                f"repeat exactly: {values}")


def pass_count(workload, seconds: float) -> int:
    """Passes that fill about ``seconds`` on the reference machine.

    A fixed count, not a deadline: a deadline would make the operations
    attempted and failed depend on how fast the machine ran.
    """
    return max(1, round(seconds / workload.pass_s))


def timed_run(workload, seconds: float) -> Run:
    run = Run(workload)

    def between() -> None:
        run.reference.append(time_reference())

    for index in range(pass_count(workload, seconds)):
        run.add(workload.run_pass(index, between))
    between()
    if workload.same_every_pass:
        run.require_equal("output digest",
                          [result.digest for result in run.passes])
        run.require_equal("program counts",
                          [result.counts for result in run.passes])
    return run


def traced_run(workload):
    """Untraced, traced, untraced, traced: four passes of pass 0."""
    from tracing import Tracer
    run = Run(workload)
    tracer = Tracer()
    totals, spans = [], None
    for traced in (False, True, False, True):
        if traced:
            tracer.install()
        try:
            run.add(workload.run_pass(0))
        finally:
            tracer.uninstall()
        if traced:
            totals.append(tracer.totals())
            if spans is None:
                spans = tracer.spans()
            tracer.reset()
    untraced = [run.passes[0], run.passes[2]]
    traced_passes = [run.passes[1], run.passes[3]]
    run.require_equal("output digest (untraced vs traced)",
                      [result.digest for result in run.passes])
    run.require_equal("program counts (untraced vs traced)",
                      [result.counts for result in run.passes])
    run.require_equal("traced exact counts",
                      [total.counts for total in totals])
    if tracer.missing:
        print(f"warning: wrap points not found: {', '.join(tracer.missing)}",
              file=sys.stderr)
    first = traced_passes[0]
    unattributed = first.program_s - sum(totals[0].self_s.values())
    if unattributed < -1e-6 or totals[0].covered_s > first.program_s + 1e-6:
        run.problems.append("trace: spans recorded outside the timed legs")
    overhead = (sum(result.program_s for result in traced_passes)
                / sum(result.program_s for result in untraced))
    metrics = layer_metrics(totals[0], first, overhead=overhead,
                            unattributed=unattributed)
    return run, metrics, spans


def layer_metrics(total, result, *, overhead: float,
                  unattributed: float) -> Dict[str, Dict[str, float]]:
    """The per-layer metrics of one traced pass."""
    counts = dict(total.counts)
    counts.update(result.counts)
    self_s = total.self_s
    point_calls = total.point_calls
    point_total = total.point_total_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def point(label: str) -> str:
        return next(key for key in point_calls if key.endswith(label))

    verdicts = sum(counts[name] for name in (
        "core.pfi.drops", "core.pfi.delays", "core.pfi.duplicates",
        "core.pfi.injects"))
    fork = point("Checkpoint.fork")
    merge = point("merge_campaign_dir")
    executed = counts.get("oracle.fuzz.executed", 0)
    schedules = counts.get("oracle.explore.schedules", 0)
    values = {
        "netsim.events": (counts["netsim.events"], "count"),
        "netsim.self_s": (self_s["netsim"], "s"),
        "netsim.us_per_event": (1e6 * ratio(self_s["netsim"],
                                            counts["netsim.events"]), "us"),
        "netsim.trace.entries": (counts["netsim.trace.entries"], "count"),
        "netsim.trace.self_s": (self_s["netsim.trace"], "s"),
        "xkernel.calls": (counts["xkernel.calls"], "count"),
        "xkernel.msg_copies": (counts["xkernel.msg_copies"], "count"),
        "xkernel.self_s": (self_s["xkernel"], "s"),
        "core.pfi.verdicts": (verdicts, "count"),
        "core.pfi.drops": (counts["core.pfi.drops"], "count"),
        "core.pfi.delays": (counts["core.pfi.delays"], "count"),
        "core.pfi.duplicates": (counts["core.pfi.duplicates"], "count"),
        "core.pfi.injects": (counts["core.pfi.injects"], "count"),
        "core.pfi.self_s": (self_s["core.pfi"], "s"),
        "core.tclish.evals": (counts["core.tclish.evals"], "count"),
        "core.tclish.us_per_eval": (1e6 * ratio(
            self_s["core.tclish"], counts["core.tclish.evals"]), "us"),
        "core.tclish.self_s": (self_s["core.tclish"], "s"),
        "core.tclish.lint.scripts": (counts["core.tclish.lint.scripts"],
                                     "count"),
        "core.tclish.lint.self_s": (self_s["core.tclish.lint"], "s"),
        "staticcheck.self_s": (self_s["staticcheck"], "s"),
        "tcp.segments": (counts["tcp.segments"], "count"),
        "tcp.self_s": (self_s["tcp"], "s"),
        "gmp.msgs": (counts["gmp.msgs"], "count"),
        "gmp.self_s": (self_s["gmp"], "s"),
        "oracle.entries_checked": (counts["oracle.entries_checked"],
                                   "count"),
        "oracle.self_s": (self_s["oracle"], "s"),
        "oracle.fuzz.findings": (counts.get("oracle.fuzz.findings", 0),
                                 "count"),
        "oracle.fuzz.corpus_frac": (ratio(
            counts.get("oracle.fuzz.corpus", 0), executed), "frac"),
        "oracle.explore.schedules": (schedules, "count"),
        "oracle.explore.distinct_frac": (ratio(
            counts.get("oracle.explore.distinct", 0), schedules), "frac"),
        "oracle.explore.events_per_schedule": (ratio(
            counts.get("oracle.explore.events", 0), schedules), "count"),
        "analysis.export.entries": (counts["analysis.export.entries"],
                                    "count"),
        "analysis.export.self_s": (self_s["analysis.export"], "s"),
        "core.checkpoint.captures": (counts["core.checkpoint.captures"],
                                     "count"),
        "core.checkpoint.forks": (counts["core.checkpoint.forks"], "count"),
        "core.checkpoint.fork_ms": (1e3 * ratio(point_total[fork],
                                                point_calls[fork]), "ms"),
        "core.checkpoint.cold_fallbacks": (
            counts["core.checkpoint.cold_fallbacks"], "count"),
        "core.checkpoint.self_s": (self_s["core.checkpoint"], "s"),
        "core.orchestrator.runs": (counts["core.orchestrator.runs"],
                                   "count"),
        "core.orchestrator.self_s": (self_s["core.orchestrator"], "s"),
        "core.orchestrator.us_per_run": (1e6 * ratio(
            self_s["core.orchestrator"], counts["core.orchestrator.runs"]),
            "us"),
        "core.fabric.self_s": (self_s["core.fabric"], "s"),
        "core.fabric.spawn_s": (result.layer.get("core.fabric.spawn_s", 0.0),
                                "s"),
        "core.fabric.worker_busy_frac": (
            result.layer.get("core.fabric.worker_busy_frac", 0.0), "frac"),
        "core.fabric.leases": (counts.get("core.fabric.leases", 0), "count"),
        "core.fabric.expired": (counts.get("core.fabric.expired", 0),
                                "count"),
        "core.fabric.stolen": (counts.get("core.fabric.stolen", 0), "count"),
        "core.fabric.store_puts": (counts.get("core.fabric.store_puts", 0),
                                   "count"),
        "core.fabric.store_hits": (counts.get("core.fabric.store_hits", 0),
                                   "count"),
        "core.fabric.merge_s": (ratio(point_total[merge],
                                      point_calls[merge]), "s"),
        "obs.journal.records": (counts.get("obs.journal.records", 0),
                                "count"),
        "obs.journal.bytes": (result.layer.get("obs.journal.bytes", 0),
                              "bytes"),
        "obs.journal.self_s": (self_s["obs.journal"], "s"),
        "bench.traced_wall_s": (result.program_s, "s"),
        "bench.unattributed_s": (unattributed, "s"),
        "bench.trace_overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


# ----------------------------------------------------------------------
# the end-to-end metrics
# ----------------------------------------------------------------------

def interquartile_mean(values: Sequence[float]) -> float:
    """The mean of the middle half of the values (a 25% trimmed mean)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def leg_value(run: Run, leg: str) -> float:
    """A leg's gated value: its interquartile mean at reference speed.

    Not the median: a short leg (the TCP artifacts take 0.2 s, a resume
    0.05 s, a fuzz batch tens of ms) lands mostly in one fast or slow
    spell of the machine, so its samples are two-humped and their median
    jumps between the humps from run to run.  Not the plain mean either:
    a rare fuzz session whose cases cost several times the usual would
    move it.  The readable report gives the raw medians and tails.
    """
    samples = run.samples(leg)
    if not samples:
        return float("nan")
    return at_reference_speed(interquartile_mean(samples), run.reference)


def named_report(run: Run) -> List[str]:
    """The workload's own metrics, by name, with medians and tails."""
    name = run.workload.name
    lines = []
    if name == "paper":
        lines += [describe("paper_tcp_s", "s", run.samples("paper_tcp_s")),
                  describe("paper_gmp_s", "s", run.samples("paper_gmp_s"))]
    elif name == "fuzz":
        for protocol in ("gmp", "tcp"):
            executed = run.total(f"fuzz_{protocol}_executed")
            wall = run.total(f"fuzz_{protocol}_wall_s")
            rate = executed / wall if wall else 0.0
            lines.append(f"  fuzz_{protocol}_trials_per_s{'':6} {rate:<10.6g} "
                         f"trials/s ({executed:.0f} trials in {wall:.3f} s)")
            lines.append(describe(f"  {protocol} trial (per batch)", "s",
                                  run.samples(f"fuzz_{protocol}_trial_s")))
    elif name == "explore":
        lines += [describe("explore_s", "s", run.samples("explore_s")),
                  describe("  self_death", "s",
                           run.samples("explore_self_death_s")),
                  describe("  fixed", "s", run.samples("explore_fixed_s"))]
    else:
        lines += [describe("sweep_runs_per_s", "runs/s",
                           run.samples("sweep_runs_per_s"),
                           higher_better=True),
                  describe("sweep_resume_s", "s",
                           run.samples("sweep_resume_s")),
                  describe("  fresh sweep", "s",
                           run.samples("sweep_fresh_s"))]
    return lines


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not import_program():
        print(f"e2ebench: the repro package is not under {SRC}; run from "
              f"the root of a repro checkout", file=sys.stderr)
        return 2
    import workloads
    if args.record_expected:
        expected = workloads.record_expected()
        workloads.EXPECTED_PATH.write_text(
            json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return 0
    if args.setup_only:
        workloads.make_workload(args.workload, args.seed,
                                Path(args.setup_only))
        print(json.dumps([time_reference() for _ in range(SETUP_LOOPS)]))
        return 0

    setup, setup_reference = measure_setup(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        if args.trace:
            run, metrics, spans = traced_run(workload)
        else:
            run = timed_run(workload, args.seconds)
        run.problems.extend(workload.final_checks())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.passes)}")
    print(describe("setup (raw)", "s", setup))
    for line in named_report(run):
        print(line)
    print(f"  operations: attempted {run.attempted} failed {run.failed}"
          + (" (" + ", ".join(f"{kind} {count}" for kind, count
                              in sorted(run.failures.items())) + ")"
             if run.failures else ""))
    if args.trace:
        span_path = WORK / f"spans-{args.workload}.jsonl"
        from tracing import write_spans
        write_spans(span_path, spans)
        print(f"  spans of the first traced pass: {span_path}")
        for name, metric in metrics.items():
            print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {
            "setup_s": {"value": at_reference_speed(
                statistics.median(setup), setup_reference), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "leg1_s": {"value": leg_value(run, workload.legs[0]),
                       "unit": "s"},
            "leg2_s": {"value": leg_value(run, workload.legs[1]),
                       "unit": "s"},
        }
        print(describe("reference loop", "s", run.reference)
              + f" mean {statistics.fmean(run.reference):.6g}")
        for name, metric in metrics.items():
            print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    samples_path = WORK / f"samples-{args.workload}-trace{args.trace}.json"
    WORK.mkdir(exist_ok=True)
    samples_path.write_text(json.dumps({
        "seed": args.seed, "setup_s": setup, "setup_reference_s":
        setup_reference, "reference_s": run.reference,
        "samples_s": {name: run.samples(name) for name in sorted(
            {key for result in run.passes for key in result.samples})}}))
    print(f"  raw samples: {samples_path}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
