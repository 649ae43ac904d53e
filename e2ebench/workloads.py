"""The four benchmark workloads, driven through repro's public API.

Each workload is built from the workload seed (set-up: imports, input
generation, campaign directory creation) and then runs *passes*, one
fixed unit of work at a time.  ``pass_s`` is a workload's nominal
seconds per pass on the reference machine; a timed run does
``--seconds / pass_s`` passes, so the work it does, and the operations
it attempts and fails, depend on the seed alone and not on the speed
of the machine.  A pass reports its timed legs, the
operations it attempted and failed (with exception types), a digest of
the program's outputs and the exact counts the program itself reports.
Only calls into repro are inside the timed legs; reading outputs back
and digesting them is not.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.distributions import derive_seed

#: where the recorded reference digests live
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _nothing() -> None:
    """Default ``between`` hook: run_pass calls it before each timed leg."""


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


@dataclass
class PassResult:
    """What one pass of a workload did."""

    #: timing samples in seconds, by metric name
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: seconds spent inside calls into repro (the timed legs)
    program_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: failed operations by exception type
    failures: Counter = field(default_factory=Counter)
    #: digest of everything the program output in this pass
    digest: str = ""
    #: exact counts the program reports about its own work
    counts: Dict[str, int] = field(default_factory=dict)
    #: per-layer figures read from the program's outputs
    layer: Dict[str, float] = field(default_factory=dict)
    #: quantities summed over passes to form aggregate rates
    totals: Dict[str, float] = field(default_factory=dict)
    #: output checks that failed
    problems: List[str] = field(default_factory=list)

    def add_sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------

PAPER_TCP = ("table1", "table2", "table3", "table4", "exp5", "figure4")
PAPER_GMP = ("table5", "table6", "table7", "table8")


def render_artifact(command, args) -> str:
    """What one ``repro`` table command prints."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        command(args)
    return buffer.getvalue()


class Paper:
    """Every paper artifact, rendered exactly as ``repro all`` renders it."""

    name = "paper"
    same_every_pass = True
    legs = ("paper_tcp_s", "paper_gmp_s")
    pass_s = 2.5

    def __init__(self, seed: int, workdir: Path):
        # the CLI imports experiment modules lazily; import them here so
        # the first pass does not pay for it
        import repro.experiments.gmp_packet_interruption  # noqa: F401
        import repro.experiments.gmp_partition  # noqa: F401
        import repro.experiments.gmp_proclaim  # noqa: F401
        import repro.experiments.gmp_timer  # noqa: F401
        import repro.experiments.tcp_delayed_ack  # noqa: F401
        import repro.experiments.tcp_keepalive  # noqa: F401
        import repro.experiments.tcp_reordering  # noqa: F401
        import repro.experiments.tcp_retransmission  # noqa: F401
        import repro.experiments.tcp_zero_window  # noqa: F401
        from repro.cli import COMMANDS, build_parser
        self.commands = COMMANDS
        self.args = build_parser().parse_args(["all"])
        self.expected = load_expected()["paper"]

    def run_pass(self, index: int = 0, between=_nothing) -> PassResult:
        result = PassResult()
        texts: Dict[str, str] = {}
        for leg, names in (("paper_tcp_s", PAPER_TCP),
                           ("paper_gmp_s", PAPER_GMP)):
            between()
            started = perf_counter()
            for name in names:
                result.attempted += 1
                try:
                    texts[name] = render_artifact(self.commands[name],
                                                  self.args)
                except Exception as exc:  # counted, not fatal
                    result.failed += 1
                    result.failures[type(exc).__name__] += 1
            elapsed = perf_counter() - started
            result.add_sample(leg, elapsed)
            result.program_s += elapsed
        digests = {name: sha(text) for name, text in texts.items()}
        for name, digest in digests.items():
            if digest != self.expected.get(name):
                result.problems.append(
                    f"paper: {name} rows digest {digest} != recorded "
                    f"{self.expected.get(name)}")
        result.digest = sha(json.dumps(digests, sort_keys=True))
        result.counts["paper.artifacts"] = len(texts)
        return result

    def final_checks(self) -> List[str]:
        """The paper's curve shapes, via repro.analysis.shape."""
        from repro.analysis.shape import intervals_plateau
        from repro.experiments.tcp_retransmission import run_all
        from repro.tcp import BSD_DERIVED
        problems = []
        for vendor, row in run_all().items():
            if not row.backoff_exponential:
                problems.append(f"paper: Table 1 {vendor} backoff is not "
                                f"exponential: {row.intervals}")
            if vendor in BSD_DERIVED and \
                    not intervals_plateau(row.intervals, 64.0):
                problems.append(f"paper: Table 1 {vendor} does not "
                                f"plateau at 64 s: {row.intervals}")
        return problems


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------

#: cases per fuzz session.  Large enough that sessions run into the two
#: known defects (lint-failing generated scripts, StubError from
#: msg_set_field); their unexecuted budget is counted as failed.
FUZZ_BUDGET = 120
#: cases run_fuzz draws and runs per serial batch (its default)
FUZZ_BATCH = 4


class Fuzz:
    """Serial, cold fuzz sessions, alternating GMP and TCP.

    Pass ``k`` runs one GMP and one TCP session whose seeds derive from
    the workload seed and ``k``.  Each session writes a flight-recorder
    journal, which is how the cases an aborted session did execute are
    recovered, and whose timestamps time each batch of cases.
    """

    name = "fuzz"
    same_every_pass = False
    legs = ("fuzz_gmp_trial_s", "fuzz_tcp_trial_s")
    pass_s = 2.5

    def __init__(self, seed: int, workdir: Path):
        from repro.netsim import kinds
        from repro.obs.journal import replay_journal
        from repro.oracle.fuzz import run_fuzz
        self.seed = seed
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.run_fuzz = run_fuzz
        self.replay_journal = replay_journal
        self.run_end = kinds.CAMPAIGN_RUN_END

    def session_seed(self, index: int, protocol: str) -> int:
        return derive_seed(self.seed, "e2ebench-fuzz", index, protocol)

    def run_pass(self, index: int = 0, between=_nothing) -> PassResult:
        result = PassResult()
        digests = []
        for protocol in ("gmp", "tcp"):
            between()
            digests.append(self._session(result, protocol,
                                         self.session_seed(index, protocol)))
        result.digest = sha("\n".join(digests))
        return result

    def _session(self, result: PassResult, protocol: str, seed: int) -> str:
        path = self.workdir / f"fuzz-{protocol}-{seed}.jsonl"
        path.unlink(missing_ok=True)
        report, error = None, None
        started = perf_counter()
        try:
            report = self.run_fuzz(protocol, seed=seed, budget=FUZZ_BUDGET,
                                   journal=str(path))
        except Exception as exc:  # a known defect aborts the session
            error = exc
        wall = perf_counter() - started
        result.program_s += wall
        replay = self.replay_journal(path)
        records = len(replay.events)
        journal_bytes = path.stat().st_size
        path.unlink()
        ends = [event for event in replay.events if event.kind == self.run_end]
        executed = len(ends)
        if report is not None and report.executed != executed:
            result.problems.append(
                f"fuzz {protocol} seed {seed}: report executed "
                f"{report.executed}, journal {executed}")
        result.attempted += FUZZ_BUDGET
        if error is not None:
            result.failed += FUZZ_BUDGET - executed
            result.failures[type(error).__name__] += FUZZ_BUDGET - executed
        # the journal stamps each case when its batch is recorded, so the
        # stamps of consecutive batch ends time one batch of cases
        previous = replay.events[0].t if replay.events else 0.0
        for first in range(0, executed - FUZZ_BATCH + 1, FUZZ_BATCH):
            stamp = ends[first + FUZZ_BATCH - 1].t
            result.add_sample(f"fuzz_{protocol}_trial_s",
                              (stamp - previous) / FUZZ_BATCH)
            previous = stamp
        for name, value in (("executed", executed), ("wall_s", wall)):
            key = f"fuzz_{protocol}_{name}"
            result.totals[key] = result.totals.get(key, 0) + value
        findings = sum(1 for event in ends if event.get("codes"))
        corpus = sum(1 for event in ends if event.get("corpus"))
        if report is not None:
            if len(report.findings) != findings or \
                    len(report.corpus) != corpus:
                result.problems.append(
                    f"fuzz {protocol} seed {seed}: report and journal "
                    f"disagree on findings or corpus")
        for name, value in (("oracle.fuzz.findings", findings),
                            ("oracle.fuzz.corpus", corpus),
                            ("oracle.fuzz.executed", executed),
                            ("obs.journal.records", records)):
            result.counts[name] = result.counts.get(name, 0) + value
        result.layer["obs.journal.bytes"] = (
            result.layer.get("obs.journal.bytes", 0) + journal_bytes)
        cases = [(event.get("label"), event.get("target"),
                  event.get("codes"), event.get("new_coverage"),
                  event.get("coverage_total"), event.get("corpus"))
                 for event in ends]
        outcome = ("ok" if error is None
                   else f"{type(error).__name__}: "
                        f"{str(error).splitlines()[0] if str(error) else ''}")
        coverage = (sorted(map(repr, report.coverage))
                    if report is not None else None)
        return sha(json.dumps([protocol, seed, cases, outcome, coverage],
                              default=str))

    def final_checks(self) -> List[str]:
        """The CI smoke sessions (budget 24, seed 0) match the recording."""
        expected = load_expected()["fuzz_smoke"]
        problems = []
        for protocol in ("gmp", "tcp"):
            report = self.run_fuzz(protocol, seed=0, budget=24)
            digest = fuzz_report_digest(report)
            if digest != expected[protocol]:
                problems.append(f"fuzz: {protocol} seed 0 budget 24 digest "
                                f"{digest} != recorded {expected[protocol]}")
        return problems


def fuzz_report_digest(report) -> str:
    """Case names, targets, verdict codes and coverage of one session."""
    return sha(json.dumps({
        "executed": report.executed,
        "corpus": [(case.script.name, case.target) for case in report.corpus],
        "findings": [(f.case.script.name, f.case.target, f.codes)
                     for f in report.findings],
        "coverage": sorted(map(repr, report.coverage))}))


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------

EXPLORE_TARGETS = ("self_death", "fixed")
#: explore()'s stock schedule budget, counted as failed when it raises
EXPLORE_BUDGET = 64


class Explore:
    """Stock bounded delivery-order exploration of two GMP targets."""

    name = "explore"
    same_every_pass = True
    legs = ("explore_self_death_s", "explore_fixed_s")
    pass_s = 3.8

    def __init__(self, seed: int, workdir: Path):
        from repro.oracle.explore import explore
        self.seed = seed
        self.explore = explore
        self.expected = load_expected()["explore"]

    def run_pass(self, index: int = 0, between=_nothing) -> PassResult:
        result = PassResult()
        digests = {}
        for target in EXPLORE_TARGETS:
            between()
            started = perf_counter()
            try:
                report = self.explore("gmp", target, seed=self.seed)
            except Exception as exc:  # counted, not fatal
                result.program_s += perf_counter() - started
                result.attempted += EXPLORE_BUDGET
                result.failed += EXPLORE_BUDGET
                result.failures[type(exc).__name__] += EXPLORE_BUDGET
                continue
            elapsed = perf_counter() - started
            result.program_s += elapsed
            result.add_sample(f"explore_{target}_s", elapsed)
            result.add_sample("explore_s", elapsed)
            result.attempted += report.schedules
            outcome = explore_outcome(report)
            digests[target] = outcome
            if outcome != self.expected[target]:
                result.problems.append(
                    f"explore {target}: outcome {outcome} != recorded "
                    f"{self.expected[target]}")
            for name, value in (
                    ("oracle.explore.schedules", report.schedules),
                    ("oracle.explore.distinct", report.distinct_outcomes),
                    ("oracle.explore.events", report.simulated_events),
                    ("oracle.explore.nested_captures",
                     report.nested_captures),
                    ("oracle.explore.ancestor_forks", report.ancestor_forks)):
                result.counts[name] = result.counts.get(name, 0) + value
        result.digest = sha(json.dumps(digests, sort_keys=True))
        return result

    def final_checks(self) -> List[str]:
        return []


def explore_outcome(report) -> Dict[str, object]:
    """Outcome-set digest, distinct-outcome count and finding codes."""
    hashes = sorted({outcome.outcome_hash for outcome in report.outcomes})
    return {"outcome_set": sha("\n".join(hashes)),
            "distinct": report.distinct_outcomes,
            "findings": [finding.codes for finding in report.findings]}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

#: generated scripts per TCP vendor; configs = scripts x 4 vendors
SWEEP_SCRIPTS = 12
SWEEP_WORKERS = 2
#: resumes of each completed sweep; a resume takes tens of ms, so one
#: sample is too short to time steadily
SWEEP_RESUMES = 3


class Sweep:
    """A fresh sockets-backend sweep, then three resumes and merges.

    TCP fuzz configs keep each run short, so worker spawn, leasing, the
    result store and the journals are a large share of the sweep.  The
    configs share one warm prefix per vendor, so the sweep is
    prefix-grouped.
    """

    name = "sweep"
    same_every_pass = True
    legs = ("sweep_fresh_s", "sweep_resume_s")
    pass_s = 1.33

    def __init__(self, seed: int, workdir: Path):
        import repro.core.fabric
        from repro.core.orchestrator import Campaign
        from repro.obs.campaign_report import render_stable
        from repro.obs.journal import replay_journal
        from repro.oracle.fuzz import pack_for, prefixed_fuzz_body
        from repro.oracle.grammar import generate_script
        from repro.tcp import VENDORS
        self.seed = seed
        self.Campaign = Campaign
        self.body = prefixed_fuzz_body
        self.oracle = pack_for("tcp")
        # looked up at call time, so a traced pass sees the wrapped merge
        self.fabric = repro.core.fabric
        self.render_stable = render_stable
        self.replay_journal = replay_journal
        targets = sorted(VENDORS)
        scripts = []
        #: configs that could not be generated, by exception type
        self.generation_failures: Counter = Counter()
        for index in range(SWEEP_SCRIPTS):
            rng = random.Random(derive_seed(seed, "e2ebench-sweep", index))
            try:
                scripts.append(generate_script(rng, "tcp", index=index))
            except Exception as exc:  # known defect: lint-failing script
                self.generation_failures[type(exc).__name__] += len(targets)
        self.configs = [{"protocol": "tcp", "target": target,
                         "script": script.source, "init_script": script.init,
                         "direction": script.direction}
                        for target in targets for script in scripts]
        self.root = workdir / "campaigns"
        self.root.mkdir(parents=True, exist_ok=True)
        self._dirs = 0
        self.stable_digests: set = set()

    def _campaign(self):
        return self.Campaign(self.body, seed=self.seed)

    def _run(self, fabric_dir: Path) -> None:
        self._campaign().run(self.configs, workers=SWEEP_WORKERS,
                             telemetry=True, oracle=self.oracle,
                             backend="sockets", fabric_dir=fabric_dir)

    def run_pass(self, index: int = 0, between=_nothing) -> PassResult:
        result = PassResult()
        fabric_dir = self.root / f"sweep-{self._dirs:04d}"
        self._dirs += 1
        generated = len(self.configs)
        failed_generation = sum(self.generation_failures.values())
        result.attempted += generated + failed_generation
        result.failed += failed_generation
        result.failures.update(self.generation_failures)
        between()
        wall_start = time.time()
        started = perf_counter()
        try:
            self._run(fabric_dir)
        except Exception as exc:
            result.program_s += perf_counter() - started
            done = {event.get("index")
                    for events, _opened in
                    self._shard_journals(fabric_dir).values()
                    for event in events if event.kind == "campaign.run_end"}
            missing = generated - len(done)
            result.failed += missing
            result.failures[type(exc).__name__] += missing
            shutil.rmtree(fabric_dir, ignore_errors=True)
            return result
        fresh = perf_counter() - started
        result.program_s += fresh
        result.add_sample("sweep_fresh_s", fresh)
        result.add_sample("sweep_runs_per_s", generated / fresh)
        shards = self._shard_journals(fabric_dir)
        between()
        for _ in range(SWEEP_RESUMES):
            started = perf_counter()
            self._run(fabric_dir)
            summary = self.fabric.merge_campaign_dir(fabric_dir)
            resume = perf_counter() - started
            result.program_s += resume
            result.add_sample("sweep_resume_s", resume)
        self._read_outputs(result, fabric_dir, shards, fresh=fresh,
                           wall_start=wall_start)
        stable = self.render_stable(summary)
        result.digest = sha(stable)
        self.stable_digests.add(result.digest)
        shutil.rmtree(fabric_dir, ignore_errors=True)
        return result

    def _shard_journals(self, fabric_dir: Path) -> Dict[Path, Tuple]:
        """Each shard journal's events and its open time (wall clock).

        A journal stamps events with seconds since it was opened; its
        file's mtime is the wall time of the last event, so the open
        time is the mtime minus the last stamp.
        """
        shards = {}
        for path in sorted((fabric_dir / "journals").glob("shard-*.jsonl")):
            events = self.replay_journal(path).events
            opened = path.stat().st_mtime - (events[-1].t if events else 0.0)
            shards[path] = (events, opened)
        return shards

    def _read_outputs(self, result: PassResult, fabric_dir: Path,
                      shards: Dict[Path, Tuple], *, fresh: float,
                      wall_start: float) -> None:
        """Fabric and journal figures from the campaign directory."""
        coordinator = self.replay_journal(
            fabric_dir / "journals" / "coordinator.jsonl").events
        ends = [event for event in coordinator
                if event.kind == "campaign.end"]
        if len(ends) != 1 + SWEEP_RESUMES:
            result.problems.append(
                f"sweep: {len(ends)} campaign.end records in the "
                f"coordinator journal, expected {1 + SWEEP_RESUMES}")
            return
        fresh_end, resume_ends = ends[0], ends[1:]
        for resume_end in resume_ends:
            if resume_end.get("executed") != 0 or \
                    resume_end.get("cached") != len(self.configs):
                result.problems.append(
                    f"sweep: resume executed {resume_end.get('executed')} "
                    f"runs (cached {resume_end.get('cached')} of "
                    f"{len(self.configs)}); it must execute none")
        puts, busy = 0, 0.0
        first_lease: Dict[str, float] = {}
        for path, (events, opened) in shards.items():
            worker = path.stem.rsplit("-", 1)[-1]
            first_lease[worker] = min(first_lease.get(worker, opened), opened)
            for event in events:
                if event.kind == "campaign.run_end" and \
                        not event.get("cached"):
                    puts += 1
                    busy += (event.get("telemetry") or {}).get("wall_s", 0.0)
        records = journal_bytes = 0
        for path in (fabric_dir / "journals").glob("*.jsonl"):
            with open(path, "rb") as handle:
                data = handle.read()
            records += data.count(b"\n")
            journal_bytes += len(data)
        result.counts.update({
            "core.fabric.leases": len(shards),
            "core.fabric.store_puts": puts,
            "core.fabric.store_hits": sum(int(end.get("cached", 0))
                                          for end in resume_ends),
            "core.fabric.expired": sum(int(end.get("expired", 0))
                                       for end in ends),
            "core.fabric.stolen": sum(int(end.get("stolen", 0))
                                      for end in ends),
            "obs.journal.records": records})
        result.layer.update({
            "obs.journal.bytes": journal_bytes,
            "core.fabric.worker_busy_frac": busy / (SWEEP_WORKERS * fresh),
            "core.fabric.spawn_s": (
                sum(first_lease.values()) / len(first_lease) - wall_start
                if first_lease else 0.0)})

    def final_checks(self) -> List[str]:
        """The merged scorecard equals a local serial run's."""
        from repro.obs.campaign_report import summarize_journal
        path = self.root / "serial.jsonl"
        path.unlink(missing_ok=True)
        self._campaign().run(self.configs, telemetry=True,
                             oracle=self.oracle, journal=path)
        serial = sha(self.render_stable(summarize_journal(path)))
        path.unlink()
        if self.stable_digests != {serial}:
            return [f"sweep: merged stable scorecards "
                    f"{sorted(self.stable_digests)} != serial {serial}"]
        return []


WORKLOADS = {cls.name: cls for cls in (Paper, Fuzz, Explore, Sweep)}


def make_workload(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)


def record_expected() -> Dict[str, Dict]:
    """Reference digests from the code as it stands (see README)."""
    from repro.cli import COMMANDS, build_parser
    from repro.oracle.explore import explore
    from repro.oracle.fuzz import run_fuzz
    args = build_parser().parse_args(["all"])
    return {
        "paper": {name: sha(render_artifact(COMMANDS[name], args))
                  for name in PAPER_TCP + PAPER_GMP},
        "explore": {target: explore_outcome(explore("gmp", target))
                    for target in EXPLORE_TARGETS},
        "fuzz_smoke": {
            protocol: fuzz_report_digest(run_fuzz(protocol, seed=0,
                                                  budget=24))
            for protocol in ("gmp", "tcp")}}
