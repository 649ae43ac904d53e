"""Bounded delivery-order exploration from a checkpoint (DPOR-lite).

Fault scripts perturb *what* messages say; this module perturbs *when*
things happen.  From one warmed-up prefix checkpoint it enumerates
bounded perturbations of the pending event order -- dropping an
in-flight delivery, suppressing or delaying a protocol timer -- and
runs each alternative schedule to the horizon with the protocol's
oracle pack as the verdict.  A schedule whose trace violates an
invariant is a *finding*: a latent bug made observable purely by event
ordering, no filter script required.

This is deliberately not a full dynamic partial-order reduction: the
schedule space is bounded (``max_perturbations`` perturbations per
schedule, ``max_schedules`` schedules total) and reduction is by
*outcome* -- schedules whose canonical traces are byte-identical to one
already seen collapse into it, which catches the bulk of commutative
interleavings at a fraction of a vector-clock implementation's cost.
The checkpoint engine is what makes the sweep affordable: every
schedule forks the same captured prefix instead of re-simulating the
warmup, so exploring N schedules costs N continuations, not N runs.

Schedules are applied best-effort: a perturbation is addressed by step
index into the *baseline* event order, and an earlier perturbation may
shift what later indices refer to.  That is standard for bounded
schedule fuzzing -- every executed schedule is still a real, legal
event order, which is all the oracle verdict needs.

Reforking is **tree-shaped**: while a schedule executes, the explorer
re-checkpoints its branch every ``recheckpoint_every`` steps (a nested
:meth:`Checkpoint.capture` on the running fork), and every later
schedule forks from the *nearest ancestor* whose applied-perturbation
prefix matches its plan instead of from the flat root -- so a branch
that diverges at step d costs one fork plus the steps past d, not d
re-simulated events.  The per-schedule event counts are tracked
(``ExploreReport.simulated_events``) and the nested tree is bounded by
an LRU :class:`CheckpointPool`.

Outcome hashes are incremental for the same reason: every tree node
carries the digest state of its checkpoint's trace prefix, so a
schedule encodes only the entries recorded after the node it forked
from, while the hash stays byte-identical to a full
``sha256(dump_trace(trace, exclude_attrs=VOLATILE_ATTRS))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.export import VOLATILE_ATTRS, TraceDigest
from repro.core.checkpoint import Checkpoint, CheckpointPool
from repro.core.orchestrator import make_env
from repro.netsim import kinds as K
from repro.netsim.link import Link
from repro.netsim.scheduler import Event
from repro.netsim.timer import Timer
from repro.obs.journal import Journal
from repro.obs.progress import ProgressRenderer
from repro.oracle.fuzz import (DEFAULT_DEPTHS, HORIZONS, _gmp_prefix,
                               _targets, _tcp_prefix, pack_for)

#: perturbation actions by event class; "fire" (run as scheduled) is
#: always legal and never counts as a perturbation
ACTIONS = {"delivery": ("drop", "defer"), "timer": ("drop", "defer")}

#: nested-checkpoint tree budget: snapshots kept live at once
_TREE_ITEMS = 32


def classify_event(event: Event) -> str:
    """What kind of world event a scheduler entry is.

    ``delivery``: an in-flight message arriving over a link;
    ``timer``: a protocol timer firing; ``other``: infrastructure
    (workload writes, daemon starts) the explorer leaves alone.
    """
    owner = getattr(event.callback, "__self__", None)
    if isinstance(owner, Link):
        return "delivery"
    if isinstance(owner, Timer):
        return "timer"
    return "other"


def describe_event(event: Event) -> str:
    """A short human-readable label for one pending event."""
    owner = getattr(event.callback, "__self__", None)
    if isinstance(owner, Link):
        payload = event.args[0] if event.args else None
        detail = type(payload).__name__ if payload is not None else "?"
        return f"deliver[{owner.name}] {detail} @{event.time:.3f}"
    if isinstance(owner, Timer):
        return f"timer[{owner.name}] @{event.time:.3f}"
    name = getattr(event.callback, "__qualname__",
                   getattr(event.callback, "__name__", "event"))
    return f"{name} @{event.time:.3f}"


@dataclass(frozen=True)
class Perturbation:
    """One deviation from the baseline order: ``action`` at ``step``."""

    step: int
    action: str
    description: str

    def render(self) -> str:
        return f"{self.action} step {self.step} ({self.description})"


@dataclass
class ScheduleOutcome:
    """What one explored schedule did."""

    perturbations: Tuple[Perturbation, ...]
    codes: List[str]
    violation_count: int
    outcome_hash: str
    novel: bool          # first schedule reaching this outcome hash

    def render(self) -> str:
        plan = (", ".join(p.render() for p in self.perturbations)
                or "baseline")
        verdict = (",".join(self.codes) if self.codes else "conformant")
        return f"{plan} -> {verdict} ({self.violation_count} violations)"


@dataclass
class ExploreReport:
    """The result of one bounded delivery-order exploration."""

    protocol: str
    target: str
    depth: float
    window: float
    horizon: float
    seed: int
    schedules: int = 0
    distinct_outcomes: int = 0
    baseline_codes: List[str] = field(default_factory=list)
    findings: List[ScheduleOutcome] = field(default_factory=list)
    outcomes: List[ScheduleOutcome] = field(default_factory=list)
    #: scheduler events dispatched across all executed schedules
    simulated_events: int = 0
    #: nested checkpoints captured along explored branches
    nested_captures: int = 0
    #: schedules forked from a nested ancestor instead of the root
    ancestor_forks: int = 0
    #: the re-checkpoint interval this exploration ran with (0: flat)
    recheckpoint_every: int = 0

    def render(self) -> str:
        lines = [f"explore {self.protocol}/{self.target}: "
                 f"{self.schedules} schedules in window "
                 f"[{self.depth:g}, {self.depth + self.window:g}], "
                 f"{self.distinct_outcomes} distinct outcomes, "
                 f"findings {len(self.findings)}"]
        lines.append(f"  simulated {self.simulated_events} events"
                     + (f" ({self.ancestor_forks} ancestor forks, "
                        f"{self.nested_captures} nested checkpoints)"
                        if self.recheckpoint_every else ""))
        if self.baseline_codes:
            lines.append(f"  baseline already violates: "
                         f"{','.join(self.baseline_codes)}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines)


def _preflight(protocol: str) -> None:
    """Statically vet the prefix builder before warming anything up.

    The prefix body is about to be simulated to ``depth`` and
    checkpointed; a determinism hazard in it (closure callback,
    wall-clock read) would only surface at capture time, after the
    warm-up is paid for.  Running the SC1xx precheck here moves that
    failure to t=0 with a source position attached.
    """
    from repro.core.orchestrator import CampaignScriptError
    from repro.staticcheck import precheck_body
    prefix = _tcp_prefix if protocol == "tcp" else _gmp_prefix
    report = precheck_body(prefix)
    if not report.ok():
        raise CampaignScriptError([report])


def _prefix_checkpoint(protocol: str, target: str, depth: float,
                       seed: int) -> Checkpoint:
    """Capture the script-free prefix the exploration forks from."""
    env = make_env(seed=seed)
    config = {"protocol": protocol, "target": target}
    if protocol == "tcp":
        roots = _tcp_prefix(env, config, depth)
    else:
        roots = _gmp_prefix(env, config, depth)
    return Checkpoint.capture(
        env, roots, label=f"explore/{protocol}/{target}@{depth:g}")


@dataclass
class _Node:
    """One forkable point of the checkpoint tree."""

    checkpoint: Checkpoint
    #: baseline-window iterations already executed at this point
    step: int
    #: perturbations the branch applied before this point
    applied: Tuple[Perturbation, ...]
    #: digest of the checkpoint's trace prefix (None until first needed)
    digest: Optional[TraceDigest] = None


class _Tree:
    """The checkpoint tree one exploration grows and reforks from.

    The root is the exploration's prefix checkpoint.  Nested nodes are
    keyed ``(applied_pairs, step)``: the world after ``step``
    baseline-window iterations with exactly the perturbations in
    ``applied_pairs`` applied.  A later plan reforks from the deepest
    live node whose applied prefix equals the plan's own entries below
    that step -- never from a node that applied something the plan does
    not want, because keys record what a branch *actually* did, not
    what its plan asked for.  Nodes are captured only along branches a
    longer plan could still extend (fewer than ``max_prefix``
    perturbations applied) and live in an LRU-bounded
    :class:`CheckpointPool`; ``every=0`` grows no nested nodes at all.
    """

    def __init__(self, root: Checkpoint, *, every: int, max_prefix: int,
                 journal: Optional[Journal] = None):
        self.root = _Node(root, 0, ())
        self.every = every
        self.max_prefix = max_prefix
        self.pool = CheckpointPool(max_items=_TREE_ITEMS)
        self._nodes: Dict[Any, _Node] = {}
        self.journal = journal
        self.captures = 0

    def start_for(self, plan: Dict[int, str]) -> _Node:
        """The nearest ancestor to fork for ``plan``: deepest match wins."""
        best = self.root
        for key in self.pool.keys():
            pairs, step = key
            if step <= best.step:
                continue
            prefix = {s: a for s, a in plan.items() if s < step}
            if len(pairs) == len(prefix) and dict(pairs) == prefix:
                if self.pool.get(key) is not None:
                    best = self._nodes[key]
        return best

    def maybe_capture(self, forked, step: int,
                      applied: List[Perturbation]) -> Optional[_Node]:
        """Re-checkpoint a running branch at its ``every``-step marks;
        returns the new node, if one was captured."""
        if self.every <= 0 or step <= 0 or step % self.every:
            return None
        if len(applied) >= self.max_prefix:
            return None  # no longer plan can extend this branch
        key = (tuple((p.step, p.action) for p in applied), step)
        if key in self.pool:
            return None
        checkpoint = Checkpoint.capture(
            forked, label=f"{self.root.checkpoint.label}"
                          f"+{len(applied)}p@{step}",
            audit=False)
        self.pool.put(key, checkpoint)
        node = self._nodes[key] = _Node(checkpoint, step, tuple(applied))
        if len(self._nodes) > len(self.pool):
            # the pool evicted: its nodes' digests go with the snapshots
            self._nodes = {k: n for k, n in self._nodes.items()
                           if k in self.pool}
        self.captures += 1
        if self.journal is not None:
            self.journal.record(
                K.CAMPAIGN_CHECKPOINT_CAPTURE, nested=True, step=step,
                prefix_perturbations=len(applied),
                label=checkpoint.label, identity=checkpoint.identity,
                parent=checkpoint.parent.identity)
        return node


def _outcome_digest(trace, start: _Node, captured: List[_Node]) -> str:
    """The schedule's outcome hash, encoding only what it recorded.

    Equals ``sha256(dump_trace(trace, exclude_attrs=VOLATILE_ATTRS))``:
    the entries below ``start``'s trace position are the checkpoint's
    shared prefix, already digested in ``start.digest`` (computed here
    once if absent).  On the way to the end of the trace, the digest is
    copied onto every node this schedule ``captured``, so later
    schedules forking from them resume there.  Encoding happens after
    the run, as the one-shot dump did, so an entry attribute that
    aliases live state is read in its final form either way.
    """
    if start.digest is None:
        start.digest = TraceDigest(VOLATILE_ATTRS).update(
            islice(trace, start.checkpoint.position))
    digest = start.digest.copy()
    for node in captured:
        node.digest = digest.update(islice(
            trace, digest.count, node.checkpoint.position)).copy()
    digest.update(islice(trace, digest.count, None))
    return digest.hexdigest()[:16]


def _run_schedule(tree: _Tree, plan: Dict[int, str], *, window: float,
                  horizon: float, defer_delta: float, oracle,
                  counters: Dict[str, int]
                  ) -> Tuple[Tuple[Perturbation, ...], List, str]:
    """Execute one schedule; returns (applied plan, violations, hash).

    The schedule starts from its nearest ancestor in ``tree`` (skipping
    every event that ancestor already simulated) and leaves new nested
    checkpoints along its own branch for later schedules; the result is
    byte-identical to a flat root fork, only the number of re-simulated
    events changes (tracked in ``counters``).
    """
    start = tree.start_for(plan)
    forked = start.checkpoint.fork()
    env = forked.env
    scheduler = env.scheduler
    dispatched_before = scheduler.dispatched_count
    end = tree.root.checkpoint.time + window
    step = start.step
    applied: List[Perturbation] = list(start.applied)
    captured: List[_Node] = []
    while True:
        event = scheduler.peek_entry()
        if event is None or event.time > end:
            break
        action = plan.get(step, "fire")
        if action != "fire" and classify_event(event) in ACTIONS:
            applied.append(Perturbation(step, action,
                                        describe_event(event)))
            event.cancel()
            if action == "defer":
                scheduler.schedule_at(event.time + defer_delta,
                                      event.callback, *event.args)
        else:
            scheduler.step()
        step += 1
        node = tree.maybe_capture(forked, step, applied)
        if node is not None:
            captured.append(node)
    env.run_until(horizon)
    counters["events"] += scheduler.dispatched_count - dispatched_before
    if start.step > 0:
        counters["ancestor_forks"] += 1
    from repro.oracle import evaluate
    violations = evaluate(env.trace, oracle()).violations
    return (tuple(applied), violations,
            _outcome_digest(env.trace, start, captured))


def _survey(checkpoint: Checkpoint, *, window: float
            ) -> List[Tuple[str, str]]:
    """The baseline event order inside the window: (class, label) per
    step, observed by single-stepping a throwaway fork."""
    forked = checkpoint.fork()
    scheduler = forked.env.scheduler
    end = checkpoint.time + window
    steps: List[Tuple[str, str]] = []
    while True:
        event = scheduler.peek_entry()
        if event is None or event.time > end:
            break
        steps.append((classify_event(event), describe_event(event)))
        scheduler.step()
    return steps


def _plans(steps: List[Tuple[str, str]], *, max_perturbations: int,
           max_schedules: int) -> List[Dict[int, str]]:
    """Bounded perturbation plans over the surveyed baseline order.

    Baseline first, then every single perturbation in step order, then
    pairs, up to ``max_schedules`` plans total.
    """
    singles: List[Tuple[int, str]] = []
    for index, (kind, _label) in enumerate(steps):
        for action in ACTIONS.get(kind, ()):
            singles.append((index, action))
    plans: List[Dict[int, str]] = [{}]
    for index, action in singles:
        if len(plans) >= max_schedules:
            return plans
        plans.append({index: action})
    if max_perturbations >= 2:
        for i, (index_a, action_a) in enumerate(singles):
            for index_b, action_b in singles[i + 1:]:
                if index_a == index_b:
                    continue
                if len(plans) >= max_schedules:
                    return plans
                plans.append({index_a: action_a, index_b: action_b})
    return plans


def explore(protocol: str = "gmp", target: str = "self_death", *,
            seed: int = 0, depth: Optional[float] = None,
            window: float = 1.5, horizon: Optional[float] = None,
            max_schedules: int = 64, max_perturbations: int = 1,
            defer_delta: float = 4.0, recheckpoint_every: int = 8,
            progress: Optional[Callable[[str], None]] = None,
            journal=None) -> ExploreReport:
    """Explore bounded delivery-order schedules of one protocol target.

    The world is warmed to ``depth`` (default: the protocol's stock
    filter-install time) and checkpointed once; every schedule forks
    it.  Pending events inside ``[depth, depth + window]`` may be
    dropped or deferred by ``defer_delta`` seconds; the run then
    continues undisturbed to ``horizon`` and the protocol's oracle pack
    judges the trace.  Deterministic in all arguments: the same call
    always explores the same schedules.

    ``recheckpoint_every`` (default 8, ``0`` disables) grows a
    checkpoint *tree*: executing schedules re-checkpoint their branch
    every that many steps, and later schedules refork from the nearest
    matching ancestor instead of the root -- same outcomes (the
    reported hashes are byte-identical to the flat path's), strictly
    fewer re-simulated events (``ExploreReport.simulated_events``).

    ``journal`` (a :class:`~repro.obs.journal.Journal` or a path)
    attaches the campaign flight recorder: preflight, the prefix
    capture (root and nested), one ``campaign.run_end`` per executed
    schedule (verdict codes, outcome hash, novelty), and the closing
    summary are appended crash-safe, so an interrupted exploration
    still reports its partial outcome census.
    """
    valid = _targets(protocol) + ("fixed",)
    if target not in valid:
        raise ValueError(f"unknown {protocol} target {target!r}; "
                         f"expected one of {valid}")
    journal_obj, journal_owned = Journal.ensure(journal)
    try:
        return _explore_journaled(
            protocol, target, journal_obj, seed=seed, depth=depth,
            window=window, horizon=horizon, max_schedules=max_schedules,
            max_perturbations=max_perturbations, defer_delta=defer_delta,
            recheckpoint_every=recheckpoint_every, progress=progress)
    finally:
        if journal_owned:
            journal_obj.close()


def _explore_journaled(protocol: str, target: str,
                       journal: Optional[Journal], *, seed: int,
                       depth: Optional[float], window: float,
                       horizon: Optional[float], max_schedules: int,
                       max_perturbations: int, defer_delta: float,
                       recheckpoint_every: int,
                       progress: Optional[Callable[[str], None]]
                       ) -> ExploreReport:
    depth = DEFAULT_DEPTHS[protocol] if depth is None else float(depth)
    horizon = HORIZONS[protocol] if horizon is None else float(horizon)
    if journal is not None:
        journal.start("explore", protocol=protocol, target=target,
                      seed=seed, depth=depth, window=window,
                      horizon=horizon, max_schedules=max_schedules,
                      max_perturbations=max_perturbations,
                      defer_delta=defer_delta)
    try:
        _preflight(protocol)
    except Exception:
        if journal is not None:
            journal.record(K.CAMPAIGN_PREFLIGHT, ok=False)
            journal.record(K.CAMPAIGN_END, status="preflight_failed",
                           executed=0)
        raise
    if journal is not None:
        journal.record(K.CAMPAIGN_PREFLIGHT, ok=True)
        with journal.phase("capture"):
            checkpoint = _prefix_checkpoint(protocol, target, depth, seed)
        journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE, target=target,
                       depth=depth, label=checkpoint.label,
                       identity=checkpoint.identity)
    else:
        checkpoint = _prefix_checkpoint(protocol, target, depth, seed)
    oracle = pack_for(protocol)
    steps = _survey(checkpoint, window=window)
    report = ExploreReport(protocol=protocol, target=target, depth=depth,
                           window=window, horizon=horizon, seed=seed,
                           recheckpoint_every=max(0, recheckpoint_every))
    tree = _Tree(checkpoint, every=recheckpoint_every,
                 max_prefix=max_perturbations, journal=journal)
    counters = {"events": 0, "ancestor_forks": 0}
    renderer = (ProgressRenderer(f"explore {protocol}/{target}",
                                 total=None, unit="schedules",
                                 sink=progress)
                if progress is not None else None)
    seen_hashes: Dict[str, int] = {}
    seen_findings: set = set()
    status = "ok"
    try:
        for plan in _plans(steps, max_perturbations=max_perturbations,
                           max_schedules=max_schedules):
            applied, violations, outcome_hash = _run_schedule(
                tree, plan, window=window, horizon=horizon,
                defer_delta=defer_delta, oracle=oracle,
                counters=counters)
            codes = sorted({v.code for v in violations})
            novel = outcome_hash not in seen_hashes
            seen_hashes.setdefault(outcome_hash, report.schedules)
            outcome = ScheduleOutcome(perturbations=applied, codes=codes,
                                      violation_count=len(violations),
                                      outcome_hash=outcome_hash,
                                      novel=novel)
            if journal is not None:
                plan_label = (", ".join(p.render() for p in applied)
                              or "baseline")
                journal.record(
                    K.CAMPAIGN_RUN_END, index=report.schedules,
                    label=plan_label, target=target, ok=not codes,
                    codes=codes, violations=len(violations),
                    outcome=outcome_hash, new_coverage=int(novel),
                    coverage_total=len(seen_hashes))
            report.schedules += 1
            report.outcomes.append(outcome)
            if not applied:
                report.baseline_codes = codes
            if codes and novel and tuple(codes) not in seen_findings:
                seen_findings.add(tuple(codes))
                report.findings.append(outcome)
                if progress is not None:
                    progress(f"[explore] {outcome.render()}")
            if renderer is not None and report.schedules % 16 == 0:
                renderer.update(report.schedules,
                                distinct_outcomes=len(seen_hashes),
                                findings=len(report.findings))
    except BaseException:
        status = "failed"
        raise
    finally:
        report.distinct_outcomes = len(seen_hashes)
        report.simulated_events = counters["events"]
        report.ancestor_forks = counters["ancestor_forks"]
        report.nested_captures = tree.captures
        if journal is not None:
            journal.record(K.CAMPAIGN_END, status=status,
                           executed=report.schedules,
                           distinct_outcomes=report.distinct_outcomes,
                           findings=len(report.findings),
                           simulated_events=report.simulated_events,
                           ancestor_forks=report.ancestor_forks,
                           nested_captures=report.nested_captures)
    return report
