"""Experiment orchestration.

An :class:`ExperimentEnv` bundles the shared infrastructure every
experiment needs -- one scheduler, one network, one trace, one sync object,
seeded distributions -- so experiment modules read as: build env, attach
protocol machinery, install filter scripts, run, query the trace.

:class:`Campaign` runs the same experiment body across a parameter sweep
(e.g. the four TCP vendor profiles) and collects per-configuration
results, which is how each paper table with one row per vendor is
produced.

Every campaign path runs its configurations through one loop,
:func:`execute_shard`: group the shard by prefix key, capture each
group's warm prefix once, run every member as a re-seeded fork of it
(cold when the capture or the re-seed is refused), and hand each row to
a :class:`ShardSink`.  Where a sweep runs is only a choice of sink.  A
serial sweep publishes each row to the optional
:class:`~repro.core.fabric.store.ResultStore`, then the journal, then
the progress line.  A process-pool worker records its rows and the
parent replays them through that same serial sink.  A fabric worker
publishes to the shared store, its shard journal and its lease
heartbeat.

Process-pool sweeps dispatch *chunks* of configurations to a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` (one pool per process,
grown on demand, torn down at interpreter exit), so a thousand-point
sweep pays worker startup once and pickles one task per chunk instead of
one per configuration.  ``workers="auto"`` sizes the pool from
``os.cpu_count()`` and falls back to serial execution when the sweep is
too small to amortize the pool.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from time import perf_counter
from types import CodeType
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple, Union)

from repro.core.distributions import DistributionSet, derive_seed
from repro.core.sync import ScriptSync
from repro.netsim import kinds as K
from repro.netsim.network import Network
from repro.netsim.scheduler import Scheduler, SchedulerClock, SchedulerError
from repro.netsim.trace import TraceRecorder
from repro.obs.journal import Journal
from repro.obs.progress import ProgressRenderer
from repro.obs.telemetry import RunTelemetry, _config_label

if TYPE_CHECKING:
    from repro.core.fabric.store import ResultStore

#: config keys whose string values are treated as tclish script sources
SCRIPT_KEYS = ("script", "tclish", "tclish_source", "send_script",
               "receive_script")

#: config keys naming the init script for the matching script key
_INIT_KEYS = {"script": "init_script", "tclish": "tclish_init",
              "tclish_source": "tclish_init", "send_script": "send_init",
              "receive_script": "receive_init"}

#: sweeps smaller than this run serially even under ``workers="auto"``;
#: pool startup + pickling dominates below it
_AUTO_SERIAL_THRESHOLD = 4

#: chunks submitted per worker slot -- small enough to amortize dispatch,
#: large enough that one slow chunk cannot serialize the whole sweep
_CHUNKS_PER_WORKER = 4


@dataclass
class ExperimentEnv:
    """Shared infrastructure for one experiment run."""

    scheduler: Scheduler
    network: Network
    trace: TraceRecorder
    sync: ScriptSync
    seed: int
    #: every stream handed out by :meth:`dist`, so a checkpoint fork can
    #: re-derive all of them under a new run seed (see :meth:`reseed`)
    dists: List[DistributionSet] = dataclass_field(default_factory=list)

    def dist(self, *labels) -> DistributionSet:
        """A deterministic distribution stream derived from the run seed."""
        stream = DistributionSet(derive_seed(self.seed, *labels),
                                 labels=labels)
        self.dists.append(stream)
        return stream

    def reseed(self, seed: int) -> None:
        """Re-target this environment (a checkpoint fork) to a new seed.

        Re-derives the network's link streams and every
        :meth:`dist`-issued stream exactly as a cold run under ``seed``
        would have, which is only sound while none of them has been
        drawn from yet -- a stream consumed during the checkpointed
        prefix would make the fork diverge from the cold run, so that
        case raises instead (the checkpoint layer surfaces it as a
        ``CheckpointError``).
        """
        consumed = [d for d in self.dists if d.draws]
        if consumed:
            raise RuntimeError(
                f"{len(consumed)} distribution stream(s) drew from their "
                f"RNG before the reseed (labels "
                f"{[d.labels for d in consumed]}); checkpoint is not "
                f"seed-portable")
        self.network.reseed(seed)
        self.seed = seed
        for stream in self.dists:
            if stream.labels is not None:
                stream.reseed(derive_seed(seed, *stream.labels))

    def run_until(self, deadline: float, max_events: int = 2_000_000) -> int:
        """Advance virtual time to ``deadline``."""
        return self.scheduler.run_until(deadline, max_events=max_events)

    def run_until_quiet(self, max_time: float = 1e9,
                        max_events: int = 2_000_000) -> float:
        """Run until no events remain (or max_time); returns final time."""
        try:
            self.scheduler.run_until_quiet(max_time, max_events=max_events)
        except SchedulerError as err:
            raise RuntimeError("experiment did not quiesce") from err
        return self.scheduler.now


def make_env(seed: int = 0, *, default_latency: float = 0.001) -> ExperimentEnv:
    """Construct a fresh environment with everything wired together."""
    scheduler = Scheduler()
    trace = TraceRecorder(clock=SchedulerClock(scheduler))
    network = Network(scheduler, default_latency=default_latency,
                      seed=seed, trace=trace)
    return ExperimentEnv(scheduler=scheduler, network=network, trace=trace,
                         sync=ScriptSync(), seed=seed)


@dataclass
class RunResult:
    """The outcome of one experiment configuration.

    ``telemetry`` carries per-run timing and volume figures
    (:class:`~repro.obs.telemetry.RunTelemetry`); it is ``None`` when the
    campaign ran with ``telemetry=False``.  ``violations`` holds the
    :class:`~repro.oracle.Violation` list from the campaign's conformance
    oracle (``Campaign.run(..., oracle=...)``); it is ``None`` when no
    oracle ran, and ``[]`` when one ran and found the trace clean.
    """

    config: Dict[str, Any]
    result: Any
    trace: TraceRecorder
    telemetry: Optional[RunTelemetry] = None
    violations: Optional[List[Any]] = None

    def ok(self) -> bool:
        """True when the run's oracle (if any) reported no violations."""
        return not self.violations


def _hash_code(digest, code) -> None:
    """Mix a code object into ``digest``, process-stably.

    Nested code objects (inner functions, comprehensions) are hashed
    structurally -- name, bytecode, then their own consts -- instead of
    through ``repr``, whose ``<code object ... at 0x...>`` form embeds a
    memory address and would therefore derive a different key in every
    process.  The fabric's shared result store depends on this: workers
    and the coordinator must address the same row by the same key.
    """
    digest.update(code.co_name.encode())
    digest.update(code.co_code)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            _hash_code(digest, const)
        else:
            digest.update(repr(const).encode())


class CampaignScriptError(ValueError):
    """One or more campaign configs carry scripts that fail lint.

    Raised before any configuration executes; ``reports`` holds one
    :class:`~repro.core.tclish.lint.LintReport` per broken script so the
    message lists every diagnostic of every config, not just the first.
    """

    def __init__(self, reports):
        from repro.core.tclish.lint.reporting import render_text
        self.reports = list(reports)
        text = "\n".join(render_text(report) for report in self.reports)
        super().__init__(
            f"campaign refused to start: {len(self.reports)} "
            f"source(s) failed the static check\n{text}")


def _config_scripts(config: Dict[str, Any], index: int
                    ) -> List[Tuple[str, str, str]]:
    """Extract ``(label, source, init)`` script triples from one config.

    Recognized forms: string values under :data:`SCRIPT_KEYS` (with an
    optional companion init key), :class:`~repro.core.script
    .TclishFilter` instances, and :class:`~repro.core.genscripts
    .GeneratedScript` instances under any key.
    """
    from repro.core.genscripts import GeneratedScript
    from repro.core.script import TclishFilter
    scripts: List[Tuple[str, str, str]] = []
    for key, value in config.items():
        label = f"config[{index}].{key}"
        if isinstance(value, str) and key in SCRIPT_KEYS:
            init = config.get(_INIT_KEYS.get(key, ""), "")
            scripts.append((label, value, init if isinstance(init, str)
                            else ""))
        elif isinstance(value, TclishFilter):
            scripts.append((label, value.source, ""))
        elif isinstance(value, GeneratedScript):
            scripts.append((label, value.tclish_source, value.tclish_init))
    return scripts


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0


def _get_pool(size: int) -> ProcessPoolExecutor:
    """The process-wide campaign pool, grown (never shrunk) to ``size``.

    Keeping one pool alive across ``Campaign.run`` calls means a bench
    loop or notebook session pays worker startup once, not per sweep.
    """
    global _pool, _pool_size
    if _pool is not None and _pool_size >= size:
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = ProcessPoolExecutor(max_workers=size)
    _pool_size = size
    return _pool


def _shutdown_pool() -> None:
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_size = 0


atexit.register(_shutdown_pool)


#: roots key a non-dict prefix state travels under through a checkpoint
_STATE_ROOT = "__prefix_state__"


class PrefixedBody:
    """A campaign body split at a shareable warm prefix.

    ``prefix(env, config)`` simulates the part many configurations have
    in common (handshake, view formation, steady state) and returns the
    rig state the rest of the run needs; ``continuation(env, state,
    config)`` runs the part that varies and returns the run's result.
    Called directly (``body(env, config)``) it executes prefix then
    continuation back to back -- that cold path is the byte-identity
    reference the grouped scheduler is checked against.

    ``key`` maps a configuration to its *prefix key*: configurations
    with equal keys promise byte-identical prefix behaviour (same
    simulated events, zero RNG draws -- the checkpoint reseed contract),
    so :meth:`Campaign.run` may capture the prefix once per group and
    fork it per configuration.  A config may override the derivation
    with an explicit ``"prefix_key"`` entry; a key of ``None`` opts the
    configuration out of grouping (it always runs cold).

    Instances are SC101-clean callable objects; with module-level
    ``prefix``/``continuation`` functions they pickle, so a split body
    works under parallel campaigns unchanged.
    """

    def __init__(self, prefix: Callable[[ExperimentEnv, Dict[str, Any]], Any],
                 continuation: Callable[[ExperimentEnv, Any,
                                         Dict[str, Any]], Any],
                 key: Optional[Callable[[Dict[str, Any]], Optional[str]]]
                 = None):
        self.prefix = prefix
        self.continuation = continuation
        self.key = key
        self.__module__ = getattr(continuation, "__module__",
                                  type(self).__module__)
        self.__qualname__ = (
            f"PrefixedBody({getattr(prefix, '__qualname__', repr(prefix))}"
            f"+{getattr(continuation, '__qualname__', repr(continuation))})")

    def __call__(self, env: ExperimentEnv, config: Dict[str, Any]) -> Any:
        state = self.prefix(env, config)
        return self.continuation(env, state, config)

    def prefix_key(self, config: Dict[str, Any]) -> Optional[str]:
        """The grouping key for one configuration (None: never group)."""
        if "prefix_key" in config:
            return config["prefix_key"]
        if self.key is None:
            return None
        return self.key(config)

    def cache_parts(self) -> Tuple[Callable, ...]:
        """The callables whose code determines results (for cache keys)."""
        return (self.prefix, self.continuation)

    def __repr__(self) -> str:
        return f"<{self.__qualname__}>"


def _prefix_digest(body: PrefixedBody, key: Any) -> str:
    """A static digest naming one (prefix code, prefix key) pair.

    Deterministic *before* any capture happens -- unlike a captured
    checkpoint's ``identity`` -- so :meth:`ResultStore.keys
    <repro.core.fabric.store.ResultStore.keys>` can mix it into store
    keys and let fully-stored groups skip capture entirely, while a
    changed prefix function or key still misses.
    """
    digest = hashlib.sha256()
    fn = body.prefix
    digest.update(getattr(fn, "__module__", "").encode())
    digest.update(getattr(fn, "__qualname__", repr(fn)).encode())
    code = getattr(fn, "__code__", None)
    if code is not None:
        _hash_code(digest, code)
    digest.update(repr(key).encode())
    return digest.hexdigest()[:16]


def _prefix_groups(todo: List[int], keys: List[Optional[Any]]
                   ) -> List[Tuple[Optional[Any], List[int]]]:
    """Group sweep indices by prefix key, in first-appearance order.

    ``None``-keyed configurations stay singleton groups (they always run
    cold); every other key collects all its indices into one group even
    when they are scattered through the input, which is what lets one
    capture serve the whole group.
    """
    groups: List[Tuple[Optional[Any], List[int]]] = []
    by_key: Dict[Any, List[int]] = {}
    for index in todo:
        key = keys[index]
        if key is None:
            groups.append((None, [index]))
        elif key in by_key:
            by_key[key].append(index)
        else:
            members = [index]
            by_key[key] = members
            groups.append((key, members))
    return groups


def _prefix_chunks(todo: List[int], keys: List[Optional[Any]],
                   workers: int) -> List[List[int]]:
    """Worker chunks of ``todo`` that keep prefix groups whole.

    Whole groups (``None``-keyed configurations are singletons) pack
    into chunks under two budgets: small groups pack up to the
    fine-grained load-balancing size (:data:`_CHUNKS_PER_WORKER` chunks
    per worker, so uneven per-config workloads still balance), but a
    group is only *split* -- duplicating its capture -- when it alone
    exceeds a worker's fair share of the sweep.  Result assembly stays
    input-ordered regardless, because results land in slots by global
    index.
    """
    groups = _prefix_groups(todo, keys)
    target = min(len(todo), workers * _CHUNKS_PER_WORKER)
    pack_size = -(-len(todo) // target)  # ceil division
    split_size = -(-len(todo) // max(1, workers))
    chunks: List[List[int]] = []
    current: List[int] = []
    for _key, indices in groups:
        if len(indices) > split_size:
            if current:
                chunks.append(current)
                current = []
            chunks.extend(indices[start:start + split_size]
                          for start in range(0, len(indices), split_size))
            continue
        if current and len(current) + len(indices) > pack_size:
            chunks.append(current)
            current = []
        current.extend(indices)
    if current:
        chunks.append(current)
    return chunks


class Campaign:
    """Run an experiment body across a sweep of configurations.

    The body receives a fresh :class:`ExperimentEnv` plus the configuration
    dict and returns any result object.  Determinism note: each
    configuration derives its own seed from the campaign seed and the
    configuration repr, so adding a configuration does not perturb others.

    Because every configuration is an independent seeded simulation, the
    sweep is embarrassingly parallel: ``run(configs, workers=N)`` fans the
    configurations out over ``N`` worker processes (``workers="auto"``
    sizes the pool from the machine).  Serial and parallel execution share
    :func:`execute_shard`, so parallel results are identical to serial
    ones and are returned in input order.  Requirements for parallel runs:
    the body must be a module-level (picklable) callable, and its result
    values must be picklable too.  Each worker builds its own
    :class:`ExperimentEnv` -- in particular each process gets its own
    ``ScriptSync``, so cross-configuration coordination is impossible by
    construction (it would break determinism anyway).
    """

    def __init__(self, body: Callable[[ExperimentEnv, Dict[str, Any]], Any],
                 *, seed: int = 0, lint: str = "error"):
        if lint not in ("error", "off"):
            raise ValueError(f'Campaign lint mode must be "error" or '
                             f'"off", got {lint!r}')
        self._body = body
        self._seed = seed
        self._lint = lint

    def validate_scripts(self, configs: Iterable[Dict[str, Any]]):
        """Lint every tclish script found in the configs.

        Returns the list of failing
        :class:`~repro.core.tclish.lint.LintReport` objects (empty when
        everything is clean).  ``run`` calls this before starting any
        worker and raises :class:`CampaignScriptError` with *all*
        diagnostics, so one campaign launch surfaces every broken config
        at once instead of failing minutes in on the first.
        """
        from repro.core.tclish.lint import lint_source
        failing = []
        for index, config in enumerate(configs):
            for label, source, init in _config_scripts(config, index):
                report = lint_source(source, init_script=init,
                                     source_name=label)
                if not report.ok():
                    failing.append(report)
        return failing

    def precheck_body(self):
        """Statically vet the campaign body for determinism hazards.

        Runs the SC1xx pass (:func:`repro.staticcheck.precheck_body`)
        over the functions reachable from the body in its own module --
        closures scheduled as callbacks, wall-clock time, unseeded
        randomness -- and returns the failing
        :class:`~repro.core.tclish.lint.LintReport` objects (empty when
        clean, and for bodies whose source cannot be retrieved).
        ``run`` calls this alongside :meth:`validate_scripts` so a
        body that would poison determinism or checkpoint capture is
        refused before any worker starts.  A :class:`PrefixedBody` is
        vetted part by part (prefix and continuation), since the
        wrapper instance itself carries no retrievable source.
        """
        from repro.staticcheck import precheck_body
        parts = (self._body.cache_parts()
                 if isinstance(self._body, PrefixedBody) else (self._body,))
        failing = []
        for part in parts:
            report = precheck_body(part)
            if not report.ok():
                failing.append(report)
        return failing

    def _resolve_workers(self, workers: Union[int, str], jobs: int) -> int:
        if workers == "auto":
            cpus = os.cpu_count() or 1
            if cpus < 2 or jobs < _AUTO_SERIAL_THRESHOLD:
                return 1
            return min(cpus, jobs)
        if not isinstance(workers, int):
            raise ValueError(f'workers must be an int or "auto", '
                             f"got {workers!r}")
        return workers

    def run(self, configs: Iterable[Dict[str, Any]], *,
            workers: Union[int, str] = 1, telemetry: bool = True,
            cache: Optional["ResultStore"] = None,
            oracle: Optional[Callable[[], List[Any]]] = None,
            journal: Union[None, str, Path, Journal] = None,
            progress: Optional[Callable[[str], None]] = None,
            group: bool = True,
            prefix_pool: Optional[Any] = None,
            backend: str = "local",
            fabric_dir: Union[None, str, Path] = None,
            fabric_options: Optional[Dict[str, Any]] = None
            ) -> List[RunResult]:
        """Execute the body once per configuration.

        With ``workers > 1`` the configurations run chunked over a
        persistent process pool; results are byte-identical to serial
        execution and come back in input order.  ``workers="auto"`` picks
        ``os.cpu_count()`` workers, staying serial on single-CPU machines
        and for sweeps too small to amortize the pool.  The default stays
        serial so existing sweeps are untouched.  Configs carrying tclish
        scripts (see :data:`SCRIPT_KEYS`) are statically analyzed first;
        any error-level diagnostic aborts the whole campaign before any
        worker runs (``Campaign(..., lint="off")`` skips this).

        ``telemetry`` (default on) records per-configuration wall time,
        dispatched-event count, final virtual time and trace volume onto
        ``RunResult.telemetry``; ``telemetry=False`` restores the bare
        execution path.  ``print(render_scorecard(results))``
        (:func:`repro.obs.telemetry.render_scorecard`) prints the sweep
        table.

        ``cache`` (a :class:`~repro.core.fabric.store.ResultStore`,
        default off) returns stored results for configurations this
        body+seed has already computed and stores each fresh one as it
        completes; see the class docstring for the invalidation rules.

        ``oracle`` (default off) is an invariant-pack factory -- a
        zero-argument callable returning fresh
        :class:`~repro.oracle.Invariant` instances, e.g.
        :func:`repro.oracle.tcp_pack`.  When given, every configuration's
        trace is evaluated against a fresh pack *in the worker that ran
        it* (the trace is already hot there), and the resulting violation
        list lands on ``RunResult.violations``.  Parallel runs need the
        factory picklable, i.e. module-level -- the same rule as the body.

        ``journal`` (default off) attaches the campaign flight recorder
        (:class:`repro.obs.journal.Journal`, or a path one is opened at):
        the sweep's lifecycle -- start, lint preflight, every
        configuration's ``run_end`` with telemetry and oracle verdicts,
        worker errors, dispatch/merge phases, end -- is appended as
        crash-safe JSONL the parent process owns, so a killed sweep
        still reproduces its partial scorecard via ``repro report
        --campaign``.  ``progress`` is a line sink (e.g. ``print``) fed
        by the shared renderer as configurations complete.

        ``group`` (default on) enables **prefix-grouped scheduling**
        when the body is a :class:`PrefixedBody`: configurations
        sharing a prefix key have their warm prefix simulated once per
        worker process (a :class:`~repro.core.checkpoint.Checkpoint`
        capture) and are each run as a re-seeded fork of it -- byte-
        identical to the cold path, just without re-simulating the
        shared prefix per configuration.  ``group=False`` forces every
        configuration cold (the reference path benches and byte-
        identity tests compare against).  ``prefix_pool`` (a
        :class:`~repro.core.checkpoint.CheckpointPool`) carries
        captured prefixes across ``run`` calls in this process, so
        even a one-config group captures into it; omitted, each sweep
        uses a private pool.

        ``backend`` selects the execution fabric
        (:mod:`repro.core.fabric.backends`).  ``"local"`` -- the
        default -- is everything described above, unchanged.
        ``"sockets"`` runs the sweep as a coordinator plus worker
        *processes* over the fabric protocol: it requires
        ``fabric_dir`` (the campaign directory holding the sweep spec,
        the shared result store and per-shard journals) and owns
        caching and journaling itself, so ``cache=``/``journal=`` must
        stay unset and ``progress`` is not served live.  Re-running the
        same sweep against the same ``fabric_dir`` resumes it: only
        configurations the store does not hold yet execute.
        ``fabric_dir`` with the local backend joins the same resume
        protocol in-process (the store becomes the cache, the journal
        lands at the coordinator path), so serial runs and fabric runs
        share completed rows.  ``fabric_options`` passes coordinator
        tuning through (``ttl``, ``poll``, ``shard_size``, ...).
        """
        from repro.core.fabric.backends import (resolve_backend,
                                                run_sockets_campaign)
        resolve_backend(backend)
        config_list = [dict(config) for config in configs]
        if backend == "sockets":
            if fabric_dir is None:
                raise ValueError(
                    'backend="sockets" needs fabric_dir= (the campaign '
                    "directory shared by coordinator and workers)")
            if cache is not None or journal is not None:
                raise ValueError(
                    'backend="sockets" owns caching and journaling '
                    "(the result store and per-shard journals live in "
                    "fabric_dir); pass fabric_dir= only")
            return run_sockets_campaign(
                self, config_list, fabric_dir=fabric_dir,
                workers=workers, telemetry=telemetry, oracle=oracle,
                group=group, fabric_options=fabric_options)
        if fabric_dir is not None:
            from repro.core.fabric.store import ResultStore
            fabric_path = Path(fabric_dir)
            if cache is None:
                cache = ResultStore(fabric_path / "store")
            if journal is None:
                journal = fabric_path / "journals" / "coordinator.jsonl"
        journal_obj, journal_owned = Journal.ensure(journal)
        try:
            return self._run_journaled(
                config_list, journal_obj, workers=workers,
                telemetry=telemetry, cache=cache,
                oracle=oracle, progress=progress, group=group,
                prefix_pool=prefix_pool)
        finally:
            if journal_owned:
                journal_obj.close()

    def _run_journaled(self, config_list: List[Dict[str, Any]],
                       journal: Optional[Journal], *,
                       workers: Union[int, str], telemetry: bool,
                       cache: Optional["ResultStore"],
                       oracle: Optional[Callable],
                       progress: Optional[Callable[[str], None]],
                       group: bool = True,
                       prefix_pool: Optional[Any] = None
                       ) -> List[RunResult]:
        if journal is not None:
            journal.start("campaign", seed=self._seed,
                          configs=len(config_list), workers=str(workers),
                          telemetry=telemetry, lint=self._lint,
                          oracle=getattr(oracle, "__qualname__", None),
                          body=getattr(self._body, "__qualname__",
                                       repr(self._body)))
        renderer = (ProgressRenderer("campaign", total=len(config_list),
                                     unit="configs", sink=progress)
                    if progress is not None else None)
        if self._lint != "off":
            if journal is not None:
                with journal.phase("preflight"):
                    failing = self.precheck_body()
                    failing += self.validate_scripts(config_list)
                    journal.record(K.CAMPAIGN_PREFLIGHT,
                                   ok=not failing, failing=len(failing))
            else:
                failing = self.precheck_body()
                failing += self.validate_scripts(config_list)
            if failing:
                if journal is not None:
                    journal.record(K.CAMPAIGN_END, status="preflight_failed",
                                   executed=0, cached=0)
                raise CampaignScriptError(failing)
        elif journal is not None:
            journal.record(K.CAMPAIGN_PREFLIGHT, ok=True, skipped=True)

        prefix_keys: Optional[List[Optional[Any]]] = None
        if group and isinstance(self._body, PrefixedBody):
            prefix_keys = [self._body.prefix_key(c) for c in config_list]
            if all(key is None for key in prefix_keys):
                prefix_keys = None
        keys: List[str] = []
        slots: List[Optional[RunResult]] = [None] * len(config_list)
        if cache is not None:
            keys = cache.keys(self._body, self._seed, config_list,
                              telemetry=telemetry, oracle=oracle)
            slots = [cache.get(key) for key in keys]
            _journal_published(slots, journal)
        todo = [index for index, row in enumerate(slots) if row is None]
        if renderer is not None and len(todo) < len(config_list):
            done = len(config_list) - len(todo)
            renderer.update(done, cached=done)
        sink = _CampaignSink(journal, store=cache, keys=keys, slots=slots,
                             renderer=renderer)
        stats = {"captures": 0, "forks": 0, "fallbacks": 0}
        pool_size = self._resolve_workers(workers, len(todo))
        failed: Optional[BaseException] = None
        try:
            if pool_size > 1 and len(todo) > 1:
                self._run_parallel(todo, config_list, sink, journal,
                                   pool_size=pool_size, telemetry=telemetry,
                                   oracle=oracle, prefix_keys=prefix_keys,
                                   stats=stats)
            elif todo:
                with _maybe_phase(journal, "dispatch"):
                    execute_shard(self._body, self._seed, config_list, todo,
                                  prefix_keys=prefix_keys, telemetry=telemetry,
                                  oracle=oracle, pool=prefix_pool, sink=sink,
                                  stats=stats)
        except BaseException as err:
            failed = err
            raise
        finally:
            if journal is not None:
                payload: Dict[str, Any] = {
                    "status": "failed" if failed is not None else "ok",
                    "executed": sum(1 for i in todo if slots[i] is not None),
                    "cached": len(config_list) - len(todo),
                    "findings": sum(1 for r in slots
                                    if r is not None and not r.ok()),
                }
                if prefix_keys is not None:
                    payload.update(_prefix_stats_payload(stats))
                journal.record(K.CAMPAIGN_END, **payload)

        return [result for result in slots if result is not None]

    def _run_parallel(self, todo: List[int],
                      config_list: List[Dict[str, Any]],
                      sink: "_CampaignSink", journal: Optional[Journal], *,
                      pool_size: int, telemetry: bool,
                      oracle: Optional[Callable],
                      prefix_keys: Optional[List[Optional[Any]]],
                      stats: Dict[str, int]) -> None:
        """Fan chunks out to the process pool, replay rows in the parent.

        Each chunk runs :func:`execute_shard` in a worker with a
        recording sink; the parent replays the recorded captures and
        rows through ``sink`` chunk by chunk in input order, so a pool
        sweep publishes, journals and reports exactly as a serial one.
        """
        try:
            pickle.dumps((self._body, oracle))
        except Exception as err:
            raise TypeError(
                "Campaign.run(workers>1) needs a picklable "
                "(module-level) body and oracle, got "
                f"{self._body!r} / {oracle!r}: {err}") from err
        pool = _get_pool(min(pool_size, len(todo)))
        chunk_indices = _prefix_chunks(
            todo, prefix_keys or [None] * len(config_list), pool_size)
        with _maybe_phase(journal, "dispatch"):
            futures = [(indices, pool.submit(
                _pool_shard, self._body, self._seed,
                {i: config_list[i] for i in indices}, indices,
                prefix_keys=({i: prefix_keys[i] for i in indices}
                             if prefix_keys is not None else None),
                telemetry=telemetry, oracle=oracle))
                for indices in chunk_indices]
        with _maybe_phase(journal, "merge"):
            for indices, future in futures:
                try:
                    calls, chunk_stats = future.result()
                except Exception as err:
                    if journal is not None:
                        journal.record(K.CAMPAIGN_WORKER_ERROR,
                                       indices=indices, error=repr(err))
                    raise
                for name, args in calls:
                    getattr(sink, name)(*args)
                for name, count in chunk_stats.items():
                    stats[name] += count


def _maybe_phase(journal: Optional[Journal], name: str, **payload: Any):
    """``journal.phase(name)`` when journaling, a no-op span otherwise."""
    if journal is None:
        return nullcontext()
    return journal.phase(name, **payload)


def _run_end_payload(index: int, result: RunResult, *,
                     cached_hit: bool = False,
                     prefix: Optional[Any] = None,
                     forked: bool = False) -> Dict[str, Any]:
    """The ``campaign.run_end`` event payload for one result.

    Carries every deterministic scorecard input -- label, oracle verdict
    codes, telemetry -- so a journal replay can rebuild the exact
    scorecard the live sweep printed (or would have printed when it was
    killed first).  Grouped runs additionally carry their prefix key
    and whether they were served by a fork, so ``repro report
    --campaign`` can show amortization per prefix group.
    """
    payload: Dict[str, Any] = {
        "index": index,
        "label": _config_label(result.config),
        "cached": cached_hit,
        "ok": result.ok(),
    }
    if prefix is not None:
        payload["prefix"] = str(prefix)
        payload["forked"] = forked
    if result.violations is not None:
        payload["violations"] = len(result.violations)
        payload["codes"] = sorted({v.code for v in result.violations})
    if result.telemetry is not None:
        payload["telemetry"] = result.telemetry.as_dict()
    return payload


def _capture_payload(key: Any, checkpoint: Any,
                     group_size: int) -> Dict[str, Any]:
    """The ``campaign.checkpoint_capture`` payload for one prefix group."""
    return {"prefix": str(key), "label": checkpoint.label,
            "identity": checkpoint.identity, "time": checkpoint.time,
            "entries": checkpoint.position, "configs": group_size}


def _prefix_stats_payload(stats: Dict[str, int]) -> Dict[str, int]:
    """The ``campaign.end`` prefix fields for grouped sweeps."""
    return {"prefix_captures": stats["captures"],
            "prefix_forks": stats["forks"],
            "prefix_fallbacks": stats["fallbacks"]}


def _journal_published(rows: List[Optional[RunResult]],
                       journal: Optional[Journal]) -> None:
    """Journal every row a result store already held as a cached hit.

    Shared by the local backend's store pre-pass and the fabric
    coordinator, which both load each key once with :meth:`ResultStore
    .get <repro.core.fabric.store.ResultStore.get>`: an entry that
    cannot be read back is a ``None`` row, i.e. work still to do.
    """
    if journal is None:
        return
    for index, row in enumerate(rows):
        if row is not None:
            journal.record(K.CAMPAIGN_RUN_END,
                           **_run_end_payload(index, row, cached_hit=True))


def _capture_prefix(body: PrefixedBody, config: Dict[str, Any],
                    key: Any) -> Any:
    """Simulate one group's warm prefix and capture it as a checkpoint.

    The capture env is built at seed 0; forks re-seed to each member's
    run seed, which the checkpoint layer only permits for zero-draw
    prefixes (the grouping contract).  Raises ``CheckpointError`` when
    the world cannot be captured soundly -- callers fall back cold.
    """
    from repro.core.checkpoint import Checkpoint
    env = make_env(seed=0)
    state = body.prefix(env, dict(config))
    roots = state if isinstance(state, dict) else {_STATE_ROOT: state}
    return Checkpoint.capture(env, roots, label=f"campaign/{key}")


def _execute(body: Callable[[ExperimentEnv, Dict[str, Any]], Any],
             seed: int, config: Dict[str, Any], *,
             checkpoint: Optional[Any] = None, telemetry: bool = True,
             oracle: Optional[Callable] = None) -> RunResult:
    """Run one configuration, cold or as a fork of its prefix checkpoint.

    The run seed derives from the campaign seed and the configuration
    alone, and a fork is re-seeded to it, so a forked run is
    byte-identical to the cold one.  With ``checkpoint`` the body must
    be a :class:`PrefixedBody`: the fork resumes the captured prefix and
    only ``body.continuation`` runs.  Telemetry's event and trace counts
    then carry the prefix's share too (the forked scheduler and recorder
    resume from the captured counters); only ``wall_s`` reflects the
    saved simulation.
    """
    run_seed = derive_seed(seed, repr(sorted(config.items())))
    if checkpoint is None:
        env = make_env(seed=run_seed)
        start = perf_counter()
        result = body(env, dict(config))
    else:
        forked = checkpoint.fork(seed=run_seed)
        env = forked.env
        state = (forked.roots[_STATE_ROOT]
                 if set(forked.roots) == {_STATE_ROOT} else forked.roots)
        start = perf_counter()
        result = body.continuation(env, state, dict(config))
    run_telemetry = None
    if telemetry:
        run_telemetry = RunTelemetry(
            wall_s=perf_counter() - start,
            events=env.scheduler.dispatched_count,
            virtual_s=env.scheduler.now, trace_entries=len(env.trace))
    return RunResult(config=dict(config), result=result, trace=env.trace,
                     telemetry=run_telemetry,
                     violations=_oracle_violations(env.trace, oracle))


def _oracle_violations(trace: TraceRecorder,
                       oracle: Optional[Callable]) -> Optional[List[Any]]:
    """Evaluate a fresh pack from ``oracle`` over ``trace`` (None: skip)."""
    if oracle is None:
        return None
    from repro.oracle import evaluate
    return evaluate(trace, oracle()).violations


class ShardSink:
    """Where :func:`execute_shard` publishes; one subclass per transport.

    The loop calls ``lookup`` before each run (a row another writer
    already published is handed to ``cached`` and skipped), ``capture``
    once per prefix capture, then ``start`` and ``done`` (or ``error``)
    per run.  ``done`` runs outside the error handler, so an exception
    it raises (a lost lease) stops the shard without being journaled as
    a body failure.  This base class publishes nothing.
    """

    def lookup(self, index: int) -> Optional[RunResult]:
        return None

    def cached(self, index: int, result: RunResult) -> None:
        pass

    def capture(self, payload: Dict[str, Any]) -> None:
        pass

    def start(self, index: int, config: Dict[str, Any]) -> None:
        pass

    def done(self, index: int, result: RunResult, prefix: Optional[Any],
             forked: bool) -> None:
        pass

    def error(self, index: int, err: BaseException) -> None:
        pass


class _CampaignSink(ShardSink):
    """Publish each row: fill its slot, ``store.put``, journal, progress.

    The local backend's sink, serial and (replayed) pool alike; the
    fabric worker's lease sink extends it with a heartbeat.  Every part
    is optional, and ``completed`` counts rows published so far.
    """

    def __init__(self, journal: Optional[Journal], *,
                 store: Optional["ResultStore"] = None,
                 keys: Sequence[str] = (),
                 slots: Optional[List[Optional[RunResult]]] = None,
                 renderer: Optional[ProgressRenderer] = None):
        self.journal = journal
        self.store = store
        self.keys = keys
        self.slots = slots
        self.renderer = renderer
        done = [row for row in slots or () if row is not None]
        self.completed = len(done)
        self.findings = sum(1 for row in done if not row.ok())

    def capture(self, payload: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE, **payload)

    def start(self, index: int, config: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.record(K.CAMPAIGN_RUN_START, index=index,
                                label=_config_label(config))

    def done(self, index: int, result: RunResult, prefix: Optional[Any],
             forked: bool) -> None:
        if self.slots is not None:
            self.slots[index] = result
        if self.store is not None:
            self.store.put(self.keys[index], result)
        if self.journal is not None:
            self.journal.record(K.CAMPAIGN_RUN_END,
                                **_run_end_payload(index, result,
                                                   prefix=prefix,
                                                   forked=forked))
        self.completed += 1
        self.findings += not result.ok()
        if self.renderer is not None:
            self.renderer.update(self.completed,
                                 findings=self.findings or None)

    def error(self, index: int, err: BaseException) -> None:
        if self.journal is not None:
            self.journal.record(K.CAMPAIGN_WORKER_ERROR, index=index,
                                error=repr(err))


class _Recorder(ShardSink):
    """A pool worker's sink: keeps captures and rows for the parent."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, tuple]] = []

    def capture(self, payload: Dict[str, Any]) -> None:
        self.calls.append(("capture", (payload,)))

    def done(self, index: int, result: RunResult, prefix: Optional[Any],
             forked: bool) -> None:
        self.calls.append(("done", (index, result, prefix, forked)))


def _pool_shard(body: Callable, seed: int, configs: Dict[int, Dict[str, Any]],
                indices: List[int], *,
                prefix_keys: Optional[Dict[int, Optional[Any]]],
                telemetry: bool, oracle: Optional[Callable]
                ) -> Tuple[List[Tuple[str, tuple]], Dict[str, int]]:
    """Process-pool task: one chunk, recorded for the parent to replay."""
    recorder = _Recorder()
    stats = execute_shard(body, seed, configs, indices,
                          prefix_keys=prefix_keys, telemetry=telemetry,
                          oracle=oracle, sink=recorder)
    return recorder.calls, stats


def execute_shard(body: Callable, seed: int, configs: Any,
                  indices: List[int], *,
                  prefix_keys: Any = None, telemetry: bool = True,
                  oracle: Optional[Callable] = None,
                  pool: Optional[Any] = None,
                  sink: Optional[ShardSink] = None,
                  stats: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Run ``indices`` of a sweep, publishing each row through ``sink``.

    The one per-run loop behind every campaign transport.  ``configs``
    and ``prefix_keys`` are indexed by sweep index (lists or dicts);
    ``prefix_keys=None`` runs every configuration cold.  Indices are
    grouped by prefix key (:func:`_prefix_groups`), and each group's
    sharing is decided at its first run still to do: a checkpoint from
    ``pool`` (a :class:`~repro.core.checkpoint.CheckpointPool`; omitted,
    a private one holding only the current group), else a fresh capture
    when another run remains to share it or when the caller passed
    ``pool``, which outlives this call.  A capture or re-seed
    refused with ``CheckpointError`` (the prefix drew from an RNG
    stream, or holds an uncopyable callback) sends the rest of the
    group cold; each such run counts as a fallback.  Results never
    depend on whether sharing worked, only speed does.

    A body failure is reported to ``sink.error`` and re-raised with the
    global sweep index in an exception note (notes survive pickling
    back from a pool worker).  Returns the shard's ``captures``,
    ``forks`` and ``fallbacks`` counts, added into ``stats`` when given
    (so a failed shard's partial counts still reach ``campaign.end``).
    """
    from repro.core.checkpoint import CheckpointError, CheckpointPool
    keeps_captures = pool is not None
    if pool is None:
        pool = CheckpointPool(max_items=1)
    if sink is None:
        sink = ShardSink()
    if stats is None:
        stats = {"captures": 0, "forks": 0, "fallbacks": 0}
    groups = (_prefix_groups(indices, prefix_keys)
              if prefix_keys is not None
              else [(None, [index]) for index in indices])
    for key, members in groups:
        checkpoint, sharing, decided = None, False, key is None
        for position, index in enumerate(members):
            published = sink.lookup(index)
            if published is not None:
                sink.cached(index, published)
                continue
            config = configs[index]
            if not decided:
                decided = True
                digest = _prefix_digest(body, key)
                remaining = len(members) - position
                checkpoint = pool.get(digest)
                sharing = (checkpoint is not None or remaining > 1
                           or keeps_captures)
                if checkpoint is None and sharing:
                    try:
                        checkpoint = _capture_prefix(body, config, key)
                    except CheckpointError:
                        pass
                    else:
                        pool.put(digest, checkpoint)
                        stats["captures"] += 1
                        sink.capture(_capture_payload(key, checkpoint,
                                                      remaining))
            sink.start(index, config)
            forked = False
            try:
                if checkpoint is not None:
                    try:
                        result = _execute(body, seed, config,
                                          checkpoint=checkpoint,
                                          telemetry=telemetry, oracle=oracle)
                        forked = True
                    except CheckpointError:
                        checkpoint = None
                if not forked:
                    result = _execute(body, seed, config,
                                      telemetry=telemetry, oracle=oracle)
            except Exception as err:
                sink.error(index, err)
                err.add_note(f"campaign config [{index}] failed: {config!r}")
                raise
            if forked:
                stats["forks"] += 1
            elif sharing:
                stats["fallbacks"] += 1
            sink.done(index, result, key, forked)
    return stats
