"""Class-level span tracing of the repro layers for the traced benchmark run.

Every wrap point is a public entry point of one layer, or one of the few
private methods through which the event loop re-enters a layer (tcp and
gmp timer callbacks, PFI's delayed forwards) or a protocol sends
(``TCPProtocol._transmit``, ``Daemon._send``).  A point the code no
longer has is reported and skipped.  Wrappers are set on the
class (or module) that owns the entry point and are never stored on
instances: ``copy.deepcopy`` treats functions as atomic, so a closure kept
on an instance would make a forked world call back into the original one,
while a class attribute is looked up on whichever instance the fork holds.

A span is the interval one wrapped call takes.  A layer's self time is
its spans' duration minus the part covered by child spans, so the self
times of all layers plus the time outside any span add up to the traced
wall time.  Spans stay in memory (up to ``span_cap``) and are written out
by :meth:`Tracer.write_spans` when the run ends.

Only the main thread is traced.  The fabric coordinator serves workers
from helper threads; calls made there run through unrecorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers in report order; names are the repro module names
LAYERS = ("netsim", "netsim.trace", "xkernel", "core.pfi", "core.tclish",
          "core.tclish.lint", "staticcheck", "tcp", "gmp", "oracle",
          "analysis.export", "core.checkpoint", "core.orchestrator",
          "core.fabric", "obs.journal")


# ----------------------------------------------------------------------
# hooks: accounting that needs the call's arguments or outcome
# ----------------------------------------------------------------------

class _Hook:
    """Accounting around one call; ``before`` returns the token ``after``
    receives."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def before(self, args, kwargs):
        return None

    def after(self, token, args, kwargs, error):
        pass


class _EventsHook(_Hook):
    """Events dispatched, read from the scheduler around its outermost call.

    Nested scheduler calls are not counted again.
    """

    def before(self, args, kwargs):
        depth = self.tracer._netsim_depth
        depth[0] += 1
        return args[0].dispatched_count if depth[0] == 1 else None

    def after(self, token, args, kwargs, error):
        self.tracer._netsim_depth[0] -= 1
        if token is not None:
            self.tracer.add("netsim.events",
                            args[0].dispatched_count - token)


class _PfiHook(_Hook):
    """Verdicts from the layer's own ``stats``, diffed around the call.

    A layer re-entered while one of its calls is open is diffed once, by
    the outer call.
    """

    def before(self, args, kwargs):
        active = self.tracer._pfi_active
        if id(args[0]) in active:
            return None
        active.add(id(args[0]))
        return args[0].stats

    def after(self, token, args, kwargs, error):
        if token is None:
            return
        self.tracer._pfi_active.discard(id(args[0]))
        stats = args[0].stats
        for name, stat in PFI_VERDICTS:
            delta = stats[stat] - token[stat]
            if delta:
                self.tracer.add(name, delta)


class _TraceLengthHook(_Hook):
    """Adds the length of the first argument (a trace) to one count."""

    def __init__(self, tracer: "Tracer", name: str):
        super().__init__(tracer)
        self.name = name

    def after(self, token, args, kwargs, error):
        trace = args[0] if args else None
        if hasattr(trace, "__len__"):
            self.tracer.add(self.name, len(trace))


class _FallbackHook(_Hook):
    """Counts checkpoint captures or forks refused with CheckpointError."""

    def after(self, token, args, kwargs, error):
        if error is not None and type(error).__name__ == "CheckpointError":
            self.tracer.add("core.checkpoint.cold_fallbacks", 1)


class _RunsHook(_Hook):
    """Configurations handed to ``Campaign.run``."""

    def after(self, token, args, kwargs, error):
        configs = args[1] if len(args) > 1 else kwargs.get("configs")
        if hasattr(configs, "__len__"):
            self.tracer.add("core.orchestrator.runs", len(configs))


@dataclass(frozen=True)
class WrapPoint:
    """One entry point: ``module.owner.attr`` (owner None: a function)."""

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    #: exact-count metrics that each call of this point adds one to
    counts: Tuple[str, ...] = ()
    #: extra accounting around the call: a hook class, given the tracer
    hook: Optional[Callable[["Tracer"], _Hook]] = None

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


def _points(layer, module, owner, attrs, counts=(), hook=None):
    return [WrapPoint(layer, module, owner, attr, counts, hook)
            for attr in attrs]


WRAP_POINTS: List[WrapPoint] = [
    *_points("netsim", "repro.netsim.scheduler", "Scheduler",
             ("run", "run_until", "step"), hook=_EventsHook),
    *_points("netsim.trace", "repro.netsim.trace", "TraceRecorder",
             ("record",), counts=("netsim.trace.entries",)),
    *_points("xkernel", "repro.xkernel.protocol", "Protocol",
             ("send_down", "send_up"), counts=("xkernel.calls",)),
    *_points("xkernel", "repro.xkernel.message", "Message",
             ("push_header", "pop_header"), counts=("xkernel.calls",)),
    *_points("xkernel", "repro.xkernel.message", "Message", ("copy",),
             counts=("xkernel.calls", "xkernel.msg_copies")),
    *_points("core.pfi", "repro.core.pfi", "PFILayer",
             ("push", "pop", "inject", "_forward"), hook=_PfiHook),
    *_points("core.tclish", "repro.core.script", "TclishFilter",
             ("__init__",)),
    *_points("core.tclish", "repro.core.script", "TclishFilter", ("run",),
             counts=("core.tclish.evals",)),
    *_points("core.tclish.lint", "repro.core.tclish.lint", None,
             ("lint_source",), counts=("core.tclish.lint.scripts",)),
    *_points("staticcheck", "repro.staticcheck", None, ("precheck_body",)),
    *_points("tcp", "repro.tcp.protocol", "TCPProtocol",
             ("pop", "_transmit"), counts=("tcp.segments",)),
    *_points("tcp", "repro.tcp.ip", "IPProtocol", ("push", "pop")),
    *_points("tcp", "repro.tcp.connection", "TCPConnection",
             ("connect", "listen", "send", "close", "abort",
              "_delack_fire", "_teardown")),
    *_points("tcp", "repro.tcp.retransmit", "RetransmissionManager",
             ("_on_timeout",)),
    *_points("tcp", "repro.tcp.keepalive", "KeepAliveEngine",
             ("_on_timer",)),
    *_points("tcp", "repro.tcp.window", "PersistProber", ("_fire",)),
    *_points("gmp", "repro.gmp.daemon", "Daemon", ("pop", "_send"),
             counts=("gmp.msgs",)),
    *_points("gmp", "repro.gmp.daemon", "Daemon",
             ("start", "leave", "suspend", "resume")),
    *_points("gmp", "repro.gmp.daemon", "_Guarded", ("__call__",)),
    *_points("gmp", "repro.gmp.reliable", "ReliableChannel",
             ("push", "pop", "_retry")),
    *_points("gmp", "repro.gmp.udp", "UDPProtocol", ("push", "pop")),
    *_points("oracle", "repro.oracle.invariants", None, ("evaluate",),
             hook=functools.partial(
                 _TraceLengthHook, name="oracle.entries_checked")),
    *_points("oracle", "repro.oracle.fuzz", None, ("coverage_keys",)),
    *_points("analysis.export", "repro.analysis.export", None,
             ("dump_trace",), hook=functools.partial(
                 _TraceLengthHook, name="analysis.export.entries")),
    *_points("core.checkpoint", "repro.core.checkpoint", "Checkpoint",
             ("capture",), counts=("core.checkpoint.captures",),
             hook=_FallbackHook),
    *_points("core.checkpoint", "repro.core.checkpoint", "Checkpoint",
             ("fork",), counts=("core.checkpoint.forks",), hook=_FallbackHook),
    *_points("core.checkpoint", "repro.core.checkpoint", "CheckpointPool",
             ("get",)),
    *_points("core.orchestrator", "repro.core.orchestrator", "Campaign",
             ("run",), hook=_RunsHook),
    *_points("core.fabric", "repro.core.fabric.coordinator",
             "FabricCoordinator", ("run",)),
    *_points("core.fabric", "repro.core.fabric.merge", None,
             ("merge_campaign_dir",)),
    *_points("obs.journal", "repro.obs.journal", "Journal", ("record",)),
    *_points("obs.journal", "repro.obs.campaign_report", None,
             ("summarize_journal",)),
]

#: the PFILayer.stats counters that are verdicts, by metric name
PFI_VERDICTS = (("core.pfi.drops", "dropped"), ("core.pfi.delays", "delayed"),
                ("core.pfi.duplicates", "duplicated"),
                ("core.pfi.injects", "injected"))


@dataclass
class TraceTotals:
    """What one traced pass recorded."""

    #: seconds of self time per layer
    self_s: Dict[str, float]
    #: calls and total span seconds per wrap point label
    point_calls: Dict[str, int]
    point_total_s: Dict[str, float]
    #: exact counts recorded at the wrap points
    counts: Dict[str, int]
    #: seconds covered by outermost spans
    covered_s: float


@dataclass
class Tracer:
    """Installs the wrap points and accumulates spans and counts."""

    span_cap: int = 100_000
    #: labels of wrap points the code under test no longer has
    missing: List[str] = field(default_factory=list)
    _installed: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._main = threading.get_ident()
        # wrappers capture these containers, so they are only ever
        # cleared in place
        self._stack: List[list] = []
        self._spans: List[list] = []
        self._layer_self = [0.0] * len(LAYERS)
        self._point_calls = [0] * len(WRAP_POINTS)
        self._point_total = [0.0] * len(WRAP_POINTS)
        self._covered = [0.0]
        self._counts: Dict[str, int] = {}
        self._netsim_depth = [0]
        self._pfi_active: set = set()

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self._stack.clear()
        self._spans.clear()
        self._layer_self[:] = [0.0] * len(LAYERS)
        self._point_calls[:] = [0] * len(WRAP_POINTS)
        self._point_total[:] = [0.0] * len(WRAP_POINTS)
        self._covered[0] = 0.0
        self._counts.clear()
        self._netsim_depth[0] = 0
        self._pfi_active.clear()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        for index, point in enumerate(WRAP_POINTS):
            try:
                module = importlib.import_module(point.module)
                owner = (getattr(module, point.owner) if point.owner
                         else module)
                raw = (owner.__dict__[point.attr] if point.owner
                       else getattr(module, point.attr))
            except (ImportError, AttributeError, KeyError):
                if point.label not in self.missing:
                    self.missing.append(point.label)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(index, point, raw.__func__))
            else:
                wrapped = self._wrap(index, point, raw)
            if point.owner:
                self._replace(owner, point.attr, raw, wrapped)
            else:
                # a function is also reachable through every module that
                # imported it by name; rebind it there too
                for name, other in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and \
                            getattr(other, point.attr, None) is raw:
                        self._replace(other, point.attr, raw, wrapped)

    def _replace(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # ------------------------------------------------------------------
    # the wrapper
    # ------------------------------------------------------------------

    def _wrap(self, point_index: int, point: WrapPoint,
              fn: Callable) -> Callable:
        stack = self._stack
        spans = self._spans
        layer_self = self._layer_self
        point_calls = self._point_calls
        point_total = self._point_total
        covered = self._covered
        cap = self.span_cap
        main = self._main
        get_ident = threading.get_ident
        layer = LAYERS.index(point.layer)
        hook = point.hook(self) if point.hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            token = hook.before(args, kwargs) if hook is not None else None
            sid = len(spans)
            if sid < cap:
                spans.append([layer, 0.0, 0.0, stack[-1][2] if stack else -1])
            else:
                sid = -1
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            error = None
            start = frame[0] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                layer_self[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    covered[0] += duration
                point_calls[point_index] += 1
                point_total[point_index] += duration
                if sid >= 0:
                    span = spans[sid]
                    span[1] = start
                    span[2] = end
                if hook is not None:
                    hook.after(token, args, kwargs, error)

        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def add(self, name: str, amount: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def totals(self) -> TraceTotals:
        counts: Dict[str, int] = {}
        for point in WRAP_POINTS:
            for name in point.counts:
                counts.setdefault(name, 0)
        for name, _stat in PFI_VERDICTS:
            counts.setdefault(name, 0)
        for name in ("netsim.events", "oracle.entries_checked",
                     "analysis.export.entries", "core.checkpoint.cold_fallbacks",
                     "core.orchestrator.runs"):
            counts.setdefault(name, 0)
        calls: Dict[str, int] = {}
        total: Dict[str, float] = {}
        for index, point in enumerate(WRAP_POINTS):
            calls[point.label] = self._point_calls[index]
            total[point.label] = self._point_total[index]
            for name in point.counts:
                counts[name] += self._point_calls[index]
        counts.update(self._counts)
        return TraceTotals(
            self_s=dict(zip(LAYERS, self._layer_self)),
            point_calls=calls, point_total_s=total, counts=counts,
            covered_s=self._covered[0])

    def spans(self) -> List[list]:
        """A copy of the kept spans: [layer index, start, end, parent id]."""
        return [list(span) for span in self._spans]


def write_spans(path: Path, spans: List[list]) -> None:
    """Write spans as JSON lines, times in seconds from the first start."""
    origin = spans[0][1] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for sid, (layer, start, end, parent) in enumerate(spans):
            out.write(json.dumps({
                "id": sid, "parent": parent, "layer": LAYERS[layer],
                "start_s": round(start - origin, 9),
                "end_s": round(end - origin, 9)}) + "\n")
