"""Pass 3: trace-schema drift between emitters, consumers and registry.

With :mod:`repro.staticcheck.harvest` providing both sides of the trace
schema, drift is set arithmetic:

========  ==========================================================
SC201     a subscription names a kind (or prefix) nothing emits --
          the invariant/query silently checks nothing (error)
SC202     an emitted kind has no oracle coverage at all -- purely
          informational; plenty of infrastructure kinds (``net.*``,
          ``driver.*``) are legitimately oracle-free
SC203     a :mod:`repro.netsim.kinds` registry constant no emit site
          produces -- dead schema (error)
SC204     an emitted kind is missing from the registry -- schema
          drift (error)
========  ==========================================================

SC202 being *info* is a deliberate severity choice: it keeps ``repro
check`` clean (findings are warning-and-above) while still printing the
coverage gap in verbose output, so adding an oracle for an uncovered
kind is discoverable work rather than a suppressed warning.
"""

from __future__ import annotations

import ast
import inspect
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set

from repro.core.tclish.lint.diagnostics import LintReport, make
from repro.netsim import kinds as kinds_registry

from repro.staticcheck.harvest import Harvest, harvest_paths


def _registry_lines() -> Dict[str, int]:
    """Map each registered kind to its assignment line in kinds.py."""
    lines: Dict[str, int] = {}
    try:
        source = inspect.getsource(kinds_registry)
    except (OSError, TypeError):
        return lines
    tree = ast.parse(source)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines[node.value.value] = node.lineno
    return lines


def check_drift(paths: Sequence[str], *,
                harvest: Optional[Harvest] = None,
                registry: Optional[Set[str]] = None
                ) -> List[LintReport]:
    """Diff emit sites, subscriptions and the registry; one report per file.

    ``harvest``/``registry`` exist for tests that want to inject a
    synthetic schema; production callers pass only ``paths``.
    """
    if harvest is None:
        harvest = harvest_paths(paths)
    if registry is None:
        registry = set(kinds_registry.all_kinds())
    emitted = harvest.emitted_kinds()
    reports: Dict[str, LintReport] = {}

    def report_for(path: str) -> LintReport:
        if path not in reports:
            reports[path] = LintReport(source_name=path)
        return reports[path]

    # SC201: subscriptions to kinds nothing emits
    for sub in harvest.subscriptions:
        if any(sub.matches(kind) for kind in emitted):
            continue
        what = "prefix" if sub.prefix else "kind"
        report_for(sub.path).add(make(
            "SC201", sub.line, 1,
            f"subscription ({sub.role}) to trace {what} {sub.kind!r}, "
            f"which no call site emits",
            hint="fix the kind name, or remove the dead subscription"))

    # SC202 (info): emitted kinds with zero oracle coverage
    oracle_subs = [s for s in harvest.subscriptions
                   if s.role.startswith("oracle-")]
    covered = {kind for kind in emitted
               if any(s.matches(kind) for s in oracle_subs)}
    first_sites = {}
    for site in harvest.emits:
        first_sites.setdefault(site.kind, site)
    for kind in sorted(emitted - covered):
        site = first_sites[kind]
        report_for(site.path).add(make(
            "SC202", site.line, 1,
            f"emitted kind {kind!r} is checked by no oracle invariant",
            hint="consider an invariant pack subscription"))

    # SC203: registry constants nothing emits
    registry_lines = _registry_lines()
    kinds_path = getattr(kinds_registry, "__file__", "repro/netsim/kinds.py")
    for kind in sorted(registry - emitted):
        report_for(kinds_path).add(make(
            "SC203", registry_lines.get(kind, 1), 1,
            f"registry kind {kind!r} "
            f"({kinds_registry.constant_name(kind)}) has no emit site",
            hint="delete the constant or restore the emitter"))

    # SC204: emitted kinds the registry does not know
    for kind in sorted(emitted - registry):
        site = first_sites[kind]
        report_for(site.path).add(make(
            "SC204", site.line, 1,
            f"emitted kind {kind!r} is missing from "
            f"repro.netsim.kinds",
            hint=f"add {kinds_registry.constant_name(kind)} = "
                 f"{kind!r} to the registry"))

    return [reports[path] for path in sorted(reports)]


def coverage_summary(harvest: Harvest) -> Dict[str, List[str]]:
    """Emitted kinds grouped by the oracle subscriptions covering them.

    Diagnostic helper for ``repro check -v`` and the test that proves
    every oracle-subscribed kind is actually emitted.
    """
    oracle_subs = [s for s in harvest.subscriptions
                   if s.role.startswith("oracle-")]
    grouped: Dict[str, List[str]] = defaultdict(list)
    for kind in sorted(harvest.emitted_kinds()):
        for sub in oracle_subs:
            if sub.matches(kind):
                grouped[kind].append(
                    f"{sub.path}:{sub.line} ({sub.role})")
    return dict(grouped)
