"""Execution backends behind :meth:`Campaign.run`.

A backend answers one question: *where do this sweep's configurations
execute?*  ``local`` is the in-process engine -- serial or a
``ProcessPoolExecutor`` -- and stays the default.  ``sockets`` hands the
sweep to a :class:`~repro.core.fabric.coordinator.FabricCoordinator`:
worker *processes* over a socket protocol, with work-stealing leases and
a shared result store, so the sweep survives worker loss and resumes
incrementally.

Both backends execute through the same loop,
:func:`~repro.core.orchestrator.execute_shard`, and differ only in the
sink each row is published to, so they share the campaign's semantics
exactly: per-config seeds, lint preflight, prefix grouping and fallback
accounting, oracle evaluation, store-before-journal publishing.  The property suite
(``tests/props/test_fabric_props.py``) holds them to identical results
and stable-key scorecards; the chaos suite (``tests/fabric/``) holds the
sockets backend to the resumability contract.  A new backend earns its
place by passing both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

BACKENDS = ("local", "sockets")


def resolve_backend(name: str) -> str:
    """Validate a ``backend=`` argument (returns it unchanged)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown campaign backend {name!r}; choose from "
            f"{', '.join(BACKENDS)}")
    return name


def run_sockets_campaign(campaign, config_list: List[Dict[str, Any]], *,
                         fabric_dir: Union[str, Path],
                         workers: Union[int, str] = 2,
                         telemetry: bool = True,
                         oracle: Optional[Any] = None,
                         group: bool = True,
                         meta: Optional[Dict[str, Any]] = None,
                         fabric_options: Optional[Dict[str, Any]] = None):
    """Run one campaign sweep on the sockets backend.

    Mirrors the local path's contract: lint preflight aborts before any
    worker starts, results come back in input order, and the campaign
    directory (``fabric_dir``) is left resumable -- re-running the same
    sweep against it only executes rows the store does not hold yet.
    """
    from repro.core.fabric.coordinator import FabricCoordinator
    from repro.core.fabric.spec import SweepSpec
    from repro.core.orchestrator import CampaignScriptError
    if campaign._lint != "off":
        failing = campaign.precheck_body()
        failing += campaign.validate_scripts(config_list)
        if failing:
            raise CampaignScriptError(failing)
    spec = SweepSpec(
        body=campaign._body, seed=campaign._seed, configs=config_list,
        telemetry=telemetry, oracle=oracle, lint=campaign._lint,
        group=group, meta=dict(meta or {}))
    if workers == "auto":
        import os
        workers = max(2, min(os.cpu_count() or 2, 8))
    coordinator = FabricCoordinator(spec, fabric_dir, workers=workers,
                                    **dict(fabric_options or {}))
    return coordinator.run()
