"""The result store: one content-addressed directory of campaign rows.

A :class:`ResultStore` holds pickled :class:`~repro.core.orchestrator
.RunResult` objects under keys that fully determine them, and it is the
only result cache there is: a local ``Campaign.run(cache=...)`` sweep, a
local ``fabric_dir=`` sweep, every fabric worker and the coordinator all
read and write it, concurrently.  Content addressing does the heavy
lifting -- :meth:`ResultStore.keys` hashes the body's bytecode, the seed,
the configuration and the options -- so two writers racing on one key
write byte-identical pickles and either winner is correct.  The store
only has to make each write atomic and collision-free, which it does
with per-writer temp names and ``os.replace``.

A row is done exactly when :meth:`ResultStore.get` returns it.  An
entry that cannot be read back (truncated, corrupt, written by an
incompatible version) counts as missing everywhere -- ``has``,
``missing``, the worker's skip check and the coordinator's todo -- and
is re-executed and overwritten.  Resume semantics fall out for free:
the remaining work of a sweep is the rows the store cannot return, so
there is no progress ledger to keep consistent and no way for a SIGKILL
to leave the store claiming work it does not hold.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.orchestrator import (PrefixedBody, RunResult, _hash_code,
                                     _prefix_digest)


class ResultStore:
    """A multi-writer, crash-safe, content-addressed result directory.

    Keys cover everything that determines a configuration's outcome:
    the body's module, qualname and compiled bytecode (prefix and
    continuation for a :class:`~repro.core.orchestrator.PrefixedBody`,
    plus a static digest of the configuration's prefix key), the
    campaign seed, the telemetry flag, the oracle, and the configuration
    contents.  Editing the body, changing the seed or touching the
    config all miss naturally -- stale entries are simply never
    addressed again (delete the directory to reclaim the space).
    Configuration values that cannot be pickled fall back to ``repr``;
    one whose repr embeds an object id yields a fresh key every process,
    a guaranteed miss, never a wrong hit.

    Caching is opt-in for local sweeps because a hit skips the body
    entirely: wall-time telemetry of a hit reflects the original run,
    and the body's side effects do not reoccur.  ``hits`` and
    ``misses`` count :meth:`get` calls.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        # distinct temp names per writer *and* per write: concurrent
        # workers (and a worker respawned with a recycled pid) can never
        # clobber each other's in-flight temp file
        self._tmp_seq = itertools.count()

    @staticmethod
    def keys(body: Callable, seed: int, configs: List[Dict[str, Any]], *,
             telemetry: bool, oracle: Optional[Callable] = None
             ) -> List[str]:
        """The content address of each configuration's result.

        The one key function: the local cache pre-pass and
        :meth:`SweepSpec.store_keys
        <repro.core.fabric.spec.SweepSpec.store_keys>` both call it, so
        serial, pool and fabric sweeps share one address space.  The
        prefix digest is mixed in whenever the body is split, whether or
        not the sweep runs grouped, so grouped and cold runs share rows.
        """
        split = isinstance(body, PrefixedBody)
        base = hashlib.sha256()
        for fn in (body.cache_parts() if split else (body,)):
            base.update(getattr(fn, "__module__", "").encode())
            base.update(getattr(fn, "__qualname__", repr(fn)).encode())
            code = getattr(fn, "__code__", None)
            if code is not None:
                _hash_code(base, code)
        base.update(str(seed).encode())
        base.update(b"telemetry" if telemetry else b"bare")
        keys = []
        for config in configs:
            digest = base.copy()
            prefix_key = body.prefix_key(config) if split else None
            if prefix_key is not None:
                digest.update(b"checkpoint:")
                digest.update(_prefix_digest(body, prefix_key).encode())
            if oracle is not None:
                digest.update(getattr(oracle, "__module__", "").encode())
                digest.update(getattr(oracle, "__qualname__",
                                      repr(oracle)).encode())
            for name in sorted(config):
                digest.update(name.encode())
                value = config[name]
                try:
                    digest.update(pickle.dumps(value))
                except Exception:
                    digest.update(repr(value).encode())
            keys.append(digest.hexdigest())
        return keys

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _load(self, key: str) -> Optional[RunResult]:
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except Exception:
            # a missing file, or a truncated or corrupt pickle, which can
            # fail with almost any exception type: the row is not done
            return None

    def get(self, key: str) -> Optional[RunResult]:
        """The stored row, or None when it is absent or unreadable."""
        result = self._load(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def has(self, key: str) -> bool:
        """True when :meth:`get` would return a row (no hit accounting)."""
        return self._load(key) is not None

    def missing(self, keys: List[str]) -> List[int]:
        """Indices of ``keys`` with no readable row (a sweep's todo)."""
        return [index for index, key in enumerate(keys)
                if not self.has(key)]

    def put(self, key: str, result: RunResult) -> bool:
        """Store one result atomically; False if it is not picklable."""
        try:
            blob = pickle.dumps(result)
        except Exception:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(self._tmp_seq)}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return True
