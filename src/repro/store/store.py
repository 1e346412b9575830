"""The experiment store: content-addressed result caching with a manifest.

Key scheme
----------
A run's cache key is ``sha256(canonical_json(params))`` where ``params``
is the *complete* simulation configuration: a schema version, the switch
registry name, N, slots, seed, warm-up fraction, sample retention, the
load label, and the workload identity — either the scenario spec's dict
form (declarative workloads are self-describing) or a SHA-256 digest of
the raw rate matrix bytes (ad-hoc matrices).  Execution details that
change no result — the engine, the kernel backend, the replay window —
are not part of it.
Canonical JSON sorts keys and uses minimal separators, so semantically
identical configurations hash identically across processes and runs.

Backends
--------
Where the bytes live is pluggable (:mod:`repro.store.backends`):

* ``dir`` (default) — ``objects/<key[:2]>/<key>.json.gz`` plus an
  append-only ``manifest.jsonl``, the seed layout.  Manifest appends
  are single atomic O_APPEND writes, so concurrent pool/service
  workers never interleave torn lines.
* ``sqlite`` — one WAL-mode ``store.sqlite`` database holding objects
  and manifest, the shared consistent result database for the
  simulation service's worker fabric.

``ExperimentStore(root)`` auto-detects (a root containing
``store.sqlite`` reopens as sqlite), so paths flattened for process
pools land on the right backend without plumbing.

Manifest lines are store *events*: a save (one per stored run; lines
without an ``event`` field predate hit logging and read as saves) or a
cache hit (``{"event": "hit", ...}``) — which is what makes
``ExperimentStore.stats`` able to report a lifetime hit rate, not just
the current process's counters.

Writes are atomic per entry (temp file + ``os.replace``, or a SQLite
transaction), so a crashed run never leaves a truncated object behind;
corrupt or unreadable objects are treated as misses and silently
recomputed.  Process-pool workers each open the store by path and write
independently — content addressing makes concurrent writes of the same
key idempotent.

``gc`` prunes by age and/or total size (oldest objects first) and
compacts the manifest to the surviving save lines; ``stats`` summarizes
entry count, bytes, and hit rate.  Both back the ``repro store``
CLI subcommands.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

from .. import telemetry
from ..sim.metrics import SimulationResult
from .backends import DirBackend, ObjectBackend, resolve_backend

logger = telemetry.get_logger(__name__)

__all__ = [
    "ExperimentStore",
    "GcReport",
    "StoreStats",
    "cache_key",
    "canonical_params",
    "coerce_store",
    "store_dir",
]

#: Bump when the params layout or result payload schema changes; old
#: entries simply stop matching (no migration needed — it is a cache).
SCHEMA_VERSION = 1


def canonical_params(params: Dict) -> str:
    """Deterministic JSON for hashing (sorted keys, minimal separators).

    ``allow_nan`` stays on: NaN load labels serialize as the literal
    ``NaN`` token, which is deterministic even though it is not strict
    JSON.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def cache_key(params: Dict) -> str:
    """The content address of a parameter dict."""
    return hashlib.sha256(canonical_params(params).encode()).hexdigest()


class StoreStats(NamedTuple):
    """Summary of a store's contents and lifetime effectiveness."""

    #: Cached objects currently on disk.
    entries: int
    #: Their total compressed size.
    total_bytes: int
    #: Save events in the manifest (each save was a computed miss).
    saves: int
    #: Hit events in the manifest.
    hits: int
    #: Lifetime hit rate ``hits / (hits + saves)``; NaN for an empty log.
    hit_rate: float
    #: Oldest / newest save timestamps (unix seconds), None when empty.
    oldest: Optional[float]
    newest: Optional[float]


class GcReport(NamedTuple):
    """What one garbage-collection pass did."""

    removed: int
    kept: int
    bytes_freed: int


class ExperimentStore:
    """Cached simulation results plus a run manifest, on a backend.

    ``backend`` selects the byte layer by name (``"dir"``/``"sqlite"``),
    accepts a ready :class:`~repro.store.backends.ObjectBackend`, or —
    left ``None`` — auto-detects from the root (see the module
    docstring).  Dir-backed stores keep the historical ``objects_dir``
    and ``manifest_path`` attributes for direct inspection.
    """

    def __init__(
        self,
        root: Union[str, Path],
        backend: Union[None, str, ObjectBackend] = None,
    ) -> None:
        self.root = Path(root)
        if isinstance(backend, ObjectBackend):
            self.backend = backend
        else:
            self.backend = resolve_backend(self.root, backend)
        if isinstance(self.backend, DirBackend):
            self.objects_dir = self.backend.objects_dir
            self.manifest_path = self.backend.manifest_path
        self.hits = 0
        self.misses = 0
        self._hit_log_failed = False

    def fetch(self, params: Dict) -> Optional[SimulationResult]:
        """The cached result for ``params``, or None (counted as a miss)."""
        key = cache_key(params)
        t0 = time.perf_counter()
        payload = self.backend.get(key)
        if payload is None:
            self.misses += 1
            telemetry.count("store.miss")
            return None
        try:
            result = SimulationResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            # A wrong-shaped payload is a miss, not an error; the
            # recomputation will overwrite it atomically.
            self.misses += 1
            telemetry.count("store.miss")
            return None
        self.hits += 1
        telemetry.count("store.hit")
        telemetry.observe("store.fetch_s", time.perf_counter() - t0)
        try:
            self._append_manifest(
                {"event": "hit", "key": key, "created": time.time()}
            )
        except (OSError, sqlite3.Error) as exc:
            # Hit logging is best-effort bookkeeping: a read-only store
            # (shared cache, another user's CI artifact) must still serve
            # hits, exactly as corrupt objects silently read as misses.
            # Say so once at DEBUG — a silent swallow hid misconfigured
            # stores (every hit retrying the append) from any diagnosis.
            if not self._hit_log_failed:
                self._hit_log_failed = True
                logger.debug(
                    "store %s: hit logging disabled for this process "
                    "(manifest append failed: %s)", self.root, exc,
                )
        return result

    def fetch_by_key(self, key: str) -> Optional[SimulationResult]:
        """The cached result stored under ``key`` directly, or None.

        For callers that planned work by key ahead of time (the
        simulation service serves full shard results this way).  No
        hit/miss accounting or manifest logging — this is an internal
        read of an object the caller already knows exists, not a cache
        lookup that should skew hit-rate statistics.
        """
        payload = self.backend.get(key)
        if payload is None:
            return None
        try:
            return SimulationResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            return None

    def save(self, params: Dict, result: SimulationResult) -> str:
        """Store a result under its params key; append to the manifest."""
        key = cache_key(params)
        t0 = time.perf_counter()
        # Per-packet samples are serialized only for runs that retained
        # them (keep_samples in the key params); the exact delay
        # histogram is always stored, so fetch round-trips losslessly
        # either way and keys are unaffected.
        include_samples = bool(params.get("keep_samples", True))
        self.backend.put(
            key,
            {
                "params": params,
                "result": result.to_dict(include_samples=include_samples),
            },
        )
        telemetry.count("store.save")
        telemetry.observe("store.save_s", time.perf_counter() - t0)
        self._append_manifest(
            {
                "key": key,
                "created": time.time(),
                "switch": params.get("switch"),
                "n": params.get("n"),
                "slots": params.get("slots"),
                "seed": params.get("seed"),
                "scenario": (params.get("workload") or {}).get(
                    "scenario", {}
                ).get("name"),
            }
        )
        return key

    def _append_manifest(self, record: Dict) -> None:
        self.backend.append_manifest(canonical_params(record))

    def manifest_records(self) -> List[Dict]:
        """Parsed manifest lines, skipping any corrupt ones."""
        records: List[Dict] = []
        for line in self.backend.manifest_lines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        return records

    def stats(self) -> StoreStats:
        """Entry count, size on disk, and lifetime hit rate (manifest)."""
        entries = self.backend.entries()
        saves = hits = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for record in self.manifest_records():
            if record.get("event") == "hit":
                hits += 1
                continue
            saves += 1  # legacy lines without "event" are saves
            created = record.get("created")
            if isinstance(created, (int, float)):
                oldest = created if oldest is None else min(oldest, created)
                newest = created if newest is None else max(newest, created)
        total = hits + saves
        return StoreStats(
            entries=len(entries),
            total_bytes=int(sum(entry.size for entry in entries)),
            saves=saves,
            hits=hits,
            hit_rate=hits / total if total else float("nan"),
            oldest=oldest,
            newest=newest,
        )

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
    ) -> GcReport:
        """Prune cached objects by age and/or total size.

        Objects older than ``max_age_seconds`` (by entry mtime — robust
        even when manifest lines are missing) are removed first; then, if
        the survivors still exceed ``max_total_bytes``, the oldest are
        removed until they fit.  The manifest is compacted to the
        surviving saves (hit events are pruned — they have served their
        statistical purpose).  With neither bound set this is a no-op
        that still compacts the manifest.

        Run gc while the store is quiescent: compaction is read-rewrite-
        replace, so manifest lines appended by a concurrently running
        sweep inside that window are dropped from the *log* (stats may
        undercount until their objects are re-saved).  Cached objects
        themselves are never affected — fetches hit regardless of what
        the manifest says.
        """
        now = time.time()
        objects = sorted(self.backend.entries(), key=lambda e: e.mtime)
        doomed: List[str] = []
        if max_age_seconds is not None:
            cutoff = now - max_age_seconds
            doomed.extend(e.key for e in objects if e.mtime < cutoff)
        if max_total_bytes is not None:
            doomed_set = set(doomed)
            remaining = [e for e in objects if e.key not in doomed_set]
            excess = sum(e.size for e in remaining) - max_total_bytes
            for entry in remaining:  # oldest first
                if excess <= 0:
                    break
                doomed.append(entry.key)
                excess -= entry.size
        bytes_freed = 0
        for key in doomed:
            bytes_freed += self.backend.delete(key)
        survivors = {entry.key for entry in self.backend.entries()}
        # Compact the manifest: surviving saves only, newest line per key.
        keep: Dict[str, Dict] = {}
        for record in self.manifest_records():
            if record.get("event") == "hit":
                continue
            key = record.get("key")
            if key in survivors:
                keep[key] = record
        self.backend.rewrite_manifest(
            [canonical_params(record) for record in keep.values()]
        )
        return GcReport(
            removed=len(doomed),
            kept=len(survivors),
            bytes_freed=bytes_freed,
        )

    def __len__(self) -> int:
        """Number of stored objects."""
        return len(self.backend.entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExperimentStore({str(self.root)!r}, "
            f"backend={self.backend.name!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def coerce_store(
    store: Union[None, str, Path, ExperimentStore]
) -> Optional[ExperimentStore]:
    """Accept None, a path, or a store instance at API boundaries.

    A string path may carry an explicit backend prefix
    (``"sqlite:/path/to/store"``); plain paths auto-detect.
    """
    if store is None or isinstance(store, ExperimentStore):
        return store
    if isinstance(store, str) and store.startswith("sqlite:"):
        return ExperimentStore(store[len("sqlite:"):], backend="sqlite")
    return ExperimentStore(store)


def store_dir(
    store: Union[None, str, Path, ExperimentStore]
) -> Optional[str]:
    """The inverse of :func:`coerce_store`: a picklable directory string.

    Process-pool jobs carry the store by path (workers reopen it
    locally); this is the one place that flattening lives.  Backend
    identity survives the round trip via auto-detection (a sqlite store
    root contains its database file).
    """
    if store is None:
        return None
    if isinstance(store, ExperimentStore):
        return str(store.root)
    return str(store)
