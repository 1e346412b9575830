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

Layout
------
One SQLite database, ``<root>/store.sqlite``, in WAL mode.  Its
``objects`` table holds each stored run (key, canonical-JSON payload
text, byte size, save time); its ``manifest`` table holds the event log,
one canonical-JSON line per row in insert order.  WAL lets readers run
during writes and ``busy_timeout`` rides out bursts of writers, so the
pool and service workers that each reopen the store by path share one
consistent database.  Every write is one transaction, so a crashed run
never leaves a half-written object; a corrupt payload reads as a miss
and is recomputed.  Content addressing makes concurrent writes of the
same key idempotent.

A store in the older gzip-directory layout (``objects/<key[:2]>/
<key>.json.gz`` plus ``manifest.jsonl``) is not read: opening its root
creates an empty database beside the old files, and every cell
recomputes, as after a :data:`SCHEMA_VERSION` bump.

Manifest lines are store *events*: a save (one per stored run; lines
without an ``event`` field predate hit logging and read as saves) or a
cache hit (``{"event": "hit", ...}``) — which is what makes
``ExperimentStore.stats`` able to report a lifetime hit rate, not just
the current process's counters.

``gc`` prunes by age and/or total size (oldest objects first) and
compacts the manifest to the surviving save lines; ``stats`` summarizes
entry count, bytes, and hit rate.  Both back the ``repro store``
CLI subcommands.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Union

from .. import telemetry
from ..sim.metrics import SimulationResult

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

#: The store's database file, under its root directory.
SQLITE_FILENAME = "store.sqlite"


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
    #: Their total payload size in bytes.
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
    """Cached simulation results plus a run manifest, in one database.

    Connections are per thread (SQLite connections are not thread-safe)
    and per process, opened lazily, so a store object may cross
    ``fork()``: a child opens its own connection on first use.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / SQLITE_FILENAME
        self._local = threading.local()
        with self._cursor() as cur:
            cur.execute(
                "CREATE TABLE IF NOT EXISTS objects ("
                "  key TEXT PRIMARY KEY,"
                "  payload TEXT NOT NULL,"
                "  size INTEGER NOT NULL,"
                "  mtime REAL NOT NULL)"
            )
            cur.execute(
                "CREATE TABLE IF NOT EXISTS manifest ("
                "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  line TEXT NOT NULL)"
            )
        self.hits = 0
        self.misses = 0
        self._hit_log_failed = False

    def _connect(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != os.getpid():
            conn = sqlite3.connect(self.db_path, timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            self._local.conn = conn
            self._local.pid = os.getpid()
        return conn

    @contextmanager
    def _cursor(self) -> Iterator[sqlite3.Cursor]:
        """``with self._cursor() as cur`` — commit on success, rollback
        on error (every call is one transaction)."""
        conn = self._connect()
        try:
            yield conn.cursor()
        except BaseException:
            conn.rollback()
            raise
        else:
            conn.commit()

    def fetch(self, params: Dict) -> Optional[SimulationResult]:
        """The cached result for ``params``, or None (counted as a miss)."""
        key = cache_key(params)
        t0 = time.perf_counter()
        result = _rebuild(self.result_dict(key))
        if result is None:
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
        except sqlite3.Error as exc:
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

        For callers that planned work by key ahead of time.  No hit/miss
        accounting or manifest logging — this is an internal read of an
        object the caller already knows exists, not a cache lookup that
        should skew hit-rate statistics.
        """
        return _rebuild(self.result_dict(key))

    def result_dict(self, key: str) -> Optional[Dict]:
        """The stored result dict under ``key`` (the
        :meth:`~repro.sim.metrics.SimulationResult.to_dict` form), or
        None; like :meth:`fetch_by_key`, without accounting, and without
        rebuilding a result object.
        """
        with self._cursor() as cur:
            row = cur.execute(
                "SELECT payload FROM objects WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else _stored_result(row[0])

    def result_text(self, key: str) -> Union[None, str, Dict]:
        """The stored result under ``key`` as its JSON text, read once.

        ``save`` writes ``canonical_params({"params": P, "result": R})``,
        so the text of ``R`` lies inside the payload; it is handed out as
        is, undecoded, when the payload provably has that shape: valid
        (strict) JSON with exactly those two members, both objects, and
        no ``delay_samples`` in ``R``.  SQLite checks the shape; it renders
        only ``P``, to find where ``R`` starts, and the text handed out
        is always the stored bytes.  Any other payload (one carrying
        samples, a NaN or infinite value, a hand-made or corrupt one)
        takes :meth:`result_dict`'s path from the same read: its decoded
        dict, or None.
        """
        with self._cursor() as cur:
            row = cur.execute(_RESULT_TEXT_SQL, (key,)).fetchone()
        if row is None:
            return None
        payload, params_text = row
        if isinstance(payload, str) and params_text is not None:
            head = f'{{"params":{params_text},"result":'
            if payload.startswith(head) and payload.endswith("}"):
                return payload[len(head):-1]
        return _stored_result(payload)

    def __contains__(self, key: object) -> bool:
        """Whether an object is stored under ``key`` (one existence query)."""
        with self._cursor() as cur:
            row = cur.execute(
                "SELECT 1 FROM objects WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def save(self, params: Dict, result: SimulationResult) -> str:
        """Store a result under its params key; append to the manifest."""
        key = cache_key(params)
        t0 = time.perf_counter()
        # Per-packet samples are serialized only for runs that retained
        # them (keep_samples in the key params); the exact delay
        # histogram is always stored, so fetch round-trips losslessly
        # either way and keys are unaffected.
        include_samples = bool(params.get("keep_samples", True))
        text = canonical_params(
            {
                "params": params,
                "result": result.to_dict(include_samples=include_samples),
            }
        )
        with self._cursor() as cur:
            cur.execute(
                "INSERT OR REPLACE INTO objects (key, payload, size, mtime) "
                "VALUES (?, ?, ?, ?)",
                (key, text, len(text.encode()), time.time()),
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
        with self._cursor() as cur:
            cur.execute(
                "INSERT INTO manifest (line) VALUES (?)",
                (canonical_params(record),),
            )

    def manifest_records(self) -> List[Dict]:
        """Parsed manifest lines, skipping any corrupt ones."""
        with self._cursor() as cur:
            rows = cur.execute(
                "SELECT line FROM manifest ORDER BY id"
            ).fetchall()
        records: List[Dict] = []
        for (line,) in rows:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        return records

    def stats(self) -> StoreStats:
        """Entry count, size on disk, and lifetime hit rate (manifest)."""
        with self._cursor() as cur:
            entries, total_bytes = cur.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM objects"
            ).fetchone()
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
            entries=int(entries),
            total_bytes=int(total_bytes),
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

        Objects saved more than ``max_age_seconds`` ago (by the object's
        own save time, robust even when manifest lines are missing) are
        removed first; then, if the survivors still exceed
        ``max_total_bytes``, the oldest are removed until they fit.  The
        manifest is compacted to the surviving saves (hit events are
        pruned — they have served their statistical purpose).  With
        neither bound set this is a no-op that still compacts the
        manifest.  The whole pass is one write transaction, so a sweep
        saving concurrently waits for it rather than losing its lines.
        A negative (or NaN) bound raises ``ValueError`` before anything is
        touched: it would otherwise remove every object.
        """
        for name, bound in (
            ("max_age_seconds", max_age_seconds),
            ("max_total_bytes", max_total_bytes),
        ):
            if bound is not None and not bound >= 0:
                raise ValueError(f"{name} must be nonnegative, got {bound}")
        now = time.time()
        with self._cursor() as cur:
            cur.execute("BEGIN IMMEDIATE")
            objects = cur.execute(
                "SELECT key, size, mtime FROM objects ORDER BY mtime"
            ).fetchall()
            doomed: Dict[str, int] = {}
            if max_age_seconds is not None:
                cutoff = now - max_age_seconds
                doomed.update(
                    (key, size) for key, size, mtime in objects
                    if mtime < cutoff
                )
            if max_total_bytes is not None:
                remaining = [
                    (key, size) for key, size, _ in objects
                    if key not in doomed
                ]
                excess = sum(size for _, size in remaining) - max_total_bytes
                for key, size in remaining:  # oldest first
                    if excess <= 0:
                        break
                    doomed[key] = size
                    excess -= size
            cur.executemany(
                "DELETE FROM objects WHERE key = ?", [(k,) for k in doomed]
            )
            survivors = {key for key, _, _ in objects if key not in doomed}
            # Compact the manifest: surviving saves only, newest line per key.
            keep: Dict[str, str] = {}
            for (line,) in cur.execute(
                "SELECT line FROM manifest ORDER BY id"
            ).fetchall():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                key = record.get("key")
                if record.get("event") != "hit" and key in survivors:
                    keep[key] = canonical_params(record)
            cur.execute("DELETE FROM manifest")
            cur.executemany(
                "INSERT INTO manifest (line) VALUES (?)",
                [(line,) for line in keep.values()],
            )
        return GcReport(
            removed=len(doomed),
            kept=len(survivors),
            bytes_freed=int(sum(doomed.values())),
        )

    def __len__(self) -> int:
        """Number of stored objects."""
        with self._cursor() as cur:
            (count,) = cur.execute("SELECT COUNT(*) FROM objects").fetchone()
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExperimentStore({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


#: One read of a payload plus, when its result can be handed out as
#: text, ``P`` rendered by SQLite (see :meth:`ExperimentStore.result_text`).
#: ``json_valid`` is strict (no NaN, no JSON5) and guards the other
#: calls, which raise on malformed input; ``json_remove`` leaving ``{}``
#: proves there is no third or repeated member.  ``P`` must be an
#: object: braces delimit it, so a rendering that matches the stored
#: bytes after ``{"params":`` ends exactly where the stored ``P`` ends.
_RESULT_TEXT_SQL = (
    "SELECT payload, CASE WHEN json_valid(payload)"
    " AND json_type(payload, '$.params') = 'object'"
    " AND json_type(payload, '$.result') = 'object'"
    " AND json_type(payload, '$.result.delay_samples') IS NULL"
    " AND json_remove(payload, '$.params', '$.result') = '{}'"
    " THEN json_extract(payload, '$.params') END"
    " FROM objects WHERE key = ?"
)


def _stored_result(payload) -> Optional[Dict]:
    """The result dict of one payload; None for a corrupt or
    wrong-shaped one (partial copy, manual tampering), which is a miss
    that the recomputation overwrites."""
    try:
        result = json.loads(payload)["result"]
    except (ValueError, KeyError, TypeError):
        return None
    return result if isinstance(result, dict) else None


def _rebuild(data: Optional[Dict]) -> Optional[SimulationResult]:
    """A result from its stored dict; None for a missing or wrong-shaped
    one (a miss, not an error)."""
    if data is None:
        return None
    try:
        return SimulationResult.from_dict(data)
    except (ValueError, KeyError, TypeError):
        return None


def coerce_store(
    store: Union[None, str, Path, ExperimentStore]
) -> Optional[ExperimentStore]:
    """Accept None, a path, or a store instance at API boundaries.

    A string path may carry a ``sqlite:`` prefix
    (``"sqlite:/path/to/store"``), the form older callers use to ask for
    the layout every store now has; it is stripped.
    """
    if store is None or isinstance(store, ExperimentStore):
        return store
    if isinstance(store, str) and store.startswith("sqlite:"):
        store = store[len("sqlite:"):]
    return ExperimentStore(store)


def store_dir(
    store: Union[None, str, Path, ExperimentStore]
) -> Optional[str]:
    """The inverse of :func:`coerce_store`: a picklable directory string.

    Process-pool jobs carry the store by path (workers reopen it
    locally); this is the one place that flattening lives.
    """
    if store is None:
        return None
    if isinstance(store, ExperimentStore):
        return str(store.root)
    return str(store)
