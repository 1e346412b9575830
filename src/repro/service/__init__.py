"""The simulation job service.

A long-running daemon (``repro serve``) that accepts sweep submissions,
decomposes them into store-keyed shards, executes them on a
crash-tolerant process worker pool, dedups identical work across
concurrent requests (in-flight shards are shared, completed shards are
served from the experiment store), and streams per-cell results to
watching clients as JSONL events.

Layers, bottom-up:

* :mod:`repro.service.jobs` — requests, shards, and the store-key
  planning that makes shard identity equal store identity.
* :mod:`repro.service.pool` — the worker pool: the parent hands each
  idle worker one shard over its pipe, preferring a shard of the
  traffic stream that worker drew last, and requeues a dead worker's.
* :mod:`repro.service.core` — :class:`SimulationService`: submission,
  dedup, job event logs, streaming; :func:`run_sweep`, its blocking
  in-process form (how a local sweep runs across processes).
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the local
  HTTP surface (`submit`/`status`/`watch`/`results`) and its stdlib
  client, used by the ``repro submit|status|watch|results`` commands.
"""

from .client import DEFAULT_URL, ServiceClient, ServiceError
from .core import SimulationService, run_sweep
from .daemon import ServiceServer, serve
from .jobs import (
    JobRequest,
    ShardSpec,
    execute_shard,
    expand_shards,
    shard_key,
    shard_params,
    shard_run_kwargs,
)
from .pool import WorkerPool

__all__ = [
    "DEFAULT_URL",
    "JobRequest",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardSpec",
    "SimulationService",
    "WorkerPool",
    "execute_shard",
    "expand_shards",
    "run_sweep",
    "serve",
    "shard_key",
    "shard_params",
    "shard_run_kwargs",
]
