"""`repro.lint` — the project-invariant static analyzer.

The reproduction's headline guarantees (bit-identical engine parity,
shard-identity == store-identity, ~80 ns disabled telemetry probes) rest
on coding conventions that ordinary tests cannot pin: RNG construction
must flow through the named-stream helpers of :mod:`repro.sim.rng`,
service shared state must only be touched under its lock, store-key code
must never consult wall clocks or iteration-order-dependent APIs, spans
must be context-managed and named from the PR 7 vocabulary, and the
switch registry must stay coherent with the kernel modules.  This
package checks all five families statically (AST-based, plus an
import-based registry cross-check) and backs the ``repro lint`` CLI
subcommand and the CI ``lint`` gate.

Rule families (each check has a numbered code; a family prefix selects
or suppresses the whole family):

``RNG``
    RNG discipline — no global seeding, no bare stdlib ``random``, every
    ``np.random.default_rng`` argument derived via ``derive_seed`` /
    ``spawn_generator``, no conditional draws in parity-critical modules.
``LOCK``
    Lock/race discipline — attributes annotated ``# guarded by:
    self._lock`` are only accessed inside ``with self._lock`` blocks (or
    methods annotated ``# requires: self._lock``).
``KEY``
    Key-path determinism — functions reachable from the store-key roots
    (``plan_run``, ``RunPlan.store_params``,
    ``cache_key``/``canonical_params``, ``expand_shards``) never call
    wall-clock, entropy, ``id()``, or unsorted directory/set-iteration
    APIs.
``TEL``
    Telemetry probe discipline — spans are context-managed, span names
    match the vocabulary regex, instruments are module-scope.
``REG``
    Registry consistency — capability declarations match the kernel
    modules, the vectorized/streaming coverage floor holds, built-in
    fabrics resolve, and every ``__all__`` matches the module's public
    definitions.

Violations are suppressed line-by-line with ``# repro:
lint-ignore[CODE]`` (family prefixes allowed, comma-separated lists
allowed, on the offending line or the line above); suppressions that
suppress nothing are themselves reported (``SUP001``).
"""

from __future__ import annotations

from .core import (
    Finding,
    LintResult,
    ModuleSource,
    Project,
    lint_paths,
    lint_project,
)
from .report import format_findings
from .rules import FAMILIES, RULE_DOCS, resolve_selection

__all__ = [
    "FAMILIES",
    "Finding",
    "LintResult",
    "ModuleSource",
    "Project",
    "RULE_DOCS",
    "format_findings",
    "lint_paths",
    "lint_project",
    "resolve_selection",
]
