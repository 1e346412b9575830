"""Store-key determinism rules (KEY001-KEY003).

PR 8's central identity — ``shard identity == store identity`` — holds
only if every function on the path that *computes* a cache key is a pure
function of the run parameters.  A wall-clock read, an entropy source,
an ``id()``, or an iteration whose order varies across processes would
make the same logical run hash to different keys on different hosts (or
the same host, twice), silently defeating dedup and cache reuse.

The rule computes the project call graph reachable from the key roots
(``plan_run`` and ``RunPlan.store_params``, the store's
``canonical_params`` / ``cache_key``, and ``jobs.expand_shards``) and
forbids the hazardous APIs anywhere in that set.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..callgraph import CallGraph, build_call_graph
from ..core import Finding, Project

__all__ = ["KEY_ROOTS", "check"]

#: ``(module, function name)`` pairs whose reachable call graph must be
#: deterministic.  Methods match by trailing name (``Cls.name``).
KEY_ROOTS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.experiment", "plan_run"),
    ("repro.sim.experiment", "RunPlan.store_params"),
    ("repro.store.store", "canonical_params"),
    ("repro.store.store", "cache_key"),
    ("repro.service.jobs", "expand_shards"),
)

#: Dotted calls that read wall clocks or entropy (KEY001).
_FORBIDDEN_EXACT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.urandom",
        "uuid.uuid4",
        "uuid.uuid1",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)

#: Listing calls that must be wrapped in ``sorted(...)`` (KEY002).
_LISTING_ATTRS = frozenset({"listdir", "scandir", "glob", "iglob", "rglob", "iterdir"})


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def check(project: Project, active: Set[str]) -> List[Finding]:
    graph = build_call_graph(project)
    roots: List[str] = []
    for modname, name in KEY_ROOTS:
        roots.extend(graph.lookup(modname, name))
    reachable = graph.reachable(roots)
    if not reachable:
        return []

    findings: List[Finding] = []
    relpath_by_mod: Dict[str, str] = {
        m.modname: m.relpath for m in project.modules
    }
    for key in sorted(reachable):
        info = graph.functions[key]
        relpath = relpath_by_mod.get(info.modname)
        if relpath is None:
            continue
        parents = _parent_map(info.node)
        for call in info.calls:
            findings.extend(
                _check_call(call, key, relpath, parents)
            )
        findings.extend(_check_set_iteration(info.node, key, relpath))
    return findings


def _parent_map(fn: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(fn):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _check_call(
    call: ast.Call,
    fn_key: str,
    relpath: str,
    parents: Dict[ast.AST, ast.AST],
) -> List[Finding]:
    findings: List[Finding] = []
    callee = _dotted(call.func)
    where = "key-path function `%s`" % fn_key.split(":", 1)[1]

    # KEY001 — wall clock / entropy / object identity.
    hazard: Optional[str] = None
    if callee is not None:
        if callee in _FORBIDDEN_EXACT:
            hazard = callee
        else:
            parts = callee.split(".")
            if parts[-1] in ("now", "utcnow") and "datetime" in parts:
                hazard = callee
    if callee == "id" and call.args:
        hazard = "id()"
    if hazard is not None:
        findings.append(
            Finding(
                code="KEY001",
                message=(
                    "`%s` in %s — cache keys must be pure functions of "
                    "the run parameters" % (hazard, where)
                ),
                path=relpath,
                line=call.lineno,
                col=call.col_offset,
            )
        )

    # KEY002 — unsorted directory listings.
    if callee is not None:
        parts = callee.split(".")
        is_listing = parts[-1] in _LISTING_ATTRS and (
            len(parts) > 1 or parts[-1] in ("iglob",)
        )
        if is_listing and not _wrapped_in_sorted(call, parents):
            findings.append(
                Finding(
                    code="KEY002",
                    message=(
                        "unsorted `%s` in %s — filesystem order is not "
                        "deterministic; wrap in sorted(...)"
                        % (callee, where)
                    ),
                    path=relpath,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )
    return findings


def _wrapped_in_sorted(
    call: ast.Call, parents: Dict[ast.AST, ast.AST]
) -> bool:
    node: Optional[ast.AST] = parents.get(call)
    # Allow one intervening node (e.g. a generator expression argument).
    for _ in range(3):
        if node is None:
            return False
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            return True
        node = parents.get(node)
    return False


def _check_set_iteration(
    fn: ast.AST, fn_key: str, relpath: str
) -> List[Finding]:
    findings: List[Finding] = []
    where = "key-path function `%s`" % fn_key.split(":", 1)[1]
    iters: List[ast.expr] = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iters.extend(gen.iter for gen in node.generators)
    for it in iters:
        is_set = isinstance(it, ast.Set) or (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("set", "frozenset")
        )
        if is_set:
            findings.append(
                Finding(
                    code="KEY003",
                    message=(
                        "iteration over a bare set in %s — order varies "
                        "with hash seeding; sort first" % where
                    ),
                    path=relpath,
                    line=it.lineno,
                    col=it.col_offset,
                )
            )
    return findings
