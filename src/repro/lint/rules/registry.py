"""Registry-consistency rules (REG001-REG005).

REG001-REG003 and REG005 are *dynamic* cross-checks: they import the
switch registry and verify that no feedback-coupled model carries a
kernel and every registered stream kernel honors the
:class:`~repro.sim.kernels.base.StreamKernel` contract, that the
paper-grid coverage floor holds, that the built-in fabrics resolve, and
that every kernel module resolves compiled pass implementations
(:func:`repro.sim.kernels.compiled.resolve_compiled_passes`).
They replace the ad-hoc shell gates the CI tier-1 job used to carry and
only run when the linted file set includes ``repro/models/builtin.py``
(so fixture-only lint runs in tests stay hermetic).

REG004 is static: in every module that declares ``__all__``, the list
must name exactly the module's public API — every listed name is
defined (or re-exported), and every public ``def``/``class`` is listed.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..core import Finding, ModuleSource, Project

__all__ = ["check"]

#: The switches whose vectorized coverage is the CI floor
#: (the five paper curves plus the output-queued reference).
COVERAGE_FLOOR = (
    "sprinklers",
    "ufs",
    "foff",
    "pf",
    "load-balanced",
    "output-queued",
)

#: The built-in fabrics that must resolve and run vectorized.
FABRIC_FLOOR = ("leaf-spine", "dual-sprinklers")

_BUILTIN_RELPATH_SUFFIX = "repro/models/builtin.py"


def check(project: Project, active: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        findings.extend(_check_all_exports(module))

    builtin = next(
        (
            m
            for m in project.modules
            if m.relpath.endswith(_BUILTIN_RELPATH_SUFFIX)
        ),
        None,
    )
    if builtin is not None and any(
        code in active for code in ("REG001", "REG002", "REG003", "REG005")
    ):
        findings.extend(_check_registry(builtin))
    return findings


# -- REG001-REG003: dynamic registry checks -----------------------------------


def _check_registry(builtin: ModuleSource) -> List[Finding]:
    findings: List[Finding] = []
    try:
        import numpy as np

        from repro import models
        from repro.models.composite import (
            CompositeSwitchModel,
            get_fabric,
        )
        from repro.models.model import Capability
        from repro.sim.kernels.base import StreamKernel
    except Exception as exc:  # registry import must itself succeed
        return [
            Finding(
                code="REG001",
                message="cannot import the switch registry: %s" % (exc,),
                path=builtin.relpath,
                line=1,
            )
        ]

    def fail(code: str, message: str) -> None:
        findings.append(
            Finding(code=code, message=message, path=builtin.relpath, line=1)
        )

    # REG001 — what a registration can still get wrong.
    for name in models.available():
        model = models.get(name)
        if (
            Capability.FEEDBACK_COUPLED in model.capabilities
            and model.kernel is not None
        ):
            fail(
                "REG001",
                "switch %r declares feedback-coupled yet carries an "
                "exact kernel" % name,
            )
        if model.stream_kernel is not None:
            try:
                streamer = model.stream_kernel(np.full((2, 2), 0.25), 0, 4)
            except Exception as exc:
                streamer = exc
            if not isinstance(streamer, StreamKernel):
                fail(
                    "REG001",
                    "switch %r: stream_kernel(matrix, seed, total_slots) "
                    "produced %r, not a repro.sim.kernels.base.StreamKernel"
                    % (name, streamer),
                )

    # REG002 — the vectorized coverage floor.
    vectorized = set(models.available(engine="vectorized"))
    for name in COVERAGE_FLOOR:
        if name not in vectorized:
            fail(
                "REG002",
                "coverage floor: switch %r lost its vectorized kernel"
                % name,
            )

    # REG003 — built-in fabrics resolve and support the vectorized engine.
    for fname in FABRIC_FLOOR:
        try:
            CompositeSwitchModel(get_fabric(fname)).require_engine(
                "vectorized"
            )
        except Exception as exc:
            fail(
                "REG003",
                "built-in fabric %r unusable on the vectorized engine: %s"
                % (fname, exc),
            )

    # REG005 — every kernel module must resolve compiled implementations
    # for its hot passes.
    from repro.sim.kernels.compiled import resolve_compiled_passes

    for name in sorted(vectorized):
        kernel_module = models.get(name).kernel.__module__
        try:
            passes = resolve_compiled_passes(kernel_module)
        except Exception as exc:
            fail(
                "REG005",
                "switch %r: compiled passes for kernel module %s do not "
                "resolve: %s" % (name, kernel_module, exc),
            )
            continue
        if not passes or not all(callable(p) for p in passes):
            fail(
                "REG005",
                "switch %r: kernel module %s resolved no compiled pass "
                "implementations" % (name, kernel_module),
            )
    return findings


# -- REG004: __all__ vs. public definitions -----------------------------------


def _check_all_exports(module: ModuleSource) -> List[Finding]:
    declared = _declared_all(module.tree)
    if declared is None:
        return []
    names, decl_line = declared

    defined: Set[str] = set()  # anything assignable/importable at top level
    public_defs: Set[str] = set()  # def/class names that belong in __all__
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public_defs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                defined.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    defined.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING / fallback-import blocks: count their
            # bindings as defined (one level deep is enough here).
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defined.add(sub.name)
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            defined.add(alias.asname or alias.name)

    # A module-level ``__getattr__`` provides names lazily (the
    # deprecation-shim idiom), so "listed but undefined" cannot be
    # decided statically there.
    lazy = "__getattr__" in defined
    findings: List[Finding] = []
    if not lazy:
        for name in sorted(set(names) - defined):
            findings.append(
                Finding(
                    code="REG004",
                    message=(
                        "__all__ lists %r but the module defines no such "
                        "name" % name
                    ),
                    path=module.relpath,
                    line=decl_line,
                )
            )
    for name in sorted(public_defs - set(names)):
        findings.append(
            Finding(
                code="REG004",
                message=(
                    "public definition %r missing from __all__ — export "
                    "it or rename it with a leading underscore" % name
                ),
                path=module.relpath,
                line=decl_line,
            )
        )
    return findings


def _declared_all(tree: ast.Module) -> Optional[tuple]:
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [
                        el.value
                        for el in value.elts
                        if isinstance(el, ast.Constant)
                        and isinstance(el.value, str)
                    ]
                    return names, node.lineno
    return None
