"""Command-line interface: regenerate any paper artifact from a shell.

Usage (also installed as the ``sprinklers`` console script)::

    python -m repro table1
    python -m repro fig5
    python -m repro fig6 --slots 200000 --n 32
    python -m repro fig7 --loads 0.1 0.5 0.9
    python -m repro fig6 --scenario mmpp-bursty
    python -m repro demo --n 16 --load 0.8
    python -m repro bounds --rho 0.93 --n 2048
    python -m repro scenarios list
    python -m repro scenarios run --scenario hotspot-4x --switch sprinklers
    python -m repro switches list
    python -m repro fabrics list
    python -m repro fabrics run --fabric leaf-spine --scenario ring-allreduce
    python -m repro fabrics delay --fabric leaf-spine
    python -m repro store stats
    python -m repro store gc --max-age-days 30 --max-size-mb 512
    python -m repro fabrics run --fabric leaf-spine --trace trace.jsonl
    python -m repro telemetry summarize trace.jsonl
    python -m repro telemetry diff before.jsonl after.jsonl
    python -m repro telemetry check trace.jsonl --coverage 0.95
    python -m repro lint --format text
    python -m repro lint src/repro/service --select LOCK
    python -m repro serve --workers 4 --store .repro-store
    python -m repro submit --workload uniform --loads 0.3 0.9 --watch
    python -m repro status job-0001
    python -m repro watch job-0001
    python -m repro results job-0001

Figure commands accept ``--csv`` to emit machine-readable rows instead of
the rendered table/chart.  Simulation commands accept ``--store [DIR]``
(cache results in the experiment store; default directory
``.repro-store`` or ``$REPRO_STORE_DIR``) and ``--no-store``.
Simulation commands also accept ``--trace PATH`` (enable telemetry for
the command, write the JSONL span trace to PATH — see ``telemetry
summarize``) and the global ``-v``/``--quiet`` logging switches.  Every
simulation runs on the vectorized engine wherever the switch has a
kernel; only ``demo --engine object`` asks for the per-packet oracle.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import models, telemetry
from .analysis.balance import bound_vs_empirical_rows
from .analysis.chernoff import overload_probability_bound, switch_wide_bound
from .figures import fabric_delay, fig5, fig6, fig7, table1
from .figures.burst_sensitivity import render as burst_render
from .figures.delay_figures import DEFAULT_LOADS
from .figures.render import format_table, rows_to_csv
from .models import PAPER_SWITCHES
from .models.composite import CompositeSwitchModel, available_fabrics, get_fabric
from .scenarios import apply_overrides, list_scenarios, resolve_scenario
from .service import DEFAULT_URL, ServiceClient, ServiceError, serve
from .sim.experiment import ENGINES, execute, plan_run, run_single
from .store import ExperimentStore
from .traffic.matrices import diagonal_matrix, uniform_matrix

__all__ = ["main", "build_parser"]

#: Default experiment-store directory for ``--store`` with no argument.
DEFAULT_STORE_DIR = ".repro-store"


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        nargs="?",
        const=DEFAULT_STORE_DIR,
        default=None,
        metavar="DIR",
        help=(
            "cache results in the experiment store at DIR "
            f"(default {DEFAULT_STORE_DIR!r}; $REPRO_STORE_DIR also enables)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the experiment store (overrides --store and the env)",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "enable telemetry for this command and write the span trace "
            "(JSONL, inspectable with `telemetry summarize`) to PATH"
        ),
    )


def _resolve_store(args: argparse.Namespace) -> Optional[str]:
    """The store directory for a command, honoring flag/env precedence."""
    if getattr(args, "no_store", False):
        return None
    if getattr(args, "store", None) is not None:
        return args.store
    return os.environ.get("REPRO_STORE_DIR") or None


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="sprinklers",
        description=(
            "Reproduction of 'Sprinklers: A Randomized Variable-Size "
            "Striping Approach to Reordering-Free Load-Balanced Switching' "
            "(CoNeXT 2014)."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress repro log output below ERROR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: overload probability bounds")

    p5 = sub.add_parser("fig5", help="Figure 5: intermediate-stage delay vs N")
    p5.add_argument("--rho", type=float, default=0.9, help="offered load")

    for name, helptext in (
        ("fig6", "Figure 6: delay vs load, uniform traffic"),
        ("fig7", "Figure 7: delay vs load, diagonal traffic"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, default=32, help="switch size")
        p.add_argument("--slots", type=int, default=50_000, help="slots per point")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument(
            "--loads",
            type=float,
            nargs="+",
            default=None,
            help="load levels to sweep",
        )
        p.add_argument("--csv", action="store_true", help="emit CSV rows")
        p.add_argument(
            "--scenario",
            default=None,
            help=(
                "replace the figure's traffic pattern with a registered "
                "scenario (see `scenarios list`) or a .toml/.json spec file"
            ),
        )
        p.add_argument(
            "--window-slots",
            type=int,
            default=None,
            metavar="W",
            help=(
                "stream the vectorized replay in W-slot windows (bounded "
                "memory, identical results; for --slots too large to "
                "materialize at once)"
            ),
        )
        p.add_argument(
            "--fabric",
            dest="fabrics",
            action="append",
            default=[],
            metavar="NAME",
            help=(
                "also sweep a registered composite fabric alongside the "
                "paper's switches (repeatable; see `fabrics list`)"
            ),
        )
        _add_store_flags(p)
        _add_trace_flag(p)

    demo = sub.add_parser("demo", help="run every switch once, show a summary")
    demo.add_argument("--n", type=int, default=16)
    demo.add_argument("--load", type=float, default=0.8)
    demo.add_argument("--slots", type=int, default=20_000)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=(
            "force one engine (default: vectorized wherever the switch "
            "has a kernel; 'object' runs the per-packet oracle)"
        ),
    )
    _add_trace_flag(demo)

    bounds = sub.add_parser("bounds", help="overload bound for one (rho, N)")
    bounds.add_argument("--rho", type=float, required=True)
    bounds.add_argument("--n", type=int, required=True)

    balance = sub.add_parser(
        "balance",
        help="empirical overload probability vs the Table 1 bounds",
    )
    balance.add_argument("--n", type=int, default=32)
    balance.add_argument("--pattern", choices=("uniform", "diagonal"), default="diagonal")
    balance.add_argument("--trials", type=int, default=200)
    balance.add_argument(
        "--loads", type=float, nargs="+", default=[0.7, 0.8, 0.9, 0.95]
    )
    balance.add_argument("--seed", type=int, default=0)

    bursts = sub.add_parser(
        "bursts",
        help="extension: delay sensitivity to traffic burstiness",
    )
    bursts.add_argument("--n", type=int, default=16)
    bursts.add_argument("--load", type=float, default=0.6)
    bursts.add_argument("--slots", type=int, default=20_000)
    bursts.add_argument("--seed", type=int, default=0)

    validate = sub.add_parser(
        "validate",
        help="self-check: invariants of every switch on a quick workload",
    )
    validate.add_argument("--n", type=int, default=8)
    validate.add_argument("--slots", type=int, default=3000)
    validate.add_argument("--seed", type=int, default=0)

    scen = sub.add_parser(
        "scenarios",
        help="the declarative workload-scenario registry",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)

    scen_sub.add_parser("list", help="list registered scenarios")

    show = scen_sub.add_parser("show", help="dump one scenario's spec")
    show.add_argument("name", help="registry name or .toml/.json spec file")

    run = scen_sub.add_parser(
        "run",
        help="simulate one scenario on one switch",
    )
    run.add_argument(
        "--scenario",
        required=True,
        help="registry name or .toml/.json spec file",
    )
    run.add_argument(
        "--switch",
        default="sprinklers",
        choices=models.available(),
    )
    run.add_argument("--n", type=int, default=16, help="switch size")
    run.add_argument("--load", type=float, default=0.8, help="target load")
    run.add_argument("--slots", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--window-slots",
        type=int,
        default=None,
        metavar="W",
        help=(
            "stream the vectorized replay in W-slot windows (bounded "
            "memory, identical results)"
        ),
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override a spec field before running, dotted paths allowed "
            "(e.g. --set schedule.kind=sine --set schedule.depth=0.4)"
        ),
    )
    _add_store_flags(run)
    _add_trace_flag(run)

    switches = sub.add_parser(
        "switches",
        help="the switch-model registry (repro.models)",
    )
    switches_sub = switches.add_subparsers(dest="switches_command", required=True)
    sw_list = switches_sub.add_parser("list", help="list registered switches")
    sw_list.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="only switches this engine runs natively (vectorized = has "
        "an exact kernel)",
    )
    sw_show = switches_sub.add_parser(
        "show", help="one switch's capabilities, engines, and parameters"
    )
    sw_show.add_argument("name", help="registry name or alias")

    fabrics = sub.add_parser(
        "fabrics",
        help="the composite-fabric registry (multi-stage switch chains)",
    )
    fabrics_sub = fabrics.add_subparsers(dest="fabrics_command", required=True)
    fabrics_sub.add_parser("list", help="list registered composite fabrics")
    fab_show = fabrics_sub.add_parser(
        "show", help="one fabric's stages, links, and engines"
    )
    fab_show.add_argument("name", help="registry name")
    fab_run = fabrics_sub.add_parser(
        "run", help="simulate one fabric end to end"
    )
    fab_run.add_argument(
        "--fabric",
        default="leaf-spine",
        help="registered fabric name (see `fabrics list`)",
    )
    fab_run.add_argument(
        "--scenario",
        default="paper-uniform",
        help="registry name, .toml/.json spec file, or trace:<path>",
    )
    fab_run.add_argument("--n", type=int, default=16, help="fabric size")
    fab_run.add_argument("--load", type=float, default=0.8, help="target load")
    fab_run.add_argument("--slots", type=int, default=20_000)
    fab_run.add_argument("--seed", type=int, default=0)
    fab_run.add_argument(
        "--window-slots",
        type=int,
        default=None,
        metavar="W",
        help=(
            "stream every stage in W-slot windows (bounded memory, "
            "identical results)"
        ),
    )
    _add_store_flags(fab_run)
    _add_trace_flag(fab_run)
    fab_delay = fabrics_sub.add_parser(
        "delay",
        help="per-stage delay decomposition vs load (figures/fabric_delay)",
    )
    fab_delay.add_argument("--fabric", default="leaf-spine")
    fab_delay.add_argument(
        "--pattern",
        default="uniform",
        help="a §6 pattern name (uniform/diagonal) or registered scenario",
    )
    fab_delay.add_argument("--n", type=int, default=16)
    fab_delay.add_argument("--slots", type=int, default=20_000)
    fab_delay.add_argument("--seed", type=int, default=0)
    fab_delay.add_argument(
        "--loads", type=float, nargs="+", default=None,
        help="load levels to sweep",
    )
    fab_delay.add_argument("--csv", action="store_true", help="emit CSV rows")
    fab_delay.add_argument(
        "--window-slots", type=int, default=None, metavar="W",
    )
    _add_store_flags(fab_delay)
    _add_trace_flag(fab_delay)

    store = sub.add_parser(
        "store",
        help="inspect and prune the experiment store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    st_stats = store_sub.add_parser(
        "stats", help="entry count, size, and manifest hit rate"
    )
    st_gc = store_sub.add_parser(
        "gc", help="prune cached results by age and/or total size"
    )
    st_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="remove objects older than this many days",
    )
    st_gc.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        help="then remove oldest objects until the store fits this size",
    )
    for p in (st_stats, st_gc):
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help=(
                "store directory (default $REPRO_STORE_DIR or "
                f"{DEFAULT_STORE_DIR!r})"
            ),
        )

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation job service daemon (submit/watch clients)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (local by default)"
    )
    serve_p.add_argument(
        "--port", type=int, default=8753,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=2,
        help="simulation worker processes",
    )
    serve_p.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "experiment store directory the service computes into "
            f"(default $REPRO_STORE_DIR or {DEFAULT_STORE_DIR!r})"
        ),
    )
    _add_trace_flag(serve_p)

    submit_p = sub.add_parser(
        "submit", help="submit a sweep to a running service daemon"
    )
    submit_p.add_argument(
        "--workload", default="uniform",
        help=(
            "a §6 pattern (uniform/diagonal), registered scenario, "
            ".toml/.json spec file, or trace:<path>"
        ),
    )
    submit_p.add_argument(
        "--switches", nargs="+", default=list(PAPER_SWITCHES),
        metavar="SWITCH", help="switch or fabric registry names",
    )
    submit_p.add_argument(
        "--loads", type=float, nargs="+", default=[0.3, 0.6, 0.9],
    )
    submit_p.add_argument("--n", type=int, default=16, help="port count")
    submit_p.add_argument("--slots", type=int, default=2_000)
    submit_p.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="seed block (one full grid per seed)",
    )
    submit_p.add_argument(
        "--watch", action="store_true",
        help="stream the job's JSONL events until it completes",
    )

    status_p = sub.add_parser(
        "status", help="one job's progress, or all jobs'"
    )
    status_p.add_argument("job", nargs="?", default=None, help="job id")

    watch_p = sub.add_parser(
        "watch", help="stream a job's events as JSONL until it completes"
    )
    watch_p.add_argument("job", help="job id (from `submit`)")
    watch_p.add_argument(
        "--timeout", type=float, default=None,
        help="give up after this many seconds",
    )

    results_p = sub.add_parser(
        "results", help="stream a job's full per-shard results as JSONL"
    )
    results_p.add_argument("job", help="job id (from `submit`)")

    for p in (submit_p, status_p, watch_p, results_p):
        p.add_argument(
            "--url", default=None,
            help="service address (default $REPRO_SERVICE_URL or "
            "http://127.0.0.1:8753)",
        )

    tele = sub.add_parser(
        "telemetry",
        help="inspect JSONL span traces written by --trace / REPRO_TELEMETRY",
    )
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)
    t_sum = tele_sub.add_parser(
        "summarize", help="per-span-name totals and the metrics snapshot"
    )
    t_sum.add_argument("trace", help="trace file (JSONL)")
    t_diff = tele_sub.add_parser(
        "diff", help="per-span-name duration deltas between two traces"
    )
    t_diff.add_argument("trace_a", help="baseline trace (JSONL)")
    t_diff.add_argument("trace_b", help="comparison trace (JSONL)")
    t_check = tele_sub.add_parser(
        "check",
        help="validate nesting and child-span coverage (the CI smoke gate)",
    )
    t_check.add_argument("trace", help="trace file (JSONL)")
    t_check.add_argument(
        "--coverage",
        type=float,
        default=0.95,
        help="required child coverage of the gated spans (default 0.95)",
    )
    t_check.add_argument(
        "--span",
        action="append",
        metavar="NAME",
        help="gate spans of this name instead of the replay spans "
        "(repeatable), e.g. --span fabric.window",
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the project-invariant static analyzer (repro.lint)",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint_p.add_argument(
        "--select",
        nargs="+",
        metavar="RULE",
        help="only run these rules/families (e.g. RNG LOCK003)",
    )
    lint_p.add_argument(
        "--ignore",
        nargs="+",
        metavar="RULE",
        help="skip these rules/families",
    )
    lint_p.add_argument(
        "--format",
        dest="lint_format",
        choices=("text", "json", "github"),
        default="text",
        help="finding output format (default text)",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    return parser


def _cmd_fig(args: argparse.Namespace, module) -> str:
    loads = tuple(args.loads) if args.loads else DEFAULT_LOADS
    kwargs = dict(
        n=args.n,
        loads=loads,
        num_slots=args.slots,
        seed=args.seed,
        scenario=args.scenario,
        fabrics=tuple(args.fabrics),
        store=_resolve_store(args),
        window_slots=args.window_slots,
    )
    if args.csv:
        return rows_to_csv(module.generate(**kwargs))
    return module.render(**kwargs)


def _cmd_scenarios(args: argparse.Namespace) -> str:
    if args.scenario_command == "list":
        lines = [f"{'scenario':20s} summary"]
        for name in list_scenarios():
            spec = resolve_scenario(name)
            summary = spec.description
            if len(summary) > 76:
                summary = summary[:75].rstrip() + "…"
            lines.append(f"{name:20s} {summary}")
        lines.append(
            "\nrun one: python -m repro scenarios run --scenario NAME "
            "[--switch sprinklers]"
        )
        return "\n".join(lines)
    if args.scenario_command == "show":
        return json.dumps(resolve_scenario(args.name).to_dict(), indent=2)
    if args.scenario_command == "run":
        spec = resolve_scenario(args.scenario)
        if args.overrides:
            spec = apply_overrides(spec, args.overrides)
        plan = plan_run(
            args.switch,
            scenario=spec,
            n=args.n,
            load=args.load,
            num_slots=args.slots,
            seed=args.seed,
            window_slots=args.window_slots,
        )
        result = execute(plan, _resolve_store(args))
        lines = [
            f"Scenario {spec.name!r} on {args.switch} "
            f"(N={args.n}, load {args.load}, {args.slots} slots, "
            f"engine {plan.engine})",
        ]
        for key, value in result.as_row().items():
            lines.append(f"  {key:20s} {value}")
        return "\n".join(lines)
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled scenarios command {args.scenario_command}"
    )


def _cmd_switches(args: argparse.Namespace) -> str:
    if args.switches_command == "list":
        names = models.available(engine=args.engine)
        lines = [f"{'switch':20s} {'engines':20s} capabilities"]
        for name in names:
            model = models.get(name)
            engines = (
                "object+vectorized" if model.kernel is not None else "object"
            )
            caps = ", ".join(sorted(c.value for c in model.capabilities)) or "-"
            lines.append(f"{name:20s} {engines:20s} {caps}")
        if args.engine == "vectorized":
            lines.append(
                "\nswitches without a kernel fall back to the object "
                "engine in mixed sweeps"
            )
        return "\n".join(lines)
    if args.switches_command == "show":
        model = models.get(args.name)
        lines = [
            f"name          {model.name}",
            f"reported as   {model.reported_name}",
            f"aliases       {', '.join(model.aliases) or '-'}",
            f"engines       "
            f"{'object, vectorized' if model.kernel is not None else 'object'}",
            f"capabilities  "
            f"{', '.join(sorted(c.value for c in model.capabilities)) or '-'}",
            f"description   {model.description}",
        ]
        if model.params:
            lines.append("parameters:")
            for param in model.params:
                lines.append(
                    f"  {param.name:14s} {param.type.__name__:6s} "
                    f"default={param.default!r}  {param.doc}"
                )
        return "\n".join(lines)
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled switches command {args.switches_command}"
    )


def _cmd_fabrics(args: argparse.Namespace) -> str:
    if args.fabrics_command == "list":
        lines = [f"{'fabric':20s} {'stages':28s} summary"]
        for name in available_fabrics():
            spec = get_fabric(name)
            chain = " -> ".join(spec.switch_names)
            summary = spec.description
            if len(summary) > 60:
                summary = summary[:59].rstrip() + "…"
            lines.append(f"{name:20s} {chain:28s} {summary}")
        lines.append(
            "\nrun one: python -m repro fabrics run --fabric NAME "
            "[--scenario ring-allreduce]"
        )
        return "\n".join(lines)
    if args.fabrics_command == "show":
        spec = get_fabric(args.name)
        composite = CompositeSwitchModel(spec)
        lines = [
            f"name          {spec.name}",
            f"stages        {' -> '.join(spec.switch_names)}",
            f"engines       "
            f"{'object, vectorized' if composite.supports_engine('vectorized') else 'object'}",
            f"capabilities  "
            f"{', '.join(sorted(c.value for c in composite.capabilities)) or '-'}",
            f"description   {spec.description}",
            "links:",
        ]
        for k, link in enumerate(spec.links):
            detail = ", ".join(
                f"{key}={value!r}" for key, value in sorted(link.items())
            )
            lines.append(f"  stage{k} -> stage{k + 1}: {detail}")
        for k, stage in enumerate(spec.stages):
            params = stage.get("params") or {}
            if params:
                detail = ", ".join(
                    f"{key}={value!r}" for key, value in sorted(params.items())
                )
                lines.append(f"stage{k} params: {detail}")
        return "\n".join(lines)
    if args.fabrics_command == "run":
        spec = resolve_scenario(args.scenario)
        plan = plan_run(
            args.fabric,
            scenario=spec,
            n=args.n,
            load=args.load,
            num_slots=args.slots,
            seed=args.seed,
            window_slots=args.window_slots,
        )
        result = execute(plan, _resolve_store(args))
        lines = [
            f"Scenario {spec.name!r} on fabric {args.fabric} "
            f"(N={args.n}, load {args.load}, {args.slots} slots, "
            f"engine {plan.engine})",
        ]
        for key, value in result.as_row().items():
            lines.append(f"  {key:28s} {value}")
        return "\n".join(lines)
    if args.fabrics_command == "delay":
        loads = tuple(args.loads) if args.loads else DEFAULT_LOADS
        kwargs = dict(
            fabric=args.fabric,
            pattern=args.pattern,
            n=args.n,
            loads=loads,
            num_slots=args.slots,
            seed=args.seed,
            store=_resolve_store(args),
            window_slots=args.window_slots,
        )
        if args.csv:
            return rows_to_csv(fabric_delay.generate(**kwargs))
        return fabric_delay.render(**kwargs)
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled fabrics command {args.fabrics_command}"
    )


def _cmd_store(args: argparse.Namespace) -> str:
    directory = (
        args.store
        or os.environ.get("REPRO_STORE_DIR")
        or DEFAULT_STORE_DIR
    )
    if not os.path.isdir(directory):
        return f"no experiment store at {directory!r} (nothing to report)"
    store = ExperimentStore(directory)
    if args.store_command == "stats":
        stats = store.stats()
        lines = [
            f"store {directory}",
            f"  entries      {stats.entries}",
            f"  size         {stats.total_bytes / 1e6:.2f} MB",
            f"  saves        {stats.saves}",
            f"  hits         {stats.hits}",
        ]
        if stats.hits + stats.saves:
            lines.append(f"  hit rate     {stats.hit_rate:.1%}")
        else:
            lines.append("  hit rate     n/a (empty manifest)")
        if stats.oldest is not None:
            fmt = lambda ts: datetime.datetime.fromtimestamp(ts).isoformat(  # noqa: E731
                sep=" ", timespec="seconds"
            )
            lines.append(f"  oldest save  {fmt(stats.oldest)}")
            lines.append(f"  newest save  {fmt(stats.newest)}")
        return "\n".join(lines)
    if args.store_command == "gc":
        report = store.gc(
            max_age_seconds=(
                args.max_age_days * 86400.0
                if args.max_age_days is not None
                else None
            ),
            max_total_bytes=(
                # floor, not int(): -0.1 bytes must stay negative
                math.floor(args.max_size_mb * 1e6)
                if args.max_size_mb is not None
                else None
            ),
        )
        return (
            f"store {directory}: removed {report.removed} objects "
            f"({report.bytes_freed / 1e6:.2f} MB), kept {report.kept}"
        )
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled store command {args.store_command}"
    )


def _cmd_demo(args: argparse.Namespace) -> str:
    matrix = uniform_matrix(args.n, args.load)
    lines = [
        f"Demo: N={args.n}, uniform traffic at load {args.load}, "
        f"{args.slots} slots",
        f"{'switch':16s} {'mean delay':>11s} {'late pkts':>9s} {'ordered':>8s}",
    ]
    for name in list(PAPER_SWITCHES) + ["cms", "output-queued"]:
        result = run_single(
            name,
            matrix,
            args.slots,
            seed=args.seed,
            load_label=args.load,
            engine=args.engine,
        )
        lines.append(
            f"{name:16s} {result.mean_delay:11.2f} "
            f"{result.late_packets:9d} {str(result.is_ordered):>8s}"
        )
    return "\n".join(lines)


def _cmd_balance(args: argparse.Namespace) -> str:
    family = (
        (lambda n, rho, rng: uniform_matrix(n, rho))
        if args.pattern == "uniform"
        else (lambda n, rho, rng: diagonal_matrix(n, rho))
    )
    rows = bound_vs_empirical_rows(
        family,
        args.n,
        rhos=args.loads,
        trials=args.trials,
        # repro: lint-ignore[RNG003] -- diagnostic command seeded directly from --seed
        rng=np.random.default_rng(args.seed),
    )
    return (
        f"Overload probability, analytical vs measured "
        f"({args.pattern} traffic, N={args.n}, {args.trials} trials/load)\n"
        + format_table(rows)
    )


def _cmd_validate(args: argparse.Namespace) -> tuple:
    """Quick invariant sweep over every registered switch; returns
    ``(report_text, ok)``."""
    matrix = uniform_matrix(args.n, 0.8)
    lines = [
        f"Self-check: N={args.n}, uniform load 0.8, {args.slots} slots",
        f"{'switch':20s} {'delivered':>9s} {'ordered':>8s} {'verdict':>8s}",
    ]
    ok = True
    for name in models.available():
        result = run_single(
            name, matrix, args.slots, seed=args.seed, keep_samples=False
        )
        # A switch that does not declare order preservation (the plain
        # load-balanced baseline) is *expected* to reorder under load —
        # that is its known flaw.
        ordered = (
            models.Capability.ORDER_PRESERVING in models.get(name).capabilities
        )
        switch_ok = (
            result.measured_packets > 0 and result.is_ordered == ordered
        )
        ok = ok and switch_ok
        lines.append(
            f"{name:20s} {result.measured_packets:9d} "
            f"{str(result.is_ordered):>8s} {'PASS' if switch_ok else 'FAIL':>8s}"
        )
    lines.append("all checks passed" if ok else "CHECKS FAILED")
    return "\n".join(lines), ok


def _cmd_bounds(args: argparse.Namespace) -> str:
    per_queue = overload_probability_bound(args.rho, args.n)
    switch_wide = switch_wide_bound(args.rho, args.n)
    return (
        f"rho={args.rho} N={args.n}\n"
        f"per-queue overload bound:   {per_queue:.3e}\n"
        f"switch-wide (2 N^2 union):  {switch_wide:.3e}"
    )


def _cmd_telemetry(args: argparse.Namespace) -> tuple:
    """``telemetry summarize/diff/check``; returns ``(text, exit_code)``."""
    command = args.telemetry_command
    paths = (args.trace_a, args.trace_b) if command == "diff" else (args.trace,)
    try:
        traces = [telemetry.read_trace(path) for path in paths]
    except (OSError, ValueError) as exc:  # missing, unreadable, not a trace
        print(f"repro telemetry {command}: cannot read trace: {exc}", file=sys.stderr)
        return "", 2
    if command == "summarize":
        summary = telemetry.summarize_trace(traces[0])
        lines = [
            f"trace {args.trace}: {summary['total_spans']} spans",
            f"{'span':28s} {'count':>7s} {'total_s':>10s} "
            f"{'mean_s':>10s} {'max_s':>10s}",
        ]
        for name, entry in summary["by_name"].items():
            lines.append(
                f"{name:28s} {entry['count']:7d} {entry['total_s']:10.4f} "
                f"{entry['mean_s']:10.6f} {entry['max_s']:10.6f}"
            )
        for root in summary["roots"]:
            lines.append(
                f"root: {root['name']} ({root.get('dur_s') or 0.0:.4f}s)"
            )
        metrics = summary.get("metrics") or {}
        if metrics:
            lines.append(f"metrics ({len(metrics)}):")
            for name, data in sorted(metrics.items()):
                detail = ", ".join(
                    f"{key}={value:.6g}" if isinstance(value, float)
                    else f"{key}={value}"
                    for key, value in sorted(data.items())
                    if key != "type"
                )
                lines.append(f"  {name:36s} {data.get('type', '?')}: {detail}")
        return "\n".join(lines), 0
    if command == "diff":
        rows = telemetry.diff_traces(*traces)
        lines = [
            f"{args.trace_a} (a) vs {args.trace_b} (b)",
            f"{'span':28s} {'a_total_s':>10s} {'b_total_s':>10s} "
            f"{'delta_s':>10s} {'ratio':>7s}",
        ]
        for row in rows:
            ratio = f"{row['ratio']:.2f}" if row["ratio"] is not None else "-"
            lines.append(
                f"{row['name']:28s} {row['a_total_s']:10.4f} "
                f"{row['b_total_s']:10.4f} {row['delta_s']:+10.4f} {ratio:>7s}"
            )
        return "\n".join(lines), 0
    if command == "check":
        problems = telemetry.check_trace(
            traces[0], coverage=args.coverage, covered_names=args.span
        )
        if problems:
            lines = [f"trace {args.trace}: {len(problems)} problem(s)"]
            lines.extend(f"  {problem}" for problem in problems)
            return "\n".join(lines), 1
        return f"trace {args.trace}: OK", 0
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled telemetry command {command}"
    )


def _cmd_serve(args: argparse.Namespace) -> tuple:
    """Run the service daemon in the foreground until /shutdown."""
    directory = (
        args.store
        or os.environ.get("REPRO_STORE_DIR")
        or DEFAULT_STORE_DIR
    )
    server = serve(
        directory, host=args.host, port=args.port, workers=args.workers
    )
    print(
        json.dumps({
            "event": "serving",
            "url": server.address,
            "store": directory,
            "workers": args.workers,
        }),
        flush=True,
    )
    server.serve_forever()
    return "service stopped", 0


def _service_url(args: argparse.Namespace) -> str:
    return (
        args.url or os.environ.get("REPRO_SERVICE_URL") or DEFAULT_URL
    )


def _print_jsonl(events) -> Optional[dict]:
    """Print each event as one flushed JSON line; returns the last one."""
    last = None
    for event in events:
        print(json.dumps(event), flush=True)
        last = event
    return last


def _cmd_service_client(args: argparse.Namespace) -> tuple:
    """``submit``/``status``/``watch``/``results`` against a daemon."""
    client = ServiceClient(_service_url(args))
    if args.command == "submit":
        job_id = client.submit({
            "workload": args.workload,
            "switches": args.switches,
            "loads": args.loads,
            "n": args.n,
            "num_slots": args.slots,
            "seeds": args.seeds,
        })
        if not args.watch:
            return json.dumps({"job_id": job_id}), 0
        last = _print_jsonl(client.watch(job_id))
        done = last is not None and last.get("event") == "done"
        return "", 0 if done and last.get("status") == "done" else 1
    if args.command == "status":
        return json.dumps(client.status(args.job), indent=2), 0
    if args.command == "watch":
        last = _print_jsonl(client.watch(args.job, timeout=args.timeout))
        done = last is not None and last.get("event") == "done"
        return "", 0 if done and last.get("status") == "done" else 1
    if args.command == "results":
        _print_jsonl(client.results(args.job))
        return "", 0
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled service command {args.command}"
    )


def _cmd_lint(args: argparse.Namespace) -> tuple:
    """``repro lint``: run the analyzer; exit 1 when findings remain."""
    from .lint import RULE_DOCS, format_findings, lint_paths
    from .lint.report import format_result

    if args.list_rules:
        width = max(len(code) for code in RULE_DOCS)
        lines = [
            "%-*s %s" % (width, code, doc)
            for code, doc in sorted(RULE_DOCS.items())
        ]
        return "\n".join(lines), 0
    try:
        result = lint_paths(
            [Path(p) for p in args.paths],
            root=Path.cwd(),
            select=args.select,
            ignore=args.ignore,
        )
    except ValueError as exc:
        return f"error: {exc}", 2
    if args.lint_format == "text":
        return format_result(result, "text"), 0 if result.ok else 1
    return (
        format_findings(result.findings, args.lint_format),
        0 if result.ok else 1,
    )


def _dispatch(args: argparse.Namespace) -> tuple:
    """Run one parsed command; returns ``(output_text, exit_code)``."""
    if args.command == "table1":
        return table1.render(), 0
    if args.command == "fig5":
        return fig5.render(rho=args.rho), 0
    if args.command == "fig6":
        return _cmd_fig(args, fig6), 0
    if args.command == "fig7":
        return _cmd_fig(args, fig7), 0
    if args.command == "demo":
        return _cmd_demo(args), 0
    if args.command == "bounds":
        return _cmd_bounds(args), 0
    if args.command == "balance":
        return _cmd_balance(args), 0
    if args.command == "bursts":
        return (
            burst_render(
                n=args.n, load=args.load, num_slots=args.slots, seed=args.seed
            ),
            0,
        )
    if args.command == "scenarios":
        return _cmd_scenarios(args), 0
    if args.command == "switches":
        return _cmd_switches(args), 0
    if args.command == "fabrics":
        return _cmd_fabrics(args), 0
    if args.command == "store":
        return _cmd_store(args), 0
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command in ("submit", "status", "watch", "results"):
        try:
            return _cmd_service_client(args)
        except ServiceError as exc:
            return f"error: {exc}", 1
    if args.command == "validate":
        output, ok = _cmd_validate(args)
        return output, 0 if ok else 1
    raise AssertionError(  # pragma: no cover - argparse enforces the choices
        f"unhandled command {args.command}"
    )


def _run(args: argparse.Namespace) -> tuple:
    """:func:`_dispatch`, with a bad name or path typed by the user
    (``ValueError`` / ``OSError``) reported as one stderr sentence and
    exit code 2 instead of a traceback."""
    try:
        return _dispatch(args)
    except BrokenPipeError:
        raise  # a closed pipe is main()'s business, not a user error
    except (ValueError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return "", 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream closed the pipe (| head, a dying pager): not an
        # error.  Point stdout at devnull so interpreter shutdown does
        # not trip over the dead descriptor again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose or args.quiet:
        telemetry.setup_logging(verbose=args.verbose, quiet=args.quiet)
    trace_path = getattr(args, "trace", None) if args.command != "telemetry" else None
    if trace_path:
        # --trace turns telemetry on for this command only (a fresh
        # tracer/registry even if REPRO_TELEMETRY already enabled it)
        # and exports the span trace on the way out.
        with telemetry.scope(memory=telemetry.memory_from_env()):
            output, code = _run(args)
            spans = telemetry.export_jsonl(trace_path)
        if output:
            print(output)
        print(f"[trace: {spans} spans -> {trace_path}]", file=sys.stderr)
        return code
    output, code = _run(args)
    # Streaming commands (watch, submit --watch) print as they go and
    # return empty output; don't append a blank line to their JSONL.
    if output:
        print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
