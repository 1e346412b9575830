"""``python -m perf`` — run the benchmark and print every metric.

``python -m perf --seed 1`` runs all five workloads, untraced and then
traced, prints each end-to-end and per-layer metric by name with its unit,
and writes ``perf/out/<sha>-<seed>.json``.  ``--workload NAME`` runs one.

The benchmark driver's form adds ``--trace 0|1``: one workload, one kind of
run, and as the last line of stdout one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional

from . import OUT, ROOT, SRC, load_benchmark

#: ``sim_digest`` of every workload at seed 1, full size.  A change is
#: printed as ``sim_digest_changed`` — information, not failure: a
#: deliberate model fix re-records it in a ``benchmark`` PR.
DIGESTS = ROOT / "perf" / "sim_digests.json"
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The measuring child's allocator never hands memory back.  glibc adapts
#: its mmap and trim thresholds to the sizes a process has freed, and from
#: one process to the next the same pass of ``fig_cell_striped`` took 86k,
#: 186k or 239k minor faults (0.13 to 0.45 s of system time in 1.6 s): a
#: quarter of the throughput, decided by nothing in the inputs or the code.
#: With both thresholds named (which also switches the adapting off) every
#: array under 32 MiB is carved from a heap that only grows: the warm-up
#: pass faults the working set in, the timed passes measure computation,
#: and what a change does to memory shows in ``peak_rss_mb``.
MALLOC = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(seed: int) -> Dict:
    """Where and on what the numbers were taken (each run adds the
    library side — NumPy, numba, kernel backend — as its ``env``)."""
    sha = _git("rev-parse", "--short=12", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha or "nogit",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def _spawn(workload: str, seed: int, seconds: float, trace: int, size: str,
           setup_only: bool) -> Dict:
    """One child interpreter; returns its record plus ``setup_s``."""
    cmd = [
        sys.executable, "-m", "perf.harness", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--size", size,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_TELEMETRY", "REPRO_TELEMETRY_MEM")
    }
    env["TMPDIR"] = str(OUT)  # nothing is written outside the checkout
    env.update(MALLOC)
    spawned = perf_counter_ns()
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    record = {} if setup_only else json.loads(lines[-1])
    record["setup_s"] = (json.loads(lines[0])["ready_ns"] - spawned) / 1e9
    return record


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str = "full", setups: int = SETUPS) -> Dict:
    """Measure one workload once; ``setups - 1`` extra children only set up."""
    samples = [
        _spawn(name, seed, seconds, trace, size, setup_only=True)["setup_s"]
        for _ in range(setups - 1)
    ]
    record = _spawn(name, seed, seconds, trace, size, setup_only=False)
    samples.append(record.pop("setup_s"))
    record["end_to_end"]["setup_s"] = {
        "value": statistics.median(samples), "samples": samples,
    }
    record["fail_share"] = record["failed"] / record["attempted"]
    return record


def contract_line(record: Dict, bench: Dict) -> str:
    """The driver's result object for one run."""
    if record["trace"]:
        values = record["per_layer"]
        # A metric whose probe target is gone reads null in the output
        # file and under probes_missing; the driver wants a number.
        metrics = {
            m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": record["end_to_end"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in bench["end_to_end"]
        }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return f"{value:,.0f}"


def print_report(records: List[Dict], bench: Dict, recorded: Dict) -> None:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for record in records:
        passes = record["passes"]
        samples = sum(len(op["wall_s"]) for op in record["ops"])
        print(
            f"\n== {record['workload']}  seed {record['seed']}  "
            f"{'traced' if record['trace'] else 'untraced'}  passes "
            f"{passes['U']}U+{passes['T']}T  cached rounds {passes['C']}  "
            f"op samples {samples} =="
        )
        if not record["trace"]:
            for name, spec in bounds.items():
                entry = record["end_to_end"][name]
                print(
                    f"  {name:<28}{_fmt(entry['value']):>16} {spec['unit']:<10}"
                    f"({spec['better']} is better, bound {spec['bound']})"
                )
            print(
                f"  {'fail_share':<28}{_fmt(record['fail_share']):>16} "
                f"{'share':<10}({record['failed']} of {record['attempted']} "
                f"ops and checks failed; bound 0)"
            )
        else:
            for name, unit in units.items():
                print(
                    f"  {name:<38}{_fmt(record['per_layer'].get(name)):>16} {unit}"
                )
            print(f"  probes_missing: {record['probes_missing'] or 'none'}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        print(f"  sim_digest {record['sim_digest']}")
        known = recorded.get(record["workload"])
        if record["seed"] == 1 and known and known != record["sim_digest"]:
            print(f"  sim_digest_changed (recorded {known})")


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__)
    parser.add_argument("--workload", choices=names, help="run one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(bench["run_seconds"]),
        help="length of one run's timed body",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver form: one run, result object as the last line",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="toy problem sizes (the harness's own tests; not a measurement)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perf: no library to measure at {SRC}", file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    OUT.mkdir(parents=True, exist_ok=True)
    size = "tiny" if args.tiny else "full"
    selected = [args.workload] if args.workload else names
    kinds = [args.trace] if args.trace is not None else [0, 1]
    env = fingerprint(args.seed)
    records = [
        # Traced runs report no set-up time, so they set up once.
        run_workload(name, args.seed, args.seconds, kind, size,
                     setups=1 if kind else SETUPS)
        for name in selected
        for kind in kinds
    ]
    recorded = {}
    if size == "full" and DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text())
    print(json.dumps(env))
    print_report(records, bench, recorded)

    stem = f"{env['git_sha']}-{args.seed}"
    if args.workload:
        stem += f"-{args.workload}"
    if args.trace is not None:
        stem += f"-t{args.trace}"
    out_path = OUT / f"{stem}.json"
    out_path.write_text(json.dumps(
        {"fingerprint": env, "size": size, "runs": records},
        indent=1,
    ))
    print(f"\nwrote {out_path.relative_to(ROOT)}")
    if args.trace is not None:
        print(contract_line(records[0], bench))
        return 0  # failures travel in the result object
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
