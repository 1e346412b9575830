"""``python -m perf.compare A.json B.json`` — did B get worse than A?

Applies the bounds of ``BENCHMARK.json`` to every pairing of end-to-end
metric and workload in two output files of ``python -m perf``.  One row per
pairing: both values, the ratio B/A (A is the base), how much worse B is as
a share of A, each file's own pass-to-pass spread, and a verdict:

``ok``          B is no worse than A by more than the bound
``regression``  B is worse by more than the bound
``unresolved``  one file's own spread exceeds the bound, so the pair cannot
                be told apart (unless every sample of B beats every sample
                of A).  A metric's samples are its value recomputed with
                each timed pass (or cached round) left out — for ``setup_s``
                the set-ups themselves — and their spread is the distance
                between their first and third quartile as a share of their
                median: how far the value hangs on any one pass

Exits 1 if any pairing is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from . import load_benchmark


def spread(samples: List[float]) -> float:
    """Interquartile distance as a share of the median; 0 below 2 samples."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    """``a`` and ``b`` are ``{"value", "samples"}`` entries of one metric."""
    if max(spread(a["samples"]), spread(b["samples"])) > bound:
        if better == "lower":
            separated = max(b["samples"]) < min(a["samples"])
        else:
            separated = min(b["samples"]) > max(a["samples"])
        return "ok" if separated else "unresolved"
    if worsening(a["value"], b["value"], better) > bound:
        return "regression"
    return "ok"


def untraced(path: str) -> Dict[str, Dict]:
    """``workload -> end_to_end`` of the untraced runs in an output file."""
    with open(path) as fh:
        data = json.load(fh)
    return {
        run["workload"]: run["end_to_end"]
        for run in data["runs"]
        if not run["trace"]
    }


def compare(a_path: str, b_path: str, bench: Dict) -> List[Tuple]:
    """Rows ``(metric, workload, a, b, ratio, worse, spread_a, spread_b,
    verdict)`` for every pairing both files hold."""
    a_runs, b_runs = untraced(a_path), untraced(b_path)
    rows = []
    for spec in bench["end_to_end"]:
        for workload in (w["name"] for w in bench["workloads"]):
            if workload not in a_runs or workload not in b_runs:
                continue
            a = a_runs[workload][spec["name"]]
            b = b_runs[workload][spec["name"]]
            rows.append((
                spec["name"], workload, a["value"], b["value"],
                b["value"] / a["value"],
                worsening(a["value"], b["value"], spec["better"]),
                spread(a["samples"]), spread(b["samples"]),
                verdict(a, b, spec["better"], spec["bound"]),
            ))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perf.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("a", help="base output file (perf/out/<sha>-<seed>.json)")
    parser.add_argument("b", help="output file to judge against the base")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = compare(args.a, args.b, bench)
    print(
        f"{'metric':<20}{'workload':<20}{'A':>14}{'B':>14}{'B/A':>8}"
        f"{'worse by':>10}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
    )
    for metric, workload, a, b, ratio, worse, sa, sb, result in rows:
        print(
            f"{metric:<20}{workload:<20}{a:>14.6g}{b:>14.6g}{ratio:>8.3f}"
            f"{worse:>+10.3f}{bounds[metric]:>7}{sa:>10.3f}{sb:>10.3f}  {result}"
        )
    counts = {
        kind: sum(1 for row in rows if row[-1] == kind)
        for kind in ("ok", "unresolved", "regression")
    }
    print(
        f"{len(rows)} pairings: {counts['ok']} ok, "
        f"{counts['unresolved']} unresolved, {counts['regression']} regression"
    )
    return 1 if counts["regression"] else 0


if __name__ == "__main__":
    sys.exit(main())
