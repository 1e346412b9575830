"""perf — the repo's benchmark.

Five workloads, five bounded end-to-end metrics and a per-layer
attribution taken from *outside* the library: nothing under ``src/`` knows
it is being measured.  ``python -m perf --seed 1`` prints every metric;
``BENCHMARK.json`` at the repo root is the machine-readable contract;
``perf/README.md`` holds the definitions.

The library is not installed in a benchmark checkout, so importing this
package puts ``<repo>/src`` on ``sys.path``.
"""

import json
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (results, traces, scratch stores).
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_benchmark() -> Dict:
    """``BENCHMARK.json``: the metric names, units, bounds and workloads."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
