"""Golden results: the digest of every run shape's result value.

``tests/data/golden_results.json`` pins, per configuration below, the
SHA-256 of the canonical JSON of its result: ``to_dict(include_samples=
False)`` with the ``telemetry`` extra dropped (wall seconds and RSS are
not results).  A refactor or optimisation that claims bit-identical
results must leave the file byte-identical; a one-slot change to any
kernel moves at least one row.

Regenerate (only when a result change is intended and documented, row
by row, with the reason each moved)::

    PYTHONPATH=src:. python tests/test_golden_results.py --regen

The rows come from public entry points only (``run_single``,
``replicate``, ``execute_shard``, ``run_sweep``), so the generator runs
unchanged on any commit that has them.  ``sweep/delay_vs_load/uniform``
keeps the name of the serial sweep that first computed it; it is the
same grid on ``run_sweep`` now.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict

import repro.models
from repro.service import JobRequest, ShardSpec, execute_shard, run_sweep
from repro.sim.experiment import cell_workload, run_single
from repro.sim.replication import replicate

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_results.json"

N = 8
#: The wide size: every ``input * n + output`` of N = 8 fits a uint8, so
#: only rows at N = 32 can show a narrow column wrapping silently.
N_WIDE = 32
SLOTS = 2_000
SEED = 1
LOAD = 0.8
WORKLOADS = ("uniform", "diagonal", "mmpp-bursty")


def digest(value) -> str:
    """SHA-256 of ``value``'s canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_dict(result) -> Dict:
    """A result's canonical value: no samples, no telemetry extra."""
    data = result.to_dict(include_samples=False)
    data["extras"].pop("telemetry", None)
    return data


def _cell(
    switch: str, workload: str = "uniform", n: int = N, **kwargs
) -> Callable:
    return lambda: result_dict(run_single(
        switch, num_slots=SLOTS, seed=SEED,
        **cell_workload(workload, n, LOAD), **kwargs,
    ))


def _replicate() -> Dict:
    res = replicate(
        "pf", num_slots=SLOTS, replications=3, base_seed=SEED,
        **cell_workload("diagonal", N, LOAD),
    )
    # The per-seed values and their mean.  The half width is left out:
    # adding it would change this file's row schema.
    return {"metric": res.metric, "mean": res.mean, "values": res.values}


def _shard() -> Dict:
    shard = ShardSpec(
        switch="foff", workload="mmpp-bursty", n=N, load=LOAD,
        num_slots=SLOTS, seed=SEED,
    )
    with tempfile.TemporaryDirectory() as store:
        out = execute_shard({"shard": shard.to_dict(), "store": store})
    return out["row"]  # wall_s is a timing, not a result


def _sweep() -> list:
    request = JobRequest(
        workload="uniform",
        switches=("sprinklers", "ufs", "pf", "output-queued"),
        loads=(0.5, 0.9), n=N, num_slots=SLOTS, seeds=(SEED,),
    )
    return [result_dict(r) for r in run_sweep(request, workers=2)]


def _service_sweep() -> list:
    request = JobRequest(
        workload="diagonal", switches=("sprinklers", "foff", "cms"),
        loads=(0.4, 0.9), n=N, num_slots=SLOTS, seeds=(SEED,),
    )
    return [result_dict(r) for r in run_sweep(request, workers=2)]


def rows() -> Dict[str, Callable]:
    """``name -> thunk`` returning each row's canonical value."""
    table: Dict[str, Callable] = {
        f"model/{name}/{workload}": _cell(name, workload)
        for name in repro.models.available()
        for workload in WORKLOADS
    }
    table.update({
        "windowed/sprinklers/diagonal": _cell(
            "sprinklers", "diagonal", window_slots=256
        ),
        "replicate/pf/diagonal": _replicate,
        "fabric/leaf-spine/uniform": _cell("leaf-spine"),
        "shard/foff/mmpp-bursty": _shard,
        "sweep/delay_vs_load/uniform": _sweep,
        "sweep/run_sweep/diagonal": _service_sweep,
    })
    table.update({
        f"n32/model/{name}/uniform": _cell(name, n=N_WIDE)
        for name in repro.models.available(engine="vectorized")
    })
    table.update({
        "n32/windowed/sprinklers/diagonal": _cell(
            "sprinklers", "diagonal", n=N_WIDE, window_slots=256
        ),
        "n32/fabric/leaf-spine/uniform": _cell("leaf-spine", n=N_WIDE),
    })
    return table


def compute_digests() -> Dict[str, str]:
    return {name: digest(thunk()) for name, thunk in rows().items()}


def render(digests: Dict[str, str]) -> str:
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


def test_results_match_golden_file_byte_for_byte():
    golden = json.loads(GOLDEN_PATH.read_text())
    computed = compute_digests()
    moved = sorted(
        name for name in golden.keys() | computed.keys()
        if golden.get(name) != computed.get(name)
    )
    assert not moved, f"results moved: {moved}"
    assert render(computed) == GOLDEN_PATH.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render(compute_digests()))
    print(f"wrote {GOLDEN_PATH}")
