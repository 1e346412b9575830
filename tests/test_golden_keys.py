"""Golden store keys: the cache key of every key-producing configuration.

``tests/data/golden_keys.json`` pins the experiment-store key of each
configuration below.  A refactor of the run-resolution path must leave
the file byte-identical — a changed key silently orphans every stored
result and breaks the service's shard dedup.

Regenerate (only when a key change is intended and documented)::

    PYTHONPATH=src:. python tests/test_golden_keys.py --regen

The keys come from public entry points only (``resolve_run_params`` and
``shard_key``), so the generator runs unchanged on any commit that has
them.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

from repro.models import FabricSpec, get_fabric
from repro.scenarios import get_scenario
from repro.scenarios.spec import save_scenario_file
from repro.service.jobs import ShardSpec, shard_key
from repro.sim.experiment import resolve_run_params
from repro.store import cache_key
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_keys.json"

KERNEL_SWITCHES = (
    "sprinklers", "ufs", "pf", "foff", "load-balanced", "output-queued",
)

TWO_STAGE = FabricSpec(
    name="golden-two-stage",
    stages=({"switch": "sprinklers"}, {"switch": "output-queued"}),
)


def run_configs(spec_file: Path) -> Dict[str, Dict]:
    """``name -> resolve_run_params kwargs`` for every run-key shape the
    suite exercises."""
    matrix = uniform_matrix(4, 0.5)
    base = dict(matrix=matrix, num_slots=500, seed=3, load_label=0.5)
    scenario = dict(n=4, load=0.6, num_slots=500, seed=3)
    configs = {
        f"switch/{name}": dict(switch_name=name, **base)
        for name in KERNEL_SWITCHES + ("cms",)
    }
    configs.update({
        "alias/oq": dict(switch_name="oq", **base),
        "params/absent": dict(switch_name="pf", **base),
        "params/empty": dict(switch_name="pf", switch_params={}, **base),
        "params/threshold": dict(
            switch_name="pf", switch_params={"threshold": 2}, **base
        ),
        "workload/matrix-diagonal": dict(
            switch_name="ufs", **{**base, "matrix": diagonal_matrix(4, 0.5)}
        ),
        "workload/registry": dict(
            switch_name="ufs", scenario="mmpp-bursty", **scenario
        ),
        "workload/spec-object": dict(
            switch_name="ufs", scenario=get_scenario("mmpp-bursty"),
            **scenario
        ),
        "workload/spec-dict": dict(
            switch_name="ufs",
            scenario=get_scenario("mmpp-bursty").to_dict(), **scenario
        ),
        "workload/spec-file": dict(
            switch_name="ufs", scenario=str(spec_file), **scenario
        ),
        "workload/scenario-load-label": dict(
            switch_name="ufs", scenario="mmpp-bursty", load_label=0.9,
            **scenario
        ),
        "samples/dropped": dict(
            switch_name="sprinklers", keep_samples=False, **base
        ),
        "load/nan-default": dict(
            switch_name="sprinklers", matrix=matrix, num_slots=500, seed=3
        ),
        "warmup/custom": dict(
            switch_name="sprinklers", warmup_fraction=0.25, **base
        ),
        "fabric/name": dict(switch_name="leaf-spine", **base),
        "fabric/spec": dict(switch_name=TWO_STAGE, **base),
        "fabric/registered-spec": dict(
            switch_name=get_fabric("leaf-spine"), **base
        ),
        "fabric/scenario": dict(
            switch_name="dual-sprinklers", scenario="ring-allreduce",
            **scenario
        ),
    })
    return configs


SHARDS = {
    "shard/pattern": ShardSpec(
        switch="sprinklers", workload="diagonal", n=4, load=0.7,
        num_slots=400, seed=2,
    ),
    "shard/scenario": ShardSpec(
        switch="pf", workload="incast", n=4, load=0.7, num_slots=400,
        seed=2, switch_params={"threshold": 3},
    ),
    "shard/fabric": ShardSpec(
        switch="leaf-spine", workload="uniform", n=4, load=0.7,
        num_slots=400, seed=2,
    ),
}


def compute_keys() -> Dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        spec_file = save_scenario_file(
            get_scenario("mmpp-bursty"), Path(tmp) / "bursty.json"
        )
        keys = {
            name: cache_key(resolve_run_params(**kwargs))
            for name, kwargs in run_configs(spec_file).items()
        }
    keys.update({name: shard_key(shard) for name, shard in SHARDS.items()})
    return keys


def render(keys: Dict[str, str]) -> str:
    return json.dumps(keys, indent=2, sort_keys=True) + "\n"


def test_keys_match_golden_file_byte_for_byte():
    assert render(compute_keys()) == GOLDEN_PATH.read_text()


def test_equivalent_designators_share_a_key():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["alias/oq"] == golden["switch/output-queued"]
    assert golden["params/empty"] == golden["params/absent"] == golden["switch/pf"]
    assert golden["params/threshold"] != golden["params/absent"]
    assert (
        golden["workload/registry"]
        == golden["workload/spec-object"]
        == golden["workload/spec-dict"]
        == golden["workload/spec-file"]
        # A scenario run is keyed by its target load, never the label.
        == golden["workload/scenario-load-label"]
    )
    assert golden["fabric/name"] == golden["fabric/registered-spec"]


def test_execution_detail_never_changes_a_key(tmp_path):
    from repro.sim.experiment import plan_run

    golden = json.loads(GOLDEN_PATH.read_text())
    spec_file = save_scenario_file(
        get_scenario("mmpp-bursty"), tmp_path / "bursty.json"
    )
    for name, kwargs in run_configs(spec_file).items():
        for detail in ({"window_slots": 64}, {"window_slots": 1}):
            assert plan_run(**kwargs, **detail).key == golden[name], (
                name, detail,
            )
    for name, shard in SHARDS.items():
        for window_slots in (64, 1):
            windowed = dataclasses.replace(shard, window_slots=window_slots)
            assert shard_key(windowed) == golden[name], (name, window_slots)


def test_the_engine_never_changes_a_key(tmp_path):
    """Every golden run and shard keys the same on the object oracle as
    on the default (resolved) engine."""
    golden = json.loads(GOLDEN_PATH.read_text())
    spec_file = save_scenario_file(
        get_scenario("mmpp-bursty"), tmp_path / "bursty.json"
    )
    for name, kwargs in run_configs(spec_file).items():
        for engine in ("object", "vectorized"):
            params = resolve_run_params(**kwargs, engine=engine)
            assert cache_key(params) == golden[name], (name, engine)
    for name, shard in SHARDS.items():
        oracle = dataclasses.replace(shard, engine="object")
        assert shard_key(oracle) == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render(compute_keys()))
    print(f"wrote {GOLDEN_PATH}")
