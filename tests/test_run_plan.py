"""``plan_run`` is the one validator, ``RunPlan`` the one run description.

Every invalid configuration raises the same ``ValueError`` at plan time —
before a store is consulted or a packet drawn — whatever the engine, the
kind of subject (kernel switch, object-only switch, fabric), the store's
contents, or the entry point.  And a plan is plain picklable data: the
copy a worker process receives executes to the same result.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.sim import experiment
from repro.sim.experiment import resolve_run_params, run_single
from repro.sim.replication import replicate
from repro.store import ExperimentStore
from repro.traffic.matrices import uniform_matrix

#: (subject, engine): a kernel switch on each engine, a switch with no
#: kernel (vectorized falls back to the object engine), a fabric.
SUBJECTS = (
    ("sprinklers", "object"),
    ("sprinklers", "vectorized"),
    ("cms", "vectorized"),
    ("leaf-spine", "vectorized"),
)

def _with_nan(matrix):
    """``matrix`` with one NaN rate: unchecked, every engine would run it
    with that input silently idle."""
    matrix[1, 2] = np.nan
    return matrix


#: name -> (overrides of the valid base configuration, error text).
INVALID = {
    "window_slots": ({"window_slots": -5}, "window_slots must be positive"),
    "warmup_fraction": (
        {"warmup_fraction": 1.5}, r"warmup_fraction must be in \[0, 1\)"
    ),
    "num_slots": ({"num_slots": 0}, "num_slots must be positive"),
    "nan_matrix": (
        {"matrix": _with_nan(uniform_matrix(4, 0.5))},
        "traffic matrix entries must be finite",
    ),
    "no_workload": ({"matrix": None}, "need a matrix or a scenario"),
    "matrix_and_scenario": (
        {"scenario": "paper-uniform", "n": 4, "load": 0.5},
        "pass either matrix or scenario, not both",
    ),
    "scenario_without_n_load": (
        {"matrix": None, "scenario": "paper-uniform"},
        "scenario runs require n and load",
    ),
    "fabric_switch_params": (
        {"switch_params": {"threshold": 2}},
        "per-stage parameters belong in the FabricSpec stages",
    ),
}


def base_kwargs():
    return dict(matrix=uniform_matrix(4, 0.5), num_slots=120, seed=1)


def via_run_single_miss(subject, engine, tmp_path, **kwargs):
    store = ExperimentStore(tmp_path / "empty")
    run_single(subject, engine=engine, store=store, **kwargs)


def via_run_single_hit(subject, engine, tmp_path, **kwargs):
    # The valid configuration is already stored; for an execution-detail
    # override (window_slots) the invalid call maps to its key.
    store = ExperimentStore(tmp_path / "warm")
    run_single(subject, engine=engine, store=store, **base_kwargs())
    assert store.stats().saves == 1
    run_single(subject, engine=engine, store=store, **kwargs)


def via_resolve_run_params(subject, engine, tmp_path, **kwargs):
    resolve_run_params(subject, engine=engine, **kwargs)


def via_plan_run(subject, engine, tmp_path, **kwargs):
    experiment.plan_run(subject, engine=engine, **kwargs)


def _replicate(subject, engine, tmp_path, batch_seeds, **kwargs):
    kwargs.pop("seed")
    replicate(
        subject, replications=2, engine=engine, batch_seeds=batch_seeds,
        store=ExperimentStore(tmp_path / "reps"), **kwargs,
    )


def via_replicate(subject, engine, tmp_path, **kwargs):
    _replicate(subject, engine, tmp_path, False, **kwargs)


def via_replicate_batched(subject, engine, tmp_path, **kwargs):
    # batch_seeds is still accepted and selects nothing: same checks.
    _replicate(subject, engine, tmp_path, True, **kwargs)


#: entry point -> the invalid-configuration arguments it does not take.
ENTRY_POINTS = {
    via_run_single_miss: (),
    via_run_single_hit: (),
    via_plan_run: (),
    via_resolve_run_params: ("window_slots",),
    via_replicate: ("window_slots", "warmup_fraction"),
    via_replicate_batched: ("window_slots", "warmup_fraction"),
}


def _rows():
    for entry, not_taken in ENTRY_POINTS.items():
        for subject, engine in SUBJECTS:
            for name in INVALID:
                if name in not_taken:
                    continue
                if name == "fabric_switch_params" and subject != "leaf-spine":
                    continue
                yield pytest.param(
                    entry, subject, engine, name,
                    id=f"{entry.__name__}-{subject}-{engine}-{name}",
                )


@pytest.mark.parametrize("entry, subject, engine, name", _rows())
def test_invalid_configuration_raises_at_plan_time(
    entry, subject, engine, name, tmp_path
):
    overrides, message = INVALID[name]
    with pytest.raises(ValueError, match=message):
        entry(subject, engine, tmp_path, **{**base_kwargs(), **overrides})


def _plans():
    matrix = uniform_matrix(4, 0.6)
    return {
        "matrix": experiment.plan_run(
            "pf", matrix, 300, seed=2, load_label=0.6, engine="vectorized",
            switch_params={"threshold": 2}, window_slots=64,
        ),
        "scenario": experiment.plan_run(
            "sprinklers", num_slots=300, seed=2, scenario="mmpp-bursty",
            n=4, load=0.6,
        ),
        "fabric": experiment.plan_run(
            "leaf-spine", num_slots=300, seed=2, engine="vectorized",
            scenario="ring-allreduce", n=4, load=0.6,
        ),
    }


@pytest.mark.parametrize("kind", ("matrix", "scenario", "fabric"))
def test_plan_survives_pickling(kind, tmp_path):
    plan = _plans()[kind]
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.store_params() == plan.store_params()
    assert clone.key == plan.key
    assert clone.window_slots == plan.window_slots
    direct = experiment.execute(plan)
    assert experiment.execute(clone).to_dict() == direct.to_dict()
    # ... and the clone's save is the original's hit.
    store = ExperimentStore(tmp_path / "store")
    experiment.execute(clone, store)
    assert experiment.execute(plan, store).to_dict() == direct.to_dict()
    assert store.stats().saves == 1 and store.hits == 1


def test_switch_params_enter_the_key_only_when_non_default():
    """Default-parameter plans keep the store keys they had before
    switches took parameters."""

    def params(switch_params):
        return experiment.plan_run(
            "pf", uniform_matrix(4, 0.6), 600, 2, 0.6, 0.1, False,
            "object", switch_params=switch_params,
        ).store_params()

    assert params(None) == params({})
    assert "switch_params" not in params(None)
    assert params({"threshold": 3})["switch_params"] == {"threshold": 3}
