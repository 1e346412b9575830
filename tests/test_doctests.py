"""Execute the doctest examples embedded in the library's docstrings.

The module list is found, not kept by hand: every ``repro`` module whose
source holds a ``>>> `` prompt is collected, so a new example runs the day
it is written.
"""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro


def _modules_with_examples():
    names = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            continue
        path = Path(info.module_finder.path) / (
            info.name.rpartition(".")[2] + ".py"
        )
        if ">>> " in path.read_text(encoding="utf-8"):
            names.append(info.name)
    return sorted(names)


MODULES = _modules_with_examples()


def test_examples_are_found():
    # The walk itself must work: these modules are known to carry examples.
    for name in ("repro.analysis.queueing", "repro.sim.rng",
                 "repro.switching.fabric"):
        assert name in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{name} has no doctest examples"
    assert result.failed == 0
