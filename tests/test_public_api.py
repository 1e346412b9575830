"""The public API surface: imports, exports, and the README's quickstart."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.switching",
            "repro.traffic",
            "repro.analysis",
            "repro.sim",
            "repro.figures",
            "repro.cli",
        ],
    )
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        from repro import SprinklersSwitch, TrafficGenerator, simulate
        from repro.traffic.matrices import uniform_matrix

        matrix = uniform_matrix(32, 0.8)
        switch = SprinklersSwitch.from_rates(matrix, seed=1)
        traffic = TrafficGenerator(matrix, np.random.default_rng(2))
        result = simulate(switch, traffic, num_slots=3000, load_label=0.8)
        assert result.is_ordered
        assert result.mean_delay > 0


class TestColdStart:
    def test_service_and_replication_import_without_scipy(self):
        """scipy is most of a cold start, and only the Student-t quantile
        of a confidence interval and the analytic artifacts (Table 1,
        Fig. 5, bounds) need it: importing the run, service, store and
        CLI layers must not pull it in."""
        code = (
            "import sys\n"
            "import repro, repro.service, repro.sim.experiment\n"
            "import repro.sim.replication, repro.store, repro.cli\n"
            "assert 'scipy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
