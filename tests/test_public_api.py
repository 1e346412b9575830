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
    def test_package_is_numpy_only(self):
        """With scipy unimportable, every module imports and the analytic
        artifacts (Table 1, the Fig. 5 chain, the overload bound) and
        both confidence intervals (batch means, replications) compute."""
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import importlib, pkgutil\n"
            "import numpy as np\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)\n"
            "from repro.analysis import (overload_probability_bound,\n"
            "    stationary_distribution, table1_rows)\n"
            "from repro.sim.replication import replicate\n"
            "from repro.sim.stats import batch_means\n"
            "from repro.traffic.matrices import uniform_matrix\n"
            "assert len(table1_rows()) == 8\n"
            "assert abs(stationary_distribution(8, 0.9).sum() - 1) < 1e-12\n"
            "assert 0 < overload_probability_bound(0.93, 2048) < 1e-15\n"
            "assert batch_means(np.arange(100.0), batches=5).half_width > 0\n"
            "res = replicate('sprinklers', uniform_matrix(8, 0.5),\n"
            "                num_slots=400, replications=3)\n"
            "assert res.replications == 3 and res.half_width >= 0\n"
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
