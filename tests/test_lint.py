"""Tests for the ``repro.lint`` static analyzer.

Each rule family gets a pair of fixtures: one that must fire and one
that must stay silent.  Fixtures are written under ``tmp_path/src/repro``
so module names resolve exactly as they do for the real tree (the rules
key several behaviors off the module path: RNG exemptions, RNG004
parity-critical prefixes, the KEY call-graph roots).

The meta-test at the bottom lints the real ``src/repro`` tree and
asserts it is clean — the analyzer gates CI, so the repo must pass its
own linter.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    format_findings,
    lint_paths,
    resolve_selection,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, files, select=None, ignore=None):
    """Write *files* (relpath → source) under tmp_path and lint them."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], root=tmp_path, select=select, ignore=ignore)


def codes(result):
    return [f.code for f in result.findings]


# -- RNG family ----------------------------------------------------------------


def test_rng001_global_numpy_state_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            import numpy as np

            def draw(n):
                return np.random.normal(size=n)
        """,
    })
    assert codes(result) == ["RNG001"]
    assert "process-global" in result.findings[0].message


def test_rng002_stdlib_random_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            import random

            def pick(xs):
                return random.choice(xs)
        """,
    })
    assert "RNG002" in codes(result)


def test_rng003_raw_seed_fires(tmp_path):
    # Reproduces the pre-fix violation from repro/analysis/balance.py,
    # where trial matrices were drawn from default_rng(seed) without
    # deriving a named child seed first.
    result = run_lint(tmp_path, {
        "src/repro/analysis/balance.py": """
            import numpy as np

            def trial(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
        """,
    })
    assert codes(result) == ["RNG003"]


def test_rng003_derived_seed_is_clean(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/balance.py": """
            import numpy as np

            from repro.sim.rng import derive_seed

            def trial(seed):
                child = derive_seed(seed, "trial")
                a = np.random.default_rng(child)
                b = np.random.default_rng(derive_seed(seed, "other"))
                return a.random() + b.random()
        """,
    })
    assert result.ok, codes(result)


def test_rng004_conditional_draw_in_parity_module(tmp_path):
    source = """
        def step(rng, burst):
            if burst:
                x = rng.random()
            else:
                x = 0.0
            return x
    """
    # Fires inside a parity-critical module...
    hot = run_lint(tmp_path / "hot", {"src/repro/traffic/onoff.py": source})
    assert codes(hot) == ["RNG004"]
    # ...and is silent for the same code elsewhere.
    cold = run_lint(tmp_path / "cold", {"src/repro/analysis/onoff.py": source})
    assert cold.ok


def test_rng_rules_exempt_the_rng_module_itself(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/sim/rng.py": """
            import numpy as np

            def spawn(seed):
                return np.random.default_rng(seed)
        """,
    })
    assert result.ok


# -- LOCK family ---------------------------------------------------------------

_LOCKED_CLASS = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {{}}  # guarded by: self._lock{mode}

        def get(self, k):
            {get_body}

        def put(self, k, v):
            {put_body}
"""


def _lock_fixture(tmp_path, get_body, put_body, mode=""):
    source = textwrap.dedent(_LOCKED_CLASS).format(
        get_body=get_body, put_body=put_body, mode=mode
    )
    return run_lint(
        tmp_path, {"src/repro/service/box.py": source}, select=["LOCK"]
    )


def test_lock001_unguarded_access_fires(tmp_path):
    result = _lock_fixture(
        tmp_path,
        get_body="return self._items.get(k)",
        put_body="self._items[k] = v",
    )
    assert codes(result) == ["LOCK001", "LOCK001"]
    assert "unguarded" in result.findings[0].message


def test_lock001_with_lock_is_clean(tmp_path):
    result = _lock_fixture(
        tmp_path,
        get_body="""with self._lock:
                return self._items.get(k)""",
        put_body="""with self._lock:
                self._items[k] = v""",
    )
    assert result.ok, codes(result)


def test_lock001_requires_annotation_is_clean(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/service/box.py": """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}  # guarded by: self._lock

                def _get_locked(self, k):  # requires: self._lock
                    return self._items.get(k)
        """,
    }, select=["LOCK"])
    assert result.ok, codes(result)


def test_lock001_writes_mode_allows_lockfree_reads(tmp_path):
    # The double-checked idiom: reads race the lock deliberately,
    # rebinding the attribute still must hold it.
    read_ok = _lock_fixture(
        tmp_path / "ok",
        get_body="return self._items.get(k)",
        put_body="""with self._lock:
                self._items = dict(self._items, **{k: v})""",
        mode=" [writes]",
    )
    assert read_ok.ok, codes(read_ok)
    write_bad = _lock_fixture(
        tmp_path / "bad",
        get_body="return self._items.get(k)",
        put_body="self._items = dict(self._items, **{k: v})",
        mode=" [writes]",
    )
    assert codes(write_bad) == ["LOCK001"]
    assert "write to" in write_bad.findings[0].message


def test_lock002_misplaced_annotation_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/service/box.py": """
            class Box:
                def tick(self):
                    x = 1  # guarded by: self._lock
                    return x
        """,
    }, select=["LOCK"])
    assert codes(result) == ["LOCK002"]


# -- KEY family ----------------------------------------------------------------


def test_key001_wall_clock_reachable_from_key_root(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/sim/experiment.py": """
            import time

            def _stamp():
                return time.time()

            def plan_run(params):
                return dict(params, at=_stamp())

            class RunPlan:
                def store_params(self):
                    return {"at": time.time()}

            def unrelated():
                return time.time_ns()
        """,
    }, select=["KEY"])
    # The helper is reachable from a root and the method is a root;
    # ``unrelated`` is neither.
    assert codes(result) == ["KEY001", "KEY001"]
    messages = [finding.message for finding in result.findings]
    assert any("_stamp" in message for message in messages)
    assert any("RunPlan.store_params" in message for message in messages)


def test_key002_unsorted_listing_fires_and_sorted_is_clean(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/store/store.py": """
            import os

            def cache_key(root):
                names = os.listdir(root)
                stable = sorted(os.listdir(root))
                return names, stable
        """,
    }, select=["KEY"])
    assert codes(result) == ["KEY002"]
    assert result.findings[0].line == 5


def test_key003_set_iteration_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/store/store.py": """
            def canonical_params(params):
                return [k for k in set(params)]
        """,
    }, select=["KEY"])
    assert codes(result) == ["KEY003"]


def test_key_rules_ignore_functions_off_the_key_path(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/timing.py": """
            import time

            def elapsed(t0):
                return time.time() - t0
        """,
    }, select=["KEY"])
    assert result.ok


# -- TEL family ----------------------------------------------------------------


def test_tel001_uncontextmanaged_span_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/sim/run.py": """
            from repro import telemetry

            def go():
                telemetry.trace("run.step")
        """,
    }, select=["TEL"])
    assert codes(result) == ["TEL001"]


def test_tel001_with_and_assign_then_with_are_clean(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/sim/run.py": """
            from repro import telemetry

            def go():
                with telemetry.trace("run.step"):
                    pass

            def deferred():
                span = telemetry.trace("sweep.point")
                with span:
                    pass
        """,
    }, select=["TEL"])
    assert result.ok, codes(result)


def test_tel002_offvocabulary_span_name_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/sim/run.py": """
            from repro import telemetry

            def go():
                with telemetry.trace("Run Step"):
                    pass
        """,
    }, select=["TEL"])
    assert codes(result) == ["TEL002"]


def test_tel003_instrument_in_function_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/sim/run.py": """
            from repro import telemetry

            _HITS = telemetry.counter("store.hits")

            def go():
                misses = telemetry.counter("store.misses")
                misses.add()
        """,
    }, select=["TEL"])
    # Module-scope creation is the idiom; in-function creation fires.
    assert codes(result) == ["TEL003"]
    assert result.findings[0].line == 7


# -- REG family (static __all__ check) -----------------------------------------


def test_reg004_all_mismatches_fire(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/api.py": """
            __all__ = ["present", "phantom"]

            def present():
                return 1

            def orphan():
                return 2
        """,
    }, select=["REG004"])
    messages = sorted(f.message for f in result.findings)
    assert codes(result) == ["REG004", "REG004"]
    assert "'phantom'" in messages[0]
    assert "'orphan'" in messages[1]


def test_reg004_lazy_getattr_module_skips_undefined_names(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/api.py": """
            __all__ = ["lazy_thing"]

            def __getattr__(name):
                raise AttributeError(name)
        """,
    }, select=["REG004"])
    assert result.ok, codes(result)


def _reg001_with_stream_kernel(monkeypatch, stream_kernel):
    """REG001 over the registry plus one model carrying ``stream_kernel``."""
    from repro import models
    from repro.models import registry as registry_module

    monkeypatch.setattr(
        registry_module, "_MODELS", dict(registry_module._MODELS)
    )
    models.register(models.SwitchModel(
        name="probe-stream",
        builder=lambda n, matrix, seed: None,
        kernel=lambda batch, matrix, seed: None,
        stream_kernel=stream_kernel,
    ))
    return lint_paths(
        [REPO_ROOT / "src" / "repro" / "models" / "builtin.py"],
        root=REPO_ROOT, select=["REG001"],
    )


def test_reg001_stream_kernel_must_honor_the_contract(monkeypatch):
    result = _reg001_with_stream_kernel(
        monkeypatch, lambda matrix, seed, total_slots: object()
    )
    assert codes(result) == ["REG001"]
    message = result.findings[0].message
    assert "'probe-stream'" in message
    assert "StreamKernel" in message
    assert "(matrix, seed, total_slots)" in message


def test_reg001_silent_for_a_one_seed_stream_kernel(monkeypatch):
    from repro.sim.kernels.base import StreamKernel

    def factory(matrix, seed, total_slots):
        assert isinstance(seed, int)  # one seed, not a seed list
        return StreamKernel(matrix, seed, total_slots)

    assert _reg001_with_stream_kernel(monkeypatch, factory).ok


# -- Suppressions --------------------------------------------------------------


def test_inline_suppression_silences_and_counts(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            import numpy as np

            def trial(seed):
                rng = np.random.default_rng(seed)  # repro: lint-ignore[RNG003] -- test fixture
                return rng.random()
        """,
    })
    assert result.ok
    assert result.suppressed == 1


def test_standalone_suppression_applies_to_next_line(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            import numpy as np

            def trial(seed):
                # repro: lint-ignore[RNG003]
                rng = np.random.default_rng(seed)
                return rng.random()
        """,
    })
    assert result.ok
    assert result.suppressed == 1


def test_family_prefix_suppression(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            import numpy as np

            def trial(seed):
                rng = np.random.default_rng(seed)  # repro: lint-ignore[RNG]
                return rng.random()
        """,
    })
    assert result.ok
    assert result.suppressed == 1


def test_sup001_unused_suppression_fires(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            def clean():  # repro: lint-ignore[RNG003]
                return 0
        """,
    })
    assert codes(result) == ["SUP001"]
    assert "unused" in result.findings[0].message


def test_suppression_does_not_hide_other_codes(tmp_path):
    result = run_lint(tmp_path, {
        "src/repro/analysis/mc.py": """
            import random  # repro: lint-ignore[RNG003]
        """,
    })
    # RNG002 survives, and the RNG003 directive is reported unused.
    assert sorted(codes(result)) == ["RNG002", "SUP001"]


# -- Selection and reporting ---------------------------------------------------


def test_resolve_selection_expands_families_and_rejects_unknown():
    lock_only = resolve_selection(["LOCK"], None)
    assert lock_only == {"LOCK001", "LOCK002"}
    assert "RNG003" in resolve_selection(None, ["LOCK"])
    with pytest.raises(ValueError):
        resolve_selection(["BOGUS"], None)


def test_select_limits_findings_to_family(tmp_path):
    files = {
        "src/repro/analysis/mc.py": """
            import random
            import numpy as np

            def trial(seed):
                return np.random.default_rng(seed)
        """,
    }
    everything = run_lint(tmp_path, dict(files))
    assert sorted(codes(everything)) == ["RNG002", "RNG003"]
    only_rng002 = run_lint(tmp_path, dict(files), select=["RNG002"])
    assert codes(only_rng002) == ["RNG002"]


def test_format_findings_text_json_github():
    finding = Finding(
        code="RNG003",
        message="raw seed",
        path="src/repro/x.py",
        line=4,
        col=8,
    )
    assert format_findings([finding], "text") == "src/repro/x.py:4:8 RNG003 raw seed"
    [obj] = json.loads(format_findings([finding], "json"))
    assert obj["code"] == "RNG003" and obj["line"] == 4
    gh = format_findings([finding], "github")
    assert gh.startswith("::error file=src/repro/x.py,line=4,")
    assert "title=RNG003" in gh


# -- The repo passes its own linter --------------------------------------------


def test_repo_tree_is_lint_clean():
    result = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert result.ok, "\n" + "\n".join(
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.findings
    )
    assert result.checked > 90


def test_cli_lint_subcommand(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    bad = tmp_path / "src" / "repro" / "analysis" / "mc.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import numpy as np\n\n"
        "def t(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "RNG003" in out
    assert main(["lint", "src", "--ignore", "RNG003"]) == 0
    assert main(["lint", "--list-rules"]) == 0
    assert "LOCK001" in capsys.readouterr().out
    assert main(["lint", "src", "--select", "NOPE"]) == 2
