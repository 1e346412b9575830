"""Tests for the command-line interface (cli.py)."""

import pytest

from repro.cli import build_parser, main
from repro.figures.delay_figures import DEFAULT_LOADS
from repro.models import PAPER_SWITCHES
from repro.service import core as service_core
from repro.service.jobs import shard_plan
from repro.sim import experiment
from repro.sim.fast_engine import run_single_fast
from repro.store import ExperimentStore
from repro.traffic.matrices import uniform_matrix


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["table1"],
            ["fig5"],
            ["fig6", "--n", "4"],
            ["fig7", "--slots", "100"],
            ["demo"],
            ["bounds", "--rho", "0.93", "--n", "1024"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "N=2048" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_fig6_tiny(self, capsys):
        assert main(["fig6", "--n", "4", "--slots", "400", "--loads", "0.5"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_fig7_csv(self, capsys):
        assert main(
            ["fig7", "--n", "4", "--slots", "400", "--loads", "0.5", "--csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("switch,load,")

    def test_demo(self, capsys):
        assert main(["demo", "--n", "4", "--load", "0.5", "--slots", "600"]) == 0
        out = capsys.readouterr().out
        assert "sprinklers" in out
        assert "output-queued" in out

    def test_demo_oracle_engine_agrees(self, capsys):
        """``demo --engine object`` is the per-packet oracle; the default
        (vectorized wherever a kernel exists) prints the same table."""
        argv = ["demo", "--n", "4", "--load", "0.6", "--slots", "500"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--engine", "object"]) == 0
        assert capsys.readouterr().out == default

    def test_bounds(self, capsys):
        assert main(["bounds", "--rho", "0.93", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "1.759e-09" in out

    def test_balance(self, capsys):
        assert main(
            ["balance", "--n", "16", "--trials", "10", "--loads", "0.9"]
        ) == 0
        out = capsys.readouterr().out
        assert "empirical_switch_wide" in out

    def test_validate(self, capsys):
        assert main(["validate", "--n", "4", "--slots", "1200"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_bursts_command_parses(self):
        args = build_parser().parse_args(["bursts", "--n", "8"])
        assert args.command == "bursts"


class TestEngineResolution:
    def test_paper_scale_fig6_plans_the_vectorized_engine(
        self, monkeypatch, capsys
    ):
        """The command a reader types first runs the fast engine for all
        five paper switches, with no engine flag to remember.  The parent
        plans every shard at submit; the forked workers inherit a small
        stand-in simulation, so no paper-scale cell runs."""
        plans = []

        def record(shard):
            plan = shard_plan(shard)
            plans.append(plan)
            return plan

        def stand_in(plan):
            return run_single_fast(
                plan.subject, uniform_matrix(4, 0.5), 100,
                load_label=plan.load_label, keep_samples=False,
            )

        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.setattr(service_core, "shard_plan", record)
        monkeypatch.setattr(experiment, "_simulate", stand_in)
        assert main(["fig6", "--n", "32", "--slots", "200000"]) == 0
        assert "Figure 6" in capsys.readouterr().out
        assert {plan.subject for plan in plans} == set(PAPER_SWITCHES)
        assert len(plans) == len(PAPER_SWITCHES) * len(DEFAULT_LOADS)
        assert {(plan.n, plan.num_slots) for plan in plans} == {(32, 200_000)}
        assert {plan.engine for plan in plans} == {"vectorized"}

    @pytest.mark.parametrize("argv", [
        ["fig6"],
        ["fig7"],
        ["scenarios", "run", "--scenario", "paper-uniform"],
        ["fabrics", "run"],
        ["fabrics", "delay"],
        ["submit"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_removed_engine_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--engine", "vectorized"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_serve_has_no_backend_flag(self, capsys):
        # The store has one layout, so there is nothing to choose.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--backend", "sqlite"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-uniform" in out
        assert "mmpp-bursty" in out
        assert "adversarial-stride" in out

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "hotspot-4x"]) == 0
        out = capsys.readouterr().out
        assert '"family": "hotspot"' in out

    @pytest.mark.parametrize("switch, engine", [
        ("sprinklers", "vectorized"),
        ("cms", "object"),
    ])
    def test_scenarios_run_prints_the_resolved_engine(
        self, switch, engine, capsys
    ):
        assert main([
            "scenarios", "run", "--scenario", "load-ramp",
            "--switch", switch, "--n", "4", "--load", "0.6",
            "--slots", "500",
        ]) == 0
        header, body = capsys.readouterr().out.split("\n", 1)
        assert header.endswith(f"engine {engine})")
        assert "mean_delay" in body

    def test_scenarios_run_with_override_and_store(self, tmp_path, capsys):
        argv = [
            "scenarios", "run", "--scenario", "load-sine",
            "--set", "schedule.depth=0.2",
            "--switch", "ufs", "--n", "4", "--load", "0.5",
            "--slots", "400",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # second run served from the store
        assert capsys.readouterr().out == first
        assert (tmp_path / "store" / "store.sqlite").exists()

    def test_no_store_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
        assert main([
            "scenarios", "run", "--scenario", "paper-uniform",
            "--switch", "ufs", "--n", "4", "--load", "0.5",
            "--slots", "300", "--no-store",
        ]) == 0
        capsys.readouterr()
        assert not (tmp_path / "env-store").exists()

    def test_fig6_scenario_csv(self, capsys):
        assert main([
            "fig6", "--n", "4", "--slots", "400", "--loads", "0.5",
            "--scenario", "quasi-diagonal", "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("switch,load,")
        assert "sprinklers" in out


class TestBadNamesAndPaths:
    @pytest.mark.parametrize("argv", [
        ["switches", "show", "nope"],
        ["scenarios", "run", "--scenario", "nope"],
        ["scenarios", "run", "--scenario", "/nonexistent.json", "--n", "8"],
        ["fabrics", "run", "--fabric", "nope", "--n", "8", "--slots", "100"],
    ])
    def test_one_stderr_line_and_exit_2(self, argv, capsys):
        """A name or path the user typed wrong is outside input: one
        sentence on stderr and exit code 2, never a traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert len(captured.err.splitlines()) == 1
        if argv[0] == "fabrics":
            # plan_run resolves switches and fabrics, so it names both
            assert "leaf-spine" in captured.err


class TestSwitchesCommands:
    def test_switches_list_all(self, capsys):
        assert main(["switches", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("sprinklers", "cms", "tcp-hashing", "pf", "foff"):
            assert name in out

    def test_switches_list_vectorized_covers_all_kernels(self, capsys):
        """The CI coverage gate: the vectorized engine must not silently
        lose a switch."""
        assert main(["switches", "list", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        for name in (
            "sprinklers", "ufs", "load-balanced", "output-queued",
            "pf", "foff",
        ):
            assert name in out, name
        assert "cms" not in out

    def test_switches_show(self, capsys):
        assert main(["switches", "show", "foff"]) == 0
        out = capsys.readouterr().out
        assert "supports-drift" in out
        assert "vectorized" in out

    def test_switches_show_alias(self, capsys):
        assert main(["switches", "show", "baseline-lb"]) == 0
        assert "load-balanced" in capsys.readouterr().out


class TestStoreCommands:
    def _populate(self, store_dir):
        argv = [
            "scenarios", "run", "--scenario", "paper-uniform",
            "--switch", "ufs", "--n", "4", "--load", "0.5",
            "--slots", "300", "--store", store_dir,
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # second run hits the cache

    def test_stats_reports_entries_and_hit_rate(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "stats", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries      1" in out
        assert "hits         1" in out
        assert "hit rate     50.0%" in out

    def test_gc_by_age_empties_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "gc", "--max-age-days", "0",
                     "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert main(["store", "stats", "--store", store_dir]) == 0
        assert "entries      0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--max-age-days", "--max-size-mb"])
    def test_gc_with_a_negative_bound_exits_2_and_keeps_the_store(
        self, tmp_path, capsys, flag
    ):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "gc", flag, "-1", "--store", store_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro store: ")
        assert len(captured.err.splitlines()) == 1
        assert len(ExperimentStore(store_dir)) == 1

    def test_missing_store_is_not_an_error(self, tmp_path, capsys):
        assert main(["store", "stats", "--store",
                     str(tmp_path / "nowhere")]) == 0
        assert "no experiment store" in capsys.readouterr().out
