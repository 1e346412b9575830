"""Tests for the figure/table generators (figures/)."""

import math

from repro.figures import fig5, fig6, fig7, table1
from repro.figures.render import ascii_log_chart, format_table, rows_to_csv


class TestRender:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.001}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_csv(self):
        csv = rows_to_csv([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert csv.splitlines() == ["a,b", "1,2", "3,4"]

    def test_chart_renders_all_series(self):
        chart = ascii_log_chart(
            {"one": [(0.1, 10), (0.5, 100)], "two": [(0.1, 20), (0.5, 50)]}
        )
        assert "o = one" in chart
        assert "x = two" in chart
        assert "10^" in chart

    def test_chart_skips_nonpositive(self):
        chart = ascii_log_chart({"s": [(0.1, 0.0), (0.2, float("nan")), (0.3, 5)]})
        assert "10^" in chart

    def test_chart_empty(self):
        assert ascii_log_chart({"s": []}) == "(no data)"


class TestTable1:
    def test_generate_shape(self):
        rows = table1.generate(rhos=(0.93,), ns=(1024,))
        assert rows == [{"rho": 0.93, "N=1024": rows[0]["N=1024"]}]
        assert 0 < rows[0]["N=1024"] < 1e-6

    def test_with_paper_columns(self):
        rows = table1.generate_with_paper(rhos=(0.95,), ns=(2048,))
        assert "paper N=2048" in rows[0]

    def test_render_contains_values(self):
        text = table1.render()
        assert "Table 1" in text
        assert "0.93" in text


class TestFig5:
    def test_generate(self):
        rows = fig5.generate(ns=(10, 100), rho=0.9)
        assert rows[0]["delay_periods"] < rows[1]["delay_periods"]

    def test_render(self):
        text = fig5.render(ns=(10, 100, 1000))
        assert "Figure 5" in text
        assert "4495.5" in text


class TestDelayFigures:
    def test_fig6_mini(self):
        rows = fig6.generate(n=4, loads=(0.4,), num_slots=600, seed=1)
        assert len(rows) == 5  # five paper switches
        by_switch = {row["switch"]: row for row in rows}
        assert by_switch["sprinklers"]["late_packets"] == 0
        assert by_switch["ufs"]["late_packets"] == 0
        assert not math.isnan(by_switch["sprinklers"]["mean_delay"])

    def test_fig7_mini(self):
        rows = fig7.generate(n=4, loads=(0.5,), num_slots=600, seed=1)
        assert {row["switch"] for row in rows} == {
            "baseline-lb", "ufs", "foff", "pf", "sprinklers",
        }

    def test_fig6_render_has_chart(self):
        text = fig6.render(n=4, loads=(0.4, 0.8), num_slots=500, seed=0)
        assert "Figure 6" in text
        assert "10^" in text


class TestRenderedTableMemoization:
    """The figure layer memoizes whole rendered tables through the
    experiment store: same figure spec + same constituent run keys =>
    the second render is one artifact fetch, zero sweep work."""

    KW = dict(n=4, loads=(0.4, 0.7), num_slots=400, seed=2)

    def _render_counting_sweeps(self, monkeypatch, store):
        from repro.figures import delay_figures

        calls = {"sweeps": 0}
        real = delay_figures.delay_vs_load_sweep

        def counting(*args, **kwargs):
            calls["sweeps"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(
            delay_figures, "delay_vs_load_sweep", counting
        )
        text = fig6.render(store=store, **self.KW)
        return text, calls["sweeps"]

    def test_second_render_skips_the_sweep(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        first, sweeps1 = self._render_counting_sweeps(monkeypatch, store)
        assert sweeps1 == 1
        second, sweeps2 = self._render_counting_sweeps(monkeypatch, store)
        assert sweeps2 == 0  # whole-table artifact hit
        assert second == first

    def test_no_store_disables_memoization(self, monkeypatch):
        first, sweeps1 = self._render_counting_sweeps(monkeypatch, None)
        second, sweeps2 = self._render_counting_sweeps(monkeypatch, None)
        assert sweeps1 == sweeps2 == 1
        assert second == first

    def test_key_tracks_figure_spec(self, tmp_path):
        """Different slots/figure => different artifact (no false hits),
        and scenario-overridden figures key on the scenario spec."""
        from repro.figures.delay_figures import table_params
        from repro.store import cache_key

        base = table_params(
            "uniform", "Figure 6", 4, (0.4,), 400,
            ("sprinklers",), 2,
        )
        longer = table_params(
            "uniform", "Figure 6", 4, (0.4,), 800,
            ("sprinklers",), 2,
        )
        scenario = table_params(
            "mmpp-bursty", "Figure 6 [mmpp-bursty]", 4, (0.4,), 400,
            ("sprinklers",), 2,
        )
        keys = {cache_key(p) for p in (base, longer, scenario)}
        assert len(keys) == 3
        assert scenario["pattern"]["name"] == "mmpp-bursty"
        # The constituent run keys are part of the content address.
        assert base["runs"] and base["runs"] != longer["runs"]

    def test_artifact_coexists_with_run_objects(self, tmp_path):
        """Rendered tables and per-cell results share one store; stats
        counts both, and a run fetch never returns an artifact."""
        from repro.models import PAPER_SWITCHES
        from repro.store import ExperimentStore

        store_dir = str(tmp_path / "store")
        fig6.render(store=store_dir, **self.KW)
        store = ExperimentStore(store_dir)
        stats = store.stats()
        # One cell per (switch, load), plus the rendered table.
        assert stats.entries == len(PAPER_SWITCHES) * len(self.KW["loads"]) + 1
        assert store.fetch_artifact({"kind": "nope"}) is None
