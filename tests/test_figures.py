"""Tests for the figure/table generators (figures/)."""

import math

import pytest

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


class TestStoreServedRerender:
    """The figures run on ``run_sweep``'s pool: a re-render on a filled
    store is served cell by cell from it and starts no worker."""

    KW = dict(n=4, loads=(0.4, 0.7), num_slots=400, seed=2)

    def test_second_render_starts_no_worker(self, tmp_path, monkeypatch):
        from repro.service import WorkerPool

        store = str(tmp_path / "store")
        first = fig6.render(store=store, **self.KW)
        monkeypatch.setattr(
            WorkerPool, "start",
            lambda self: pytest.fail("a worker pool was started"),
        )
        assert fig6.render(store=store, **self.KW) == first

    def test_no_store_renders_the_same_table(self, tmp_path):
        stored = fig6.render(store=str(tmp_path / "store"), **self.KW)
        assert fig6.render(store=None, **self.KW) == stored

    def test_windowed_rows_equal_monolithic(self):
        kw = dict(n=8, loads=(0.3, 0.9), num_slots=1_000, seed=1)
        assert fig6.generate(window_slots=256, **kw) == fig6.generate(**kw)
