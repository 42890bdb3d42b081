"""Tests for the experiment harness: each runner produces the right
structure and the paper's qualitative shape at miniature scale."""

import pytest

from repro.constants import GossipConfig
from repro.experiments.common import Series, format_series, format_table
from repro.experiments.microbench import PAPER_TABLE1, run_microbench
from repro.experiments.propagation import SCENARIOS, figure2_series, run_figure2
from repro.experiments.table3 import format_table3, run_table3


class TestCommon:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_series_and_format(self):
        s1 = Series("one")
        s1.add(1, 10)
        s1.add(2, 20)
        s2 = Series("two")
        s2.add(2, 200)
        text = format_series([s1, s2], "x", "y")
        assert "one" in text and "two" in text
        assert len(s1) == 2


class TestMicrobench:
    def test_rows_cover_all_operations(self):
        rows = run_microbench(key_counts=(200, 500, 1000), repeats=1)
        assert {r.operation for r in rows} == set(PAPER_TABLE1)

    def test_linear_model_quality(self):
        rows = run_microbench(key_counts=(500, 2000, 5000, 10000), repeats=2)
        by_op = {r.operation: r for r in rows}
        # Bloom insertion cost must be dominated by the per-key term and
        # fit a line well (the paper's model form).
        insert = by_op["bloom_insert"]
        assert insert.fit.slope > 0
        assert insert.fit.r_squared > 0.9

    def test_cost_string_format(self):
        rows = run_microbench(key_counts=(200, 400), repeats=1)
        assert "no. keys" in rows[0].cost_string()

    def test_too_few_counts_rejected(self):
        with pytest.raises(ValueError):
            run_microbench(key_counts=(100,))


class TestTable3:
    def test_rows_paper_columns(self):
        rows = run_table3(names=["MED"], scale=0.05)
        assert rows[0]["paper_documents"] == 1033
        assert rows[0]["gen_documents"] >= 50
        text = format_table3(rows)
        assert "MED" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def sweep(self):
        fast = {
            "LAN": ("lan", {"base_interval_s": 2.0}),
            "LAN-AE": ("lan", {"base_interval_s": 2.0, "anti_entropy_only": True}),
        }
        original = dict(SCENARIOS)
        SCENARIOS.update(fast)
        try:
            yield run_figure2(sizes=(20, 40), scenarios=("LAN", "LAN-AE"))
        finally:
            SCENARIOS.clear()
            SCENARIOS.update(original)

    def test_all_runs_converged(self, sweep):
        for runs in sweep.results.values():
            assert all(r.converged for r in runs)

    def test_ae_only_costs_more(self, sweep):
        lan = sweep.scenario("LAN")
        ae = sweep.scenario("LAN-AE")
        for planetp, baseline in zip(lan, ae):
            assert baseline.total_bytes > planetp.total_bytes

    def test_series_structure(self, sweep):
        panels = figure2_series(sweep)
        assert {s.label for s in panels["time"]} == {"LAN", "LAN-AE"}
        assert all(len(s) == 2 for s in panels["volume"])
        assert panels["bandwidth"] == []  # no DSL scenario in this sweep


class TestScenarioTable:
    def test_paper_scenarios_present(self):
        assert set(SCENARIOS) == {"LAN", "LAN-AE", "DSL-10", "DSL-30", "DSL-60", "MIX"}
        topo, overrides = SCENARIOS["DSL-10"]
        assert topo == "dsl"
        assert overrides["base_interval_s"] == 10.0
