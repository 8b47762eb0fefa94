"""The programmatic ablation studies."""

import pytest

from repro.errors import ReproError
from repro.experiments import (
    STUDIES,
    TableSpec,
    ablation_cap_models,
    ablation_capacity_margin,
    ablation_column_definitions,
    ablation_fill_size,
    ablation_seed_sensitivity,
    format_rows,
    run_config,
    run_study,
    run_table,
)
from repro.experiments.ablation import format_cap_models
from repro.pilfill import SlackColumnDef
from repro.synth import make_t1


class TestCapModelStudy:
    def test_rows_ordered_and_consistent(self):
        rows = ablation_cap_models()
        assert len(rows) >= 4
        for row in rows:
            assert row.grounded_ff > row.exact_ff > row.linear_ff > 0
            assert row.exact_over_linear > 1.0
            assert row.grounded_over_exact > 1.0

    def test_narrow_gap_skipped(self):
        # A gap narrower than one feature yields no row.
        rows = ablation_cap_models(gaps_um=(0.4,))
        assert rows == []

    def test_format(self):
        text = format_cap_models(ablation_cap_models(gaps_um=(4.0,)))
        assert "exact/lin" in text and "4.0" in text


class TestColumnDefStudy:
    @pytest.fixture(scope="class")
    def rows(self, small_generated_layout):
        return ablation_column_definitions(
            small_generated_layout, window_um=16, r=2
        )

    def test_three_definitions(self, rows):
        assert [r.testcase for r in rows] == [d.value for d in SlackColumnDef]

    def test_def3_not_worse_than_def2(self, rows):
        by_def = {r.testcase: r for r in rows}
        assert by_def["III"].tau("greedy", True) <= by_def["II"].tau("greedy", True) + 1e-12

    def test_format(self, rows):
        text = format_rows("Slack-column definitions", "def", rows)
        assert "III" in text


class TestMarginStudy:
    def test_margin_sweep_runs(self, small_generated_layout):
        rows = ablation_capacity_margin(
            small_generated_layout, margins=(1.0, 0.5), window_um=16, r=2
        )
        assert len(rows) == 2
        for row in rows:
            assert row.tau("ilp2", True) <= row.tau("normal", True) + 1e-12
        text = format_rows("Capacity-margin sweep", "margin", rows)
        assert "reduction" in text


class TestRunStudy:
    def test_registry_covers_all(self):
        assert set(STUDIES) == {"columns", "capmodel", "margin", "fillsize", "seeds"}

    def test_capmodel_by_name(self):
        assert "Capacitance models" in run_study("capmodel")

    def test_unknown_rejected(self):
        with pytest.raises(ReproError):
            run_study("nope")

    def test_columns_by_name_with_layout(self, small_generated_layout):
        text = run_study("columns", small_generated_layout)
        assert "Slack-column definitions" in text


# Every engine study's rows, recorded from the studies' own protocol
# before they moved onto run_config (commit de3f553): per row label,
# (budget, features, shortfall, {method: repr(weighted τ)}). Features and
# shortfall are the same for every method of a row, which places the
# budget the first method's run fixed.
COLUMNS_SMALL = {
    "I": (0, 0, 0, {"greedy": "0.0"}),
    "II": (235, 235, 0, {"greedy": "0.004702762485186389"}),
    "III": (235, 235, 0, {"greedy": "0.0013838578723645936"}),
}
MARGIN_SMALL = {
    "1.00": (235, 235, 0, {"normal": "0.004652934219504664", "ilp2": "0.0008887676259464074"}),
    "0.85": (235, 235, 0, {"normal": "0.005708464059350948", "ilp2": "0.0008077142219653478"}),
    "0.70": (235, 235, 0, {"normal": "0.005708464059350948", "ilp2": "0.0008077142219653478"}),
    "0.50": (235, 235, 0, {"normal": "0.005606249577810786", "ilp2": "0.0006524441861833797"}),
}
FILLSIZE_SMALL = {
    "0.40": (370, 370, 0, {"normal": "0.005059853987991367", "ilp2": "0.0011166892428358462"}),
    "0.50": (235, 235, 0, {"normal": "0.005708464059350948", "ilp2": "0.0008077142219653478"}),
    "0.80": (90, 90, 0, {"normal": "0.004445178257323325", "ilp2": "0.0006630713976052807"}),
    "1.00": (54, 54, 0, {"normal": "0.004069672443472187", "ilp2": "0.0009123536999094958"}),
}
#: EXPERIMENTS.md ablation A (T1/32/2, greedy).
COLUMNS_T1 = {
    "I": (1059, 1059, 0, {"greedy": "0.22097708190011636"}),
    "II": (1295, 1295, 0, {"greedy": "0.07435021975734733"}),
    "III": (1295, 1295, 0, {"greedy": "0.037435400583224476"}),
}
#: EXPERIMENTS.md ablation E (T1/32/4).
MARGIN_T1 = {
    "1.00": (1568, 1568, 0, {"normal": "0.18812748235702814", "ilp2": "0.16365199575164793"}),
    "0.85": (1565, 1565, 0, {"normal": "0.12199924365930227", "ilp2": "0.06981631758262877"}),
    "0.70": (1565, 1565, 0, {"normal": "0.10871611672716913", "ilp2": "0.051250266624191285"}),
    "0.50": (1564, 1564, 0, {"normal": "0.09962478477668034", "ilp2": "0.03637320911772747"}),
}
SEEDS = {
    "1": (1295, 1295, 0, {"normal": "0.09069448090068281", "ilp2": "0.01759278413690342"}),
    "2": (1376, 1376, 0, {"normal": "0.0480067300703044", "ilp2": "0.014218243167934685"}),
    "3": (1525, 1525, 0, {"normal": "0.06945889489575666", "ilp2": "0.016372856356866992"}),
    "4": (1769, 1769, 0, {"normal": "0.14042089598725346", "ilp2": "0.054472534117189574"}),
    "5": (1407, 1407, 0, {"normal": "0.05147673173105143", "ilp2": "0.01646498683812018"}),
}


def pinned_form(rows):
    """Study rows in the form of the constants above."""
    out = {}
    for row in rows:
        counts = {(o.features, o.shortfall) for o in row.outcomes.values()}
        assert len(counts) == 1, f"{row.testcase}: methods placed different counts"
        ((features, shortfall),) = counts
        out[row.testcase] = (
            row.budget_total, features, shortfall,
            {m: repr(o.weighted_tau_ps) for m, o in row.outcomes.items()},
        )
    return out


@pytest.fixture(scope="module")
def t1():
    return make_t1()


class TestPinnedStudyRows:
    def test_columns_small(self, small_generated_layout):
        rows = ablation_column_definitions(small_generated_layout, window_um=16, r=2)
        assert pinned_form(rows) == COLUMNS_SMALL

    def test_margin_small(self, small_generated_layout):
        rows = ablation_capacity_margin(small_generated_layout, window_um=16, r=2)
        assert pinned_form(rows) == MARGIN_SMALL

    def test_fillsize_small(self, small_generated_layout):
        rows = ablation_fill_size(small_generated_layout, window_um=16, r=2)
        assert pinned_form(rows) == FILLSIZE_SMALL

    def test_columns_t1(self, t1):
        assert pinned_form(ablation_column_definitions(t1)) == COLUMNS_T1

    def test_margin_t1_table_e(self, t1):
        assert pinned_form(ablation_capacity_margin(t1)) == MARGIN_T1

    def test_seeds(self):
        assert pinned_form(ablation_seed_sensitivity()) == SEEDS


class TestEngineKnobsReachEngine:
    """run_config and TableSpec.engine pass EngineConfig fields through:
    a capacity margin set either way gives the margin study's row."""

    def test_run_config_capacity_margin(self, t1):
        row = run_config(t1, "0.50", 32, 4, methods=("normal", "ilp2"), capacity_margin=0.5)
        assert pinned_form([row]) == {"0.50": MARGIN_T1["0.50"]}

    def test_table_spec_engine_capacity_margin(self, t1):
        spec = TableSpec(
            testcases=("T1",), windows_um=(32,), r_values=(4,),
            methods=("normal", "ilp2"), engine={"capacity_margin": 0.5},
        )
        (row,) = run_table(True, spec, layouts={"T1": t1}).rows
        assert pinned_form([row]) == {"T1": MARGIN_T1["0.50"]}

    def test_method_comes_from_methods(self, small_generated_layout):
        with pytest.raises(ReproError, match="methods"):
            run_config(small_generated_layout, "small", 16, 2, method="ilp2")

    def test_unknown_knob_rejected(self, small_generated_layout):
        with pytest.raises(TypeError):
            run_config(small_generated_layout, "small", 16, 2, margin=0.5)
