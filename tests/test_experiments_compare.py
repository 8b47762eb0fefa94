"""Result-regression comparison and the shipped golden CSVs."""

from pathlib import Path

import pytest

from repro.errors import ReproError
from tests.results_compare import (
    ResultRow,
    check_shape,
    compare_results,
    parse_results_csv,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent

SAMPLE = """testcase,window_um,r,method,tau_ps,weighted_tau_ps,cpu_s,features
T1,32,2,normal,0.05,0.09,0.01,100
T1,32,2,ilp1,0.02,0.03,0.10,100
T1,32,2,ilp2,0.01,0.02,0.50,100
T1,32,2,greedy,0.03,0.04,0.01,100
"""


class TestParse:
    def test_parses_sample(self):
        rows = parse_results_csv(SAMPLE)
        assert len(rows) == 4
        assert rows[0].method == "normal"
        assert rows[2].weighted_tau_ps == pytest.approx(0.02)

    def test_missing_column_rejected(self):
        with pytest.raises(ReproError, match="missing columns"):
            parse_results_csv("testcase,method\nT1,normal\n")

    def test_empty_rejected(self):
        header = SAMPLE.splitlines()[0] + "\n"
        with pytest.raises(ReproError, match="no data rows"):
            parse_results_csv(header)

    def test_bad_value_reports_line(self):
        bad = SAMPLE.replace("0.05", "not-a-number", 1)
        with pytest.raises(ReproError, match="line 2"):
            parse_results_csv(bad)


class TestShape:
    def test_sample_shape_ok(self):
        assert check_shape(parse_results_csv(SAMPLE), weighted=True) == []

    def test_ilp2_worse_than_normal_flagged(self):
        bad = SAMPLE.replace("ilp2,0.01,0.02", "ilp2,0.10,0.20")
        failures = check_shape(parse_results_csv(bad), weighted=True)
        assert any("ILP-II worse" in f for f in failures)

    def test_feature_count_divergence_flagged(self):
        bad = SAMPLE.replace("greedy,0.03,0.04,0.01,100", "greedy,0.03,0.04,0.01,99")
        failures = check_shape(parse_results_csv(bad), weighted=True)
        assert any("feature counts differ" in f for f in failures)


class TestCompare:
    def test_identical_ok(self):
        rows = parse_results_csv(SAMPLE)
        report = compare_results(rows, rows)
        assert report.ok
        assert report.rows_compared == 4
        assert "OK" in str(report)

    def test_within_tolerance_ok(self):
        golden = parse_results_csv(SAMPLE)
        fresh = parse_results_csv(SAMPLE.replace("0.09", "0.092"))
        assert compare_results(golden, fresh, rel_tol=0.05).ok

    def test_out_of_tolerance_flagged(self):
        golden = parse_results_csv(SAMPLE)
        fresh = parse_results_csv(SAMPLE.replace("0.09", "0.18"))
        report = compare_results(golden, fresh, rel_tol=0.05)
        assert not report.ok
        assert any("weighted_tau_ps" in m for m in report.mismatches)

    def test_missing_row_flagged(self):
        golden = parse_results_csv(SAMPLE)
        fresh = [r for r in golden if r.method != "greedy"]
        report = compare_results(golden, fresh)
        assert any("missing in fresh" in m for m in report.mismatches)

    def test_extra_row_flagged(self):
        golden = parse_results_csv(SAMPLE)
        fresh = parse_results_csv(
            SAMPLE + "T2,32,2,normal,0.1,0.2,0.01,50\n"
        )
        report = compare_results(golden, fresh)
        assert any("unexpected extra" in m for m in report.mismatches)


class TestGoldenFiles:
    """The shipped golden CSVs themselves satisfy the shape checks and a
    fresh single-config run stays within tolerance of them."""

    @pytest.mark.parametrize("name,weighted", [
        ("results_table1.csv", False),
        ("results_table2.csv", True),
    ])
    def test_goldens_exist_and_shape_ok(self, name, weighted):
        path = GOLDEN_DIR / name
        assert path.exists(), f"golden {name} missing"
        rows = parse_results_csv(path.read_text())
        assert len(rows) == 12 * 4
        assert check_shape(rows, weighted=weighted) == []

    def test_fresh_run_matches_golden_row(self):
        from repro.experiments import run_config
        from repro.synth import make_t1

        golden = [
            r for r in parse_results_csv((GOLDEN_DIR / "results_table2.csv").read_text())
            if r.config == ("T1", 32, 2)
        ]
        result = run_config(make_t1(), "T1", 32, 2, weighted=True, backend="scipy")
        fresh = []
        for method, outcome in result.outcomes.items():
            fresh.append(ResultRow(
                testcase="T1", window_um=32, r=2, method=method,
                tau_ps=outcome.tau_ps, weighted_tau_ps=outcome.weighted_tau_ps,
                features=outcome.features,
            ))
        report = compare_results(golden, fresh, rel_tol=0.05)
        assert report.ok, str(report)
