"""Experiment harness (single config + table machinery) and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import TableSpec, run_config, run_table
from repro.pilfill import SolutionCache
from repro.synth import GeneratorSpec, generate_layout
from tests.results_compare import parse_results_csv


@pytest.fixture(scope="module")
def tiny_layout():
    spec = GeneratorSpec(
        name="tiny", die_um=48.0, n_nets=24, seed=7,
        trunk_len_um=(8.0, 24.0), branch_len_um=(2.0, 8.0), sinks_per_net=(1, 3),
    )
    return generate_layout(spec)


@pytest.fixture(scope="module")
def config_result(tiny_layout):
    return run_config(tiny_layout, "tiny", window_um=16, r=2, backend="scipy")


class TestRunConfig:
    def test_all_methods_present(self, config_result):
        assert set(config_result.outcomes) == {"normal", "ilp1", "ilp2", "greedy"}

    def test_same_feature_count_across_methods(self, config_result):
        counts = {o.features for o in config_result.outcomes.values()}
        assert len(counts) == 1

    def test_ilp2_beats_normal(self, config_result):
        assert config_result.tau("ilp2", True) <= config_result.tau("normal", True)
        assert config_result.tau("ilp2", False) <= config_result.tau("normal", False)

    def test_reduction_vs_normal(self, config_result):
        red = config_result.reduction_vs_normal("ilp2", weighted=True)
        assert 0.0 <= red <= 1.0
        assert config_result.reduction_vs_normal("normal", weighted=True) == 0.0

    def test_label(self, config_result):
        assert config_result.label == "tiny/16/2"

    def test_cpu_recorded(self, config_result):
        assert all(o.cpu_s >= 0 for o in config_result.outcomes.values())


class TestTableMachinery:
    def test_run_table_single_row(self, tiny_layout):
        spec = TableSpec(testcases=("tiny",), windows_um=(16,), r_values=(2,))
        labels = []
        table = run_table(
            weighted=True, spec=spec, layouts={"tiny": tiny_layout},
            progress=labels.append,
        )
        assert len(table.rows) == 1
        assert labels == ["tiny/16/2"]

    def test_format_contains_all_rows(self, tiny_layout):
        spec = TableSpec(testcases=("tiny",), windows_um=(16,), r_values=(2, 4))
        table = run_table(weighted=False, spec=spec, layouts={"tiny": tiny_layout})
        text = table.format()
        assert "Non-weighted" in text
        assert "tiny/16/2" in text and "tiny/16/4" in text

    def test_csv_shape(self, tiny_layout):
        spec = TableSpec(testcases=("tiny",), windows_um=(16,), r_values=(2,))
        table = run_table(weighted=True, spec=spec, layouts={"tiny": tiny_layout})
        lines = table.to_csv().strip().splitlines()
        assert lines[0].startswith("testcase,")
        assert len(lines) == 1 + 4  # header + 4 methods

    def test_shared_solution_cache(self, tiny_layout, tmp_path):
        """One SolutionCache in ``TableSpec.engine`` serves every row: a
        cold and a warm run both print the uncached CSV (``cpu_s`` aside),
        and the warm run solves nothing — every tile lookup is a hit."""
        layouts = {"tiny": tiny_layout}
        rows = dict(testcases=("tiny",), windows_um=(16,), r_values=(2,))
        plain = run_table(True, TableSpec(**rows), layouts=layouts).to_csv()
        cache = SolutionCache(cache_dir=tmp_path)
        spec = TableSpec(**rows, engine={"solution_cache": cache})
        cold = run_table(True, spec, layouts=layouts).to_csv()
        cold_misses = cache.misses
        assert cold_misses > 0 and cache.stores > 0 and cache.hits == 0
        warm = run_table(True, spec, layouts=layouts).to_csv()
        assert cache.misses == cold_misses
        assert cache.hits == cold_misses
        expected = parse_results_csv(plain)
        assert parse_results_csv(cold) == expected
        assert parse_results_csv(warm) == expected


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["density", "--testcase", "T1", "-r", "4"])
        assert args.command == "density" and args.r == 4

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_density_command_runs(self, capsys):
        assert main(["density", "--testcase", "T1", "--window", "32", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "window density" in out

    def test_fill_command_runs_and_writes_def(self, tmp_path, capsys):
        out_path = tmp_path / "filled.def"
        code = main([
            "fill", "--testcase", "T1", "--method", "greedy",
            "--window", "32", "-r", "2", "--out", str(out_path),
        ])
        assert code == 0
        text = out_path.read_text()
        assert "FILLS" in text
        out = capsys.readouterr().out
        assert "delay impact" in out

    def test_table_cache_dir_flag(self, tmp_path, capsys):
        """``--cache-dir`` reaches the engine: the warm re-run of a quick
        table writes the cold run's CSV and rewrites no cache entry."""
        cache_dir = tmp_path / "cache"

        def entries():
            return {p: p.stat().st_mtime_ns for p in cache_dir.rglob("*") if p.is_file()}

        csvs = []
        for run in ("cold", "warm"):
            csv = tmp_path / f"{run}.csv"
            argv = ["table2", "--quick", "--csv", str(csv), "--cache-dir", str(cache_dir)]
            assert main(argv) == 0
            csvs.append(parse_results_csv(csv.read_text()))
            if run == "cold":
                primed = entries()
                assert primed
        assert csvs[0] == csvs[1]
        assert entries() == primed

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fill", "--method", "anneal"])
