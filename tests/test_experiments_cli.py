"""Experiment harness (single config + table machinery) and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import TableSpec, run_config, run_table
from repro.synth import GeneratorSpec, generate_layout


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

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fill", "--method", "anneal"])
