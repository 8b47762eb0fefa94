"""CLI: ablation, report, lint and quickstart subcommands."""

import json

import pytest

from repro.cli import build_parser, main


class TestAblationCommand:
    def test_capmodel(self, capsys):
        assert main(["ablation", "capmodel"]) == 0
        out = capsys.readouterr().out
        assert "Capacitance models" in out
        assert "exact/lin" in out

    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nope"])

    def test_parser_accepts_testcase(self):
        args = build_parser().parse_args(["ablation", "columns", "--testcase", "T2"])
        assert args.name == "columns" and args.testcase == "T2"


class TestReportCommand:
    def test_quick_report(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "--quick", "-o", str(out)]) == 0
        text = out.read_text()
        assert "# PIL-Fill reproduction report" in text
        assert "Table 1" in text and "Table 2" in text
        assert "T1/32/2" in text
        # quick mode skips ablations
        assert "Ablation A" not in text


class TestLintCommand:
    @staticmethod
    def _write_pkg(root):
        pkg = root / "clipkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "mod.py").write_text("VALUE = 1\n", encoding="utf-8")
        return pkg

    def test_sarif_format_prints_a_valid_document(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path)
        assert main(["lint", str(pkg), "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"] == []

    def test_sarif_out_writes_alongside_text(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path)
        sarif_path = tmp_path / "lint.sarif"
        assert main(["lint", str(pkg), "--sarif-out", str(sarif_path)]) == 0
        assert "0 findings" in capsys.readouterr().out
        document = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert document["runs"][0]["tool"]["driver"]["name"] == "pilfill-lint"

    def test_lint_writes_nothing_into_the_working_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        pkg = self._write_pkg(tmp_path)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        before = sorted(p.name for p in cwd.iterdir())
        assert main(["lint", str(pkg)]) == 0
        assert "0 findings in 2 file(s)" in capsys.readouterr().out
        assert sorted(p.name for p in cwd.iterdir()) == before


class TestQuickstartCommand:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "weighted delay impact" in out
