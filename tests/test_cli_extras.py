"""CLI: ablation, report, and lint subcommands, plus render helpers not
covered elsewhere."""

import json
import subprocess

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
        assert main(["lint", str(pkg), "--no-cache", "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"] == []

    def test_sarif_out_writes_alongside_text(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path)
        sarif_path = tmp_path / "lint.sarif"
        assert main(
            ["lint", str(pkg), "--no-cache", "--sarif-out", str(sarif_path)]
        ) == 0
        assert "0 findings" in capsys.readouterr().out
        document = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert document["runs"][0]["tool"]["driver"]["name"] == "pilfill-lint"

    def test_changed_lints_only_dirty_closure(self, tmp_path, capsys, monkeypatch):
        pkg = self._write_pkg(tmp_path)
        (pkg / "dep.py").write_text("BASE = 1\n", encoding="utf-8")
        (pkg / "user.py").write_text(
            "from clipkg.dep import BASE\n\nTOTAL = BASE + 1\n", encoding="utf-8"
        )

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        git("add", "-A")
        git("commit", "-qm", "seed")
        monkeypatch.chdir(tmp_path)

        # Clean tree: nothing to lint.
        assert main(["lint", str(pkg), "--no-cache", "--changed"]) == 0
        assert "0 file(s)" in capsys.readouterr().out

        # Touch the dependency: it AND its dependent are selected.
        (pkg / "dep.py").write_text("BASE = 2\n", encoding="utf-8")
        assert main(["lint", str(pkg), "--no-cache", "--changed"]) == 0
        assert "2 file(s)" in capsys.readouterr().out

    def test_changed_outside_git_falls_back_to_full_lint(
        self, tmp_path, capsys, monkeypatch
    ):
        pkg = self._write_pkg(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nonexistent-gitdir"))
        assert main(["lint", str(pkg), "--no-cache", "--changed"]) == 0
        assert "2 file(s)" in capsys.readouterr().out


class TestQuickstartCommand:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "weighted delay impact" in out


class TestVizRenderDensity:
    def test_render_density(self, small_generated_layout):
        from repro import viz
        from repro.dissection import DensityMap, FixedDissection
        from repro.tech import DensityRules

        dissection = FixedDissection(small_generated_layout.die, DensityRules(16000, 2))
        density = DensityMap.from_layout(dissection, small_generated_layout, "metal3")
        art = viz.render_density(density)
        lines = art.splitlines()
        assert len(lines) == dissection.ny
        assert all(len(line) == dissection.nx for line in lines)
        assert any(ch != " " for line in lines for ch in line)
