"""The trajectory-file helpers perfbench's suite imports from run_bench:
collision-safe filenames and git provenance.

A same-day rerun must not overwrite an earlier ``BENCH_<date>.json``, so
default filenames get a numeric suffix, and every suite file records its
git SHA so points stay attributable.
"""

from __future__ import annotations

import run_bench


class TestUniquePath:
    def test_free_path_untouched(self, tmp_path):
        path = tmp_path / "BENCH_2026-08-06.json"
        assert run_bench.unique_path(path) == path

    def test_existing_path_gets_suffix(self, tmp_path):
        path = tmp_path / "BENCH_2026-08-06.json"
        path.write_text("{}")
        assert run_bench.unique_path(path) == tmp_path / "BENCH_2026-08-06.1.json"

    def test_suffixes_step_past_existing(self, tmp_path):
        path = tmp_path / "BENCH_2026-08-06.json"
        path.write_text("{}")
        (tmp_path / "BENCH_2026-08-06.1.json").write_text("{}")
        assert run_bench.unique_path(path) == tmp_path / "BENCH_2026-08-06.2.json"


class TestGitSha:
    def test_sha_in_this_checkout(self):
        sha = run_bench.git_sha()
        # The repo is a git checkout; outside one, None is the contract.
        if sha is not None:
            assert len(sha) == 40
            assert all(c in "0123456789abcdef" for c in sha)

    def test_sha_is_hex_or_none(self, monkeypatch):
        # Simulate git being absent: the bench must still run.
        monkeypatch.setattr(
            run_bench.subprocess, "run",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no git")),
        )
        assert run_bench.git_sha() is None
