"""Trajectory-file helpers shared by the benchmark harnesses.

``perfbench/run.py`` names and stamps its suite files with these, so a
benchmark result file never overwrites an earlier one and always records
the commit it measured. The root ``BENCH_2026-08-*.json`` files are
frozen history from an earlier scenario writer that used the same
helpers.
"""

from __future__ import annotations

import subprocess
from pathlib import Path


def git_sha() -> str | None:
    """Current commit SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def unique_path(path: Path) -> Path:
    """``path`` if free, else the first ``stem.N.suffix`` that is.

    Same-day reruns used to overwrite ``BENCH_<date>.json``, silently
    erasing earlier points of the perf trajectory; default filenames now
    step aside (an explicit ``--out`` still overwrites deliberately).
    """
    if not path.exists():
        return path
    for n in range(1, 1000):
        candidate = path.with_name(f"{path.stem}.{n}{path.suffix}")
        if not candidate.exists():
            return candidate
    raise RuntimeError(f"no free name near {path} after 1000 tries")
