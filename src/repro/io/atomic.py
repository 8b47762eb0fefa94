"""Atomic file writes for JSON artifacts.

Bench trajectory files, run reports and the solution store are all
read back by later runs (or by CI artifact consumers). A plain
``write_text`` interrupted mid-write leaves a torn file that poisons
that later read — the classic failure mode being a half-written JSON
document that parses as garbage or not at all.

Every artifact writer routes through :func:`atomic_write_text` instead:
the payload lands in a temporary file *in the target directory* (same
filesystem, so the final rename cannot degrade to a copy) and is moved
into place with ``os.replace``, which POSIX guarantees to be atomic.
Readers therefore see either the previous complete file or the new
complete file, never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically, creating parent directories.

    The temporary file is created next to the target (never in a shared
    tmpdir) so ``os.replace`` stays a same-filesystem rename; on any
    failure the temporary is removed and the target is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: str | Path,
    payload: Any,
    *,
    indent: int | None = 2,
    sort_keys: bool = False,
) -> None:
    """Serialize ``payload`` as JSON and write it atomically.

    A trailing newline is always appended so artifacts stay friendly to
    line-oriented tooling (``cat``, ``diff``, CI log tails).
    """
    atomic_write_text(path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n")
