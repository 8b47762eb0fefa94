"""Result cache for the linter.

Re-linting an unchanged tree costs one digest per file instead of a full
AST pass. A per-file cache entry is keyed by a digest of the file
*content* plus the analysis context — linter version, rule ids, policy
fingerprint, and (since the interprocedural passes) the file's
**import-closure digest**, so a finding explained by a dependency goes
stale the moment that dependency edits. Content hashing, not mtimes, so
the cache is immune to clock skew and checkout timestamp churn.

Program-scoped rules (lock-order cycles, worker purity) depend on facts
outside any single file's closure, so their findings live in a separate
section keyed by a whole-program digest via :func:`program_digest`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.findings import Finding
from repro.io.atomic import atomic_write_json

#: Bump to invalidate every cache entry when rule semantics change.
LINT_VERSION = 4


def context_digest(
    rule_ids: tuple[str, ...],
    policy_fingerprint: str,
    closure_digest: str = "",
) -> str:
    """Digest of everything besides file content that affects findings."""
    payload = json.dumps(
        {
            "version": LINT_VERSION,
            "rules": sorted(rule_ids),
            "policy": policy_fingerprint,
            "closure": closure_digest,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_digest(
    rule_ids: tuple[str, ...], policy_fingerprint: str, source_digest: str
) -> str:
    """Cache key for the program-scoped findings of one whole program."""
    payload = json.dumps(
        {
            "version": LINT_VERSION,
            "rules": sorted(rule_ids),
            "policy": policy_fingerprint,
            "sources": source_digest,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def entry_digest(source: str, ctx_digest: str) -> str:
    """Cache key for one file's findings."""
    h = hashlib.sha256()
    h.update(source.encode("utf-8"))
    h.update(ctx_digest.encode("utf-8"))
    return h.hexdigest()


class LintCache:
    """JSON-file-backed map of path -> (digest, findings)."""

    def __init__(self, path: Path | None):
        self.path = path
        self._entries: dict[str, dict[str, object]] = {}
        self._program: dict[str, object] = {}
        self._dirty = False
        if path is not None and path.exists():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                data = {}
            if isinstance(data, dict) and data.get("version") == LINT_VERSION:
                entries = data.get("entries")
                if isinstance(entries, dict):
                    self._entries = entries
                program = data.get("program")
                if isinstance(program, dict):
                    self._program = program

    def get(self, path: str, digest: str) -> list[Finding] | None:
        """Cached findings for ``path`` at ``digest``, else None."""
        entry = self._entries.get(path)
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            return None
        raw = entry.get("findings")
        if not isinstance(raw, list):
            return None
        try:
            return [Finding.from_dict(item) for item in raw]
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, path: str, digest: str, findings: list[Finding]) -> None:
        """Record findings for ``path`` at ``digest``."""
        self._entries[path] = {
            "digest": digest,
            "findings": [f.to_dict() for f in findings],
        }
        self._dirty = True

    def get_program(self, digest: str) -> list[Finding] | None:
        """Cached program-scoped findings at ``digest``, else None."""
        if self._program.get("digest") != digest:
            return None
        raw = self._program.get("findings")
        if not isinstance(raw, list):
            return None
        try:
            return [Finding.from_dict(item) for item in raw]
        except (KeyError, TypeError, ValueError):
            return None

    def put_program(self, digest: str, findings: list[Finding]) -> None:
        """Record the program-scoped findings at ``digest``."""
        self._program = {
            "digest": digest,
            "findings": [f.to_dict() for f in findings],
        }
        self._dirty = True

    def save(self) -> None:
        """Persist to disk (no-op for the in-memory cache or when clean)."""
        if self.path is None or not self._dirty:
            return
        payload = {
            "version": LINT_VERSION,
            "entries": self._entries,
            "program": self._program,
        }
        try:
            # Atomic so a crash mid-save can't leave a torn cache that
            # poisons (and silently un-caches) every later lint run.
            atomic_write_json(self.path, payload, indent=None, sort_keys=True)
        except OSError:  # pragma: no cover - cache is best-effort
            pass
        self._dirty = False
