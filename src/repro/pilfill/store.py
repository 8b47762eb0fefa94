"""Versioned solution store backing the incremental ECO re-fill cache.

A store maps a content digest (see :mod:`repro.pilfill.incremental`) to a
:class:`CachedEntry` — the solved :class:`~repro.pilfill.solution.
TileSolution` plus its :class:`~repro.pilfill.robust.SolveReport`. Two
layers:

* **memory** — a plain dict, always present; hits cost a lookup.
* **disk** — optional (``cache_dir``), one JSON file per entry sharded by
  digest prefix (``<dir>/<xx>/<digest>.json``), written atomically so a
  crash mid-write can never leave a torn entry. Disk entries carry the
  store schema + version; any mismatch reads as a miss, so bumping
  :data:`STORE_VERSION` retires every stale entry without a migration.

The store is content-addressed: an edited tile produces a *new* digest,
so a stale entry is never looked up again *under its new inputs*. But
content addressing alone is not enough for the dirty-window contract —
an ECO invalidation names digests whose inputs may recur (a revert, or
neighbor churn that cancels out), and those must not be re-hit by a
fresh process with a cold memory layer. Eviction
(:meth:`SolutionStore.evict`) therefore drops *both* layers: the memory
entry and, when a disk layer is configured, the entry file itself.

Entries round-trip through JSON exactly: ``json`` serializes floats via
``repr`` (shortest round-trip form), so a solution loaded from disk is
bit-identical to the one stored — the property the incremental re-fill
contract stands on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.io.atomic import atomic_write_json
from repro.pilfill.robust import SolveReport
from repro.pilfill.solution import TileSolution

TileKey = tuple[int, int]


def copy_solution(solution: TileSolution) -> TileSolution:
    """A fresh, independently-mutable copy of ``solution``.

    ``TileSolution.counts`` is a list; both cache directions copy so the
    store, the priming run's result, and every warm result own disjoint
    objects (``site_indices`` is an immutable tuple and may be shared).
    """
    return TileSolution(
        counts=list(solution.counts),
        model_objective_ps=solution.model_objective_ps,
        nodes=solution.nodes,
        iterations=solution.iterations,
        site_indices=solution.site_indices,
    )

#: Bump to invalidate every persisted entry when solve semantics change
#: (method behavior, cost-table construction, RNG derivation, ...).
STORE_VERSION = 2

#: Schema tag embedded in every on-disk entry.
STORE_SCHEMA = "pilfill-solution-store/v1"


@dataclass(frozen=True)
class CachedEntry:
    """One cached tile outcome: the solution and its provenance report.

    Registered on the C202 payload registry: both fields are themselves
    registered payload classes, so an entry is picklable by construction
    (a future ``pilfill serve`` can ship hits across a pool boundary).
    """

    solution: TileSolution
    report: SolveReport

    def materialize(self) -> tuple[TileSolution, SolveReport]:
        """Fresh objects safe to merge into a ``FillResult``.

        ``TileSolution`` is mutable (its ``counts`` is a list), so a hit
        must never hand the cached instance itself to a result — two runs
        sharing one solution object would couple their bookkeeping.
        ``SolveReport`` is frozen and may be shared as-is.
        """
        return copy_solution(self.solution), self.report


def encode_entry(digest: str, entry: CachedEntry) -> dict[str, object]:
    """JSON-ready dict of one entry (schema + version embedded)."""
    sol = entry.solution
    report = entry.report
    return {
        "schema": STORE_SCHEMA,
        "version": STORE_VERSION,
        "digest": digest,
        "solution": {
            "counts": list(sol.counts),
            "model_objective_ps": sol.model_objective_ps,
            "nodes": sol.nodes,
            "iterations": sol.iterations,
            "site_indices": (
                None
                if sol.site_indices is None
                else [list(sites) for sites in sol.site_indices]
            ),
        },
        "report": {
            "key": list(report.key),
            "requested_method": report.requested_method,
            "used_method": report.used_method,
            "retries": report.retries,
            "errors": list(report.errors),
        },
    }


def decode_entry(payload: object) -> CachedEntry | None:
    """Entry from an on-disk dict; ``None`` for any mismatch or damage.

    Version/schema gating happens here so every reader shares it: a
    future :data:`STORE_VERSION` bump silently retires old entries.
    """
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != STORE_SCHEMA or payload.get("version") != STORE_VERSION:
        return None
    try:
        sol = payload["solution"]
        rep = payload["report"]
        raw_sites = sol["site_indices"]
        site_indices = (
            None
            if raw_sites is None
            else tuple(tuple(int(s) for s in sites) for sites in raw_sites)
        )
        solution = TileSolution(
            counts=[int(c) for c in sol["counts"]],
            model_objective_ps=float(sol["model_objective_ps"]),
            nodes=int(sol["nodes"]),
            iterations=int(sol["iterations"]),
            site_indices=site_indices,
        )
        key_list = rep["key"]
        report = SolveReport(
            key=(int(key_list[0]), int(key_list[1])),
            requested_method=str(rep["requested_method"]),
            used_method=None if rep["used_method"] is None else str(rep["used_method"]),
            retries=int(rep["retries"]),
            errors=tuple(str(e) for e in rep["errors"]),
        )
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return CachedEntry(solution=solution, report=report)


class SolutionStore:
    """Digest-keyed store of :class:`CachedEntry`, memory + optional disk.

    Args:
        cache_dir: directory for the disk layer; ``None`` keeps the store
            memory-only (entries then live as long as the store object).
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._dir = Path(cache_dir) if cache_dir is not None else None
        # The same directory as a string: a lookup joins strings rather
        # than building a Path per digest.
        self._dir_str = os.fspath(self._dir) if self._dir is not None else None
        self._memory: dict[str, CachedEntry] = {}

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def disk_backed(self) -> bool:
        """Whether a disk layer is configured."""
        return self._dir is not None

    @property
    def cache_dir(self) -> Path | None:
        return self._dir

    def entry_path(self, digest: str) -> Path:
        """On-disk location of one entry (digest-prefix sharded)."""
        if self._dir is None:
            raise ValueError("store has no disk layer")
        return self._dir / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> CachedEntry | None:
        """The entry at ``digest`` — memory first, then disk (which also
        repopulates the memory layer). ``None`` on a miss."""
        entry = self._memory.get(digest)
        if entry is not None:
            return entry
        if self._dir_str is None:
            return None
        # entry_path(digest), as a string.
        path = os.path.join(self._dir_str, digest[:2], digest + ".json")
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.loads(fh.read())
        except (OSError, ValueError):
            return None
        # A well-formed entry filed under another digest's path answers a
        # different tile: a miss, never a wrong hit.
        if not isinstance(payload, dict) or payload.get("digest") != digest:
            return None
        entry = decode_entry(payload)
        if entry is not None:
            self._memory[digest] = entry
        return entry

    def put(self, digest: str, entry: CachedEntry) -> None:
        """Record ``entry`` in memory and (when configured) on disk.

        Disk writes are atomic and best-effort: a read-only or full
        filesystem degrades the store to memory-only rather than failing
        the run — caching is an optimization, never a correctness gate.
        """
        self._memory[digest] = entry
        if self._dir is None:
            return
        try:
            atomic_write_json(
                self.entry_path(digest), encode_entry(digest, entry), indent=None
            )
        except OSError:  # pragma: no cover - store is best-effort
            pass

    def evict(self, digest: str) -> bool:
        """Drop ``digest`` from *every* layer; True when any layer held it.

        The dirty-window pass evicts digests whose solved answer is no
        longer trustworthy (an ECO touched the tile or its neighborhood).
        Dropping only the memory layer would leave the disk entry live
        for any *other* process — or a later cold start — whose digest
        computation lands back on the same value, silently serving a
        stale solution. The disk unlink is one call, so a process sharing
        the directory can remove the entry first without an error here;
        it is best-effort like :meth:`put` (a read-only filesystem cannot
        un-write the entry, but such a store also never recorded the
        pre-ECO run that would alias it).
        """
        held = self._memory.pop(digest, None) is not None
        if self._dir is not None:
            try:
                self.entry_path(digest).unlink()
                held = True
            except OSError:  # already gone, or a read-only store
                pass
        return held
