"""Per-tile fill budgets — the "normal fill" density-control step (ref [3],
Chen-Kahng-Robins-Zelikovsky, TCAD 2002).

Two interchangeable back-ends compute the prescribed number of fill
features ``numRF_ij`` for every tile:

* :func:`lp_minvar_budget` — the Min-Var linear program: maximize the
  minimum window density M subject to a maximum density U and per-tile
  slack capacity; the LP's fractional fill areas are rounded down to whole
  features. :func:`minvar_lp` assembles it as a sparse CSC matrix straight
  from the tile grid (:class:`MinVarLP` states the row and column order).
* :func:`montecarlo_budget` — the randomized greedy of the same paper:
  repeatedly pick the lowest-density window and drop one feature into a
  random tile of it that still has slack.

Both return ``{(ix, iy): feature_count}``. The PIL-Fill methods then decide
*where inside each tile* those features go.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from repro.dissection.density import DensityMap, density_ratio
from repro.dissection.fixed import FixedDissection
from repro.errors import FillError
from repro.ilp import solve_lp_arrays
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.tech.rules import FillRules

TileKey = tuple[int, int]


def minvar_lp_size(dissection: FixedDissection) -> dict[str, int]:
    """Variables, rows and nonzeros of the phase-1 Min-Var LP.

    One variable per tile plus ``M``; two rows per window; each window
    row pair touches the window's ``r²`` tiles twice and ``M`` once. The
    phase-2 LP adds one row and one nonzero.
    """
    windows = dissection.window_count
    r = dissection.rules.r
    return {
        "lp_vars": dissection.tile_count + 1,
        "lp_rows": 2 * windows,
        "lp_nnz": windows * (2 * r * r + 1),
    }


@dataclass(frozen=True)
class MinVarLP:
    """The Min-Var budget LP in the array form HiGHS consumes.

    Columns are the tiles in column-major order (the order of
    :meth:`FixedDissection.tiles`), then ``M``. Rows come in pairs, one
    pair per window in :meth:`FixedDissection.windows` order: the
    ceiling row ``Σ p + orig ≤ ceiling·area``, then the floor row
    ``Σ p + orig ≥ M·area`` stored negated as a ``≤`` row.

    ``data`` and ``indices`` hold one slot more than the phase-1 matrix:
    the phase-2 row ``−M ≤ −(M* − 1e-9)`` has a single nonzero, in the
    last column, so appending it to the CSC matrix is that slot plus a
    bumped last column pointer.
    """

    tile_keys: list[TileKey]
    capacity: np.ndarray  # legal fill sites per tile, column order
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @property
    def n_rows(self) -> int:
        """Rows of the phase-1 matrix (two per window)."""
        return len(self.b_ub)

    def phase1(self) -> tuple[np.ndarray, csc_array, np.ndarray]:
        """``(c, a_ub, b_ub)`` of phase 1: maximize ``M``."""
        c = np.zeros(len(self.lb))
        c[-1] = -1.0
        nnz = len(self.data) - 1
        a_ub = csc_array(
            (self.data[:nnz], self.indices[:nnz], self.indptr),
            shape=(self.n_rows, len(self.lb)),
        )
        return c, a_ub, self.b_ub

    def phase2(self, m_star: float) -> tuple[np.ndarray, csc_array, np.ndarray]:
        """``(c, a_ub, b_ub)`` of phase 2: minimize total fill subject to
        ``M ≥ m_star − 1e-9``."""
        c = np.zeros(len(self.lb))
        c[:-1] = 1.0
        indptr = self.indptr.copy()
        indptr[-1] += 1
        a_ub = csc_array(
            (self.data, self.indices, indptr), shape=(self.n_rows + 1, len(self.lb))
        )
        # 0.0 - y, not -y: at M* = 1e-9 the bound is +0.0, as in the
        # expression-built LP, whose constants are summed onto 0.0.
        b_ub = np.append(self.b_ub, 0.0 - (m_star - 1e-9))
        return c, a_ub, b_ub


def _covering_windows(n: int, count: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Per tile along one axis, the ``r`` candidate window indices that
    could cover it (ascending) and which of them exist."""
    wins = np.arange(n)[:, None] - (r - 1) + np.arange(r)[None, :]
    return wins, (wins >= 0) & (wins < count)


def minvar_lp(
    density: DensityMap,
    capacity: dict[TileKey, int],
    rules: FillRules,
    max_density: float | None = None,
    target_density: float | str | None = None,
) -> MinVarLP:
    """Assemble the Min-Var budget LP as arrays (see :class:`MinVarLP`).

    Window sums come from one :meth:`DensityMap.window_area` call and the
    window rects from the separable :meth:`DensityMap.window_geometry_area`;
    the constraint matrix is index arithmetic over the tile grid. No
    per-window object or dense row is built: memory is about 12 bytes per
    nonzero, with ``nnz ≈ 2·r²·windows``.
    """
    dissection = density.dissection
    if dissection.window_count == 0:
        raise FillError("dissection has no windows; die too small for window size")
    r, nx, ny = dissection.rules.r, dissection.nx, dissection.ny
    wx, wy = nx - r + 1, ny - r + 1

    window_area = density.window_area()
    geometry = density.window_geometry_area()
    current = density_ratio(window_area, geometry)
    if target_density == "mean":
        target_density = float(current.mean())
    ceiling = max(
        max_density if max_density is not None else dissection.rules.max_density,
        float(current.max()),
    )
    m_ub = ceiling if target_density is None else min(ceiling, float(target_density))

    tile_keys = [(ix, iy) for ix in range(nx) for iy in range(ny)]
    cap = np.array([capacity.get(key, 0) for key in tile_keys], dtype=np.int64)
    lb = np.zeros(len(tile_keys) + 1)
    ub = np.append(cap * float(rules.fill_area), m_ub)

    # 0.0 + sum turns any -0.0 window sum into +0.0, as the
    # expression-built LP's constant term does, so the bounds equal its
    # bit for bit.
    orig = 0.0 + window_area.ravel()
    area = geometry.ravel()

    # Tile (a, b) lies in windows (i, j) with a-r < i <= a and b-r < j <= b;
    # the floor row of window (i, j) is row 2·(i·wy + j) + 1.
    win_x, ok_x = _covering_windows(nx, wx, r)
    win_y, ok_y = _covering_windows(ny, wy, r)
    size = minvar_lp_size(dissection)
    n_rows, nnz = size["lp_rows"], size["lp_nnz"]
    index = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
    ceil_rows = (2 * (win_x[:, None, :, None] * wy + win_y[None, :, None, :]))[
        ok_x[:, None, :, None] & ok_y[None, :, None, :]
    ]
    n_tile = 2 * len(ceil_rows)
    indices = np.empty(nnz + 1, dtype=index)
    indices[:n_tile:2] = ceil_rows
    indices[1:n_tile:2] = ceil_rows + 1
    indices[n_tile:nnz] = np.arange(1, n_rows, 2)
    indices[nnz] = n_rows
    data = np.empty(nnz + 1)
    data[:n_tile:2] = 1.0
    data[1:n_tile:2] = -1.0
    data[n_tile:nnz] = area
    data[nnz] = -1.0
    per_tile = 2 * np.outer(ok_x.sum(axis=1), ok_y.sum(axis=1)).ravel()
    indptr = np.zeros(len(tile_keys) + 2, dtype=index)
    np.cumsum(per_tile, out=indptr[1:-1])
    indptr[-1] = nnz

    b_ub = np.empty(n_rows)
    b_ub[0::2] = -(orig - ceiling * area)
    b_ub[1::2] = orig
    return MinVarLP(tile_keys, cap, data, indices, indptr, b_ub, lb, ub)


def lp_minvar_budget(
    density: DensityMap,
    capacity: dict[TileKey, int],
    rules: FillRules,
    max_density: float | None = None,
    target_density: float | str | None = None,
    tracer: TracerLike | None = None,
) -> dict[TileKey, int]:
    """Min-Var LP fill budgets.

    Args:
        density: pre-fill density map of the layer.
        capacity: legal fill sites per tile.
        rules: fill rules (feature area for area↔count conversion).
        max_density: density ceiling U; defaults to the larger of the
            dissection rules' max density and the current maximum window
            density (so the LP is always feasible).
        target_density: optional cap on the maximized min-density M. When
            the foundry rule only requires windows to reach a floor (the
            common case), capping M keeps budgets minimal instead of
            spending every slack site chasing uniformity. ``"mean"`` caps
            at the pre-fill mean window density.
        tracer: optional telemetry tracer; records ``budget.assemble``,
            ``budget.lp_phase1`` and ``budget.lp_phase2`` spans.

    Returns:
        Whole-feature budget per tile.
    """
    trc = tracer if tracer is not None else NULL_TRACER
    with trc.span("budget.assemble"):
        lp = minvar_lp(density, capacity, rules, max_density, target_density)

    # Phase 1: the best achievable minimum window density M*.
    with trc.span("budget.lp_phase1"):
        phase1 = solve_lp_arrays(*lp.phase1(), lp.lb, lp.ub)
    if not phase1.status.is_optimal:
        raise FillError(f"Min-Var budget LP (phase 1) failed: {phase1.status}")
    m_star = float(phase1.x[-1])

    # Phase 2: the *minimum total fill* achieving M*. Without this pass the
    # solver may return any max-M vertex — including ones that saturate
    # every tile, which both wastes fill and leaves the placement methods
    # no freedom.
    with trc.span("budget.lp_phase2"):
        result = solve_lp_arrays(*lp.phase2(m_star), lp.lb, lp.ub)
    if not result.status.is_optimal:
        raise FillError(f"Min-Var budget LP (phase 2) failed: {result.status}")

    fill_area = float(rules.fill_area)
    return {
        key: min(int(value / fill_area + 1e-9), cap)
        for key, value, cap in zip(
            lp.tile_keys, result.x[:-1].tolist(), lp.capacity.tolist(), strict=True
        )
    }


def hybrid_budget(
    density: DensityMap,
    capacity: dict[tuple[int, int], int],
    rules: FillRules,
    target_density: float | str | None = None,
    max_density: float | None = None,
    seed: int = 0,
    tracer: TracerLike | None = None,
) -> dict[tuple[int, int], int]:
    """The iterated LP + Monte-Carlo back-end of ref [3].

    The LP works in continuous areas; rounding down to whole features
    leaves the minimum window density slightly short of the LP optimum.
    This hybrid runs the LP first, then lets the Monte-Carlo greedy top up
    windows that the rounding left below target (default and ``"mean"``:
    the pre-fill mean window density), using only the capacity the LP did
    not consume.
    """
    lp = lp_minvar_budget(
        density, capacity, rules,
        max_density=max_density, target_density=target_density, tracer=tracer,
    )
    fill_area = float(rules.fill_area)
    extra_area = np.zeros((density.dissection.nx, density.dissection.ny))
    for (ix, iy), count in lp.items():
        extra_area[ix, iy] = count * fill_area
    topped = density.added(extra_area)
    leftover = {
        key: capacity.get(key, 0) - lp.get(key, 0) for key in capacity
    }
    if target_density is None or target_density == "mean":
        target_density = float(density.window_density().mean())
    mc = montecarlo_budget(
        topped, leftover, rules,
        target_density=target_density, max_density=max_density, seed=seed,
    )
    return {key: lp.get(key, 0) + mc.get(key, 0) for key in sorted(set(lp) | set(mc))}


def montecarlo_budget(
    density: DensityMap,
    capacity: dict[tuple[int, int], int],
    rules: FillRules,
    target_density: float | str | None = None,
    max_density: float | None = None,
    seed: int = 0,
    max_steps: int | None = None,
) -> dict[tuple[int, int], int]:
    """Randomized greedy fill budgets (the Monte-Carlo back-end of ref [3]).

    Repeatedly selects the minimum-density window and adds one feature to a
    random tile of it that has remaining slack, until every window reaches
    ``target_density`` (default and ``"mean"``: the pre-fill mean window
    density), no
    window can be improved, or ``max_steps`` insertions were made.
    """
    dissection = density.dissection
    windows = list(dissection.windows())
    if not windows:
        raise FillError("dissection has no windows; die too small for window size")
    rng = random.Random(seed)

    fill_area = float(rules.fill_area)
    current = density.window_density()
    ceiling = max(
        max_density if max_density is not None else dissection.rules.max_density,
        float(current.max()),
    )
    window_area_geo = {w.key: float(w.rect.area) for w in windows}
    window_areas = density.window_area()
    window_fill = {w.key: float(window_areas[w.ix, w.iy]) for w in windows}
    if target_density is None or target_density == "mean":
        target_density = float(current.mean())
    target_density = min(float(target_density), ceiling)

    remaining = dict(capacity)
    budget = {t.key: 0 for t in dissection.tiles()}
    if max_steps is None:
        max_steps = sum(capacity.values())

    blocked: set[tuple[int, int]] = set()
    for _ in range(max_steps):
        candidates = [
            w for w in windows
            if w.key not in blocked
            and window_fill[w.key] / window_area_geo[w.key] < target_density
        ]
        if not candidates:
            break
        worst = min(candidates, key=lambda w: window_fill[w.key] / window_area_geo[w.key])
        open_tiles = [k for k in worst.tile_keys if remaining.get(k, 0) > 0]
        if not open_tiles:
            blocked.add(worst.key)
            continue
        # Adding a feature must not push any covering window over the ceiling.
        rng.shuffle(open_tiles)
        placed = False
        for tile_key in open_tiles:
            covering = dissection.windows_containing_tile(*tile_key)
            if all(
                (window_fill[w] + fill_area) / window_area_geo[w] <= ceiling + 1e-12
                for w in covering
            ):
                budget[tile_key] += 1
                remaining[tile_key] -= 1
                for w in covering:
                    window_fill[w] += fill_area
                placed = True
                break
        if not placed:
            blocked.add(worst.key)
    return budget
