"""Array-built per-tile ILP models against the expression-built oracle.

:func:`~repro.pilfill.ilp1.build_ilp1_model`,
:func:`~repro.pilfill.ilp2.build_ilp2_model` and
:func:`~repro.pilfill.budgeted.build_budgeted_model` write
:class:`~repro.ilp.CompiledModel` arrays by index arithmetic;
:mod:`tests.ilp_model_oracle` builds the same models through
``Model``/``LinExpr``. Every array must match the oracle's ``compile()``
in dtype, shape and bytes — signed zeros included — so both backends get
the same input and every digest stays put.

The budgeted solve is also held to the DP optimum with the differential
suite's own check (:mod:`tests.test_ilp_differential`).
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.ilp import CompiledModel
from repro.pilfill.budgeted import (
    build_budgeted_model,
    delta_cap_ff,
    solve_tile_budgeted_ilp,
)
from repro.pilfill.costs import TileCosts
from repro.pilfill.ilp1 import build_ilp1_model
from repro.pilfill.ilp2 import build_ilp2_model
from repro.pilfill.prepare import prepare
from repro.synth import GeneratorSpec, default_fill_rules, density_rules_for, generate_layout
from tests.column_objects import (
    ColumnNeighbor,
    ElectricalColumn,
    delta_cap_ff_of_objects,
    slack_columns,
)
from tests.cost_tables import pack_costs
from tests.ilp_model_oracle import dsl_budgeted_model, dsl_ilp1_model, dsl_ilp2_model
from tests.test_ilp_differential import BACKENDS, assert_reaches_optimum, tiles

ARRAYS = ("c", "a_ub", "b_ub", "a_eq", "b_eq", "lb", "ub", "integer")

#: A small net pool, so columns share nets (and a column may see one net
#: on both sides) and the per-net budget rows accumulate several terms.
NETS = ("a", "b", "c")

zeros = st.sampled_from([0.0, -0.0])
entries = st.one_of(zeros, st.floats(0.0, 10.0, allow_nan=False))


def assert_same_model(got: CompiledModel, want: CompiledModel) -> None:
    assert np.float64(got.c0).tobytes() == np.float64(want.c0).tobytes()
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def neighbors(draw, sinks: dict[tuple[str, int], int]) -> ColumnNeighbor:
    """A neighbour on one of the tile's lines, each of which has one sink
    count (``sinks``), at a resistance of its own."""
    net, line_index = draw(st.sampled_from(sorted(sinks)))
    return ColumnNeighbor(
        net=net,
        line_index=line_index,
        sinks=sinks[net, line_index],
        resistance_ohm=draw(st.one_of(zeros, st.floats(1.0, 100.0))),
    )


@st.composite
def tile_models(draw) -> tuple[TileCosts, np.ndarray, int, dict[str, float]]:
    """One tile: its cost tables, ΔC entries, a budget in ``[1, capacity]``
    and per-net capacitance budgets.

    Columns may have no sites, no impact (no gap, or one neighbor), and
    literal ``±0.0`` table entries; a whole tile may lack impact, which
    gives ILP-I an all-zero objective. Nets may be absent from the
    budgets.
    """
    any_impact = draw(st.booleans())
    sinks = draw(st.fixed_dictionaries({(net, i): st.integers(1, 4) for net in NETS for i in (0, 1)}))
    columns, exact, linear, cap_tables = [], [], [], []
    for _ in range(draw(st.integers(1, 5))):
        capacity = draw(st.integers(0, 4))
        impact = any_impact and draw(st.booleans())
        below = draw(neighbors(sinks))
        above = draw(neighbors(sinks)) if impact else draw(st.none() | neighbors(sinks))
        columns.append(ElectricalColumn(4.0 if impact else None, below, above))
        per_feature = draw(entries) if impact else 0.0
        exact.append((0.0, *draw(st.lists(entries, min_size=capacity, max_size=capacity))))
        linear.append(tuple(per_feature * n for n in range(capacity + 1)))
        cap_tables.append(
            (0.0, *draw(st.lists(entries, min_size=capacity, max_size=capacity)))
        )
    costs = pack_costs(exact, linear, columns)
    assume(costs.capacity > 0)
    budget = draw(st.integers(1, costs.capacity))
    net_budgets = draw(
        st.dictionaries(st.sampled_from(NETS), st.one_of(zeros, st.floats(0.0, 50.0)))
    )
    return costs, pack_costs(cap_tables).exact, budget, net_budgets


def _signed_zero_tile():
    """Net ``a`` on both sides of a coupled column, a zero net budget, and
    ``±0.0`` entries in every table."""
    a0, a1 = ColumnNeighbor("a", 0, 2, 10.0), ColumnNeighbor("a", 1, 1, 0.0)
    b = ColumnNeighbor("b", 0, 1, 5.0)
    costs = pack_costs(
        [(0.0, -0.0, 2.0), (0.0,), (0.0, 0.0), (0.0, 1.5, -0.0)],
        [(0.0, -0.0, -0.0), (0.0,), (0.0, 0.0), (0.0, 0.5, 1.0)],
        [
            ElectricalColumn(4.0, a0, a1),
            ElectricalColumn(4.0, a1, b),
            ElectricalColumn(None, b, None),
            ElectricalColumn(4.0, b, a0),
        ],
    )
    cap_ff = pack_costs([(0.0, -0.0, 3.0), (0.0,), (0.0, 1.0), (0.0, 0.0, 0.0)]).exact
    return costs, cap_ff, 3, {"a": 0.0, "b": -0.0}


def _m_indices(m_vars) -> list[int]:
    return [v.index for v in m_vars]


@pytest.mark.parametrize("weighted", [True, False])
@settings(max_examples=150, deadline=None)
@given(tile_models())
@example(_signed_zero_tile())
def test_ilp1_arrays_match_oracle(weighted, tile):
    costs, _, budget, _ = tile
    model, m_at = build_ilp1_model(costs, budget, weighted)
    oracle, m_vars = dsl_ilp1_model(costs, budget, weighted)
    assert_same_model(model, oracle.compile())
    assert m_at.tolist() == _m_indices(m_vars)


@settings(max_examples=150, deadline=None)
@given(tile_models())
@example(_signed_zero_tile())
def test_ilp2_arrays_match_oracle(tile):
    costs, _, budget, _ = tile
    model, m_at = build_ilp2_model(costs, budget)
    oracle, m_vars = dsl_ilp2_model(costs, budget)
    assert_same_model(model, oracle.compile())
    assert m_at.tolist() == _m_indices(m_vars)


@settings(max_examples=150, deadline=None)
@given(tile_models())
@example(_signed_zero_tile())
def test_budgeted_arrays_match_oracle(tile):
    costs, cap_ff, budget, net_budgets = tile
    model, m_at = build_budgeted_model(costs, cap_ff, budget, net_budgets)
    oracle, m_vars = dsl_budgeted_model(costs, cap_ff, budget, net_budgets)
    assert_same_model(model, oracle.compile())
    assert m_at.tolist() == _m_indices(m_vars)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(tiles())
def test_budgeted_without_net_budgets_reaches_dp_optimum(backend, tile):
    """With no net budgeted, the budgeted model is ILP-II: DP optimum."""
    costs, budget = tile
    out = solve_tile_budgeted_ilp(costs, delta_cap_ff(costs, True), budget, {}, backend=backend)
    assert out.feasible
    assert_reaches_optimum(out.solution, costs, budget)


@pytest.fixture(scope="module", params=[3, 11], ids=["seed3", "seed11"])
def gridded(request, stack):
    """A seeded generated layout, prepared on its horizontal (metal3) and
    its vertical (metal4) routing layer."""
    layout = generate_layout(
        GeneratorSpec(
            name="gridded", die_um=48.0, n_nets=24, seed=request.param,
            trunk_len_um=(8.0, 24.0), branch_len_um=(2.0, 8.0), sinks_per_net=(1, 3),
        ),
        stack,
    )
    rules = default_fill_rules(stack)
    density = density_rules_for(16, 2, stack)
    return request.param, [prepare(layout, layer, rules, density) for layer in ("metal3", "metal4")]


@pytest.mark.parametrize("weighted", [True, False])
def test_table_models_match_object_view(gridded, weighted):
    """Every tile of real gridded layers, both routing directions: the
    ILP-I and budgeted models (and the ΔC tables) built from the column
    table are byte-equal to the oracles' over the tile's column objects,
    under seeded budgets and net budgets. The tiles hold one-neighbour
    columns, NaN-gap columns and lines beside two impactful columns."""
    seed, prepared = gridded
    rng = random.Random(seed)
    seen: Counter[str] = Counter()
    for prep in prepared:
        table = prep.columns_by_tile
        nets = sorted({net for net, _, _ in table.lines})
        seen["horizontal" if table.horizontal else "vertical"] += 1
        for key, costs in prep.costs_for(weighted).items():
            if costs.capacity == 0:
                continue
            columns = slack_columns(costs.columns)
            seen["one-neighbour"] += sum((c.below is None) != (c.above is None) for c in columns)
            seen["nan-gap"] += sum(c.gap_um is None for c in columns)
            beside = Counter(
                n.identity for c in columns if c.has_impact for n in (c.below, c.above)
            )
            seen["shared-line"] += sum(count > 1 for count in beside.values())

            budget = rng.randint(1, costs.capacity)
            model, m_at = build_ilp1_model(costs, budget, weighted)
            oracle, m_vars = dsl_ilp1_model(costs, budget, weighted)
            assert_same_model(model, oracle.compile())
            assert m_at.tolist() == _m_indices(m_vars)

            cap_ff = delta_cap_ff(costs, weighted)
            assert cap_ff.tobytes() == delta_cap_ff_of_objects(costs, weighted).tobytes()
            net_budgets = {
                net: rng.choice([0.0, rng.uniform(0.0, 0.05)])
                for net in rng.sample(nets, len(nets) // 2)
            }
            model, m_at = build_budgeted_model(costs, cap_ff, budget, net_budgets)
            oracle, m_vars = dsl_budgeted_model(costs, cap_ff, budget, net_budgets)
            assert_same_model(model, oracle.compile())
            assert m_at.tolist() == _m_indices(m_vars)
    assert min(seen[case] for case in (
        "horizontal", "vertical", "one-neighbour", "nan-gap", "shared-line"
    )) > 0, seen
