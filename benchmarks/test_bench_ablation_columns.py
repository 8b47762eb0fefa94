"""Ablation A: slack-column definitions I / II / III (paper §5.1).

Measures, on T1/32/2: the slack capacity each definition captures, the
fraction of the density budget it can satisfy, and the evaluated delay
impact of greedy fill under each definition. Definition III captures the
most capacity and the truest costs. Each case runs the ``columns`` study
(:func:`repro.experiments.ablation_column_definitions`) on its one
definition."""

from __future__ import annotations

import pytest

from repro.experiments import ablation_column_definitions, format_rows
from repro.pilfill import SlackColumnDef

_rows: list = []


@pytest.mark.parametrize("definition", list(SlackColumnDef), ids=lambda d: f"def{d.value}")
def test_column_definition_ablation(benchmark, t1_layout, definition):
    (row,) = benchmark.pedantic(
        ablation_column_definitions,
        args=(t1_layout,),
        kwargs=dict(definitions=(definition,)),
        rounds=1,
        iterations=1,
    )
    outcome = row.outcomes["greedy"]
    _rows.append(row)
    benchmark.extra_info["features"] = outcome.features
    benchmark.extra_info["shortfall"] = outcome.shortfall
    benchmark.extra_info["wtau_ps"] = round(outcome.weighted_tau_ps, 6)


def teardown_module(module):
    if not _rows:
        return
    print("\n")
    print(format_rows("Ablation A — slack-column definitions (T1/32/2, greedy)", "def", _rows))
