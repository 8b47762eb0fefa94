"""Golden-file regression for the Table 1 / Table 2 CSV output.

A small seeded slice of the paper's sweep — T1, window 32 µm, r ∈ {2, 4},
all four methods, seed 0 — is frozen in ``tests/golden/``. The tables
are regenerated through the real harness and diffed cell by cell:

* ``cpu_s`` is ignored (host-dependent by nature),
* counters (``features``, ``degraded_tiles``, ``failed_tiles``,
  ``retried_tiles``) must match exactly,
* τ columns are compared as floats with a tight relative tolerance —
  they are serialized at 6 decimal places and derive from an LP solve,
  so demanding byte equality would pin the scipy version rather than
  the algorithm.

Regenerate deliberately (after a change that legitimately moves τ) with::

    PYTHONPATH=src python tests/test_golden_tables.py --regenerate

and review the diff like any other golden update.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.experiments.tables import TableSpec, run_table
from repro.synth import make_t1
from tests.results_compare import ResultRow, parse_results_csv

GOLDEN_DIR = Path(__file__).parent / "golden"
#: Column -> comparison kind for one CSV row (the row key covers
#: testcase, window_um, r and method; ``cpu_s`` is not parsed).
EXACT_FIELDS = ("features", "degraded_tiles", "failed_tiles", "retried_tiles")
FLOAT_FIELDS = ("tau_ps", "weighted_tau_ps")


def golden_spec() -> TableSpec:
    return TableSpec(testcases=("T1",), windows_um=(32,), r_values=(2, 4))


def generate() -> dict[str, str]:
    layouts = {"T1": make_t1()}
    spec = golden_spec()
    return {
        "results_table1.csv": run_table(False, spec, layouts=layouts).to_csv(),
        "results_table2.csv": run_table(True, spec, layouts=layouts).to_csv(),
    }


def _rows(csv_text: str) -> dict[tuple, ResultRow]:
    """CSV body as ``{(testcase, window, r, method): row}``."""
    return {(*row.config, row.method): row for row in parse_results_csv(csv_text)}


def assert_csv_matches_golden(fresh: str, golden: str, name: str) -> None:
    fresh_rows, golden_rows = _rows(fresh), _rows(golden)
    assert set(fresh_rows) == set(golden_rows), (
        f"{name}: row set changed: "
        f"added {sorted(set(fresh_rows) - set(golden_rows))}, "
        f"removed {sorted(set(golden_rows) - set(fresh_rows))}"
    )
    mismatches = []
    for key, golden_row in golden_rows.items():
        fresh_row = fresh_rows[key]
        for column in EXACT_FIELDS:
            want, got = getattr(golden_row, column), getattr(fresh_row, column)
            if got != want:
                mismatches.append(f"{key} {column}: {want} -> {got}")
        for column in FLOAT_FIELDS:
            got, want = getattr(fresh_row, column), getattr(golden_row, column)
            # Serialized at 6 decimals; 1e-6 relative plus one final-digit
            # rounding step of absolute slack.
            if not math.isclose(got, want, rel_tol=1e-6, abs_tol=1.5e-6):
                mismatches.append(f"{key} {column}: {want} -> {got}")
    assert not mismatches, f"{name}: {len(mismatches)} cell(s) diverged:\n" + "\n".join(
        mismatches
    )


@pytest.fixture(scope="module")
def fresh_tables():
    return generate()


@pytest.mark.parametrize("name", ["results_table1.csv", "results_table2.csv"])
def test_table_csv_matches_golden(fresh_tables, name):
    golden_path = GOLDEN_DIR / name
    assert golden_path.exists(), (
        f"golden file {golden_path} missing — regenerate with "
        f"'PYTHONPATH=src python tests/test_golden_tables.py --regenerate'"
    )
    assert_csv_matches_golden(fresh_tables[name], golden_path.read_text(), name)


def test_golden_covers_every_method():
    for name in ("results_table1.csv", "results_table2.csv"):
        rows = _rows((GOLDEN_DIR / name).read_text())
        methods = {key[3] for key in rows}
        assert methods == {"normal", "ilp1", "ilp2", "greedy"}, name


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite tests/golden/ from a fresh harness run")
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate to rewrite the goldens")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, text in generate().items():
        (GOLDEN_DIR / filename).write_text(text)
        print(f"wrote {GOLDEN_DIR / filename}")
