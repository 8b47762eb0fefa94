"""Check a run report's phase timings against the report's own span tree.

A phase span carries a ``phase`` attribute. Its self time is its
duration less the durations of the nearest phase spans nested inside it,
so a cost-table build inside ``engine.run`` counts under ``costs`` and
not again under ``solve``. Every ``phase_seconds`` entry of a
``pilfill-run-report/v1`` document must equal the summed self time of
that phase's spans, to within 1e-9 s. The check fails when the report
has no spans (telemetry was off) or names a phase the spans do not
carry, or the other way round.

Run from the repo root on a report written by ``repro fill --trace-out``::

    python benchmarks/check_phase_report.py obs-artifacts/run-report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

TOLERANCE_S = 1e-9


def phase_self_seconds(forest: list[dict[str, Any]]) -> dict[str, float]:
    """Summed self time per phase over a JSON span forest."""
    out: dict[str, float] = {}

    def nested(node: dict[str, Any]) -> float:
        return sum(
            child["duration_s"] if "phase" in child["attrs"] else nested(child)
            for child in node["children"]
        )

    def visit(node: dict[str, Any]) -> None:
        phase = node["attrs"].get("phase")
        if phase is not None:
            out[phase] = out.get(phase, 0.0) + node["duration_s"] - nested(node)
        for child in node["children"]:
            visit(child)

    for root in forest:
        visit(root)
    return out


def mismatches(report: dict[str, Any]) -> list[str]:
    """One line per phase whose reported seconds disagree with its spans."""
    if not report.get("spans"):
        return ["report has no spans (was telemetry on?)"]
    reported = report["phase_seconds"]
    spans = phase_self_seconds(report["spans"])
    errors = [f"phase {name!r} has spans but no phase_seconds entry"
              for name in sorted(set(spans) - set(reported))]
    for name, seconds in sorted(reported.items()):
        expected = spans.get(name, 0.0)
        if abs(seconds - expected) > TOLERANCE_S:
            errors.append(
                f"phase {name!r}: phase_seconds {seconds!r} != span self time {expected!r}"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="run report JSON (repro fill --trace-out)")
    args = parser.parse_args(argv)
    errors = mismatches(json.loads(args.report.read_text()))
    for line in errors:
        print(line, file=sys.stderr)
    if not errors:
        print(f"{args.report}: every phase_seconds entry matches its spans' self time")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
