"""CI smoke check for chip-scale streaming ingest.

Runs :func:`run_bench.bench_t3_streaming` — band-sorted T3 DEF parsed
both materialized and streaming, window densities timed on the streamed
map — and exits nonzero unless the acceptance gate holds:
``stream_peak < 50%`` of the materialized parse's tracemalloc peak.

Bit-identity (streamed tile areas == materialized) is asserted inside
the bench itself — a divergence raises before the gate is read.

Run from the repo root::

    PYTHONPATH=src python benchmarks/t3_smoke.py [--nets 7000] [--out-dir obs-artifacts]

Writes the bench row to ``--out-dir``/t3-streaming.json so CI can upload
it next to the other telemetry artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run_bench

from repro.io.atomic import atomic_write_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="obs-artifacts",
                        help="directory for the bench-row artifact")
    parser.add_argument("--nets", type=int, default=7000,
                        help="T3 net count (full chip scale by default)")
    args = parser.parse_args(argv)

    print(f"chip-scale T3 streaming smoke ({args.nets} nets) ...")
    row = run_bench.bench_t3_streaming(n_nets=args.nets)

    out_path = Path(args.out_dir) / "t3-streaming.json"
    atomic_write_json(out_path, row)
    print(json.dumps(row, indent=2))
    print(f"bench row written to {out_path}")

    if not row["gate"]["stream_peak_lt_half"]:
        print(
            f"FAIL: streaming peak ratio {row['streaming_peak_ratio']} >= 0.5",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: streaming peak {row['streaming_peak_mb']} MB vs materialized "
        f"{row['materialized_peak_mb']} MB; density {row['density_direct_s']} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
