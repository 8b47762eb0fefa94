"""Metrics: per-op layer values, run aggregation, digest checks, and the diff.

Standard library only, so ``run.py --diff`` works without the program.
Metric names, units, directions and bounds come from ``BENCHMARK.json``.

Times are in reference seconds: each op's measured seconds times its
``speed``, the host's speed next to the op as the calibration kernel
(``calib.py``) tells it. Aggregation: an op's time depends on which design
it ran, and a run visits every design at least twice. A run's ``fill_s``
and its per-layer values take, for each design, the median of its ops,
averaged over the designs, so every design weighs the same.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: End-to-end metrics: name -> (unit, better, bound).
E2E = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}
#: Per-layer metrics from traced ops: name -> (unit, better).
LAYERS = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

#: Metrics reduced by max instead of the design-mean of medians: an op can
#: reuse memory earlier ops of its process freed, so the largest peak RSS
#: step comes closest to what a call needs.
_MAX_REDUCED = ("prepare.rss_step_mb", "budget.rss_step_mb")
_DIGESTS = ("digest", "prepared_digest")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: list[dict], overhead_s: float) -> dict:
    """Per-layer values of one traced op.

    ``spans`` are the op's tracer records: the root ``op`` span first, the
    benchmark's call spans as its children (the program's own phase spans
    nest under those), then any attribution spans recorded after the op
    as further roots. A layer's seconds are the durations of its call
    spans; ``overhead_s`` is the probe's own time inside the op.
    """
    root = spans[0]
    op_s = root["duration_s"]
    calls = [s for s in spans[1:] if s["parent"] in (0, -1)]

    def named(name: str) -> list[dict]:
        return [s for s in calls if s["name"] == name]

    def seconds(name: str) -> float:
        return sum(s["duration_s"] for s in named(name))

    def total(name: str, key: str) -> float:
        return sum(float(s["attrs"].get(key, 0)) for s in named(name))

    def solve_seconds(method: str) -> float:
        return sum(s["duration_s"] for s in named("solve") if s["attrs"]["method"] == method)

    parse_s = seconds("io.parse") + seconds("attr.parse")
    parse_mb = (total("io.parse", "bytes") + total("attr.parse", "bytes")) / 1e6
    tile_ms = sorted(1000.0 * t for s in named("solve") for t in json.loads(s["attrs"]["tile_s"]))
    hits, misses = total("solve", "cache_hits"), total("solve", "cache_misses")
    lut_hits, lut_misses = total("costs", "lut_hits"), total("costs", "lut_misses")
    in_op = sum(s["duration_s"] for s in calls if s["parent"] == 0)
    return {
        "io.parse_s": parse_s,
        "io.def_mb_per_s": _ratio(parse_mb, parse_s),
        "prepare.s": seconds("prepare"),
        "prepare.scanline_s": total("prepare", "scanline_s"),
        "prepare.tiles": total("prepare", "tiles"),
        "prepare.columns": total("prepare", "columns"),
        "prepare.rss_step_mb": total("prepare", "rss_step_mb"),
        "budget.s": seconds("budget"),
        "budget.lp_vars": total("budget", "lp_vars"),
        "budget.lp_rows": total("budget", "lp_rows"),
        "budget.rss_step_mb": total("budget", "rss_step_mb"),
        "costs.s": seconds("costs"),
        "costs.columns_per_s": _ratio(total("costs", "columns"), seconds("costs")),
        "costs.lut_hit_ratio": _ratio(lut_hits, lut_hits + lut_misses),
        "solve.s": seconds("solve"),
        "solve.normal_s": solve_seconds("normal"),
        "solve.ilp1_s": solve_seconds("ilp1"),
        "solve.ilp2_s": solve_seconds("ilp2"),
        "solve.greedy_s": solve_seconds("greedy"),
        "solve.tile_p50_ms": _quantile(tile_ms, 0.50),
        "solve.tile_p99_ms": _quantile(tile_ms, 0.99),
        "solve.tiles": total("solve", "tiles"),
        "solve.tiles_degraded": total("solve", "degraded"),
        "solve.tiles_failed": total("solve", "failed"),
        "solve.tiles_retried": total("solve", "retried"),
        "solve.objective_ps": total("solve", "objective_ps"),
        "dispatch.pools_created": total("solve", "pools_created"),
        "dispatch.shutdown_s": seconds("dispatch"),
        "evaluate.s": seconds("evaluate"),
        "evaluate.features_per_s": _ratio(total("evaluate", "features"), seconds("evaluate")),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": total("solve", "cache_stores"),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.digest_s": seconds("attr.tile_digest"),
        "digest.s": seconds("digest"),
        "trace.unaccounted_frac": _ratio(op_s - in_op, op_s),
        "trace.overhead_frac": _ratio(overhead_s, op_s),
    }


def reference_layers(layers: dict, speed: float) -> dict:
    """An op's layer values in reference seconds: times multiplied by the
    op's ``speed``, rates divided by it; ``host.speed`` is the speed."""
    out = {}
    for name, value in layers.items():
        unit = LAYERS[name][0]
        if unit in ("s", "ms"):
            value *= speed
        elif unit.endswith("/s"):
            value /= speed
        out[name] = value
    out["host.speed"] = speed
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def design_mean(values_by_design: dict[int, list[float]]) -> float:
    """Mean over designs of the median of each design's values."""
    return statistics.fmean(statistics.median(v) for v in values_by_design.values())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_ops(
    children: list[dict], pinned: dict | None, reference: list[dict] = ()
) -> tuple[int, int, list[str]]:
    """Mark each op ``ok`` and return (attempted, failed, reasons).

    ``reference`` holds children of the workload's reference workload,
    run on some of the same designs. An op fails if it raised, left a
    tile failed, or produced a digest other than its design's reference:
    the pinned digest when one exists (seed 0), else the digest of the
    reference op on that design, else the digest most of that design's
    ops produced — which needs at least two ops of the design.
    """
    ref_ops = [op for child in reference for op in child["ops"]]
    ops = ref_ops + [op for child in children for op in child["ops"]]
    refs: dict[tuple[str, int], str] = {}
    for kind in _DIGESTS:
        pins = (pinned or {}).get(kind)
        by_design: dict[int, list[str]] = defaultdict(list)
        for op in ops:
            if op.get(kind) is not None:
                by_design[op["design"]].append(op[kind])
        for design, digests in by_design.items():
            from_ref = [op[kind] for op in ref_ops if op["design"] == design and op.get(kind)]
            if pins:
                refs[kind, design] = pins[design]
            elif from_ref:
                refs[kind, design] = from_ref[0]
            elif len(digests) >= 2:
                refs[kind, design] = Counter(digests).most_common(1)[0][0]
    failed = 0
    reasons = []
    for op in ops:
        why = op.get("error")
        if why is None and op["failed_tiles"]:
            why = f"{op['failed_tiles']} tile(s) failed"
        for kind in _DIGESTS:
            if why is not None or op.get(kind) is None:
                continue
            expected = refs.get((kind, op["design"]))
            if expected is None:
                why = f"{kind} unchecked: a single op and nothing to compare it with"
            elif op[kind] != expected:
                why = f"{kind} {op[kind][:12]} != expected {expected[:12]}"
        op["ok"] = why is None
        if why is not None:
            failed += 1
            reasons.append(f"design {op['design']}: {why}")
    return len(ops), failed, reasons


def reference_digests(children: list[dict]) -> dict[str, list[str]]:
    """Each design's digests from its checked ops, in design order — the
    shape of a ``pinned.json`` entry."""
    found: dict[str, dict[int, str]] = defaultdict(dict)
    for child in children:
        for op in child["ops"]:
            for kind in _DIGESTS:
                if op["ok"] and op.get(kind) is not None:
                    found[kind][op["design"]] = op[kind]
    return {kind: [by_design[d] for d in sorted(by_design)] for kind, by_design in found.items()}


def e2e_values(children: list[dict]) -> dict[str, float]:
    """End-to-end metrics of one run's untraced children, ops checked."""
    times: dict[int, list[float]] = defaultdict(list)
    for child in children:
        for op in child["ops"]:
            if op["ok"]:
                times[op["design"]].append(op["seconds"] * op["speed"])
    return {
        "fill_s": design_mean(times) if times else 0.0,
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def layer_summary(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced ops of ``children``."""
    by_metric: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for child in children:
        for op in child["ops"]:
            if op["ok"] and "layers" in op:
                for name, value in op["layers"].items():
                    by_metric[name][op["design"]].append(value)
    out = {}
    for name in LAYERS:
        values = by_metric.get(name)
        if not values:
            out[name] = 0.0
        elif name in _MAX_REDUCED:
            out[name] = max(max(v) for v in values.values())
        else:
            out[name] = design_mean(values)
    return out


# ---------------------------------------------------------------------------
# --diff


def spread(side: dict) -> float:
    """Interquartile spread of one side of a diff, as a share of its median."""
    return _ratio(side["q3"] - side["q1"], side["median"])


def label(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(relative median change, label) of one e2e metric, A -> B.

    ``a``/``b`` carry ``median``, ``q1``, ``q3``. ``unresolved`` when
    either side's interquartile spread exceeds the bound; otherwise
    ``improved``/``regressed`` past the bound, else ``unchanged``.
    """
    delta = _ratio(b["median"] - a["median"], a["median"])
    if max(spread(a), spread(b)) > bound:
        return delta, "unresolved"
    worse = delta if better == "lower" else -delta
    if worse > bound:
        return delta, "regressed"
    if worse < -bound:
        return delta, "improved"
    return delta, "unchanged"


def diff_lines(a: dict, b: dict) -> list[str]:
    """The ``--diff`` report of two BENCH files, one line per workload x
    e2e metric, each followed by the layers whose time moved."""
    lines = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (unit, better, bound) in E2E.items():
            ma, mb = wa["e2e"][metric], wb["e2e"][metric]
            delta, verdict = label(ma, mb, better, bound)
            lines.append(
                f"{name} {metric} {ma['median']:.4g} -> {mb['median']:.4g} {unit} "
                f"{delta:+.1%} (spreads {spread(ma):.1%}, {spread(mb):.1%}; "
                f"bound {bound:.0%}) {verdict}"
            )
        # A layer moved only if it moved by more than the op time itself
        # varies from rep to rep.
        floor = max(w["e2e"]["fill_s"]["q3"] - w["e2e"]["fill_s"]["q1"] for w in (wa, wb))
        for metric, (unit, _) in LAYERS.items():
            if unit != "s" or metric not in wa["per_layer"] or metric not in wb["per_layer"]:
                continue
            la, lb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            if abs(lb - la) > floor:
                lines.append(f"    {metric} {la:.4g} -> {lb:.4g} s ({lb - la:+.4g} s)")
    return lines
