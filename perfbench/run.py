"""PIL-Fill benchmark: DEF text in, placed fill and its digest out.

Run from the repository root. One workload, one JSON result line::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload ``BENCHMARK.json`` lists, reps interleaved, results written to
``perfbench/results/BENCH_<date>.json`` (and ``TRACE_<date>.json``)::

    python3 perfbench/run.py [--seed N] [--reps R] [--seconds S] [--trace 0|1] [--out PATH]

Compare two result files::

    python3 perfbench/run.py --diff A.json B.json

A run of a workload is CHILDREN fresh child processes (``child.py``), one
at a time, that share ``--seconds`` of ops and together cover every design
at least twice, in whole rounds. The parent generates the designs from the
seed, untimed, and checks every op's digest: against ``pinned.json`` for
seed 0, otherwise against the workload's reference run where it has one,
and against the design's other ops. Any failed op makes the exit code
non-zero. Times are reported in reference seconds: measured seconds scaled
by the host's speed next to them, which a calibration kernel (``calib.py``)
tells. Everything runs on one CPU, so the kernel times the CPU the ops ran
on. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import calib
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated designs, caches and child results.
WORK = ROOT / ".perfbench-work"
#: Children per run; set-up is the median of theirs.
CHILDREN = 3
#: A single-workload run must end within 180 s.
RUN_LIMIT_S = 170.0
#: A suite run that takes longer than this is killed.
SUITE_RUN_LIMIT_S = 900.0


class RunError(Exception):
    """A rep could not run (set-up failed, crash, timeout): no result."""


def load_workloads():
    """Import the workload table, which imports the program from ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RunError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS


def use_one_cpu() -> None:
    """Confine this process, and so every child and pool worker it starts,
    to one CPU. The host's CPUs slow down independently of one another, so
    the calibration kernel tells an op's speed only if both ran on the same
    CPU; two CPUs busy at once also slow each other down."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pinned(name: str, seed: int) -> dict | None:
    """Seed 0's pinned digests for ``name`` (``None`` for other seeds)."""
    if seed != 0:
        return None
    return json.loads((HERE / "pinned.json").read_text()).get(name)


def run_child(
    name: str,
    designs: list[dict],
    run_dir: Path,
    *,
    seconds: float,
    first: int,
    min_ops: int,
    whole_rounds: bool,
    trace: bool,
    deadline: float,
) -> dict:
    """Run one rep of workload ``name`` in a fresh process; its result."""
    n = len(list(run_dir.glob("spec*.json")))
    spec_path, result_path = run_dir / f"spec{n}.json", run_dir / f"result{n}.json"
    # The host's speed as the child starts, for its set-up time.
    kernel_s = calib.kernel_s()
    spec = {
        "workload": name,
        "designs": designs,
        "work_dir": str(run_dir),
        "seconds": seconds,
        "first": first,
        "min_ops": min_ops,
        "whole_rounds": whole_rounds,
        "trace": trace,
        "result": str(result_path),
        "kernel_s": kernel_s,
        "spawned_at": time.monotonic(),
    }
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(run_dir))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child's pool workers share its process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RunError(f"{name}: rep killed at its deadline")
    if code != 0 or not result_path.is_file():
        raise RunError(f"{name}: rep exited with code {code}")
    return json.loads(result_path.read_text())


def make_designs(workload, seed: int, run_dir: Path) -> list[dict]:
    run_dir.mkdir(parents=True, exist_ok=True)
    return workload.generate(seed, run_dir, workload.designs, workload.die_um)


def run_once(
    workload, designs: list[dict], run_dir: Path, *,
    seed: int, seconds: float, trace: bool, deadline: float,
) -> dict:
    """One run of ``workload``: its children, plus the reference children
    that re-run design ``seed % designs`` under the reference workload."""
    k = len(designs)
    children: list[dict] = []
    done = 0
    for c in range(CHILDREN):
        last = c == CHILDREN - 1
        child = run_child(
            workload.name, designs, run_dir,
            seconds=seconds / CHILDREN,
            first=done,
            # The last child completes at least two rounds over the designs.
            min_ops=max(1, 2 * k - done) if last else 1,
            whole_rounds=last,
            trace=trace,
            deadline=deadline,
        )
        done += len(child["ops"])
        children.append(child)
    reference = []
    if workload.reference is not None:
        reference.append(run_child(
            workload.reference, designs, run_dir,
            seconds=0.0, first=seed % k, min_ops=1, whole_rounds=False,
            trace=False, deadline=deadline,
        ))
    return {"children": children, "reference": reference}


def run_workload(args: argparse.Namespace) -> int:
    """One run of one workload; one JSON line."""
    table = load_workloads()
    from repro.io.atomic import atomic_write_json

    if args.workload not in table:
        raise RunError(f"unknown workload {args.workload!r}; one of {', '.join(table)}")
    workload = table[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    try:
        designs = make_designs(workload, args.seed, run_dir)
        run = run_once(
            workload, designs, run_dir,
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace), deadline=deadline,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed, reasons = summary.check_ops(
        run["children"], pinned(workload.name, args.seed), run["reference"]
    )
    for reason in reasons:
        print(f"{workload.name}: failed op: {reason}", file=sys.stderr)
    if args.trace:
        metrics = summary.layer_summary(run["children"])
        units = {name: unit for name, (unit, _) in summary.LAYERS.items()}
        atomic_write_json(
            WORK / f"TRACE_{workload.name}_s{args.seed}.json",
            trace_payload({workload.name: run["children"]}, None), indent=None,
        )
    else:
        metrics = summary.e2e_values(run["children"])
        units = {name: unit for name, (unit, _, _) in summary.E2E.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, ``--reps`` untraced runs each plus one traced run."""
    table = load_workloads()
    from repro.io.atomic import atomic_write_json

    # Shared with the scenario benchmarks, so trajectory files are named
    # and stamped alike.
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from run_bench import git_sha, unique_path

    names = [w["name"] for w in summary.SPEC["workloads"]]
    suite_dir = WORK / f"suite-s{args.seed}-{os.getpid()}"
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict | None] = {name: None for name in names}
    try:
        designs = {
            name: make_designs(table[name], args.seed, suite_dir / name) for name in names
        }

        def rep(name: str, trace: bool) -> dict:
            run = run_once(
                table[name], designs[name], suite_dir / name,
                seed=args.seed, seconds=args.seconds, trace=trace,
                deadline=time.monotonic() + SUITE_RUN_LIMIT_S,
            )
            ops = sum(len(c["ops"]) for c in run["children"])
            print(f"{name}: {'traced ' if trace else ''}rep {ops} ops", file=sys.stderr)
            return run

        # Interleaved, reversed on odd reps, so drift of the host over the
        # suite lands on every workload alike.
        for r in range(args.reps):
            for name in names if r % 2 == 0 else names[::-1]:
                untraced[name].append(rep(name, trace=False))
        if args.trace:
            for name in names:
                traced[name] = rep(name, trace=True)
    finally:
        shutil.rmtree(suite_dir, ignore_errors=True)

    sha = git_sha()
    payload = bench_payload(args, names, untraced, traced, sha)
    out = Path(args.out) if args.out else unique_path(
        HERE / "results" / f"BENCH_{payload['date']}.json"
    )
    atomic_write_json(out, payload, indent=1)
    if args.trace:
        trace_out = out.with_name(out.name.replace("BENCH", "TRACE", 1))
        if trace_out == out:
            trace_out = out.with_suffix(".trace.json")
        spans = {name: run["children"] for name, run in traced.items()}
        atomic_write_json(trace_out, trace_payload(spans, sha), indent=None)
    failed = 0
    for name, row in payload["workloads"].items():
        failed += row["failed"]
        for reason in row["failures"]:
            print(f"{name}: failed op: {reason}", file=sys.stderr)
        for metric, m in row["e2e"].items():
            print(f"{name} {metric} {m['median']:.6g} {m['unit']} "
                  f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']} reps, {row['ops']} ops)")
        for metric, m in row["per_layer"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"written to {out}")
    return 0 if failed == 0 else 1


def bench_payload(args, names, untraced, traced, sha) -> dict:
    now = datetime.datetime.now(datetime.timezone.utc)
    rows = {}
    for name in names:
        runs = untraced[name] + ([traced[name]] if traced[name] else [])
        attempted = failed = 0
        reasons: list[str] = []
        for run in runs:
            a, f, why = summary.check_ops(run["children"], pinned(name, args.seed), run["reference"])
            attempted, failed, reasons = attempted + a, failed + f, reasons + why
        per_rep = [summary.e2e_values(run["children"]) for run in untraced[name]]
        e2e = {}
        for metric, (unit, better, bound) in summary.E2E.items():
            q1, median, q3 = summary.quartiles([values[metric] for values in per_rep])
            e2e[metric] = {
                "median": median, "q1": q1, "q3": q3, "n": len(per_rep),
                "unit": unit, "better": better, "bound": bound,
            }
        layers = summary.layer_summary(traced[name]["children"]) if traced[name] else {}
        rows[name] = {
            "git": sha,
            "host": {"cpu_count": os.cpu_count()},
            "ops": sum(len(c["ops"]) for run in untraced[name] for c in run["children"]),
            "attempted": attempted,
            "failed": failed,
            "failures": reasons,
            "digests": summary.reference_digests([c for run in runs for c in run["children"]]),
            "e2e": e2e,
            "per_layer": {
                metric: {"value": value, "unit": summary.LAYERS[metric][0]}
                for metric, value in layers.items()
            },
        }
    return {
        "schema": "pilfill-bench/v2",
        "date": now.date().isoformat(),
        "timestamp": now.isoformat(timespec="seconds"),
        "git": sha,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "reps": args.reps,
        "seconds_per_run": args.seconds,
        "workloads": rows,
    }


def trace_payload(children_by_workload: dict[str, list[dict]], sha: str | None) -> dict:
    """Every traced op's spans, per workload. The per-tile solve seconds
    are left out: the BENCH file keeps their percentiles."""

    def slim(span: dict) -> dict:
        attrs = {k: v for k, v in span["attrs"].items() if k != "tile_s"}
        return {**span, "attrs": attrs}

    return {
        "schema": "pilfill-trace/v2",
        "git": sha,
        "workloads": {
            name: [
                [slim(span) for span in op["spans"]]
                for child in children for op in child["ops"] if "spans" in op
            ]
            for name, children in children_by_workload.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    run_seconds = summary.SPEC["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help=f"op time per run (default {run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="per-layer metrics from traced ops (default 0 for one workload, 1 for the suite)")
    parser.add_argument("--reps", type=int, default=8, help="untraced runs per workload (suite)")
    parser.add_argument("--out", help="suite result path (default perfbench/results/BENCH_<date>.json)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two suite results")
    args = parser.parse_args(argv)
    try:
        if args.diff:
            a, b = (json.loads(Path(p).read_text()) for p in args.diff)
            print("\n".join(summary.diff_lines(a, b)))
            return 0
        use_one_cpu()
        if args.workload:
            args.trace = args.trace or 0
            return run_workload(args)
        args.trace = 1 if args.trace is None else args.trace
        return run_suite(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
