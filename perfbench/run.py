#!/usr/bin/env python3
"""zsmg benchmark: run one workload, or all of them, and print every metric.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload selfplay-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Each run starts fresh child processes (``child.py``) so that set-up time and
peak memory belong to the workload: with ``--trace 0`` three set-up-only
children plus one measuring child, with ``--trace 1`` one child that times
half its window untraced and half traced.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  The lines before it give the
same numbers with units and sample counts, the provenance of the run, and any
failed output check.  ``--workload all`` also makes two traced runs of each
workload and reports any count that differs between them as nondeterminism.

Exits non-zero without a result when the checkout has no ``src/zsmg`` or a
child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4      # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0     # every child of one run must end within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Counts that two traced runs of one seed must reproduce exactly.
SELF_CHECK_COUNTS = ("groundtruth.vi_iterations", "groundtruth.solve_matrix_game.calls",
                     "estimators.rollout.steps", "metrics.make_metrics_row.calls",
                     "estimators.zero_visit_frac")


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def git_commit() -> str:
    """Commit of the checkout read from ``.git`` without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn(workload: str, seed: int, seconds: float, trace: int, work_dir: Path,
          deadline: float, setup_only: bool = False) -> dict:
    """Run child.py to completion and return the JSON object it printed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before starting a child")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One benchmark run: children, metrics, report lines and the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    work_dir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        setups = [] if trace else [
            spawn(workload, seed, seconds, trace, work_dir, deadline, setup_only=True)
            for _ in range(SETUP_SAMPLES - 1)]
        child = spawn(workload, seed, seconds, trace, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(child)
    n_inputs = child["inputs"]

    lines = [f"{workload} seed={seed} trace={trace}"]
    if trace:
        values = child["layer"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [n for n in values if n.endswith(".self_s")]
        total = sum(values[n] for n in traced) or 1.0
        top = max(traced, key=values.get)
        lines.append(f"  largest self time: {top[:-7]} "
                     f"({values[top] / total:.0%} of traced self time)")
    else:
        iterations = child["iterations"]
        setup_s = statistics.median(c["setup_s"] for c in setups)
        setup_raw = statistics.median(c["setup_raw_s"] for c in setups)
        op_s = child["op_s"]
        values = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": child["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        lines += [
            f"  setup_s      {setup_s:.4f} s      median of {len(setups)} set-ups "
            f"(raw {setup_raw:.4f} s)",
            f"  op_s         {op_s:.4f} s      mean over {n_inputs} inputs of the median of "
            f"{child['ops'] // n_inputs} operations, one {child['unit']} each "
            f"(raw {child['op_raw_s']:.4f} s)",
            f"  peak_rss_mb  {child['peak_rss_mb']:.1f} MB     measuring process",
        ]
        if iterations:
            lines.append(f"  iters_per_s  {iterations / (op_s * child['units_per_op']):.1f} 1/s"
                         f"    learner iterations per second of op_s")
        if workload == "experiment-wide":
            lines.append(f"  rep_s        {op_s:.4f} s      run_experiment wall / repetitions, "
                         "as op_s")
        if workload == "solve-large":
            lines.append(f"  solve_s      {op_s:.4f} s      one shapley_solve, as op_s")
    lines.append(f"  fail_frac    {child['failed'] / child['attempted']:.4g} ratio"
                 f"  {child['failed']} of {child['attempted']} operations failed a check or raised")
    if trace:
        lines += [f"  {name:<44} {values[name]:.6g} {units[name]}" for name in units]
    lines += [f"  FAILED {p}" for p in child["problems"]]
    lines += [f"  NONDETERMINISTIC {p}" for p in child["nondeterministic"]]
    lines.append("provenance " + json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **child["versions"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "output_sha256": child["output_sha256"],
    }, sort_keys=True))

    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    result = {
        "correct": child["failed"] == 0 and not child["nondeterministic"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {"lines": lines, "result": result}


def run_all(seed: int, seconds: float, spec: dict) -> dict:
    """Every workload untraced once and traced twice; compares the traced counts."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_workload(workload, seed, seconds, trace, spec) for trace in (0, 1, 1)]
        for run in runs:
            print("\n".join(run["lines"]), flush=True)
            res = run["result"]
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        first, second = (runs[i]["result"]["metrics"] for i in (1, 2))
        for name in SELF_CHECK_COUNTS:
            if first[name]["value"] != second[name]["value"]:
                summary["correct"] = False
                print(f"  NONDETERMINISTIC {workload}: {name} is {first[name]['value']} "
                      f"then {second[name]['value']} in two traced runs of seed {seed}")
        for run in runs[:2]:
            for name, metric in run["result"]["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "zsmg" / "__init__.py").is_file():
        print(f"error: no zsmg sources at {ROOT / 'src' / 'zsmg'}; "
              "run from the root of a zsmg checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, spec)
        else:
            run = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
            print("\n".join(run["lines"]))
            result = run["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
