"""One workload in one fresh process; prints a single JSON line for ``run.py``.

Usage (started by ``run.py``):
    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at T --work-dir DIR [--setup-only]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``setup_s`` covers interpreter start, imports and building the
inputs.  Operations run in whole cycles over the workload's inputs.  Untraced
runs time cycles for ``--seconds``, at least three so that every input has a
median of three; traced runs time half the window untraced, then half with
every traced function wrapped, and report layer numbers per operation,
averaged over a cycle, from the traced half.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
DEFAULT_SEED = EXPECTED["seed"]

# Times are reported scaled to reference speed: raw * REFERENCE_S / (the
# reference_s() time measured right next to them).  On the 2-vCPU Xeon VM the
# benchmark was defined on, reference_s() takes 6 to 11 ms as its neighbours
# come and go; REFERENCE_S only fixes the scale.
REFERENCE_S = 0.009
_REFERENCE_VECTORS = [np.random.default_rng(12345).random(4) for _ in range(32)]

SETUP_OP = -2  # operation id of the spans recorded while building the inputs

# Derived counts that, like every ``.calls``, must repeat exactly.
DERIVED_COUNTS = ("groundtruth.vi_iterations", "estimators.rollout.steps",
                  "estimators.zero_visit_frac")


class Runner:
    """Runs, times and checks operations of one workload; collects failures."""

    def __init__(self, inputs: list, seed: int):
        self.inputs = inputs
        self.recorded = EXPECTED["sha256"][inputs[0].name] if seed == DEFAULT_SEED else None
        self.digests: list[str | None] = [None] * len(inputs)
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.nondeterministic: list[str] = []

    def op(self, k: int, hook=None, tag: int = -1) -> float:
        """Run one operation on input ``k``; returns its wall time and records any failure.

        While a tracer is attached, spans of the operation carry ``tag``; the
        output checks run after it and are not part of it.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = tag
        error = None
        start = time.perf_counter()
        try:
            out = self.inputs[k].run(hook)
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op_id = -1
        if error is not None:
            found = [f"raised {error!r}"]
        else:
            try:
                found = self.check(k, out)
            except Exception as exc:  # e.g. an output file the operation did not write
                found = [f"output check raised {exc!r}"]
        if found:
            self.failed += 1
            self.problems += [f"op {self.attempted} (input {k}): {p}" for p in found]
        return elapsed

    def check(self, k: int, out) -> list[str]:
        problems = list(self.inputs[k].check(out))
        digest = workloads.sha256(self.inputs[k].output_bytes(out))
        self.digests[k] = self.digests[k] or digest
        if digest != self.digests[k]:
            problems.append(f"output sha256 {digest[:12]} differs from this input's first")
        if self.recorded is not None:
            recorded = self.recorded[k] if k < len(self.recorded) else "none"
            if digest != recorded:
                problems.append(f"output sha256 {digest[:12]} differs from the recorded "
                                f"{recorded[:12]} for seed {DEFAULT_SEED}")
        return problems

    def window(self, seconds: float, min_cycles: int,
               hook_factory=None) -> tuple[list[float], list[float]]:
        """Whole cycles over the inputs until ``seconds`` have passed.

        Returns the per-op wall times scaled to reference speed, by the mean of
        the reference_s() readings just before and just after each, and raw.
        """
        n = len(self.inputs)
        times: list[float] = []
        refs = [reference_s()]
        start = time.perf_counter()
        while (len(times) < min_cycles * n or len(times) % n
               or time.perf_counter() - start < seconds):
            hook = hook_factory(len(times)) if hook_factory else None
            times.append(self.op(len(times) % n, hook, tag=len(times)))
            refs.append(reference_s())
        scaled = [t * 2.0 * REFERENCE_S / (before + after)
                  for t, before, after in zip(times, refs, refs[1:])]
        return scaled, times


def reference_s() -> float:
    """Wall time of a fixed kernel of small numpy calls and Python arithmetic.

    It shares no code with zsmg but does the same kind of work, so it slows
    down with the machine (another tenant on the host), not with the program.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(28):
        for v in _REFERENCE_VECTORS:
            u = np.sort(v)[::-1]
            acc += float(np.maximum(v - np.cumsum(u)[1], 0.0).sum())
            acc += sum(i * 0.5 for i in range(8))
    return time.perf_counter() - start


def typical_wall(walls: list[float], n_inputs: int) -> float:
    """Mean over inputs of each input's median wall time.

    The median shrugs off slow spells of a shared machine; the mean weights
    every input alike, so games that happen to pivot more do not decide it.
    """
    return statistics.fmean(statistics.median(walls[k::n_inputs]) for k in range(n_inputs))


def zero_visits(traj) -> tuple[int, int]:
    """(zero-visit entries, all entries) of the S*(A+B) estimate table of one rollout."""
    s = traj.states[:-1]
    n_s, n_a, n_b = traj.n_states, traj.n_actions_p1, traj.n_actions_p2
    visits_a = np.bincount(s * n_a + traj.actions_p1, minlength=n_s * n_a)
    visits_b = np.bincount(s * n_b + traj.actions_p2, minlength=n_s * n_b)
    return int((visits_a == 0).sum() + (visits_b == 0).sum()), n_s * (n_a + n_b)


def traced_window(runner: Runner, tracer: Tracer, seconds: float) -> tuple[list[float], dict]:
    """Time the traced half-window and reduce its spans to layer metrics.

    Each metric is taken per cycle, as a mean per operation over the cycle's
    inputs, and reported as the median over cycles.  Counts must be equal in
    every cycle; a difference is reported as nondeterminism.
    """
    steps: dict[int, int] = defaultdict(int)
    trajectories: dict[int, list] = defaultdict(list)
    hook_times: dict[int, list[float]] = defaultdict(list)

    def observe_rollout(args, kwargs):
        steps[tracer.op_id] += kwargs["n_steps"] if "n_steps" in kwargs else args[3]

    def observe_estimates(args, kwargs):
        trajectories[tracer.op_id].append(kwargs["traj"] if "traj" in kwargs else args[0])

    def hook_factory(op_index):
        stamps = hook_times[op_index]
        return lambda t, state: stamps.append(time.perf_counter())

    tracer.install(workloads.TRACED, {"estimators.rollout": observe_rollout,
                                      "estimators.sampled_estimates": observe_estimates})
    runner.tracer = tracer
    try:
        times, _ = runner.window(seconds, 2, hook_factory)
    finally:
        runner.tracer = None
        tracer.uninstall()

    n = len(runner.inputs)
    stats = tracer.per_op()
    vi_sweeps = tracer.count_children("groundtruth.shapley_solve", "games.q_from_v")
    iterations = runner.inputs[0].iterations
    cycles = []
    for first in range(0, len(times), n):
        ops = range(first, first + n)
        total = defaultdict(float)
        for op in ops:
            for name, (calls, self_s, total_s) in stats.get(op, {}).items():
                total[f"{name}.calls"] += calls
                total[f"{name}.self_s"] += self_s
                total[f"{name}.total_s"] += total_s
        row = {}
        for name in workloads.TRACED:
            calls = total[f"{name}.calls"]
            row[f"{name}.calls"] = calls / n
            row[f"{name}.self_s"] = total[f"{name}.self_s"] / n
            row[f"{name}.us_per_call"] = total[f"{name}.total_s"] / calls * 1e6 if calls else 0.0
        solves = total["groundtruth.shapley_solve.calls"]
        row["groundtruth.vi_iterations"] = (sum(vi_sweeps.get(op, 0) for op in ops) - solves) / n
        n_steps = sum(steps.get(op, 0) for op in ops)
        row["estimators.rollout.steps"] = n_steps / n
        row["estimators.rollout.us_per_step"] = (
            total["estimators.rollout.total_s"] / n_steps * 1e6 if n_steps else 0.0)
        visits = [zero_visits(traj) for op in ops for traj in trajectories.get(op, [])]
        zeros, entries = np.sum(visits, axis=0) if visits else (0, 0)
        row["estimators.zero_visit_frac"] = float(zeros / entries) if entries else 0.0
        row["learner.loop_self_us_per_iter"] = (
            row["learner.run_selfplay.self_s"] / iterations * 1e6 if iterations else 0.0)
        cycles.append(row)

    layer = {key: statistics.median(row[key] for row in cycles) for key in cycles[0]}
    for key in [k for k in layer if k.endswith(".calls")] + list(DERIVED_COUNTS):
        values = {row[key] for row in cycles}
        if len(values) > 1:
            runner.nondeterministic.append(f"{key} differs between cycles: {sorted(values)}")
    gaps = [b - a for stamps in hook_times.values() for a, b in zip(stamps, stamps[1:])]
    p50, p99 = np.percentile(gaps, [50, 99]) * 1e6 if gaps else (0.0, 0.0)
    layer["learner.iter_us_p50"] = float(p50)
    layer["learner.iter_us_p99"] = float(p99)
    setup = stats.get(SETUP_OP, {})
    layer["gamegen.setup_s"] = sum(
        (entry[1] for name, entry in setup.items() if name.startswith("gamegen.")), 0.0)
    return times, layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace:
        tracer.op_id = SETUP_OP
        tracer.install(workloads.TRACED)
    try:
        make = workloads.WORKLOADS[args.workload]
        inputs = [make(args.seed, k, args.work_dir) for k in range(make.inputs)]
    finally:
        tracer.op_id = -1
        tracer.uninstall()
    setup_raw = time.perf_counter() - args.spawned_at
    reference = statistics.median(reference_s() for _ in range(3))
    out: dict = {"setup_raw_s": setup_raw, "setup_s": setup_raw * REFERENCE_S / reference}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    args.work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(inputs, args.seed)
    runner.op(0)  # warm-up: lazy imports and first-call costs stay out of the timings
    n = len(inputs)
    if args.trace:
        times, raw = runner.window(args.seconds / 2, 1)
        traced, layer = traced_window(runner, tracer, args.seconds / 2)
        layer["trace_overhead_frac"] = typical_wall(traced, n) / typical_wall(times, n) - 1
        out["layer"] = layer
        tracer.write(ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    else:
        times, raw = runner.window(args.seconds, 3)
    out.update(
        ops=len(times),
        op_s=typical_wall(times, n) / make.units_per_op,
        op_raw_s=typical_wall(raw, n) / make.units_per_op,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        nondeterministic=runner.nondeterministic,
        output_sha256=runner.digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__},
        iterations=make.iterations,
        units_per_op=make.units_per_op,
        unit=make.unit,
        inputs=len(inputs),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
