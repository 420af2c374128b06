"""One benchmark child process; started by run.py, not by hand.

Modes:
  setup  set up the workload, report the set-up time and exit;
  run    set up, warm up, run the untraced closed loop with a pass of
         the calibration kernel between blocks, check the outputs; a
         run's loop is split across ``--parts`` children, each starting
         at another input, and only the one given ``--checks`` runs the
         once-per-run checks;
  trace  as run, but every other cycle runs with each layer boundary
         wrapped, and report the per-layer metrics.

Set-up time is measured from the parent's clock reading just before it
started this process (``--spawn-t``, CLOCK_MONOTONIC, which all
processes share) to the moment the first operation could be called;
the calibration kernel is timed right after it.
The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
BLOCK_S = 0.25  # least time of operations between two calibration passes
WARMUP_S = 0.5  # untimed operations before the timed loop (at most one cycle)
SETUP_KERNEL_PASSES = 5


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import uwb_locsim

    src = (ROOT / "src").resolve()
    if src not in Path(uwb_locsim.__file__).resolve().parents:
        raise SystemExit(f"imported uwb_locsim from {uwb_locsim.__file__}, not from {src}")


def run_op(wl, k: int, times: list[float], problems: list[str], tracer=None) -> None:
    """One operation on the workload's k-th input: its wall time is
    appended to ``times``, a problem its check finds to ``problems``."""
    index = len(times)
    if tracer:
        tracer.op = index
    start = time.perf_counter()
    try:
        result = tracer.call("op", wl.op, k) if tracer else wl.op(k)
    except Exception as exc:  # a failed operation is counted, not fatal
        result, problem = None, f"raised {type(exc).__name__}: {exc}"
    else:
        problem = None
    times.append(time.perf_counter() - start)
    problem = problem or wl.check(k, result)
    if problem:
        problems.append(f"{wl.name} op {index} ({wl.label(k)}): {problem}")


def run_cycle(wl, times: list[float], problems: list[str], tracer=None):
    """One closed-loop pass over the workload's inputs; with a tracer,
    returns the counts it added."""
    before = dict(tracer.counts) if tracer else {}
    for k in range(wl.cycle):
        run_op(wl, k, times, problems, tracer)
    if tracer:
        return {key: value - before.get(key, 0.0) for key, value in tracer.counts.items()}
    return None


def timed_loop(wl, offset: int, least_ops: int, seconds: float, times: list[float], problems: list[str]):
    """Operations on the inputs in turn from ``offset`` on, round the cycle,
    for ``seconds`` and at least ``least_ops`` operations, after an untimed
    warm-up; returns the warm-up's operation count and the calibration."""
    warmup: list[float] = []
    started = time.perf_counter()
    for i in range(wl.cycle):
        if time.perf_counter() - started >= WARMUP_S:
            break
        run_op(wl, (offset + i) % wl.cycle, warmup, problems)
    calibrated = Calibrated()
    deadline = time.monotonic() + seconds
    while len(times) < least_ops or time.monotonic() < deadline:
        k = (offset + len(times)) % wl.cycle
        run_op(wl, k, times, problems)
        calibrated.after_op(k)
    calibrated.flush()
    return len(warmup), calibrated


class Calibrated:
    """Scale factors that bring each operation's time to the calibration
    kernel's reference speed. The kernel runs between blocks of at least
    BLOCK_S of operations; the operations of a block are scaled by
    ``REFERENCE_S`` over the mean of the kernel times just before and
    just after the block."""

    def __init__(self):
        self.inputs: list[int] = []
        self.scales: list[float] = []
        self.kernels: list[float] = []
        self._pending = 0
        self._before = calibration.kernel_s()
        self._block_start = time.perf_counter()

    def after_op(self, k: int) -> None:
        self.inputs.append(k)
        self._pending += 1
        if time.perf_counter() - self._block_start >= BLOCK_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = calibration.kernel_s()
        scale = calibration.REFERENCE_S / ((self._before + after) / 2.0)
        self.scales += [scale] * self._pending
        self.kernels.append(after)
        self._before, self._pending = after, 0
        self._block_start = time.perf_counter()


def count_mismatch(cycle_counts, names) -> str | None:
    """Where a count that must repeat exactly differs between cycles."""
    first = cycle_counts[0]
    for i, counts in enumerate(cycle_counts[1:], start=1):
        for name in names:
            if counts.get(name, 0.0) != first.get(name, 0.0):
                return f"{name} is {counts.get(name, 0.0)} in cycle {i}, {first.get(name, 0.0)} in cycle 0"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--part", type=int, default=0, help="this child's share of a run's loop")
    parser.add_argument("--parts", type=int, default=1, help="children a run's loop is split across")
    parser.add_argument("--checks", action="store_true", help="run the once-per-run checks")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir, args.smoke, args.wrong_reference)
    wl.setup()
    setup_s = time.monotonic() - args.spawn_t
    result = {"setup_s": setup_s, "setup_kernel_s": calibration.median_kernel_s(SETUP_KERNEL_PASSES)}
    if args.mode == "setup":
        return write(args.result, result)

    wl.prepare_checks()
    problems: list[str] = []
    times: list[float] = []
    if args.mode == "trace":
        deadline = time.monotonic() + args.seconds
        result["per_layer"], traced_times, extra = traced(wl, deadline, times, problems, args)
        other_ops = len(traced_times)
        extra += wl.final_checks()
    else:
        # Together the children run every input at least once.
        offset = args.part * wl.cycle // args.parts
        least_ops = -(-wl.cycle // args.parts)
        other_ops, calibrated = timed_loop(wl, offset, least_ops, args.seconds, times, problems)
        result["op_inputs"] = calibrated.inputs
        result["op_scales"] = calibrated.scales
        result["kernel_s"] = calibrated.kernels
        extra = []
        if args.checks:
            if wl.threaded:
                extra.append(("threads=1 vs threads=2", wl.single_thread_study()))
            extra += wl.final_checks()
    result["op_times"] = times

    for what, problem in extra:
        if problem:
            problems.append(f"{wl.name} check {what}: {problem}")
    result["attempted"] = len(times) + other_ops + len(extra)
    result["problems"] = problems
    result["failed"] = len(problems)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return write(args.result, result)


def traced(wl, deadline: float, times: list[float], problems: list[str], args):
    """Untraced and traced cycles in turn, so that both meet the same
    machine load, then the traced threads=1 study where the pool runs."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    traced_times: list[float] = []
    cycle_counts = []
    while len(cycle_counts) < 2 or time.monotonic() < deadline:
        run_cycle(wl, times, problems)
        layers.install(tracer)
        try:
            cycle_counts.append(run_cycle(wl, traced_times, problems, tracer))
        finally:
            tracer.restore()
    extra = [("exact counts", count_mismatch(cycle_counts, layers.EXACT_COUNTS))]
    speedup = 0.0
    if wl.threaded:
        single = Tracer()
        layers.install(single)
        single.op = 0
        try:
            problem = single.call("op", wl.single_thread_study)
        finally:
            single.restore()
        extra.append(("threads=1 vs threads=2 (traced)", problem))
        extra.append((
            "exact counts at threads=1",
            count_mismatch([cycle_counts[0], dict(single.counts)], layers.EXACT_COUNTS),
        ))
        speedup = layers.solver_wall(single.spans) / statistics.median(
            layers.solver_wall(spans) for spans in layers.by_op(tracer.spans).values()
        )

    overhead = statistics.mean(traced_times) / statistics.mean(times) - 1.0
    values = layers.per_layer(
        tracer, cycle_counts[0], wl.cycle, wl.study, wl.build_times, overhead, speedup, ROOT
    )
    metrics = {name: [values[name], unit] for name, unit in layers.METRICS.items()}
    if args.spans:
        tracer.dump(args.spans)
    return metrics, traced_times, extra


def write(path: str, payload: dict) -> int:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
