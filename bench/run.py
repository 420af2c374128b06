"""uwb-locsim benchmark.

    python3 bench/run.py --workload preset-sweep --seed 1 --seconds 20 --trace 0

Runs one workload as a single-client closed loop in a child process
and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the loop is repeated with every layer boundary
wrapped and the metrics are the per-layer ones (see bench/README.md).
Lines before the JSON name each metric the workload reports, with its
unit. Problems found by the output checks go to stderr.

The loop of a run is split across LOOP_CHILDREN processes, each
starting at another input, because the speed of one process differs
from the next by a few percent (memory layout, hash seeds); their
operations are pooled. Set-up time is the median over those processes
and one more that only sets up, each timed from its start until the
workload is ready to call.

The gated times are rescaled to the calibration kernel's reference
speed (bench/calibration.py), so that a shared host's changes of speed
from run to run do not show as changes of the program; the wall-clock
figures are printed beside them. Each child runs BLAS single-threaded:
the solver's own pool is the only threading measured.

``--smoke`` shrinks every input so the whole benchmark runs in seconds;
``--wrong-reference`` perturbs one recorded reference value, which the
checks must then report as a failure. Both exist for bench/selftest.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("preset-sweep", "scaled-diversity", "point-solve", "fit-select")
LOOP_CHILDREN = 4  # a run's loop is split across this many processes
SMOKE_LOOP_CHILDREN = 2
CHILD_TIMEOUT_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (p99 once
    there are enough samples), and that percentile. Below 21 samples
    that percentile would not lie above the median, so it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - max(10, n // 100) if n >= 21 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def spawn(args, mode: str, workdir: Path, tag: str, deadline: float, seconds=None, extra=()) -> dict:
    result = workdir / f"{tag}.json"
    seconds = args.seconds if seconds is None else seconds
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--mode", mode, "--workdir", str(workdir), "--result", str(result), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    if mode == "trace":
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    cmd += ["--spawn-t", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env={**os.environ, **CHILD_ENV},
                          timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    with open(result, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * calibration.REFERENCE_S / kernel_s


def norm_throughput(child: dict) -> float:
    """Distinct inputs over the sum, across them, of each input's median
    operation time at reference speed."""
    by_input = defaultdict(list)
    for k, t, scale in zip(child["op_inputs"], child["op_times"], child["op_scales"], strict=True):
        by_input[k].append(t * scale)
    return len(by_input) / sum(statistics.median(v) for v in by_input.values())


def pooled(runs: list[dict]) -> dict:
    """The loop children of one run as if they were one."""
    child = {key: [x for r in runs for x in r[key]]
             for key in ("op_times", "op_inputs", "op_scales", "kernel_s", "problems")}
    child["attempted"] = sum(r["attempted"] for r in runs)
    child["failed"] = sum(r["failed"] for r in runs)
    child["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    return child


def end_to_end(args, workdir: Path, deadline: float):
    parts = SMOKE_LOOP_CHILDREN if args.smoke else LOOP_CHILDREN
    children = [spawn(args, "setup", workdir, "setup", deadline)]
    runs = [
        spawn(args, "run", workdir, f"run{part}", deadline, args.seconds / parts, [
            "--part", str(part), "--parts", str(parts), *(["--checks"] if part == parts - 1 else []),
        ])
        for part in range(parts)
    ]
    children += runs
    child = pooled(runs)
    setup_s = statistics.median(reference_speed(c["setup_s"], c["setup_kernel_s"]) for c in children)
    setup_wall_s = statistics.median(c["setup_s"] for c in children)

    times = child["op_times"]
    n = len(times)
    throughput = norm_throughput(child)
    wall_throughput = n / sum(times)
    p50 = statistics.median(times)
    tail_value, tail_pct = tail(times)
    kernel_s = statistics.median(child["kernel_s"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_throughput_ops_per_s": (throughput, "1/s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }

    # Wall-clock figures under the names users know them by; reported,
    # not gated (see README).
    named = [
        ("setup_s", setup_s, "s", f"median of {len(children)} set-ups at reference speed"),
        ("setup_wall_s", setup_wall_s, "s", f"median of {len(children)} set-ups"),
    ]
    if args.workload in ("preset-sweep", "scaled-diversity"):
        named.append(("study_s", p50, "s", f"median of {n} studies"))
        named.append(("study_tail_s", tail_value, "s", f"p{tail_pct:.1f} of {n} studies"))
    elif args.workload == "point-solve":
        named.append(("solve_p50_us", p50 * 1e6, "us", f"median of {n} calls"))
        named.append(("solve_p99_us", tail_value * 1e6, "us", f"p{tail_pct:.1f} of {n} calls"))
    else:
        named.append(("fit_s", p50, "s", f"median of {n} fits"))
        named.append(("fit_tail_s", tail_value, "s", f"p{tail_pct:.1f} of {n} fits"))
    named.append(("norm_throughput_ops_per_s", throughput, "1/s",
                  f"{n} operations at reference speed, median per input"))
    named.append(("wall_throughput_ops_per_s", wall_throughput, "1/s", f"{n} operations"))
    named.append(("kernel_ms", kernel_s * 1e3, "ms",
                  f"median of {len(child['kernel_s'])} calibration passes, reference "
                  f"{calibration.REFERENCE_S * 1e3:g} ms"))
    named.append(("peak_rss_mb", child["peak_rss_mb"], "MB", f"largest ru_maxrss of {parts} loop processes"))
    named.append(("failed_frac", child["failed"] / child["attempted"], "ratio",
                  f"{child['failed']} of {child['attempted']} operations"))
    for name, value, unit, note in named:
        print(f"{args.workload:16s} {name:26s} {value:14.6g} {unit:5s} {note}")
    return child, metrics


def per_layer(args, workdir: Path, deadline: float):
    child = spawn(args, "trace", workdir, "trace", deadline)
    metrics = {name: (value, unit) for name, (value, unit) in child["per_layer"].items()}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:28s} {value:14.6g} {unit}")
    return child, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uwb_locsim" / "__init__.py").is_file():
        print(f"error: no uwb_locsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            child, metrics = per_layer(args, workdir, deadline)
        else:
            child, metrics = end_to_end(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    for problem in child["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
