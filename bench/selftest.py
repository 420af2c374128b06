"""Tests of the benchmark itself, on tiny inputs (about a minute).

    python3 bench/selftest.py

Checks that every workload, traced and untraced, prints a last line
with exactly the keys and metrics BENCHMARK.json declares, each with
its declared unit and no failures; that a deliberately wrong reference
value is counted as a failure; and that the benchmark refuses to run,
without printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (what, sorted(result))
    assert result["correct"] is True and result["failed"] == 0, (what, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, (what, result)
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (what, sorted(set(got) ^ set(expected)))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (what, name, m)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            check_metrics(last_json(run(["--workload", workload, "--trace", trace, "--smoke"])), declared, what)
            print(f"ok  {what}")

    wrong = last_json(run(["--workload", "preset-sweep", "--smoke", "--wrong-reference"]))
    assert wrong["correct"] is False and wrong["failed"] >= 1, wrong
    print("ok  a wrong reference value counts as a failure")

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "preset-sweep"], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the program's sources it exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
