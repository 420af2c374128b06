"""Command-line interface.

Subcommands: fit, sample, solve, simulate, range-stats, energy.
Each ``_cmd_*`` handler returns its result as text, which ``main`` writes
to stdout (or --out); diagnostics go to stderr. Exit codes: 0 success,
1 usage error, 2 data or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
import time

import numpy as np

from . import distributions
from .energy import BUILTIN_PROFILES, average_power, energy_per_sstwr
from .errors import ConvergenceError, DataError, ParameterError, SingularGeometryError
from .fitting import select_best_model
from .outputs import json_text, new_file, write_outputs
from .randomness import RandomStream
from .scenarios import (
    PRESETS, load_scenario, number, parse_json, preset_scenario, read_json, read_model, read_profile,
    read_text, solve_input_from_dict,
)
from .simulator import aggregate, run_scenario
from .solver import solve


_HEAP_WARM_UP = 8 << 20  # bytes; glibc raises its thresholds to at most 32 MiB


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _read_table(path: str, names: list[str] | None) -> tuple[list[str], list[tuple[int, dict]]]:
    """Column names and ``(line number, {column: text})`` rows of a CSV file.
    The header is the first non-blank line unless ``names`` are given; blank
    lines are skipped, and line numbers count every physical line."""
    lines = [(i, line.split(",")) for i, line in enumerate(read_text(path).split("\n"), 1) if line.strip()]
    if not lines:
        raise DataError(f"{path}: file is empty")
    if names is None:
        names = [name.strip() for name in lines.pop(0)[1]]
    return names, [(i, {k: cell.strip() for k, cell in zip(names, cells)}) for i, cells in lines]


def _cell_number(path: str, line_no: int, row: dict, column: str) -> float:
    """A table cell as a finite float; DataError naming ``file:line`` and the column."""
    if column not in row:
        raise DataError(f"{path}:{line_no}: column {column!r} is missing")
    return number(row[column], f"{path}:{line_no}: column {column!r}")


# ---------------------------------------------------------------- energy

def _cmd_energy(args) -> str:
    if args.sleep and args.period is None:
        raise _UsageError("uwb-locsim energy: --sleep needs --period")
    if args.profile in BUILTIN_PROFILES:
        profile = BUILTIN_PROFILES[args.profile]
    else:
        profile = read_profile(read_json(args.profile))
    payload = {
        "profile": profile.name,
        "t_packet_us": profile.t_packet,
        "energy_per_ranging_uJ": energy_per_sstwr(profile),
    }
    if args.period is not None:
        payload["update_period_s"] = args.period
        payload["rest_state"] = "sleep" if args.sleep else "idle"
        payload["average_power_mW"] = average_power(profile, args.period, args.sleep)
    return json_text(payload)


# ------------------------------------------------------------------- fit

def _cmd_fit(args) -> str:
    names, rows = _read_table(args.input, ["column 1"] if args.no_header else None)
    data = [_cell_number(args.input, line_no, row, names[0]) for line_no, row in rows]
    families = [name.strip() for name in args.families.split(",") if name.strip()]
    ranking = select_best_model(data, families, bins=args.bins)
    payload = {
        "input": args.input,
        "n_samples": len(data),
        "bins": args.bins,
        "ranking": [
            {
                "family": fit.family,
                "params": distributions.to_dict(fit.params)["params"],
                "nll": fit.nll,
                "sse": fit.sse,
                "converged": fit.converged,
                "evaluations": fit.iterations,
                **({"error": fit.error} if fit.error else {}),
            }
            for fit in ranking
        ],
    }
    return json_text(payload)


# ---------------------------------------------------------------- sample

def _cmd_sample(args) -> str:
    inline = args.model.lstrip().startswith("{")
    spec = parse_json(args.model, "--model") if inline else read_json(args.model)
    dist = read_model(spec, "model")
    with np.errstate(over="ignore"):  # counted below
        draws = dist.sample(RandomStream(args.seed), args.count)
    overflows = np.count_nonzero(np.isinf(draws))
    if overflows:
        raise DataError(f"model: {overflows} of {args.count} draws overflow the float range")
    lines = ["error_m"] + [str(float(v)) for v in draws]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- solve

def _cmd_solve(args) -> str:
    anchors, distances, config = solve_input_from_dict(read_json(args.input))
    estimate = solve(config, anchors, distances)
    payload = {
        "x": estimate.position.x,
        "y": estimate.position.y,
        "z": estimate.position.z,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "final_step_norm_m": estimate.final_step_norm,
    }
    return json_text(payload)


# -------------------------------------------------------------- simulate

@contextlib.contextmanager
def _stage_timer(stage: str):
    """Print a stage's wall time to stderr (``simulate --timings``)."""
    start = time.perf_counter()
    yield
    print(f"timing: {stage} {time.perf_counter() - start:.6f} s", file=sys.stderr)


def _cmd_simulate(args) -> str:
    timed = _stage_timer if args.timings else contextlib.nullcontext
    with timed("scenario build"):
        scenario = preset_scenario(args.preset) if args.preset else load_scenario(args.config)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    with timed("run_scenario"):
        stats = run_scenario(scenario)
    report = write_outputs(stats, scenario, args.outdir, timed)
    print(f"wrote points.csv, ecdf.csv, report.json to {args.outdir}", file=sys.stderr)
    if args.timings:
        import resource  # POSIX only, so imported on request

        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"timing: peak RSS {usage.ru_maxrss / 1024.0:.1f} MB", file=sys.stderr)  # KiB on Linux
        print(f"timing: minor page faults {usage.ru_minflt}", file=sys.stderr)
    return report


# ----------------------------------------------------------- range-stats

def _cmd_range_stats(args) -> str:
    names, rows = _read_table(
        args.input, ["true_m", "measured_m", "channel", "condition"] if args.no_header else None
    )
    if not {"true_m", "measured_m"} <= set(names):
        raise DataError(f"{args.input}: header must contain 'true_m' and 'measured_m', got {names}")
    groups: dict[tuple, list[float]] = {}
    for line_no, row in rows:
        true = _cell_number(args.input, line_no, row, "true_m")
        error = _cell_number(args.input, line_no, row, "measured_m") - true
        if not np.isfinite(error):
            raise DataError(f"{args.input}:{line_no}: measured_m - true_m overflows the float range")
        groups.setdefault((row.get("condition"), row.get("channel")), []).append(error)

    payload = {"input": args.input, "groups": []}
    by_label = sorted(groups.items(), key=lambda kv: tuple(map(str, kv[0])))
    for (condition, channel), errors in by_label:
        agg = aggregate(errors)
        labels = {"condition": condition, "channel": channel}
        payload["groups"].append({
            "count": agg.count, "mean_m": agg.mean, "std_m": agg.std, "iqr_m": agg.iqr,
            "median_m": agg.median, **{key: v for key, v in labels.items() if v is not None},
        })
    return json_text(payload)


# ---------------------------------------------------------------- parser

@functools.cache  # built once per process: building costs about 15 parses
def build_parser() -> _Parser:
    parser = _Parser(
        prog="uwb-locsim",
        description="UWB ranging and localization simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit error models to a CSV of ranging errors")
    p_fit.add_argument("--input", required=True, help="one-column CSV ('-' for stdin) of errors in meters")
    p_fit.add_argument("--families", default="gaussian,burr12,lognormal",
                       help="comma-separated families to fit (gaussian, burr12, lognormal)")
    p_fit.add_argument("--bins", type=int, default=200,
                       help="histogram bin count for the SSE score (dimensionless)")
    p_fit.add_argument("--no-header", action="store_true",
                       help="input CSV has no header row")
    p_fit.add_argument("--out", help="write the JSON report here instead of stdout")
    p_fit.set_defaults(handler=_cmd_fit)

    p_sample = sub.add_parser("sample", help="draw samples from an error model")
    p_sample.add_argument("--model", required=True,
                          help='distribution spec: inline JSON or a file path, e.g. '
                               '\'{"family": "gaussian", "params": {"mu": 0.0, "sigma": 0.071}}\' '
                               '(parameters in meters)')
    p_sample.add_argument("--count", "-n", type=int, default=1,
                          help="number of samples (dimensionless)")
    p_sample.add_argument("--seed", type=int, default=0, help="stream seed (64-bit integer)")
    p_sample.add_argument("--out", help="write the CSV here instead of stdout")
    p_sample.set_defaults(handler=_cmd_sample)

    p_solve = sub.add_parser("solve", help="multilaterate one position from anchor distances")
    p_solve.add_argument("--input", required=True,
                         help="JSON file ('-' for stdin) with anchors (meters), distances "
                              "(meters), and optional config {delta m, k_max, c 1/m, "
                              "x_r_mode, weights m, x_r m, x0 m}")
    p_solve.add_argument("--out", help="write the JSON estimate here instead of stdout")
    p_solve.set_defaults(handler=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo deployment study")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="scenario config JSON (lengths in meters)")
    source.add_argument("--preset", choices=PRESETS,
                        help="built-in 9x20 m four-anchor deployment")
    p_sim.add_argument("--out", dest="outdir", metavar="OUT", required=True,
                       help="output directory for result files")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed (64-bit integer)")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the solver runs serially and "
                            "results and speed do not depend on it")
    p_sim.add_argument("--timings", action="store_true",
                       help="print the wall time of each stage (seconds) and the peak "
                            "RSS (MB) to stderr; result files and stdout are unchanged")
    p_sim.set_defaults(handler=_cmd_simulate, out=None)  # --out is outdir: the report goes to stdout

    p_stats = sub.add_parser("range-stats",
                             help="error statistics per group from measurement CSVs")
    p_stats.add_argument("--input", required=True,
                         help="CSV ('-' for stdin) with columns true_m, measured_m (meters) "
                              "and optional channel, condition")
    p_stats.add_argument("--no-header", action="store_true",
                         help="input CSV has no header; column order is "
                              "true_m, measured_m[, channel[, condition]]")
    p_stats.add_argument("--out", help="write the JSON report here instead of stdout")
    p_stats.set_defaults(handler=_cmd_range_stats)

    p_energy = sub.add_parser("energy", help="energy per ranging and average power")
    p_energy.add_argument("--profile", required=True,
                          help="built-in profile name (3db, dw1000, dwm1001) or a JSON "
                               "profile file ('-' for stdin; powers in mW, packet duration in us)")
    p_energy.add_argument("--period", type=float, default=None,
                          help="location update period in seconds (enables average power)")
    p_energy.add_argument("--sleep", action="store_true",
                          help="with --period, rest in deep sleep between rangings instead of idle")
    p_energy.add_argument("--out", help="write the JSON result here instead of stdout")
    p_energy.set_defaults(handler=_cmd_energy)

    return parser


@functools.cache  # once per process
def _warm_heap() -> None:
    """Allocate and free one 8 MiB block. glibc maps a block that large and,
    when it is freed, raises its mmap threshold to the block's size and its
    trim threshold to twice that, the state a long-running process reaches
    by itself. Arrays up to 8 MiB then come from the heap and reuse its free
    space, and the heap keeps up to 16 MiB free at its top instead of
    returning it each time the solver frees an iteration's temporaries,
    which the next iteration would fault in again. Fixing the thresholds
    with ``mallopt`` instead would stop glibc from adapting them, so any
    larger array would be mapped and faulted in afresh every time.
    Elsewhere the block is only allocated and freed."""
    np.empty(_HEAP_WARM_UP, np.uint8)


def main(argv=None) -> int:
    _warm_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.handler(args)
        if args.out:
            with open(new_file(args.out), "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except _UsageError as exc:  # from the parser, or a flag that needs another
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (ParameterError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a size such as runs or -n beyond what numpy can allocate or index
        print("error: the input asks for more memory than is available", file=sys.stderr)
        return 2
    except OSError as exc:  # the readers raise DataError, so this is a write: --out or stdout
        target = exc.filename or args.out or getattr(args, "outdir", None) or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularGeometryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
