"""Command-line interface.

Subcommands: fit, sample, solve, simulate, range-stats, energy.
Machine-readable results go to stdout (or --out); diagnostics go to
stderr. Exit codes: 0 success, 1 usage error, 2 data or config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import distributions
from .energy import BUILTIN_PROFILES, average_power, energy_per_sstwr, profile_from_dict
from .errors import ConvergenceError, DataError, ParameterError, SingularGeometryError
from .fitting import select_best_model
from .geometry import Anchor, Point3
from .outputs import write_outputs
from .randomness import RandomStream
from .scenarios import PRESETS, load_scenario, preset_scenario
from .simulator import aggregate, run_scenario
from .solver import solve, solver_config_from_dict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _write_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _read_json_input(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _read_csv_rows(path: str, has_header: bool) -> tuple[list[str] | None, list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [line.split(",") for line in lines if line]
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = None
    if has_header:
        header = [name.strip() for name in rows[0]]
        rows = rows[1:]
    return header, rows


def _parse_float(token: str, path: str, line_no: int, column: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DataError(
            f"{path}:{line_no}: column {column!r}: {token!r} is not a number"
        ) from exc


# ---------------------------------------------------------------- energy

def _cmd_energy(args) -> int:
    if args.profile in BUILTIN_PROFILES:
        profile = BUILTIN_PROFILES[args.profile]
    elif os.path.exists(args.profile):
        profile = profile_from_dict(_read_json_input(args.profile))
    else:
        raise DataError(
            f"unknown profile {args.profile!r}; built-ins: {', '.join(sorted(BUILTIN_PROFILES))}"
        )
    payload = {
        "profile": profile.name,
        "t_packet_us": profile.t_packet,
        "energy_per_ranging_uJ": energy_per_sstwr(profile),
    }
    if args.period is not None:
        payload["update_period_s"] = args.period
        payload["rest_state"] = "sleep" if args.sleep else "idle"
        payload["average_power_mW"] = average_power(profile, args.period, args.sleep)
    _emit(payload, args.out)
    return 0


# ------------------------------------------------------------------- fit

def _cmd_fit(args) -> int:
    header, rows = _read_csv_rows(args.input, has_header=not args.no_header)
    column = header[0] if header else "column 1"
    offset = 2 if header else 1
    data = [
        _parse_float(row[0], args.input, i + offset, column) for i, row in enumerate(rows)
    ]
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
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------- sample

def _cmd_sample(args) -> int:
    if args.model.lstrip().startswith("{"):
        try:
            spec = json.loads(args.model)
        except json.JSONDecodeError as exc:
            raise DataError(f"--model: invalid JSON at column {exc.colno}: {exc.msg}") from exc
    else:
        spec = _read_json_input(args.model)
    dist = distributions.from_dict(spec)
    draws = dist.sample(RandomStream(args.seed), args.count)
    lines = ["error_m"] + [str(float(v)) for v in np.atleast_1d(draws)]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- solve

def _point_from(spec: dict, context: str) -> Point3:
    try:
        return Point3(float(spec["x"]), float(spec["y"]), float(spec["z"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{context} needs numeric x, y, z fields") from exc


def _cmd_solve(args) -> int:
    payload = _read_json_input(args.input)
    try:
        anchor_specs = list(payload["anchors"])
        distances = [float(d) for d in payload["distances"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("solve input needs 'anchors' and numeric 'distances'") from exc
    anchors = []
    for i, spec in enumerate(anchor_specs):
        if not isinstance(spec, dict):
            raise DataError(f"anchors[{i}] must be a JSON object with numeric x, y, z")
        anchors.append(Anchor(id=str(spec.get("id", i)), position=_point_from(spec, f"anchors[{i}]")))
    config = solver_config_from_dict(payload.get("config", {}), "config")
    estimate = solve(config, anchors, distances)
    _emit(
        {
            "x": estimate.position.x,
            "y": estimate.position.y,
            "z": estimate.position.z,
            "iterations": estimate.iterations,
            "converged": estimate.converged,
            "final_step_norm_m": estimate.final_step_norm,
        },
        args.out,
    )
    return 0


# -------------------------------------------------------------- simulate

@contextlib.contextmanager
def _stage_timer(stage: str):
    """Print a stage's wall time to stderr (``simulate --timings``)."""
    start = time.perf_counter()
    yield
    print(f"timing: {stage} {time.perf_counter() - start:.3f} s", file=sys.stderr)


def _cmd_simulate(args) -> int:
    timed = _stage_timer if args.timings else contextlib.nullcontext
    with timed("scenario build"):
        scenario = preset_scenario(args.preset) if args.preset else load_scenario(args.config)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    with timed("run_scenario"):
        stats = run_scenario(scenario, threads=args.threads)
    report = write_outputs(stats, scenario, args.out, timed)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote points.csv, ecdf.csv, report.json to {args.out}", file=sys.stderr)
    if args.timings:
        import resource  # POSIX only, so imported on request

        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        print(f"timing: peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    return 0


# ----------------------------------------------------------- range-stats

def _cmd_range_stats(args) -> int:
    header, rows = _read_csv_rows(args.input, has_header=not args.no_header)
    if header:
        try:
            i_true = header.index("true_m")
            i_meas = header.index("measured_m")
        except ValueError as exc:
            raise DataError(
                f"{args.input}: header must contain 'true_m' and 'measured_m', got {header}"
            ) from exc
        i_cond = header.index("condition") if "condition" in header else None
        i_chan = header.index("channel") if "channel" in header else None
    else:
        i_true, i_meas = 0, 1
        width = len(rows[0])
        i_chan = 2 if width > 2 else None
        i_cond = 3 if width > 3 else None

    offset = 2 if header else 1
    groups: dict[tuple, list[float]] = {}
    for i, row in enumerate(rows):
        line_no = i + offset
        true = _parse_float(row[i_true], args.input, line_no, "true_m")
        measured = _parse_float(row[i_meas], args.input, line_no, "measured_m")
        key = (
            row[i_cond].strip() if i_cond is not None and i_cond < len(row) else None,
            row[i_chan].strip() if i_chan is not None and i_chan < len(row) else None,
        )
        groups.setdefault(key, []).append(measured - true)

    payload = {"input": args.input, "groups": []}
    for (condition, channel), errors in sorted(
        groups.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    ):
        agg = aggregate(errors)
        entry = {
            "count": agg.count,
            "mean_m": agg.mean,
            "std_m": agg.std,
            "iqr_m": agg.iqr,
            "median_m": agg.median,
        }
        if condition is not None:
            entry["condition"] = condition
        if channel is not None:
            entry["channel"] = channel
        payload["groups"].append(entry)
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(
        prog="uwb-locsim",
        description="UWB ranging and localization simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit error models to a CSV of ranging errors")
    p_fit.add_argument("--input", required=True, help="one-column CSV of errors in meters")
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
    p_sim.add_argument("--out", required=True, help="output directory for result files")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed (64-bit integer)")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the solver runs serially and "
                            "results and speed do not depend on it")
    p_sim.add_argument("--timings", action="store_true",
                       help="print the wall time of each stage (seconds) and the peak "
                            "RSS (MB) to stderr; result files and stdout are unchanged")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_stats = sub.add_parser("range-stats",
                             help="error statistics per group from measurement CSVs")
    p_stats.add_argument("--input", required=True,
                         help="CSV with columns true_m, measured_m (meters) and optional "
                              "channel, condition")
    p_stats.add_argument("--no-header", action="store_true",
                         help="input CSV has no header; column order is "
                              "true_m, measured_m[, channel[, condition]]")
    p_stats.add_argument("--out", help="write the JSON report here instead of stdout")
    p_stats.set_defaults(handler=_cmd_range_stats)

    p_energy = sub.add_parser("energy", help="energy per ranging and average power")
    p_energy.add_argument("--profile", required=True,
                          help="built-in profile name (3db, dw1000, dwm1001) or a JSON "
                               "profile file (powers in mW, packet duration in us)")
    p_energy.add_argument("--period", type=float, default=None,
                          help="location update period in seconds (enables average power)")
    p_energy.add_argument("--sleep", action="store_true",
                          help="rest in deep sleep between rangings instead of idle")
    p_energy.add_argument("--out", help="write the JSON result here instead of stdout")
    p_energy.set_defaults(handler=_cmd_energy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)

    try:
        return args.handler(args)
    except (ParameterError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularGeometryError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
