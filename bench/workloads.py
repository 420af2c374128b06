"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in ``setup()``,
then exposes one closed-loop operation ``op(k)`` for the k-th input of
a cycle and a ``check(k, result)`` that returns a problem message or
None. ``final_checks()`` runs once after the timed loops; each entry it
returns counts as one attempted operation.

Reference values recorded at the seed commit live in ``reference.json``
next to this file; ``record_reference.py`` regenerates them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

import uwb_locsim as ul
from uwb_locsim import cli, scenarios
from uwb_locsim.geometry import SEVERITY_TO_CONDITION, classify_links_bulk
from uwb_locsim.solver import anchor_positions, reference_point, solve_batch

REFERENCE_SEED = 42  # the presets' own seed; reference.json is recorded at it
REFERENCE_PATH = Path(__file__).with_name("reference.json")
PRESETS = ("paper-los", "paper-drywall", "paper-concrete")
FAMILIES = ["gaussian", "burr12", "lognormal"]
ARTIFACTS = ("points.csv", "ecdf.csv", "report.json")
STAT_TOLERANCE_M = 1e-9
FIT_TOLERANCE_REL = 1e-6
# A set's fit cost varies with its data by about 8%; averaging over six
# sets per model keeps fit-select's figure a property of the code.
FIT_SETS_PER_MODEL = 6


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def grid_size(width: float, depth: float, step: float) -> int:
    """Tag count of the simulator's lattice, computed here independently."""
    nx = int(math.floor(width / step + 1e-9)) + 1
    ny = int(math.floor(depth / step + 1e-9)) + 1
    return nx * ny


def open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms strictly inside (0, 1), as the quantile functions require."""
    return (rng.integers(0, 2**53, size=shape) + 0.5) * 2.0**-53


def run_cli(argv: list[str]) -> int:
    """``cli.main`` with its stdout report and stderr notes captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    cycle = 1  # distinct inputs per cycle; loops always run whole cycles
    study = False  # True when an operation is one `cli.main simulate` call
    threaded = False  # True when the solver pool runs; adds a threads=1 study

    def __init__(self, seed: int, workdir: str, smoke: bool = False, wrong_reference: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.wrong_reference = wrong_reference
        self.build_times: list[float] = []

    @functools.cached_property
    def reference(self) -> dict:
        reference = load_reference()
        if self.wrong_reference:
            self.break_reference(reference)
        return reference

    def break_reference(self, reference: dict) -> None:
        raise ValueError(f"{self.name} has no recorded reference to break")

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Work the checks need that is not part of set-up (untimed)."""

    def label(self, k: int) -> str:
        return str(k)

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> str | None:
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, str | None]]:
        return []

    def build_scenario(self, build, *args):
        """Scenario build during set-up, timed for ``scenarios.build_s``."""
        start = time.perf_counter()
        scenario = build(*args)
        self.build_times.append(time.perf_counter() - start)
        return scenario


# ---------------------------------------------------------------- studies

def compare_report(report: dict, expected: dict) -> str | None:
    for key in ("solves", "failed_solves"):
        if report[key] != expected[key]:
            return f"{key} {report[key]} != reference {expected[key]}"
    for block in ("error_2d_m", "error_3d_m"):
        for stat, value in expected[block].items():
            got = report[block][stat]
            if not abs(got - value) <= STAT_TOLERANCE_M:
                return f"{block}.{stat} {got!r} differs from reference {value!r}"
    return None


class Study(Workload):
    """Shared checks of the two `simulate` workloads."""

    study = True

    def setup(self) -> None:
        self.out = os.path.join(self.workdir, "out")
        self.first_digest: dict[str, str] = {}
        self.reports: dict[str, dict] = {}

    def expected_rows(self, k: int) -> int:
        raise NotImplementedError

    def artifacts(self) -> tuple[str, bytes, dict]:
        """Digest of all three artifacts, the points CSV and the report."""
        digest = hashlib.sha256()
        files = {}
        for name in ARTIFACTS:
            with open(os.path.join(self.out, name), "rb") as handle:
                files[name] = handle.read()
            digest.update(files[name])
        return digest.hexdigest(), files["points.csv"], json.loads(files["report.json"])

    def check(self, k: int, result) -> str | None:
        if result != 0:
            return f"cli.main returned {result}"
        digest, points, report = self.artifacts()
        lines = points.count(b"\n")
        if lines != self.expected_rows(k) + 1:
            return f"points.csv has {lines} lines, expected {self.expected_rows(k) + 1}"
        if digest != self.first_digest.setdefault(self.label(k), digest):
            return "artifacts differ from an earlier study with the same inputs"
        self.reports.setdefault(self.label(k), report)
        return None


class PresetSweep(Study):
    name = "preset-sweep"
    cycle = len(PRESETS)

    def break_reference(self, reference: dict) -> None:
        reference["preset-sweep"][PRESETS[0]]["error_2d_m"]["median"] += 1e-6

    def setup(self) -> None:
        super().setup()
        self.rows = {}
        for preset in PRESETS:
            scenario = self.build_scenario(scenarios.preset_scenario, preset)
            self.rows[preset] = scenario.runs * grid_size(*scenario.area, scenario.grid_step)

    def label(self, k: int) -> str:
        return PRESETS[k]

    def simulate(self, preset: str, seed: int) -> int:
        return run_cli(["simulate", "--preset", preset, "--seed", str(seed),
                        "--threads", "1", "--out", self.out])

    def op(self, k: int):
        return self.simulate(PRESETS[k], self.seed)

    def expected_rows(self, k: int) -> int:
        return self.rows[PRESETS[k]]

    def reference_reports(self) -> dict[str, dict | None]:
        """Reports of every preset at the reference seed."""
        if self.seed == REFERENCE_SEED and len(self.reports) == len(PRESETS):
            return dict(self.reports)
        return {
            preset: self.artifacts()[2] if self.simulate(preset, REFERENCE_SEED) == 0 else None
            for preset in PRESETS
        }

    def final_checks(self):
        expected = self.reference["preset-sweep"]
        return [
            (f"reference {preset} seed {REFERENCE_SEED}",
             "cli.main failed" if report is None else compare_report(report, expected[preset]))
            for preset, report in self.reference_reports().items()
        ]


class ScaledDiversity(Study):
    name = "scaled-diversity"
    threaded = True

    def break_reference(self, reference: dict) -> None:
        reference["scaled-diversity"]["error_2d_m"]["median"] += 1e-6

    def write_config(self, seed: int, name: str) -> str:
        config = scenarios.scenario_to_dict(scenarios.preset_scenario("paper-concrete"))
        if self.smoke:
            config.update(grid_step=1.0, runs=2)
        else:
            config.update(grid_step=0.20, runs=10)
        config.update(seed=seed, diversity={"channels": 3, "strategy": "min"})
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        return path

    def setup(self) -> None:
        super().setup()
        self.config_path = self.write_config(self.seed, "scaled.json")
        scenario = self.build_scenario(scenarios.load_scenario, self.config_path)
        self.rows_per_study = scenario.runs * grid_size(*scenario.area, scenario.grid_step)

    def label(self, k: int) -> str:
        return "scaled"

    def simulate(self, config_path: str, threads: int) -> int:
        return run_cli(["simulate", "--config", config_path, "--threads", str(threads),
                        "--out", self.out])

    def op(self, k: int):
        return self.simulate(self.config_path, 2)

    def expected_rows(self, k: int) -> int:
        return self.rows_per_study

    def single_thread_study(self) -> str | None:
        """The same study at threads=1; its artifacts must match threads=2."""
        rc = self.simulate(self.config_path, 1)
        if rc != 0:
            return f"threads=1 study returned {rc}"
        if self.artifacts()[0] != self.first_digest.get("scaled"):
            return "threads=1 artifacts differ from threads=2"
        return None

    def reference_report(self) -> dict | None:
        """Report of the same study at the reference seed."""
        if self.seed == REFERENCE_SEED:
            return self.reports.get("scaled")
        rc = self.simulate(self.write_config(REFERENCE_SEED, "scaled-reference.json"), 2)
        return self.artifacts()[2] if rc == 0 else None

    def final_checks(self):
        if self.smoke:
            return []  # reference.json holds the full-size study only
        report = self.reference_report()
        problem = (
            "no successful study" if report is None
            else compare_report(report, self.reference["scaled-diversity"])
        )
        return [(f"reference seed {REFERENCE_SEED}", problem)]


# ------------------------------------------------------------ point-solve

class PointSolve(Workload):
    name = "point-solve"

    def setup(self) -> None:
        scenario = self.build_scenario(scenarios.preset_scenario, "paper-concrete")
        n_tags = 50 if self.smoke else 1000
        self.cycle = n_tags
        rng = np.random.default_rng((self.seed, 1))
        width, depth = scenario.area
        xy = rng.uniform((0.0, 0.0), (width, depth), size=(n_tags, 2))
        tags = np.column_stack([xy, np.full(n_tags, scenario.tag_height)])
        self.anchors = list(scenario.anchors)
        self.positions = anchor_positions(self.anchors)
        true = np.linalg.norm(self.positions[None, :, :] - tags[:, None, :], axis=2)
        severity = np.column_stack(
            [classify_links_bulk(xy, a.position.xy, scenario.walls) for a in self.anchors]
        )
        u = open_uniforms(rng, severity.shape)
        errors = np.empty_like(u)
        for level in np.unique(severity):
            mask = severity == level
            model = scenario.model_table[SEVERITY_TO_CONDITION[int(level)]]
            errors[mask] = model.quantile(u[mask])
        self.distances = true + errors
        if not np.all(self.distances > 0.0):
            raise RuntimeError("generated a non-positive distance")
        self.config = ul.SolverConfig()

    def prepare_checks(self) -> None:
        x_r = reference_point(self.anchors, self.config.x_r_mode)
        starts = np.broadcast_to(x_r, (len(self.distances), 3))
        batch = solve_batch(self.config, self.positions, self.distances, x_r, starts)
        self.batch_positions = batch.positions

    def op(self, k: int):
        return ul.solve(self.config, self.anchors, self.distances[k])

    def check(self, k: int, result) -> str | None:
        p = result.position
        gap = np.abs(np.array([p.x, p.y, p.z]) - self.batch_positions[k]).max()
        if not gap <= STAT_TOLERANCE_M:
            return f"solve() differs from solve_batch by {gap:.3g} m"
        return None


# ------------------------------------------------------------- fit-select

def ranking_summary(ranking) -> list[dict]:
    return [
        {"family": fit.family, "params": ul.distributions.to_dict(fit.params)["params"]}
        for fit in ranking
    ]


def compare_ranking(got: list[dict], expected: list[dict]) -> str | None:
    if [r["family"] for r in got] != [r["family"] for r in expected]:
        return f"ranking {[r['family'] for r in got]} != reference {[r['family'] for r in expected]}"
    for g, e in zip(got, expected):
        for name, value in e["params"].items():
            if not abs(g["params"][name] - value) <= FIT_TOLERANCE_REL * abs(value):
                return f"{g['family']}.{name} {g['params'][name]!r} differs from reference {value!r}"
    return None


class FitSelect(Workload):
    name = "fit-select"
    conditions = ("concrete", "human")

    def break_reference(self, reference: dict) -> None:
        reference["fit-select"][0][0]["params"]["mu"] *= 1.0 + 1e-4

    def datasets(self, seed: int, count: int) -> list[np.ndarray]:
        """``count`` sample sets alternating the bundled concrete and human models."""
        size = 2000 if self.smoke else 10000
        sets = []
        for k in range(count):
            model = self.models[self.conditions[k % 2]]
            sets.append(model.quantile(open_uniforms(np.random.default_rng((seed, 2, k)), size)))
        return sets

    def setup(self) -> None:
        scenario = self.build_scenario(scenarios.preset_scenario, "paper-concrete")
        self.models = scenario.model_table
        self.cycle = 2 if self.smoke else 2 * FIT_SETS_PER_MODEL
        self.data = self.datasets(self.seed, self.cycle)
        self.first: dict[int, tuple] = {}

    def label(self, k: int) -> str:
        return f"{self.conditions[k % 2]}#{k // 2}"

    def op(self, k: int):
        return ul.select_best_model(self.data[k], FAMILIES)

    def check(self, k: int, result) -> str | None:
        for fit in result:
            if fit.error is not None or not fit.converged or not math.isfinite(fit.nll):
                return f"{fit.family} fit did not converge to a finite NLL"
        key = (ranking_summary(result), [fit.nll for fit in result])
        if self.first.setdefault(k, key) != key:
            return "fit differs from an earlier fit of the same data"
        return None

    def reference_rankings(self) -> list[list[dict]]:
        """Rankings of the first concrete and human sets at the reference seed."""
        data = self.datasets(REFERENCE_SEED, 2)
        return [ranking_summary(ul.select_best_model(d, FAMILIES)) for d in data]

    def final_checks(self):
        if self.smoke:
            return []
        results = []
        for k, (got, expected) in enumerate(zip(self.reference_rankings(), self.reference["fit-select"])):
            results.append((f"reference {self.label(k)} seed {REFERENCE_SEED}", compare_ranking(got, expected)))
        return results


WORKLOADS = {w.name: w for w in (PresetSweep, ScaledDiversity, PointSolve, FitSelect)}
