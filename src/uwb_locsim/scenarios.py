"""Scenario configuration I/O and built-in deployment presets.

The JSON layout::

    {
      "area": {"w": 9.0, "h": 20.0},
      "anchors": [{"id": "a1", "x": 0.0, "y": 0.0, "z": 3.0}, ...],
      "walls": [{"ax": 0.0, "ay": 13.0, "bx": 9.0, "by": 13.0,
                 "material": "concrete"}],
      "grid_step": 0.25,
      "tag_height": 1.2,
      "runs": 5,
      "seed": 42,
      "models": {"los": {"family": "gaussian",
                         "params": {"mu": 0.004, "sigma": 0.071}}, ...},
      "solver": {"delta": 0.001, "k_max": 10, "c": 0.1,
                 "x_r_mode": "median"},
      "diversity": null
    }

All lengths are meters. The presets ``paper-los``, ``paper-drywall``
and ``paper-concrete`` describe a 9 x 20 m floor with four ceiling
anchors (two opposing corners at 3.0 m, the others at 2.7 m) and, for
the NLOS variants, a dividing wall at y = 13 m that splits the floor
into 9 x 13 m and 9 x 7 m rooms. The tag grid default of 1.2 m above
the floor approximates a hand-held device; the grid height affects the
vertical dilution of precision, so override it when modeling other
carry positions.
"""

from __future__ import annotations

import json

from . import distributions
from .distributions import BurrXII, Gaussian
from .errors import DataError
from .geometry import Anchor, Point3, Wall
from .simulator import DiversityConfig, Scenario
from .solver import SolverConfig, solver_config_from_dict, solver_config_to_dict

PRESETS = ("paper-los", "paper-drywall", "paper-concrete")

_DEFAULT_MODELS = {
    "los": Gaussian(mu=0.004, sigma=0.071),
    "drywall": Gaussian(mu=-0.043, sigma=0.092),
    "concrete": BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72),
    "human": BurrXII(c=32.84, d=0.24, mu=-1.63, sigma=1.66),
}


def preset_scenario(name: str) -> Scenario:
    """One of the built-in floor deployments; see the module docstring."""
    if name not in PRESETS:
        raise DataError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    walls: tuple[Wall, ...] = ()
    if name == "paper-drywall":
        walls = (Wall(a=(0.0, 13.0), b=(9.0, 13.0), material="drywall"),)
    elif name == "paper-concrete":
        walls = (Wall(a=(0.0, 13.0), b=(9.0, 13.0), material="concrete"),)
    return Scenario(
        area=(9.0, 20.0),
        anchors=(
            Anchor("a1", Point3(0.0, 0.0, 3.0)),
            Anchor("a2", Point3(9.0, 0.0, 2.7)),
            Anchor("a3", Point3(9.0, 20.0, 3.0)),
            Anchor("a4", Point3(0.0, 20.0, 2.7)),
        ),
        walls=walls,
        grid_step=0.25,
        tag_height=1.2,
        runs=5,
        seed=42,
        model_table=dict(_DEFAULT_MODELS),
        solver=SolverConfig(),
        diversity=None,
    )


def _need(mapping, key: str, context: str):
    if not isinstance(mapping, dict):
        raise DataError(f"scenario config: {context} must be a JSON object")
    if key not in mapping:
        raise DataError(f"scenario config: missing {key!r} in {context}")
    return mapping[key]


def _of_type(value, kind: type, name: str):
    if not isinstance(value, kind):
        raise DataError(f"scenario config: {name} must be a JSON {'array' if kind is list else 'object'}")
    return value


def _number(mapping, key: str, context: str, kind=float):
    value = _need(mapping, key, context)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int() of an infinity overflows
        raise DataError(f"scenario config: {context}.{key} is not a number: {value!r}") from exc


def scenario_from_dict(config: dict) -> Scenario:
    """Build a scenario from its JSON form, naming any offending field."""
    area_cfg = _need(config, "area", "scenario")
    area = (_number(area_cfg, "w", "area"), _number(area_cfg, "h", "area"))

    anchors = []
    for i, spec in enumerate(_of_type(_need(config, "anchors", "scenario"), list, "anchors")):
        context = f"anchors[{i}]"
        position = Point3(*(_number(spec, k, context) for k in ("x", "y", "z")))
        anchors.append(Anchor(id=str(_need(spec, "id", context)), position=position))

    walls = []
    for i, spec in enumerate(_of_type(config.get("walls", []), list, "walls")):
        context = f"walls[{i}]"
        ax, ay, bx, by = (_number(spec, k, context) for k in ("ax", "ay", "bx", "by"))
        walls.append(Wall(a=(ax, ay), b=(bx, by), material=str(_need(spec, "material", context))))

    models = {
        condition: distributions.from_dict(spec)
        for condition, spec in _of_type(_need(config, "models", "scenario"), dict, "models").items()
    }

    diversity_cfg = config.get("diversity")
    diversity = None
    if diversity_cfg:
        diversity = DiversityConfig(
            channels=_number(diversity_cfg, "channels", "diversity", int),
            strategy=str(_need(diversity_cfg, "strategy", "diversity")),
        )

    return Scenario(
        area=area,
        anchors=tuple(anchors),
        walls=tuple(walls),
        grid_step=_number(config, "grid_step", "scenario"),
        tag_height=_number(config, "tag_height", "scenario"),
        runs=_number(config, "runs", "scenario", int),
        seed=_number(config, "seed", "scenario", int),
        model_table=models,
        solver=solver_config_from_dict(config.get("solver", {})),
        diversity=diversity,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "area": {"w": scenario.area[0], "h": scenario.area[1]},
        "anchors": [
            {"id": a.id, "x": a.position.x, "y": a.position.y, "z": a.position.z}
            for a in scenario.anchors
        ],
        "walls": [
            {"ax": w.a[0], "ay": w.a[1], "bx": w.b[0], "by": w.b[1], "material": w.material}
            for w in scenario.walls
        ],
        "grid_step": scenario.grid_step,
        "tag_height": scenario.tag_height,
        "runs": scenario.runs,
        "seed": scenario.seed,
        "models": {
            condition: distributions.to_dict(model)
            for condition, model in sorted(scenario.model_table.items())
        },
        "solver": solver_config_to_dict(scenario.solver),
        "diversity": None,
    }
    if scenario.diversity is not None:
        out["diversity"] = {
            "channels": scenario.diversity.channels,
            "strategy": scenario.diversity.strategy,
        }
    return out


def load_scenario(path: str) -> Scenario:
    """Read a scenario config file (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read scenario config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(config)
