"""The one reader of outside JSON input, and the built-in presets.

``read_json`` loads a file (``-`` is stdin), ``parse_json`` inline text,
and ``number`` reads every number, coercing numeric strings and
rejecting non-finite floats; a bad value raises DataError naming its
JSON path, such as ``anchors[2].z``. ``read_point`` and ``read_anchors``
serve scenario anchors, the solver's ``x_r`` and ``x0`` and ``solve``'s
anchors; the SolverConfig and Scenario codecs are built on them.

A scenario file::

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
import math
import sys
from dataclasses import asdict

from . import distributions
from .distributions import BurrXII, Gaussian
from .errors import DataError
from .geometry import Anchor, Point3, Wall
from .simulator import DiversityConfig, Scenario
from .solver import SolverConfig

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


def read_json(path: str):
    """Decode a JSON file, or stdin for ``-``; DataError if it cannot be read."""
    try:
        if path == "-":
            return parse_json(sys.stdin.read(), path)
        with open(path, "r", encoding="utf-8") as handle:
            return parse_json(handle.read(), path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def parse_json(text: str, name: str):
    """Decode JSON text from the source ``name``; DataError if it is not JSON."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise DataError(f"{name}: invalid JSON: {exc}") from exc


def number(value, name: str, kind=float):
    """``kind(value)``, or DataError naming ``name`` if that fails or is a
    non-finite float (ints are not tested: math.isfinite overflows on 10**400)."""
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int() of an infinity overflows
        raise DataError(f"{name} is not a number: {value!r}") from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise DataError(f"{name} must be finite, got {value!r}")
    return result


def _need(mapping, key: str, context: str):
    if not isinstance(mapping, dict):
        raise DataError(f"{context} must be a JSON object")
    if key not in mapping:
        raise DataError(f"missing {key!r} in {context}")
    return mapping[key]


def _of_type(value, kind, name: str):
    if not isinstance(value, kind):
        raise DataError(f"{name} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _field(mapping, key: str, context: str, kind=float):
    return number(_need(mapping, key, context), f"{context}.{key}", kind)


def read_numbers(values, name: str) -> list[float]:
    """The numbers of a JSON array named ``name``."""
    return [number(v, f"{name}[{i}]") for i, v in enumerate(_of_type(values, (list, tuple), name))]


def read_point(spec, name: str) -> Point3:
    """A Point3 from a JSON ``{x, y, z}`` object named ``name``."""
    return Point3(*(_field(spec, k, name) for k in ("x", "y", "z")))


def read_anchors(specs, ids_required: bool = True) -> list[Anchor]:
    """Anchors from a JSON array of ``{id, x, y, z}``; unless ``ids_required``,
    a missing id defaults to the anchor's index."""
    anchors = []
    for i, spec in enumerate(_of_type(specs, list, "anchors")):
        name = f"anchors[{i}]"
        position = read_point(spec, name)
        anchor_id = _need(spec, "id", name) if ids_required or "id" in spec else i
        anchors.append(Anchor(id=str(anchor_id), position=position))
    return anchors


def solver_config_from_dict(spec, context: str = "solver") -> SolverConfig:
    """SolverConfig from its JSON form; missing or null fields take defaults.

    Numeric strings are coerced; a value that cannot be read raises
    DataError naming the field as ``<context>.<key>``.
    """
    readers = {"delta": number, "k_max": lambda value, name: number(value, name, int),
               "c": number, "x_r": read_point, "x_r_mode": lambda value, name: str(value),
               "weights": lambda values, name: tuple(read_numbers(values, name)), "x0": read_point}
    _of_type(spec, dict, context)
    return SolverConfig(**{key: read(spec[key], f"{context}.{key}")
                           for key, read in readers.items() if spec.get(key) is not None})


def solve_input_from_dict(payload) -> tuple[list[Anchor], list[float], SolverConfig]:
    """Anchors (ids default to the index), distances and config of a ``solve`` input."""
    return (
        read_anchors(_need(payload, "anchors", "solve input"), ids_required=False),
        read_numbers(_need(payload, "distances", "solve input"), "distances"),
        solver_config_from_dict(payload.get("config", {}), "config"),
    )


def solver_config_to_dict(config: SolverConfig) -> dict:
    """JSON form of a SolverConfig; unset optional fields are omitted."""
    return {key: value for key, value in asdict(config).items() if value is not None}


def scenario_from_dict(config: dict) -> Scenario:
    """Build a scenario from its JSON form, naming any offending field."""
    area_cfg = _need(config, "area", "scenario")
    area = (_field(area_cfg, "w", "area"), _field(area_cfg, "h", "area"))

    walls = []
    for i, spec in enumerate(_of_type(config.get("walls", []), list, "walls")):
        context = f"walls[{i}]"
        ax, ay, bx, by = (_field(spec, k, context) for k in ("ax", "ay", "bx", "by"))
        walls.append(Wall(a=(ax, ay), b=(bx, by), material=str(_need(spec, "material", context))))

    models = {
        condition: distributions.from_dict(spec)
        for condition, spec in _of_type(_need(config, "models", "scenario"), dict, "models").items()
    }

    diversity = config.get("diversity") or None
    if diversity is not None:
        diversity = DiversityConfig(channels=_field(diversity, "channels", "diversity", int),
                                    strategy=str(_need(diversity, "strategy", "diversity")))

    return Scenario(
        area=area,
        anchors=tuple(read_anchors(_need(config, "anchors", "scenario"))),
        walls=tuple(walls),
        grid_step=_field(config, "grid_step", "scenario"),
        tag_height=_field(config, "tag_height", "scenario"),
        runs=_field(config, "runs", "scenario", int),
        seed=_field(config, "seed", "scenario", int),
        model_table=models,
        solver=solver_config_from_dict(config.get("solver", {})),
        diversity=diversity,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "area": {"w": scenario.area[0], "h": scenario.area[1]},
        "anchors": [{"id": a.id, **asdict(a.position)} for a in scenario.anchors],
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
        "diversity": asdict(scenario.diversity) if scenario.diversity is not None else None,
    }


def load_scenario(path: str) -> Scenario:
    """Read a scenario config file (JSON)."""
    return scenario_from_dict(read_json(path))
