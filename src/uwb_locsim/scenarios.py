"""The one reader of outside JSON input, and the built-in presets.

``read_text`` is the one place an input file (``-`` is stdin) is opened;
``read_json`` decodes what it reads and ``parse_json`` inline text, and
both refuse a key repeated in one object (``scenario.json: repeated key
'runs'``), whose last value would otherwise win. Every JSON object is
read by one reader, ``_object``, with four rules: the value must be a
JSON object; a key it does not know raises DataError naming the object,
such as ``solver: unknown key 'kmax'`` (a model table names it ``models:
unknown condition 'drywal'``); a missing required key raises ``missing
'w' in area``; and an optional key that is absent or ``null`` is left
out, so the object built from it takes its default. Each value is read
by its key's leaf reader: ``number`` (which coerces numeric strings and
rejects booleans, non-finite floats and fractions in integer fields),
``_text`` (JSON strings only), an array reader, or the reader of a
nested object. A bad value raises DataError naming its JSON path, such
as ``anchors[2].z``, ``models.los.params.sigma`` or ``profile.p_tx``. A
value that a constructor rejects as out of range raises its
ParameterError prefixed with the path of the object it was read from,
such as ``solver: k_max must be >= 1``.

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
and ``paper-concrete`` are ``_PAPER_FLOOR``, a scenario in this shape
read by ``scenario_from_dict`` like any file: a 9 x 20 m floor with four
ceiling anchors (two opposing corners at 3.0 m, the others at 2.7 m)
and, for the NLOS variants, a dividing wall at y = 13 m that splits the
floor into 9 x 13 m and 9 x 7 m rooms. The tag grid default of 1.2 m
above the floor approximates a hand-held device; the grid height affects
the vertical dilution of precision, so override it when modeling other
carry positions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, fields
from functools import partial

from . import distributions
from .distributions import FAMILIES, ErrorDistribution
from .energy import PowerProfile
from .errors import DataError, ParameterError
from .geometry import SEVERITY_TO_CONDITION, Anchor, Point3, Wall
from .simulator import DiversityConfig, Scenario
from .solver import SolverConfig, check_anchors

PRESETS = ("paper-los", "paper-drywall", "paper-concrete")
CONDITIONS = (*SEVERITY_TO_CONDITION, "human")  # the keys a model table may hold

_PAPER_FLOOR = {  # the presets' floor and models as a scenario file; see the module docstring
    "area": {"w": 9.0, "h": 20.0},
    "anchors": [{"id": "a1", "x": 0.0, "y": 0.0, "z": 3.0}, {"id": "a2", "x": 9.0, "y": 0.0, "z": 2.7},
                {"id": "a3", "x": 9.0, "y": 20.0, "z": 3.0}, {"id": "a4", "x": 0.0, "y": 20.0, "z": 2.7}],
    "grid_step": 0.25, "tag_height": 1.2, "runs": 5, "seed": 42,
    "models": {
        "los": {"family": "gaussian", "params": {"mu": 0.004, "sigma": 0.071}},
        "drywall": {"family": "gaussian", "params": {"mu": -0.043, "sigma": 0.092}},
        "concrete": {"family": "burr12", "params": {"c": 9.64, "d": 0.98, "mu": -0.46, "sigma": 0.72}},
        "human": {"family": "burr12", "params": {"c": 32.84, "d": 0.24, "mu": -1.63, "sigma": 1.66}},
    },
}


def preset_scenario(name: str) -> Scenario:
    """One of the built-in floor deployments: ``_PAPER_FLOOR``, and for the
    NLOS ones a wall of the preset's material; see the module docstring."""
    if name not in PRESETS:
        raise DataError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    material = name.removeprefix("paper-")
    wall = {"ax": 0.0, "ay": 13.0, "bx": 9.0, "by": 13.0, "material": material}
    return scenario_from_dict({**_PAPER_FLOOR, "walls": [] if material == "los" else [wall]})


def read_text(path: str) -> str:
    """The text of a file, or of stdin for ``-``; DataError if it cannot be
    read. Every input file is opened here."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_json(path: str):
    """Decode a JSON file, or stdin for ``-``; DataError if it cannot be read."""
    return parse_json(read_text(path), path)


def parse_json(text: str, name: str):
    """Decode JSON text from the source ``name``; DataError if it is not JSON
    or an object repeats a key, whose last value would otherwise win."""
    def unique(pairs: list) -> dict:
        found = {}
        for key, value in pairs:
            if key in found:
                raise DataError(f"{name}: repeated key {key!r}")
            found[key] = value
        return found

    try:
        return json.loads(text, object_pairs_hook=unique)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise DataError(f"{name}: invalid JSON: {exc}") from exc


def number(value, name: str, kind=float):
    """``kind(value)``, or DataError naming ``name`` if that fails, if ``value``
    is a bool, a non-finite float (ints are not tested: math.isfinite
    overflows on 10**400) or, for ``kind=int``, a float with a fraction."""
    if isinstance(value, bool):  # JSON true and false would read as 1 and 0
        raise DataError(f"{name} is not a number: {value!r}")
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int() of an infinity overflows
        raise DataError(f"{name} is not a number: {value!r}") from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise DataError(f"{name} must be finite, got {value!r}")
    if isinstance(value, float) and result != value:
        raise DataError(f"{name} must be an integer, got {value!r}")
    return result


def _integer(value, name: str) -> int:
    return number(value, name, int)


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"{name} must be a string, got {value!r}")
    return value


def _as_is(value, name: str):
    """The reader of a value whose reading needs another key of its object
    (a model's params need its family): it is read after ``_object``."""
    return value


def _array(values, name: str, read=number) -> tuple:
    """The items of a JSON array named ``name``, each read by ``read``."""
    if not isinstance(values, (list, tuple)):  # a tuple: scenario_to_dict output, not via JSON
        raise DataError(f"{name} must be a JSON array")
    return tuple(read(value, f"{name}[{i}]") for i, value in enumerate(values))


def _object(spec, name: str, readers: dict, optional=(), word: str = "key") -> dict:
    """The values of the JSON object ``spec`` named ``name``, each read by
    ``readers[key](value, f"{name}.{key}")`` in the order of ``readers``; an
    unknown key is named an unknown ``word``. See the module docstring."""
    if not isinstance(spec, dict):
        raise DataError(f"{name} must be a JSON object")
    for key in spec:
        if key not in readers:
            raise DataError(f"{name}: unknown {word} {key!r}")
    for key in readers:
        if key not in spec and key not in optional:
            raise DataError(f"missing {key!r} in {name}")
    return {key: read(spec[key], f"{name}.{key}") for key, read in readers.items()
            if key in spec and not (spec[key] is None and key in optional)}


def _build(cls, path: str, /, **values):
    """``cls(**values)``; its ParameterError is re-raised prefixed with the
    JSON ``path`` of the object the values were read from."""
    try:
        return cls(**values)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


_POINT = dict.fromkeys("xyz", number)
_ANCHOR = {"id": _text, **_POINT}


def read_point(spec, name: str) -> Point3:
    """A Point3 from a JSON ``{x, y, z}`` object named ``name``."""
    return Point3(**_object(spec, name, _POINT))


def _anchors(items) -> tuple[Anchor, ...]:
    """Anchors from read ``{id, x, y, z}`` objects; an absent id is the anchor's index."""
    return tuple(Anchor(item.pop("id", f"{i}"), Point3(**item)) for i, item in enumerate(items))


def _wall(spec, name: str) -> Wall:
    ax, ay, bx, by, material = _object(spec, name, {**dict.fromkeys(("ax", "ay", "bx", "by"), number),
                                                    "material": _text}).values()
    return _build(Wall, name, a=(ax, ay), b=(bx, by), material=material)


def _family(value, name: str) -> type:
    if not isinstance(value, str) or value not in FAMILIES:
        raise DataError(f"{name} must be one of {list(FAMILIES)}, got {value!r}")
    return FAMILIES[value]


def read_model(spec, name: str) -> ErrorDistribution:
    """An error model from a JSON ``{"family", "params"}`` object named ``name``;
    the params are the family's fields."""
    model = _object(spec, name, {"family": _family, "params": _as_is})
    readers = {f.name: number for f in fields(model["family"])}
    path = f"{name}.params"
    return _build(model["family"], path, **_object(model["params"], path, readers))


def read_profile(spec) -> PowerProfile:
    """A PowerProfile from a JSON object of its fields; ``e_transition`` is optional."""
    readers = {f.name: number for f in fields(PowerProfile)} | {"name": _text}
    return _build(PowerProfile, "profile", **_object(spec, "profile", readers, ("e_transition",)))


def _solver(spec, name: str) -> SolverConfig:
    """A SolverConfig from a JSON object named ``name`` of its fields, each optional."""
    readers = {"delta": number, "k_max": _integer, "c": number, "x_r": read_point, "x_r_mode": _text,
               "weights": _array, "x0": read_point}
    return _build(SolverConfig, name, **_object(spec, name, readers, readers))


def solve_input_from_dict(payload) -> tuple[tuple[Anchor, ...], tuple[float, ...], SolverConfig]:
    """Anchors (an absent or null id is the index), distances and config of a ``solve`` input."""
    anchor = partial(_object, readers=_ANCHOR, optional=("id",))
    values = _object(payload, "solve input", {
        "anchors": lambda specs, _: _anchors(_array(specs, "anchors", anchor)),
        "distances": lambda values, _: _array(values, "distances"),
        "config": lambda spec, _: _solver(spec, "config"),
    }, ("config",))
    config = values.pop("config", SolverConfig())
    check_anchors(len(values["anchors"]), config.weights, "config.weights")
    return values["anchors"], values["distances"], config


def scenario_from_dict(config) -> Scenario:
    """Build a scenario from its JSON form, naming any offending field."""
    values = _object(config, "scenario", {
        "area": lambda spec, _: tuple(_object(spec, "area", {"w": number, "h": number}).values()),
        "anchors": lambda specs, _: _anchors(_array(specs, "anchors", partial(_object, readers=_ANCHOR))),
        "walls": lambda specs, _: _array(specs, "walls", _wall),
        "grid_step": number, "tag_height": number, "runs": _integer, "seed": _integer,
        "models": lambda spec, _: _object(spec, "models", dict.fromkeys(CONDITIONS, read_model),
                                          CONDITIONS, "condition"),
        "solver": lambda spec, _: _solver(spec, "solver"),
        "diversity": lambda spec, _: _build(DiversityConfig, "diversity", **_object(
            spec, "diversity", {"channels": _integer, "strategy": _text})),
    }, ("walls", "solver", "diversity"))
    return Scenario(walls=values.pop("walls", ()), model_table=values.pop("models"), **values)


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
        "solver": {key: value for key, value in asdict(scenario.solver).items() if value is not None},
        "diversity": asdict(scenario.diversity) if scenario.diversity is not None else None,
    }


def load_scenario(path: str) -> Scenario:
    """Read a scenario config file (JSON)."""
    return scenario_from_dict(read_json(path))
