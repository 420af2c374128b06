"""Floor-plan primitives: anchors, walls, and plan-view link classification.

Walls are vertical planes of unbounded height over a 2D segment, so
occlusion tests ignore z. Grazing contact (shared endpoint, endpoint on
the other segment, collinear overlap) counts as a crossing, which keeps
classification deterministic and conservative.

``SEVERITY_TO_CONDITION`` is the one statement of the link conditions'
order: a link's severity is the index of its condition, and a link
crossing several walls takes the most severe material. A model table
may also hold ``human``, a condition of measured data and custom
tables that no wall produces, so it has no severity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SEVERITY_TO_CONDITION = ("los", "drywall", "concrete")  # mildest first; index = severity
WALL_MATERIALS = SEVERITY_TO_CONDITION[1:]

_ORIENT_EPS = 1e-12  # cross products below this count as collinear


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ParameterError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Wall:
    a: tuple[float, float]  # segment start, meters
    b: tuple[float, float]  # segment end, meters
    material: str

    def __post_init__(self):
        if not np.isfinite([*self.a, *self.b]).all():
            raise ParameterError(f"wall endpoints must be finite, got {self.a}, {self.b}")
        if tuple(self.a) == tuple(self.b):
            raise ParameterError("wall endpoints must differ")
        if self.material not in WALL_MATERIALS:
            raise ParameterError(f"wall material must be one of {WALL_MATERIALS}, got {self.material!r}")


@dataclass(frozen=True)
class Anchor:
    id: str
    position: Point3


def _orient(ax, ay, bx, by, cx, cy):
    """Sign of the cross product (b-a) x (c-a); 0 within the epsilon band."""
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.where(np.abs(cross) <= _ORIENT_EPS, 0, np.sign(cross))


def _on_segment(ax, ay, bx, by, cx, cy):
    """Whether collinear point c lies within the bounding box of segment ab."""
    return (
        (np.minimum(ax, bx) - _ORIENT_EPS <= cx) & (cx <= np.maximum(ax, bx) + _ORIENT_EPS)
        & (np.minimum(ay, by) - _ORIENT_EPS <= cy) & (cy <= np.maximum(ay, by) + _ORIENT_EPS)
    )


def _segments_cross(px, py, qx, qy, ax, ay, bx, by):
    o1 = _orient(px, py, qx, qy, ax, ay)
    o2 = _orient(px, py, qx, qy, bx, by)
    o3 = _orient(ax, ay, bx, by, px, py)
    o4 = _orient(ax, ay, bx, by, qx, qy)
    crossing = ((o1 != o2) & (o3 != o4))
    crossing |= (o1 == 0) & _on_segment(px, py, qx, qy, ax, ay)
    crossing |= (o2 == 0) & _on_segment(px, py, qx, qy, bx, by)
    crossing |= (o3 == 0) & _on_segment(ax, ay, bx, by, px, py)
    crossing |= (o4 == 0) & _on_segment(ax, ay, bx, by, qx, qy)
    return crossing


def segment_crosses_wall(p: tuple[float, float], q: tuple[float, float], wall: Wall) -> bool:
    """Whether plan-view segment pq intersects or touches the wall segment."""
    return bool(
        _segments_cross(p[0], p[1], q[0], q[1], wall.a[0], wall.a[1], wall.b[0], wall.b[1])
    )


def classify_link(tag: Point3, anchor: Anchor, walls: list[Wall]) -> str:
    """Condition of one tag-anchor link: :func:`classify_links_bulk` on a batch of one."""
    return SEVERITY_TO_CONDITION[classify_links_bulk([tag.xy], anchor.position.xy, walls)[0]]


def classify_links_bulk(points_xy: np.ndarray, anchor_xy: tuple[float, float], walls: list[Wall]) -> np.ndarray:
    """Severity of the link from each tag position to one anchor, the most
    severe material crossed: an int8 array of indices into ``SEVERITY_TO_CONDITION``."""
    points_xy = np.asarray(points_xy, dtype=float)
    severity = np.zeros(len(points_xy), dtype=np.int8)
    qx, qy = float(anchor_xy[0]), float(anchor_xy[1])
    for wall in walls:
        crossed = _segments_cross(
            points_xy[:, 0], points_xy[:, 1], qx, qy,
            wall.a[0], wall.a[1], wall.b[0], wall.b[1],
        )
        level = np.int8(SEVERITY_TO_CONDITION.index(wall.material))
        np.maximum(severity, level * crossed, out=severity)
    return severity
