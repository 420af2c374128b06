import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwb_locsim import ParameterError, Point3, Wall
from uwb_locsim.geometry import classify_links_bulk, SEVERITY_TO_CONDITION


def test_point_rejects_nonfinite():
    with pytest.raises(ParameterError):
        Point3(0.0, float("inf"), 0.0)


def test_wall_validation():
    with pytest.raises(ParameterError):
        Wall(a=(1.0, 1.0), b=(1.0, 1.0), material="concrete")
    with pytest.raises(ParameterError):
        Wall(a=(0.0, 0.0), b=(1.0, 0.0), material="brick")
    with pytest.raises(ParameterError, match="wall endpoints must be finite"):
        Wall(a=(0.0, float("nan")), b=(1.0, 0.0), material="concrete")


WALL = Wall(a=(4.0, 0.0), b=(4.0, 3.0), material="concrete")


def test_transversal_crossing():
    assert classify_links_bulk([(1, 1)], (8, 1), [WALL]).tolist() == [2]


def test_disjoint_segment():
    assert classify_links_bulk([(1, 1)], (2, 1), [WALL]).tolist() == [0]


def test_endpoint_touch_counts_as_crossing():
    assert classify_links_bulk([(1, 3)], (8, 3), [WALL]).tolist() == [2]


def test_endpoint_on_wall_interior_counts():
    assert classify_links_bulk([(4, 1.5)], (9, 1.5), [WALL]).tolist() == [2]


def test_collinear_overlap_counts():
    assert classify_links_bulk([(4, -1)], (4, 1), [WALL]).tolist() == [2]


def test_crossing_invariant_under_swaps():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p, q, a, b = (tuple(rng.uniform(0, 10, 2)) for _ in range(4))
        wall = Wall(a=a, b=b, material="drywall")
        wall_rev = Wall(a=b, b=a, material="drywall")
        hit = classify_links_bulk([p], q, [wall]).tolist()
        assert hit == classify_links_bulk([q], p, [wall]).tolist()
        assert hit == classify_links_bulk([p], q, [wall_rev]).tolist()
        assert hit == classify_links_bulk([q], p, [wall_rev]).tolist()


def test_classify_no_walls_is_los():
    assert SEVERITY_TO_CONDITION[classify_links_bulk([(1, 1)], (8, 1), [])[0]] == "los"


def test_classify_concrete_wall():
    wall = Wall(a=(4.0, 0.0), b=(4.0, 9.0), material="concrete")
    assert SEVERITY_TO_CONDITION[classify_links_bulk([(1, 1)], (8, 1), [wall])[0]] == "concrete"


def test_classify_severity_priority():
    drywall = Wall(a=(3.0, 0.0), b=(3.0, 9.0), material="drywall")
    concrete = Wall(a=(4.0, 0.0), b=(4.0, 9.0), material="concrete")
    for walls, condition in [([drywall, concrete], "concrete"), ([concrete, drywall], "concrete"),
                             ([drywall], "drywall")]:
        assert SEVERITY_TO_CONDITION[classify_links_bulk([(1, 1)], (8, 1), walls)[0]] == condition


def test_classification_ignores_z():
    # Walls have unbounded height: a link is classified by its plan view alone
    wall = Wall(a=(4.0, 0.0), b=(4.0, 9.0), material="drywall")
    tag, anchor = Point3(1, 1, 0.1), Point3(8, 1, 25.0)
    assert SEVERITY_TO_CONDITION[classify_links_bulk([tag.xy], anchor.xy, [wall])[0]] == "drywall"


def test_classify_symmetry_random():
    rng = np.random.default_rng(10)
    walls = [
        Wall(a=tuple(rng.uniform(0, 10, 2)), b=tuple(rng.uniform(0, 10, 2)), material="drywall")
        for _ in range(3)
    ] + [
        Wall(a=tuple(rng.uniform(0, 10, 2)), b=tuple(rng.uniform(0, 10, 2)), material="concrete")
        for _ in range(2)
    ]
    tags, anchors = rng.uniform(0, 10, size=(2, 200, 2))
    forward = [classify_links_bulk([p], q, walls)[0] for p, q in zip(tags, anchors)]
    backward = [classify_links_bulk([q], p, walls)[0] for p, q in zip(tags, anchors)]
    assert forward == backward


def test_adding_walls_never_softens_severity():
    rng = np.random.default_rng(20)
    for _ in range(100):
        p = tuple(rng.uniform(0, 10, 2))
        q = tuple(rng.uniform(0, 10, 2))
        walls = []
        last = 0
        for _ in range(4):
            walls.append(
                Wall(
                    a=tuple(rng.uniform(0, 10, 2)),
                    b=tuple(rng.uniform(0, 10, 2)),
                    material=rng.choice(["drywall", "concrete"]),
                )
            )
            now = classify_links_bulk([p], q, walls)[0]
            assert now >= last
            last = now


def _worst_crossed(p, q, walls):
    """Oracle: severity of the most severe wall that segment pq crosses, 0 if
    none, from one classification per wall."""
    return max((classify_links_bulk([p], q, [w])[0] for w in walls), default=0)


def test_bulk_classification_matches_scalar():
    rng = np.random.default_rng(37)  # 60 LOS, 38 drywall and 52 concrete links
    walls = [
        Wall(a=tuple(rng.uniform(0, 10, 2)), b=tuple(rng.uniform(0, 10, 2)), material=m)
        for m in ("drywall", "concrete", "drywall")
    ]
    points = rng.uniform(0, 10, size=(150, 2))
    anchor_xy = (9.0, 9.0)
    bulk = classify_links_bulk(points, anchor_xy, walls)
    assert set(bulk.tolist()) == set(range(len(SEVERITY_TO_CONDITION))), "a severity never occurs"
    assert bulk.tolist() == [_worst_crossed(tuple(p), anchor_xy, walls) for p in points]


# Integer coordinates on a small lattice make shared endpoints, endpoints
# on walls and collinear overlaps (grazing contact) common.
_COORD = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0))
_XY = st.tuples(_COORD, _COORD)
_WALLS = st.lists(
    st.tuples(_XY, _XY, st.sampled_from(["drywall", "concrete"]))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: Wall(a=t[0], b=t[1], material=t[2])),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(walls=_WALLS, anchor_xy=_XY, tags=st.lists(_XY, min_size=1, max_size=20))
def test_bulk_classification_equals_scalar_per_link(walls, anchor_xy, tags):
    bulk = classify_links_bulk(np.array(tags), anchor_xy, walls)
    assert bulk.dtype == np.int8
    assert bulk.tolist() == [_worst_crossed(tag, anchor_xy, walls) for tag in tags]
