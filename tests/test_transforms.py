import json

import numpy as np
import pytest

from treewalk.enumeration import tree_classes, tree_classes_with_diameter
from treewalk.errors import DiameterOutOfRange, NotALeaf, SelfAttach, WrongNeighbor
from treewalk.families import (
    balanced_double_broom,
    balanced_lever,
    broom_tree,
    is_double_broom,
    path_tree,
    star_tree,
)
from treewalk.transforms import broomify, maximize_pipeline, minimize_pipeline, move_leaf
from treewalk.trees import (
    build_tree,
    canonical_form,
    diameter_and_geodesic,
    prufer_decode,
    rooted_canonical_form,
)
from treewalk.walkstats import hitting_profile, joining_all, joining_time


def test_move_leaf_example():
    p4 = path_tree(4)
    out = move_leaf(p4, 3, 2, 1, check=True)
    assert joining_time(p4, 1) == 11
    assert joining_time(out, 1) == 3


def test_move_leaf_identity_rewrite():
    p4 = path_tree(4)
    assert move_leaf(p4, 3, 2, 2) is p4


def test_move_leaf_away_from_center_increases_center_joining():
    s4 = star_tree(4)
    out = move_leaf(s4, 0, 1, 2)
    assert joining_time(out, 1) > joining_time(s4, 1)


def test_move_leaf_argument_errors():
    p4 = path_tree(4)
    with pytest.raises(NotALeaf):
        move_leaf(p4, 1, 0, 2)
    with pytest.raises(WrongNeighbor):
        move_leaf(p4, 3, 1, 0)
    with pytest.raises(SelfAttach):
        move_leaf(p4, 3, 2, 3)


def test_move_leaf_guarantees_randomized():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 10))
        code = tuple(int(x) for x in rng.integers(0, n, size=n - 2))
        t = prufer_decode(code, n)
        leaves = [v for v in range(n) if t.degree(v) == 1]
        z = leaves[int(rng.integers(0, len(leaves)))]
        y = t.adjacency[z][0]
        x = int(rng.integers(0, n))
        if x == z:
            continue
        before = hitting_profile(t).matrix
        out = move_leaf(t, z, y, x, check=True)
        after = hitting_profile(out).matrix
        assert all(after[v][x] <= before[v][x] for v in range(n))
        if x != y:
            assert joining_time(out, x) < joining_time(t, x)
        checked += 1


def test_broomify_example():
    p4 = path_tree(4)
    out = broomify(p4, 1)
    assert joining_time(p4, 1) == 11
    assert joining_time(out, 1) == 27


def test_broomify_fixed_point():
    b = broom_tree(5, 3)
    assert broomify(b, 3) is b
    assert joining_time(b, 3) == 76


@pytest.mark.parametrize("n", [4, 5, 6])
def test_broomify_rooted_extremality(n):
    # group all rooted classes by eccentricity; the broom rooted at its far
    # handle end must uniquely dominate each group
    by_ecc: dict[int, dict[bytes, int]] = {}
    from treewalk.trees import bfs_distances

    for t in tree_classes(n):
        for z in range(n):
            r = max(bfs_distances(t, z))
            key = rooted_canonical_form(t, z)
            by_ecc.setdefault(r, {})[key] = joining_time(t, z)
    for r, table in by_ecc.items():
        best = max(table.values())
        winners = [k for k, v in table.items() if v == best]
        broom = broom_tree(n, r) if r > 1 else star_tree(n)
        z = r if r > 1 else 1
        assert winners == [rooted_canonical_form(broom, z)]
        bro = broomify(prufer_decode(tuple([0] * (n - 2)), n), 0)
        assert bro.n == n  # smoke: broomify returns same-order trees


def test_minimize_pipeline_fixed_point():
    lever = balanced_lever(8, 4)
    out, trace = minimize_pipeline(lever)
    assert out is lever and trace.steps == []


def test_minimize_pipeline_rejects_extreme_diameters():
    with pytest.raises(DiameterOutOfRange):
        minimize_pipeline(star_tree(6))
    with pytest.raises(DiameterOutOfRange):
        minimize_pipeline(path_tree(6))


@pytest.mark.parametrize("n,d", [(7, 4), (7, 3), (8, 5)])
def test_minimize_pipeline_exhaustive_small(n, d):
    target = canonical_form(balanced_lever(n, d))
    for t in tree_classes_with_diameter(n, d):
        out, trace = minimize_pipeline(t)
        assert canonical_form(out) == target
        values = [trace.initial_value] + [s.value for s in trace.steps]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert len(trace.steps) <= n + 2  # leaf moves plus two phase rewrites


def test_minimize_pipeline_barycenter_off_geodesic():
    # diameter-12 path, barycenter pulled off the geodesic by a short branch
    # carrying nine 2-paths, plus stray decorations on two geodesic vertices
    edges = [(i, i + 1) for i in range(12)]
    nxt = 13
    mid, hub = 13, 14
    edges += [(5, 13), (13, 14)]
    nxt = 15
    for _ in range(9):
        edges += [(14, nxt), (nxt, nxt + 1)]
        nxt += 2
    edges += [(2, nxt), (2, nxt + 1)]
    nxt += 2
    edges += [(9, nxt), (nxt, nxt + 1)]
    nxt += 2
    t = build_tree(edges, 37)
    d, _ = diameter_and_geodesic(t)
    assert d == 12
    out, trace = minimize_pipeline(t)
    assert canonical_form(out) == canonical_form(balanced_lever(37, 12))
    values = [trace.initial_value] + [s.value for s in trace.steps]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert len(trace.steps) > 2


def test_maximize_pipeline_spider():
    spider = build_tree([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], 7)
    out, trace = maximize_pipeline(spider)
    assert is_double_broom(out)
    assert min(joining_all(out)) > min(joining_all(spider))


def test_maximize_pipeline_fixed_points():
    for t in (path_tree(6), star_tree(7), broom_tree(9, 5), balanced_double_broom(10, 4)):
        out, trace = maximize_pipeline(t)
        assert out is t and trace.steps == []


@pytest.mark.parametrize("n,d", [(7, 3), (7, 4), (8, 4)])
def test_maximize_pipeline_exhaustive_small(n, d):
    for t in tree_classes_with_diameter(n, d):
        if is_double_broom(t):
            continue
        out, trace = maximize_pipeline(t)
        assert is_double_broom(out)
        assert diameter_and_geodesic(out)[0] <= d
        assert min(joining_all(out)) > min(joining_all(t))


def test_trace_json_lines():
    spider = build_tree([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], 7)
    _, trace = maximize_pipeline(spider)
    lines = trace.to_json_lines().splitlines()
    assert len(lines) == len(trace.steps)
    first = json.loads(lines[0])
    assert set(first) == {"step", "description", "value", "canonical", "allow_equal"}
