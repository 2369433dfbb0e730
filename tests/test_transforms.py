import json
import random
import struct
import sys

import numpy as np
import pytest

from treewalk import families, transforms, trees
from treewalk.enumeration import tree_classes
from treewalk.errors import (
    DiameterOutOfRange,
    NotALeaf,
    SelfAttach,
    VertexOutOfRange,
    WrongNeighbor,
)
from treewalk.families import (
    balanced_double_broom,
    balanced_lever,
    broom_tree,
    is_double_broom,
    path_tree,
    star_tree,
)
from treewalk.transforms import (
    TransformTrace,
    broomify,
    maximize_pipeline,
    minimize_pipeline,
    move_leaf,
)
from treewalk.trees import (
    build_tree,
    canonical_form,
    centroids,
    diameter_and_geodesic,
    prufer_decode,
    rooted_canonical_form,
    subtree_sizes,
)
from treewalk.walkstats import hitting_profile, joining_all, joining_time


def _with_diameter(n, d):
    return [t for t in tree_classes(n) if diameter_and_geodesic(t)[0] == d]


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


def test_broomify_runs_one_bfs(monkeypatch):
    roots = []
    real = families._distances

    def counted(t, root):
        roots.append(root)
        return real(t, root)

    monkeypatch.setattr(families, "_distances", counted)
    # and transforms' own binding, which broomify must not need
    monkeypatch.setattr(transforms, "_distances", counted)
    for t, z in ((path_tree(4), 1), (broom_tree(5, 3), 3)):
        roots.clear()
        broomify(t, z)
        assert roots == [z]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_broomify_rooted_extremality(n):
    # group all rooted classes by eccentricity; the broom rooted at its far
    # handle end must uniquely dominate each group
    by_ecc: dict[int, dict[bytes, int]] = {}
    from treewalk.oracles import bfs_distances

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
    for t in _with_diameter(n, d):
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
    for t in _with_diameter(n, d):
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


def test_trace_keeps_its_positional_three_field_constructor():
    # the benchmark's self-test builds a trace this way
    trace = TransformTrace("decreasing", 7, b"")
    assert (trace.direction, trace.initial_value, trace.initial_canonical) == ("decreasing", 7, b"")
    assert trace.steps == [] and trace.last_value == 7


@pytest.mark.parametrize("n,width", [(1, "B"), (2, "B"), (256, "B"), (257, "H"), (65536, "H"), (65537, "I")])
def test_a_step_packs_its_tree_in_the_narrowest_width(n, width):
    # a whole-tree step keeps its tree packed, and the replay unpacks it
    rng = random.Random(n)
    t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n) if n > 1 else path_tree(1)
    trace = TransformTrace("decreasing", min(t.joining) + 1, b"")
    trace.append("record", t)
    packed = trace.steps[0].rewrite
    assert packed[:1] == width.encode()
    assert len(packed) == 1 + struct.calcsize(width) * (n - 1)
    assert transforms._tree_from_parents(packed).adjacency == t.adjacency
    assert [u.adjacency for u in trace.replay()] == [t.adjacency]


def test_pipelines_code_only_their_starting_tree(monkeypatch):
    callers = []
    real = transforms.canonical_form

    def spy(t):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(t)

    monkeypatch.setattr(transforms, "canonical_form", spy)
    low, down = minimize_pipeline(prufer_decode([3, 3, 7, 0, 9, 1, 1, 4, 4, 12, 2], 13))
    spider = build_tree([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], 7)
    high, up = maximize_pipeline(spider)
    assert down.steps and up.steps
    assert callers == ["start"] * 2
    assert not any(hasattr(s, "__dict__") for s in down.steps + up.steps)
    # the JSON lines code each replayed tree then, once, the last one the
    # tree the pipeline returned
    for out, trace in ((low, down), (high, up)):
        del callers[:]
        last = json.loads(trace.to_json_lines().splitlines()[-1])
        assert last["canonical"] == canonical_form(out).decode("ascii")
        assert callers == ["<genexpr>"] * len(trace.steps)


# maximize's cluster fill moves leaves 2 and 3, each a branch of its own at
# the barycenter 0, onto 0 itself: two recorded steps that change nothing
_NO_OP_MOVES = build_tree([(0, 1), (0, 2), (0, 3), (0, 6), (4, 6), (4, 7), (5, 6)], 8)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that lists its calls' arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_maximize_records_a_move_from_the_barycenter_onto_itself(monkeypatch):
    # a move onto c grows no branch of c, so it needs no barycenter check
    # and builds no tree: the one built is the tree _finish checks
    built = _counting(monkeypatch, transforms, "_tree_from_adjacency")
    out, trace = maximize_pipeline(_NO_OP_MOVES)
    assert len(built) == 1
    assert [s.rewrite for s in trace.steps[1:]] == [(2, 0, 0), (3, 0, 0)]
    assert trace.to_json_lines() == "\n".join(
        [
            '{"allow_equal": false, "canonical": "1101010111010000", '
            '"description": "reshape branch at 0 through 4 into a broom", "step": 0, "value": 79}',
            '{"allow_equal": true, "canonical": "1101010111010000", '
            '"description": "add leaf 2 to the cluster of branch 0", "step": 1, "value": 79}',
            '{"allow_equal": true, "canonical": "1101010111010000", '
            '"description": "add leaf 3 to the cluster of branch 0", "step": 2, "value": 79}',
        ]
    )
    assert out.adjacency == ((1, 2, 3, 4), (0,), (0,), (0,), (0, 5), (4, 6, 7), (5,), (5,))
    assert list(trace.replay())[-1] == out


def test_leaf_steps_do_no_whole_tree_work(monkeypatch):
    # 251 steps in each pipeline, all leaf moves but minimize's recenter;
    # every rooted pass is a bfs_order call, once made for every step. Only
    # the two starting trees and the recentered one are packed, and a tree
    # is built only after minimize's leaf moves and for maximize's _finish.
    # Every branch of the lever at its barycenter is a broom already, so
    # maximize builds no part tree, by v_split or on its own
    calls = _counting(monkeypatch, trees, "bfs_order")
    packed = _counting(monkeypatch, transforms, "_pack_parents")
    built = _counting(monkeypatch, transforms, "_tree_from_adjacency")
    rng = random.Random(300)
    t = prufer_decode([rng.randrange(300) for _ in range(298)], 300)
    low, down = minimize_pipeline(t)
    splits = _counting(monkeypatch, trees, "_split_part")
    parts = _counting(monkeypatch, transforms, "_split_part")
    _, up = maximize_pipeline(low)
    assert [len(down.steps), len(up.steps)] == [251, 251]
    assert [sum(isinstance(s.rewrite, tuple) for s in tr.steps) for tr in (down, up)] == [250, 251]
    assert len(calls) <= 8
    assert (len(packed), len(built)) == (3, 2)
    assert len(splits) + len(parts) == 0
    # the one branch of _NO_OP_MOVES that is no broom gets the one part tree
    _, trace = maximize_pipeline(_NO_OP_MOVES)
    assert isinstance(trace.steps[0].rewrite, bytes)
    assert len(splits) + len(parts) == 1


def test_a_leaf_step_stores_its_move_in_constant_space():
    sizes = []
    for n in (50, 5000):
        rng = random.Random(n)
        _, trace = minimize_pipeline(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n))
        step = next(s for s in trace.steps if s.description.startswith("move leaf"))
        assert isinstance(step.rewrite, tuple) and len(step.rewrite) == 3
        sizes.append(sys.getsizeof(step.rewrite))
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("n", range(2, 10))
def test_live_rooting_is_the_rooting_at_any_vertex(n):
    # read off the stored pass from vertex 0 by one climb, no traversal
    for t in tree_classes(n):
        for c in range(n):
            adj, parent, size = transforms._live_rooting(t, c)
            assert [parent, size] == list(subtree_sizes(t, c)[1:])
            assert adj == [list(a) for a in t.adjacency]


@pytest.mark.parametrize(
    "rewrite,v",
    [
        (lambda t: broomify(t, -1), -1),
        (lambda t: broomify(t, 9), 9),
        (lambda t: move_leaf(t, -1, 3, 0), -1),
        (lambda t: move_leaf(t, 4, 3, -2), -2),
        (lambda t: move_leaf(t, 4, 3, 9), 9),
    ],
    ids=["broomify-neg", "broomify-high", "move-leaf-z-neg", "move-leaf-x-neg", "move-leaf-x-high"],
)
def test_rewrites_reject_a_vertex_out_of_range(rewrite, v):
    # negative ids used to build a tree that names them, 9 a bare IndexError
    with pytest.raises(VertexOutOfRange, match=rf"vertex {v} outside 0\.\.4"):
        rewrite(path_tree(5))


def test_maximize_roots_its_tree_at_the_barycenter_once(monkeypatch):
    roots = []
    real = transforms._distances

    def counted(t, root):
        roots.append(root)
        return real(t, root)

    monkeypatch.setattr(transforms, "_distances", counted)
    lever = balanced_lever(20, 6)
    _, trace = maximize_pipeline(lever)
    assert sum(s.description.startswith("add leaf") for s in trace.steps) == 13
    assert roots == [min(centroids(lever))]


def test_maximize_reads_a_moved_leaf_at_its_new_depth():
    # leaf 12 lengthens branch 2's handle and is then its deepest leaf, so the
    # next bristle joins 12's holder; read at 12's old depth, 12 is passed
    # over and the pipeline ends on no double broom
    t = prufer_decode([13, 0, 0, 1, 1, 6, 10, 9, 3, 6, 11, 14, 5], 15)
    out, trace = maximize_pipeline(t)
    assert [s.description for s in trace.steps[1:3]] == [
        "extend handle of branch 2 with leaf 12",
        "add leaf 10 to the cluster of branch 2",
    ]
    assert is_double_broom(out) and diameter_and_geodesic(out)[0] == 9


def _lever_bound_tree():
    # two leaves to move beside the barycenter in phase one
    return prufer_decode([3, 3, 7, 0, 9, 1, 1, 4, 4, 12, 2], 13)


def test_minimize_finds_its_barycenter_once(monkeypatch):
    calls = []
    real = transforms.centroids

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(transforms, "centroids", counted)
    _, trace = minimize_pipeline(_lever_bound_tree())
    assert sum(s.description.startswith("move leaf") for s in trace.steps) == 2
    assert len(calls) == 1


def test_maximize_finds_its_barycenter_once(monkeypatch):
    # no leaf move can unseat the barycenter, so none runs centroids again
    calls = []
    real = transforms.centroids

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(transforms, "centroids", counted)
    _, trace = maximize_pipeline(balanced_lever(20, 6))
    assert len(trace.steps) > 1
    assert len(calls) == 1


def test_minimize_moves_a_freed_neighbor_next():
    # moving leaf 8 off 0 leaves 0 a leaf on 5, off the geodesic 4..6: the
    # listed leaves must take it in, ahead of any larger id
    t = build_tree([(0, 5), (0, 8), (1, 2), (1, 9), (2, 5), (2, 7), (3, 6), (3, 7), (4, 9)], 10)
    assert diameter_and_geodesic(t)[0] == 6 and centroids(t) == [2]
    _, trace = minimize_pipeline(t)
    assert trace.initial_value == 105
    moves = [(s.description, s.value) for s in trace.steps if s.description.startswith("move leaf")]
    assert moves == [
        ("move leaf 8 from 0 beside barycenter 2", 81),
        ("move leaf 0 from 5 beside barycenter 2", 73),
    ]


def test_minimize_moves_leaves_without_the_validating_entry_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("move_leaf re-validates the pipeline's own leaf")

    monkeypatch.setattr(transforms, "move_leaf", refuse)
    t = _lever_bound_tree()
    out, trace = minimize_pipeline(t)
    assert any(s.description.startswith("move leaf") for s in trace.steps)
    d, _ = diameter_and_geodesic(t)
    assert canonical_form(out) == canonical_form(balanced_lever(t.n, d))
