"""Property checks over random Prufer trees with n <= 60.

The whole-tree statistics read one cached rooted pass and one cached J
vector; these checks hold them to the single-target joining_time, to the
definitions of t_meet, t_bestmeet and Kemeny's constant, to the
distance-sum oracle, and to the caches' keying. Every walkstats.QUANTITIES
entry is held, on trees with n <= 30, to the same quantity read off the
first-step linear solve at each vertex; on trees with n <= 200, the J_min
reader and the T_bestmeet entry, read before the rerooting pass has run,
are held to the least entry of joining_all and to t_bestmeet. The rewrite pipelines and
move_leaf are held to their stated postconditions on the same trees.
`analyze`'s templated per_vertex block is held, on trees with n <= 300, to
the json.dumps rendering of the per-vertex dict it replaced; the chunk-edge
test holds it the same way when written in chunks of 1, 2 and 3 entries on
a 25-vertex tree, so that the separators between chunks are checked; the
one denominator it writes rests on every J being congruent mod 4(n-1),
held on trees with n <= 300. The
trusted builders (family generators, broomify, leaf swaps) are held to the
validating build_tree, and build_tree's error classification to the
seen-set loop it replaced. On trees with n <= 200, T_bestmeet lies between
the balanced lever's and the balanced double broom's closed forms, with
equality only on those two shapes. The one-pass canonical forms are held,
at the centroids and at every root, to the per-root concatenation loop
they replaced, on trees with n <= 80, on every class up to order 12, and
on Prufer trees with n <= 40 whose edges are subdivided into chains of up
to 7 edges and then relabeled at random, so that vertex 0 lies far from
the centroids.
diameter_and_geodesic and v_split are held the same way to the double BFS
and the per-neighbor seen-set loops they replaced, on trees with n <= 80
and at every vertex of every class up to order 10; the diameter, read off
the rooted pass alone, is also held to the double BFS on relabeled Prufer
trees with n <= 400 and on shapes where the ends tie or the geodesic
climbs to vertex 0 or to a vertex below it. The readers of the stored
rooted pass, `_distances` and `path_between`, are held at every vertex
and every pair to a BFS from the vertex they start at, on trees with
n <= 200. Kemeny's constant is held to the Wiener index:
K = 2W/(n-1) - (2n-1)/2. parse_edge_list, numpy
pass first, is held to the line parser on edge lists of trees with n <= 200,
re-spaced with blanks and tabs and sometimes damaged by one edit: the same
tree, or the same error class and message. is_double_broom and
_rooted_broom, read off their definitions, are held to the spine and
by-depth bookkeeping they replaced, on trees with n <= 120 and on every
class up to order 12, each also relabeled at random, at every root.
The one-pass _spine_tree is held to the list-per-vertex builder it
replaced, on random spines and hubs with n <= 80. `_caterpillar`, which
builds the family shapes holding their rooted pass, is held to that
builder, and its pass to subtree_sizes from vertex 0, on non-decreasing
hubs with n <= 80 and on every family instance with n <= 40; every
formula witness with n <= 20 is held to the list builder's. The
single-target joining_time, the reference for the ledger's broom rows, is
held at every vertex to joining_all and to the definition oracle, on
trees with n <= 60 and on every class up to order 9.
Every rewrite-trace value is held to the least entry of joining_all on
trees with n <= 60 through both pipelines: a whole-tree step's, read off
its tree's subtree sizes, with the rerooting pass shown not to have run
before that read, and a leaf move's, a running sum of changes read off two
climbs in a live rooting, with that rooting held to subtree_sizes at the
barycenter after every move. The replay of each trace, which rebuilds
every step's tree from the packed start tree, is held label for label to
the tree the pipeline held after that step, on trees with n <= 80, and each
replayed tree's J_min to walkstats' reader, to joining_all and, for a
seeded sample, to the definition oracle at a centroid, also on runs that
raise. One in-place leaf move is held to the rebuilt tree, its rooting,
and its change in J_min, at any root; on the pipelines' own moves, at
the barycenter, that change is the closed form on every climb edge, the
per-edge term never computed. The barycenter check maximize makes
after each reshape is held to centroids at every vertex of the same trees.
Each of maximize's leaf moves is held, on the replayed tree before it, to
the branch geometry it was read off (the moved leaf is its branch's
deepest, the least id at the greatest depth from c, and it lands on the
target branch's deepest vertex or that vertex's holder), and c to a
barycenter after every step. Phase one's width test over one depth array
is held to `_rooted_broom` of v_split's part at every branch at every
centroid of every class up to order 10. On trees with n <= 60 and 3 <= d <= n-2, every leaf
minimize moves beside the barycenter leaves the least centroid of the
input in place.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import tempfile
import tracemalloc
from datetime import timedelta
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treewalk import cli, families, transforms, trees
from treewalk.errors import (
    CycleDetected,
    DiameterOutOfRange,
    Disconnected,
    DuplicateEdge,
    SelfLoop,
    TreewalkError,
    VertexOutOfRange,
)
from treewalk.enumeration import enumerate_trees, tree_classes
from treewalk.families import (
    FORMULAS,
    _rooted_broom,
    balanced_double_broom,
    balanced_lever,
    bestmeet_dbroom_case,
    broom_tree,
    closed_form,
    double_broom_tree,
    is_double_broom,
    lever_tree,
    path_tree,
    star_tree,
)
from treewalk.oracles import (
    bfs_distances,
    distance_argmin,
    distances,
    joining_time_by_definition,
    joining_time_by_linear_solve,
)
from treewalk.transforms import (
    TransformTrace,
    _assert_barycenter,
    _swap_edge,
    broomify,
    maximize_pipeline,
    minimize_pipeline,
    move_leaf,
)
from treewalk.trees import (
    SplitPart,
    SplitResult,
    Tree,
    _components,
    _tree_from_adjacency,
    bfs_order,
    build_tree,
    canonical_form,
    centroids,
    diameter_and_geodesic,
    format_edge_list,
    parse_edge_list,
    path_between,
    prufer_decode,
    rooted_canonical_form,
    subtree_sizes,
    v_split,
)
from treewalk.walkstats import (
    QUANTITIES,
    _least_joining,
    barycenter,
    joining_all,
    joining_time,
    kemeny,
    t_bestmeet,
    t_bestmeet_set,
    t_meet,
    t_meet_set,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def prufer_trees(draw, max_n: int = 60) -> Tree:
    n = draw(st.integers(min_value=2, max_value=max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


def _reference(t: Tree) -> list[int]:
    return [joining_time(t, v) for v in range(t.n)]


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=200))
def test_joining_all_matches_single_target(t):
    # the J_min reader and the T_bestmeet entry read the subtree sizes
    # before the rerooting pass has run on t
    least, bestmeet = _least_joining(t), QUANTITIES["t_bestmeet"](t)
    assert "joining" not in t.__dict__
    js = joining_all(t)
    assert js == _reference(t)
    assert least == min(js)
    assert bestmeet == t_bestmeet(t)[0]


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=300))
@example(path_tree(2))
@example(star_tree(9))
@example(balanced_double_broom(20, 7))
def test_joining_times_are_congruent_mod_4_n_minus_1(t):
    # J(u) - J(p) = 4(n-1)(n - 2 size(u)) across every edge, so gcd(J(v), 2|E|)
    # is one number and analyze writes every meeting time over one denominator
    js = joining_all(t)
    assert len({j % (4 * (t.n - 1)) for j in js}) == 1
    assert len({gcd(j, 2 * (t.n - 1)) for j in js}) == 1


def _assert_joining_time_matches_definition(t: Tree) -> None:
    # joining_time is the ground truth of the ledger's broom rows, so it is
    # pinned at every vertex to the rerooted pass and to the oracle
    js = joining_all(t)
    for w in range(t.n):
        assert joining_time(t, w) == js[w] == joining_time_by_definition(t, w), (t, w)


# the oracle walks every u..w path and counts each crossed edge's side, so
# a tree costs O(n^3) or more: fewer draws than the other properties
@settings(max_examples=50, deadline=None)
@given(prufer_trees())
def test_joining_time_matches_the_definition_at_every_vertex(t):
    _assert_joining_time_matches_definition(t)


@pytest.mark.parametrize("n", range(1, 10))
def test_joining_time_matches_the_definition_at_every_vertex_of_every_class(n):
    for t in [path_tree(1)] if n == 1 else enumerate_trees(n):
        _assert_joining_time_matches_definition(t)


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_meeting_statistics_match_definitions(t):
    js = _reference(t)
    two_e = 2 * (t.n - 1)
    hi, lo = max(js), min(js)
    argmax = [v for v in range(t.n) if js[v] == hi]
    argmin = [v for v in range(t.n) if js[v] == lo]
    assert t_meet(t) == (Fraction(hi, two_e), argmax[0])
    assert t_meet_set(t) == (Fraction(hi, two_e), argmax)
    assert t_bestmeet(t) == (Fraction(lo, two_e), argmin[0])
    assert t_bestmeet_set(t) == (Fraction(lo, two_e), argmin)
    stationary = sum(Fraction(t.degree(v), two_e) * Fraction(js[v], two_e) for v in range(t.n))
    assert kemeny(t) == stationary


# the linear solve costs O(n^3) per target: smaller trees, fewer draws
@settings(max_examples=50, deadline=None)
@given(prufer_trees(max_n=30))
def test_every_named_quantity_matches_the_linear_solve(t):
    js = [joining_time_by_linear_solve(t, w) for w in range(t.n)]
    two_e = 2 * (t.n - 1)
    assert {name: read(t) for name, read in QUANTITIES.items()} == {
        "t_bestmeet": Fraction(min(js), two_e),
        "t_meet": Fraction(max(js), two_e),
        "kemeny": Fraction(sum(t.degree(v) * js[v] for v in range(t.n)), two_e**2),
        "j_min": Fraction(min(js)),
        "j_max": Fraction(max(js)),
    }


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_barycenter_is_centroid_and_distance_argmin(t):
    bc = barycenter(t)
    assert list(bc.centers) == centroids(t) == distance_argmin(t)
    for witness in bc.component_bound_witness:
        assert list(witness) == sorted(witness, reverse=True)
        assert sum(witness) == t.n - 1
        assert all(2 * part <= t.n for part in witness)


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_geodesic_is_a_diameter_path(t):
    d, geo = diameter_and_geodesic(t)
    assert d == max(max(row) for row in distances(t))
    assert len(geo) == d + 1 and geo[0] < geo[-1]
    assert geo == path_between(t, geo[0], geo[-1])


@PROPERTY_SETTINGS
@given(prufer_trees(), prufer_trees())
def test_caches_follow_alternating_trees(a, b):
    ref_a, ref_b = _reference(a), _reference(b)
    for _ in range(2):
        assert joining_all(a) == ref_a
        assert barycenter(a).centers == tuple(distance_argmin(a))
        assert joining_all(b) == ref_b
        assert barycenter(b).centers == tuple(distance_argmin(b))
        assert t_bestmeet(a)[0] == Fraction(min(ref_a), 2 * (a.n - 1))
        assert t_meet(b)[0] == Fraction(max(ref_b), 2 * (b.n - 1))


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_returned_list_is_the_callers_own(t):
    ref = _reference(t)
    js = joining_all(t)
    js[0] += 1
    js.append(-1)
    assert joining_all(t) == ref
    assert joining_all(t) is not joining_all(t)
    assert t_bestmeet(t)[0] == Fraction(min(ref), 2 * (t.n - 1))


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_equal_but_distinct_trees_share_values(t):
    twin = Tree(t.n, tuple(tuple(v for v in nbrs) for nbrs in t.adjacency))
    assert twin == t and twin is not t
    first = (joining_all(t), barycenter(t), t_meet(t), kemeny(t))
    assert (joining_all(twin), barycenter(twin), t_meet(twin), kemeny(twin)) == first


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_minimize_pipeline_reaches_the_balanced_lever(t):
    d, _ = diameter_and_geodesic(t)
    if not 3 <= d <= t.n - 2:
        with pytest.raises(DiameterOutOfRange):
            minimize_pipeline(t)
        return
    out, trace = minimize_pipeline(t)
    assert canonical_form(out) == canonical_form(balanced_lever(t.n, d))
    values = [trace.initial_value] + [s.value for s in trace.steps]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert trace.last_value == min(joining_all(out))
    assert trace.initial_canonical == canonical_form(t)
    *_, last = [t, *trace.replay()]
    assert last == out and canonical_form(last) == canonical_form(out)


def _run_traced(pipeline, t: Tree):
    """Run pipeline on t and return the trace it started (None when it
    raised before starting one), the tree it returned or the TreewalkError
    it raised, and each tree the pipeline held after a step: a whole-tree
    step's appended tree, or the live adjacency after a leaf move with
    copies of its rooting's parent and size arrays (None for the former)."""
    traces, held = [], []
    start, append, shift = TransformTrace.start, TransformTrace.append, transforms._shift_leaf

    def start_spy(direction, tree):
        traces.append(start(direction, tree))
        return traces[-1]

    def append_spy(self, description, tree, allow_equal=False):
        append(self, description, tree, allow_equal)
        held.append((tree, None))

    def shift_spy(adj, parent, size, z, y, x):
        out = shift(adj, parent, size, z, y, x)
        held.append((_tree_from_adjacency(adj), (list(parent), list(size))))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransformTrace, "start", start_spy)
        mp.setattr(TransformTrace, "append", append_spy)
        mp.setattr(transforms, "_shift_leaf", shift_spy)
        try:
            end = pipeline(t)[0]
        except TreewalkError as e:
            end = e  # a diameter out of range, or maximize's known failure
    assert len(held) == (len(traces[0].steps) if traces else 0)
    return (traces[0] if traces else None), end, held


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_minimize_phase_one_keeps_the_least_centroid(t):
    # minimize finds its barycenter once; every leaf it moves beside it must
    # leave the least centroid where it was on the input, and the rooting
    # it moves leaves on stays at that centroid
    d, _ = diameter_and_geodesic(t)
    assume(3 <= d <= t.n - 2)
    c = min(centroids(t))
    trace, _, held = _run_traced(minimize_pipeline, t)
    for step, tree, (held_tree, rooting) in zip(trace.steps, trace.replay(), held):
        if step.description.startswith("move leaf"):
            z, y, x = step.rewrite
            assert step.description == f"move leaf {z} from {y} beside barycenter {c}" and x == c
            assert tree == held_tree and min(centroids(tree)) == c
            assert rooting[0].index(-1) == c


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=80))
def test_every_trace_step_codes_the_tree_it_was_appended_with(t):
    # the replay rebuilds, label for label, each tree the pipeline held;
    # a leaf step is the edge swap of a leaf, and a whole-tree step packs
    # its tree in no more bytes than its code
    for pipeline in (minimize_pipeline, maximize_pipeline):
        trace, _, held = _run_traced(pipeline, t)
        if trace is None:
            continue
        replayed = list(trace.replay())
        assert replayed == [tree for tree, _ in held]
        lines = trace.to_json_lines().splitlines()
        prev = t
        for step, tree, line in zip(trace.steps, replayed, lines, strict=True):
            assert json.loads(line)["canonical"] == canonical_form(tree).decode("ascii")
            if isinstance(step.rewrite, bytes):
                assert len(step.rewrite) <= len(canonical_form(tree))
            else:
                z, y, x = step.rewrite
                assert prev.adjacency[z] == (y,)
                assert tree == build_tree([e for e in prev.edges() if set(e) != {z, y}] + [(z, x)], t.n)
            prev = tree


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_trace_values_match_the_rerooting_pass_without_running_it(t):
    # a whole-tree step reads J_min off its tree's subtree sizes, and the
    # rerooting pass must not have run on it before it is read here; a leaf
    # step reads its change off the live rooting, which must be the rooting
    # at the barycenter of the tree the pipeline holds
    start = TransformTrace.start("increasing", t)
    assert "joining" not in t.__dict__
    assert start.initial_value == min(joining_all(t))
    for pipeline in (minimize_pipeline, maximize_pipeline):
        trace, _, held = _run_traced(pipeline, t)
        for step, (tree, rooting) in zip(trace.steps if trace else [], held):
            if rooting is None:
                assert "joining" not in tree.__dict__
            else:
                assert subtree_sizes(tree, rooting[0].index(-1))[1:] == rooting
            assert step.value == min(joining_all(tree))


@PROPERTY_SETTINGS
@given(prufer_trees(), st.data())
def test_shift_leaf_matches_the_rebuilt_tree(t, data):
    # any root c that is not the moved leaf: the climbs from y and x may
    # meet below c, where the two updates cancel
    z = data.draw(st.sampled_from([v for v in range(t.n) if t.degree(v) == 1]))
    c = data.draw(st.sampled_from([v for v in range(t.n) if v != z]))
    x = data.draw(st.sampled_from([v for v in range(t.n) if v != z]))
    y = t.adjacency[z][0]
    adj, parent, size = transforms._live_rooting(t, c)
    delta = transforms._shift_leaf(adj, parent, size, z, y, x)
    new = build_tree([e for e in t.edges() if set(e) != {z, y}] + [(z, x)], t.n)
    assert _tree_from_adjacency(adj) == new
    assert (parent, size) == tuple(subtree_sizes(new, c)[1:])
    assert delta == min(joining_all(new)) - min(joining_all(t))


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_pipeline_leaf_moves_stay_on_the_rising_side(t):
    # below the barycenter no split a move touches exceeds n/2, before or
    # after the move, so _shift_leaf's closed form covers every climb edge:
    # maximize on t, minimize, and maximize on minimize's lever
    calls = []
    real = transforms._edge_term

    def counted(s, n):
        calls.append((s, n))
        return real(s, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_edge_term", counted)
        with contextlib.suppress(TreewalkError):
            maximize_pipeline(t)
        with contextlib.suppress(TreewalkError):
            maximize_pipeline(minimize_pipeline(t)[0])
    assert calls == []


# maximize moves leaves 2 and 3 from the barycenter 0 onto 0 itself
_NO_OP_MOVES = build_tree([(0, 1), (0, 2), (0, 3), (0, 6), (4, 6), (4, 7), (5, 6)], 8)
# maximize raises on it: its handle extension leaves a bristle mid-spine
_MAXIMIZE_RAISES = build_tree(
    [(0, 4), (1, 3), (1, 11), (2, 4), (4, 7), (4, 9), (5, 6), (6, 9), (6, 11), (7, 12), (8, 13), (9, 14), (10, 13), (10, 14)],
    15,
)


@PROPERTY_SETTINGS
@given(prufer_trees())
@example(_NO_OP_MOVES)
@example(_MAXIMIZE_RAISES)
def test_replay_checks_every_step_value_independently(t):
    # the values leaf steps carry are running sums of changes read off two
    # climbs; the replayed trees recompute each one from scratch, and the
    # definition oracle does at a distance argmin for a seeded sample
    rng = random.Random(t.n)
    for pipeline in (minimize_pipeline, maximize_pipeline):
        trace, end, _ = _run_traced(pipeline, t)
        if trace is None:
            assert isinstance(end, DiameterOutOfRange)
            continue
        replayed = list(trace.replay())
        assert len(replayed) == len(trace.steps)
        for step, tree in zip(trace.steps, replayed):
            assert _least_joining(tree) == step.value == min(joining_all(tree))
        for i in rng.sample(range(len(replayed)), min(3, len(replayed))):
            tree = replayed[i]
            assert joining_time_by_definition(tree, distance_argmin(tree)[0]) == trace.steps[i].value
        last = replayed[-1] if replayed else t
        if isinstance(end, Tree):
            assert last == end
        elif str(end) == "pipeline did not end on a double broom":
            assert not is_double_broom(last)


def _deepest_in_branch(t: Tree, c: int, v: int) -> int:
    # the least id at the greatest distance from c in the component of
    # t - c that holds v, by a BFS of its own
    dist = bfs_distances(t, c)
    comp = [v]
    for u in comp:
        comp.extend(x for x in t.adjacency[u] if x != c and x not in comp)
    return min(comp, key=lambda u: (-dist[u], u))


@PROPERTY_SETTINGS
@given(prufer_trees())
@example(_NO_OP_MOVES)
@example(_MAXIMIZE_RAISES)
# extends branch 2 with leaf 12, which is then that branch's deepest
@example(prufer_decode([13, 0, 0, 1, 1, 6, 10, 9, 3, 6, 11, 14, 5], 15))
def test_maximize_moves_match_the_branch_geometry_by_replay(t):
    # each leaf step of maximize, read against the replayed tree before it:
    # the moved leaf is its branch's deepest, and the leaf extends the
    # target branch's deepest vertex or joins its holder; c stays a
    # barycenter after every step, which maximize itself no longer checks
    trace, _, _ = _run_traced(maximize_pipeline, t)
    c = min(centroids(t))
    prev, heads = t, t.adjacency[c]
    for step, tree in zip(trace.steps, trace.replay()):
        assert 2 * max(_components(tree, c)) <= t.n
        if isinstance(step.rewrite, bytes):
            # the branches are numbered by c's neighbors after phase one
            prev, heads = tree, tree.adjacency[c]
            continue
        z, y, x = step.rewrite
        assert prev.adjacency[z] == (y,) and _deepest_in_branch(prev, c, z) == z
        extend = re.fullmatch(rf"extend handle of branch (\d+) with leaf {z}", step.description)
        fill = re.fullmatch(rf"add leaf {z} to the cluster of branch (\d+)", step.description)
        deep = _deepest_in_branch(prev, c, heads[int((extend or fill).group(1))])
        assert x == (deep if extend else prev.adjacency[deep][0])
        prev = tree


@pytest.mark.parametrize("n", range(3, 11))
def test_phase_one_width_test_matches_the_rooted_broom_of_each_part(n):
    # maximize tests a branch at c by the depths from c of its own vertices;
    # the rooted test reads v_split's part tree at its center
    for t in tree_classes(n):
        for c in centroids(t):
            if t.degree(c) < 2:
                continue
            depth = trees._distances(t, c)
            branches = trees._branches(t, c)
            for part, (w, comp) in zip(v_split(t, c).parts, branches.items(), strict=True):
                assert part.to_parent == tuple(sorted([c, *comp]))
                assert part.tree.adjacency[part.center] == (part.to_parent.index(w),)
                assert families._broom_depths([depth[v] for v in comp]) == _rooted_broom(part.tree, part.center)


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_barycenter_check_matches_the_centroids(t):
    cs = centroids(t)
    for v in range(t.n):
        if v in cs:
            _assert_barycenter(t, v)
        else:
            with pytest.raises(TreewalkError, match=f"vertex {v} stopped being a barycenter"):
                _assert_barycenter(t, v)


@PROPERTY_SETTINGS
@given(prufer_trees(), st.data())
def test_move_leaf_checks_hold_for_any_leaf_and_target(t, data):
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    z = data.draw(st.sampled_from(leaves))
    x = data.draw(st.sampled_from([v for v in range(t.n) if v != z]))
    out = move_leaf(t, z, t.adjacency[z][0], x, check=True)
    assert out.n == t.n and out.degree(z) == 1 and out.adjacency[z][0] == x


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_maximize_pipeline_ends_on_a_larger_double_broom(t):
    d, _ = diameter_and_geodesic(t)
    try:
        out, trace = maximize_pipeline(t)
    except TreewalkError as e:
        # the one known failure of the phase-two/three moves
        assert str(e) == "pipeline did not end on a double broom"
        return
    if is_double_broom(t):
        assert out is t and trace.steps == []
        return
    assert is_double_broom(out)
    assert diameter_and_geodesic(out)[0] <= d
    assert min(joining_all(out)) > min(joining_all(t))
    assert trace.last_value == min(joining_all(out))


def _caterpillar_edges(n: int, d: int, hubs: list[int]) -> list[tuple[int, int]]:
    """The path 0..d plus vertices d+1.. pendant at hubs, as the generators
    used to list it for build_tree."""
    return [(i, i + 1) for i in range(d)] + [(h, x) for x, h in zip(range(d + 1, n), hubs)]


def _family_instances(max_n: int):
    """(built tree, edge list it should span) for every valid parameter set
    of every family generator with n <= max_n."""
    for n in range(1, max_n + 1):
        yield path_tree(n), _caterpillar_edges(n, n - 1, [])
        if n >= 3:
            yield star_tree(n), _caterpillar_edges(n, 2, [1] * (n - 3))
        for d in range(1, n):
            yield broom_tree(n, d), _caterpillar_edges(n, d, [1] * (n - d - 1))
        for d in range(2, n):
            for k in range(1, d):
                yield lever_tree(n, d, k), _caterpillar_edges(n, d, [k] * (n - d - 1))
            for left in range(1, n - d + 1):
                right = n - d + 1 - left
                hubs = [1] * (left - 1) + [d - 1] * (right - 1)
                yield double_broom_tree(n, d, left, right), _caterpillar_edges(n, d, hubs)


def test_family_generators_match_build_tree():
    count = 0
    for t, edges in _family_instances(30):
        assert t == build_tree(edges, t.n) == build_tree(list(t.edges()), t.n)
        count += 1
    assert count == 8613


def _spine_tree_by_lists(n: int, spine, hubs) -> Tree:
    # trees._spine_tree as it read with a list for every vertex, each sorted
    # by _tree_from_adjacency, kept verbatim as a reference
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(spine, spine[1:]):
        adj[u].append(v)
        adj[v].append(u)
    on_spine = set(spine)
    for x, hub in zip((x for x in range(n) if x not in on_spine), hubs, strict=True):
        adj[hub].append(x)
        adj[x].append(hub)
    return _tree_from_adjacency(adj)


@st.composite
def spine_shapes(draw) -> tuple[int, list[int], list[int]]:
    """n <= 80, a spine in arbitrary id order, and hubs drawn from it."""
    n = draw(st.integers(min_value=1, max_value=80))
    order = draw(st.permutations(range(n)))
    spine = order[: draw(st.integers(min_value=1, max_value=n))]
    hubs = draw(st.lists(st.sampled_from(spine), min_size=n - len(spine), max_size=n - len(spine)))
    return n, spine, hubs


@PROPERTY_SETTINGS
@given(spine_shapes())
@example((1, [0], []))
@example((2, [1, 0], []))
@example((2, [1], [1]))
def test_spine_tree_matches_the_replaced_builder(case):
    n, spine, hubs = case
    t = trees._spine_tree(n, spine, hubs)
    assert t == _spine_tree_by_lists(n, spine, hubs) == build_tree(list(t.edges()), n)
    for wrong in (hubs + spine[:1], hubs[:-1]) if hubs else (spine[:1],):
        with pytest.raises(ValueError):
            trees._spine_tree(n, spine, wrong)
        with pytest.raises(ValueError):
            _spine_tree_by_lists(n, spine, wrong)


def _caterpillar_by_lists(n: int, d: int, hubs) -> Tree:
    """trees._caterpillar's tree, built by the list-per-vertex reference on
    the spine 0..d, with no stored pass."""
    return _spine_tree_by_lists(n, range(d + 1), hubs)


def _check_caterpillar(t: Tree, n: int, d: int, hubs) -> None:
    """t, built by trees._caterpillar(n, d, hubs), is the reference's tree,
    and came back holding the rooted pass a BFS from vertex 0 gives."""
    assert "rooted" in vars(t)
    assert t == _caterpillar_by_lists(n, d, hubs)
    assert t.rooted == tuple(map(tuple, subtree_sizes(t, 0)))


def test_every_family_instance_holds_the_pass_its_builder_laid_out(monkeypatch):
    # every generator's instances with n <= 40, which hold every FamilySpec
    # instance (every lever fulcrum, every double-broom split), each through
    # the builder call it makes
    calls = []

    def recorded(n, d, hubs):
        calls.append((n, d, hubs))
        return trees._caterpillar(n, d, hubs)

    monkeypatch.setattr(families, "_caterpillar", recorded)
    count = 0
    for t, _ in _family_instances(40):
        (n, d, hubs), = calls
        calls.clear()
        _check_caterpillar(t, n, d, hubs)
        count += 1
    assert count == 20618


@st.composite
def caterpillar_shapes(draw) -> tuple[int, int, list[int]]:
    """n <= 80, a spine 0..d and non-decreasing hubs drawn from it."""
    n = draw(st.integers(min_value=1, max_value=80))
    d = draw(st.integers(min_value=0, max_value=n - 1))
    hubs = draw(st.lists(st.integers(0, d), min_size=n - d - 1, max_size=n - d - 1))
    return n, d, sorted(hubs)


@PROPERTY_SETTINGS
@given(caterpillar_shapes())
@example((1, 0, []))
@example((2, 1, []))
@example((2, 0, [0]))
def test_caterpillar_matches_the_list_builder_and_the_bfs(case):
    n, d, hubs = case
    _check_caterpillar(trees._caterpillar(n, d, hubs), n, d, hubs)
    for wrong in (hubs + [d], hubs[:-1]) if hubs else ([d],):
        with pytest.raises(ValueError):
            trees._caterpillar(n, d, wrong)
        with pytest.raises(ValueError):
            trees._spine_tree(n, range(d + 1), wrong)


def test_formula_witnesses_match_the_replaced_builder(monkeypatch):
    cases = [
        (row.witness, n, d)
        for row in FORMULAS.values()
        for n in range(1, 21)
        for d in (range(n + 1) if row.needs_d else [None])
    ]
    built = [_outcome(witness, n, d) for witness, n, d in cases]
    monkeypatch.setattr(families, "_caterpillar", _caterpillar_by_lists)
    assert [_outcome(witness, n, d) for witness, n, d in cases] == built
    assert sum(isinstance(t, Tree) for t in built) == 3051


def _broomify_reference(t: Tree, z: int) -> Tree:
    """broomify as it read when it built an edge list for build_tree."""
    r = max(bfs_distances(t, z))
    if _rooted_broom(t, z) == (r, True):
        return t
    others = sorted(v for v in range(t.n) if v != z)
    chain = [z] + others[: r - 1]
    edges = list(zip(chain, chain[1:])) + [(chain[-1], b) for b in others[r - 1 :]]
    return build_tree(edges, t.n)


@PROPERTY_SETTINGS
@given(prufer_trees())
def test_broomify_matches_build_tree_at_every_root(t):
    for z in range(t.n):
        out = broomify(t, z)
        assert out == _broomify_reference(t, z) == build_tree(list(out.edges()), t.n)


def _is_double_broom_by_spine(t: Tree) -> bool:
    # is_double_broom as it read with path, end and leaf-attachment
    # bookkeeping, kept verbatim as a reference
    n = t.n
    if n <= 3:
        return True
    internal = [v for v in range(n) if t.degree(v) >= 2]
    ends = [v for v in internal if sum(1 for w in t.adjacency[v] if t.degree(w) >= 2) <= 1]
    if len(internal) == 1:
        spine_ends = (internal[0], internal[0])
    else:
        # internal vertices must form a path: all of them of internal-degree
        # <= 2 and exactly two of internal-degree <= 1
        if len(ends) != 2:
            return False
        for v in internal:
            if sum(1 for w in t.adjacency[v] if t.degree(w) >= 2) > 2:
                return False
        # connectivity of the internal set follows from t being a tree when
        # leaves only hang off the two spine ends, checked below
        spine_ends = (ends[0], ends[1])
    for v in range(n):
        if t.degree(v) == 1:
            attach = t.adjacency[v][0]
            if attach not in spine_ends:
                return False
    return True


def _rooted_broom_by_holder(t: Tree, root: int) -> tuple[int, bool]:
    # _rooted_broom as it read with a by-depth dict and a check that every
    # deepest vertex is a leaf on the one depth-(r-1) vertex, kept verbatim
    dist = bfs_distances(t, root)
    r = max(dist)
    if t.n == 1:
        return 0, True
    by_depth: dict[int, list[int]] = {}
    for v, dv in enumerate(dist):
        by_depth.setdefault(dv, []).append(v)
    for depth in range(1, r):
        if len(by_depth.get(depth, [])) != 1:
            return r, False
    holder = by_depth[r - 1][0] if r >= 1 else root
    for v in by_depth.get(r, []):
        if t.degree(v) != 1 or t.adjacency[v][0] != holder:
            return r, False
    return r, True


def _assert_broom_predicates_match_references(t: Tree) -> None:
    assert is_double_broom(t) == _is_double_broom_by_spine(t), t
    for root in range(t.n):
        assert _rooted_broom(t, root) == _rooted_broom_by_holder(t, root), (t, root)


def _relabeled(t: Tree, rng: random.Random) -> Tree:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return build_tree([(perm[u], perm[v]) for u, v in t.edges()], t.n)


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=120))
@example(path_tree(1))
@example(balanced_lever(9, 5))
def test_broom_predicates_match_the_replaced_loops(t):
    _assert_broom_predicates_match_references(t)


@pytest.mark.parametrize("n", range(1, 13))
def test_broom_predicates_match_the_replaced_loops_on_every_class(n):
    rng = random.Random(n)
    classes = [path_tree(1)] if n == 1 else enumerate_trees(n, cap=12)
    for t in classes:
        _assert_broom_predicates_match_references(t)
        _assert_broom_predicates_match_references(_relabeled(t, rng))


@PROPERTY_SETTINGS
@given(prufer_trees(), st.data())
def test_swap_edge_matches_build_tree_of_the_swapped_edges(t, data):
    w = data.draw(st.sampled_from([v for v in range(t.n) if t.degree(v) == 1]))
    old = t.adjacency[w][0]
    # new == old is the no-op move maximize_pipeline makes at the barycenter
    new = data.draw(st.sampled_from([v for v in range(t.n) if v != w]))
    edges = [e for e in t.edges() if set(e) != {w, old}] + [(w, new)]
    assert _swap_edge(t, w, old, new) == build_tree(edges, t.n)


def _seen_set_build_tree(edges, n: int) -> Tree:
    """build_tree as it read with a seen set of normalised edges, kept
    verbatim as the reference for error classification."""
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) repeats an earlier edge")
        seen.add(key)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
        adj[u].append(v)
        adj[v].append(u)
    if len(seen) != n - 1:
        missing = next(v for v in range(n) if find(v) != find(0))
        raise Disconnected(f"{len(seen)} edges on {n} vertices; vertex {missing} unreachable from 0")
    return Tree(n, tuple(tuple(sorted(nbrs)) for nbrs in adj))


def _outcome(fn, *args):
    """What fn returns, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except TreewalkError as e:
        return type(e), str(e)


@st.composite
def short_edge_lists(draw) -> tuple[list[tuple[int, int]], int]:
    """Edge lists on n <= 8 with entries in -1..n: either arbitrary pairs
    (self-loops, repeats, cycles, bad ids) or a tree's edges, each flipped
    at will, thinned, salted with repeats and in-range pairs, shuffled."""
    n = draw(st.integers(0, 8))
    vertex = st.integers(-1, n)
    if n < 2 or draw(st.booleans()):
        return draw(st.lists(st.tuples(vertex, vertex), max_size=n + 2)), n
    inside = st.integers(0, n - 1)
    t = prufer_decode(draw(st.lists(inside, min_size=n - 2, max_size=n - 2)), n)
    edges = [e for e in t.edges() if draw(st.integers(0, 5))]
    for _ in range(draw(st.integers(0, 2))):
        if edges:
            edges.append(draw(st.sampled_from(edges)))
    edges += draw(st.lists(st.tuples(inside, inside), max_size=2))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return draw(st.permutations(edges)), n


@settings(max_examples=600, deadline=None)
@given(short_edge_lists())
def test_build_tree_classifies_errors_like_the_seen_set_loop(case):
    edges, n = case
    assert _outcome(build_tree, edges, n) == _outcome(_seen_set_build_tree, edges, n)


@pytest.mark.parametrize(
    "edges, n, error, message",
    [
        ([(0, 1), (0, 1)], 3, DuplicateEdge, "edge (0, 1) repeats an earlier edge"),
        ([(0, 1), (1, 0)], 3, DuplicateEdge, "edge (1, 0) repeats an earlier edge"),
        ([(0, 1), (1, 2), (2, 0)], 4, CycleDetected, "edge (2, 0) closes a cycle"),
        ([(0, 1), (2, 3)], 4, Disconnected, "2 edges on 4 vertices; vertex 2 unreachable from 0"),
    ],
    ids=["repeat", "reversed-repeat", "cycle", "disconnected"],
)
def test_build_tree_classification_cases(edges, n, error, message):
    assert _outcome(build_tree, edges, n) == (error, message)
    assert _outcome(_seen_set_build_tree, edges, n) == (error, message)


def _dict_rendering(argv: list[str], text: str, t: Tree, targets: list[int], dot=None) -> str:
    """analyze's stdout as it was written before the template: the
    per-vertex dict of Fractions through cli._exact, then the whole envelope
    through json.dumps(sort_keys=True, indent=2). A test oracle only."""
    js = joining_all(t)
    d, geo = diameter_and_geodesic(t)
    tm, tm_at = t_meet(t)
    tb, tb_at = t_bestmeet(t)
    payload = {
        "n": t.n,
        "diameter": d,
        "geodesic": geo,
        "barycenter": list(barycenter(t).centers),
        "per_vertex": {
            str(v): {
                "joining_time": js[v],
                "meeting_time": cli._exact(Fraction(js[v], 2 * (t.n - 1))),
            }
            for v in targets
        },
        "t_meet": cli._exact(tm) | {"argmax": tm_at},
        "t_bestmeet": cli._exact(tb) | {"argmin": tb_at},
        "kemeny": cli._exact(kemeny(t)),
    }
    if dot is not None:
        payload["dot_file"] = dot
    env = {
        "command": ["treewalk", *argv],
        "input_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "results": payload,
    }
    return json.dumps(env, sort_keys=True, indent=2) + "\n"


def _analyze_matches_dict_rendering(t: Tree, name: str, flags: list[str], targets, dot=None):
    text = format_edge_list(t)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        argv = ["--no-timing", "analyze", "--input", path, *flags]
        if dot is not None:
            dot = os.path.join(tmp, dot)
            argv += ["--dot", dot]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    assert out.getvalue() == _dict_rendering(argv, text, t, targets, dot)


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=300), st.data())
def test_analyze_per_vertex_template_matches_dict_rendering(t, data):
    if data.draw(st.booleans(), label="all targets"):
        flags, targets = [], list(range(t.n))
    else:
        chosen = data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=t.n), label="targets")
        flags, targets = ["--targets", ",".join(map(str, chosen))], sorted(set(chosen))
    _analyze_matches_dict_rendering(t, "tree.txt", flags, targets)


@pytest.mark.parametrize("slot_text", [cli._PER_VERTEX_SLOT, cli._PER_VERTEX_SLOT.strip()])
def test_analyze_splice_ignores_its_slot_text_in_the_argv(slot_text):
    # n >= 11, so the string key order ("10" < "9") differs from the numeric
    rng = random.Random(11)
    t = prufer_decode([rng.randrange(120) for _ in range(118)], 120)
    _analyze_matches_dict_rendering(t, slot_text, [], list(range(t.n)), dot=slot_text + ".dot")
    _analyze_matches_dict_rendering(t, slot_text, ["--targets", "0,9,10,119"], [0, 9, 10, 119])


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("chosen", [None, [0, 3, 9, 10, 17, 24], [10]], ids=["all", "six", "one"])
def test_analyze_per_vertex_chunk_edges(monkeypatch, chunk, chosen):
    # the template property never fills a real chunk; chunks of 1..3 entries
    # put chunk edges between most entries, where a lost or doubled ",\n"
    # would show. Six targets fill whole chunks of each size; 25 vertices
    # leave a part chunk at sizes 2 and 3.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    rng = random.Random(17)
    t = prufer_decode([rng.randrange(25) for _ in range(23)], 25)
    if chosen is None:
        _analyze_matches_dict_rendering(t, "tree.txt", [], list(range(t.n)))
    else:
        _analyze_matches_dict_rendering(t, "tree.txt", ["--targets", ",".join(map(str, chosen))], chosen)

@PROPERTY_SETTINGS
@given(prufer_trees(max_n=200))
@example(balanced_lever(12, 5))
@example(balanced_double_broom(12, 5))
@example(balanced_lever(13, 4))
@example(balanced_double_broom(13, 4))
@example(balanced_double_broom(40, 9))
def test_bestmeet_lies_between_the_balanced_lever_and_double_broom(t):
    # the paper's extremal theorem at orders no enumeration reaches:
    # T_bestmeet is smallest on the balanced lever and largest on the
    # balanced double broom of the same order and diameter
    n = t.n
    d = diameter_and_geodesic(t)[0]
    assume(3 <= d <= n - 2)
    low = closed_form("bestmeet_lever", n, d)
    high = closed_form(bestmeet_dbroom_case(n, d), n, d)
    value = t_bestmeet(t)[0]
    assert low <= value <= high, (n, d, format_edge_list(t))
    if value == low:
        assert canonical_form(t) == canonical_form(balanced_lever(n, d)), format_edge_list(t)
    if value == high:
        assert canonical_form(t) == canonical_form(balanced_double_broom(n, d)), format_edge_list(t)


def _concatenated_rooted_form(t: Tree, root: int) -> bytes:
    # the per-root loop canonical_form used to run once per centroid, kept
    # verbatim as a reference: every vertex's code stays alive to the end
    order, parent = bfs_order(t, root)
    code: list[bytes] = [b""] * t.n
    for u in reversed(order):
        children = sorted(code[w] for w in t.adjacency[u] if w != parent[u])
        code[u] = b"1" + b"".join(children) + b"0"
    return code[root]


def _assert_forms_match_concatenation(t: Tree) -> None:
    assert canonical_form(t) == min(_concatenated_rooted_form(t, c) for c in centroids(t)), t
    for r in range(t.n):
        assert rooted_canonical_form(t, r) == _concatenated_rooted_form(t, r), (t, r)


# two centroids whose sides differ: three leaves on 0, a three-vertex path below 1
_UNEVEN_BICENTROID = build_tree([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (6, 7)], 8)


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=80))
@example(path_tree(1))
@example(path_tree(2))
@example(path_tree(8))
@example(path_tree(41))
@example(path_tree(80))
@example(star_tree(3))
@example(star_tree(17))
@example(balanced_double_broom(10, 5))
@example(balanced_double_broom(12, 7))
@example(balanced_double_broom(20, 11))
@example(_UNEVEN_BICENTROID)
def test_canonical_forms_match_the_concatenation_loop(t):
    _assert_forms_match_concatenation(t)


def test_explicit_canonical_examples_cover_both_centroid_counts():
    # the examples above reach the one-pass code's two-centroid branch, and
    # one of them with sides whose codes differ, so the min is a real choice
    assert [len(centroids(t)) for t in (path_tree(1), path_tree(2), star_tree(17))] == [1, 2, 1]
    for t in (path_tree(8), balanced_double_broom(12, 7), _UNEVEN_BICENTROID):
        assert len(centroids(t)) == 2
    a, b = centroids(_UNEVEN_BICENTROID)
    assert _concatenated_rooted_form(_UNEVEN_BICENTROID, a) != _concatenated_rooted_form(
        _UNEVEN_BICENTROID, b
    )


@st.composite
def subdivided_trees(draw, max_n: int = 40) -> Tree:
    """A Prufer tree with each edge subdivided by 0..6 extra vertices, then
    relabeled at random: long single-child chains, with vertex 0 anywhere,
    often far from the centroids."""
    t = draw(prufer_trees(max_n))
    edges, n = [], t.n
    for u, v in t.edges():
        for _ in range(draw(st.integers(0, 6))):
            edges.append((u, n))
            u, n = n, n + 1
        edges.append((u, v))
    perm = draw(st.permutations(range(n)))
    return build_tree([(perm[u], perm[v]) for u, v in edges], n)


def _path_through(ids: list[int]) -> Tree:
    return build_tree(list(zip(ids, ids[1:])), len(ids))


# legs of 1, 2 and 3 edges around centre 5; vertex 0 ends the longest leg
_SPIDER = build_tree([(5, 2), (2, 4), (4, 0), (5, 1), (1, 6), (5, 3)], 7)
# paths with vertex 0 at one end and the other ids shuffled: one centroid, two
_PATH_9 = _path_through([0, 7, 3, 5, 1, 8, 2, 6, 4])
_PATH_10 = _path_through([0, 9, 4, 7, 2, 5, 8, 1, 6, 3])
# a handle 0-8-2-6-9 ending at hub 3 with leaves 1, 4, 5 and 7: the
# centroids 9 and 3 sit at the far end from vertex 0
_FAR_BROOM = build_tree([(0, 8), (8, 2), (2, 6), (6, 9), (9, 3), (3, 1), (3, 4), (3, 5), (3, 7)], 10)


@PROPERTY_SETTINGS
@given(subdivided_trees())
@example(_SPIDER)
@example(_PATH_9)
@example(_PATH_10)
@example(_FAR_BROOM)
def test_canonical_forms_match_the_concatenation_loop_on_long_chains(t):
    _assert_forms_match_concatenation(t)


def test_chain_examples_put_the_centroids_away_from_vertex_0():
    # each explicit example makes the forms flip parents along a path from
    # vertex 0 to a centroid, at both centroid counts
    assert centroids(_SPIDER) == [5]
    assert centroids(_PATH_9) == [1]
    assert centroids(_PATH_10) == [2, 5]
    assert centroids(_FAR_BROOM) == [3, 9]
    for t in (_SPIDER, _PATH_9, _PATH_10):
        assert t.degree(0) == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_canonical_forms_match_the_concatenation_loop_on_every_class(n):
    for t in enumerate_trees(n, cap=12):
        _assert_forms_match_concatenation(t)


def _double_bfs_diameter(t: Tree) -> tuple[int, list[int]]:
    # diameter_and_geodesic as it read with its own first BFS from vertex 0,
    # kept verbatim as a reference
    dist = bfs_distances(t, 0)
    a = dist.index(max(dist))
    order, parent = bfs_order(t, a)
    depth = [0] * t.n
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    d = depth[order[-1]]
    b = depth.index(d)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return d, path if b < a else path[::-1]


def _seen_set_v_split(t: Tree, v: int) -> SplitResult:
    # v_split as it read with one seen-set BFS per neighbor, kept verbatim
    # as a reference (its degree check aside)
    parts = []
    for w in t.adjacency[v]:
        comp = [v, w]
        seen = {v, w}
        head = 1
        while head < len(comp):
            u = comp[head]
            head += 1
            for x in t.adjacency[u]:
                if x not in seen:
                    seen.add(x)
                    comp.append(x)
        local_ids = sorted(comp)
        index = {p: i for i, p in enumerate(local_ids)}
        adj: list[list[int]] = [[] for _ in local_ids]
        for u in comp:
            if u == v:
                # only w neighbors the split vertex inside this part
                adj[index[v]].append(index[w])
            else:
                for x in t.adjacency[u]:
                    adj[index[u]].append(index[x])
        part = _tree_from_adjacency(adj)
        parts.append(SplitPart(tree=part, to_parent=tuple(local_ids), center=index[v]))
    return SplitResult(center=v, parts=tuple(parts))


def _assert_traversals_match_references(t: Tree) -> None:
    # equality of the result tuples pins the path's orientation, the part
    # order and every part's to_parent and center
    assert diameter_and_geodesic(t) == _double_bfs_diameter(t), t
    for v in range(t.n):
        if t.degree(v) >= 2:
            assert v_split(t, v) == _seen_set_v_split(t, v), (t, v)


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=80))
@example(path_tree(1))
@example(path_tree(2))
@example(star_tree(17))
@example(balanced_double_broom(20, 11))
def test_traversals_match_the_replaced_loops(t):
    _assert_traversals_match_references(t)


@pytest.mark.parametrize("n", range(2, 11))
def test_traversals_match_the_replaced_loops_on_every_class(n):
    for t in enumerate_trees(n):
        _assert_traversals_match_references(t)


@st.composite
def relabeled_prufer_trees(draw, max_n: int = 400) -> Tree:
    """A Prufer tree with its ids permuted at random, so vertex 0 and the
    smallest ids land anywhere on or off the diameter."""
    t = draw(prufer_trees(max_n))
    perm = draw(st.permutations(range(t.n)))
    return build_tree([(perm[u], perm[v]) for u, v in t.edges()], t.n)


# three legs of two edges around 4, vertex 0 ending one: the deepest ends 5
# and 6 tie for a, and then 0 and 6 tie for b at the greatest distance
_EQUAL_SPIDER = build_tree([(4, 1), (1, 0), (4, 2), (2, 5), (4, 3), (3, 6)], 7)
# a = 3 lies below vertex 0 and b = 4 on another branch of it, so the
# geodesic climbs to 0 from both ends
_FORK_AT_0 = build_tree([(0, 1), (1, 2), (2, 3), (0, 5), (5, 4)], 6)
# a = 4 and b = 7 hang on two branches of 1, a vertex below 0, so the
# common ancestor the geodesic climbs to is neither an end nor vertex 0
_FORK_BELOW_0 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (0, 8)], 9)


@PROPERTY_SETTINGS
@given(relabeled_prufer_trees())
@example(path_tree(1))
@example(path_tree(2))
@example(star_tree(9))
@example(_EQUAL_SPIDER)
@example(_FORK_AT_0)
@example(_FORK_BELOW_0)
def test_diameter_matches_the_double_bfs(t):
    assert diameter_and_geodesic(t) == _double_bfs_diameter(t), t


def test_explicit_diameter_examples_tie_and_fork():
    assert diameter_and_geodesic(_EQUAL_SPIDER) == (4, [0, 1, 4, 2, 5])
    assert diameter_and_geodesic(_FORK_AT_0) == (5, [3, 2, 1, 0, 5, 4])
    assert diameter_and_geodesic(_FORK_BELOW_0) == (6, [4, 3, 2, 1, 5, 6, 7])


def _bfs_parent_paths(t: Tree, u: int) -> list[list[int]]:
    # path_between as it read with its own BFS from u, its climb kept
    # verbatim as a reference; the one BFS serves every end v
    _, parent = bfs_order(t, u)
    paths = []
    for v in range(t.n):
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()
        paths.append(path)
    return paths


@settings(max_examples=50, deadline=None)
@given(prufer_trees(max_n=200))
@example(path_tree(1))
@example(_FORK_BELOW_0)
def test_stored_pass_readers_match_the_bfs(t):
    # the distances and paths read off the rooted pass from vertex 0, held
    # to a BFS from the vertex they start at
    for v in range(t.n):
        assert trees._distances(t, v) == bfs_distances(t, v), (t, v)
    for u in range(t.n):
        assert [path_between(t, u, v) for v in range(t.n)] == _bfs_parent_paths(t, u), (t, u)


def _assert_kemeny_is_wiener(t: Tree) -> None:
    n = t.n
    wiener = sum(map(sum, distances(t))) // 2
    assert kemeny(t) == Fraction(2 * wiener, n - 1) - Fraction(2 * n - 1, 2), t


@PROPERTY_SETTINGS
@given(prufer_trees(max_n=60))
def test_kemeny_matches_the_wiener_index(t):
    _assert_kemeny_is_wiener(t)


@pytest.mark.parametrize("n", range(2, 10))
def test_kemeny_matches_the_wiener_index_on_every_class(n):
    for t in enumerate_trees(n):
        _assert_kemeny_is_wiener(t)


PARSE_SETTINGS = settings(max_examples=100, deadline=timedelta(seconds=5))

# one-edit damages: the CLI fuzzer's, which change the line count, and three
# that keep it, so the numpy pass's range and connectivity checks decide
DAMAGES = ["none", "none", "drop", "repeat", "extra", "count", "out-of-range", "rewire", "self-loop"]


@st.composite
def respaced_edge_lists(draw) -> tuple[Tree, str, str]:
    """A Prufer tree with n <= 200, the damage done, and its edge list with
    runs of spaces and tabs between ids and blank lines at the end."""
    t = draw(prufer_trees(max_n=200))
    lines = format_edge_list(t).splitlines()
    damage = draw(st.sampled_from(DAMAGES))
    edge = st.integers(1, len(lines) - 1)
    if damage == "drop":
        del lines[draw(edge)]
    elif damage == "repeat":
        lines.append(lines[draw(edge)])
    elif damage == "extra":
        lines.append(draw(st.sampled_from(["0 0", "1 2 3", "junk", "5 x"])))
    elif damage == "count":
        lines[0] = str(t.n + draw(st.sampled_from([-2, -1, 1, 2])))
    elif damage == "out-of-range":
        lines[draw(edge)] = f"0 {t.n + draw(st.integers(0, 2))}"
    elif damage == "rewire":
        # one edge line copied over another, unless both draws agree: the
        # copy repeats an edge and the lost edge splits the tree in two
        lines[draw(edge)] = lines[draw(edge)]
    elif damage == "self-loop":
        v = draw(st.integers(0, t.n - 1))
        lines[draw(edge)] = f"{v} {v}"
    rng = draw(st.randoms(use_true_random=True))
    lines = ["".join(rng.choices(" \t", k=rng.randint(1, 3))).join(line.split(" ")) for line in lines]
    lines += draw(st.lists(st.text(" \t", max_size=2), max_size=2))
    return t, damage, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@PARSE_SETTINGS
@given(respaced_edge_lists())
def test_numpy_parse_matches_the_line_parser(case):
    t, damage, text = case
    assert _outcome(parse_edge_list, text) == _outcome(trees._parse_lines, text)
    if damage == "none":
        assert trees._parse_well_formed(text) == t


LEVEL_SHAPES = ["random", "path", "broom-handle", "broom-bristle", "caterpillar"]


@st.composite
def level_route_trees(draw) -> Tree:
    """A tree with n <= 300: a Prufer tree, a path with its ids permuted, a
    broom with vertex 0 at its handle end or at a bristle, or a caterpillar
    on the spine 0..d with its ids permuted."""
    shape = draw(st.sampled_from(LEVEL_SHAPES))
    n = draw(st.integers(2, 300))
    if shape == "random":
        return draw(prufer_trees(max_n=300))
    if shape.startswith("broom"):
        d = draw(st.integers(1, n - 1))
        t = broom_tree(n, d)
        if shape == "broom-handle" or d == n - 1:
            return t
        # vertex 0 trades ids with the bristle n-1
        swap = {0: n - 1, n - 1: 0}
        return build_tree([(swap.get(u, u), swap.get(v, v)) for u, v in t.edges()], n)
    if shape == "path":
        t = path_tree(n)
    else:
        d = draw(st.integers(0, n - 1))
        t = trees._caterpillar(n, d, sorted(draw(st.lists(st.integers(0, d), min_size=n - d - 1, max_size=n - d - 1))))
    perm = draw(st.permutations(range(n)))
    return build_tree([(perm[u], perm[v]) for u, v in t.edges()], n)


def _csr_of(n: int, edges) -> tuple:
    return trees._csr(n, np.array([x for e in edges for x in e], dtype=np.int64))


# an 800-vertex spine from vertex 0 with 32 leaves on every 255th spine
# vertex: no run of 256 narrow levels, but too few vertices for its levels
_COMB = build_tree(
    [(i, i + 1) for i in range(799)] + [(h, 800 + 32 * (h // 255) + x) for h in (0, 255, 510, 765) for x in range(32)],
    928,
)


def _gate_declines(widths: list[int]) -> bool:
    """The level gate as stated: a run of _NARROW_RUN levels each narrower
    than _NARROW, or more levels than _NARROW_RUN plus 1/_NARROW of the
    vertices reached, at any level."""
    run, reached = 0, 1
    for count, width in enumerate(widths[1:], start=2):
        reached += width
        run = run + 1 if width < trees._NARROW else 0
        if run == trees._NARROW_RUN or count > trees._NARROW_RUN + reached // trees._NARROW:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(level_route_trees())
@example(path_tree(1))
@example(path_tree(2))
@example(path_tree(trees._NARROW_RUN))  # the longest path the gate lets through
@example(path_tree(trees._NARROW_RUN + 1))
@example(star_tree(40))
@example(_COMB)
@example(_EQUAL_SPIDER)
@example(_FORK_AT_0)
@example(_FORK_BELOW_0)
def test_level_route_matches_the_python_passes(t):
    # the level BFS gives subtree_sizes' levels unless its gate declines,
    # and the passes over those levels give what the Python loops give:
    # the rooted pass, the rerooting loop's J and the diameter's ends
    n = t.n
    order, parent, size = subtree_sizes(t, 0)
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    levels = [[] for _ in range(max(depth) + 1)]
    for v in order:
        levels[depth[v]].append(v)
    nbrs, stops = _csr_of(n, t.edges())
    got = trees._bfs_levels(nbrs, stops)
    if got is None:
        assert _gate_declines(list(map(len, levels)))
    else:
        assert [lv.tolist() for lv in got] == levels
        assert not _gate_declines(list(map(len, levels)))
    at = trees._level_passes([np.array(lv, dtype=np.int64) for lv in levels], np.diff(stops, prepend=0))
    assert [a.tolist() for a in at[:3]] == [order, parent, size]
    fresh = build_tree(list(t.edges()), n)
    assert at[3].tolist() == list(vars(Tree)["joining"].func(fresh))
    d, a, b = at[4]
    assert (d, a, b) == vars(Tree)["diameter_ends"].func(fresh)
    assert (d, path_between(t, min(a, b), max(a, b))) == diameter_and_geodesic(fresh)


@settings(max_examples=150, deadline=None)
@given(prufer_trees(max_n=200), st.data())
def test_level_bfs_refuses_every_edge_set_that_is_no_tree(t, data):
    # n - 1 edges with one replaced by another pair: a repeat, a self-loop
    # or a cycle, whose vertices the level BFS may reach twice in a level
    edges = list(t.edges())
    edges[data.draw(st.integers(0, len(edges) - 1))] = data.draw(st.tuples(*[st.integers(0, t.n - 1)] * 2))
    try:
        build_tree(edges, t.n)
    except TreewalkError:
        assert trees._bfs_levels(*_csr_of(t.n, edges)) is None
    else:
        assume(False)


def test_level_bfs_refuses_the_cycles_inside_one_level():
    # 3 reached from 1 and 2 in one level, 4 from nowhere; and the repeated
    # edge, whose end goes in twice from the same parent
    assert trees._bfs_levels(*_csr_of(5, [(0, 1), (0, 2), (1, 3), (2, 3)])) is None
    assert trees._bfs_levels(*_csr_of(3, [(0, 1), (1, 0)])) is None
    # a chain of 18 such cycles, x_i to x_i+1 through a_i and b_i, and 18
    # vertices reached from nowhere: unbounded, the copies of x_18 would
    # number 2**18, but the slot count stops the BFS within a few levels
    k = 18
    edges = [(3 * i, 3 * i + s) for i in range(k) for s in (1, 2)]
    edges += [(3 * i + s, 3 * i + 3) for i in range(k) for s in (1, 2)]
    nbrs, stops = _csr_of(4 * k + 1, edges)
    tracemalloc.start()
    try:
        assert trees._bfs_levels(nbrs, stops) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _path_end_joining(n: int) -> int:
    return (n - 1) * (2 * n - 1) * (2 * n - 3) // 3


def test_int64_guard_is_the_path_end_bound_at_its_boundary():
    # the path end's J, sum of (2s-1)^2 over s < n, is the greatest J of any
    # tree of its order
    for n in range(2, 10):
        assert _path_end_joining(n) == sum((2 * s - 1) ** 2 for s in range(1, n)) == path_tree(n).joining[0]
        assert max(max(c.joining) for c in tree_classes(n)) == _path_end_joining(n)
    # the last order whose greatest J fits an int64, found without a tree
    n = 1_905_390
    assert _path_end_joining(n) <= 2**63 - 1 < _path_end_joining(n + 1)
    assert trees._joining_fits_int64(n)
    assert not trees._joining_fits_int64(n + 1)
