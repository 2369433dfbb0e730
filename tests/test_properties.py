"""Property checks over random Prufer trees with n <= 60.

The whole-tree statistics read one cached rooted pass and one cached J
vector; these checks hold them to the single-target joining_time, to the
definitions of t_meet, t_bestmeet and Kemeny's constant, to the
distance-sum oracle, and to the caches' keying. The rewrite pipelines and
move_leaf are held to their stated postconditions on the same trees.
`analyze`'s templated per_vertex block is held, on trees with n <= 300, to
the json.dumps rendering of the per-vertex dict it replaced.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalk import cli
from treewalk.errors import DiameterOutOfRange, TreewalkError
from treewalk.families import balanced_lever, is_double_broom
from treewalk.oracles import distance_argmin
from treewalk.transforms import maximize_pipeline, minimize_pipeline, move_leaf
from treewalk.trees import (
    Tree,
    canonical_form,
    centroids,
    diameter_and_geodesic,
    distances,
    format_edge_list,
    path_between,
    prufer_decode,
)
from treewalk.walkstats import (
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
@given(prufer_trees())
def test_joining_all_matches_single_target(t):
    assert joining_all(t) == _reference(t)


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
    last = trace.steps[-1].canonical if trace.steps else trace.initial_canonical
    assert last == canonical_form(out)


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
