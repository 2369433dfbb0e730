"""Property checks over random Prufer trees with n <= 60.

The whole-tree statistics read one cached rooted pass and one cached J
vector; these checks hold them to the single-target joining_time, to the
definitions of t_meet, t_bestmeet and Kemeny's constant, to the
distance-sum oracle, and to the caches' keying.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from treewalk.oracles import distance_argmin
from treewalk.trees import (
    Tree,
    centroids,
    diameter_and_geodesic,
    distances,
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
