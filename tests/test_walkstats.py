import gc
import inspect
import random
import weakref
from fractions import Fraction

import pytest

from treewalk import oracles, trees
from treewalk.audit import check_barycenter_equivalences
from treewalk.enumeration import tree_classes
from treewalk.errors import VertexOutOfRange
from treewalk.families import (
    balanced_double_broom,
    broom_tree,
    path_tree,
    star_tree,
)
from treewalk.oracles import (
    distance_argmin,
    distances,
    hitting_matrix_by_linear_solve,
    hitting_time,
    hitting_time_by_edge_decomposition,
    joining_time_by_definition,
    path_overlap,
)
from treewalk.trees import (
    build_tree,
    diameter_and_geodesic,
    format_edge_list,
    parse_edge_list,
    prufer_decode,
    v_split,
)
from treewalk.walkstats import (
    barycenter,
    hitting_profile,
    joining_all,
    joining_time,
    kemeny,
    meeting_time,
    t_bestmeet,
    t_bestmeet_set,
    t_meet,
)

P2 = path_tree(2)
P3 = path_tree(3)
P4 = path_tree(4)


def test_path_overlap_degenerate_cases():
    t = broom_tree(6, 3)
    dist = distances(t)
    for u in range(6):
        for w in range(6):
            assert path_overlap(t, u, u, w) == dist[u][w]
            assert path_overlap(t, u, w, u) == 0
    assert path_overlap(P4, 0, 1, 3) == 2


def test_hitting_time_path_values():
    assert hitting_time(P3, 0, 2) == 4
    assert hitting_time(P3, 1, 0) == 3
    d = 6
    p = path_tree(d + 1)
    for i in range(d + 1):
        for j in range(d + 1):
            expect = j * j - i * i if i <= j else (d - j) ** 2 - (d - i) ** 2
            assert hitting_time(p, i, j) == expect


def test_hitting_time_broom_value():
    assert hitting_time(broom_tree(5, 3), 1, 3) == 12


def test_hitting_profile_smallest():
    assert hitting_profile(P2).matrix == ((0, 1), (1, 0))


def test_hitting_profile_star_leaf_to_leaf():
    s = star_tree(4)
    assert hitting_profile(s)[0, 2] == 6


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_profile_matches_all_oracles(n):
    for t in tree_classes(n):
        prof = hitting_profile(t).matrix
        solve = hitting_matrix_by_linear_solve(t)
        for u in range(n):
            for w in range(n):
                assert prof[u][w] == hitting_time(t, u, w)
                assert prof[u][w] == hitting_time_by_edge_decomposition(t, u, w)
                assert Fraction(prof[u][w]) == solve[u][w]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_commute_identity(n):
    for t in tree_classes(n):
        prof = hitting_profile(t).matrix
        dist = distances(t)
        for u in range(n):
            for v in range(n):
                assert prof[u][v] + prof[v][u] == 2 * (n - 1) * dist[u][v]


def test_joining_time_examples():
    assert joining_all(P3) == [10, 2, 10]
    assert joining_time(star_tree(4), 1) == 3
    assert joining_time(path_tree(9), 4) == 168


@pytest.mark.parametrize("w", [-1, 4, 7])
def test_joining_and_meeting_time_reject_a_vertex_out_of_range(w):
    # -1 used to return 116, which is no vertex's J (J(3) = 35)
    for statistic in (joining_time, meeting_time):
        with pytest.raises(VertexOutOfRange, match=rf"vertex {w} outside 0\.\.3"):
            statistic(P4, w)


def test_joining_all_matches_definition():
    for n in (4, 6, 7):
        for t in tree_classes(n):
            js = joining_all(t)
            assert js == [joining_time_by_definition(t, w) for w in range(n)]


def test_meeting_time_examples():
    assert meeting_time(P3, 0) == Fraction(5, 2)  # S3 = P3, leaf target
    assert meeting_time(P2, 1) == Fraction(1, 2)
    assert meeting_time(P3, 1) == Fraction(1, 2)


def test_t_meet_examples():
    assert t_meet(P4) == (Fraction(35, 6), 0)
    assert t_meet(star_tree(4)) == (Fraction(9, 2), 0)
    assert t_meet(P2) == (Fraction(1, 2), 0)


def test_t_bestmeet_examples():
    for n in (3, 5, 8):
        val, at = t_bestmeet(star_tree(n))
        assert val == Fraction(1, 2) and at == 1
    assert t_bestmeet(balanced_double_broom(5, 3))[0] == Fraction(3, 2)
    assert t_bestmeet(path_tree(9)) == (Fraction(21, 2), 4)


def test_kemeny_small_values():
    assert kemeny(P2) == Fraction(1, 2)
    assert kemeny(P3) == Fraction(3, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_kemeny_row_invariance(n):
    for t in tree_classes(n):
        prof = hitting_profile(t).matrix
        twice_edges = 2 * (n - 1)
        rows = {
            sum(Fraction(t.degree(v), twice_edges) * prof[u][v] for v in range(n))
            for u in range(n)
        }
        assert rows == {kemeny(t)}


def test_barycenter_examples():
    assert barycenter(P4).centers == (1, 2)
    assert barycenter(star_tree(6)).centers == (1,)
    b = broom_tree(9, 7)
    res = barycenter(b)
    assert res.centers == (3,)
    assert distances(b)[3][0] == 3  # three steps from the bristle fan
    assert res.component_bound_witness == ((4, 4),)
    neighbor = barycenter(b).centers[0] + 1
    comps_at_neighbor = [c for c in v_split_sizes(b, neighbor)]
    assert max(comps_at_neighbor) == 5  # one vertex over, the bound breaks


def v_split_sizes(t, v):
    return [p.size - 1 for p in v_split(t, v).parts]


def test_barycenter_equivalences_small():
    assert check_barycenter_equivalences(path_tree(5)).distance_argmin == (2,)
    rep = check_barycenter_equivalences(P4)
    assert rep.agreed and rep.joining_argmin == (1, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_barycenter_equivalences_exhaustive(n):
    for t in tree_classes(n):
        rep = check_barycenter_equivalences(t)
        assert rep.agreed
        assert list(rep.distance_argmin) == distance_argmin(t)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_join_decomposition_over_splits(n):
    for t in tree_classes(n):
        for v in range(n):
            if t.degree(v) < 2:
                continue
            parts = v_split(t, v).parts
            total = sum(joining_time(p.tree, p.center) for p in parts)
            assert total == joining_time(t, v)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bestmeet_witness_is_barycenter(n):
    for t in tree_classes(n):
        _, tied = t_bestmeet_set(t)
        assert set(tied) == set(barycenter(t).centers)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_monotone_dominance(n):
    for t in tree_classes(n):
        lo, _ = t_bestmeet(t)
        hi, _ = t_meet(t)
        k = kemeny(t)
        assert lo <= k <= hi
        assert (lo == k == hi) == (n <= 2)


def test_path_minimizers_match_parity_rule():
    for n in range(3, 12):
        js = joining_all(path_tree(n))
        best = min(js)
        argmin = {v for v in range(n) if js[v] == best}
        if n % 2 == 1:
            assert argmin == {(n - 1) // 2}
        else:
            assert argmin == {(n - 2) // 2, n // 2}


def test_large_instance_spot_check():
    # deep caterpillar assembled by hand, exercises the rerooted joining
    t = build_tree(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (7, 8), (8, 9)],
        10,
    )
    js = joining_all(t)
    assert js == [joining_time_by_definition(t, w) for w in range(10)]


def test_oracles_do_not_traverse_with_bfs_order(monkeypatch):
    # every fast statistic walks the tree with bfs_order; an oracle that
    # did too would share a fault with what it checks
    checked = {
        "bfs_distances",
        "distance_argmin",
        "distances",
        "hitting_matrix_by_linear_solve",
        "hitting_row_by_linear_solve",
        "hitting_time",
        "hitting_time_by_edge_decomposition",
        "joining_time_by_definition",
        "joining_time_by_linear_solve",
        "path_overlap",
    }
    public = {
        name
        for name, f in vars(oracles).items()
        if inspect.isfunction(f) and f.__module__ == oracles.__name__ and not name.startswith("_")
    }
    assert public == checked
    cases = []
    spider = build_tree([(0, 3), (3, 1), (3, 2), (2, 4), (4, 5)], 6)
    for t in (star_tree(5), broom_tree(7, 4), balanced_double_broom(9, 4), spider):
        prof = hitting_profile(t).matrix
        paths = [[trees.path_between(t, u, w) for w in range(t.n)] for u in range(t.n)]
        cases.append((t, prof, joining_all(t), barycenter(t).centers, paths))

    def refuse(*_):
        raise AssertionError("an oracle called bfs_order")

    monkeypatch.setattr(trees, "bfs_order", refuse)
    for t, prof, js, centers, paths in cases:
        n = t.n
        assert oracles.distance_argmin(t) == list(centers)
        dist = oracles.distances(t)
        assert oracles.hitting_matrix_by_linear_solve(t) == [list(row) for row in prof]
        for w in range(n):
            assert oracles.hitting_row_by_linear_solve(t, w) == [prof[u][w] for u in range(n)]
            assert oracles.joining_time_by_definition(t, w) == js[w]
            assert oracles.joining_time_by_linear_solve(t, w) == js[w]
            from_w = oracles.bfs_distances(t, w)
            for u in range(n):
                assert dist[u][w] == from_w[u] == len(paths[u][w]) - 1
                assert oracles.hitting_time(t, u, w) == prof[u][w]
                assert oracles.hitting_time_by_edge_decomposition(t, u, w) == prof[u][w]
                for v in range(n):
                    common = set(paths[u][w]) & set(paths[v][w])
                    assert oracles.path_overlap(t, u, v, w) == len(common) - 1


def test_a_dropped_tree_is_freed_after_its_statistics():
    # the rooted pass and the J vector live on the tree, so nothing else
    # holds the tree once the caller lets it go
    rng = random.Random(18)
    n = 2_000
    text = format_edge_list(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n))
    t = parse_edge_list(text)
    t_bestmeet(t), barycenter(t), diameter_and_geodesic(t)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
