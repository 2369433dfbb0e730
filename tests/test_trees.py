import random
import tracemalloc
from itertools import permutations, product

import pytest

from treewalk.errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EntryOutOfRange,
    ParseError,
    SelfLoop,
    SplitAtLeaf,
    TreewalkError,
    VertexOutOfRange,
)
from treewalk import oracles, trees
from treewalk.families import balanced_double_broom, broom_tree, path_tree, star_tree
from treewalk.trees import (
    build_tree,
    canonical_form,
    diameter_and_geodesic,
    format_edge_list,
    parse_edge_list,
    prufer_decode,
    rooted_canonical_form,
    v_split,
)
from treewalk.oracles import distances


def test_build_smallest_tree():
    t = build_tree([(0, 1)], 2)
    assert t.n == 2 and t.edge_count == 1
    assert t.adjacency == ((1,), (0,))


def test_build_star_centered_at_one():
    t = build_tree([(0, 1), (1, 2), (1, 3)], 4)
    assert t.degree(1) == 3
    assert sorted(t.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected, match=r"\(0, 2\)"):
        build_tree([(0, 1), (1, 2), (0, 2)], 3)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop, match=r"\(1, 1\)"):
        build_tree([(0, 1), (1, 1)], 3)


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge, match=r"\(1, 0\)"):
        build_tree([(0, 1), (1, 0), (1, 2)], 4)


def test_build_rejects_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange, match=r"\(1, 3\)"):
        build_tree([(0, 1), (1, 3)], 3)


def test_build_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_tree([(0, 1), (2, 3)], 5)


def test_distances_path_and_star():
    assert distances(path_tree(4))[0][3] == 3
    s = star_tree(4)
    leaves = [v for v in range(4) if s.degree(v) == 1]
    assert distances(s)[leaves[0]][leaves[1]] == 2


def test_distances_broom_bristle_to_handle_end():
    b = broom_tree(11, 5)
    assert distances(b)[0][5] == 5


def test_diameter_path():
    assert diameter_and_geodesic(path_tree(5)) == (4, [0, 1, 2, 3, 4])


def test_diameter_star():
    d, geo = diameter_and_geodesic(star_tree(4))
    assert d == 2 and len(geo) == 3 and geo[1] == 1


def test_diameter_balanced_double_broom():
    d, geo = diameter_and_geodesic(balanced_double_broom(11, 5))
    assert d == 5 and len(geo) == 6


def test_diameter_runs_no_traversal_on_the_rooted_pass(monkeypatch):
    t = prufer_decode([3, 3, 7, 0, 9, 1, 1, 4], 10)
    t.rooted  # analyze and sweep have built it before they ask

    def no_traversal(*args):
        raise AssertionError("diameter_and_geodesic walked the tree")

    for name in ("bfs_order", "subtree_sizes"):
        monkeypatch.setattr(trees, name, no_traversal)
    monkeypatch.setattr(oracles, "bfs_distances", no_traversal)
    # the far end 6 hangs off vertex 0, so the path climbs to 0 from both ends
    assert diameter_and_geodesic(t) == (7, [2, 3, 7, 1, 4, 9, 0, 6])


def test_split_path_center():
    res = v_split(path_tree(3), 1)
    assert len(res.parts) == 2
    assert all(p.tree.n == 2 for p in res.parts)
    assert all(p.to_parent[p.center] == 1 for p in res.parts)


def test_split_figure_tree_sizes():
    # degree-3 hub with branches of 5, 5 and 2 vertices; the split parts
    # all re-include the hub
    edges = [
        (0, 1), (1, 2), (2, 3), (2, 4), (2, 5),
        (0, 6), (6, 7), (7, 8), (6, 9), (7, 10),
        (0, 11), (11, 12),
    ]
    t = build_tree(edges, 13)
    res = v_split(t, 0)
    assert sorted(p.size for p in res.parts) == [3, 6, 6]
    assert sum(p.size - 1 for p in res.parts) == t.n - 1


def test_split_double_broom_at_barycenter():
    from treewalk.walkstats import barycenter

    t = balanced_double_broom(9, 7)
    c = barycenter(t).centers[0]
    res = v_split(t, c)
    assert sorted(p.size for p in res.parts) == [5, 5]


@pytest.mark.parametrize("v", [-1, 4, 5])
def test_rooted_canonical_form_rejects_a_vertex_out_of_range(v):
    # -1 used to raise TypeError and 4 IndexError
    with pytest.raises(VertexOutOfRange, match=rf"vertex {v} outside 0\.\.3"):
        rooted_canonical_form(path_tree(4), v)


@pytest.mark.parametrize("v", [-1, 5])
def test_split_rejects_a_vertex_out_of_range(v):
    # -1 used to report the degree of vertex n-1
    with pytest.raises(VertexOutOfRange, match=rf"vertex {v} outside 0\.\.4"):
        v_split(star_tree(5), v)


@pytest.mark.parametrize("u,v,bad", [(0, -1, -1), (0, 9, 9), (-1, 0, -1)])
def test_path_between_rejects_a_vertex_out_of_range(u, v, bad):
    # -1 as the end used to end the path, -1 as the start to loop forever, 9 an IndexError
    with pytest.raises(VertexOutOfRange, match=rf"vertex {bad} outside 0\.\.4"):
        trees.path_between(path_tree(5), u, v)


@pytest.mark.parametrize("root", [-1, 5, 9])
@pytest.mark.parametrize("traversal", [trees.bfs_order, oracles.bfs_distances, trees.subtree_sizes])
def test_traversals_reject_a_root_out_of_range(traversal, root):
    # -1 used to return an order with a parent cycle, 9 a bare IndexError
    with pytest.raises(VertexOutOfRange, match=rf"vertex {root} outside 0\.\.4"):
        traversal(path_tree(5), root)


def test_forms_read_the_stored_rooted_pass_without_another_traversal(monkeypatch):
    # both forms, one centroid or two, far from vertex 0 or at it, read the pass
    # from vertex 0 stored on the tree and walk no BFS of their own
    shapes = [
        build_tree([(0, 4), (4, 2), (2, 5), (5, 1), (5, 3), (3, 6), (5, 7)], 8),
        build_tree([(0, 6), (6, 2), (2, 7), (7, 3), (3, 1), (3, 4), (3, 5)], 8),
        star_tree(6),
    ]
    expected = [(canonical_form(t), [rooted_canonical_form(t, r) for r in range(t.n)]) for t in shapes]
    fresh = [build_tree(list(t.edges()), t.n) for t in shapes]
    for t in fresh:
        t.rooted

    def refuse(*args):
        raise AssertionError("a canonical form walked the tree again")

    monkeypatch.setattr(trees, "bfs_order", refuse)
    monkeypatch.setattr(trees, "subtree_sizes", refuse)
    for t, (form, rooted) in zip(fresh, expected):
        assert canonical_form(t) == form
        assert [rooted_canonical_form(t, r) for r in range(t.n)] == rooted


def test_split_at_leaf_rejected():
    with pytest.raises(SplitAtLeaf):
        v_split(path_tree(3), 0)


def test_split_relabeling_maps_back():
    t = broom_tree(7, 4)
    res = v_split(t, 1)
    for part in res.parts:
        for u, v in part.tree.edges():
            pu, pv = part.to_parent[u], part.to_parent[v]
            assert pu in t.adjacency[pv]


def test_prufer_decode_base_cases():
    assert list(prufer_decode([], 2).edges()) == [(0, 1)]
    star = prufer_decode([0, 0], 4)
    assert star.degree(0) == 3
    path = prufer_decode([1, 2], 4)
    assert sorted(path.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_prufer_entry_out_of_range():
    with pytest.raises(EntryOutOfRange):
        prufer_decode([4], 3)
    with pytest.raises(EntryOutOfRange):
        prufer_decode([0], 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_prufer_bijection(n):
    # Cayley: the n^(n-2) codes name n^(n-2) distinct labeled trees
    edge_sets = {frozenset(prufer_decode(code, n).edges()) for code in product(range(n), repeat=n - 2)}
    assert len(edge_sets) == n ** (n - 2)


def test_canonical_isomorphic_paths_equal():
    p = path_tree(4)
    relabeled = build_tree([(2, 0), (0, 3), (3, 1)], 4)
    assert canonical_form(p) == canonical_form(relabeled)


def test_canonical_path_vs_star_differ():
    assert canonical_form(path_tree(4)) != canonical_form(star_tree(4))


def test_canonical_labeled_trees_on_four_vertices():
    codes = {
        canonical_form(prufer_decode(code, 4)) for code in product(range(4), repeat=2)
    }
    assert len(codes) == 2


def test_canonical_invariant_under_relabeling():
    base = broom_tree(6, 3)
    expected = canonical_form(base)
    for perm in list(permutations(range(6)))[:40]:
        edges = [(perm[u], perm[v]) for u, v in base.edges()]
        assert canonical_form(build_tree(edges, 6)) == expected


def test_canonical_form_of_a_long_path_stays_in_linear_memory():
    # a vertex with one child carries that child's code and a count of
    # pending wraps, so this path's code is written once, at the centroids;
    # wrapping at every vertex and keeping every code to the end costs
    # about 200 MB here, n**2/2 bytes
    p = path_tree(20000)
    tracemalloc.start()
    try:
        canonical_form(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def _relabeled(t: trees.Tree, perm: list[int]) -> trees.Tree:
    return build_tree([(perm[u], perm[v]) for u, v in t.edges()], t.n)


def _assert_centroids(t: trees.Tree) -> None:
    # the definition at every vertex, and the distance-sum oracle
    n = t.n
    by_definition = [v for v in range(n) if all(2 * s <= n for s in trees._components(t, v))]
    assert trees.centroids(t) == by_definition == oracles.distance_argmin(t), format_edge_list(t)


@pytest.mark.parametrize("n", range(1, 11))
def test_centroids_match_the_definition_on_every_class_wherever_vertex_0_sits(n):
    # every vertex of each class takes id 0 in turn, so the descent starts
    # at a leaf, on the heavy side of an inner vertex, or at a centroid;
    # three seeded relabelings of each class scatter the other ids too
    from treewalk.enumeration import enumerate_trees

    rng = random.Random(n)
    starts = set()
    for base in [path_tree(1)] if n == 1 else enumerate_trees(n):
        for x in range(n):
            perm = list(range(n))
            perm[0], perm[x] = x, 0
            t = _relabeled(base, perm)
            _assert_centroids(t)
            starts.add("centroid" if 0 in trees.centroids(t) else "leaf" if t.degree(0) == 1 else "inner")
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_centroids(_relabeled(base, perm))
    if n >= 5:
        assert starts == {"centroid", "leaf", "inner"}


def test_centroids_of_the_one_and_two_vertex_paths():
    assert trees.centroids(path_tree(1)) == [0]
    assert trees.centroids(path_tree(2)) == [0, 1]
    assert trees.centroids(build_tree([(1, 0)], 2)) == [0, 1]


@pytest.mark.parametrize("n", [3, 4, 9, 10, 101, 1000, 1001])
def test_centroids_of_a_path_from_an_end_labelled_either_way(n):
    # vertex 0 at one end, the other ids rising or falling along the path:
    # the descent walks n/2 steps to the middle vertex or the middle two
    for ids in (list(range(n)), [0, *range(n - 1, 0, -1)]):
        t = build_tree(list(zip(ids, ids[1:])), n)
        assert trees.centroids(t) == sorted({ids[(n - 1) // 2], ids[n // 2]})
        if n <= 101:
            _assert_centroids(t)


@pytest.mark.parametrize("n", [3, 4, 7, 30])
def test_centroid_of_a_star_is_its_hub_wherever_it_sits(n):
    for hub in range(n):
        t = build_tree([(hub, v) for v in range(n) if v != hub], n)
        assert trees.centroids(t) == [hub]
        _assert_centroids(t)


@pytest.mark.parametrize("seed", range(25))
def test_an_edge_between_two_halves_joins_two_centroids(seed):
    # two random trees of k vertices each, joined by one edge and relabeled
    # at random: that edge's ends are the two centroids
    rng = random.Random(seed)
    k = rng.randrange(1, 25)
    edges = [(rng.randrange(v), v) for v in range(1, k)]
    edges += [(k + u, k + v) for u, v in edges]
    a, b = rng.randrange(k), k + rng.randrange(k)
    perm = list(range(2 * k))
    rng.shuffle(perm)
    t = build_tree([(perm[u], perm[v]) for u, v in [*edges, (a, b)]], 2 * k)
    assert trees.centroids(t) == sorted((perm[a], perm[b]))
    _assert_centroids(t)


class _Recorded(tuple):
    """A tuple that notes every index read from it."""

    def __getitem__(self, i):
        self.reads.add(i)
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("seed", range(5))
def test_centroids_read_only_the_descent_from_vertex_0(seed):
    rng = random.Random(seed)
    n = 2000 + seed
    t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
    expected = trees.centroids(t)
    order, parent, size = t.rooted
    adj, sizes = _Recorded(t.adjacency), _Recorded(size)
    adj.reads, sizes.reads = set(), set()
    watched = trees.Tree(n, adj)
    watched.__dict__["rooted"] = (order, parent, sizes)
    assert trees.centroids(watched) == expected
    # the descent runs from vertex 0 to the centroid nearer it
    descent = set(trees._climb(t, min(expected, key=lambda c: len(trees._climb(t, c)))))
    assert adj.reads == descent
    assert sizes.reads <= descent.union(*(t.adjacency[v] for v in descent))


def test_centroids_allocate_no_array_of_the_tree_s_length():
    rng = random.Random(3)
    n = 20000
    t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
    t.rooted
    tracemalloc.start()
    try:
        trees.centroids(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n-long list alone takes 8n bytes
    assert peak < n


@pytest.mark.parametrize("n", [2, 4, 6, 7])
def test_diameter_consistent_with_distance_table(n):
    from treewalk.enumeration import tree_classes

    for t in tree_classes(n):
        d, geo = diameter_and_geodesic(t)
        table = distances(t)
        assert d == max(max(row) for row in table)
        assert len(geo) == d + 1
        assert all(v in t.adjacency[u] for u, v in zip(geo, geo[1:]))


def test_edge_list_round_trip():
    t = balanced_double_broom(11, 5)
    assert parse_edge_list(format_edge_list(t)).adjacency == t.adjacency


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ParseError) as err:
        parse_edge_list("4\n0 1\n1 2\n")
    assert err.value.line == 4


def test_parse_rejects_junk_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3\n0 1\nnope\n")
    assert err.value.line == 3


def test_parse_rejects_extra_lines():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2\n0 1\n0 1\n")
    assert err.value.line == 3


def _outcome(parse, text: str):
    """The tree a parser returns, or the class and message it raised."""
    try:
        return parse(text)
    except TreewalkError as e:
        return type(e), str(e)


# text -> whether the numpy pass reads it; every other text is left to the
# line parser, which must give the same tree or error either way
PARSE_CORPUS = {
    "plus-sign-id": ("3\n+1 0\n1 +2\n", False),
    "plus-sign-count": ("+2\n0 1\n", False),
    "underscore-id": ("11\n" + "".join(f"{i} {i + 1}\n" for i in range(9)) + "9 1_0\n", False),
    "underscore-out-of-range": ("2\n0 1_0\n", False),
    "leading-zeros": ("8\n" + "".join(f"{i} {i + 1:03d}\n" for i in range(7)), True),
    "leading-zeros-count": ("003\n0 1\n1 2\n", True),
    "arabic-indic-digits": ("\u0663\n\u0660 \u0661\n\u0661 \u0662\n", False),
    "nbsp-separator": ("3\n0\u00a01\n1 2\n", False),
    "tab-separators": ("3\n0\t1\n1 \t\t2\n", True),
    "no-final-newline": ("3\n0 1\n1 2", True),
    "trailing-blank-lines": ("3\n0 1\n1 2\n\n \t\n", True),
    "crlf": ("3\r\n0 1\r\n1 2\r\n", False),
    "one-vertex": ("1\n", True),
    "huge-count": (f"{10**20}\n0 1\n", False),
    "huge-id": (f"2\n0 {10**20}\n", False),
    "count-past-the-file": ("1000000000000\n0 1\n", False),
    "edge-past-the-count": ("3\n0 1\n1 2\n0 2\n", False),
    "out-of-range": ("3\n0 1\n1 3\n", False),
    "self-loop": ("3\n0 1\n2 2\n", False),
    "repeated-edge": ("3\n0 1\n1 0\n", False),
    "cycle": ("4\n0 1\n1 2\n2 0\n", False),
}


@pytest.mark.parametrize("text, fast", PARSE_CORPUS.values(), ids=PARSE_CORPUS)
def test_parse_routes_agree_on_the_corpus(text, fast):
    # no text may allocate anything of size n: "1000000000000\n0 1\n" must
    # end at its second edge line, before any array of 10**12 entries
    tracemalloc.start()
    try:
        got = _outcome(parse_edge_list, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert got == _outcome(trees._parse_lines, text)
    assert (trees._parse_well_formed(text) is not None) == fast


def test_numpy_pass_reads_well_formed_lists():
    rng = random.Random(12)
    n = 10_000
    t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
    assert trees._parse_well_formed(format_edge_list(t)) == t
    # the layout perfbench writes: edges in any order, either way round
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in t.edges()]
    rng.shuffle(edges)
    assert trees._parse_well_formed(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)) == t


def test_numpy_pass_leaves_the_rooted_pass_cached():
    # the pass that proves the edges are a tree is the one the statistics read
    t = parse_edge_list("5\n3 1\n0 3\n3 4\n2 4\n")
    assert vars(t)["rooted"] == ((0, 3, 1, 4, 2), (-1, 3, 4, 0, 3), (5, 1, 1, 4, 2))
    assert t.rooted is vars(t)["rooted"]
