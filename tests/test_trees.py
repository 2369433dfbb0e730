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
from treewalk import trees
from treewalk.families import balanced_double_broom, broom_tree, path_tree, star_tree
from treewalk.trees import (
    build_tree,
    canonical_form,
    diameter_and_geodesic,
    distances,
    format_edge_list,
    parse_edge_list,
    prufer_decode,
    v_split,
)


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


def test_diameter_runs_one_bfs_on_the_rooted_pass(monkeypatch):
    t = prufer_decode([3, 3, 7, 0, 9, 1, 1, 4], 10)
    trees.rooted_pass(t)  # analyze and sweep have built it before they ask
    roots = []
    real = trees.bfs_order
    monkeypatch.setattr(trees, "bfs_order", lambda t, root: roots.append(root) or real(t, root))
    monkeypatch.setattr(trees, "bfs_distances", None)
    d, geo = diameter_and_geodesic(t)
    # the one BFS runs from the far end that the rooted pass found
    assert len(roots) == 1 and roots[0] in (geo[0], geo[-1])


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
    # each child's code is dropped once its parent's is built; keeping every
    # vertex's code to the end costs about 200 MB on this path, n**2/2 bytes
    p = path_tree(20000)
    tracemalloc.start()
    try:
        canonical_form(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


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
    trees.rooted_pass.cache_clear()
    t = parse_edge_list("5\n3 1\n0 3\n3 4\n2 4\n")
    assert trees.rooted_pass.cache_info().misses == 1
    assert trees.rooted_pass(t) == ((0, 3, 1, 4, 2), (-1, 3, 4, 0, 3), (5, 1, 1, 4, 2))
    assert trees.rooted_pass.cache_info().hits == 1
