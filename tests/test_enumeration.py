from collections import Counter

import pytest

from treewalk import enumeration
from treewalk.enumeration import enumerate_trees, extremal_table, tree_classes
from treewalk.errors import CapExceeded
from treewalk.trees import build_tree, canonical_form, diameter_and_geodesic
from treewalk.walkstats import joining_all

# OEIS A000055: free trees on n unlabeled vertices
KNOWN_CLASS_COUNTS = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235,
    12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


@pytest.mark.parametrize("n,count", sorted(KNOWN_CLASS_COUNTS.items()))
def test_class_counts_match_known_sequence(n, count):
    assert sum(1 for _ in enumerate_trees(n, cap=16)) == count


def test_representatives_are_valid_and_distinct():
    for n in range(2, 13):
        codes = [canonical_form(build_tree(list(t.edges()), t.n)) for t in enumerate_trees(n, cap=12)]
        assert all(a < b for a, b in zip(codes, codes[1:]))


@pytest.mark.parametrize("n", range(2, 13))
def test_classes_match_networkx(n):
    nx = pytest.importorskip("networkx")
    expected = {canonical_form(build_tree(list(g.edges()), n)) for g in nx.nonisomorphic_trees(n)}
    assert {canonical_form(t) for t in enumerate_trees(n, cap=12)} == expected


def test_deterministic_order():
    first = [canonical_form(t) for t in enumerate_trees(6)]
    second = [canonical_form(t) for t in enumerate_trees(6)]
    assert first == second == sorted(first)


def test_diameter_filter_path_only():
    only = [t for t in enumerate_trees(7) if diameter_and_geodesic(t)[0] == 6]
    assert len(only) == 1
    d, _ = diameter_and_geodesic(only[0])
    assert d == 6


def _with_diameter(n, d):
    return [t for t in tree_classes(n) if diameter_and_geodesic(t)[0] == d]


def test_diameter_filter_partition():
    # two independent diameter routes: the table's, from the level
    # sequences' heights, and diameter_and_geodesic's two farthest-vertex
    # sweeps over each built class
    for n in range(3, 11):
        by_table = {d: row.classes for d, row in extremal_table(n).items()}
        by_walk = Counter(diameter_and_geodesic(t)[0] for t in tree_classes(n))
        assert by_table == by_walk, n
        assert sum(by_table.values()) == KNOWN_CLASS_COUNTS[n]
    assert {d: row.classes for d, row in extremal_table(10).items()} == {
        2: 1, 3: 4, 4: 21, 5: 32, 6: 29, 7: 14, 8: 4, 9: 1,
    }


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        list(enumerate_trees(11))
    with pytest.raises(CapExceeded):
        list(enumerate_trees(8, cap=7))


def test_no_cap_reaches_past_the_enumeration_ceiling():
    enumeration._check_order(enumeration.ENUMERATION_CEILING, cap=40)
    for call in (
        lambda: list(enumerate_trees(19, cap=40)),
        lambda: tree_classes(19, cap=40),
        lambda: extremal_table(22, cap=40),
    ):
        with pytest.raises(CapExceeded, match="above the enumeration ceiling 18"):
            call()
    # the cap's own error still comes first
    with pytest.raises(CapExceeded, match="^order 19 outside 2..10$"):
        list(enumerate_trees(19))


def test_cache_shared_across_cap_spellings():
    assert tree_classes(9) is tree_classes(9, 10) is tree_classes(9, cap=12)
    with pytest.raises(CapExceeded):
        tree_classes(9, cap=8)


def test_class_count_order_ten():
    assert len(tree_classes(10)) == 106


@pytest.mark.parametrize("n", range(2, 11))
def test_extremal_table_matches_brute_force(n):
    by_d: dict[int, list] = {}
    for t in tree_classes(n):
        by_d.setdefault(diameter_and_geodesic(t)[0], []).append((min(joining_all(t)), t))
    table = extremal_table(n)
    assert list(table) == sorted(by_d)
    for d, vals in by_d.items():
        row = table[d]
        lo, hi = min(v for v, _ in vals), max(v for v, _ in vals)
        assert (row.classes, row.jmin_lo, row.jmin_hi) == (len(vals), lo, hi)
        # tree_classes lists the classes in canonical-code order, as the table does
        for got, target in ((row.minimizers, lo), (row.maximizers, hi)):
            assert [canonical_form(t) for t in got] == [canonical_form(t) for v, t in vals if v == target]


def test_extremal_table_cap_and_cache():
    assert extremal_table(9) is extremal_table(9, 10) is extremal_table(9, cap=12)
    with pytest.raises(CapExceeded):
        extremal_table(11)
    with pytest.raises(CapExceeded):
        extremal_table(9, cap=8)
    with pytest.raises(CapExceeded):
        extremal_table(1)
    warm_table, warm_classes = extremal_table(9), tree_classes(9)
    tree_classes.cache_clear()
    assert extremal_table(9) is not warm_table
    assert tree_classes(9) is not warm_classes
    assert extremal_table(9) == warm_table


def test_extremal_table_keeps_every_tied_class(monkeypatch):
    # no order up to 18 has two classes tied for an extremum of one
    # diameter, so every class is made to tie by zeroing J_min
    monkeypatch.setattr(enumeration, "_least_joining", lambda seq: 0)
    tree_classes.cache_clear()
    try:
        table = extremal_table(9)
    finally:
        tree_classes.cache_clear()
    for d, row in table.items():
        codes = [canonical_form(t) for t in _with_diameter(9, d)]
        assert (row.classes, row.jmin_lo, row.jmin_hi) == (len(codes), 0, 0)
        assert [canonical_form(t) for t in row.minimizers] == codes
        assert [canonical_form(t) for t in row.maximizers] == codes
