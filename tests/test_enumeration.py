import pytest

from treewalk.enumeration import enumerate_trees, tree_classes, tree_classes_with_diameter
from treewalk.errors import CapExceeded
from treewalk.trees import build_tree, canonical_form, diameter_and_geodesic

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
    only = list(enumerate_trees(7, d_filter=6))
    assert len(only) == 1
    d, _ = diameter_and_geodesic(only[0])
    assert d == 6


def test_diameter_filter_partition():
    total = sum(len(tree_classes_with_diameter(7, d)) for d in range(2, 7))
    assert total == len(tree_classes(7))
    for d in range(2, 10):
        filtered = [canonical_form(t) for t in enumerate_trees(10, d_filter=d)]
        assert filtered == [canonical_form(t) for t in tree_classes_with_diameter(10, d)]


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        list(enumerate_trees(11))
    with pytest.raises(CapExceeded):
        list(enumerate_trees(8, cap=7))


def test_cache_shared_across_cap_spellings():
    assert tree_classes(9) is tree_classes(9, 10) is tree_classes(9, cap=12)
    with pytest.raises(CapExceeded):
        tree_classes(9, cap=8)


def test_class_count_order_ten():
    assert len(tree_classes(10)) == 106
