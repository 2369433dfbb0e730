"""The first-step linear solve against the Fraction Gauss-Jordan loop it
replaced, kept here verbatim as a reference only: every class of orders
2..9 at every target, and random Prufer trees with n <= 40 at a random
target."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treewalk.enumeration import tree_classes
from treewalk.families import path_tree, star_tree
from treewalk.oracles import hitting_row_by_linear_solve, joining_time_by_linear_solve
from treewalk.trees import Tree, prufer_decode
from treewalk.walkstats import joining_all


def _fraction_gauss_jordan_row(t: Tree, w: int) -> list[Fraction]:
    n = t.n
    unknowns = [u for u in range(n) if u != w]
    index = {u: i for i, u in enumerate(unknowns)}
    m = n - 1
    # rows: deg(u) h_u - sum_{v in N(u), v != w} h_v = deg(u)
    a = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for u in unknowns:
        i = index[u]
        a[i][i] = Fraction(t.degree(u))
        a[i][m] = Fraction(t.degree(u))
        for v in t.adjacency[u]:
            if v != w:
                a[i][index[v]] -= 1
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = [Fraction(0)] * n
    for u in unknowns:
        out[u] = a[index[u]][m]
    return out


def _assert_solve_matches_reference(t: Tree, w: int) -> None:
    row = hitting_row_by_linear_solve(t, w)
    assert row == _fraction_gauss_jordan_row(t, w), (t, w)
    assert all(type(h) is Fraction for h in row)
    assert joining_time_by_linear_solve(t, w) == joining_all(t)[w]


@pytest.mark.parametrize("n", range(2, 10))
def test_linear_solve_matches_the_fraction_loop_on_every_class(n):
    for t in tree_classes(n):
        for w in range(n):
            _assert_solve_matches_reference(t, w)


@st.composite
def rooted_prufer_trees(draw, max_n: int = 40) -> tuple[Tree, int]:
    n = draw(st.integers(min_value=2, max_value=max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n), draw(st.integers(0, n - 1))


@settings(max_examples=50, deadline=None)
@given(rooted_prufer_trees())
@example((path_tree(1), 0))
@example((path_tree(40), 0))
@example((path_tree(40), 20))
@example((star_tree(40), 0))
@example((star_tree(40), 39))
def test_linear_solve_matches_the_fraction_loop(case):
    _assert_solve_matches_reference(*case)
