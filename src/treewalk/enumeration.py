"""Exhaustive tree enumeration up to isomorphism.

Free trees are generated directly, one per isomorphism class, as level
sequences rooted at a center: the algorithm of Wright, Richmond, Odlyzko
and McKay, "Constant time generation of free trees" (SIAM J. Comput.
15(2), 1986), which walks Beyer and Hedetniemi's rooted-tree successor
(1980) and jumps over the runs that do not root a free tree at its
center. No two sequences name isomorphic trees, so nothing is
deduplicated. Representatives are labeled in preorder and emitted in
increasing canonical-code order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from .errors import CapExceeded
from .trees import Tree, _tree_from_adjacency, canonical_form

DEFAULT_CAP = 10


def _check_order(n: int, cap: int) -> None:
    if n < 2 or n > cap:
        raise CapExceeded(f"order {n} outside 2..{cap}")


def _free_level_sequences(n: int) -> Iterator[tuple[list[int], int]]:
    """Yield (level sequence, diameter) once per free tree of order n >= 2.

    The root has level 0 and sits at a center. Its first subtree T1 is the
    tallest; the rest R is the root with T1 removed. The sequence roots its
    tree at a center iff height(R) >= height(T1) - 1, where T1's height is
    counted from the root. When height(R) == height(T1) - 1 the tree has
    two centers and the edge between them splits it into T1 and R; the
    sequence is kept only when T1 is not larger than R, by size and then
    by level sequence, so each bicentral tree appears once. The yielded
    list is reused; copy it to keep it.

    Each step does O(n) list work rather than the paper's constant
    amortized bookkeeping; building each tree and its canonical form costs
    more (at order 16, about 3.5 and 5 times the time spent here).
    """
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        # m: start of R's subtrees (the root's second child, or n)
        m = next((i for i in range(2, n) if seq[i] == 1), n)
        h1 = max(seq[1:m])
        h2 = max(seq[m:], default=0)
        valid = h2 >= h1 - 1
        if valid and h2 == h1 - 1:
            left, rest = m - 1, n - m + 1
            valid = left < rest or (
                left == rest and [x - 1 for x in seq[1:m]] <= [0] + seq[m:]
            )
        if valid:
            yield seq, h1 + h2
            p = n - 1
            while seq[p] == 1:
                p -= 1
            if p == 0:
                return
        else:
            # every later sequence with this T1 fails as well: advance T1
            # itself, from its last vertex
            p = m - 1
        jumped = not valid and seq[p] > 2
        # Beyer-Hedetniemi step: from p on, repeat the pattern that starts
        # at p's parent q
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - p + q]
        if jumped:
            # the pattern moved every vertex after p into T1 and left R
            # empty; skip the invalid sequences that follow by restarting R
            # as a path as tall as T1, the largest R that can root T1 at a
            # center (5-8x fewer steps at orders 16-18)
            h = max(seq)
            seq[n - h:] = range(1, h + 1)


def _tree_from_levels(seq: list[int]) -> Tree:
    """Preorder-labeled tree of a level sequence: each vertex hangs from the
    latest vertex one level up."""
    n = len(seq)
    adj: list[list[int]] = [[] for _ in range(n)]
    last = [0] * n  # last[level] = most recent vertex at that level
    for v in range(1, n):
        level = seq[v]
        u = last[level - 1]
        adj[u].append(v)
        adj[v].append(u)
        last[level] = v
    return _tree_from_adjacency(adj)


def enumerate_trees(
    n: int,
    d_filter: Optional[int] = None,
    *,
    cap: int = DEFAULT_CAP,
) -> Iterator[Tree]:
    """Yield one representative per isomorphism class of trees of order n.

    Representatives come out in increasing canonical-code order, optionally
    restricted to diameter d_filter. Raises CapExceeded above the cap.
    """
    _check_order(n, cap)
    trees = [
        _tree_from_levels(seq)
        for seq, d in _free_level_sequences(n)
        if d_filter is None or d == d_filter
    ]
    yield from sorted(trees, key=canonical_form)


def tree_classes(n: int, cap: int = DEFAULT_CAP) -> tuple[Tree, ...]:
    """All isomorphism classes of order n, cached for reuse across audits.

    The cache holds one entry per order, whatever cap is passed; the cap
    is checked on every call. `tree_classes.cache_clear()` empties it.
    """
    _check_order(n, cap)
    return _classes(n)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Tree, ...]:
    return tuple(enumerate_trees(n, cap=n))


tree_classes.cache_clear = _classes.cache_clear


def tree_classes_with_diameter(n: int, d: int, cap: int = DEFAULT_CAP) -> tuple[Tree, ...]:
    from .trees import diameter_and_geodesic

    return tuple(t for t in tree_classes(n, cap) if diameter_and_geodesic(t)[0] == d)
