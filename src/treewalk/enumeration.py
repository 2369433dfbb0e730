"""Exhaustive tree enumeration up to isomorphism.

Free trees are generated directly, one per isomorphism class, as level
sequences rooted at a center: the algorithm of Wright, Richmond, Odlyzko
and McKay, "Constant time generation of free trees" (SIAM J. Comput.
15(2), 1986), which walks Beyer and Hedetniemi's rooted-tree successor
(1980) and jumps over the runs that do not root a free tree at its
center. No two sequences name isomorphic trees, so nothing is
deduplicated. Representatives are labeled in preorder and emitted in
increasing canonical-code order.

`extremal_table` streams the same sequences once per order and keeps, per
diameter, only what the extremal audits read: the class count, the least
and greatest minimum joining time, and the classes that attain them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import CapExceeded
from .trees import Tree, _tree_from_adjacency, canonical_form

DEFAULT_CAP = 10
# no cap reaches past this order: order 18 has 123,867 classes, which the
# extremal table streams in about 1.5 s, and each order costs about 2.6
# times the one before
ENUMERATION_CEILING = 18


def _check_order(n: int, cap: int) -> None:
    if n < 2 or n > cap:
        raise CapExceeded(f"order {n} outside 2..{cap}")
    if n > ENUMERATION_CEILING:
        raise CapExceeded(f"order {n} above the enumeration ceiling {ENUMERATION_CEILING}")


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


def enumerate_trees(n: int, *, cap: int = DEFAULT_CAP) -> Iterator[Tree]:
    """Yield one representative per isomorphism class of trees of order n.

    Representatives come out in increasing canonical-code order. Raises
    CapExceeded above the cap.
    """
    _check_order(n, cap)
    trees = [_tree_from_levels(seq) for seq, _ in _free_level_sequences(n)]
    # each key is taken on a throwaway copy, so the yielded trees do not keep
    # the rooted passes that canonical_form stores on the tree it reads
    yield from sorted(trees, key=lambda t: canonical_form(Tree(t.n, t.adjacency)))


def tree_classes(n: int, cap: int = DEFAULT_CAP) -> tuple[Tree, ...]:
    """All isomorphism classes of order n, cached for reuse across audits.

    The cache holds one entry per order, whatever cap is passed; the cap
    is checked on every call. `tree_classes.cache_clear()` empties it and
    the extremal_table cache.

    A class keeps its rooted pass and J vector (`Tree.rooted`,
    `Tree.joining`) only once a statistic has been asked of it: O(n) ints,
    at most about the size of the class's own adjacency.
    """
    _check_order(n, cap)
    return _classes(n)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Tree, ...]:
    return tuple(enumerate_trees(n, cap=n))


@dataclass(frozen=True)
class DiameterRow:
    """The classes of one order and diameter, as the extremal audits see
    them: how many there are, the least and greatest J_min (the minimum
    joining time, 2(n-1) times T_bestmeet) among them, and the classes
    attaining each, in increasing canonical-code order."""

    classes: int
    jmin_lo: int
    jmin_hi: int
    minimizers: tuple[Tree, ...]
    maximizers: tuple[Tree, ...]


def extremal_table(n: int, cap: int = DEFAULT_CAP) -> Mapping[int, DiameterRow]:
    """Diameter -> DiameterRow over every class of order n, in increasing
    diameter, from one pass over the level sequences that builds a Tree
    only for the attaining classes. Cached per order like tree_classes;
    the cap is checked on every call."""
    _check_order(n, cap)
    return _table(n)


def _least_joining(seq: list[int]) -> int:
    """J_min of a level sequence's tree, from subtree sizes alone.

    J(w) sums (2s-1)^2 over the edges, with s the size of each edge's side
    away from w, and rerooting from p to its child u swaps one edge's term
    for its other side's: J(u) = J(p) + 4(n-1)(n-2s). At a centroid every
    edge's far side is its smaller one, so J_min sums (2 min(s, n-s) - 1)^2.
    The sizes come from a reverse scan: acc[l] collects the sizes of the
    pending vertices at level l until their parent, the next vertex one
    level up, takes them.
    """
    n = len(seq)
    acc = [0] * (n + 1)
    j = 0
    for v in range(n - 1, 0, -1):
        level = seq[v]
        s = 1 + acc[level + 1]
        acc[level + 1] = 0
        acc[level] += s
        j += (2 * min(s, n - s) - 1) ** 2
    return j


@lru_cache(maxsize=None)
def _table(n: int) -> Mapping[int, DiameterRow]:
    # d -> [count, least J_min, its sequences, greatest J_min, its sequences]
    stats: dict[int, list] = {}
    for seq, d in _free_level_sequences(n):
        j = _least_joining(seq)
        row = stats.get(d)
        if row is None:
            stats[d] = [1, j, [seq[:]], j, [seq[:]]]
            continue
        row[0] += 1
        if j < row[1]:
            row[1:3] = j, [seq[:]]
        elif j == row[1]:
            row[2].append(seq[:])
        if j > row[3]:
            row[3:5] = j, [seq[:]]
        elif j == row[3]:
            row[4].append(seq[:])

    def classes(seqs: list[list[int]]) -> tuple[Tree, ...]:
        return tuple(sorted(map(_tree_from_levels, seqs), key=canonical_form))

    return MappingProxyType(
        {
            d: DiameterRow(count, lo, hi, classes(lo_seqs), classes(hi_seqs))
            for d, (count, lo, lo_seqs, hi, hi_seqs) in sorted(stats.items())
        }
    )


def _clear_caches() -> None:
    _classes.cache_clear()
    _table.cache_clear()


tree_classes.cache_clear = _clear_caches
