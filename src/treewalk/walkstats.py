"""Exact random-walk statistics on trees.

Everything here is integer or Fraction arithmetic; no floats. The walk is
the non-lazy nearest-neighbor chain, whose stationary weight at v is
deg(v)/2|E|. Hitting times H(u,w) are integers on unweighted trees, so the
scaled meeting time J(w) = sum_u deg(u) H(u,w) clears all denominators and
most computations stay in plain ints.

J at every vertex comes from one rerooting pass over the rooted pass from
vertex 0; both are stored on the tree (`Tree.joining`, `Tree.rooted`), so
`joining_all`, `t_meet`, `t_bestmeet`, `kemeny` and `barycenter` on one
tree run each pass once. The single-target `joining_time` accumulates
from its own target and stays an independent check on that identity.
`_least_joining` is the one reader of J_min off a tree: one term per edge
of the rooted pass's subtree sizes, with no rerooting pass. The rewrite
traces read it, and so do the J_min and T_bestmeet entries of
`QUANTITIES`, the one table of named whole-tree quantities and how each
is read off a tree, which `sweep --quantity` and the ledger's ground
truths read. What needs the argmin, as `t_bestmeet` does, reads the
rerooting pass.

Nothing here imports an oracle. The proposition's four-way barycenter
check, which sets `barycenter`, `hitting_profile` and `joining_all`
beside the oracles' distance sums, lives in `audit`, above the audit
that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable

from .errors import TooFewVertices
from .trees import Tree, _components, centroids, check_vertex, subtree_sizes


@dataclass(frozen=True)
class HittingProfile:
    """Full matrix of expected hitting times; entry [u][v] walks u -> v."""

    tree: Tree
    matrix: tuple[tuple[int, ...], ...]

    def __getitem__(self, uv: tuple[int, int]) -> int:
        return self.matrix[uv[0]][uv[1]]


def _hits_into(t: Tree, w: int) -> list[int]:
    """H(u, w) for every u, accumulated outward from the target w.

    For u with parent p toward w, the step u->p costs 2*size(u)-1 where
    size(u) counts u's side of the edge, and hitting times add along the
    unique path.
    """
    order, parent, size = subtree_sizes(t, w)
    h = [0] * t.n
    for u in order[1:]:
        h[u] = h[parent[u]] + 2 * size[u] - 1
    return h


def hitting_profile(t: Tree) -> HittingProfile:
    """All-pairs hitting times in O(n^2), one accumulation per target."""
    rows = [_hits_into(t, w) for w in range(t.n)]
    # rows are target-major; transpose so matrix[u][v] = H(u, v)
    return HittingProfile(tree=t, matrix=tuple(zip(*rows)))


def joining_time(t: Tree, w: int) -> int:
    """Scaled meeting time J(w) = sum_u deg(u) H(u,w); an integer."""
    check_vertex(t, w)
    return sum(len(a) * h for a, h in zip(t.adjacency, _hits_into(t, w)))


def joining_all(t: Tree) -> list[int]:
    """J(w) for every w, as a fresh list the caller may keep or change;
    the rerooting pass behind it is `Tree.joining`."""
    return list(t.joining)


def _least_joining(t: Tree) -> int:
    """J_min of t, from its rooted pass's subtree sizes alone.

    At a centroid every edge's far side is its smaller one, so J_min sums
    (2 min(s, n-s) - 1)^2 over the edges; `enumeration._least_joining`
    derives the identity. The rerooting pass (`Tree.joining`) is not run,
    and a conditional stands in for min(), a call per edge."""
    n = t.n
    return sum([(2 * s - 1 if 2 * s <= n else 2 * (n - s) - 1) ** 2 for s in t.rooted[2][1:]])


def _two_edges(t: Tree) -> int:
    """2|E|, the denominator of every meeting time."""
    if t.n < 2:
        raise TooFewVertices("meeting times need at least one edge; the tree has one vertex")
    return 2 * (t.n - 1)


def meeting_time(t: Tree, w: int) -> Fraction:
    """Expected hitting time to w from a stationary start: J(w)/2|E|."""
    return Fraction(joining_time(t, w), _two_edges(t))


def t_meet(t: Tree) -> tuple[Fraction, int]:
    """Maximum meeting time over targets, with the smallest argmax id."""
    js = joining_all(t)
    best = max(js)
    return Fraction(best, _two_edges(t)), js.index(best)


def t_meet_set(t: Tree) -> tuple[Fraction, list[int]]:
    js = joining_all(t)
    best = max(js)
    return Fraction(best, _two_edges(t)), [v for v, j in enumerate(js) if j == best]


def t_bestmeet(t: Tree) -> tuple[Fraction, int]:
    """Minimum meeting time over targets, with the smallest argmin id."""
    js = joining_all(t)
    best = min(js)
    return Fraction(best, _two_edges(t)), js.index(best)


def t_bestmeet_set(t: Tree) -> tuple[Fraction, list[int]]:
    js = joining_all(t)
    best = min(js)
    return Fraction(best, _two_edges(t)), [v for v, j in enumerate(js) if j == best]


def kemeny(t: Tree) -> Fraction:
    """Kemeny's constant: the stationary average of the meeting times."""
    total = sum(map(mul, map(len, t.adjacency), joining_all(t)))
    return Fraction(total, _two_edges(t) ** 2)


# Each entry looks its statistic up at call time, so a rebound one is seen.
QUANTITIES: dict[str, Callable[[Tree], Fraction]] = {
    "t_bestmeet": lambda t: Fraction(_least_joining(t), _two_edges(t)),
    "t_meet": lambda t: t_meet(t)[0],
    "kemeny": lambda t: kemeny(t),
    "j_min": lambda t: Fraction(_least_joining(t)),
    "j_max": lambda t: Fraction(max(joining_all(t))),
}


@dataclass(frozen=True)
class BarycenterResult:
    """Barycenter vertex (or two adjacent ones) with the component-size
    witness that certifies each center: all parts of t - c have <= n/2
    vertices."""

    centers: tuple[int, ...]
    component_bound_witness: tuple[tuple[int, ...], ...]


def barycenter(t: Tree) -> BarycenterResult:
    """The centroids, each with its component sizes in descending order."""
    centers = tuple(centroids(t))
    witnesses = tuple(tuple(sorted(_components(t, c), reverse=True)) for c in centers)
    return BarycenterResult(centers=centers, component_bound_witness=witnesses)
