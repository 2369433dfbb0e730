"""Exact random-walk statistics on trees.

Everything here is integer or Fraction arithmetic; no floats. The walk is
the non-lazy nearest-neighbor chain, whose stationary weight at v is
deg(v)/2|E|. Hitting times H(u,w) are integers on unweighted trees, so the
scaled meeting time J(w) = sum_u deg(u) H(u,w) clears all denominators and
most computations stay in plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .trees import Tree, bfs_distances, bfs_order


def path_overlap(t: Tree, u: int, v: int, w: int) -> int:
    """Length of the intersection of the u->w and v->w paths.

    Equals (d(u,w) + d(v,w) - d(u,v)) / 2, always an integer on trees.
    """
    du = bfs_distances(t, u)
    dw = bfs_distances(t, w)
    return (du[w] + dw[v] - du[v]) // 2

def hitting_time(t: Tree, u: int, w: int) -> int:
    """Expected steps from u to w: sum over v of overlap(u,v;w) * deg(v).

    Reference implementation; hitting_profile computes the same numbers by
    subtree accumulation and is the one to use for whole matrices.
    """
    if u == w:
        return 0
    du = bfs_distances(t, u)
    dw = bfs_distances(t, w)
    duw = du[w]
    total = 0
    for v in range(t.n):
        total += (duw + dw[v] - du[v]) * t.degree(v)
    return total // 2


@dataclass(frozen=True)
class HittingProfile:
    """Full matrix of expected hitting times; entry [u][v] walks u -> v."""

    tree: Tree
    matrix: tuple[tuple[int, ...], ...]

    def __getitem__(self, uv: tuple[int, int]) -> int:
        return self.matrix[uv[0]][uv[1]]


def _subtree_sizes(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS order, parent array and subtree sizes rooted at `root`."""
    order, parent = bfs_order(t, root)
    size = [1] * t.n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            size[p] += size[u]
    return order, parent, size

def hitting_profile(t: Tree) -> HittingProfile:
    """All-pairs hitting times in O(n^2) by accumulating edge contributions.

    For u with parent p toward the target w, the step u->p costs
    2*size(u)-1 where size(u) counts u's side of the edge, and hitting
    times add along the unique path.
    """
    n = t.n
    rows = []
    for w in range(n):
        order, parent, size = _subtree_sizes(t, w)
        h = [0] * n
        for u in order:
            p = parent[u]
            if p >= 0:
                h[u] = h[p] + 2 * size[u] - 1
        rows.append(tuple(h))
    # rows are target-major; transpose so matrix[u][v] = H(u, v)
    matrix = tuple(tuple(rows[v][u] for v in range(n)) for u in range(n))
    return HittingProfile(tree=t, matrix=matrix)


def joining_time(t: Tree, w: int) -> int:
    """Scaled meeting time J(w) = sum_u deg(u) H(u,w); an integer."""
    order, parent, size = _subtree_sizes(t, w)
    h = [0] * t.n
    total = 0
    for u in order:
        p = parent[u]
        if p >= 0:
            h[u] = h[p] + 2 * size[u] - 1
            total += t.degree(u) * h[u]
    return total


def joining_all(t: Tree) -> list[int]:
    """J(w) for every w in O(n) total, by rerooting across each edge.

    Crossing edge (p,u) toward u changes the target side for the vertices
    behind the edge only, so J(u) = J(p) + h(p->u)*D(p side) - h(u->p)*D(u
    side), with h the per-edge hitting cost and D the side's degree sum.
    """
    n = t.n
    if n == 1:
        return [0]
    order, parent, size = _subtree_sizes(t, 0)
    degsum = [t.degree(v) for v in range(n)]
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            degsum[p] += degsum[u]
    total_deg = 2 * (n - 1)
    j = [0] * n
    acc = 0
    h = [0] * n
    for u in order:
        p = parent[u]
        if p >= 0:
            h[u] = h[p] + 2 * size[u] - 1
            acc += t.degree(u) * h[u]
    j[0] = acc
    for u in order:
        p = parent[u]
        if p >= 0:
            up_cost = 2 * size[u] - 1                  # crossing u -> p
            down_cost = 2 * (n - size[u]) - 1          # crossing p -> u
            d_here = degsum[u]
            j[u] = j[p] + down_cost * (total_deg - d_here) - up_cost * d_here
    return j


def meeting_time(t: Tree, w: int) -> Fraction:
    """Expected hitting time to w from a stationary start: J(w)/2|E|."""
    return Fraction(joining_time(t, w), 2 * (t.n - 1))


def _extreme(js: list[int], want_max: bool) -> tuple[int, int, list[int]]:
    best = max(js) if want_max else min(js)
    tied = [v for v, val in enumerate(js) if val == best]
    return best, tied[0], tied


def t_meet(t: Tree) -> tuple[Fraction, int]:
    """Maximum meeting time over targets, with the smallest argmax id."""
    best, witness, _ = _extreme(joining_all(t), want_max=True)
    return Fraction(best, 2 * (t.n - 1)), witness


def t_meet_set(t: Tree) -> tuple[Fraction, list[int]]:
    best, _, tied = _extreme(joining_all(t), want_max=True)
    return Fraction(best, 2 * (t.n - 1)), tied


def t_bestmeet(t: Tree) -> tuple[Fraction, int]:
    """Minimum meeting time over targets, with the smallest argmin id."""
    best, witness, _ = _extreme(joining_all(t), want_max=False)
    return Fraction(best, 2 * (t.n - 1)), witness


def t_bestmeet_set(t: Tree) -> tuple[Fraction, list[int]]:
    best, _, tied = _extreme(joining_all(t), want_max=False)
    return Fraction(best, 2 * (t.n - 1)), tied


def joining_extremes(t: Tree) -> tuple[int, int]:
    js = joining_all(t)
    return min(js), max(js)


def kemeny(t: Tree) -> Fraction:
    """Kemeny's constant: the stationary average of the meeting times."""
    js = joining_all(t)
    total = sum(t.degree(v) * js[v] for v in range(t.n))
    return Fraction(total, (2 * (t.n - 1)) ** 2)


@dataclass(frozen=True)
class BarycenterResult:
    """Barycenter vertex (or two adjacent ones) with the component-size
    witness that certifies each center: all parts of t - c have <= n/2
    vertices."""

    centers: tuple[int, ...]
    component_bound_witness: tuple[tuple[int, ...], ...]


def barycenter(t: Tree) -> BarycenterResult:
    n = t.n
    order, parent, size = _subtree_sizes(t, 0)
    centers = []
    witnesses = []
    for v in range(n):
        comps = [size[w] for w in t.adjacency[v] if w != parent[v]]
        if v != 0:
            comps.append(n - size[v])
        if all(2 * c <= n for c in comps):
            centers.append(v)
            witnesses.append(tuple(sorted(comps, reverse=True)))
    return BarycenterResult(centers=tuple(centers), component_bound_witness=tuple(witnesses))


@dataclass(frozen=True)
class BarycenterEquivalenceReport:
    """Vertex sets computed by the four equivalent barycenter criteria."""

    distance_argmin: tuple[int, ...]
    hitting_dominated: tuple[int, ...]
    joining_argmin: tuple[int, ...]
    component_bounded: tuple[int, ...]

    @property
    def agreed(self) -> bool:
        return (
            self.distance_argmin
            == self.hitting_dominated
            == self.joining_argmin
            == self.component_bounded
        )


def check_barycenter_equivalences(t: Tree) -> BarycenterEquivalenceReport:
    """Evaluate all four barycenter criteria on every vertex; the report's
    `agreed` says whether the four vertex sets coincide."""
    n = t.n
    dist_sums = [sum(bfs_distances(t, v)) for v in range(n)]
    best_sum = min(dist_sums)
    set_a = tuple(v for v in range(n) if dist_sums[v] == best_sum)

    profile = hitting_profile(t).matrix
    set_b = tuple(
        c for c in range(n) if all(profile[v][c] <= profile[c][v] for v in range(n))
    )

    js = joining_all(t)
    best_j = min(js)
    set_c = tuple(v for v in range(n) if js[v] == best_j)

    set_d = barycenter(t).centers

    return BarycenterEquivalenceReport(set_a, set_b, set_c, set_d)
