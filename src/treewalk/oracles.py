"""Independent computation routes used to cross-check the main statistics.

Each oracle recomputes a quantity from a different principle than the
walkstats implementations: exact Gaussian elimination on the first-step
system, per-edge component counting for the edge-decomposition route,
distance sums over path overlaps for single hitting times, and plain
distance sums for the barycenter. The solve is naive dense
elimination, independent of the fast paths. The oracles own their
traversal, the reference BFS `bfs_distances` (with the all-pairs
`distances` table on it), which no fast statistic calls: those read the
rooted pass that `trees.bfs_order` builds. From the package this module imports only `Tree` and
`check_vertex`, and only `audit` sets an oracle beside a fast route.
Every oracle checks each vertex id it takes before anything else.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .trees import Tree, check_vertex


def bfs_distances(t: Tree, src: int) -> list[int]:
    """Distances in edges from one source vertex."""
    check_vertex(t, src)
    dist = [-1] * t.n
    dist[src] = 0
    queue = deque([src])
    adj = t.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def distances(t: Tree) -> tuple[tuple[int, ...], ...]:
    """All-pairs distance table via n breadth-first traversals."""
    return tuple(tuple(bfs_distances(t, s)) for s in range(t.n))


def _first_step_solve(t: Tree, w: int) -> tuple[list[int], int]:
    """Solve the first-step equations h_u = 1 + mean of h over neighbors,
    h_w = 0, by fraction-free Gauss-Jordan elimination (Bareiss, Math.
    Comp. 22, 1968) over the integers.

    Returns (x, det) with H(u, w) = x[u] / det for every u (x[w] = 0). Each
    step replaces every entry off the pivot column by the 2x2 determinant
    with the pivot, divided by the previous pivot. The division is exact,
    since every entry is a minor of the system up to sign, and at the end
    every diagonal entry equals the last pivot.
    """
    check_vertex(t, w)
    n = t.n
    unknowns = [u for u in range(n) if u != w]
    index = {u: i for i, u in enumerate(unknowns)}
    m = n - 1
    # rows: deg(u) h_u - sum_{v in N(u), v != w} h_v = deg(u)
    a = [[0] * (m + 1) for _ in range(m)]
    for u in unknowns:
        i = index[u]
        a[i][i] = a[i][m] = t.degree(u)
        for v in t.adjacency[u]:
            if v != w:
                a[i][index[v]] -= 1
    prev = 1
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pivot_row = a[col]
        p = pivot_row[col]
        for r in range(m):
            if r != col:
                row = a[r]
                f = row[col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    x = [0] * n
    for u in unknowns:
        x[u] = a[index[u]][m]
    return x, prev


def hitting_row_by_linear_solve(t: Tree, w: int) -> list[Fraction]:
    """H(u, w) for all u, from the exact solve of the first-step system."""
    x, det = _first_step_solve(t, w)
    return [Fraction(v, det) for v in x]


def hitting_matrix_by_linear_solve(t: Tree) -> list[list[Fraction]]:
    cols = [hitting_row_by_linear_solve(t, w) for w in range(t.n)]
    return [[cols[w][u] for w in range(t.n)] for u in range(t.n)]


def path_overlap(t: Tree, u: int, v: int, w: int) -> int:
    """Length of the intersection of the u->w and v->w paths.

    Equals (d(u,w) + d(v,w) - d(u,v)) / 2, always an integer on trees.
    """
    check_vertex(t, v)
    du = bfs_distances(t, u)
    dw = bfs_distances(t, w)
    return (du[w] + dw[v] - du[v]) // 2


def hitting_time(t: Tree, u: int, w: int) -> int:
    """Expected steps from u to w: sum over v of overlap(u,v;w) * deg(v),
    from two BFS distance rows. walkstats accumulates the same numbers
    along subtree sizes instead."""
    check_vertex(t, u)
    check_vertex(t, w)
    if u == w:
        return 0
    du = bfs_distances(t, u)
    dw = bfs_distances(t, w)
    duw = du[w]
    total = 0
    for v in range(t.n):
        total += (duw + dw[v] - du[v]) * t.degree(v)
    return total // 2


def _edges_on_side(t: Tree, a: int, b: int) -> int:
    """Edge count of the component of t - (a,b) that contains a; the
    component is itself a tree, so edges = vertices - 1."""
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for v in t.adjacency[u]:
            if u == a and v == b:
                continue
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) - 1


def hitting_time_by_edge_decomposition(t: Tree, u: int, w: int) -> int:
    """Sum per-edge costs 2*m_a + 1 along the u..w path, where m_a counts
    the edges on a's side of the edge being crossed. The path runs downhill
    in the distances to w: each step goes to the one neighbor nearer w."""
    check_vertex(t, u)
    dist = bfs_distances(t, w)
    total = 0
    a = u
    while a != w:
        b = next(x for x in t.adjacency[a] if dist[x] < dist[a])
        total += 2 * _edges_on_side(t, a, b) + 1
        a = b
    return total


def joining_time_by_definition(t: Tree, w: int) -> int:
    """J(w) as literally sum deg(u) * H(u,w) over the edge-decomposition
    hitting times."""
    return sum(
        t.degree(u) * hitting_time_by_edge_decomposition(t, u, w)
        for u in range(t.n)
        if u != w
    )


def joining_time_by_linear_solve(t: Tree, w: int) -> Fraction:
    x, det = _first_step_solve(t, w)
    return Fraction(sum(t.degree(u) * x[u] for u in range(t.n)), det)


def distance_argmin(t: Tree) -> list[int]:
    """Vertices minimizing the total distance to all others."""
    sums = [sum(bfs_distances(t, v)) for v in range(t.n)]
    best = min(sums)
    return [v for v in range(t.n) if sums[v] == best]
