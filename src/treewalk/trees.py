"""Immutable trees over dense integer vertex ids.

Construction with full validation, BFS distances, the cached rooted pass
from vertex 0, diameter with a witness geodesic, vertex splits, Prufer
encoding/decoding, and centroid-rooted canonical forms (equal byte codes
iff the trees are isomorphic).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EntryOutOfRange,
    ParseError,
    SelfLoop,
    SplitAtLeaf,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Tree:
    """Connected acyclic graph on vertices 0..n-1 with sorted adjacency."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return self.n - 1

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def is_leaf(self, v: int) -> bool:
        return len(self.adjacency[v]) == 1

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self.edges())})"


def _tree_from_adjacency(adj: Sequence[Sequence[int]]) -> Tree:
    """Wrap an adjacency structure without re-validating; internal use."""
    return Tree(len(adj), tuple(tuple(sorted(nbrs)) for nbrs in adj))


def build_tree(edges: Sequence[tuple[int, int]], n: int) -> Tree:
    """Validate an edge list and return the Tree it spans.

    Raises CycleDetected / Disconnected / DuplicateEdge / SelfLoop /
    VertexOutOfRange; edge-shaped errors name the offending edge.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) repeats an earlier edge")
        seen.add(key)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
        adj[u].append(v)
        adj[v].append(u)
    if len(seen) != n - 1:
        missing = next(v for v in range(n) if find(v) != find(0))
        raise Disconnected(f"{len(seen)} edges on {n} vertices; vertex {missing} unreachable from 0")
    return _tree_from_adjacency(adj)


def bfs_distances(t: Tree, src: int) -> list[int]:
    """Distances in edges from one source vertex."""
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


def bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """BFS visit order and parent array (parent[root] = -1)."""
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    adj = t.adjacency
    for u in order:
        for v in adj[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    parent[root] = -1
    return order, parent


def path_between(t: Tree, u: int, v: int) -> list[int]:
    """The unique u..v path, endpoints included."""
    _, parent = bfs_order(t, u)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def subtree_sizes(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS order, parent array and subtree sizes rooted at `root`."""
    order, parent = bfs_order(t, root)
    size = [1] * t.n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            size[p] += size[u]
    return order, parent, size


@lru_cache(maxsize=1)
def rooted_pass(t: Tree) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """subtree_sizes from vertex 0, frozen. Every statistic of one tree
    reads this single pass; the cache holds the last tree asked about."""
    order, parent, size = subtree_sizes(t, 0)
    return tuple(order), tuple(parent), tuple(size)


def diameter_and_geodesic(t: Tree) -> tuple[int, list[int]]:
    """Diameter and one witness path, found by double BFS.

    Ties break toward the smallest vertex id; the returned path runs from
    its smaller endpoint to its larger one.
    """
    dist = bfs_distances(t, 0)
    a = dist.index(max(dist))
    order, parent = bfs_order(t, a)
    depth = [0] * t.n
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    d = depth[order[-1]]
    b = depth.index(d)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return d, path if b < a else path[::-1]


@dataclass(frozen=True)
class SplitPart:
    """One subtree of a v-split, with its relabeling back to the parent tree."""

    tree: Tree
    to_parent: tuple[int, ...]  # to_parent[local id] = parent-tree id
    center: int  # local id of the split vertex

    @property
    def size(self) -> int:
        return self.tree.n


@dataclass(frozen=True)
class SplitResult:
    center: int
    parts: tuple[SplitPart, ...]


def v_split(t: Tree, v: int) -> SplitResult:
    """Split t at v into deg(v) subtrees, each re-attached to v.

    Parts are ordered by the split vertex's sorted neighbor list.
    """
    if t.degree(v) < 2:
        raise SplitAtLeaf(f"vertex {v} has degree {t.degree(v)}; need >= 2 to split")
    parts = []
    for w in t.adjacency[v]:
        comp = [v, w]
        seen = {v, w}
        head = 1
        while head < len(comp):
            u = comp[head]
            head += 1
            for x in t.adjacency[u]:
                if x not in seen:
                    seen.add(x)
                    comp.append(x)
        local_ids = sorted(comp)
        index = {p: i for i, p in enumerate(local_ids)}
        adj: list[list[int]] = [[] for _ in local_ids]
        for u in comp:
            if u == v:
                # only w neighbors the split vertex inside this part
                adj[index[v]].append(index[w])
            else:
                for x in t.adjacency[u]:
                    adj[index[u]].append(index[x])
        part = _tree_from_adjacency(adj)
        parts.append(SplitPart(tree=part, to_parent=tuple(local_ids), center=index[v]))
    return SplitResult(center=v, parts=tuple(parts))


def prufer_decode(code: Sequence[int], n: int) -> Tree:
    """Decode a length n-2 Prufer sequence into the labeled tree it names."""
    if n < 2:
        raise EntryOutOfRange(f"decoding needs n >= 2, got {n}")
    if len(code) != n - 2:
        raise EntryOutOfRange(f"code length {len(code)} != n-2 = {n - 2}")
    for c in code:
        if not (0 <= c < n):
            raise EntryOutOfRange(f"code entry {c} outside 0..{n - 1}")
    adj: list[list[int]] = [[] for _ in range(n)]
    deg = [1] * n
    for c in code:
        deg[c] += 1
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for c in code:
        adj[leaf].append(c)
        adj[c].append(leaf)
        deg[c] -= 1
        if deg[c] == 1 and c < ptr:
            leaf = c
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    return _tree_from_adjacency(adj)


def prufer_encode(t: Tree) -> tuple[int, ...]:
    """Inverse of prufer_decode on labeled trees."""
    n = t.n
    if n < 2:
        raise EntryOutOfRange("encoding needs n >= 2")
    deg = [t.degree(v) for v in range(n)]
    nbrs = [list(t.adjacency[v]) for v in range(n)]
    code = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for _ in range(n - 2):
        p = next(x for x in nbrs[leaf] if deg[x] > 0 and x != leaf)
        code.append(p)
        deg[leaf] = 0
        deg[p] -= 1
        if deg[p] == 1 and p < ptr:
            leaf = p
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return tuple(code)


def _parts(t: Tree, parent: Sequence[int], size: Sequence[int], v: int) -> list[int]:
    """Sizes of the components of t - v: one per child, plus the part
    through the parent unless v is the root."""
    parts = [size[w] for w in t.adjacency[v] if w != parent[v]]
    if parent[v] >= 0:
        parts.append(t.n - size[v])
    return parts


def component_sizes(t: Tree, v: int) -> list[int]:
    """Sizes of the components of t - v, read off the rooted pass."""
    _, parent, size = rooted_pass(t)
    return _parts(t, parent, size, v)


def centroids(t: Tree) -> list[int]:
    """Centroid vertex (or two adjacent ones): every component of t - c
    has at most n/2 vertices."""
    _, parent, size = rooted_pass(t)
    return [v for v in range(t.n) if 2 * max(_parts(t, parent, size, v), default=0) <= t.n]


def rooted_canonical_form(t: Tree, root: int) -> bytes:
    """Canonical byte code of (t, root); equal codes iff rooted-isomorphic."""
    order, parent = bfs_order(t, root)
    code: list[bytes] = [b""] * t.n
    for u in reversed(order):
        children = sorted(code[w] for w in t.adjacency[u] if w != parent[u])
        code[u] = b"1" + b"".join(children) + b"0"
    return code[root]


def canonical_form(t: Tree) -> bytes:
    """Canonical byte code rooted at the centroid; with two centroids the
    lexicographically smaller rooted code wins."""
    return min(rooted_canonical_form(t, c) for c in centroids(t))


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list text format: first line n, then n-1 lines "u v"."""
    lines = text.splitlines()
    idx = 0
    if idx >= len(lines) or not lines[idx].strip():
        raise ParseError("missing vertex count", 1)
    try:
        n = int(lines[idx].strip())
    except ValueError:
        raise ParseError(f"vertex count {lines[idx].strip()!r} is not an integer", 1) from None
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", 1)
    idx += 1
    edges: list[tuple[int, int]] = []
    for k in range(n - 1):
        lineno = idx + k + 1
        if idx + k >= len(lines):
            raise ParseError(f"expected {n - 1} edges, file ends after {k}", lineno)
        fields = lines[idx + k].split()
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {lines[idx + k]!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {lines[idx + k]!r}", lineno) from None
        edges.append((u, v))
    for extra in range(idx + n - 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(f"unexpected extra line {lines[extra]!r}", extra + 1)
    return build_tree(edges, n)


def format_edge_list(t: Tree) -> str:
    """Serialize to the edge-list text format (LF-terminated)."""
    out = [str(t.n)]
    out.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(out) + "\n"
