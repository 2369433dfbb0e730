"""Immutable trees over dense integer vertex ids.

Validated construction from outside edge lists and trusted spine-and-leaves
shapes. An edge-list text of the strict shape (a count line, then lines of
two ASCII-digit ids, then blank lines) is read in one numpy pass that
checks the id range, and the cached rooted pass from vertex 0 proves its
n-1 edges reach all n vertices; any other text, and any strict text that
fails a check, goes to the line parser and `build_tree`, whose errors name
the line or edge at fault.

Then the two traversals (BFS distances and BFS order), the cached rooted
pass from vertex 0, diameter with a witness geodesic read off that pass
and one more BFS, vertex splits, Prufer decoding, and centroid-rooted
canonical forms (equal byte codes iff the trees are isomorphic). A
canonical form takes one bottom-up pass for both centroids and drops each
code once its parent's is built, so it holds O(n) bytes at any moment.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

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

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

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
        ru, rv = find(u), find(v)
        if ru == rv:
            # u and v are already joined: directly by a kept edge, or by a path
            if v in adj[u]:
                raise DuplicateEdge(f"edge ({u}, {v}) repeats an earlier edge")
            raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
        adj[u].append(v)
        adj[v].append(u)
    kept = sum(map(len, adj)) // 2
    if kept != n - 1:
        missing = next(v for v in range(n) if find(v) != find(0))
        raise Disconnected(f"{kept} edges on {n} vertices; vertex {missing} unreachable from 0")
    return _tree_from_adjacency(adj)


def _spine_tree(n: int, spine: Sequence[int], hubs: Sequence[int]) -> Tree:
    """The path through `spine` with every other vertex of 0..n-1, in id
    order, pendant at the matching entry of `hubs` (each a spine vertex).
    A tree by construction, so nothing is validated; internal use.

    Each neighbor tuple is built once: a leaf's is `(hub,)`, and only the
    spine vertices' lists are sorted, since a spine may come in any id
    order."""
    adj: list = [None] * n
    for v in spine:
        adj[v] = []
    for u, v in zip(spine, spine[1:]):
        adj[u].append(v)
        adj[v].append(u)
    for x, hub in zip([x for x in range(n) if adj[x] is None], hubs, strict=True):
        adj[hub].append(x)
        adj[x] = (hub,)
    for v in spine:
        nbrs = adj[v]
        nbrs.sort()
        adj[v] = tuple(nbrs)
    return Tree(n, tuple(adj))


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


def _depths(order: Sequence[int], parent: Sequence[int]) -> list[int]:
    """Depth of every vertex, read along a BFS order and its parent array."""
    depth = [0] * len(order)
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    return depth


def diameter_and_geodesic(t: Tree) -> tuple[int, list[int]]:
    """Diameter and one witness path, found by double BFS; the first sweep
    is the cached rooted pass from vertex 0.

    Ties break toward the smallest vertex id; the returned path runs from
    its smaller endpoint to its larger one.
    """
    order, parent, _ = rooted_pass(t)
    depth = _depths(order, parent)
    a = depth.index(depth[order[-1]])
    order, parent = bfs_order(t, a)
    depth = _depths(order, parent)
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
    order, parent = bfs_order(t, v)
    # every other vertex joins the part of the neighbor of v it hangs under
    members = {w: [v] for w in t.adjacency[v]}
    branch = [v] * t.n
    for u in order[1:]:
        p = parent[u]
        branch[u] = u if p == v else branch[p]
        members[branch[u]].append(u)
    parts = []
    for w in t.adjacency[v]:
        local_ids = sorted(members[w])
        index = {p: i for i, p in enumerate(local_ids)}
        # only w neighbors the split vertex inside this part
        adj = [[index[x] for x in t.adjacency[u]] if u != v else [index[w]] for u in local_ids]
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


def centroids(t: Tree) -> list[int]:
    """Centroid vertex (or two adjacent ones): every component of t - c
    has at most n/2 vertices."""
    order, parent, size = rooted_pass(t)
    n = t.n
    # heavy[v]: the largest component of t - v, the part through the parent
    # (none at the root) or the largest child subtree
    heavy = [n - s for s in size]
    for u in order[1:]:
        p = parent[u]
        if size[u] > heavy[p]:
            heavy[p] = size[u]
    return [v for v in range(n) if 2 * heavy[v] <= n]


def _wrap(kids: list[bytes]) -> bytes:
    """The code of a vertex whose children's codes, sorted, are `kids`."""
    return b"".join([b"1", *kids, b"0"])


def _child_codes(t: Tree, root: int, keep: int = -1) -> tuple[list[bytes], list[bytes]]:
    """One bottom-up pass of the rooted code from `root`.

    A vertex's code is "1", its children's codes in sorted order, then "0";
    a leaf's is "10". Returns the sorted codes of root's children other
    than `keep`, and those of keep's children (none when keep is -1;
    otherwise keep is a neighbor of root). Each code is dropped once its
    parent's is built, so the codes alive at any moment belong to disjoint
    subtrees and hold at most 2n bytes in all.
    """
    order, parent = bfs_order(t, root)
    adj = t.adjacency
    code: list[Optional[bytes]] = [None] * t.n

    def take(u: int, p: int) -> list[bytes]:
        kids = []
        for w in adj[u]:
            if w != p:
                kids.append(code[w])
                code[w] = None
        kids.sort()
        return kids

    for u in reversed(order):
        if u != root and u != keep:
            code[u] = b"10" if len(adj[u]) == 1 else _wrap(take(u, parent[u]))
    return take(root, keep), (take(keep, root) if keep >= 0 else [])


def rooted_canonical_form(t: Tree, root: int) -> bytes:
    """Canonical byte code of (t, root); equal codes iff rooted-isomorphic."""
    return _wrap(_child_codes(t, root)[0])


def canonical_form(t: Tree) -> bytes:
    """Canonical byte code rooted at the centroid; with two centroids the
    lexicographically smaller rooted code wins.

    Both rootings come from one pass rooted at the first centroid: every
    code off the edge between the two centroids is the same in either
    rooting, so each root's code is its own side's children plus the other
    side wrapped as one more child.
    """
    cs = centroids(t)
    if len(cs) == 1:
        return rooted_canonical_form(t, cs[0])
    a, b = cs
    side_a, side_b = _child_codes(t, a, b)
    return min(_wrap(sorted([*side_a, _wrap(side_b)])), _wrap(sorted([*side_b, _wrap(side_a)])))


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list text format: first line n, then n-1 lines "u v".

    A strictly shaped text that describes a tree is read in one numpy pass
    (`_parse_well_formed`), which leaves the tree's rooted pass cached. Any
    other text goes through the line-by-line parser and `build_tree`
    (`_parse_lines`), which name the offending line or edge in the error
    they raise.
    """
    t = _parse_well_formed(text)
    return t if t is not None else _parse_lines(text)


# The shape the numpy pass reads: a count line, lines of two ids separated
# by blanks (the last may lack its newline), then blank lines. Ids are runs
# of at most 18 ASCII digits, so each fits an int64 and reads as int() does.
# No pattern repeats a group, so matching holds no per-line backtrack state.
_COUNT_LINE = re.compile(r"[0-9]{1,18}\n")
_NEWLINE_NOT_BEFORE_AN_EDGE = re.compile(r"\n(?![0-9]{1,18}[ \t]+[0-9]{1,18}$)", re.MULTILINE)
_BLANKS = re.compile(r"[ \t\n]*")


def _well_formed(text: str) -> bool:
    """Whether the text has the shape the numpy pass reads."""
    count = _COUNT_LINE.match(text)
    if count is None:
        return False
    # the edges end at the first newline that no edge line follows
    end = _NEWLINE_NOT_BEFORE_AN_EDGE.search(text, count.end() - 1)
    return end is None or _BLANKS.fullmatch(text, end.start()) is not None


def _parse_well_formed(text: str) -> Optional[Tree]:
    """The tree a strictly shaped edge list describes, or None when the text
    has another shape or its edges do not form a tree.

    Nothing of size n is allocated before the token count is checked to be
    2(n-1) + 1. n-1 edges that join n vertices form a tree: none can be a
    self-loop, a repeat or close a cycle. So it checks the id range, builds
    the adjacency, and keeps it only if the rooted pass from vertex 0
    reaches all n vertices; that pass stays cached for the statistics.
    """
    if not _well_formed(text):
        return None
    # numpy is imported here rather than with the module: loading it ahead
    # of the rest of the package raised the peak RSS of `import treewalk`
    # by about 0.9 MB
    import numpy as np

    ids = np.fromstring(text, dtype=np.int64, sep=" ")
    n = int(ids[0])
    # n < 2**31 keeps the sort keys u*n + v inside an int64
    if not 1 <= n < 2**31 or len(ids) != 2 * n - 1:
        return None
    ends = ids[1:]  # u0 v0 u1 v1 ..., none negative: digits only
    if (ends >= n).any():
        return None
    u, v = ends[0::2], ends[1::2]
    # one key per directed edge; a tree repeats none, so sorting the keys
    # groups each vertex's neighbors in increasing order
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    flat = tuple((keys % n).tolist())
    del keys
    stops = np.bincount(ends, minlength=n).cumsum().tolist()
    t = Tree(n, tuple(flat[a:b] for a, b in zip([0, *stops], stops)))
    # freed before the pass, which would otherwise hold them at its peak
    del ids, ends, u, v, flat, stops
    return t if len(rooted_pass(t)[0]) == n else None


def _parse_lines(text: str) -> Tree:
    """The line-by-line parser: every malformed line raises a ParseError
    with its line number, and build_tree classifies a bad edge set."""
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
