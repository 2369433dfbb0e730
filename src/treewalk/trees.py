"""Immutable trees over dense integer vertex ids.

Validated construction from outside edge lists and trusted spine-and-leaves
shapes. An edge-list text of the strict shape (a count line, then lines of
two ASCII-digit ids, then blank lines) is read in one numpy pass that
checks the id range, and the tree's rooted pass from vertex 0 proves its
n-1 edges reach all n vertices; any other text, and any strict text that
fails a check, goes to the line parser and `build_tree`, whose errors name
the line or edge at fault. From 2^15 vertices, while every J fits an
int64, that numpy pass runs the rooted pass by BFS levels on its sorted
neighbor array (`_bfs_levels`), and over the same levels lays out the J
vector and the diameter's ends (`_level_passes`), so the tree holds all
three. The level route declines once 256 levels in a row hold fewer than
32 vertices each, or once the levels outnumber 256 plus 1/32 of the
vertices reached: a numpy level costs about what 30 vertices cost in
Python. A declined tree runs the Python passes below, which stay the
reference.

A `Tree` keeps what is derived from it on itself: the rooted pass from
vertex 0 (`Tree.rooted`), the joining time of every vertex
(`Tree.joining`) and the diameter's ends (`Tree.diameter_ends`), each
computed on first use, or laid out by the level route, and freed with
the tree. The family shapes, a path 0..d with the other vertices as
leaves on non-decreasing hubs, are built by `_caterpillar`, which lays the
rooted pass out with the tree, with no traversal; `_spine_tree` builds a
spine in any id order, and its tree runs the pass on first use.

Then the one traversal, BFS order, with subtree sizes built on it; only
the rooted pass and `walkstats._hits_into` run them (the oracles'
reference BFS lives in `oracles.py`, apart from what it checks). Every
other rooting at a vertex reads the stored pass: `_climb` lists a
vertex's ancestors up to vertex 0, and `_distances` gives its distance
to every vertex. On them stand the path between two vertices, the
diameter with a witness geodesic, and vertex splits; then the component
sizes at a vertex, Prufer decoding, the centroids (a descent from vertex
0 that reads only its own vertices and their neighbors), and centroid-rooted
canonical forms (equal byte codes iff the trees are isomorphic), the AHU
rooted-tree code (Aho, Hopcroft and Ullman, 1974). A canonical form
reads the stored rooted pass and walks no tree of its own: one bottom-up
pass gives the codes at both centroids, with parents reversed only on
the path from vertex 0 to the root. A vertex with one child carries its
child's code and a count of pending wraps, so a single-child chain is
written once, and each code is dropped once taken: a form copies O(n)
bytes on a path and holds O(n) bytes at any moment. Statistics of one
vertex, and the traversal from one, check its id first (`check_vertex`).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, filterfalse
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
    """Connected acyclic graph on vertices 0..n-1 with sorted adjacency.

    Equality and hashing read only n and the adjacency. The cached
    properties are stored on the instance the first time they are read,
    or as the tree is built: `rooted` by `_caterpillar`, and all three by
    the parse's level route. So they live exactly as long as the tree:
    O(n) ints for `rooted` and `joining`, three for `diameter_ends`.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def rooted(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """BFS order, parent array and subtree sizes from vertex 0, frozen.
        Every statistic of the tree reads this single pass."""
        order, parent, size = subtree_sizes(self, 0)
        return tuple(order), tuple(parent), tuple(size)

    @cached_property
    def joining(self) -> tuple[int, ...]:
        """J(w) for every w in O(n) total, by rerooting across each edge.

        The step u->p across an edge costs 2*size(u)-1, which is also the
        degree sum of u's side, so J(w) is the sum over edges of (2s-1)^2 with
        s the size of the side away from w. Moving the target from p to its
        child u swaps only that edge's term: J(u) = J(p) + (2(n-s)-1)^2 -
        (2s-1)^2 = J(p) + 4(n-1)(n-2s) with s = size(u) from the rooted pass.
        """
        n, step = self.n, 4 * (self.n - 1)
        order, parent, size = self.rooted
        j = [0] * n
        j[0] = sum([(2 * s - 1) ** 2 for s in size[1:]])
        for u in order[1:]:
            j[u] = j[parent[u]] + step * (n - 2 * size[u])
        return tuple(j)

    @cached_property
    def diameter_ends(self) -> tuple[int, int, int]:
        """The diameter d and its ends (d, a, b), read off the rooted pass.

        a is the smallest id at the greatest distance from vertex 0, and b
        the smallest id at the greatest distance from a.
        """
        depth = _distances(self, 0)
        a = depth.index(max(depth))
        dist = _distances(self, a)
        d = max(dist)
        return d, a, dist.index(d)

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


def check_vertex(t: Tree, v: int) -> None:
    """Raise VertexOutOfRange unless v names a vertex of t."""
    if not 0 <= v < t.n:
        raise VertexOutOfRange(f"vertex {v} outside 0..{t.n - 1}")


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


def _caterpillar(n: int, d: int, hubs: Sequence[int]) -> Tree:
    """The path 0..d with every vertex d+1..n-1, in id order, pendant at
    the matching entry of `hubs`, a non-decreasing sequence of spine
    vertices, so each hub's leaves are one run of ids. A tree by
    construction, so nothing but the hub count is checked; internal use.

    The tree comes back holding its rooted pass from vertex 0, laid out
    with no traversal. The BFS from 0 visits 0, then, for each spine vertex
    i in turn, i+1 and then i's leaves; the parent array is
    (-1, 0..d-1, *hubs); and a spine vertex i, with b leaves on hubs below
    it, has n - i - b vertices in its subtree, a leaf 1. The work is one
    step per run of leaves, the rest slices: every id in the adjacency
    and the BFS order, every spine vertex's parent and every size below n
    is an entry of one list(range(n)) (a leaf's parent is its entry of
    `hubs`), so a long path holds one int object per vertex, not one per
    reference.
    """
    m = n - d - 1
    if len(hubs) != m:
        raise ValueError(f"{len(hubs)} hubs for the {m} leaves {d + 1}..{n - 1}")
    ids = list(range(n))
    spine = ids[: d + 1]
    adj = [(ids[1],), *zip(spine, spine[2:]), (ids[d - 1],)] if d else [()]
    order: list[int] = []
    size = [n]
    lo, done = d + 1, 0  # the run's first leaf; spine vertices done in order
    while lo < n:
        h = hubs[lo - d - 1]
        hi = d + 1 + bisect_right(hubs, h, lo - d - 1)
        run = ids[lo:hi]
        adj[h] += tuple(run)
        adj += [(spine[h],)] * (hi - lo)
        order += spine[done : h + 2]
        order += run
        # sizes of the spine vertices up to h, each above the lo - d - 1
        # leaves already placed: n - i - (lo - d - 1), read off ids
        top = n - lo + d + 1
        size += ids[top - len(size) : top - h - 1 : -1]
        lo, done = hi, h + 2
    order += spine[done:]
    size += ids[d + 1 - len(size) : 0 : -1]
    size += [1] * m
    t = Tree(n, tuple(adj))
    t.__dict__["rooted"] = (tuple(order), (-1, *spine[:d], *hubs), tuple(size))
    return t


def bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """BFS visit order and parent array (parent[root] = -1)."""
    check_vertex(t, root)
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


def subtree_sizes(t: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS order, parent array and subtree sizes rooted at `root`."""
    order, parent = bfs_order(t, root)
    size = [1] * t.n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            size[p] += size[u]
    return order, parent, size


def _climb(t: Tree, v: int) -> list[int]:
    """v and its ancestors in the rooted pass from vertex 0, ending at 0."""
    parent = t.rooted[1]
    up = [v]
    while up[-1]:
        up.append(parent[up[-1]])
    return up


def _distances(t: Tree, v: int) -> list[int]:
    """Distance from v to every vertex, read off the rooted pass from
    vertex 0: v's ancestors get theirs by the climb from v; every other
    vertex, in BFS order, gets its parent's + 1, since the path from it to
    v leaves through its parent."""
    order, parent, _ = t.rooted
    dist = [-1] * t.n
    for i, u in enumerate(_climb(t, v)):
        dist[u] = i
    for u in order:
        if dist[u] < 0:
            dist[u] = dist[parent[u]] + 1
    return dist


def path_between(t: Tree, u: int, v: int) -> list[int]:
    """The unique u..v path, endpoints included: the climbs from u and
    from v in the rooted pass, joined at their lowest common ancestor."""
    check_vertex(t, v)
    check_vertex(t, u)
    up, down = _climb(t, u), _climb(t, v)
    # both climbs end at vertex 0; the shared part runs down to the ancestor
    while up and down and up[-1] == down[-1]:
        top = up.pop()
        down.pop()
    return [*up, top, *reversed(down)]


def diameter_and_geodesic(t: Tree) -> tuple[int, list[int]]:
    """Diameter and one witness path, read off the tree's rooted pass from
    vertex 0 with no traversal of its own.

    One end a is the smallest id at the greatest distance from vertex 0;
    the other end b is the smallest id at the greatest distance from a
    (`Tree.diameter_ends`). Ties break toward the smallest vertex id; the
    returned path runs from its smaller endpoint to its larger one.
    """
    d, a, b = t.diameter_ends
    return d, path_between(t, min(a, b), max(a, b))


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
    check_vertex(t, v)
    if t.degree(v) < 2:
        raise SplitAtLeaf(f"vertex {v} has degree {t.degree(v)}; need >= 2 to split")
    parts = (_split_part(t, v, w, ids) for w, ids in _branches(t, v).items())
    return SplitResult(center=v, parts=tuple(parts))


def _branches(t: Tree, v: int) -> dict[int, list[int]]:
    """The vertices of each component of t - v, keyed by v's neighbor in
    it, in adjacency order. Every vertex is labelled by the neighbor of v
    it hangs under, off the pass from vertex 0: a child of v heads its own
    branch, and vertex 0, like the rest outside v's subtree, lies in the
    branch of v's parent."""
    order, parent, _ = t.rooted
    members: dict[int, list[int]] = {w: [] for w in t.adjacency[v]}
    branch = [v] * t.n
    for u in order:
        if u != v:
            p = parent[u]
            branch[u] = u if p == v else branch[p] if u else parent[v]
            members[branch[u]].append(u)
    return members


def _split_part(t: Tree, v: int, w: int, branch: list[int]) -> SplitPart:
    """v_split's part through v's neighbor w, on v and the branch of t - v at w."""
    local_ids = sorted([v, *branch])
    index = {p: i for i, p in enumerate(local_ids)}
    # only w neighbors the split vertex inside this part
    adj = [[index[x] for x in t.adjacency[u]] if u != v else [index[w]] for u in local_ids]
    return SplitPart(tree=_tree_from_adjacency(adj), to_parent=tuple(local_ids), center=index[v])


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


def _components(t: Tree, v: int) -> list[int]:
    """Vertex count of each component of t - v, one per neighbor of v in
    adjacency order, read off the stored rooted pass: a child w's component
    holds size[w] vertices, the parent's n - size[v]."""
    _, parent, size = t.rooted
    return [size[w] if parent[w] == v else t.n - size[v] for w in t.adjacency[v]]


def centroids(t: Tree) -> list[int]:
    """Centroid vertex (or two adjacent ones), sorted: every component of
    t - c has at most n/2 vertices. From vertex 0, step into the child (its
    subtree is smaller than its parent's) holding more than n/2 vertices
    until none does; the part through the parent stays below n/2 on the
    way, so that vertex is one centroid, and a child w with 2 size[w] = n
    the other."""
    size = t.rooted[2]
    n, adj = t.n, t.adjacency
    half, c = n // 2, 0
    while True:
        for u in adj[c]:
            if half < size[u] < size[c]:
                c = u
                break
        else:
            break
    for u in adj[c]:
        if 2 * size[u] == n:
            return sorted((c, u))
    return [c]


def _wrap(kids: list[bytes]) -> bytes:
    """The code of a vertex whose children's codes, sorted, are `kids`."""
    return b"".join([b"1", *kids, b"0"])


def _child_codes(t: Tree, root: int, keep: int = -1) -> tuple[list[bytes], list[bytes]]:
    """One bottom-up pass of the rooted code from `root`, read off the
    tree's rooted pass from vertex 0.

    A vertex's code is "1", its children's codes in sorted order, then "0";
    a leaf's is "10". Returns the sorted codes of root's children other
    than `keep`, and those of keep's children (none when keep is -1;
    otherwise keep is a child of root in the pass from 0).

    Off the path from root up to vertex 0 a vertex has the same children
    in both rootings, so those vertices go in reverse BFS order; then the
    path goes from 0 back down toward root, each vertex's parent now its
    neighbor toward root. Either way a vertex comes after its children and
    before its parent, so its children are exactly its neighbors that hold
    a code. A vertex with one child keeps that child's code and one more
    pending wrap; the wraps are written once, by the first ancestor with
    two or more children (which must sort) or by `_take` at the end, so a
    path copies O(n) bytes. Each code and count is dropped once taken, so
    the codes alive at any moment belong to disjoint subtrees and hold at
    most 2n bytes in all.
    """
    order = t.rooted[0]
    path = _climb(t, root)
    # the reverse BFS order leaves out the path and keep, marked one byte
    # per vertex: a set of a long path's vertices outweighs its codes
    skip = bytearray(t.n)
    for v in path:
        skip[v] = 1
    if keep >= 0:
        skip[keep] = 1
    # then the path runs from 0 down to the root's neighbor on it
    path.reverse()
    path.pop()
    adj = t.adjacency
    code: list[Optional[bytes]] = [None] * t.n
    wraps = [0] * t.n
    for u in chain(filterfalse(skip.__getitem__, reversed(order)), path):
        nbrs = adj[u]
        if len(nbrs) == 1:
            code[u] = b"10"
        elif len(nbrs) == 2:
            w, c = nbrs
            if code[c] is None:
                c = w
            code[u] = code[c]
            wraps[u] = wraps[c] + 1
            code[c] = None
            wraps[c] = 0
        else:
            code[u] = _wrap(_take(nbrs, code, wraps))
    return _take(adj[root], code, wraps), (_take(adj[keep], code, wraps) if keep >= 0 else [])


def _take(nbrs: Sequence[int], code: list[Optional[bytes]], wraps: list[int]) -> list[bytes]:
    """The sorted codes held by `nbrs`, each written out with its pending
    wraps; both are dropped."""
    kids = []
    for w in nbrs:
        c = code[w]
        if c is not None:
            k = wraps[w]
            if k:
                c = b"".join((b"1" * k, c, b"0" * k))
                wraps[w] = 0
            kids.append(c)
            code[w] = None
    kids.sort()
    return kids


def rooted_canonical_form(t: Tree, root: int) -> bytes:
    """Canonical byte code of (t, root); equal codes iff rooted-isomorphic."""
    check_vertex(t, root)
    return _wrap(_child_codes(t, root)[0])


def canonical_form(t: Tree) -> bytes:
    """Canonical byte code rooted at the centroid; with two centroids the
    lexicographically smaller rooted code wins.

    Both rootings come from one pass rooted at the centroid nearer vertex 0:
    every code off the edge between the two centroids is the same in either
    rooting, so each root's code is its own side's children plus the other
    side wrapped as one more child.
    """
    cs = centroids(t)
    if len(cs) == 1:
        return rooted_canonical_form(t, cs[0])
    a, b = cs
    if t.rooted[1][a] == b:
        a, b = b, a
    side_a, side_b = _child_codes(t, a, b)
    return min(_wrap(sorted([*side_a, _wrap(side_b)])), _wrap(sorted([*side_b, _wrap(side_a)])))


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list text format: first line n, then n-1 lines "u v".

    A strictly shaped text that describes a tree is read in one numpy pass
    (`_parse_well_formed`), whose tree already holds its rooted pass. Any
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
    reaches all n vertices; the tree keeps that pass for the statistics.
    From _LEVEL_MIN_N vertices up to the int64 bound on J, the pass is run
    by levels (`_bfs_levels`, `_level_passes`), which lay out J and the
    diameter's ends too; where they decline, the tree runs its Python pass.
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
    nbrs, stops = _csr(n, ends)
    del ids, ends
    levels = _bfs_levels(nbrs, stops) if n >= _LEVEL_MIN_N and _joining_fits_int64(n) else None
    # on the level route every id is one int object, which the adjacency
    # and the pass share, as the Python pass shares the adjacency's
    table = None if levels is None else np.arange(n).astype(object)
    flat = tuple((nbrs if table is None else table[nbrs]).tolist())
    bounds = stops.tolist()
    t = Tree(n, tuple(flat[a:b] for a, b in zip([0, *bounds], bounds)))
    # freed before the pass, which would otherwise hold them at its peak
    del nbrs, flat, bounds
    if levels is None:
        del stops
        return t if len(t.rooted[0]) == n else None
    order, parent, size, j, far = _level_passes(levels, np.diff(stops, prepend=0))
    del levels, stops
    parent = table[parent]
    parent[0] = -1
    rooted = tuple(table[order].tolist()), tuple(parent.tolist()), tuple(size.tolist())
    t.__dict__.update(rooted=rooted, joining=tuple(j.tolist()), diameter_ends=far)
    return t


def _csr(n: int, ends):
    """The neighbor array and end offsets of the graph on 0..n-1 whose edges
    are the id pairs of the int64 array `ends`: vertex v's neighbors, in
    increasing order, are nbrs[stops[v] - deg(v) : stops[v]]."""
    import numpy as np

    u, v = ends[0::2], ends[1::2]
    # one key per directed edge; a tree repeats none, so sorting the keys
    # groups each vertex's neighbors in increasing order
    nbrs = np.sort(np.concatenate((u * n + v, v * n + u)))
    nbrs %= n
    return nbrs, np.bincount(ends, minlength=n).cumsum()


# A numpy level costs about 14 us, as much as the Python passes spend on 25
# to 30 vertices, so the level route pays where the levels hold more than
# _NARROW vertices on average. It declines once _NARROW_RUN levels in a row
# hold fewer than _NARROW vertices each, or once the levels so far outnumber
# _NARROW_RUN plus 1/_NARROW of the vertices reached. A random tree's first
# and last levels are narrow for up to about 160 levels in a row, which the
# run of _NARROW_RUN allows for. The parse does not try the route below
# _LEVEL_MIN_N vertices, where a path's declined levels would cost more
# than a tenth of its pass.
_NARROW = 32
_NARROW_RUN = 256
_LEVEL_MIN_N = 1 << 15


def _joining_fits_int64(n: int) -> bool:
    """Whether every J of an n-vertex tree fits an int64. The greatest is
    the path end's, sum of (2s-1)^2 over s in 1..n-1: rooted anywhere, the
    k-th largest subtree size is at most n-k."""
    return (n - 1) * (2 * n - 1) * (2 * n - 3) // 3 < 2**63


def _bfs_levels(nbrs, stops) -> Optional[list]:
    """The BFS from vertex 0 as one id array per level, or None when the
    level gate declines or the graph is no tree.

    Each level's neighbor slots come from one repeat of its vertices'
    offsets, and a seen mask drops the parents. The mask is read once per
    level, so a vertex two frontier vertices reach goes in twice, and its
    copies go on doubling down a chain of cycles; so the BFS stops once the
    expanded slots pass 2(n-1), the count of a tree's. Counting the levels'
    entries proves nothing, but every vertex seen does: n-1 edges that
    join n vertices form a tree.
    """
    import numpy as np

    n = len(stops)
    deg = np.diff(stops, prepend=0)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=nbrs.dtype)
    levels = [frontier]
    slack, reached, run = 2 * (n - 1), 1, 0
    while True:
        cnt = deg[frontier]
        last = np.cumsum(cnt)
        total = int(last[-1])
        slack -= total
        if slack < 0:
            return None
        nb = nbrs[np.arange(total) + np.repeat(stops[frontier] - last, cnt)]
        frontier = nb[~seen[nb]]
        if not frontier.size:
            break
        seen[frontier] = True
        levels.append(frontier)
        reached += frontier.size
        run = run + 1 if frontier.size < _NARROW else 0
        if run == _NARROW_RUN or len(levels) > _NARROW_RUN + reached // _NARROW:
            return None
    return levels if seen.all() else None


def _level_passes(levels: list, deg):
    """The rooted pass, J and the diameter's ends of the tree whose BFS
    levels from vertex 0 are `levels` (`_bfs_levels`) and whose degrees are
    `deg`: the BFS order, then the parent, subtree size and J of each
    vertex as int64 arrays, and `Tree.diameter_ends`.

    The work runs in BFS order, where the children of each vertex follow
    one another and the children of a level's vertices make the next
    level, in order. Sizes go bottom-up a level at a time, J top-down:
    J[v] = J[parent v] + 4(n-1)(n - 2 size[v]), from J[0], the sum of
    (2s-1)^2 over the other sizes. The distances from a, the smallest id
    on the last level, go top-down too: a vertex off a's climb is one
    further than its parent, and the climb's vertex on level k is L-1-k
    from a, with L levels. J is in int64, so the caller checks
    `_joining_fits_int64`.
    """
    import numpy as np

    n = len(deg)
    order = np.concatenate(levels)
    bounds = list(accumulate(map(len, levels), initial=0))
    # up[i - 1] is the BFS position of the parent of position i
    kids = deg[order] - 1
    kids[0] += 1
    up = np.repeat(np.arange(n, dtype=order.dtype), kids)
    del kids
    size = np.ones(n, dtype=np.int64)
    # bincount adds its weights in float64, exact for sizes below 2**53
    for lo, hi, below in zip(bounds[-3::-1], bounds[-2::-1], bounds[:0:-1]):
        size[lo:hi] += np.bincount(up[hi - 1 : below - 1] - lo, size[hi:below], hi - lo).astype(np.int64)
    terms = 2 * size[1:] - 1
    j = 4 * (n - 1) * (n - 2 * size)
    j[0] = terms @ terms
    del terms
    depth = len(bounds) - 2
    climb = [bounds[-2] + int(np.argmin(order[bounds[-2] :]))]
    while climb[-1]:
        climb.append(int(up[climb[-1] - 1]))
    dist = np.empty(n, dtype=np.int64)
    dist[0] = depth
    for k, lo, hi, on_climb in zip(range(1, depth + 1), bounds[1:], bounds[2:], climb[-2::-1]):
        above = up[lo - 1 : hi - 1]
        j[lo:hi] += j[above]
        np.add(dist[above], 1, out=dist[lo:hi])
        dist[on_climb] = depth - k
    d = int(dist.max())
    far = d, int(order[climb[0]]), int(order[dist == d].min())
    del dist
    parent = np.empty(n, dtype=order.dtype)
    parent[order[1:]] = order[up]
    parent[0] = -1
    del up
    # sizes and J move from BFS positions to their vertices' slots
    size[order] = size.copy()
    j[order] = j.copy()
    return order, parent, size, j, far


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
    return "".join([f"{t.n}\n", *(f"{u} {v}\n" for u, v in t.edges())])
