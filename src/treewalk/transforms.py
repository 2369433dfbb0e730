"""Executable graph rewrites that drive the extremal arguments.

Single leaf relocation, broomification of a rooted tree, and the two
three-phase pipelines that push any tree of fixed order and diameter to
the balanced lever (minimizing the smallest scaled meeting time) or to a
double broom (maximizing it). Every pipeline emits a TransformTrace, which
checks the minimum joining time monotone step by step. Leaf moves, most of
the steps, run in place on one rooting at the barycenter c, which no move
displaces: a move costs its leaf's two climbs to c, which carry its change
in J_min, and is recorded as the move. Maximize reads where a move goes off
one heap of (-depth, id) per branch at c, not off the branch's vertices.
The few whole-tree rewrites are recorded packed, J_min read off their
rooted pass. The trace's replay rebuilds each step's tree from the packed
start.
"""

from __future__ import annotations

import heapq
import json
import struct
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    DiameterOutOfRange,
    NotALeaf,
    SelfAttach,
    TreewalkError,
    WrongNeighbor,
)
from .families import _broom_depths, _delta_plus, _rooted_broom, is_double_broom
from .trees import (
    Tree,
    _branches,
    _climb,
    _components,
    _distances,
    _spine_tree,
    _split_part,
    _tree_from_adjacency,
    build_tree,
    canonical_form,
    centroids,
    check_vertex,
    diameter_and_geodesic,
    path_between,
)
from .walkstats import _hits_into, _least_joining, joining_time


def _pack_parents(tree: Tree) -> bytes:
    """The parent array of tree's rooted pass from vertex 0, vertex 0's
    own entry dropped, as native unsigned ints of the narrowest struct
    format that holds n-1; that format character is the first byte.

    struct is already loaded wherever treewalk is; the array module is a
    shared library that would raise every process's peak RSS."""
    w = "B" if tree.n <= 1 << 8 else "H" if tree.n <= 1 << 16 else "I"
    return w.encode() + struct.pack(f"{tree.n - 1}{w}", *tree.rooted[1][1:])


def _tree_from_parents(packed: bytes) -> Tree:
    """The labeled tree whose parent array `_pack_parents` packed."""
    parents = memoryview(packed)[1:].cast(chr(packed[0]))
    adj: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for v, p in enumerate(parents, 1):
        adj[v].append(p)
        adj[p].append(v)
    return _tree_from_adjacency(adj)


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One rewrite: its description, the minimum joining time after it, and
    the rewrite, a leaf move as (leaf, old neighbor, new neighbor) and a
    whole-tree rewrite as the tree it produced, packed by `_pack_parents`."""

    description: str
    rewrite: tuple[int, int, int] | bytes
    value: int
    allow_equal: bool = False


@dataclass
class TransformTrace:
    """Ordered record of rewrites with the minimum joining time after each one.

    direction is "decreasing" or "increasing"; every step must move the value
    that way, strictly except on steps flagged allow_equal (used where the
    argument only guarantees a non-strict change). append() reads it off the
    new tree and packs the tree; move() records a leaf move as itself."""

    direction: str
    initial_value: int
    initial_canonical: bytes
    steps: list[TraceStep] = field(default_factory=list)
    initial_parents: bytes = b""

    @classmethod
    def start(cls, direction: str, tree: Tree) -> "TransformTrace":
        """An empty trace starting from `tree`."""
        return cls(direction, _least_joining(tree), canonical_form(tree), initial_parents=_pack_parents(tree))

    @property
    def last_value(self) -> int:
        return self.steps[-1].value if self.steps else self.initial_value

    def append(self, description: str, tree: Tree, allow_equal: bool = False) -> None:
        self._record(TraceStep(description, _pack_parents(tree), _least_joining(tree), allow_equal))

    def move(self, description: str, zyx: tuple[int, int, int], delta: int, allow_equal: bool = False) -> None:
        self._record(TraceStep(description, zyx, self.last_value + delta, allow_equal))

    def _record(self, step: TraceStep) -> None:
        prev, value = self.last_value, step.value
        if self.direction == "decreasing":
            ok = value <= prev if step.allow_equal else value < prev
        else:
            ok = value >= prev if step.allow_equal else value > prev
        if not ok:
            raise TreewalkError(
                f"trace not {self.direction} at step {len(self.steps)}: "
                f"{prev} -> {value} ({step.description})"
            )
        self.steps.append(step)

    def replay(self) -> Iterator[Tree]:
        """The tree after each step, rebuilt from the packed start tree."""
        tree = _tree_from_parents(self.initial_parents) if self.initial_parents else None
        for s in self.steps:
            tree = _tree_from_parents(s.rewrite) if isinstance(s.rewrite, bytes) else _swap_edge(tree, *s.rewrite)
            yield tree

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(
                {
                    "allow_equal": s.allow_equal,
                    "canonical": canonical_form(tree).decode("ascii"),
                    "description": s.description,
                    "step": i,
                    "value": s.value,
                },
                sort_keys=True,
            )
            for i, (s, tree) in enumerate(zip(self.steps, self.replay()))
        )


def move_leaf(t: Tree, z: int, y: int, x: int, check: bool = False) -> Tree:
    """Replace edge (y,z) by (x,z) for a leaf z with neighbor y.

    With check=True, verifies exactly that no hitting time into x grew and
    that the joining time to x strictly dropped (x == y returns the tree
    unchanged and waives the strict part).
    """
    for v in (z, y, x):
        check_vertex(t, v)
    if t.degree(z) != 1:
        raise NotALeaf(f"vertex {z} has degree {t.degree(z)}")
    if t.adjacency[z][0] != y:
        raise WrongNeighbor(f"leaf {z} is adjacent to {t.adjacency[z][0]}, not {y}")
    if x == z:
        raise SelfAttach(f"cannot attach leaf {z} to itself")
    if x == y:
        return t
    out = _swap_edge(t, z, y, x)
    if check:
        before, after = _hits_into(t, x), _hits_into(out, x)
        for v in range(t.n):
            if after[v] > before[v]:
                raise TreewalkError(f"hitting time into {x} grew at {v}: {before[v]} -> {after[v]}")
        if joining_time(out, x) >= joining_time(t, x):
            raise TreewalkError(
                f"joining time to {x} did not drop: "
                f"{joining_time(t, x)} -> {joining_time(out, x)}"
            )
    return out


def broomify(t: Tree, z: int) -> Tree:
    """The unique maximizer of the joining time to z among trees of the same
    order and the same eccentricity of z: a broom with z at the far end of
    the handle. Returns t itself when it already has that shape."""
    check_vertex(t, z)
    r, broom = _rooted_broom(t, z)
    if broom:
        return t
    handle = [z] + [v for v in range(t.n) if v != z][: r - 1]
    return _spine_tree(t.n, handle, [handle[-1]] * (t.n - r))


def minimize_pipeline(t: Tree) -> tuple[Tree, TransformTrace]:
    """Three-phase rewrite to the balanced lever of the same order and
    diameter; the minimum joining time strictly drops at every step.

    Phase one relocates every leaf off the geodesic to sit beside the
    barycenter. Phase two (only when the barycenter is off the geodesic)
    turns all non-geodesic vertices into leaves at the unique degree-3
    geodesic vertex. Phase three recenters the fulcrum to the middle of
    the geodesic.
    """
    n = t.n
    d, geo = diameter_and_geodesic(t)
    if not 3 <= d <= n - 2:
        raise DiameterOutOfRange(f"pipeline needs 3 <= d <= n-2, got n={n}, d={d}")
    trace = TransformTrace.start("decreasing", t)
    cur = t
    ends = (geo[0], geo[-1])
    geo_set = set(geo)

    # phase one: every leaf beside the barycenter, the smallest id first. A
    # leaf moved beside c leaves every component of t - c at most n/2, and
    # any other vertex that is a centroid afterwards was one before, so c
    # stays the least centroid. Moving z off y changes only z, y and c, and
    # of those only y can turn into a moveable leaf.
    c = min(centroids(cur))
    adj, parent, size = _live_rooting(cur, c)

    def moveable(v: int) -> bool:
        return len(adj[v]) == 1 and v not in ends and v != c and adj[v][0] != c

    leaves = [v for v in range(n) if moveable(v)]
    guard = 0
    while leaves:
        z = heapq.heappop(leaves)
        y = adj[z][0]
        delta = _shift_leaf(adj, parent, size, z, y, c)
        if moveable(y):
            heapq.heappush(leaves, y)
        trace.move(f"move leaf {z} from {y} beside barycenter {c}", (z, y, c), delta)
        guard += 1
        if guard > 4 * n:
            raise TreewalkError("leaf relocation failed to converge")
    cur = _tree_from_adjacency(adj) if trace.steps else cur

    if c not in geo_set:
        # phase two: collapse the off-geodesic branch onto its attachment
        attach = next(v for v in path_between(cur, c, ends[0]) if v in geo_set)
        cur = _spine_tree(n, geo, [attach] * (n - d - 1))
        trace.append(f"collapse off-geodesic branch into leaves at vertex {attach}", cur)
        c = attach

    # phase three: recenter the fulcrum
    k = geo.index(c)
    if n > d + 1 and abs(2 * k - d) > 1:
        target = geo[d // 2]
        cur = _spine_tree(n, geo, [target] * (n - d - 1))
        trace.append(f"recenter fulcrum from {c} to {target}", cur)

    return cur, trace


def maximize_pipeline(t: Tree) -> tuple[Tree, TransformTrace]:
    """Three-phase rewrite of a non-double-broom into a double broom whose
    minimum joining time is strictly larger; diameter never ends up above
    the input's.

    Phase one replaces every branch at the barycenter by the broom that
    maximizes the joining time into the barycenter. Phase two grows the
    handles of the two best branches until they span the diameter; phase
    three empties the remaining branches into their bristle clusters.
    Individual phase two/three moves are only guaranteed non-decreasing.
    Phase one reads every branch's shape off one array of distances from
    c and builds a tree only for a branch that is not a broom yet. Then
    each branch is a heap of (-depth, id), its top the branch's depth and
    deepest leaf: a move pops the donor's top and pushes it on the target.
    """
    n = t.n
    d, _ = diameter_and_geodesic(t)
    trace = TransformTrace.start("increasing", t)
    if is_double_broom(t):
        return t, trace
    cur = t
    c = min(centroids(cur))

    # phase one: broomify every branch at c, keeping vertex sets in place. A
    # path from c into a branch stays in it, so depths from c are its own,
    # and a branch that passes the broom width test is left as it is
    branches = _branches(t, c)
    depth = _distances(t, c)
    for w, comp in branches.items():
        if _broom_depths([depth[v] for v in comp])[1]:
            continue
        part, members = _split_part(t, c, w, comp), set(comp)
        ids, broom = part.to_parent, broomify(part.tree, part.center)
        keep = [(u, v) for u, v in cur.edges() if u not in members and v not in members]
        cur = build_tree(keep + [(ids[a], ids[b]) for a, b in broom.edges()], n)
        trace.append(f"reshape branch at {c} through {min(comp)} into a broom", cur)
        _assert_barycenter(cur, c)
    if cur is not t:
        depth = _distances(cur, c)

    # broomify may change which vertex of a branch touches c, so the parts
    # are numbered by c's neighbors after phase one; a sorted list is a heap
    owner = {v: comp for comp in branches.values() for v in comp}
    parts = [sorted((-depth[v], v) for v in owner[w]) for w in cur.adjacency[c]]
    if len(parts) <= 2:
        return _finish(cur, d, trace)
    adj, parent, size = _live_rooting(cur, c)

    def geometry(i: int) -> tuple[int, int, int]:
        # depth r, deepest leaf and that leaf's one neighbor, its holder
        r, deepest = parts[i][0]
        return -r, deepest, adj[deepest][0]

    ranked = sorted(range(len(parts)), key=lambda i: (-_delta_plus(len(parts[i]) + 1, geometry(i)[0]), i))
    g1, g2 = ranked[0], ranked[1]
    donors = sorted(ranked[2:])

    def acceptor() -> int:
        for i in (g1, g2):
            if 2 * (len(parts[i]) + 1) <= n:
                return i
        raise TreewalkError("no branch can accept a leaf without unseating the barycenter")

    # phase two extends handles until the two main branches span the
    # diameter; phase three then drains the remaining branches into the
    # bristle clusters. Phase three never shortens g1 or g2, so once the
    # handles span the diameter they keep spanning it. c stays a
    # barycenter with no check: every component of t - c lies in one part,
    # and the one part that grows is the acceptor's, to at most n/2.
    extending = True
    while donors:
        if extending:
            extending = geometry(g1)[0] + geometry(g2)[0] < d
        target = acceptor()
        donor = donors[0]
        _, w, holder = geometry(donor)
        _, deep, t_holder = geometry(target)
        if extending:
            attach = deep
            description = f"extend handle of branch {target} with leaf {w}"
        else:
            attach = t_holder
            description = f"add leaf {w} to the cluster of branch {target}"
        delta = _shift_leaf(adj, parent, size, w, holder, attach)
        heapq.heappop(parts[donor])
        depth[w] = depth[attach] + 1
        heapq.heappush(parts[target], (-depth[w], w))
        if not parts[donor]:
            donors.pop(0)
        trace.move(description, (w, holder, attach), delta, allow_equal=True)

    return _finish(_tree_from_adjacency(adj), d, trace)


def _live_rooting(t: Tree, c: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Mutable adjacency lists of t, and the parent and size arrays of its
    rooting at c read off the stored pass from vertex 0: on the climb c =
    u0, ..., uk = 0, u_{i+1} turns child of u_i, holding n - size0[u_i]."""
    _, parent, size0 = t.rooted
    parent, size, up = list(parent), list(size0), _climb(t, c)
    for u, w in zip(up, up[1:]):
        parent[w], size[w] = u, t.n - size0[u]
    parent[c], size[c] = -1, t.n
    return [list(a) for a in t.adjacency], parent, size


def _shift_leaf(adj: list[list[int]], parent: list[int], size: list[int], z: int, y: int, x: int) -> int:
    """Move leaf z (never the root c) from y to x on `_live_rooting`'s
    arrays. Only the edges on y's climb to c lose z from their lower side,
    and only those on x's gain it, so the change in J_min, returned, is
    read off them."""
    n = len(size)
    adj[y].remove(z)
    adj[x].append(z)
    adj[z][0] = parent[z] = x
    delta = 0
    for u, step in ((y, -1), (x, 1)):
        while parent[u] >= 0:
            delta += _edge_term(size[u] + step, n) - _edge_term(size[u], n)
            size[u] += step
            u = parent[u]
    return delta


def _edge_term(s: int, n: int) -> int:
    """The term (2 min(s, n-s) - 1)^2 `walkstats._least_joining` sums per edge of split s."""
    return (2 * s - 1 if 2 * s <= n else 2 * (n - s) - 1) ** 2


def _swap_edge(t: Tree, w: int, old: int, new: int) -> Tree:
    """Move leaf w from its neighbor old to new: three adjacency tuples change."""
    adj = list(t.adjacency)
    adj[w] = (new,)
    adj[old] = tuple(x for x in adj[old] if x != w)
    adj[new] = tuple(sorted(adj[new] + (w,)))
    return Tree(t.n, tuple(adj))


def _assert_barycenter(t: Tree, c: int) -> None:
    """Raise unless c is a centroid of t: no component of t - c holds more
    than n/2 vertices."""
    if 2 * max(_components(t, c)) > t.n:
        raise TreewalkError(f"vertex {c} stopped being a barycenter mid-pipeline")


def _finish(cur: Tree, d: int, trace: TransformTrace) -> tuple[Tree, TransformTrace]:
    if not is_double_broom(cur):
        raise TreewalkError("pipeline did not end on a double broom")
    d_out, _ = diameter_and_geodesic(cur)
    if d_out > d:
        raise TreewalkError(f"diameter grew from {d} to {d_out}")
    if trace.steps and trace.last_value <= trace.initial_value:
        raise TreewalkError("minimum joining time did not strictly increase")
    return cur, trace
