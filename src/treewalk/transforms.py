"""Executable graph rewrites that drive the extremal arguments.

Single leaf relocation, broomification of a rooted tree, and the two
three-phase pipelines that push any tree of fixed order and diameter to
the balanced lever (minimizing the smallest scaled meeting time) or to a
double broom (maximizing it). Every pipeline emits a TransformTrace whose
tracked quantity is the minimum joining time of the current tree, checked
monotone step by step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from .errors import (
    DiameterOutOfRange,
    NotALeaf,
    SelfAttach,
    TreewalkError,
    WrongNeighbor,
)
from .families import _delta_plus, _rooted_broom, is_double_broom
from .trees import (
    Tree,
    _depths,
    _spine_tree,
    bfs_order,
    build_tree,
    canonical_form,
    centroids,
    diameter_and_geodesic,
    path_between,
    v_split,
)
from .walkstats import _hits_into, joining_all, joining_time


@dataclass(frozen=True)
class TraceStep:
    description: str
    canonical: bytes
    value: int
    allow_equal: bool = False


@dataclass
class TransformTrace:
    """Ordered record of rewrites with the tracked quantity after each one.

    direction is "decreasing" or "increasing"; append() enforces strict
    monotonicity except on steps explicitly flagged allow_equal (used where
    the underlying argument only guarantees a non-strict change).
    """

    direction: str
    initial_value: int
    initial_canonical: bytes
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def last_value(self) -> int:
        return self.steps[-1].value if self.steps else self.initial_value

    def append(self, description: str, tree: Tree, value: int, allow_equal: bool = False) -> None:
        prev = self.last_value
        if self.direction == "decreasing":
            ok = value <= prev if allow_equal else value < prev
        else:
            ok = value >= prev if allow_equal else value > prev
        if not ok:
            raise TreewalkError(
                f"trace not {self.direction} at step {len(self.steps)}: "
                f"{prev} -> {value} ({description})"
            )
        self.steps.append(
            TraceStep(
                description=description,
                canonical=canonical_form(tree),
                value=value,
                allow_equal=allow_equal,
            )
        )

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps({**asdict(s), "step": i, "canonical": s.canonical.decode("ascii")}, sort_keys=True)
            for i, s in enumerate(self.steps)
        )


def _jmin(t: Tree) -> int:
    return min(joining_all(t))


def _start_trace(direction: str, t: Tree) -> TransformTrace:
    return TransformTrace(direction, _jmin(t), canonical_form(t))


def move_leaf(t: Tree, z: int, y: int, x: int, check: bool = False) -> Tree:
    """Replace edge (y,z) by (x,z) for a leaf z with neighbor y.

    With check=True, verifies exactly that no hitting time into x grew and
    that the joining time to x strictly dropped (x == y returns the tree
    unchanged and waives the strict part).
    """
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
    r, broom = _rooted_broom(t, z)
    if broom:
        return t
    handle = [z] + [v for v in range(t.n) if v != z][: r - 1]
    return _spine_tree(t.n, handle, [handle[-1]] * (t.n - r))


def _moveable_leaf(t: Tree, c: int, banned: tuple[int, int]) -> Optional[int]:
    for v in range(t.n):
        if t.degree(v) == 1 and v not in banned and v != c and t.adjacency[v][0] != c:
            return v
    return None


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
    trace = _start_trace("decreasing", t)
    cur = t
    ends = (geo[0], geo[-1])
    geo_set = set(geo)

    # phase one: every leaf beside the barycenter
    guard = 0
    while True:
        c = min(centroids(cur))
        z = _moveable_leaf(cur, c, ends)
        if z is None:
            break
        y = cur.adjacency[z][0]
        cur = move_leaf(cur, z, y, c)
        trace.append(f"move leaf {z} from {y} beside barycenter {c}", cur, _jmin(cur))
        guard += 1
        if guard > 4 * n:
            raise TreewalkError("leaf relocation failed to converge")

    c = min(centroids(cur))
    if c not in geo_set:
        # phase two: collapse the off-geodesic branch onto its attachment
        attach = next(v for v in path_between(cur, c, ends[0]) if v in geo_set)
        cur = _spine_tree(n, geo, [attach] * (n - d - 1))
        trace.append(
            f"collapse off-geodesic branch into leaves at vertex {attach}", cur, _jmin(cur)
        )
        c = attach

    # phase three: recenter the fulcrum
    k = geo.index(c)
    if n > d + 1 and abs(2 * k - d) > 1:
        target = geo[d // 2]
        cur = _spine_tree(n, geo, [target] * (n - d - 1))
        trace.append(f"recenter fulcrum from {c} to {target}", cur, _jmin(cur))

    return cur, trace


def _branch_geometry(t: Tree, c: int) -> Callable[[set[int]], tuple[int, int, int]]:
    """Root t at c once. The returned function gives (depth r, deepest
    leaf, holder of the deepest leaves) for a broom-shaped branch hanging
    off c; the path from c to any vertex of a branch stays in the branch,
    so depths in the whole tree are depths in the branch."""
    order, parent = bfs_order(t, c)
    depth = _depths(order, parent)

    def geometry(part: set[int]) -> tuple[int, int, int]:
        r = max(depth[v] for v in part)
        deepest = min(v for v in part if depth[v] == r)
        return r, deepest, parent[deepest]

    return geometry


def maximize_pipeline(t: Tree) -> tuple[Tree, TransformTrace]:
    """Three-phase rewrite of a non-double-broom into a double broom whose
    minimum joining time is strictly larger; diameter never ends up above
    the input's.

    Phase one replaces every branch at the barycenter by the broom that
    maximizes the joining time into the barycenter. Phase two grows the
    handles of the two best branches until they span the diameter; phase
    three empties the remaining branches into their bristle clusters.
    Individual phase two/three moves are only guaranteed non-decreasing,
    and the barycenter certificate is re-checked after every move.
    """
    n = t.n
    d, _ = diameter_and_geodesic(t)
    trace = _start_trace("increasing", t)
    if is_double_broom(t):
        return t, trace
    cur = t
    c = min(centroids(cur))

    # phase one: broomify every branch at c, keeping vertex sets in place;
    # each branch is tracked as the vertex set of its component (c excluded)
    owner: dict[int, set[int]] = {}
    for part in v_split(cur, c).parts:
        ids = part.to_parent
        comp = set(ids) - {c}
        owner.update((v, comp) for v in comp)
        broom = broomify(part.tree, part.center)
        if broom is part.tree:
            continue
        keep = [(u, v) for u, v in cur.edges() if u not in comp and v not in comp]
        cur = build_tree(keep + [(ids[a], ids[b]) for a, b in broom.edges()], n)
        trace.append(
            f"reshape branch at {c} through {min(comp)} into a broom",
            cur,
            _jmin(cur),
        )
        _assert_barycenter(cur, c)

    # broomify may change which vertex of a branch touches c, so the parts
    # are numbered by c's neighbors after phase one
    parts = [owner[w] for w in cur.adjacency[c]]
    if len(parts) <= 2:
        return _finish(cur, d, trace)

    geometry = _branch_geometry(cur, c)
    ranked = sorted(
        range(len(parts)), key=lambda i: (-_delta_plus(len(parts[i]) + 1, geometry(parts[i])[0]), i)
    )
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
    # handles span the diameter they keep spanning it.
    extending = True
    while donors:
        # every geometry read of a step is on the same cur, rooted once
        geometry = _branch_geometry(cur, c)
        if extending:
            extending = geometry(parts[g1])[0] + geometry(parts[g2])[0] < d
        target = acceptor()
        donor = donors[0]
        _, w, holder = geometry(parts[donor])
        rt, deep, t_holder = geometry(parts[target])
        if extending:
            attach = deep
            description = f"extend handle of branch {target} with leaf {w}"
        else:
            attach = t_holder if rt > 1 else c
            description = f"add leaf {w} to the cluster of branch {target}"
        cur = _swap_edge(cur, w, holder, attach)
        parts[donor].discard(w)
        parts[target].add(w)
        if not parts[donor]:
            donors.pop(0)
        trace.append(description, cur, _jmin(cur), allow_equal=True)
        _assert_barycenter(cur, c)

    return _finish(cur, d, trace)


def _swap_edge(t: Tree, w: int, old: int, new: int) -> Tree:
    """Move leaf w from its neighbor old to new: three adjacency tuples change."""
    adj = list(t.adjacency)
    adj[w] = (new,)
    adj[old] = tuple(x for x in adj[old] if x != w)
    adj[new] = tuple(sorted(adj[new] + (w,)))
    return Tree(t.n, tuple(adj))


def _assert_barycenter(t: Tree, c: int) -> None:
    if c not in centroids(t):
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
