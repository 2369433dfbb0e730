"""Spans recorded at treewalk's module boundaries, for the traced run.

`instrument` replaces selected public functions with wrappers that record
one span per call: name, start, end, parent span and request id, plus a
few attributes. The wrapper is bound under every name that refers to the
function in any loaded ``treewalk`` module, so ``from .walkstats import
joining_all`` in the CLI and the internal call in ``walkstats.t_meet`` are
both caught. Spans stay in memory; the worker writes them out when it ends.

A layer's self time is its spans' durations minus the part covered by their
direct children, so a span for ``walkstats.t_meet`` does not count the
``walkstats.joining_all`` call it makes.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, function, span name, attribute extractor). A span's self time
# adds to the per-layer metric named after it plus "_s"; simulate and
# cli.main spans feed the metrics made for them in layer_metrics.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("treewalk.enumeration", "enumerate_trees", "enumeration.enumerate", lambda a, k: {"n": a[0]}),
    ("treewalk.trees", "canonical_form", "trees.canonical_form", None),
    ("treewalk.trees", "parse_edge_list", "trees.parse_edge_list", None),
    ("treewalk.trees", "diameter_and_geodesic", "trees.diameter_and_geodesic", None),
    ("treewalk.walkstats", "joining_all", "walkstats.joining_all", None),
    ("treewalk.walkstats", "t_meet", "walkstats.t_meet", None),
    ("treewalk.walkstats", "t_bestmeet", "walkstats.t_bestmeet", None),
    ("treewalk.walkstats", "kemeny", "walkstats.kemeny", None),
    ("treewalk.walkstats", "barycenter", "walkstats.barycenter", None),
    ("treewalk.oracles", "joining_time_by_linear_solve", "oracles.linear_solve", None),
    ("treewalk.audit", "audit_theorem_min", "audit.thm_cells", None),
    ("treewalk.audit", "audit_theorem_max", "audit.thm_cells", None),
    ("treewalk.audit", "audit_theorem_global", "audit.thm_cells", None),
    ("treewalk.audit", "audit_formula", "audit.formula", None),
    ("treewalk.families", "path_tree", "families.generate", None),
    ("treewalk.families", "star_tree", "families.generate", None),
    ("treewalk.families", "lever_tree", "families.generate", None),
    ("treewalk.families", "balanced_lever", "families.generate", None),
    ("treewalk.families", "broom_tree", "families.generate", None),
    ("treewalk.families", "double_broom_tree", "families.generate", None),
    ("treewalk.families", "balanced_double_broom", "families.generate", None),
    ("treewalk.families", "generate", "families.generate", None),
    ("treewalk.transforms", "minimize_pipeline", "transforms.minimize", None),
    ("treewalk.transforms", "maximize_pipeline", "transforms.maximize", None),
    ("treewalk.simulate", "simulate_hitting", "simulate.simulate_hitting", lambda a, k: {"walks": a[3]}),
    ("treewalk.cli", "main", "cli.main", lambda a, k: {"command": _cli_command(a[0] if a else k.get("argv"))}),
]


def _cli_command(argv) -> str:
    return next((x for x in argv or () if not x.startswith("-")), "")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a request's root span
    request: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. Spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = ""

    def open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.request, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.__dict__, sort_keys=True) + "\n")


def busy_times(spans: list[Span], pauses: list[tuple[float, float]] = ()) -> list[float]:
    """Duration of each span, indexed like `spans`, leaving out `pauses`:
    disjoint (start, end) intervals in which the worker was not running
    treewalk. A pause runs between two bytecodes, so it lies wholly inside
    or wholly outside any span."""
    pauses = sorted(pauses)
    starts = [a for a, _ in pauses]
    before = [0.0]
    for a, b in pauses:
        before.append(before[-1] + b - a)
    out = []
    for sp in spans:
        lo = bisect.bisect_left(starts, sp.start)
        hi = bisect.bisect_left(starts, sp.end)
        out.append(sp.duration - (before[hi] - before[lo]))
    return out


def self_times(spans: list[Span], busy: list[float]) -> list[float]:
    """Self time of each span: its busy time minus its direct children's."""
    out = busy[:]
    for sp, t in zip(spans, busy):
        if sp.parent >= 0:
            out[sp.parent] -= t
    return out


def _wrap(fn: Callable, name: str, attrs_of: Optional[Callable], tracer: Tracer) -> Callable:
    def attrs(a, k) -> dict:
        return attrs_of(a, k) if attrs_of else {}

    if name == "enumeration.enumerate":
        # a generator: the span covers the whole iteration, counting classes
        @functools.wraps(fn)
        def gen_wrapper(*a, **k):
            sp = tracer.open(name, attrs(a, k))
            count = 0
            try:
                for item in fn(*a, **k):
                    count += 1
                    yield item
            finally:
                sp.attrs["yielded"] = count
                tracer.close(sp)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*a, **k):
        sp = tracer.open(name, attrs(a, k))
        try:
            result = fn(*a, **k)
        finally:
            tracer.close(sp)
        if name.startswith("transforms."):
            sp.attrs["steps"] = len(result[1].steps)
        elif name == "simulate.simulate_hitting":
            sp.attrs["steps"] = result.total_steps
        return result

    return wrapper


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every TARGETS function wherever treewalk binds it; returns undo."""
    originals = {}
    for mod_name, attr, span_name, attrs_of in TARGETS:
        fn = getattr(sys.modules[mod_name], attr)
        originals[id(fn)] = (fn, _wrap(fn, span_name, attrs_of, tracer))
    rebound: list[tuple[object, str, object]] = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "treewalk" or mod_name.startswith("treewalk.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                rebound.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    def undo() -> None:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)

    return undo


def layer_metrics(spans: list[Span], pauses: list[tuple[float, float]] = ()) -> dict[str, float]:
    """Per-layer self times (s) and counts for one repetition. A layer that
    did not run has no entry."""
    busy = busy_times(spans, pauses)
    m: dict[str, float] = defaultdict(float)
    simulated = []
    for sp, b, own in zip(spans, busy, self_times(spans, busy)):
        if sp.name == "cli.main":
            if sp.attrs["command"] == "analyze":
                m["cli.analyze_self_s"] += own
        elif sp.name == "simulate.simulate_hitting":
            simulated.append((sp.attrs["walks"], sp.attrs["steps"], b))
        elif not sp.name.startswith("request."):
            m[sp.name + "_s"] += own
        if sp.name == "walkstats.joining_all":
            m["walkstats.joining_all_calls"] += 1
        elif sp.name == "enumeration.enumerate":
            m["enumeration.classes"] += sp.attrs["yielded"]
            if sp.attrs["n"] == 8:
                m["enumeration.order8_s"] += own
        elif sp.name.startswith("transforms."):
            m["transforms.steps"] += sp.attrs["steps"]
    if len(simulated) == 2:
        m["simulate.per_walk_us"], m["simulate.per_step_ns"] = fit_simulate(*simulated)
    return dict(m)


def fit_simulate(first: tuple[int, int, float], second: tuple[int, int, float]) -> tuple[float, float]:
    """Per-walk (us) and per-step (ns) cost from two (walks, steps, seconds)
    simulate calls of different shape, solving seconds = walks*a + steps*b."""
    (w1, s1, t1), (w2, s2, t2) = first, second
    det = w1 * s2 - w2 * s1
    a = (t1 * s2 - t2 * s1) / det
    b = (w1 * t2 - w2 * t1) / det
    return a * 1e6, b * 1e9
