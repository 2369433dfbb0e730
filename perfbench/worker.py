"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--trace-file FILE]

Run with ``src`` on PYTHONPATH and DIR as the working directory. The worker
makes its inputs from the seed, times the workload's two requests, then
checks every output outside the timed intervals. It prints one JSON line:
setup and request times, peak RSS, the operations attempted and failed,
and, with --trace-file, the per-layer metrics of the spans it wrote there.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import treewalk  # noqa: E402
import treewalk.cli  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402

tw = treewalk  # functions are looked up at call time, so traced runs see the wrappers

# Seed whose analyze output is pinned to a digest taken at the commit that
# introduced the benchmark; --no-timing output must stay byte-identical.
DEFAULT_SEED = 1
GOLDEN = {
    "analyze-default-seed": "c841cfe637fa411ccf11d363f8b22be7b6806ec4dfe19ed8266b00d1b07abbda",
    "gen-path-40000": "14c6713aba2b8488d5dafb6c8ccb3aa0a36f8c2fa5be18fb2a15db533bad7876",
    "sweep-enumerated-8-kemeny": "87a832f0535e45d1d4681b179d2155d8b110d7ea1d3de10cdc43128f6937349d",
}

AUDIT_ORDERS = range(3, 9)
LARGE_N = 100_000
GEN_PATH_N = 40_000
GEN_REPEATS = 3
LEDGER_N = (3, 60)
MISPRINTS = frozenset(
    {
        "jmax_star_printed",
        "jmax_path_expanded_printed",
        "bestmeet_dbroom_oe_printed",
        "bestmeet_bn_printed",
        "jmin_dnd_max",
    }
)
WARM_REPLAYS = 10
PIPELINE_TREES = 100
PIPELINE_N = (20, 60)
SHORT_WALKS = 20_000
LONG_WALKS = 1_000
LONG_PATH_N = 64


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prufer_edges(code: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree a Prufer code names. The benchmark decodes
    its own inputs so that they do not depend on the code under test."""
    deg = [1] * n
    for c in code:
        deg[c] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        edges.append((heapq.heappop(leaves), c))
        deg[c] -= 1
        if deg[c] == 1:
            heapq.heappush(leaves, c)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tw.cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """Inputs are made in __init__ (set-up). primary(i) and secondary(i) are
    the timed requests, run REPEATS times each in an untraced repetition
    (i counts the runs) and once in a traced one. Each operation in them
    goes through op(), which counts it and records an exception as a
    failure. check() runs after the timing and marks operations whose
    output is wrong."""

    REPEATS = (1, 1)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.extra: dict[str, float] = {}

    def op(self, key: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failed operation is a result, not a crash
            self.fail(key, f"raised {e!r}")
            return None

    def fail(self, key: str, why: str) -> None:
        self.failures.setdefault(key, why)

    def expect(self, key: str, cond: bool, why: str) -> None:
        if not cond:
            self.fail(key, why)


class ExhaustiveAudit(Workload):
    """Every thm-min/thm-max cell and thm-global for orders 3..8,
    prop-barycenter up to 8 and the enumerated order-8 Kemeny sweep, first
    from a cold enumeration cache (primary), then replayed WARM_REPLAYS
    times on the warm cache (secondary), which leaves the per-cell work.
    The secondary request is short, so it runs three times."""

    REPEATS = (1, 3)

    SWEEP = ["--no-timing", "sweep", "--enumerated", "--n", "8", "--quantity", "kemeny", "--format", "json"]

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        cells = [(kind, n, d) for n in AUDIT_ORDERS for d in range(2, n) for kind in ("thm-min", "thm-max")]
        cells += [("thm-global", n, None) for n in AUDIT_ORDERS]
        random.Random(seed).shuffle(cells)
        self.cells = cells + [("prop-barycenter", max(AUDIT_ORDERS), None)]
        self.reports: dict[str, list] = {}

    def _session(self, tag: str) -> None:
        out = []
        for kind, n, d in self.cells:
            key = f"{tag}:{kind}:{n}:{d}"
            if kind == "thm-min":
                rep = self.op(key, tw.audit_theorem_min, n, d)
            elif kind == "thm-max":
                rep = self.op(key, tw.audit_theorem_max, n, d)
            elif kind == "thm-global":
                rep = self.op(key, tw.audit_theorem_global, n)
            else:
                rep = self.op(key, tw.audit_proposition_barycenter, n)
            out.append((key, rep))
        out.append((f"{tag}:sweep", self.op(f"{tag}:sweep", run_cli, self.SWEEP)))
        self.reports[tag] = out

    def primary(self, _: int) -> None:
        self._session("cold")

    def secondary(self, i: int) -> None:
        for r in range(WARM_REPLAYS):
            self._session(f"warm{i}.{r}")

    def check(self) -> None:
        for tag, results in self.reports.items():
            for key, rep in results[:-1]:
                if rep is not None:
                    self.expect(key, rep.status == tw.VERIFIED, f"status {rep.status}: {rep.notes}")
            key, swept = results[-1]
            if swept is not None:
                rc, text = swept
                self.expect(key, rc == 0, f"exit code {rc}")
                self.expect(key, sha256(text) == GOLDEN["sweep-enumerated-8-kemeny"], "sweep digest differs")
                self.expect(key, len(json.loads(text)["results"]["rows"]) == 23, "order 8 has 23 classes")
        for tag, results in self.reports.items():
            for (_, cold), (key, warm) in zip(self.reports["cold"], results):
                if hasattr(cold, "as_dict") and hasattr(warm, "as_dict"):
                    cold, warm = cold.as_dict(), warm.as_dict()
                self.expect(key, cold == warm, "warm replay differs from the cold session")


class LargeTree(Workload):
    """CLI analyze on a seeded random 1e5-vertex tree read from a file
    (primary) and CLI gen of a 40000-vertex path (secondary). gen runs
    GEN_REPEATS times: half of its time is the kernel faulting in ~800 MB,
    which swings more from run to run than the rest."""

    REPEATS = (1, GEN_REPEATS)

    ANALYZE = ["--no-timing", "analyze", "--input", "tree.txt"]
    GEN = ["--no-timing", "gen", "--family", "path", "--n", str(GEN_PATH_N), "--output", "path.txt"]

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.edges = random_edges(random.Random(seed), LARGE_N)
        (workdir / "tree.txt").write_text(edge_list_text(LARGE_N, self.edges), encoding="utf-8")
        self.generated: list = []

    def primary(self, _: int) -> None:
        self.analyzed = self.op("analyze", run_cli, self.ANALYZE)

    def secondary(self, i: int) -> None:
        self.generated.append((f"gen{i}", self.op(f"gen{i}", run_cli, self.GEN)))

    def check(self) -> None:
        if self.analyzed is not None:
            rc, out = self.analyzed
            self.extra["cli.output_bytes"] = len(out.encode("utf-8"))
            self.expect("analyze", rc == 0, f"exit code {rc}")
            if self.seed == DEFAULT_SEED:
                self.expect("analyze", sha256(out) == GOLDEN["analyze-default-seed"], "analyze digest differs")
            try:
                problems = check_analyze(LARGE_N, self.edges, json.loads(out)["results"], self.seed)
            except (KeyError, TypeError, ValueError) as e:
                problems = [f"malformed output: {e!r}"]
            for why in problems:
                self.fail("analyze", why)
        n = GEN_PATH_N
        chain = "1" * ((n - 1) // 2) + "0" * ((n - 1) // 2), "1" * (n // 2) + "0" * (n // 2)
        canonical = "1" + chain[0] + chain[1] + "0"
        path_text = edge_list_text(n, [(i, i + 1) for i in range(n - 1)])
        for key, generated in self.generated:
            if generated is None:
                continue
            rc, out = generated
            self.expect(key, rc == 0, f"exit code {rc}")
            self.expect(key, sha256(out) == GOLDEN["gen-path-40000"], "gen digest differs")
            self.expect(key, json.loads(out)["results"]["canonical"] == canonical, "path canonical form")
            written = (self.workdir / "path.txt").read_text(encoding="utf-8")
            self.expect(key, written == path_text, "edge list")


def check_analyze(n: int, edges: list[tuple[int, int]], res: dict, seed: int) -> list[str]:
    """Failures found in an analyze payload, from the edge list alone plus
    treewalk's single-target joining_time at a few seeded vertices."""
    bad = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    pv = res["per_vertex"]
    if res["n"] != n or len(pv) != n:
        return [f"expected {n} vertices"]
    js = [pv[str(v)]["joining_time"] for v in range(n)]
    two_m = 2 * (n - 1)

    def exact(fr: Fraction) -> tuple[int, int]:
        return fr.numerator, fr.denominator

    def got(entry: dict) -> tuple[int, int]:
        return entry["num"], entry["den"]

    hi, lo = max(js), min(js)
    if got(res["t_meet"]) != exact(Fraction(hi, two_m)) or res["t_meet"]["argmax"] != js.index(hi):
        bad.append("t_meet is not the largest joining time")
    if got(res["t_bestmeet"]) != exact(Fraction(lo, two_m)) or res["t_bestmeet"]["argmin"] != js.index(lo):
        bad.append("t_bestmeet is not the smallest joining time")
    kem = Fraction(sum(len(adj[v]) * js[v] for v in range(n)), two_m * two_m)
    if got(res["kemeny"]) != exact(kem):
        bad.append("kemeny is not the stationary mean of the joining times")

    def bfs(src: int) -> tuple[list[int], list[int], list[int]]:
        dist = [-1] * n
        parent = [-1] * n
        dist[src] = 0
        order = [src]
        for u in order:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    order.append(w)
        return dist, order, parent

    dist0, order, parent = bfs(0)
    dist_far, _, _ = bfs(dist0.index(max(dist0)))
    diameter = max(dist_far)
    geo = res["geodesic"]
    if res["diameter"] != diameter or len(geo) != diameter + 1:
        bad.append(f"diameter {res['diameter']} != {diameter}")
    elif any(b not in adj[a] for a, b in zip(geo, geo[1:])):
        bad.append("geodesic is not a path")
    # barycenter: every component of t - c has at most n/2 vertices
    size = [1] * n
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    centers = []
    for v in range(n):
        parts = [size[w] for w in adj[v] if w != parent[v]] + ([n - size[v]] if v != 0 else [])
        if all(2 * p <= n for p in parts):
            centers.append(v)
    if res["barycenter"] != centers:
        bad.append(f"barycenter {res['barycenter']} != {centers}")
    rng = random.Random(seed)
    sample = [rng.randrange(n) for _ in range(2)]
    tree = tw.Tree(n, tuple(tuple(sorted(a)) for a in adj))  # valid by construction
    for v in sample:
        if js[v] != tw.joining_time(tree, v):
            bad.append(f"joining time at {v} differs from joining_time")
        if got(pv[str(v)]["meeting_time"]) != exact(Fraction(js[v], two_m)):
            bad.append(f"meeting time at {v} is not J/2|E|")
    return bad


class FamilyLedger(Workload):
    """audit_formula for every ledger id over n in 3..60 (primary), and the
    two rewrite pipelines on 100 seeded random trees with n in 20..60
    (secondary): minimize_pipeline on the random tree, then
    maximize_pipeline on the balanced lever it returns."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.fids = list(tw.FORMULA_IDS)
        rng.shuffle(self.fids)
        self.trees = []
        lo, hi = PIPELINE_N
        while len(self.trees) < PIPELINE_TREES:
            # orders spread evenly over lo..hi, so the seed moves the total work little
            n = lo + len(self.trees) * (hi - lo + 1) // PIPELINE_TREES
            t = tw.build_tree(random_edges(rng, n), n)
            d = tw.diameter_and_geodesic(t)[0]
            if 3 <= d <= n - 2:  # minimize_pipeline's stated domain
                self.trees.append((t, d))

    def primary(self, _: int) -> None:
        self.ledger = [(fid, self.op(f"formula:{fid}", tw.audit_formula, fid, *LEDGER_N)) for fid in self.fids]

    def secondary(self, _: int) -> None:
        self.piped = []
        for i, (t, _d) in enumerate(self.trees):
            low = self.op(f"minimize:{i}", tw.minimize_pipeline, t)
            high = self.op(f"maximize:{i}", tw.maximize_pipeline, low[0]) if low is not None else None
            self.piped.append((low, high))

    def check(self) -> None:
        for fid, rep in self.ledger:
            if rep is not None:
                want = tw.DISCREPANCY if fid in MISPRINTS else tw.VERIFIED
                self.expect(f"formula:{fid}", rep.status == want, f"status {rep.status}, want {want}")
        for i, ((t, d), (low, high)) in enumerate(zip(self.trees, self.piped)):
            if low is not None:
                out, trace = low
                values = [trace.initial_value] + [s.value for s in trace.steps]
                self.expect(f"minimize:{i}", all(a > b for a, b in zip(values, values[1:])), "not decreasing")
                self.expect(f"minimize:{i}", values[-1] == min(tw.joining_all(out)), "trace end value")
                self.expect(
                    f"minimize:{i}",
                    tw.canonical_form(out) == tw.canonical_form(tw.balanced_lever(t.n, d)),
                    "did not end on the balanced lever",
                )
            if high is not None:
                out, trace = high
                values = [trace.initial_value] + [s.value for s in trace.steps]
                self.expect(f"maximize:{i}", all(a <= b for a, b in zip(values, values[1:])), "not increasing")
                self.expect(f"maximize:{i}", tw.is_double_broom(out), "did not end on a double broom")
                self.expect(f"maximize:{i}", tw.diameter_and_geodesic(out)[0] <= d, "diameter grew")
                if trace.steps:
                    grew = min(tw.joining_all(out)) > min(tw.joining_all(low[0]))
                    self.expect(f"maximize:{i}", grew, "minimum joining time did not grow")
                else:  # only a double broom is returned unchanged
                    self.expect(f"maximize:{i}", tw.is_double_broom(low[0]), "returned its input")


class MonteCarlo(Workload):
    """simulate_hitting for many short walks (broom(11,5), 0 -> 5; primary)
    and for few long walks (path of 64 vertices, end to end; secondary).
    Each request runs twice with the same seed, and the two reports must be
    byte-identical."""

    REPEATS = (2, 2)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.broom = tw.broom_tree(11, 5)
        self.path = tw.path_tree(LONG_PATH_N)
        self.shorts: list = []
        self.longs: list = []

    def primary(self, i: int) -> None:
        self.shorts.append(self.op(f"short{i}", tw.simulate_hitting, self.broom, 0, 5, SHORT_WALKS, self.seed))

    def secondary(self, i: int) -> None:
        self.longs.append(self.op(f"long{i}", tw.simulate_hitting, self.path, 0, LONG_PATH_N - 1, LONG_WALKS, self.seed))

    def normalise(self, wall: list[float], primary_s: float, secondary_s: float) -> tuple[float, float]:
        """Seconds per 1e4 short walks and per 1e6 long-walk steps, so that
        the seed's walk lengths do not move the figures."""
        if self.longs[0] is None:
            return primary_s, secondary_s
        steps = self.longs[0].total_steps
        self.extra["sim_short_walks_per_s"] = SHORT_WALKS / wall[0]
        self.extra["sim_long_steps_per_s"] = steps / wall[1]
        return primary_s * 1e4 / SHORT_WALKS, secondary_s * 1e6 / steps

    def check(self) -> None:
        from treewalk.oracles import hitting_time_by_edge_decomposition

        exact = Fraction(hitting_time_by_edge_decomposition(self.broom, 0, 5))
        requests = [
            ("short", self.shorts, SHORT_WALKS, exact),
            ("long", self.longs, LONG_WALKS, Fraction((LONG_PATH_N - 1) ** 2)),
        ]
        for name, samples, walks, want in requests:
            first = None
            for i, sample in enumerate(samples):
                if sample is None:
                    continue
                key = f"{name}{i}"
                self.expect(key, sample.walks == walks and sample.exact == want, "exact hitting time")
                self.expect(key, abs(sample.z_score) < 4, f"z-score {sample.z_score}")
                report = json.dumps(sample.as_dict(), sort_keys=True)
                first = first or report
                self.expect(key, report == first, "same-seed repeat is not byte-identical")


WORKLOADS = {
    "exhaustive-audit": ExhaustiveAudit,
    "large-tree": LargeTree,
    "family-ledger": FamilyLedger,
    "monte-carlo": MonteCarlo,
}


def run(workload: str, seed: int, workdir: Path, trace_file: str | None = None) -> dict:
    """Set up, time both requests, check; returns this repetition's record."""
    w = WORKLOADS[workload](seed, workdir)
    setup_s = time.perf_counter() - STARTED
    setup_probe = speed.probe()
    tracer = Tracer() if trace_file else None
    undo = instrument(tracer) if tracer else None
    repeats = (1, 1) if tracer else w.REPEATS
    wall, adjusted, pauses = [], [], []
    try:
        for (tag, request), count in zip((("primary", w.primary), ("secondary", w.secondary)), repeats):
            runs = []
            for i in range(count):
                if tracer:
                    tracer.request = tag
                    root = tracer.open(f"request.{tag}", {})
                with speed.Sampler() as sampler:
                    request(i)
                runs.append(sampler)
                pauses += [(a, b) for a, b, _ in sampler.probes]
                if tracer:
                    tracer.close(root)
            wall.append(statistics.median(r.wall_s for r in runs))
            adjusted.append(statistics.median(r.adjusted_s for r in runs))
    finally:
        if undo:
            undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    primary_s, secondary_s = adjusted
    if isinstance(w, MonteCarlo):
        primary_s, secondary_s = w.normalise(wall, primary_s, secondary_s)
    w.check()
    record = {
        "setup_s": setup_s * speed.NOMINAL_S / setup_probe,
        "primary_s": primary_s,
        "secondary_s": secondary_s,
        "wall_s": {"setup": setup_s, "primary": wall[0], "secondary": wall[1]},
        "request_s": sum(adjusted),
        "peak_rss_mb": peak_rss_mb,
        "attempted": w.attempted,
        "failed": len(w.failures),
        "failures": dict(sorted(w.failures.items())[:20]),
        "extra": w.extra,
        "env": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "treewalk": treewalk.__file__,
            "treewalk_env": sorted(k for k in os.environ if k.startswith("TREEWALK_")),
        },
    }
    if tracer:
        tracer.write(trace_file)
        record["layers"] = layer_metrics(tracer.spans, pauses) | {
            k: v for k, v in w.extra.items() if k == "cli.output_bytes"
        }
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args()
    record = run(args.workload, args.seed, Path(args.workdir), args.trace_file)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
