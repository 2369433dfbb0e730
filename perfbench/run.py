"""treewalk benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness RUNS [--workload NAME ...] [--seconds S]

Run from the root of a checkout; the package is imported from ``src``. Each
repetition runs in a fresh worker process (perfbench/worker.py), one at a
time, with no TREEWALK_* variables set, so every repetition pays a cold
enumeration cache and reports its own set-up time and peak RSS. Repetitions
continue until the next one would end after --seconds (at least three).

With --trace 0 the last line holds the end-to-end metrics, medians over the
repetitions. With --trace 1 every other repetition runs with spans at
treewalk's module boundaries and the last line holds the per-layer metrics,
medians over the traced repetitions, plus the tracing overhead against the
untraced ones. The lines before it say which inputs, machine and source
produced the figures, the error rate, and every metric by name, including
each workload's two requests under their own names (analyze_s, gen_s, ...).

--steadiness RUNS repeats each named workload (all by default) with seeds
N..N+RUNS-1 and reports each end-to-end metric's spread, the distance
between its quartiles as a share of its median, against its bound in
BENCHMARK.json. It exits 1 when a spread other than setup_s exceeds its bound
or an operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1  # the seed whose analyze output worker.py pins to a digest
MIN_REPS = 3
MIN_TRACED_REPS = 2
RUN_LIMIT_S = 170  # every run must end well inside 180 s

# each workload's primary and secondary request, by name
REQUEST_NAMES = {
    "exhaustive-audit": ("audit_s", "audit_warm_s"),
    "large-tree": ("analyze_s", "gen_s"),
    "family-ledger": ("ledger_s", "pipelines_s"),
    "monte-carlo": ("sim_short_s_per_1e4_walks", "sim_long_s_per_1e6_steps"),
}
RATE_NAMES = ("sim_short_walks_per_s", "sim_long_steps_per_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREEWALK_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spawn(workload: str, seed: int, workdir: Path, trace_file: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("out of time before the minimum number of repetitions")
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=worker_env(), capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the {RUN_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    env = record["env"]
    if env["treewalk_env"]:
        raise BenchError(f"TREEWALK_* variables reached the worker: {env['treewalk_env']}")
    if Path(env["treewalk"]).resolve().parent.parent != ROOT / "src":
        raise BenchError(f"imported treewalk from {env['treewalk']}, not from {ROOT / 'src'}")
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Repetitions of one workload; returns the result object and the records."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    traces = WORK / "traces"
    records: list[dict] = []
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if trace:
        traces.mkdir(parents=True, exist_ok=True)
    try:
        while True:
            k = len(records)
            trace_file = traces / f"{workload}-seed{seed}-rep{k}.jsonl" if trace and k % 2 else None
            records.append(spawn(workload, seed, workdir, trace_file, deadline))
            elapsed = time.monotonic() - started
            plain = [r for r in records if "layers" not in r]
            traced = [r for r in records if "layers" in r]
            enough = len(plain) >= MIN_REPS if not trace else len(traced) >= MIN_TRACED_REPS
            if enough and elapsed * (k + 2) / (k + 1) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = load_spec()
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    plain = [r for r in records if "layers" not in r]
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(r[m["name"]] for r in plain), "unit": m["unit"]}
    else:
        traced = [r for r in records if "layers" in r]
        overhead = statistics.median(r["request_s"] for r in traced) / statistics.median(r["request_s"] for r in plain)
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_pct":
                value = 100 * (overhead - 1)
            else:
                value = statistics.median(r["layers"].get(m["name"], 0) for r in traced)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, records


def describe(workload: str, seed: int, trace: bool, result: dict, records: list[dict]) -> list[str]:
    """Human-readable lines: provenance, error rate, every metric by name."""
    env = records[0]["env"]
    facts = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": env["python"],
        "numpy": env["numpy"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "treewalk_env": env["treewalk_env"],
        "repetitions": len(records),
    }
    lines = ["perfbench " + json.dumps(facts, sort_keys=True)]
    rate = result["failed"] / result["attempted"]
    lines.append(f"  error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} operations failed)")
    for r in records:
        for key, why in r["failures"].items():
            lines.append(f"  FAILED {key}: {why}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        plain = [r for r in records if "layers" not in r]
        for name, key in zip(REQUEST_NAMES[workload], ("primary", "secondary")):
            wall = statistics.median(r["wall_s"][key] for r in plain)
            lines.append(f"  {name} = {result['metrics'][key + '_s']['value']:.6g} s (raw wall time of the request {wall:.6g} s)")
        for name in RATE_NAMES:
            if name in plain[0]["extra"]:
                lines.append(f"  {name} = {statistics.median(r['extra'][name] for r in plain):.6g} 1/s")
    return lines


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steadiness(workloads: list[str], seed: int, runs: int, seconds: float) -> int:
    spec = load_spec()
    ok = True
    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for i in range(runs):
            result, _ = run_workload(workload, seed + i, seconds, trace=False)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        ok = ok and failed == 0
        report[workload] = {"failed": failed}
        print(f"{workload}: {runs} runs, {failed} failed operations")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            s = spread(vals)
            within = s <= m["bound"]
            if m["name"] != "setup_s":
                ok = ok and within
            report[workload][m["name"]] = {"median": statistics.median(vals), "spread": s, "bound": m["bound"], "values": vals}
            print(
                f"  {m['name']:<14} median {statistics.median(vals):.6g} {m['unit']:<6} "
                f"spread {s:.4f}  bound {m['bound']}  spread/bound {s / m['bound']:.2f}"
                + ("" if within else "  OVER BOUND")
            )
        sys.stdout.flush()
    print(json.dumps(report, sort_keys=True))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="treewalk benchmark")
    p.add_argument("--workload", action="append", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "treewalk" / "__init__.py").is_file():
        print(f"error: no treewalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    for w in args.workload or ():
        if w not in names:
            print(f"error: unknown workload {w!r}; choose from {names}", file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.steadiness:
            return steadiness(args.workload or names, args.seed, args.steadiness, seconds)
        if not args.workload or len(args.workload) != 1:
            print("error: name exactly one --workload", file=sys.stderr)
            return 2
        workload = args.workload[0]
        result, records = run_workload(workload, args.seed, seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(describe(workload, args.seed, bool(args.trace), result, records)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
