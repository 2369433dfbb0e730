"""Golden digests of the behavioural contract.

Each group runs a fixed set of in-process `--no-timing` CLI commands, or
both rewrite pipelines on seeded random trees, or maximize on the lever
minimize returns for each of those trees, as the benchmark runs it, or
every ledger formula on a grid of (n, d), and hashes every output byte: stdout, stderr and exit
code per command; the JSON-lines trace, the final adjacency and the error
text per pipeline run; the value or the exception class per formula call.
A refactor that keeps behaviour keeps every digest; a failing case names
its group.

`simulate` is left out: its standard error is a float whose digits follow
the variance formula, not the walks.

The benchmark in `perfbench/` reaches treewalk by name, so the names it
reads are pinned here too: a renamed function fails this suite, not only
the benchmark's own selftest.

    python tests/test_golden.py    # print the current digests
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import io
import os
import random
import tempfile
from pathlib import Path

import pytest

import treewalk
from treewalk.cli import main
from treewalk.errors import TreewalkError
from treewalk.families import FORMULA_IDS, FORMULAS, closed_form
from treewalk.transforms import maximize_pipeline, minimize_pipeline
from treewalk.trees import format_edge_list, prufer_decode

QUANTITIES = ("t_bestmeet", "t_meet", "kemeny", "j_min", "j_max")


def _gen_commands():
    for n in range(2, 13):
        yield ["gen", "--family", "path", "--n", str(n)]
        yield ["gen", "--family", "star", "--n", str(n)]
        for d in range(1, n):
            for family in ("broom", "balanced-lever", "balanced-double-broom"):
                yield ["gen", "--family", family, "--n", str(n), "--d", str(d)]
            for k in range(d + 1):
                yield ["gen", "--family", "lever", "--n", str(n), "--d", str(d), "--k", str(k)]
            for left in range(n - d + 2):
                right = n - d + 1 - left
                yield ["gen", "--family", "double-broom", "--n", str(n), "--d", str(d),
                       "--left", str(left), "--right", str(right)]


def _theorem_commands():
    for n in range(3, 9):
        for d in range(1, n):
            yield ["audit", "thm-min", "--n", str(n), "--d", str(d)]
            yield ["audit", "thm-max", "--n", str(n), "--d", str(d)]
        yield ["audit", "prop-barycenter", "--n", str(n)]
    for n in range(3, 10):
        yield ["audit", "thm-global", "--n", str(n)]


def _formula_commands():
    for fid in FORMULA_IDS:
        yield ["audit", "formula", fid, "--n", "2..40"]


def _sweep_commands():
    for n in range(2, 10):
        for quantity in QUANTITIES:
            yield ["sweep", "--enumerated", "--n", str(n), "--quantity", quantity]


def _sweep_family_commands():
    # n from 2 takes in the too-small orders' error lines
    for family in ("balanced-lever", "balanced-double-broom", "broom"):
        for n in range(2, 25):
            for quantity in QUANTITIES:
                yield ["sweep", "--family", family, "--n", str(n), "--quantity", quantity]


def _analyze_commands():
    # relative paths: the command echo is part of the output
    rng = random.Random(5)
    for i, n in enumerate((7, 40, 300)):
        name = f"tree{i}.txt"
        code = [rng.randrange(n) for _ in range(n - 2)]
        with open(name, "w", encoding="utf-8") as f:
            f.write(format_edge_list(prufer_decode(code, n)))
        yield ["analyze", "--input", name]


CLI_GROUPS = {
    "gen": _gen_commands,
    "audit-theorems": _theorem_commands,
    "audit-formulas": _formula_commands,
    "sweep-enumerated": _sweep_commands,
    "sweep-families": _sweep_family_commands,
    "analyze": _analyze_commands,
}


def _cli_digest(commands) -> str:
    h = hashlib.sha256()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--no-timing", *argv])
        h.update(repr((argv, out.getvalue(), err.getvalue(), code)).encode())
    return h.hexdigest()


def _maximize_on_lever(t):
    # the path the benchmark runs: maximize on the lever minimize returns
    return maximize_pipeline(minimize_pipeline(t)[0])


def _pipeline_digest(pipeline) -> str:
    rng = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(200):
        n = rng.randint(6, 60)
        t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        try:
            out, trace = pipeline(t)
        except TreewalkError as e:
            record = (type(e).__name__, str(e))
        else:
            record = (trace.initial_value, trace.initial_canonical, trace.to_json_lines(), out.adjacency)
        h.update(repr(record).encode())
    return h.hexdigest()


def _closed_form_digest() -> str:
    # the grid runs past every stated range on both sides, so each range
    # check and its exception class is pinned along with the values
    h = hashlib.sha256()
    for fid in FORMULA_IDS:
        for n in range(-2, 43):
            calls = [(n,)]
            if FORMULAS[fid].needs_d:
                calls += [(n, d) for d in range(-2, 44)]
            for args in calls:
                try:
                    record = closed_form(fid, *args)
                except TreewalkError as e:
                    record = type(e).__name__
                h.update(repr((fid, args, record)).encode())
    return h.hexdigest()


def _digest(group: str) -> str:
    if group == "closed-form":
        return _closed_form_digest()
    if group == "minimize_pipeline":
        return _pipeline_digest(minimize_pipeline)
    if group == "maximize_pipeline":
        return _pipeline_digest(maximize_pipeline)
    if group == "maximize_on_levers":
        return _pipeline_digest(_maximize_on_lever)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return _cli_digest(CLI_GROUPS[group]())
        finally:
            os.chdir(cwd)


DIGESTS = {
    'gen': '84f8126da3da1d39df4b165a0a3648b2cff70bf44fe35609fcbbb58e4711a45f',
    'audit-theorems': '7a05e7a15a56e681a94f8534c427a73d91cce3415c9553d96415bd1ae1155bac',
    'audit-formulas': '4d5a4564b8a38e086f7c5e3766518e5558e85a806644bae361376b354c8050b3',
    'sweep-enumerated': '2eb4744615044db92e489f2cc3f5584d4ab0181661e6d43c9793c7ba79e519a0',
    'sweep-families': '042223651312324b007167a455afdfcb0173836a6e543ec69491b155ca0cab6d',
    'analyze': '2b62ceae4f3c6e1d73d6d9f6bb1b4c62dedbcea489c57aaf40d5662e943b6214',
    'minimize_pipeline': '09314f3e32b60ebc41eff5cdfab5334865a5c12cf59bed10f2ebc3608f56ca84',
    'maximize_pipeline': 'fae424cd742b6df5924805bf789b035d06e68ab12488e188977c70da6fa14682',
    'maximize_on_levers': 'bf4eca19ebe12f129ddf9e2b2a37a4a274b30dd4caa92507c9e174845b25350c',
    'closed-form': '8f1e47e30f0e3786094c4a00db00eff23204034eef573caf8f0d49b233a08da9',
}


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_golden_digest(group):
    assert _digest(group) == DIGESTS[group], f"output of group {group!r} changed"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_source(name: str) -> ast.Module:
    # read, never run: the benchmark's modules stay out of the suite's process
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_benchmark_names_resolve():
    # every (module, function) the traced run wraps is a callable
    targets = next(
        node.value
        for node in ast.walk(_perfbench_source("tracing.py"))
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    )
    pairs = [tuple(ast.literal_eval(e) for e in row.elts[:2]) for row in targets.elts]
    assert ("treewalk.transforms", "maximize_pipeline") in pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    # every tw.<name> the worker reads is on the package
    names = {
        node.attr
        for node in ast.walk(_perfbench_source("worker.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "tw"
    }
    assert "is_double_broom" in names
    assert [name for name in sorted(names) if not hasattr(treewalk, name)] == []


def _resolve(dotted: str) -> object:
    """The object a dotted treewalk name reaches, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=1):
        if not hasattr(obj, attr):
            importlib.import_module(".".join(parts[: i + 1]))
        obj = getattr(obj, attr)
    return obj


def _attribute_chain(node: ast.Attribute) -> str:
    """`a.b.c` for an attribute read on a plain name, else ""."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else ""


def test_benchmark_imports_resolve():
    # every `from treewalk... import name` and every treewalk.<a>.<b> chain the
    # benchmark's modules hold, such as the Monte Carlo check's oracle and the
    # selftest's dotted reads, still reaches something
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_perfbench_source(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treewalk":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "treewalk")
            elif isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                if chain.split(".")[0] == "treewalk":
                    names.add(chain)
    assert "treewalk.oracles.hitting_time_by_edge_decomposition" in names
    assert "treewalk.enumeration.tree_classes.cache_clear" in names
    assert "treewalk.walkstats.joining_all" in names
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []


if __name__ == "__main__":
    for group in [*CLI_GROUPS, "minimize_pipeline", "maximize_pipeline", "maximize_on_levers", "closed-form"]:
        print(f"    {group!r}: {_digest(group)!r},")
