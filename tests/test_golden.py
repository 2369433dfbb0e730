"""Golden digests of the behavioural contract.

Each group runs a fixed set of in-process `--no-timing` CLI commands, or
both rewrite pipelines on seeded random trees, and hashes every output
byte: stdout, stderr and exit code per command; the JSON-lines trace, the
final adjacency and the error text per pipeline run. A refactor that keeps
behaviour keeps every digest; a failing case names its group.

`simulate` is left out: its standard error is a float whose digits follow
the variance formula, not the walks.

    python tests/test_golden.py    # print the current digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile

import pytest

from treewalk.cli import main
from treewalk.errors import TreewalkError
from treewalk.families import FORMULA_IDS
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


def _digest(group: str) -> str:
    if group == "minimize_pipeline":
        return _pipeline_digest(minimize_pipeline)
    if group == "maximize_pipeline":
        return _pipeline_digest(maximize_pipeline)
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
    'analyze': '2b62ceae4f3c6e1d73d6d9f6bb1b4c62dedbcea489c57aaf40d5662e943b6214',
    'minimize_pipeline': '09314f3e32b60ebc41eff5cdfab5334865a5c12cf59bed10f2ebc3608f56ca84',
    'maximize_pipeline': 'fae424cd742b6df5924805bf789b035d06e68ab12488e188977c70da6fa14682',
}


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_golden_digest(group):
    assert _digest(group) == DIGESTS[group], f"output of group {group!r} changed"


if __name__ == "__main__":
    for group in [*CLI_GROUPS, "minimize_pipeline", "maximize_pipeline"]:
        print(f"    {group!r}: {_digest(group)!r},")
