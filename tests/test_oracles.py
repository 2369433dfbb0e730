"""The first-step linear solve against the Fraction Gauss-Jordan loop it
replaced, kept here verbatim as a reference only: every class of orders
2..9 at every target, and random Prufer trees with n <= 40 at a random
target. Then the oracles' id checks, the layering that keeps them apart
from the fast paths, and the one that leaves the package's one BFS to the
rooted passes, both read from the package's source."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treewalk import oracles
from treewalk.enumeration import tree_classes
from treewalk.errors import VertexOutOfRange
from treewalk.families import path_tree, star_tree
from treewalk.oracles import hitting_row_by_linear_solve, joining_time_by_linear_solve
from treewalk.trees import Tree, prufer_decode
from treewalk.walkstats import joining_all

SRC = Path(__file__).resolve().parents[1] / "src" / "treewalk"


def _fraction_gauss_jordan_row(t: Tree, w: int) -> list[Fraction]:
    n = t.n
    unknowns = [u for u in range(n) if u != w]
    index = {u: i for i, u in enumerate(unknowns)}
    m = n - 1
    # rows: deg(u) h_u - sum_{v in N(u), v != w} h_v = deg(u)
    a = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for u in unknowns:
        i = index[u]
        a[i][i] = Fraction(t.degree(u))
        a[i][m] = Fraction(t.degree(u))
        for v in t.adjacency[u]:
            if v != w:
                a[i][index[v]] -= 1
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = [Fraction(0)] * n
    for u in unknowns:
        out[u] = a[index[u]][m]
    return out


def _assert_solve_matches_reference(t: Tree, w: int) -> None:
    row = hitting_row_by_linear_solve(t, w)
    assert row == _fraction_gauss_jordan_row(t, w), (t, w)
    assert all(type(h) is Fraction for h in row)
    assert joining_time_by_linear_solve(t, w) == joining_all(t)[w]


@pytest.mark.parametrize("n", range(2, 10))
def test_linear_solve_matches_the_fraction_loop_on_every_class(n):
    for t in tree_classes(n):
        for w in range(n):
            _assert_solve_matches_reference(t, w)


@st.composite
def rooted_prufer_trees(draw, max_n: int = 40) -> tuple[Tree, int]:
    n = draw(st.integers(min_value=2, max_value=max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n), draw(st.integers(0, n - 1))


@settings(max_examples=50, deadline=None)
@given(rooted_prufer_trees())
@example((path_tree(1), 0))
@example((path_tree(40), 0))
@example((path_tree(40), 20))
@example((star_tree(40), 0))
@example((star_tree(40), 39))
def test_linear_solve_matches_the_fraction_loop(case):
    _assert_solve_matches_reference(*case)


ID_TAKING_CALLS = {
    "hitting_time-both": lambda t, v: oracles.hitting_time(t, v, v),
    "hitting_time-u": lambda t, v: oracles.hitting_time(t, v, 0),
    "hitting_time-w": lambda t, v: oracles.hitting_time(t, 0, v),
    "path_overlap-u": lambda t, v: oracles.path_overlap(t, v, 0, 4),
    "path_overlap-v": lambda t, v: oracles.path_overlap(t, 0, v, 4),
    "path_overlap-w": lambda t, v: oracles.path_overlap(t, 0, 4, v),
    "edge_decomposition-u": lambda t, v: oracles.hitting_time_by_edge_decomposition(t, v, 0),
    "edge_decomposition-w": lambda t, v: oracles.hitting_time_by_edge_decomposition(t, 0, v),
    "joining_time_by_definition": oracles.joining_time_by_definition,
    "joining_time_by_linear_solve": oracles.joining_time_by_linear_solve,
    "hitting_row_by_linear_solve": oracles.hitting_row_by_linear_solve,
    "bfs_distances": oracles.bfs_distances,
}


@pytest.mark.parametrize("v", [-1, 5, 9])
@pytest.mark.parametrize("call", ID_TAKING_CALLS.values(), ids=ID_TAKING_CALLS.keys())
def test_oracles_reject_a_vertex_out_of_range(call, v):
    # hitting_time(t, 9, 9) and path_overlap(t, 0, -1, 4) used to return 0, the
    # edge decomposition from -1 returned H(4, 0) = 16, others a bare IndexError
    with pytest.raises(VertexOutOfRange, match=rf"^vertex {v} outside 0\.\.4$"):
        call(path_tree(5), v)


def _package_imports(path: Path) -> list[tuple[str, list[str]]]:
    """(module, names) for each import of a treewalk module in one source
    file, read and never run; `from . import x` counts as importing x."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "treewalk":
                    found.append((rest, []))
        elif isinstance(node, ast.ImportFrom):
            names = sorted(alias.name for alias in node.names)
            head, _, rest = (node.module or "").partition(".")
            if node.level == 1 or head == "treewalk":
                module = node.module if node.level == 1 else rest
                if module:
                    found.append((module, names))
                else:
                    found.extend((name, []) for name in names)
    return found


def test_only_the_adjudicator_sets_an_oracle_beside_a_fast_route():
    # the oracles share no code with what they check, and no fast module
    # reaches an oracle: the module graph itself states the boundary
    imports = {path.name: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert "walkstats.py" in imports and "cli.py" in imports
    assert imports["oracles.py"] == [("trees", ["Tree", "check_vertex"])]
    importers = sorted(name for name, found in imports.items() if any(m == "oracles" for m, _ in found))
    assert importers == ["__init__.py", "audit.py"]


def _readers(name: str) -> set[tuple[str, str]]:
    """(file, enclosing def's qualified name) for every read of `name` in
    src/treewalk, as a bare name or an attribute; "" is module level."""
    found = set()

    def visit(node: ast.AST, scope: str, file: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."), file)
                continue
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                found.add((file, scope))
            visit(child, scope, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return found


def test_only_the_rooted_pass_traverses_a_tree():
    # every fast rooting, distance and path reads the stored pass from vertex
    # 0; the one BFS builds that pass and the definition route's own
    assert _readers("bfs_order") == {("trees.py", "subtree_sizes")}
    assert _readers("subtree_sizes") == {("trees.py", "Tree.rooted"), ("walkstats.py", "_hits_into")}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_depths" not in defined, path.name
    imports = {path.name: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    for name in ("families.py", "transforms.py"):
        taken = {n for _, names in imports[name] for n in names}
        assert not taken & {"bfs_order", "subtree_sizes", "_depths"}, name
