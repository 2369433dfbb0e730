"""CLI fuzzing: malformed edge lists and flag values never escape `main`.

Hypothesis builds edge-list files (negative, zero, huge and non-integer
counts, self-loops, repeated edges, junk and extra lines, bytes that are
not UTF-8, and valid trees with n <= 200 that `analyze` and `simulate`
run to the end) and flag values for every subcommand. Each run goes
through the in-process `main` under a per-example deadline: no exception
may escape, the exit code is 0, 1 or 2, and exit 1 leaves an `error:`
line on stderr. Orders stay at most 200 and ranges span at most 12
orders, so every example is small.
"""

import contextlib
import io
import os
import tempfile
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from treewalk.cli import main
from treewalk.families import FORMULA_IDS
from treewalk.trees import format_edge_list, prufer_decode

FUZZ_SETTINGS = settings(max_examples=120, deadline=timedelta(seconds=10))

JUNK = ["x", "", " ", "1.5", "0x10", "1e3", "--", "..", "1..", "..4", "1..2..3", "a..b", "7,8"]


def _ints(lo: int, hi: int) -> st.SearchStrategy[str]:
    return st.integers(lo, hi).map(str)


@st.composite
def _values(draw, lo: int, hi: int) -> str:
    """An integer in lo..hi as text, or one time in four a malformed value."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(JUNK))
    return draw(_ints(lo, hi))


@st.composite
def _ranges(draw, lo: int, hi: int) -> str:
    """A single value, a lo..hi range spanning at most 12 orders (inverted
    ones included), or a malformed range."""
    kind = draw(st.sampled_from(["one", "range", "junk"]))
    if kind == "one":
        return draw(_values(lo, hi))
    if kind == "junk":
        return draw(st.sampled_from(JUNK))
    a = draw(st.integers(lo, hi))
    return f"{a}..{min(hi, a + draw(st.integers(-3, 12)))}"


def _optional(draw, flag: str, values: st.SearchStrategy[str]) -> list[str]:
    """The flag and a value three times in four, else nothing."""
    return [flag, draw(values)] if draw(st.integers(0, 3)) else []


@st.composite
def edge_list_texts(draw) -> bytes:
    if draw(st.booleans()):
        # a valid tree, sometimes damaged by one edit
        n = draw(st.integers(2, 200))
        code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        lines = format_edge_list(prufer_decode(code, n)).splitlines()
        edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "extra", "count"]))
        if edit == "drop" and len(lines) > 1:
            del lines[draw(st.integers(1, len(lines) - 1))]
        elif edit == "repeat" and len(lines) > 1:
            lines.append(lines[draw(st.integers(1, len(lines) - 1))])
        elif edit == "extra":
            lines.append(draw(st.sampled_from(["0 0", "1 2 3", "junk", "5 x"])))
        elif edit == "count":
            lines[0] = str(n + draw(st.sampled_from([-2, -1, 1, 2])))
        return ("\n".join(lines) + "\n").encode("utf-8")
    count = draw(
        st.one_of(
            _ints(-3, 12),
            st.integers(10**6, 10**30).map(str),
            st.sampled_from(["x", "2.5", "", " ", "1e3", "-0", "+4"]),
        )
    )
    edge = st.builds("{} {}".format, st.integers(-2, 13), st.integers(-2, 13))
    line = st.one_of(
        edge,
        st.integers(0, 12).map(lambda v: f"{v} {v}"),  # self-loop
        st.sampled_from(["", "  ", "0", "0 1 2", "a b", "1 1.5", "0 1 # note"]),
    )
    lines = [count] + draw(st.lists(line, max_size=14))
    if draw(st.integers(0, 3)) == 0:
        lines.append(lines[-1])  # a repeated line
    data = "\n".join(lines).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        data = b"\xff\xfe" + data
    return data


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert any("error:" in line for line in err.getvalue().splitlines()), (argv, err.getvalue())


def _run_on_file(data: bytes, argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.txt")
        with open(path, "wb") as f:
            f.write(data)
        _run([a.replace("{input}", path) for a in argv])


@FUZZ_SETTINGS
@given(edge_list_texts(), st.data())
def test_analyze_fuzz(data_bytes, data):
    targets = data.draw(
        st.one_of(
            st.just("all"),
            st.lists(_values(-2, 202), min_size=1, max_size=4).map(",".join),
            st.sampled_from(JUNK),
        )
    )
    _run_on_file(data_bytes, ["--no-timing", "analyze", "--input", "{input}", "--targets", targets])


@FUZZ_SETTINGS
@given(edge_list_texts(), st.data())
def test_simulate_fuzz(data_bytes, data):
    argv = ["--no-timing", "simulate", "--input", "{input}"]
    argv += ["--u", data.draw(_values(-2, 12)), "--w", data.draw(_values(-2, 12))]
    argv += ["--walks", data.draw(_values(-1, 20))]
    seeds = st.one_of(_values(-2, 99), st.sampled_from([str(2**64 - 1), str(2**64)]))
    argv += ["--seed", data.draw(seeds)]
    _run_on_file(data_bytes, argv)


@FUZZ_SETTINGS
@given(st.data())
def test_gen_fuzz(data):
    family = data.draw(
        st.sampled_from([
            "path", "star", "lever", "balanced-lever", "broom", "double-broom",
            "balanced-double-broom", "tree",
        ])
    )
    argv = ["--no-timing", "gen", "--family", family, "--n", data.draw(_values(-3, 200))]
    for flag in ("--d", "--k", "--left", "--right"):
        argv += _optional(data.draw, flag, _values(-3, 200))
    _run(argv)


@FUZZ_SETTINGS
@given(st.data())
def test_sweep_fuzz(data):
    argv = ["--no-timing", "sweep"]
    if data.draw(st.booleans()):
        argv += ["--enumerated", "--n", data.draw(_values(-3, 12))]
    else:
        families = ["balanced-lever", "balanced-double-broom", "broom", "path"]
        argv += ["--family", data.draw(st.sampled_from(families)), "--n", data.draw(_values(-3, 200))]
    argv += _optional(data.draw, "--d", _ranges(-3, 200))
    quantities = ["t_bestmeet", "t_meet", "kemeny", "j_min", "j_max", "j"]
    argv += _optional(data.draw, "--quantity", st.sampled_from(quantities))
    argv += _optional(data.draw, "--format", st.sampled_from(["csv", "json", "xml"]))
    _run(argv)


@FUZZ_SETTINGS
@given(st.data())
def test_audit_fuzz(data):
    claims = ["thm-min", "thm-max", "thm-global", "prop-barycenter", "formula", "thm"]
    claim = data.draw(st.sampled_from(claims))
    argv = ["--no-timing", "audit", claim]
    if claim == "formula":
        if data.draw(st.integers(0, 3)):
            argv.append(data.draw(st.sampled_from([*FORMULA_IDS, "no_such_formula"])))
        argv += _optional(data.draw, "--n", _ranges(-3, 60))
        argv += _optional(data.draw, "--d", _ranges(-3, 60))
    else:
        argv += _optional(data.draw, "--n", _values(-3, 12))
        argv += _optional(data.draw, "--d", _values(-3, 12))
    argv += _optional(data.draw, "--cap", _values(-3, 12))
    _run(argv)
