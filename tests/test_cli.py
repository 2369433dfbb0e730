import contextlib
import decimal
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import treewalk
from treewalk import cli, families, trees, walkstats
from treewalk.cli import _exact, main
from treewalk.families import FORMULAS, bestmeet_dbroom_case, closed_form, jmin_dbroom_case
from treewalk.trees import format_edge_list, parse_edge_list, prufer_decode
from treewalk.families import path_tree


@pytest.fixture()
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_path3(capsys, p3_file):
    code, out = run(capsys, "--no-timing", "analyze", "--input", p3_file)
    assert code == 0
    doc = json.loads(out)
    per_vertex = doc["results"]["per_vertex"]
    assert [per_vertex[str(v)]["joining_time"] for v in range(3)] == [10, 2, 10]
    assert doc["results"]["t_bestmeet"]["num"] == 1
    assert doc["results"]["t_bestmeet"]["den"] == 2
    assert doc["results"]["t_meet"]["num"] == 5  # star formula at n=3


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("analyze", b"4\n0 1\n1 2\n", "line 4: expected 3 edges, file ends after 2"),
        ("analyze", b"-5\n", "line 1: vertex count must be >= 1, got -5"),
        ("analyze", b"-2\n", "line 1: vertex count must be >= 1, got -2"),
        ("analyze", b"-1\n", "line 1: vertex count must be >= 1, got -1"),
        ("analyze", b"0\n", "line 1: vertex count must be >= 1, got 0"),
        ("analyze", b"\xff\xfe3\n0 1\n1 2\n", "{path}: not UTF-8 text (invalid start byte at byte 0)"),
        ("simulate", b"\xff\xfe3\n0 1\n1 2\n", "{path}: not UTF-8 text (invalid start byte at byte 0)"),
    ],
    ids=["short", "count-neg5", "count-neg2", "count-neg1", "count-zero", "not-utf8", "simulate-not-utf8"],
)
def test_analyze_rejects_malformed(tmp_path, capsys, command, data, message):
    f = tmp_path / "bad.txt"
    f.write_bytes(data)
    argv = ["--no-timing", command, "--input", str(f)]
    if command == "simulate":
        argv += ["--u", "0", "--w", "2", "--walks", "1", "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=f) + "\n"


def test_analyze_one_vertex_tree_is_usage_error(tmp_path, capsys):
    f = tmp_path / "k1.txt"
    f.write_text("1\n", encoding="utf-8")
    assert main(["--no-timing", "analyze", "--input", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: meeting times need at least one edge; the tree has one vertex\n"
    assert walkstats.joining_all(parse_edge_list("1\n")) == [0]


def test_analyze_runs_one_rooted_pass_and_one_rerooting(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("bfs_order", "_level_passes", "_distances"):
        real = getattr(trees, name)
        monkeypatch.setattr(trees, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    for name in ("rooted", "joining", "diameter_ends"):
        prop = vars(trees.Tree)[name]
        real = prop.func
        monkeypatch.setattr(prop, "func", lambda t, name=name, real=real: calls.append(name) or real(t))
    rng = random.Random(4)
    f = tmp_path / "t.txt"
    # the parse, diameter, barycenter, joining_all, t_meet, t_bestmeet and
    # kemeny all read the one pass and the one J vector stored on the tree:
    # below 2**15 vertices each is computed once through its property, the
    # pass by one BFS; from there one level pass of the parse lays them out
    # with the diameter's ends
    for n, expected in (
        (300, ["_distances", "_distances", "bfs_order", "diameter_ends", "joining", "rooted"]),
        (40_000, ["_level_passes"]),
    ):
        f.write_text(format_edge_list(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)))
        calls.clear()
        assert main(["--no-timing", "analyze", "--input", str(f)]) == 0
        assert sorted(calls) == expected, n
    capsys.readouterr()


def test_analyze_takes_one_gcd_for_every_meeting_time(tmp_path, capsys, monkeypatch):
    # every J is congruent mod 2|E|, so one gcd reduces all 300 fractions
    rng = random.Random(4)
    f = tmp_path / "t.txt"
    f.write_text(format_edge_list(prufer_decode([rng.randrange(300) for _ in range(298)], 300)))
    calls = []
    real = cli.gcd
    monkeypatch.setattr(cli, "gcd", lambda *args: calls.append(args) or real(*args))
    assert main(["--no-timing", "analyze", "--input", str(f)]) == 0
    assert len(calls) == 1


def test_analyze_target_subset(capsys, p3_file):
    code, out = run(capsys, "--no-timing", "analyze", "--input", p3_file, "--targets", "1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["results"]["per_vertex"]) == ["1"]


def test_analyze_target_outside_the_tree_is_a_usage_error(capsys, p3_file):
    assert main(["--no-timing", "analyze", "--input", p3_file, "--targets", "0,5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target vertex 5 outside 0..2\n"


def test_gen_lever_fig1(tmp_path, capsys):
    out_file = tmp_path / "lever.txt"
    code, out = run(
        capsys,
        "--no-timing",
        "gen", "--family", "balanced-lever", "--n", "11", "--d", "5",
        "--output", str(out_file),
    )
    assert code == 0
    t = parse_edge_list(out_file.read_text(encoding="utf-8"))
    assert t.degree(2) == 7
    doc = json.loads(out)
    predicted = doc["results"]["predicted"]
    want = closed_form("jmin_lever_odd", 11, 5)
    assert predicted["jmin_lever_odd"]["num"] == want.numerator


def test_gen_double_broom_fig1(tmp_path, capsys):
    out_file = tmp_path / "dd.txt"
    code, _ = run(
        capsys,
        "--no-timing",
        "gen", "--family", "double-broom", "--n", "11", "--d", "5",
        "--left", "3", "--right", "4", "--output", str(out_file),
    )
    assert code == 0
    t = parse_edge_list(out_file.read_text(encoding="utf-8"))
    assert t.degree(1) == 4 and t.degree(4) == 5


@pytest.mark.parametrize(
    "flags, keys",
    [
        (["path", "--n", "9"], ["bestmeet_pn", "jmax_path", "jmin_path_odd", "tmeet_path"]),
        (["path", "--n", "10"], ["bestmeet_pn", "jmax_path", "jmin_path_even", "tmeet_path"]),
        (["star", "--n", "9"], ["jmax_star_corrected", "jmax_star_printed", "tmeet_star"]),
        (["star", "--n", "10"], ["jmax_star_corrected", "jmax_star_printed", "tmeet_star"]),
        (["lever", "--n", "9", "--d", "5", "--k", "2"], ["bestmeet_lever", "jmin_lever_odd"]),
        (["lever", "--n", "10", "--d", "4", "--k", "2"], ["bestmeet_lever", "jmin_lever_even"]),
        (["lever", "--n", "9", "--d", "5", "--k", "1"], []),
        (["balanced-lever", "--n", "9", "--d", "5"], ["bestmeet_lever", "jmin_lever_odd"]),
        (["balanced-lever", "--n", "10", "--d", "4"], ["bestmeet_lever", "jmin_lever_even"]),
        (["balanced-lever", "--n", "2", "--d", "1"], []),
        (["broom", "--n", "9", "--d", "5"], ["jmax_broom"]),
        (["broom", "--n", "10", "--d", "4"], ["jmax_broom"]),
        (["double-broom", "--n", "9", "--d", "5", "--left", "2", "--right", "3"],
         ["bestmeet_dbroom_oo", "jmin_dbroom_oo"]),
        (["double-broom", "--n", "10", "--d", "4", "--left", "3", "--right", "4"],
         ["bestmeet_dbroom_ee", "jmin_dbroom_ee"]),
        # mirror image of the balanced split: same tree, but not the convention
        (["double-broom", "--n", "9", "--d", "5", "--left", "3", "--right", "2"], []),
        (["double-broom", "--n", "10", "--d", "4", "--left", "4", "--right", "3"], []),
        (["balanced-double-broom", "--n", "9", "--d", "5"], ["bestmeet_dbroom_oo", "jmin_dbroom_oo"]),
        (["balanced-double-broom", "--n", "10", "--d", "4"], ["bestmeet_dbroom_ee", "jmin_dbroom_ee"]),
    ],
)
def test_gen_predicted_keys(tmp_path, capsys, flags, keys):
    code, out = run(
        capsys, "--no-timing", "gen", "--family", *flags, "--output", str(tmp_path / "t.txt")
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert sorted(results["predicted"]) == keys
    for fid, value in results["predicted"].items():
        assert Fraction(value["num"], value["den"]) == closed_form(fid, results["n"], results["d"])


def test_gen_rejects_bad_params(capsys):
    code = main(["gen", "--family", "broom", "--n", "5", "--d", "5"])
    err = capsys.readouterr().err
    assert code == 1 and "broom" in err


@pytest.mark.parametrize(
    "family, d, message",
    [
        ("path", "2", "path needs d = n-1, got n=5, d=2"),
        ("star", "3", "star needs n >= 3 and d = 2, got n=5, d=3"),
    ],
    ids=["path", "star"],
)
def test_gen_rejects_a_diameter_the_family_contradicts(capsys, family, d, message):
    assert main(["--no-timing", "gen", "--family", family, "--n", "5", "--d", d]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("family, d", [("path", "4"), ("star", "2")])
def test_gen_consistent_diameter_gives_what_no_diameter_gives(capsys, family, d):
    def gen(*extra):
        code, out = run(capsys, "--no-timing", "gen", "--family", family, "--n", "5", *extra)
        edges, envelope = out.split("{", 1)
        return code, edges, json.loads("{" + envelope)["results"]

    # only the echoed command line tells the two runs apart
    assert gen() == gen("--d", d)


def test_gen_dot_export(tmp_path, capsys):
    dot = tmp_path / "t.dot"
    code, _ = run(
        capsys,
        "--no-timing",
        "gen", "--family", "star", "--n", "4", "--output", str(tmp_path / "s.txt"),
        "--dot", str(dot),
    )
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("graph tree {") and "1 -- 2;" in text


def test_audit_exit_codes(capsys):
    code, out = run(capsys, "--no-timing", "audit", "thm-min", "--n", "7", "--d", "4")
    assert code == 0
    assert json.loads(out)["results"]["status"] == "verified"

    code, out = run(capsys, "--no-timing", "audit", "formula", "jmax_star_printed", "--n", "3..20")
    assert code == 2
    doc = json.loads(out)
    assert doc["results"]["status"] == "discrepancy-in-paper"
    vals = [(w["value_num"], w["value_den"]) for w in doc["results"]["witnesses"]]
    assert vals == [(5, 1), (10, 1)]


def test_an_out_of_range_formula_audit_exits_2(capsys):
    # every status but verified exits 2, out-of-range included
    code, out = run(
        capsys, "--no-timing", "audit", "formula", "bestmeet_bn_printed", "--n", "2..4"
    )
    assert code == 2
    assert json.loads(out)["results"]["status"] == "out-of-range"


def test_audit_formula_with_d_range(capsys):
    code, out = run(
        capsys, "--no-timing", "audit", "formula", "jmax_broom", "--n", "4..20", "--d", "2..10"
    )
    assert code == 0


def test_audit_leaves_environment_unchanged(capsys):
    before = dict(os.environ)
    assert main(["--no-timing", "audit", "thm-global", "--n", "6"]) == 0
    assert dict(os.environ) == before


def test_audit_usage_error(capsys):
    code = main(["audit", "thm-min", "--n", "7"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "formula", "jmax_path", "--n", "x"],
        ["audit", "formula", "jmax_path", "--n", "3..5", "--d", "2..q"],
        ["audit", "thm-min", "--n", "5", "--d", "y"],
        ["sweep", "--family", "broom", "--n", "6", "--d", "x"],
        ["analyze", "--input", "{p3}", "--targets", "0,x"],
        ["sweep", "--enumerated", "--n", "5", "--d", "1..x"],
        ["audit", "formula", "jmax_broom", "--n", "4", "--d", ""],
        ["sweep", "--family", "broom", "--n", "5", "--d", ""],
    ],
)
def test_bad_integer_arguments_are_usage_errors(capsys, p3_file, argv):
    code = main([a.replace("{p3}", p3_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --") and "expects an integer" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--family", "broom", "--n", "1"],
         "sweep family 'broom' has no instance of order 1; it needs n >= 4"),
        (["sweep", "--family", "broom", "--n", "3"],
         "sweep family 'broom' has no instance of order 3; it needs n >= 4"),
        (["sweep", "--family", "balanced-lever", "--n", "-2"],
         "sweep family 'balanced-lever' has no instance of order -2; it needs n >= 3"),
        (["sweep", "--family", "balanced-double-broom", "--n", "2"],
         "sweep family 'balanced-double-broom' has no instance of order 2; it needs n >= 3"),
        (["sweep", "--family", "broom", "--n", "6", "--d", "9"],
         "--d 9 selects no diameter of family 'broom' at order 6 (3..5)"),
        (["sweep", "--family", "broom", "--n", "6", "--d", "5..3"], "--d range 5..3 is empty: 5 > 3"),
        (["audit", "prop-barycenter", "--n", "1"], "need n >= 3, got 1"),
        (["audit", "prop-barycenter", "--n", "2"], "need n >= 3, got 2"),
        (["audit", "formula", "jmax_path", "--n", "5..3"], "--n range 5..3 is empty: 5 > 3"),
        (["audit", "formula", "jmax_broom", "--n", "4..9", "--d", "5..3"], "--d range 5..3 is empty: 5 > 3"),
        (["sweep", "--enumerated", "--n", "5", "--d", "9"],
         "--d 9 selects no diameter of enumerated trees at order 5 (2..4)"),
        (["sweep", "--enumerated", "--n", "2", "--d", "2..3"],
         "--d 2..3 selects no diameter of enumerated trees at order 2 (1..1)"),
        (["sweep", "--enumerated", "--n", "5", "--d", "4..2"], "--d range 4..2 is empty: 4 > 2"),
        (["audit", "thm-global", "--n", "2"], "need n >= 3, got 2"),
    ],
    ids=[
        "sweep-broom-n1", "sweep-broom-n3", "sweep-lever-neg2", "sweep-dbroom-n2", "sweep-d-outside",
        "sweep-d-inverted", "prop-barycenter-n1", "prop-barycenter-n2", "formula-n-inverted",
        "formula-d-inverted", "enumerated-d-outside", "enumerated-n2-d-outside", "enumerated-d-inverted",
        "thm-global-n2",
    ],
)
def test_empty_ranges_are_usage_errors(capsys, argv, message):
    assert main(["--no-timing", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "thm-min", "jmax_path", "--n", "5", "--d", "3"], "thm-min does not read a formula id"),
        (["audit", "thm-max", "bestmeet_pn", "--n", "5", "--d", "3"], "thm-max does not read a formula id"),
        (["audit", "thm-global", "--n", "5", "--d", "9"], "thm-global does not read --d"),
        (["audit", "prop-barycenter", "--n", "4", "--d", "2"], "prop-barycenter does not read --d"),
        (["audit", "formula", "jmax_path", "--n", "3..4", "--d", "7"], "formula jmax_path does not read --d"),
        (["audit", "formula", "jmax_broom", "--n", "4", "--cap", "9"], "formula jmax_broom does not read --cap"),
        (["sweep", "--enumerated", "--family", "broom", "--n", "4"], "sweep --enumerated does not read --family"),
        (["gen", "--family", "balanced-lever", "--n", "6", "--d", "3", "--k", "1"],
         "gen --family balanced-lever does not read --k"),
        (["gen", "--family", "path", "--n", "6", "--k", "1"], "gen --family path does not read --k"),
        (["gen", "--family", "broom", "--n", "6", "--d", "3", "--left", "2", "--right", "2"],
         "gen --family broom does not read --left, --right"),
        (["gen", "--family", "balanced-double-broom", "--n", "6", "--d", "3", "--left", "2"],
         "gen --family balanced-double-broom does not read --left"),
        (["gen", "--family", "lever", "--n", "6", "--d", "3", "--k", "1", "--right", "3"],
         "gen --family lever does not read --right"),
        (["gen", "--family", "double-broom", "--n", "6", "--d", "3", "--left", "2", "--right", "2", "--k", "1"],
         "gen --family double-broom does not read --k"),
    ],
    ids=[
        "thm-min-formula-id", "thm-max-formula-id", "thm-global-d", "prop-barycenter-d", "formula-n-only-d",
        "formula-cap", "sweep-enumerated-family", "gen-balanced-lever-k", "gen-path-k", "gen-broom-clusters",
        "gen-balanced-double-broom-left", "gen-lever-right", "gen-double-broom-k",
    ],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv, message):
    assert main(["--no-timing", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--family", "lever", "--n", "5", "--d", "3"], "family 'lever' needs --k"),
        (["gen", "--family", "double-broom", "--n", "6", "--d", "3"],
         "family 'double-broom' needs --left and --right"),
        (["gen", "--family", "double-broom", "--n", "6", "--d", "3", "--left", "2"],
         "family 'double-broom' needs --right"),
        (["gen", "--family", "double-broom", "--n", "6", "--d", "3", "--right", "2"],
         "family 'double-broom' needs --left"),
        (["sweep", "--n", "5"], "sweep needs --family or --enumerated"),
    ],
    ids=[
        "gen-lever-k", "gen-double-broom-clusters", "gen-double-broom-right", "gen-double-broom-left",
        "sweep-mode",
    ],
)
def test_a_missing_flag_is_named(capsys, argv, message):
    assert main(["--no-timing", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_unknown_formula_id_is_named_before_its_flags(capsys):
    assert main(["--no-timing", "audit", "formula", "nonesuch", "--n", "3", "--d", "2", "--cap", "9"]) == 1
    assert capsys.readouterr().err == "error: unknown formula id 'nonesuch'\n"


def test_sweep_keeps_the_part_of_a_d_range_inside_the_family(capsys):
    code, out = run(capsys, "sweep", "--family", "broom", "--n", "6", "--d", "2..4")
    assert code == 0
    assert [ln.split(",")[1] for ln in out.strip().splitlines()[1:]] == ["3", "4"]


@pytest.mark.parametrize("d_flag, kept", [("2", ["2"]), ("3..9", ["3", "4"]), ("0..3", ["2", "3"])])
def test_sweep_enumerated_keeps_only_the_selected_diameters(capsys, d_flag, kept):
    code, out = run(capsys, "sweep", "--enumerated", "--n", "5", "--d", d_flag)
    assert code == 0
    assert [ln.split(",")[1] for ln in out.strip().splitlines()[1:]] == kept


def test_formula_d_bound_of_zero_is_not_auto(capsys):
    def audit(*d_flags):
        code, out = run(
            capsys, "--no-timing", "audit", "formula", "jmax_broom", "--n", "3..5", *d_flags
        )
        doc = json.loads(out)
        params = doc["results"]["params"]
        assert doc["input_digest"] == hashlib.sha256(
            json.dumps(params, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return code, params["d"], doc["input_digest"]

    code, d, auto_digest = audit()
    assert (code, d) == (0, "auto..auto")
    code, d, zero_digest = audit("--d", "0..0")
    assert (code, d) == (2, "0..0")
    code, d, low_zero_digest = audit("--d", "0..3")
    assert (code, d) == (0, "0..3")
    assert len({auto_digest, zero_digest, low_zero_digest}) == 3


def test_decimal_context_unchanged(capsys):
    before = decimal.getcontext().prec
    assert main(["--no-timing", "gen", "--family", "path", "--n", "5"]) == 0
    assert decimal.getcontext().prec == before


def test_decimals_do_not_follow_the_callers_decimal_context(tmp_path, p3_file):
    # the thread's context picks the exponent's case in str(Decimal) and in
    # formatting; the CLI renders in its own context, so the bytes stay put
    def outputs(capitals: int) -> list[str]:
        texts = []
        with decimal.localcontext() as ctx:
            ctx.capitals = capitals
            for argv in (
                ["gen", "--family", "path", "--n", "12000", "--output", str(tmp_path / "p.txt")],
                ["analyze", "--input", p3_file],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["--no-timing", *argv]) == 0
                texts.append(out.getvalue())
            # no analyze of a tree this test can afford reaches a meeting
            # time of 1e12, where the exponent shows, so call its writer
            out = io.StringIO()
            cli._write_per_vertex(out, [3 * 10**15], [0], 2)
            texts.append(out.getvalue())
        return texts

    upper = outputs(1)
    assert outputs(0) == upper
    assert '"decimal": "2.30342404400E+12"' in upper[0]
    assert '"decimal": "1.50000000000E+15"' in upper[2]


def test_sweep_lever_rows_match_formulas(capsys):
    code, out = run(
        capsys,
        "sweep", "--family", "balanced-lever", "--n", "50", "--quantity", "t_bestmeet",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,family,quantity_num,quantity_den"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 48
    for n_s, d_s, fam, num, den in rows:
        n, d = int(n_s), int(d_s)
        want = closed_form("bestmeet_lever", n, d)
        assert Fraction(int(num), int(den)) == want


def test_sweep_double_broom_rows_match_formulas(capsys):
    from treewalk.families import bestmeet_dbroom_case

    code, out = run(
        capsys,
        "sweep", "--family", "balanced-double-broom", "--n", "50", "--quantity", "t_bestmeet",
    )
    assert code == 0
    for ln in out.strip().splitlines()[1:]:
        n_s, d_s, _, num, den = ln.split(",")
        n, d = int(n_s), int(d_s)
        assert Fraction(int(num), int(den)) == closed_form(bestmeet_dbroom_case(n, d), n, d)


def _swept(capsys, family: str, n: int, quantity: str) -> dict[int, Fraction]:
    code, out = run(capsys, "sweep", "--family", family, "--n", str(n), "--quantity", quantity)
    assert code == 0
    rows = (ln.split(",") for ln in out.strip().splitlines()[1:])
    return {int(d): Fraction(int(num), int(den)) for _, d, _, num, den in rows}


def test_sweep_rows_equal_the_ledger_truths_of_the_same_trees(capsys):
    # both read walkstats.QUANTITIES, except the broom's j_max truth, which is
    # the single-target joining_time at the handle end: two routes, one number
    cases = (
        ("balanced-lever", "t_bestmeet", lambda n, d: "bestmeet_lever"),
        ("balanced-double-broom", "t_bestmeet", bestmeet_dbroom_case),
        ("balanced-double-broom", "j_min", jmin_dbroom_case),
        ("broom", "j_max", lambda n, d: "jmax_broom"),
    )
    cells = 0
    for n in range(4, 31):
        for family, quantity, fid in cases:
            for d, value in _swept(capsys, family, n, quantity).items():
                assert value == FORMULAS[fid(n, d)].truth(n, d, {}), (family, quantity, n, d)
                cells += 1
    assert cells == 1593


def test_sweep_family_builds_through_the_rebound_generator(capsys, monkeypatch):
    built = []
    real = families.broom_tree
    monkeypatch.setattr(families, "broom_tree", lambda n, d: built.append((n, d)) or real(n, d))
    assert main(["--no-timing", "sweep", "--family", "broom", "--n", "9"]) == 0
    assert built == [(9, d) for d in range(3, 9)]


def test_sweep_names_its_quantities_in_table_order(capsys):
    assert main(["--no-timing", "sweep", "--family", "broom", "--n", "9", "--quantity", "j"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "invalid choice: 'j' (choose from 't_bestmeet', 't_meet', 'kemeny', 'j_min', 'j_max')\n"
    )


def test_sweep_enumerated_classes(capsys):
    code, out = run(capsys, "sweep", "--enumerated", "--n", "7", "--quantity", "kemeny")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 11


def test_sweep_enumerated_respects_cap(capsys):
    assert main(["sweep", "--enumerated", "--n", "11", "--quantity", "kemeny"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_sweep_json_matches_csv_values(capsys):
    code, csv_out = run(capsys, "sweep", "--family", "broom", "--n", "12", "--quantity", "j_max")
    assert code == 0
    code, json_out = run(
        capsys,
        "--no-timing", "sweep", "--family", "broom", "--n", "12",
        "--quantity", "j_max", "--format", "json",
    )
    assert code == 0
    csv_rows = [ln.split(",") for ln in csv_out.strip().splitlines()[1:]]
    doc = json.loads(json_out)
    json_rows = doc["results"]["rows"]
    assert len(csv_rows) == len(json_rows)
    for (n_s, d_s, _, num, den), row in zip(csv_rows, json_rows):
        assert (int(num), int(den)) == (row["num"], row["den"])


def test_simulate_p2(capsys, tmp_path):
    f = tmp_path / "p2.txt"
    f.write_text(format_edge_list(path_tree(2)), encoding="utf-8")
    code, out = run(
        capsys,
        "--no-timing",
        "simulate", "--input", str(f), "--u", "0", "--w", "1",
        "--walks", "100", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["mean"] == {"num": 1, "den": 1}
    assert doc["results"]["z_score"] == 0.0


def test_simulate_byte_identical(capsys, p3_file):
    args = [
        "--no-timing",
        "simulate", "--input", p3_file, "--u", "0", "--w", "2",
        "--walks", "2000", "--seed", "42",
    ]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "walks, z_score",
    [("1", None), ("50", 1.1389190853059405)],
    ids=["one-walk", "fifty-walks"],
)
def test_simulate_output_is_strict_json(capsys, p3_file, walks, z_score):
    # one walk has no spread, and its 2 steps are not H(0, 2) = 4, so its
    # z-score is infinite; JSON has no infinity, so the CLI writes null
    code, out = run(
        capsys, "--no-timing", "simulate", "--input", p3_file,
        "--u", "0", "--w", "2", "--walks", walks, "--seed", "1",
    )
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["results"]["z_score"] == z_score


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "{p3}"],
        ["gen", "--family", "balanced-lever", "--n", "9", "--d", "4"],
        ["audit", "thm-min", "--n", "5", "--d", "3"],
        ["sweep", "--family", "broom", "--n", "6", "--format", "json"],
        ["simulate", "--input", "{p3}", "--u", "0", "--w", "2", "--walks", "50", "--seed", "3"],
    ],
    ids=["analyze", "gen", "audit", "sweep", "simulate"],
)
def test_timed_envelope_is_the_untimed_one_plus_timing_ms(capsys, p3_file, argv):
    argv = [a.replace("{p3}", p3_file) for a in argv]

    def envelope(*flags):
        code, out = run(capsys, *flags, *argv)
        assert code == 0
        # gen prints its edge list before the envelope
        return json.loads(out[out.index("{"):])

    timed, untimed = envelope(), envelope("--no-timing")
    assert isinstance(timed.pop("timing_ms"), (int, float))
    assert untimed["command"] == ["treewalk", "--no-timing", *argv]
    untimed["command"] = ["treewalk", *argv]
    assert timed == untimed


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--u", "0", "--w", "9", "--walks", "1", "--seed", "1"], "target vertex 9 outside 0..2"),
        (["--u", "7", "--w", "2", "--walks", "1", "--seed", "1"], "start vertex 7 outside 0..2"),
        (["--u", "-1", "--w", "2", "--walks", "1", "--seed", "1"], "start vertex -1 outside 0..2"),
        (["--u", "0", "--w", "2", "--walks", "1", "--seed", "-1"], "seed -1 outside 0..2**64-1"),
        (["--u", "0", "--w", "2", "--walks", "1", "--seed", str(2**64)],
         f"seed {2**64} outside 0..2**64-1"),
        (["--u", "0", "--w", "2", "--walks", "0", "--seed", "1"], "walk count must be >= 1, got 0"),
        (["--u", "0", "--w", "2", "--walks", str(10**14), "--seed", "1"],
         f"expected work walks * (H(u, w) + 65) = {10**14} * (4 + 65) steps passes the budget of 50000000"),
    ],
)
def test_simulate_bad_input_is_usage_error(p3_file, flags, message):
    # a subprocess, so a walk that never ends fails the test instead of hanging it
    src = str(Path(treewalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "treewalk.cli", "--no-timing", "simulate", "--input", p3_file, *flags],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_simulate_refuses_one_walk_past_its_work_budget(tmp_path):
    # one walk end to end on the 10^4-vertex path expects (n-1)^2 steps,
    # refused before it starts instead of running for minutes
    f = tmp_path / "path.txt"
    f.write_text(format_edge_list(path_tree(10_000)), encoding="utf-8")
    src = str(Path(treewalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "treewalk.cli", "--no-timing", "simulate", "--input", str(f),
         "--u", "0", "--w", "9999", "--walks", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: expected work walks * (H(u, w) + 65) = 1 * (99980001 + 65) steps passes the budget of 50000000\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["audit", "formula", "jmax_broom", "--n", "3..1000"], "formula audit jmax_broom --n 3..1000"),
        (["audit", "formula", "bestmeet_lever", "--n", "3..100000"], "formula audit bestmeet_lever --n 3..100000"),
        (["audit", "formula", "jmin_dnd_max", "--n", "3..1000"], "formula audit jmin_dnd_max --n 3..1000"),
        (["sweep", "--family", "broom", "--n", "5000"], "sweep --family broom --n 5000"),
        (["sweep", "--family", "balanced-lever", "--n", "20000", "--quantity", "kemeny"],
         "sweep --family balanced-lever --n 20000"),
    ],
    ids=["jmax-broom-1000", "bestmeet-lever-1e5", "dnd-max-1000", "sweep-broom-5000", "sweep-lever-20000"],
)
def test_ledger_work_past_the_build_budget_is_an_error_line(argv, what):
    # these ran for a minute and more (jmax_broom to 1000: 94 s) or, from
    # sweep --n 20000 on, until stopped; each is refused before any tree
    src = str(Path(treewalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "treewalk.cli", "--no-timing", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {what} would build more than the budget of 10000000 tree vertices\n"


def test_sweep_counts_the_vertices_of_the_selected_diameters(capsys, monkeypatch):
    # n vertices for each d that --d keeps: 9 * 4 = 36 for d in 3..6
    monkeypatch.setattr(families, "BUILD_BUDGET", 36)
    assert main(["--no-timing", "sweep", "--family", "broom", "--n", "9", "--d", "3..6"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(families, "BUILD_BUDGET", 35)
    assert main(["--no-timing", "sweep", "--family", "broom", "--n", "9", "--d", "3..6"]) == 1
    assert capsys.readouterr().err == "error: sweep --family broom --n 9 would build more than the budget of 35 tree vertices\n"


def test_order_too_large_to_build_is_an_error_line():
    # the child alone runs under an address-space cap, so the billion-vertex
    # path fails to allocate at once instead of filling the machine's memory
    def cap_memory():
        limit = 1_500_000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(treewalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "treewalk.cli", "--no-timing", "gen", "--family", "path", "--n", "1000000000"],
        capture_output=True, text=True, timeout=10, env=env, preexec_fn=cap_memory,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: ran out of memory\n"
    assert "Traceback" not in proc.stderr


def test_analyze_into_a_closed_pipe_is_an_error_line(tmp_path):
    # the reader takes a few bytes of a multi-megabyte block and closes the
    # pipe: the write that fails ends in one error line, not a traceback
    rng = random.Random(16)
    n = 20_000
    f = tmp_path / "t.txt"
    f.write_text(format_edge_list(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)))
    src = str(Path(treewalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "treewalk.cli", "--no-timing", "analyze", "--input", str(f)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(16) == b'{\n  "command": ['
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 1
    assert err.decode() == "error: [Errno 32] Broken pipe\n"
    assert b"Traceback" not in err


class _WriteLengths(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, s):
        self.lengths.append(len(s))
        return super().write(s)


def test_analyze_writes_per_vertex_in_bounded_chunks(tmp_path):
    # about 1.9 MB of per_vertex text, more than one chunk: the block is
    # written in pieces well under its whole size, and the pieces add up to
    # the json.dumps rendering of the per-vertex dict
    rng = random.Random(17)
    n = 10_000
    t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
    f = tmp_path / "t.txt"
    f.write_text(format_edge_list(t))
    out = _WriteLengths()
    with contextlib.redirect_stdout(out):
        assert main(["--no-timing", "analyze", "--input", str(f)]) == 0
    text = out.getvalue()
    doc = json.loads(text)
    js = walkstats.joining_all(t)
    doc["results"]["per_vertex"] = {
        str(v): {"joining_time": js[v], "meeting_time": _exact(Fraction(js[v], 2 * (n - 1)))}
        for v in range(n)
    }
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(text) > 1_800_000
    assert max(out.lengths) < 1_000_000


def test_analyze_frees_its_tree_before_writing_per_vertex(tmp_path, capsys, monkeypatch):
    rng = random.Random(8)
    f = tmp_path / "t.txt"
    f.write_text(format_edge_list(prufer_decode([rng.randrange(300) for _ in range(298)], 300)))
    parsed = []
    written = []
    real_parse, real_write = cli.parse_edge_list, cli._write_per_vertex

    def parse(text):
        t = real_parse(text)
        parsed.append(weakref.ref(t))
        return t

    def write(*args):
        written.append([ref() is None for ref in parsed])
        return real_write(*args)

    monkeypatch.setattr(cli, "parse_edge_list", parse)
    monkeypatch.setattr(cli, "_write_per_vertex", write)
    assert main(["--no-timing", "analyze", "--input", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["n"] == 300
    # one tree was parsed, and it was gone when the per_vertex block began
    assert written == [[True]]


def test_unknown_subcommand_usage(capsys):
    assert main(["frobnicate"]) == 1
