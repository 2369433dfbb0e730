import decimal
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treewalk
from treewalk import trees, walkstats
from treewalk.cli import main
from treewalk.families import closed_form
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


def test_analyze_runs_one_rooted_pass_and_one_rerooting(tmp_path, capsys):
    rng = random.Random(4)
    f = tmp_path / "t.txt"
    f.write_text(format_edge_list(prufer_decode([rng.randrange(300) for _ in range(298)], 300)))
    trees.rooted_pass.cache_clear()
    walkstats._joining.cache_clear()
    assert main(["--no-timing", "analyze", "--input", str(f)]) == 0
    assert trees.rooted_pass.cache_info().misses == 1
    assert walkstats._joining.cache_info().misses == 1
    # joining_all, t_meet, t_bestmeet and kemeny all read the one J vector
    assert walkstats._joining.cache_info().hits == 3


def test_analyze_target_subset(capsys, p3_file):
    code, out = run(capsys, "--no-timing", "analyze", "--input", p3_file, "--targets", "1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["results"]["per_vertex"]) == ["1"]


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
    ],
)
def test_bad_integer_arguments_are_usage_errors(capsys, p3_file, argv):
    code = main([a.replace("{p3}", p3_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --") and "expects an integer" in captured.err


def test_decimal_context_unchanged(capsys):
    before = decimal.getcontext().prec
    assert main(["--no-timing", "gen", "--family", "path", "--n", "5"]) == 0
    assert decimal.getcontext().prec == before


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


def test_unknown_subcommand_usage(capsys):
    assert main(["frobnicate"]) == 1
