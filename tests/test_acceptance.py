"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers once its assertions hold. Exact
arithmetic throughout; no tolerances anywhere."""

import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from treewalk.audit import (
    DISCREPANCY,
    VERIFIED,
    audit_formula,
    audit_theorem_global,
    audit_theorem_max,
    audit_theorem_min,
    check_barycenter_equivalences,
)
from treewalk.cli import main as cli_main
from treewalk.enumeration import tree_classes
from treewalk.families import (
    balanced_double_broom,
    balanced_lever,
    bestmeet_dbroom_case,
    broom_tree,
    closed_form,
    is_double_broom,
    jmin_dbroom_case,
    jmin_lever_case,
    path_tree,
)
from treewalk.oracles import (
    distances,
    hitting_matrix_by_linear_solve,
    hitting_time,
    hitting_time_by_edge_decomposition,
    joining_time_by_linear_solve,
)
from treewalk.simulate import simulate_hitting
from treewalk.transforms import maximize_pipeline, minimize_pipeline, move_leaf
from treewalk.trees import (
    canonical_form,
    diameter_and_geodesic,
    format_edge_list,
    prufer_decode,
    rooted_canonical_form,
    v_split,
)
from treewalk.walkstats import (
    barycenter,
    hitting_profile,
    joining_all,
    joining_time,
    kemeny,
    t_bestmeet,
    t_bestmeet_set,
)


def _with_diameter(n, d):
    return [t for t in tree_classes(n) if diameter_and_geodesic(t)[0] == d]


def test_criterion_1_exhaustive_extremal_verification():
    started = time.time()
    assert [len(tree_classes(n)) for n in range(2, 10)] == [1, 1, 2, 3, 6, 11, 23, 47]
    cells = 0
    for n in range(3, 10):
        for d in range(2, n):
            rep_min = audit_theorem_min(n, d)
            assert rep_min.status == VERIFIED, (n, d, rep_min.notes)
            rep_max = audit_theorem_max(n, d)
            assert rep_max.status == VERIFIED, (n, d, rep_max.notes)
            cells += 1
    elapsed = time.time() - started
    assert elapsed < 300
    print(
        f"\nPASS criterion 1: unique extremal classes verified on {cells} (n,d) cells, "
        f"orders 3..9, in {elapsed:.1f}s"
    )


def test_criterion_1_past_the_default_cap():
    # the extremal table makes every cell of orders 10..16 cheap enough to
    # check on every run; only the contested odd-order global branch fails
    def code(t):
        return canonical_form(t).decode("ascii")

    started = time.time()
    cells = 0
    for n in range(10, 17):
        for d in range(2, n):
            for audit, family in ((audit_theorem_min, balanced_lever), (audit_theorem_max, balanced_double_broom)):
                rep = audit(n, d, cap=16)
                assert rep.status == VERIFIED, (n, d, audit.__name__, rep.notes)
                assert rep.witnesses[0].canonical == code(family(n, d))
            cells += 1
        rep = audit_theorem_global(n, cap=16)
        if n % 2 == 0:
            assert rep.status == VERIFIED, (n, rep.notes)
            assert [w.canonical for w in rep.witnesses] == [code(path_tree(n))] * 2
            continue
        assert rep.status == DISCREPANCY, (n, rep.notes)
        assert [(w.canonical, w.note) for w in rep.witnesses] == [
            (code(path_tree(n)), "actual maximizer"),
            (code(broom_tree(n, n - 2)), "stated maximizer (broom of diameter n-2)"),
        ]
        truth = Fraction(rep.witnesses[0].value_num, rep.witnesses[0].value_den)
        printed = closed_form("bestmeet_bn_printed", n)
        assert rep.notes.startswith(f"true maximizer value {truth} vs broom of diameter n-2")
        assert f"stated value {printed} vs enumerated maximum {truth}" in rep.notes
        if n == 11:
            assert (printed, truth) == (Fraction(83, 5), Fraction(33, 2))
    elapsed = time.time() - started
    assert elapsed < 30
    print(
        f"\nPASS criterion 1 past the cap: {cells} (n,d) cells verified for orders 10..16, "
        f"thm-global verified at even orders and the path the unique maximizer at odd ones, "
        f"in {elapsed:.1f}s"
    )


@lru_cache(maxsize=None)
def _jmax_broom_truth(n: int, d: int) -> int:
    return joining_time(broom_tree(n, d), d)


def test_criterion_2_formula_ledger_sweep():
    checked = 0
    for n in range(2, 121):
        p = path_tree(n)
        js = joining_all(p)
        assert max(js) == closed_form("jmax_path", n)
        parity_id = "jmin_path_odd" if n % 2 else "jmin_path_even"
        assert min(js) == closed_form(parity_id, n)
        if n >= 3:
            assert closed_form("delta_minus_path", n) == max(
                joining_all(path_tree(n - 1))
            ) - max(js)
        checked += 3
    for n in range(3, 121):
        for d in range(2, n):
            lever = balanced_lever(n, d)
            lever_js = joining_all(lever)
            assert lever_js[d // 2] == min(lever_js) == closed_form(jmin_lever_case(d), n, d)
            assert Fraction(min(lever_js), 2 * (n - 1)) == closed_form("bestmeet_lever", n, d)

            broom_js = joining_all(broom_tree(n, d))
            assert broom_js[d] == max(broom_js) == closed_form("jmax_broom", n, d)

            dd_js = joining_all(balanced_double_broom(n, d))
            assert min(dd_js) == closed_form(jmin_dbroom_case(n, d), n, d)
            assert Fraction(min(dd_js), 2 * (n - 1)) == closed_form(
                bestmeet_dbroom_case(n, d), n, d
            )

            assert closed_form("big_delta_plus", n, d) == _jmax_broom_truth(
                n + 1, d + 1
            ) - _jmax_broom_truth(n, d)
            assert closed_form("delta_plus", n, d) == _jmax_broom_truth(
                n + 1, d
            ) - _jmax_broom_truth(n, d)
            if d <= n - 2:
                assert closed_form("delta_minus_broom", n, d) == _jmax_broom_truth(
                    n - 1, d
                ) - _jmax_broom_truth(n, d)
            checked += 8

    # hand anchors, straight from ground truth
    assert max(joining_all(path_tree(3))) == 10
    assert max(joining_all(path_tree(4))) == 35
    assert joining_time(broom_tree(5, 3), 3) == 76
    assert joining_time(broom_tree(4, 2), 2) == 27
    assert min(joining_all(path_tree(9))) == 168
    dd73 = balanced_double_broom(7, 3)
    assert joining_time(dd73, barycenter(dd73).centers[0]) == 30
    assert joining_time(broom_tree(6, 3), 3) - joining_time(broom_tree(5, 3), 3) == 57
    assert joining_time(broom_tree(6, 4), 4) - joining_time(broom_tree(5, 3), 3) == 81
    assert max(joining_all(path_tree(4))) - max(joining_all(path_tree(5))) == -49
    print(f"\nPASS criterion 2: ledger sweep matched ground truth on {checked} instances, 2 <= d < n <= 120")


def test_criterion_3_discrepancy_detection(capsys):
    rep = audit_formula("jmax_star_printed", 3, 20)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 3}
    vals = [(w.value_num, w.value_den) for w in rep.witnesses]
    assert vals == [(5, 1), (10, 1)]

    rep = audit_formula("jmax_path_expanded_printed", 3, 20)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 3}
    vals = [(w.value_num, w.value_den) for w in rep.witnesses]
    assert vals == [(34, 1), (10, 1)]  # printed expansion vs factored truth 10

    code = cli_main(["--no-timing", "audit", "formula", "jmax_star_printed", "--n", "3..20"])
    capsys.readouterr()
    assert code == 2
    code = cli_main(
        ["--no-timing", "audit", "formula", "jmax_path_expanded_printed", "--n", "3..20"]
    )
    capsys.readouterr()
    assert code == 2
    print(
        "\nPASS criterion 3: star scaling flagged (5 vs 10 at n=3) and path expansion "
        "flagged (34 vs 10 at n=3), exit code 2 with exact witnesses"
    )


def test_criterion_4_global_maximum_adjudication():
    rep = audit_theorem_global(9)
    # desk expectation: the path wins at order 9, contradicting the stated
    # short-diameter broom; the audit must document it with exact values
    assert rep.status == DISCREPANCY
    witness_vals = {Fraction(w.value_num, w.value_den) for w in rep.witnesses}
    assert Fraction(21, 2) in witness_vals  # true maximizer value (path)
    assert Fraction(10, 1) in witness_vals  # broom of diameter 7, true value

    # re-verify both candidates through two independent oracles
    p9, b97 = path_tree(9), broom_tree(9, 7)
    for t, expect in ((p9, 168), (b97, 160)):
        js = joining_all(t)
        v = js.index(min(js))
        assert min(js) == expect
        assert joining_time_by_linear_solve(t, v) == expect
    # and the enumerated maximum really is the path
    vals = [(t_bestmeet(t)[0], t) for t in tree_classes(9)]
    best = max(v for v, _ in vals)
    argmax = [t for v, t in vals if v == best]
    assert best == Fraction(21, 2)
    assert [canonical_form(t) for t in argmax] == [canonical_form(p9)]
    print(
        "\nPASS criterion 4: order-9 adjudication is internally consistent; "
        "path attains 21/2 while the stated broom attains 10 (168 vs 160 scaled), "
        "both re-verified by two oracles; report documents the discrepancy"
    )


def test_criterion_5_property_suites_small_orders():
    trees = [t for n in range(3, 9) for t in tree_classes(n)]
    for t in trees:
        n = t.n
        prof = hitting_profile(t).matrix
        dist = distances(t)
        twice_edges = 2 * (n - 1)
        for u in range(n):
            for v in range(n):
                assert prof[u][v] + prof[v][u] == twice_edges * dist[u][v]
        kem = kemeny(t)
        for u in range(n):
            row = sum(Fraction(t.degree(v), twice_edges) * prof[u][v] for v in range(n))
            assert row == kem
        assert check_barycenter_equivalences(t).agreed
        for v in range(n):
            if t.degree(v) >= 2:
                parts = v_split(t, v).parts
                assert sum(joining_time(p.tree, p.center) for p in parts) == joining_time(t, v)
        _, tied = t_bestmeet_set(t)
        assert set(tied) == set(barycenter(t).centers)
    print(
        f"\nPASS criterion 5: commute identity, Kemeny invariance, barycenter equivalences, "
        f"join decomposition and argmin membership hold exactly on {len(trees)} classes of orders 3..8"
    )


def test_criterion_6_oracle_triangulation():
    trees = [t for n in range(2, 9) for t in tree_classes(n)]
    trees += [balanced_lever(20, 9), broom_tree(20, 9), balanced_double_broom(20, 9)]
    entries = 0
    for t in trees:
        n = t.n
        prof = hitting_profile(t).matrix
        solve = hitting_matrix_by_linear_solve(t)
        for u in range(n):
            for w in range(n):
                h = prof[u][w]
                assert h == hitting_time(t, u, w)
                assert h == hitting_time_by_edge_decomposition(t, u, w)
                assert Fraction(h) == solve[u][w]
                entries += 1
    print(
        f"\nPASS criterion 6: four hitting-time routes agree entry-wise on "
        f"{entries} entries across {len(trees)} trees (orders 2..8 plus three order-20 families)"
    )


def test_criterion_7_pipeline_monotonicity():
    runs = 0
    for n in (8, 9):
        target = canonical_form(balanced_lever(n, 4))
        for t in _with_diameter(n, 4):
            out, trace = minimize_pipeline(t)
            assert canonical_form(out) == target
            values = [trace.initial_value] + [s.value for s in trace.steps]
            assert all(a > b for a, b in zip(values, values[1:]))
            runs += 1
    max_runs = 0
    for t in _with_diameter(9, 4):
        if is_double_broom(t):
            continue
        out, trace = maximize_pipeline(t)
        assert is_double_broom(out)
        assert diameter_and_geodesic(out)[0] <= 4
        assert min(joining_all(out)) > min(joining_all(t))
        max_runs += 1

    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 10))
        code = tuple(int(x) for x in rng.integers(0, n, size=n - 2))
        t = prufer_decode(code, n)
        leaves = [v for v in range(n) if t.degree(v) == 1]
        z = leaves[int(rng.integers(0, len(leaves)))]
        y = t.adjacency[z][0]
        x = int(rng.integers(0, n))
        if x in (z, y):
            continue
        before = hitting_profile(t).matrix
        out = move_leaf(t, z, y, x, check=True)
        after = hitting_profile(out).matrix
        assert all(after[v][x] <= before[v][x] for v in range(n))
        assert joining_time(out, x) < joining_time(t, x)
        checked += 1
    print(
        f"\nPASS criterion 7: {runs} minimizing runs ended at the balanced lever strictly "
        f"decreasing, {max_runs} maximizing runs ended on double brooms strictly increasing, "
        f"and both leaf-move guarantees held on {checked} random instances"
    )


def test_criterion_8_rooted_broom_extremality():
    cases = 0
    for n in range(3, 9):
        by_ecc: dict[int, dict[bytes, int]] = {}
        for t in tree_classes(n):
            for z in range(n):
                r = max(distances(t)[z])
                key = rooted_canonical_form(t, z)
                prev = by_ecc.setdefault(r, {})
                val = joining_time(t, z)
                if key in prev:
                    assert prev[key] == val
                else:
                    prev[key] = val
                    cases += 1
        for r, table in by_ecc.items():
            best = max(table.values())
            winners = [k for k, v in table.items() if v == best]
            broom = broom_tree(n, r) if r > 1 else broom_tree(n, 1)
            z_at = r if r > 1 else 1
            assert winners == [rooted_canonical_form(broom, z_at)], (n, r)
    print(
        f"\nPASS criterion 8: the handle-end broom uniquely maximizes the joining time in "
        f"every (order, eccentricity) class over {cases} rooted classes, orders 3..8"
    )


def test_criterion_9_monte_carlo_consistency(capsys, tmp_path):
    started = time.time()
    cases = [
        (path_tree(3), 0, 2),
        (broom_tree(11, 5), 0, 5),
        (balanced_double_broom(11, 5), 0, 5),
    ]
    zs = []
    for t, u, w in cases:
        sample = simulate_hitting(t, u, w, 100_000, 424242)
        assert abs(sample.z_score) < 4, sample
        zs.append(round(sample.z_score, 2))

    f = tmp_path / "broom.txt"
    f.write_text(format_edge_list(broom_tree(11, 5)), encoding="utf-8")
    args = [
        "--no-timing",
        "simulate", "--input", str(f), "--u", "0", "--w", "5",
        "--walks", "20000", "--seed", "7",
    ]
    assert cli_main(list(args)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    second = capsys.readouterr().out
    assert first == second
    elapsed = time.time() - started
    assert elapsed < 30
    print(
        f"\nPASS criterion 9: three 1e5-walk runs gave z-scores {zs} (all |z| < 4), "
        f"identical seeds reproduced byte-identical reports, total {elapsed:.1f}s"
    )
