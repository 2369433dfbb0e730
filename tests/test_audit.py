import collections
import dataclasses
import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

import treewalk.audit as audit_mod
import treewalk.families as families_mod
import treewalk.simulate as simulate_mod
import treewalk.trees as trees_mod
import treewalk.walkstats as walkstats_mod
from treewalk.audit import (
    DISCREPANCY,
    OUT_OF_RANGE,
    REFUTED,
    VERIFIED,
    audit_formula,
    audit_proposition_barycenter,
    audit_theorem_global,
    audit_theorem_max,
    audit_theorem_min,
)
from treewalk.enumeration import extremal_table, tree_classes
from treewalk.errors import CapExceeded, OutOfStatedRange, ParityMismatch, TreewalkError, UnknownClaim
from treewalk.cli import main
from treewalk.families import FORMULA_IDS, FORMULAS, broom_tree, closed_form, path_tree
from treewalk.oracles import hitting_time
from treewalk.simulate import simulate_hitting
from treewalk.trees import canonical_form, diameter_and_geodesic
from treewalk.walkstats import BarycenterResult


def _values(report):
    return [(w.value_num, w.value_den) for w in report.witnesses]


def test_theorem_min_verified_cases():
    assert audit_theorem_min(8, 4).status == VERIFIED
    rep = audit_theorem_min(5, 4)
    assert rep.status == VERIFIED and _values(rep) == [(5, 2)]
    # singleton class: only the path has diameter n-1
    assert audit_theorem_min(6, 5).status == VERIFIED


def test_theorem_max_verified_cases():
    assert audit_theorem_max(8, 4).status == VERIFIED
    rep = audit_theorem_max(5, 3)
    assert rep.status == VERIFIED and _values(rep) == [(3, 2)]
    rep = audit_theorem_max(7, 2)
    assert rep.status == VERIFIED and _values(rep) == [(1, 2)]


def _notes(report):
    return report.status, report.notes, [w.note for w in report.witnesses]


@pytest.mark.parametrize(
    "audit, fid, kind, family",
    [
        (audit_theorem_min, "bestmeet_lever", "min", "balanced lever"),
        (audit_theorem_max, "bestmeet_dbroom_oe", "max", "balanced double broom"),
    ],
)
def test_theorem_extremal_failure_branches(monkeypatch, audit, fid, kind, family):
    # no real input reaches these branches, so each is forced through the
    # registry row (or, for a tie, through the extremal table)
    role = kind + "imizer"
    row = FORMULAS[fid]
    monkeypatch.setitem(FORMULAS, fid, dataclasses.replace(row, witness=lambda n, d: broom_tree(n, d)))
    assert _notes(audit(7, 4)) == (
        REFUTED, f"{role} is not the {family}", [f"actual {role}", family]
    )
    monkeypatch.setitem(FORMULAS, fid, dataclasses.replace(row, form=lambda n, d: row.form(n, d) + 1))
    rep = audit(7, 4)
    assert _notes(rep) == (
        DISCREPANCY,
        f"{role} confirmed but the printed value differs",
        ["ground truth", "stated closed form"],
    )
    truth = Fraction(rep.witnesses[0].value_num, rep.witnesses[0].value_den)
    assert _values(rep)[1] == ((truth + 1).numerator, (truth + 1).denominator)
    monkeypatch.setitem(FORMULAS, fid, row)
    table = dict(extremal_table(6))
    tied = tuple(t for t in tree_classes(6) if diameter_and_geodesic(t)[0] == 3)
    table[3] = dataclasses.replace(table[3], minimizers=tied, maximizers=tied)
    monkeypatch.setattr(audit_mod, "extremal_table", lambda n, cap: table)
    assert _notes(audit(6, 3)) == (
        REFUTED, f"2 isomorphism classes tie for the {kind}imum", [f"tied {role}"] * 2
    )
    monkeypatch.undo()
    assert _notes(audit(7, 4)) == (VERIFIED, "checked 5 classes", [f"unique {role}"])


def test_theorem_global_small_orders():
    rep = audit_theorem_global(3)
    assert rep.status == VERIFIED and _values(rep)[0] == (1, 2)
    rep = audit_theorem_global(7)
    assert rep.status == VERIFIED and _values(rep)[0] == (35, 6)
    rep = audit_theorem_global(8)
    assert rep.status == VERIFIED
    assert canonical_form(path_tree(8)).decode("ascii") == rep.witnesses[0].canonical


def test_theorem_global_merges_tied_maximizers_across_diameters(monkeypatch):
    # at order 8 the path alone attains the maximum; lift two rows above
    # it, holding classes whose codes run against the rows' order, so the
    # argmax spans two rows and must be put back in code order
    table = dict(extremal_table(8))
    top = max(row.jmin_hi for row in table.values()) + 1
    late, early = table[6].maximizers[0], table[3].maximizers[0]
    assert canonical_form(late) > canonical_form(early)
    table[3] = dataclasses.replace(table[3], jmin_hi=top, maximizers=(late,))
    table[5] = dataclasses.replace(table[5], jmin_hi=top, maximizers=(early,))
    monkeypatch.setattr(audit_mod, "extremal_table", lambda n, cap: table)
    rep = audit_theorem_global(8)
    assert rep.status == DISCREPANCY
    assert [w.note for w in rep.witnesses] == ["actual maximizer"] * 2 + ["stated maximizer (path)"]
    tied = [canonical_form(t).decode("ascii") for t in (early, late)]
    assert [w.canonical for w in rep.witnesses[:2]] == tied
    assert rep.notes.endswith("; checked 23 classes")


def test_formula_flags_star_scaling():
    rep = audit_formula("jmax_star_printed", 3, 20)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 3}
    assert _values(rep) == [(5, 1), (10, 1)]


def test_formula_flags_path_expansion():
    rep = audit_formula("jmax_path_expanded_printed", 3, 20)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 3}
    assert _values(rep) == [(34, 1), (10, 1)]


def test_formula_flags_dbroom_oe_denominator():
    rep = audit_formula("bestmeet_dbroom_oe_printed", 3, 15)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 7, "d": 6}
    assert (rep.witnesses[0].value_num, rep.witnesses[0].value_den) == (17, 2)
    assert (rep.witnesses[1].value_num, rep.witnesses[1].value_den) == (35, 6)


def test_formula_flags_short_broom_bestmeet():
    rep = audit_formula("bestmeet_bn_printed", 5, 15)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 5}
    rep = audit_formula("bestmeet_bn_corrected", 5, 15)
    assert rep.status == VERIFIED


def test_formula_flags_aggregated_maximum_for_odd_orders():
    rep = audit_formula("jmin_dnd_max", 3, 11)
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == {"n": 9}
    assert _values(rep) == [(169, 1), (168, 1)]


def test_formula_verified_families():
    assert audit_formula("jmax_broom", 4, 40).status == VERIFIED
    assert audit_formula("jmax_path", 2, 60).status == VERIFIED
    assert audit_formula("bestmeet_lever", 3, 30).status == VERIFIED
    assert audit_formula("jmin_dbroom_oo", 3, 25).status == VERIFIED
    assert audit_formula("bestmeet_dbroom_oe", 3, 25).status == VERIFIED
    assert audit_formula("delta_minus_broom", 4, 30).status == VERIFIED
    assert audit_formula("tmeet_star", 2, 40).status == VERIFIED


# The five ledger entries whose printed form disagrees with ground truth on
# n in 3..40: first failing instance, witness canonical form, and the
# (printed, truth) values there. Every other entry verifies on that window.
_MISPRINTS = {
    "jmax_star_printed": ({"n": 3}, "110100", [(5, 1), (10, 1)]),
    "jmax_path_expanded_printed": ({"n": 3}, "110100", [(34, 1), (10, 1)]),
    "bestmeet_dbroom_oe_printed": ({"n": 7, "d": 6}, "11110001110000", [(17, 2), (35, 6)]),
    "bestmeet_bn_printed": ({"n": 5}, "1101011000", [(2, 1), (3, 2)]),
    "jmin_dnd_max": ({"n": 9}, "", [(169, 1), (168, 1)]),
}


@pytest.mark.parametrize("fid", FORMULA_IDS)
def test_ledger_audit_outcome(fid):
    rep = audit_formula(fid, 3, 40)
    if fid not in _MISPRINTS:
        assert rep.status == VERIFIED and rep.witnesses == []
        return
    failure, canonical, values = _MISPRINTS[fid]
    assert rep.status == DISCREPANCY
    assert rep.params["first_failure"] == failure
    assert [w.canonical for w in rep.witnesses] == [canonical, canonical]
    assert [w.note for w in rep.witnesses] == ["printed form", "ground truth"]
    assert _values(rep) == values


def test_an_int_truth_reports_what_a_fraction_truth_did(monkeypatch, capsys):
    # the broom rows' truths are ints; forced to a discrepancy, the report
    # still carries J as J/1, and the CLI writes the bytes it wrote when the
    # truth was a Fraction (digests recorded with the Fraction truth)
    row = FORMULAS["jmax_broom"]
    monkeypatch.setitem(FORMULAS, "jmax_broom", dataclasses.replace(row, form=lambda n, d: row.form(n, d) + 1))
    assert type(row.truth(5, 3, {})) is int
    rep = audit_formula("jmax_broom", 5, 9, 3, 3)
    assert rep.status == DISCREPANCY and rep.params["first_failure"] == {"n": 5, "d": 3}
    assert [(w.note, w.value_num, w.value_den) for w in rep.witnesses] == [
        ("printed form", 77, 1), ("ground truth", 76, 1)
    ]
    assert all(type(w.value_num) is int and type(w.value_den) is int for w in rep.witnesses)
    for flags, digest in [
        (["--n", "5..9", "--d", "3..3"], "7ccc525c941b8aa2b467fd80de2d9d53220c1ddbcde3ea9fa184cae40ef83fb1"),
        (["--n", "2..40"], "c618fda455d28d7a5d9ead9db3e9a11ce3b5769673a3d242329f5355f47d7a78"),
    ]:
        assert main(["--no-timing", "audit", "formula", "jmax_broom", *flags]) == 2
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fid, n_lo, n_hi, vertices",
    [
        ("jmax_path", 3, 10, 52),  # one path of n vertices per order
        ("jmin_lever_odd", 3, 9, 86),  # one lever per odd d in 3..n-1
        ("delta_plus", 3, 6, 136),  # two brooms per cell, each counted as n
        ("delta_minus_path", 2, 7, 54),  # two paths per order
        ("jmin_dnd_max", 3, 8, 133),  # n - 2 double brooms per order
    ],
)
def test_formula_audit_counts_its_vertices_before_building(monkeypatch, fid, n_lo, n_hi, vertices):
    # at a budget of exactly the count the audit runs; one below, it is
    # refused before any tree is built
    built = []
    real = families_mod._caterpillar
    monkeypatch.setattr(families_mod, "_caterpillar", lambda *a: built.append(a) or real(*a))
    monkeypatch.setattr(families_mod, "BUILD_BUDGET", vertices)
    assert audit_formula(fid, n_lo, n_hi).status == VERIFIED
    assert built
    built.clear()
    monkeypatch.setattr(families_mod, "BUILD_BUDGET", vertices - 1)
    with pytest.raises(CapExceeded, match=rf"^formula audit {fid} --n {n_lo}..{n_hi} would build more than the budget of {vertices - 1} tree vertices$"):
        audit_formula(fid, n_lo, n_hi)
    assert built == []


def test_the_ledger_windows_sit_far_inside_the_build_budget(monkeypatch):
    # the golden group's 2..40 and the benchmark's 3..60 pass keep their
    # outcomes at a fiftieth of the budget
    monkeypatch.setattr(families_mod, "BUILD_BUDGET", families_mod.BUILD_BUDGET // 50)
    for fid in FORMULA_IDS:
        for n_lo, n_hi in [(2, 40), (3, 60)]:
            assert audit_formula(fid, n_lo, n_hi).status == (DISCREPANCY if fid in _MISPRINTS else VERIFIED)


@pytest.mark.parametrize(
    "fid, n_hi, window",
    [
        ("jmax_broom", 1000, (None, None)),
        ("bestmeet_lever", 10**5, (None, None)),
        ("jmax_path", 10**12, (None, None)),
        ("jmin_dnd_max", 10**6, (None, None)),
        ("jmin_dbroom_oe", 10**8, (4, 4)),
        ("jmax_broom", 10**12, (10**11, 10**11)),  # no order below d_lo + 1 is counted
    ],
)
def test_formula_audit_past_the_budget_is_refused_at_once(monkeypatch, fid, n_hi, window):
    built = []
    monkeypatch.setattr(families_mod, "_caterpillar", lambda *a: built.append(a))
    started = time.perf_counter()
    with pytest.raises(CapExceeded, match="would build more than the budget of 10000000 tree vertices$"):
        audit_formula(fid, 3, n_hi, *window)
    assert time.perf_counter() - started < 1 and built == []


def test_formula_audit_ends_a_window_no_order_can_meet():
    # a --d window below every cell's span holds no cell at any order; past
    # d_hi + gap the cells repeat, so the audit stops there, not at 10^12;
    # and no order below n_min is visited
    started = time.perf_counter()
    for fid, window in [("jmax_broom", (0, 0)), ("delta_minus_broom", (1, 1)), ("jmin_lever_odd", (2, 2))]:
        assert audit_formula(fid, 3, 10**12, *window).status == OUT_OF_RANGE
    assert audit_formula("jmax_path", -(10**12), 5).notes == "4 instances match exactly"
    assert time.perf_counter() - started < 1


def _count_broom_builds(monkeypatch) -> collections.Counter:
    built: collections.Counter = collections.Counter()
    real = families_mod.broom_tree

    def counting(n, d):
        built[n, d] += 1
        return real(n, d)

    monkeypatch.setattr(families_mod, "broom_tree", counting)
    return built


@pytest.mark.parametrize(
    "fid, distinct", [("delta_plus", 1828), ("big_delta_plus", 1828), ("delta_minus_broom", 1710)]
)
def test_formula_audit_builds_each_broom_once(monkeypatch, fid, distinct):
    # row n's (n+1, .) term is row n+1's (n, .) term: one audit builds it once
    built = _count_broom_builds(monkeypatch)
    assert audit_formula(fid, 3, 60).status == VERIFIED
    assert len(built) == distinct
    assert set(built.values()) == {1}


def test_formula_audit_keeps_no_broom_between_calls(monkeypatch):
    # the memo lives for one audit, and the next one reads the rebound generator
    first = audit_formula("delta_plus", 3, 12)
    built = _count_broom_builds(monkeypatch)
    assert audit_formula("delta_plus", 3, 12) == first
    assert set(built) == {(m, d) for n in range(3, 13) for d in range(1, n) for m in (n, n + 1)}
    assert set(built.values()) == {1}


def test_delta_minus_path_audit_builds_each_path_once(monkeypatch):
    # row n's path(n - 1) is row n - 1's path(n): one audit builds it once
    built: collections.Counter = collections.Counter()
    real = families_mod.path_tree

    def counting(n):
        built[n] += 1
        return real(n)

    monkeypatch.setattr(families_mod, "path_tree", counting)
    rep = audit_formula("delta_minus_path", 3, 60)
    assert rep.as_dict() == {
        "claim": "formula:delta_minus_path",
        "status": VERIFIED,
        "params": {"formula": "delta_minus_path", "n": "3..60"},
        "witnesses": [],
        "notes": "58 instances match exactly",
    }
    assert built == {n: 1 for n in range(2, 61)}


def test_jmin_ledger_rows_run_no_rerooting_pass(monkeypatch):
    # the J_min and T_bestmeet ground truths read J_min off each tree's
    # rooted pass; none of them runs the rerooting pass, Tree.joining
    calls = []
    prop = vars(trees_mod.Tree)["joining"]
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda t: calls.append(t.n) or real(t))
    fids = ("bestmeet_lever", "jmin_dbroom_oo", "jmin_dnd_max")
    assert [audit_formula(fid, 3, 30).status for fid in fids] == [VERIFIED, VERIFIED, DISCREPANCY]
    assert calls == []


def _refusal(fid, n, d):
    """The class and message of closed_form's refusal at (n, d), or None:
    its domain checks as written before Domain stated them, kept as the
    reference for both."""
    dom = FORMULAS[fid].domain
    if dom.span is not None and d is None:
        return OutOfStatedRange, f"formula {fid!r} needs a diameter argument"
    if n < dom.n_min:
        return OutOfStatedRange, f"formula {fid!r} needs n >= {dom.n_min}, got n={n}"
    if dom.span is not None and not dom.span[0] <= d <= n - dom.span[1]:
        return OutOfStatedRange, f"formula {fid!r} needs {dom.span[0]} <= d <= n-{dom.span[1]}, got n={n}, d={d}"
    if dom.n_odd is not None and n % 2 != dom.n_odd:
        return ParityMismatch, f"formula {fid!r} needs {'odd' if dom.n_odd else 'even'} n, got n={n}"
    if dom.d_odd is not None and d % 2 != dom.d_odd:
        return ParityMismatch, f"formula {fid!r} needs {'odd' if dom.d_odd else 'even'} d, got d={d}"
    return None


@pytest.mark.parametrize("fid", FORMULA_IDS)
def test_formula_audit_screens_exactly_the_cells_closed_form_refuses(fid):
    # audit_formula skips a cell when Domain.fault names one, without
    # raising; closed_form raises that fault with its class and message
    domain = FORMULAS[fid].domain
    for n in range(31):
        for d in [None, *range(-1, n + 2)]:
            refusal = _refusal(fid, n, d)
            assert (domain.fault(n, d) is None) == (refusal is None), (n, d)
            if refusal is None:
                assert isinstance(closed_form(fid, n, d), (int, Fraction))
                continue
            with pytest.raises(TreewalkError) as caught:
                closed_form(fid, n, d)
            assert (type(caught.value), str(caught.value)) == refusal, (n, d)
    # the audit over 3..30 checks exactly the cells of its window that
    # closed_form evaluates (a misprint's audit stops at its first failure)
    window = [(n, d) for n in range(3, 31) for d in (range(1, n) if domain.span else [None])]
    rep = audit_formula(fid, 3, 30)
    if rep.status == VERIFIED:
        assert rep.notes == f"{sum(_refusal(fid, n, d) is None for n, d in window)} instances match exactly"


def test_formula_out_of_range_window():
    rep = audit_formula("bestmeet_bn_printed", 2, 4)
    assert rep.status == OUT_OF_RANGE


def test_formula_unknown_id():
    with pytest.raises(UnknownClaim):
        audit_formula("nonesuch", 3, 5)


def test_proposition_barycenter():
    rep = audit_proposition_barycenter(7)
    assert rep.status == VERIFIED
    assert "23 trees" in rep.notes


def test_proposition_barycenter_refuted(monkeypatch, capsys):
    # a wrong component-bounded set must surface as REFUTED (exit 2), not raise
    monkeypatch.setattr(
        walkstats_mod, "barycenter", lambda t: BarycenterResult(tuple(range(t.n)), ())
    )
    rep = audit_proposition_barycenter(5)
    assert rep.status == REFUTED and rep.notes == "predicate sets disagree"
    assert [w.note for w in rep.witnesses] == ["offending tree"]
    assert main(["--no-timing", "audit", "prop-barycenter", "--n", "5"]) == 2
    assert '"status": "refuted"' in capsys.readouterr().out


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        audit_proposition_barycenter(12)


@pytest.mark.parametrize(
    "n, d, message",
    [(11, 20, "need 2 <= d <= n-1, got n=11, d=20"), (11, 5, "order 11 outside 2..10")],
    ids=["d-range-before-cap", "cap"],
)
def test_theorem_cell_errors(capsys, n, d, message):
    for claim in ("thm-min", "thm-max"):
        assert main(["--no-timing", "audit", claim, "--n", str(n), "--d", str(d)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["thm-min", "--n", "22", "--d", "5"], "order 22 above the enumeration ceiling 18"),
        (["prop-barycenter", "--n", "19"], "n_cap 19 above the enumeration ceiling 18"),
    ],
    ids=["thm-min", "prop-barycenter"],
)
def test_enumeration_ceiling_ends_in_an_error_line(capsys, argv, message):
    # prop-barycenter must refuse before it enumerates orders 3..18
    started = time.perf_counter()
    assert main(["--no-timing", "audit", *argv, "--cap", "40"]) == 1
    assert time.perf_counter() - started < 10
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_simulation_forced_step():
    s = simulate_hitting(path_tree(2), 0, 1, 100, 7)
    assert s.mean == 1 and s.stderr == 0.0 and s.z_score == 0.0


def test_simulation_deterministic_given_seed():
    a = simulate_hitting(path_tree(3), 0, 2, 2000, 42)
    b = simulate_hitting(path_tree(3), 0, 2, 2000, 42)
    assert a == b
    c = simulate_hitting(path_tree(3), 0, 2, 2000, 43)
    assert c.total_steps != a.total_steps


def _per_walk_lengths(monkeypatch, t, u, w, walks, seed):
    """simulate_hitting's per-walk lengths, in walk-index order."""
    seen = []
    real = simulate_mod._walk_lengths

    def record(*args):
        out = real(*args)
        seen.extend(out)
        return out

    monkeypatch.setattr(simulate_mod, "_walk_lengths", record)
    sample = simulate_hitting(t, u, w, walks, seed)
    monkeypatch.undo()
    assert sample.total_steps == sum(seen)
    return sample, seen


def test_simulation_walk_count_prefix_property(monkeypatch):
    # per-walk streams keyed by walk index: a longer run re-produces the
    # shorter run's walks exactly, and any slice [a, b) of walk indices run
    # on its own gives that slice of the full run (the sharding property)
    a, a_lengths = _per_walk_lengths(monkeypatch, path_tree(3), 0, 2, 1000, 11)
    b, b_lengths = _per_walk_lengths(monkeypatch, path_tree(3), 0, 2, 2000, 11)
    assert b.total_steps >= a.total_steps
    assert abs(float(b.mean) - float(a.mean)) <= 6 * max(a.stderr, 1e-9)
    assert b_lengths[:1000] == a_lengths
    table = simulate_mod._walk_table(path_tree(3), 2)
    for lo, hi in ((0, 1), (999, 1001), (17, 1500), (1234, 2000), (1999, 2000)):
        assert simulate_mod._walk_lengths(table, 0, 2, 11, range(lo, hi)) == b_lengths[lo:hi]


def test_simulation_stderr_is_exact_for_large_walks(monkeypatch):
    # walks of 2**40 and 2**40 + 2 steps: a float difference of the summed
    # squares cancels to 0, the exact variance is 100/99
    lengths = itertools.cycle([2**40, 2**40 + 2])
    monkeypatch.setattr(
        simulate_mod, "_walk_lengths", lambda table, u, w, seed, walk_ids: [next(lengths) for _ in walk_ids]
    )
    s = simulate_hitting(path_tree(3), 0, 2, 100, 1)
    assert s.mean == 2**40 + 1
    assert s.stderr == 0.10050378152592121
    assert math.isfinite(s.z_score)


def test_simulation_exact_field():
    s = simulate_hitting(path_tree(3), 0, 2, 500, 5)
    assert s.exact == Fraction(4)
    assert abs(s.z_score) < 6
    # a broom's hitting times are not symmetric, so the direction shows
    b = broom_tree(5, 3)
    for u, w in itertools.permutations(range(5), 2):
        assert simulate_hitting(b, u, w, 2, 5).exact == hitting_time(b, u, w)
    assert simulate_hitting(b, 1, 3, 2, 5).exact != simulate_hitting(b, 3, 1, 2, 5).exact
