import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

import treewalk.audit as audit_mod
import treewalk.simulate as simulate_mod
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
from treewalk.errors import CapExceeded, UnknownClaim
from treewalk.cli import main
from treewalk.families import FORMULA_IDS, FORMULAS, broom_tree, path_tree
from treewalk.simulate import simulate_hitting
from treewalk.trees import canonical_form
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
    # registry row (or, for a tie, through the statistic itself)
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
    monkeypatch.setattr(audit_mod, "t_bestmeet", lambda t: (Fraction(1), 0))
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


def test_simulation_forced_step():
    s = simulate_hitting(path_tree(2), 0, 1, 100, 7)
    assert s.mean == 1 and s.stderr == 0.0 and s.z_score == 0.0


def test_simulation_deterministic_given_seed():
    a = simulate_hitting(path_tree(3), 0, 2, 2000, 42)
    b = simulate_hitting(path_tree(3), 0, 2, 2000, 42)
    assert a == b
    c = simulate_hitting(path_tree(3), 0, 2, 2000, 43)
    assert c.total_steps != a.total_steps


def test_simulation_walk_count_prefix_property():
    # per-walk streams keyed by walk index: a longer run re-produces the
    # shorter run's walks exactly
    a = simulate_hitting(path_tree(3), 0, 2, 1000, 11)
    b = simulate_hitting(path_tree(3), 0, 2, 2000, 11)
    assert b.total_steps >= a.total_steps
    assert abs(float(b.mean) - float(a.mean)) <= 6 * max(a.stderr, 1e-9)


def test_simulation_stderr_is_exact_for_large_walks(monkeypatch):
    # walks of 2**40 and 2**40 + 2 steps: a float difference of the summed
    # squares cancels to 0, the exact variance is 100/99
    lengths = itertools.cycle([2**40, 2**40 + 2])
    monkeypatch.setattr(simulate_mod, "_walk_length", lambda *args: next(lengths))
    s = simulate_hitting(path_tree(3), 0, 2, 100, 1)
    assert s.mean == 2**40 + 1
    assert s.stderr == 0.10050378152592121
    assert math.isfinite(s.z_score)


def test_simulation_exact_field():
    s = simulate_hitting(path_tree(3), 0, 2, 500, 5)
    assert s.exact == Fraction(4)
    assert abs(s.z_score) < 6
