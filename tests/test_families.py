from fractions import Fraction

import pytest

from treewalk import families, trees, walkstats
from treewalk.audit import audit_formula
from treewalk.errors import InvalidFamilyParameters, OutOfStatedRange, ParityMismatch
from treewalk.families import (
    FAMILY_NAMES,
    FORMULA_IDS,
    FORMULAS,
    FamilySpec,
    _broom_j,
    _rooted_broom,
    balanced_double_broom,
    balanced_lever,
    bestmeet_dbroom_case,
    broom_tree,
    closed_form,
    delta_inequalities_hold,
    double_broom_tree,
    generate,
    is_double_broom,
    jmin_dbroom_case,
    jmin_lever_case,
    lever_tree,
    path_tree,
    star_tree,
)
from treewalk.trees import canonical_form, diameter_and_geodesic
from treewalk.walkstats import joining_all, joining_time, t_bestmeet


def test_figure_instances():
    lever = generate(FamilySpec("lever", 11, 5, k=2))
    assert lever.degree(2) == 7  # two geodesic neighbors plus five pendants
    assert lever.adjacency == balanced_lever(11, 5).adjacency

    broom = generate(FamilySpec("broom", 11, 5))
    assert broom.degree(1) == 7  # six bristles (v0 included) plus the handle

    dd = generate(FamilySpec("double_broom", 11, 5, left_leaves=3, right_leaves=4))
    assert dd.degree(1) == 4 and dd.degree(4) == 5
    assert dd.adjacency == balanced_double_broom(11, 5).adjacency


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("path", 5, 3),
        FamilySpec("star", 2, 2),
        FamilySpec("star", 5, 3),
        FamilySpec("lever", 6, 3, k=0),
        FamilySpec("lever", 6, 3, k=3),
        FamilySpec("lever", 6, 6, k=1),
        FamilySpec("broom", 5, 5),
        FamilySpec("broom", 5, 2),
        FamilySpec("double_broom", 8, 4, left_leaves=0, right_leaves=5),
        FamilySpec("double_broom", 8, 4, left_leaves=2, right_leaves=2),
        FamilySpec("nonesuch", 5, 3),
    ],
)
def test_invalid_family_parameters(spec):
    with pytest.raises(InvalidFamilyParameters):
        generate(spec)


def test_degenerations():
    assert canonical_form(lever_tree(8, 2, 1)) == canonical_form(star_tree(8))
    assert canonical_form(balanced_lever(7, 6)) == canonical_form(path_tree(7))
    assert canonical_form(balanced_double_broom(9, 8)) == canonical_form(path_tree(9))
    assert canonical_form(balanced_double_broom(9, 7)) == canonical_form(broom_tree(9, 7))
    assert canonical_form(balanced_double_broom(6, 2)) == canonical_form(star_tree(6))


@pytest.mark.parametrize("n", range(4, 26, 3))
def test_generated_order_and_diameter(n):
    for d in range(2, n):
        lever = balanced_lever(n, d)
        assert lever.n == n and diameter_and_geodesic(lever)[0] == d
        dd = balanced_double_broom(n, d)
        assert dd.n == n and diameter_and_geodesic(dd)[0] == d
        if 3 <= d < n:
            br = broom_tree(n, d)
            assert br.n == n and diameter_and_geodesic(br)[0] == d


def test_balanced_double_broom_cluster_convention():
    dd = balanced_double_broom(11, 5)
    assert dd.degree(1) - 1 == 3  # cluster of three pendant leaves incl v0
    assert dd.degree(4) - 1 == 4


def test_closed_form_anchors():
    assert closed_form("jmax_path", 4) == 35
    assert closed_form("jmax_path", 3) == 10
    assert closed_form("jmax_broom", 5, 3) == 76
    assert closed_form("jmax_broom", 4, 2) == 27
    assert closed_form("jmin_dbroom_oo", 7, 3) == 30
    assert closed_form("bestmeet_lever", 5, 4) == Fraction(5, 2)
    assert closed_form("delta_plus", 5, 3) == 57
    assert closed_form("big_delta_plus", 5, 3) == 81
    assert closed_form("delta_minus_path", 5) == -49
    assert closed_form("jmin_path_odd", 9) == 168
    assert closed_form("tmeet_star", 3) == Fraction(5, 2)


def test_closed_form_guards():
    with pytest.raises(ParityMismatch):
        closed_form("jmin_path_odd", 4)
    with pytest.raises(ParityMismatch):
        closed_form("jmin_dbroom_oo", 7, 4)
    with pytest.raises(OutOfStatedRange):
        closed_form("jmax_broom", 5, 5)
    with pytest.raises(OutOfStatedRange):
        closed_form("delta_minus_broom", 5, 4)
    with pytest.raises(OutOfStatedRange):
        closed_form("nonesuch", 5)
    with pytest.raises(OutOfStatedRange):
        closed_form("jmax_broom", 5)


def test_formula_id_registry_consistent():
    for fid in FORMULA_IDS:
        assert isinstance(fid, str)
    assert "jmax_broom" in FORMULA_IDS and "bestmeet_dbroom_oe_printed" in FORMULA_IDS
    # n-only forms first, each group sorted; seeded consumers shuffle this tuple
    assert FORMULA_IDS == (
        "bestmeet_bn_corrected", "bestmeet_bn_printed", "bestmeet_pn", "delta_minus_path",
        "jmax_path", "jmax_path_expanded_printed", "jmax_star_corrected", "jmax_star_printed",
        "jmin_dnd_max", "jmin_path_even", "jmin_path_odd", "tmeet_path", "tmeet_star",
        "bestmeet_dbroom_ee", "bestmeet_dbroom_eo", "bestmeet_dbroom_oe",
        "bestmeet_dbroom_oe_printed", "bestmeet_dbroom_oo", "bestmeet_lever", "big_delta_plus",
        "delta_minus_broom", "delta_plus", "jmax_broom", "jmin_dbroom_ee", "jmin_dbroom_eo",
        "jmin_dbroom_oe", "jmin_dbroom_oo", "jmin_lever_even", "jmin_lever_odd",
    )
    assert set(FORMULA_IDS) == set(FORMULAS)
    assert {row.predicts for row in FORMULAS.values()} <= set(FAMILY_NAMES) | {None}


def test_delta_identities_against_ledger():
    for n in range(4, 60):
        for d in range(2, n - 1):
            assert closed_form("big_delta_plus", n, d) == closed_form(
                "jmax_broom", n + 1, d + 1
            ) - closed_form("jmax_broom", n, d)
            assert closed_form("delta_plus", n, d) == closed_form(
                "jmax_broom", n + 1, d
            ) - closed_form("jmax_broom", n, d)
            if d <= n - 2:
                assert closed_form("delta_minus_broom", n, d) == closed_form(
                    "jmax_broom", n - 1, d
                ) - closed_form("jmax_broom", n, d)
        assert closed_form("delta_minus_path", n) == closed_form(
            "jmax_path", n - 1
        ) - closed_form("jmax_path", n)


def test_delta_inequalities_sweep():
    for n in range(4, 101):
        for d in range(3, n):
            assert delta_inequalities_hold(n, d)


def test_case_selectors():
    assert jmin_dbroom_case(7, 3) == "jmin_dbroom_oo"
    assert jmin_dbroom_case(8, 3) == "jmin_dbroom_eo"
    assert bestmeet_dbroom_case(9, 6) == "bestmeet_dbroom_oe"
    assert jmin_lever_case(4) == "jmin_lever_even"


def test_generator_formula_agreement_spot():
    for n, d in [(9, 4), (12, 7), (20, 9), (15, 14), (10, 2)]:
        lever = balanced_lever(n, d)
        assert joining_time(lever, d // 2) == closed_form(jmin_lever_case(d), n, d)
        dd = balanced_double_broom(n, d)
        assert min(joining_all(dd)) == closed_form(jmin_dbroom_case(n, d), n, d)
        assert t_bestmeet(dd)[0] == closed_form(bestmeet_dbroom_case(n, d), n, d)
        if 3 <= d < n:
            br = broom_tree(n, d)
            js = joining_all(br)
            assert js[d] == max(js) == closed_form("jmax_broom", n, d)


def test_broom_truth_matches_the_definition_route():
    # the broom rows read J at the handle end as one int sum over the stored
    # sizes and d's climb; the single-target joining_time stays the reference
    for n in range(2, 62):
        for d in range(1, n):
            truth = _broom_j(n, d, {})
            assert type(truth) is int
            assert truth == joining_time(broom_tree(n, d), d)
    for n in (500, 2000):
        for d in sorted({1, 2, 3, n // 7, n // 3, n // 2, n // 2 + 1, 2 * n // 3, n - 3, n - 2, n - 1}):
            assert _broom_j(n, d, {}) == joining_time(broom_tree(n, d), d)


def test_formula_audits_run_no_bfs(monkeypatch):
    # every ledger tree is built holding its rooted pass, and every truth
    # reads that pass, so no audit searches a tree
    calls = []
    real = trees.subtree_sizes

    def counted(t, root):
        calls.append((t.n, root))
        return real(t, root)

    for module in (trees, walkstats):
        monkeypatch.setattr(module, "subtree_sizes", counted)
    statuses = {audit_formula(fid, 3, 20).status for fid in FORMULA_IDS}
    assert statuses == {"verified", "discrepancy-in-paper"}
    assert calls == []


@pytest.mark.parametrize("fid", ["jmax_broom", "big_delta_plus", "delta_plus", "delta_minus_broom"])
def test_broom_rows_build_no_rerooting_pass(monkeypatch, fid):
    # each broom truth is one sum over the stored sizes: no broom the row
    # builds ever holds the whole J vector of Tree.joining
    built = []
    real = families.broom_tree
    monkeypatch.setattr(families, "broom_tree", lambda n, d: built.append(real(n, d)) or built[-1])
    assert audit_formula(fid, 3, 30).status == "verified"
    assert len(built) > 400
    assert [t for t in built if "joining" in t.__dict__] == []


@pytest.mark.parametrize("n, d", [(7, 1), (7, 7)])
def test_balanced_double_broom_rejects_a_diameter_outside_the_range(n, d):
    # the message comes from FamilySpec.validate, the one check on this route
    with pytest.raises(InvalidFamilyParameters) as err:
        balanced_double_broom(n, d)
    assert str(err.value) == f"double broom needs 2 <= d <= n-1, got n={n}, d={d}"


def test_is_double_broom_classification():
    assert is_double_broom(path_tree(2))
    assert is_double_broom(path_tree(7))
    assert is_double_broom(star_tree(6))
    assert is_double_broom(broom_tree(8, 5))
    assert is_double_broom(double_broom_tree(9, 4, 3, 3))
    assert not is_double_broom(balanced_lever(9, 5))
    assert not is_double_broom(balanced_lever(8, 4))


def test_rooted_broom_depth():
    b = broom_tree(7, 4)
    assert _rooted_broom(b, 4) == (4, True)  # far handle end
    assert _rooted_broom(b, 0)[1] is False  # a bristle is not the far end
    assert _rooted_broom(path_tree(5), 0) == (4, True)
    assert _rooted_broom(star_tree(5), 1) == (1, True)
    assert _rooted_broom(balanced_lever(9, 4), 0)[1] is False


@pytest.mark.parametrize("fid", FORMULA_IDS)
def test_domain_cells_are_the_cells_fault_accepts(fid):
    # cells is the audit's list of a row's cells at one order: exactly the d
    # in the window that fault accepts, in order, or [None] for an n-only form
    dom = FORMULAS[fid].domain
    for n in range(-1, 30):
        for lo, hi in [(1, n - 1), (0, n - 1), (3, 7), (2, 2), (5, n - 1), (-2, n - 3), (9, 4)]:
            dees = range(lo, hi + 1) if dom.span is not None else [None]
            assert list(dom.cells(n, lo, hi)) == [d for d in dees if dom.fault(n, d) is None]
