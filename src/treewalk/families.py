"""Named tree families and their closed-form value ledger.

Generators produce the canonical labeled realization: geodesic vertices
v0..vd take ids 0..d and every extra leaf takes the next free id, grouped
by attachment point. Each generator is one `trees._caterpillar` call, so
every family tree comes back holding its rooted pass, and no statistic of
it runs a BFS. Every lever and double broom is built by `generate`, after
`FamilySpec.validate`, the one statement of their ranges; `balanced_spec`
names each family's balanced instance. The
ledger evaluates each printed closed form verbatim; forms known to be
misprinted keep a `_printed` variant alongside a corrected one so audits
can separate what the source states from what the mathematics gives.
`FORMULAS` is the one table of ledger entries: each row holds the form,
the range and parity it is stated for, the tree it describes, its ground
truth and the `gen` family that reports it. `Domain.fault` is the one
statement of a row's range: `closed_form` raises what it names, and the
formula audit skips the cells it refuses, so each form is just the
printed algebra. Most ground truths read
a `walkstats.QUANTITIES` entry off the generated tree, as `sweep` does.
The shape tests read their definitions: `is_double_broom` the degrees,
and `_rooted_broom` the distances from its root, read off the tree's
stored rooted pass with no traversal of its own, through `_broom_depths`,
the width test that takes any sequence of depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InvalidFamilyParameters, OutOfStatedRange, ParityMismatch, TreewalkError
from .trees import Tree, _caterpillar, _distances
from .walkstats import QUANTITIES

FAMILY_NAMES = ("path", "star", "lever", "broom", "double_broom")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one instance of a tree family."""

    family: str
    n: int
    d: int
    k: Optional[int] = None  # lever fulcrum index
    left_leaves: Optional[int] = None  # double_broom cluster at v1 (v0 included)
    right_leaves: Optional[int] = None  # double_broom cluster at v_{d-1} (v_d included)

    def validate(self) -> None:
        f, n, d = self.family, self.n, self.d
        if f not in FAMILY_NAMES:
            raise InvalidFamilyParameters(f"unknown family {f!r}")
        if f == "path":
            if n < 2 or d != n - 1:
                raise InvalidFamilyParameters(f"path needs d = n-1, got n={n}, d={d}")
        elif f == "star":
            if n < 3 or d != 2:
                raise InvalidFamilyParameters(f"star needs n >= 3 and d = 2, got n={n}, d={d}")
        elif f == "lever":
            if not 2 <= d <= n - 1:
                raise InvalidFamilyParameters(f"lever needs 2 <= d <= n-1, got n={n}, d={d}")
            if self.k is None or not 1 <= self.k <= d - 1:
                raise InvalidFamilyParameters(
                    f"lever fulcrum k={self.k} outside 1..d-1 = 1..{d - 1}"
                )
        elif f == "broom":
            if not 3 <= d < n:
                raise InvalidFamilyParameters(f"broom needs 3 <= d < n, got n={n}, d={d}")
        elif f == "double_broom":
            if not 2 <= d <= n - 1:
                raise InvalidFamilyParameters(
                    f"double broom needs 2 <= d <= n-1, got n={n}, d={d}"
                )
            lo, hi = self.left_leaves, self.right_leaves
            if lo is None or hi is None or lo < 1 or hi < 1 or lo + hi != n - d + 1:
                raise InvalidFamilyParameters(
                    f"double broom clusters ({lo}, {hi}) must be >= 1 and sum to n-d+1 = {n - d + 1}"
                )


def path_tree(n: int) -> Tree:
    if n < 1:
        raise InvalidFamilyParameters(f"path needs n >= 1, got {n}")
    return _caterpillar(n, n - 1, [])


def star_tree(n: int) -> Tree:
    """Star on n >= 3 vertices, hub at id 1 (geodesic 0-1-2)."""
    if n < 3:
        raise InvalidFamilyParameters(f"star needs n >= 3, got {n}")
    return _caterpillar(n, 2, [1] * (n - 3))


def lever_tree(n: int, d: int, k: int) -> Tree:
    """Diameter-d path with the n-d-1 extra vertices pendant at v_k."""
    return generate(FamilySpec("lever", n, d, k=k))


def balanced_spec(family: str, n: int, d: int) -> FamilySpec:
    """The balanced instance of `family` at (n, d): the lever's fulcrum at the
    geodesic midpoint floor(d/2), the double broom's n-d-1 extra leaves split
    as evenly as possible with the odd one on the right. Path, star and broom
    have no free parameter."""
    if family == "lever":
        return FamilySpec(family, n, d, k=d // 2)
    if family == "double_broom":
        extra = n - d - 1
        return FamilySpec(family, n, d, left_leaves=extra // 2 + 1, right_leaves=(extra + 1) // 2 + 1)
    return FamilySpec(family, n, d)


def balanced_lever(n: int, d: int) -> Tree:
    """Lever with the fulcrum at the geodesic midpoint floor(d/2); the path at d = n-1."""
    if d == n - 1:
        return path_tree(n)
    return generate(balanced_spec("lever", n, d))


def broom_tree(n: int, d: int) -> Tree:
    """Handle path v1..vd with all n-d extra vertices pendant at v1.

    v0 is one of the bristles, so ids 0..d span a geodesic. d=1 gives the
    degenerate handle-less star used by split decompositions.
    """
    if not 1 <= d <= n - 1:
        raise InvalidFamilyParameters(f"broom needs 1 <= d <= n-1, got n={n}, d={d}")
    return _caterpillar(n, d, [1] * (n - d - 1))


def double_broom_tree(n: int, d: int, left_leaves: int, right_leaves: int) -> Tree:
    """Central path v1..v_{d-1} with leaf clusters at both ends.

    Cluster counts include the geodesic endpoints v0 and v_d, so
    left + right = n - d + 1.
    """
    return generate(FamilySpec("double_broom", n, d, left_leaves=left_leaves, right_leaves=right_leaves))


def balanced_double_broom(n: int, d: int) -> Tree:
    """Double broom whose end clusters differ in size by at most one."""
    return generate(balanced_spec("double_broom", n, d))


def generate(spec: FamilySpec) -> Tree:
    """Build the canonical labeled tree of a FamilySpec after validating it."""
    spec.validate()
    f, n, d = spec.family, spec.n, spec.d
    if f == "path":
        return path_tree(n)
    if f == "star":
        return star_tree(n)
    if f == "broom":
        return broom_tree(n, d)
    if f == "lever":
        return _caterpillar(n, d, [spec.k] * (n - d - 1))  # type: ignore[list-item]
    left, right = spec.left_leaves, spec.right_leaves
    return _caterpillar(n, d, [1] * (left - 1) + [d - 1] * (right - 1))  # type: ignore[operator]


def is_double_broom(t: Tree) -> bool:
    """True when the non-leaf vertices form a path whose leaves all hang off
    its two ends (paths, stars and brooms all qualify): no non-leaf vertex
    has more than two non-leaf neighbors, and none with exactly two has a
    leaf."""
    deg = [len(nbrs) for nbrs in t.adjacency]
    for v, nbrs in enumerate(t.adjacency):
        if deg[v] >= 2:
            inner = sum(1 for w in nbrs if deg[w] >= 2)
            if inner > 2 or (inner == 2 and deg[v] > 2):
                return False
    return True


def _rooted_broom(t: Tree, root: int) -> tuple[int, bool]:
    """The eccentricity r of root, and whether (t, root) is a broom of
    depth r with the root at the far handle end, from the distances to
    root by `_broom_depths`."""
    return _broom_depths(_distances(t, root))


def _broom_depths(depth: Sequence[int]) -> tuple[int, bool]:
    """The greatest depth r, and whether exactly one vertex lies at each
    depth 1..r-1 (depth-1 stars and plain paths included): the width test
    of a broom rooted at its far handle end, whose depth-r vertices are
    then leaves on the one depth-(r-1) vertex."""
    r = max(depth)
    width = [0] * (r + 1)
    for dv in depth:
        width[dv] += 1
    return r, all(w == 1 for w in width[1:r])


# ---------------------------------------------------------------------------
# Closed-form ledger
# ---------------------------------------------------------------------------


def _jmax_path(n: int) -> Fraction:
    return Fraction(4 * (n - 1) ** 3 - (n - 1), 3)


def _jmax_path_expanded_printed(n: int) -> Fraction:
    return Fraction(4 * n**3 - 4 * n**2 + 11 * n, 3) - 1


def _tmeet_path(n: int) -> Fraction:
    return Fraction(4 * n * n - 8 * n + 3, 6)


def _tmeet_star(n: int) -> Fraction:
    return Fraction(4 * n - 7, 2)


def _jmax_star_printed(n: int) -> Fraction:
    return 2 * n * n - Fraction(11 * n, 2) + Fraction(7, 2)


def _jmax_star_corrected(n: int) -> Fraction:
    return Fraction(4 * n * n - 11 * n + 7)


def _jmin_path_odd(n: int) -> Fraction:
    return Fraction(n**3 - 3 * n**2 + 2 * n, 3)


def _jmin_path_even(n: int) -> Fraction:
    return Fraction(n**3 - 3 * n**2 + 5 * n, 3) - 1


def _jmin_lever_odd(n: int, d: int) -> Fraction:
    return n - 1 + Fraction(d**3 - d, 3)


def _jmin_lever_even(n: int, d: int) -> Fraction:
    return n - 1 + Fraction(d**3 - 4 * d, 3)


def _bestmeet_lever(n: int, d: int) -> Fraction:
    num = d**3 - d if d % 2 == 1 else d**3 - 4 * d
    return Fraction(num, 6 * (n - 1)) + Fraction(1, 2)


def _jmax_broom(n: int, d: int) -> Fraction:
    return Fraction(
        3 * (4 * (d - 1) * n * n + (5 - 4 * d * d) * n) + 4 * d**3 - 4 * d - 3, 3
    )


def _jmin_dbroom_oo(n: int, d: int) -> Fraction:
    return Fraction((d - 2) * n * n - (d * d - 2 * d) * n) + Fraction(d**3 - 3 * d * d + 2 * d, 3)


def _jmin_dbroom_oe(n: int, d: int) -> Fraction:
    return (
        Fraction((d - 2) * n * n - (d * d - 2 * d - 1) * n)
        + Fraction(d**3 - 3 * d * d - d, 3)
        + 1
    )


def _jmin_dbroom_eo(n: int, d: int) -> Fraction:
    return Fraction((d - 2) * n * n - (d * d - 2 * d - 2) * n) + Fraction(d**3 - 3 * d * d - d, 3)


def _jmin_dbroom_ee(n: int, d: int) -> Fraction:
    return (
        Fraction((d - 2) * n * n - (d * d - 2 * d - 1) * n)
        + Fraction(d**3 - 3 * d * d + 2 * d, 3)
        - 1
    )


def _bestmeet_dbroom_oo(n: int, d: int) -> Fraction:
    return Fraction((d - 2) * n - d * d + 3 * d - 2, 2) + Fraction(
        d**3 - 6 * d * d + 11 * d - 6, 6 * (n - 1)
    )


def _bestmeet_dbroom_oe(n: int, d: int) -> Fraction:
    # corrected second-term denominator 6(n-1); the printed 2(n-1) variant
    # is kept separately for the audit
    return Fraction((d - 2) * n - d * d + 3 * d - 1, 2) + Fraction(
        d**3 - 6 * d * d + 8 * d, 6 * (n - 1)
    )


def _bestmeet_dbroom_oe_printed(n: int, d: int) -> Fraction:
    return Fraction((d - 2) * n - d * d + 3 * d - 1, 2) + Fraction(
        d**3 - 6 * d * d + 8 * d, 2 * (n - 1)
    )


def _bestmeet_dbroom_eo(n: int, d: int) -> Fraction:
    return Fraction((d - 2) * n - d * d + 3 * d, 2) + Fraction(
        d**3 - 6 * d * d + 8 * d, 6 * (n - 1)
    )


def _bestmeet_dbroom_ee(n: int, d: int) -> Fraction:
    return Fraction((d - 2) * n - d * d + 3 * d - 1, 2) + Fraction(
        d**3 - 6 * d * d + 11 * d - 6, 6 * (n - 1)
    )


def _jmin_dnd_max(n: int) -> Fraction:
    """Printed maximum of the balanced double brooms' minimum joining time
    over all diameters (the odd n >= 9 branch is contested; audited)."""
    if n % 2 == 0:
        return Fraction(n**3 - 3 * n * n + 5 * n - 3, 3)
    if n <= 7:
        return Fraction(n**3 - 3 * n * n + 2 * n, 3)
    return Fraction(n**3 - 3 * n * n + 5 * n - 24, 3)


def _bestmeet_pn(n: int) -> Fraction:
    if n % 2 == 0:
        return Fraction(n * n - 2 * n + 3, 6)
    return Fraction(n * n - 2 * n, 6)


def _bestmeet_bn_printed(n: int) -> Fraction:
    return Fraction(n * n - 2 * n + 3, 6) - Fraction(4, n - 1)


def _bestmeet_bn_corrected(n: int) -> Fraction:
    return Fraction(n * n - 2 * n, 6) - Fraction(4, n - 1)


def _big_delta_plus(n: int, d: int) -> Fraction:
    return Fraction(4 * n * n - 4 * n + 1)


def _delta_plus(n: int, d: int) -> Fraction:
    return Fraction(4 * (d - 1) * (2 * n - d) + 1)


def _delta_minus_broom(n: int, d: int) -> Fraction:
    return Fraction(-4 * (d - 1) * (2 * (n - 1) - d) - 1)


def _delta_minus_path(n: int) -> Fraction:
    return Fraction(-((2 * n - 3) ** 2))


# Ground truths are statistics of generated trees, never of the forms above.


def _broom_j(n: int, d: int, known: dict) -> Fraction:
    """Joining time at the handle end of the broom, its maximum, read off
    the broom's rerooting pass (`Tree.joining`), which reads the rooted
    pass the broom is built with; the single-target `joining_time` stays
    its reference in the tests.

    known is one formula audit's memo, keyed by (n, d). The difference rows
    read each broom twice (row n's (n+1, .) term is row n+1's (n, .) term),
    so the memo builds each broom once per audit.
    """
    if (n, d) not in known:
        known[n, d] = Fraction(broom_tree(n, d).joining[d])
    return known[n, d]


def _path_jmax(n: int, known: dict) -> Fraction:
    """J_max of the path on n vertices, memoized as _broom_j is but under
    ("path", n), which no broom key (n, d) equals."""
    if ("path", n) not in known:
        known["path", n] = QUANTITIES["j_max"](path_tree(n))
    return known["path", n]


def _broom_step(dn: int, dd: int) -> Callable[[int, Optional[int], dict], Fraction]:
    """Truth of a broom difference row: J(broom(n+dn, d+dd)) - J(broom(n, d))."""
    return lambda n, d, known: _broom_j(n + dn, d + dd, known) - _broom_j(n, d, known)


# Witnesses and the memoized truths look their generator up at call time, so
# a rebound generator (a tracer, a test) is seen by every row. No memo
# outlives the audit that made it, so a generator rebound between audits is
# seen too.


def _path(n: int, d: Optional[int]) -> Tree:
    return path_tree(n)


def _star(n: int, d: Optional[int]) -> Tree:
    return path_tree(2) if n == 2 else star_tree(n)


def _lever(n: int, d: Optional[int]) -> Tree:
    return balanced_lever(n, d)  # type: ignore[arg-type]


def _dbroom(n: int, d: Optional[int]) -> Tree:
    return balanced_double_broom(n, d)  # type: ignore[arg-type]


def _broom(n: int, d: Optional[int]) -> Tree:
    return broom_tree(n, d)  # type: ignore[arg-type]


def _short_broom(n: int, d: Optional[int]) -> Tree:
    return broom_tree(n, n - 2)


@dataclass(frozen=True)
class Domain:
    """The (n, d) a closed form is stated for: n >= n_min; lo <= d <= n - gap
    for span (lo, gap), None for an n-only form; n_odd, d_odd None: any parity."""

    n_min: int = 2
    span: Optional[tuple[int, int]] = None
    n_odd: Optional[bool] = None
    d_odd: Optional[bool] = None

    def fault(self, n: int, d: Optional[int]) -> Optional[tuple[type[TreewalkError], str]]:
        """None when (n, d) lies in the domain, else the first failed check:
        the error class closed_form raises and its message as a template
        over fid, n, d and the domain, dom. An n-only form ignores d.

        The template is formatted only when raised, so a caller that just
        skips the cell, as audit_formula does, builds no message."""
        span = self.span
        if span is not None and d is None:
            return OutOfStatedRange, "formula {fid!r} needs a diameter argument"
        if n < self.n_min:
            return OutOfStatedRange, "formula {fid!r} needs n >= {dom.n_min}, got n={n}"
        if span is not None and not span[0] <= d <= n - span[1]:  # type: ignore[operator]
            return OutOfStatedRange, "formula {fid!r} needs {dom.span[0]} <= d <= n-{dom.span[1]}, got n={n}, d={d}"
        if self.n_odd is not None and n % 2 != self.n_odd:
            return ParityMismatch, "formula {fid!r} needs " + ("odd" if self.n_odd else "even") + " n, got n={n}"
        if self.d_odd is not None and d % 2 != self.d_odd:  # type: ignore[operator]
            return ParityMismatch, "formula {fid!r} needs " + ("odd" if self.d_odd else "even") + " d, got d={d}"
        return None


# the balanced double broom's four n/d parity cases, each for 2 <= d <= n-1
_OO, _OE, _EO, _EE = (Domain(span=(2, 1), n_odd=a, d_odd=b) for a in (True, False) for b in (True, False))


@dataclass(frozen=True)
class Formula:
    """One ledger entry.

    form: the printed closed form, called as form(n) or form(n, d).
    domain: the range and parity case it is stated for, checked by Domain.fault.
    witness(n, d): the tree the form describes, or None.
    truth(n, d, known): the exact value the form is audited against; known
    is the calling audit's memo, read by the broom and delta_minus_path rows.
    predicts: the FamilySpec family whose balanced `gen` instances report it.
    """

    form: Callable[..., Fraction]
    domain: Domain
    witness: Callable[[int, Optional[int]], Optional[Tree]]
    truth: Callable[[int, Optional[int], dict], Fraction]
    predicts: Optional[str] = None

    @property
    def needs_d(self) -> bool:
        return self.domain.span is not None


def _measured(
    form: Callable[..., Fraction],
    domain: Domain,
    witness: Callable[[int, Optional[int]], Tree],
    quantity: str,
    predicts: Optional[str] = None,
) -> Formula:
    """Row whose ground truth is QUANTITIES[quantity] of its witness tree."""
    return Formula(form, domain, witness, lambda n, d, known: QUANTITIES[quantity](witness(n, d)), predicts)


FORMULAS: dict[str, Formula] = {
    "jmax_path": _measured(_jmax_path, Domain(), _path, "j_max", "path"),
    "jmax_path_expanded_printed": _measured(_jmax_path_expanded_printed, Domain(), _path, "j_max"),
    "tmeet_path": _measured(_tmeet_path, Domain(), _path, "t_meet", "path"),
    "tmeet_star": _measured(_tmeet_star, Domain(), _star, "t_meet", "star"),
    "jmax_star_printed": _measured(_jmax_star_printed, Domain(), _star, "j_max", "star"),
    "jmax_star_corrected": _measured(_jmax_star_corrected, Domain(), _star, "j_max", "star"),
    "jmin_path_odd": _measured(_jmin_path_odd, Domain(n_odd=True), _path, "j_min", "path"),
    "jmin_path_even": _measured(_jmin_path_even, Domain(n_odd=False), _path, "j_min", "path"),
    "jmin_dnd_max": Formula(
        _jmin_dnd_max,
        Domain(n_min=3),
        lambda n, d: None,
        lambda n, d, known: max(QUANTITIES["j_min"](balanced_double_broom(n, dd)) for dd in range(2, n)),
    ),
    "bestmeet_pn": _measured(_bestmeet_pn, Domain(), _path, "t_bestmeet", "path"),
    "bestmeet_bn_printed": _measured(_bestmeet_bn_printed, Domain(n_min=5, n_odd=True), _short_broom, "t_bestmeet"),
    "bestmeet_bn_corrected": _measured(_bestmeet_bn_corrected, Domain(n_min=5, n_odd=True), _short_broom, "t_bestmeet"),
    "delta_minus_path": Formula(
        _delta_minus_path, Domain(), _path, lambda n, d, known: _path_jmax(n - 1, known) - _path_jmax(n, known)
    ),
    "jmin_lever_odd": _measured(_jmin_lever_odd, Domain(span=(2, 1), d_odd=True), _lever, "j_min", "lever"),
    "jmin_lever_even": _measured(_jmin_lever_even, Domain(span=(2, 1), d_odd=False), _lever, "j_min", "lever"),
    "bestmeet_lever": _measured(_bestmeet_lever, Domain(span=(2, 1)), _lever, "t_bestmeet", "lever"),
    "jmax_broom": Formula(_jmax_broom, Domain(span=(1, 1)), _broom, _broom_j, "broom"),  # type: ignore[arg-type]
    "jmin_dbroom_oo": _measured(_jmin_dbroom_oo, _OO, _dbroom, "j_min", "double_broom"),
    "jmin_dbroom_oe": _measured(_jmin_dbroom_oe, _OE, _dbroom, "j_min", "double_broom"),
    "jmin_dbroom_eo": _measured(_jmin_dbroom_eo, _EO, _dbroom, "j_min", "double_broom"),
    "jmin_dbroom_ee": _measured(_jmin_dbroom_ee, _EE, _dbroom, "j_min", "double_broom"),
    "bestmeet_dbroom_oo": _measured(_bestmeet_dbroom_oo, _OO, _dbroom, "t_bestmeet", "double_broom"),
    "bestmeet_dbroom_oe": _measured(_bestmeet_dbroom_oe, _OE, _dbroom, "t_bestmeet", "double_broom"),
    "bestmeet_dbroom_oe_printed": _measured(_bestmeet_dbroom_oe_printed, _OE, _dbroom, "t_bestmeet"),
    "bestmeet_dbroom_eo": _measured(_bestmeet_dbroom_eo, _EO, _dbroom, "t_bestmeet", "double_broom"),
    "bestmeet_dbroom_ee": _measured(_bestmeet_dbroom_ee, _EE, _dbroom, "t_bestmeet", "double_broom"),
    "big_delta_plus": Formula(_big_delta_plus, Domain(span=(1, 1)), _broom, _broom_step(1, 1)),
    "delta_plus": Formula(_delta_plus, Domain(span=(1, 1)), _broom, _broom_step(1, 0)),
    "delta_minus_broom": Formula(_delta_minus_broom, Domain(span=(2, 2)), _broom, _broom_step(-1, 0)),
}

# n-only forms first, each group sorted by id
FORMULA_IDS = tuple(sorted(FORMULAS, key=lambda fid: (FORMULAS[fid].needs_d, fid)))


def closed_form(fid: str, n: int, d: Optional[int] = None) -> Fraction:
    """Evaluate one ledger formula exactly at (n, d), raising what its row's
    `Domain.fault` names: OutOfStatedRange for an unknown id, a missing d or
    an (n, d) out of range, ParityMismatch for the other parity case; n-only
    forms ignore d."""
    row = FORMULAS.get(fid)
    if row is None:
        raise OutOfStatedRange(f"unknown formula id {fid!r}")
    dom = row.domain
    fault = dom.fault(n, d)
    if fault is not None:
        error, message = fault
        raise error(message.format(fid=fid, n=n, d=d, dom=dom))
    return row.form(n, d) if row.needs_d else row.form(n)


def jmin_dbroom_case(n: int, d: int) -> str:
    return "jmin_dbroom_" + ("o" if n % 2 else "e") + ("o" if d % 2 else "e")


def bestmeet_dbroom_case(n: int, d: int) -> str:
    return "bestmeet_dbroom_" + ("o" if n % 2 else "e") + ("o" if d % 2 else "e")


def jmin_lever_case(d: int) -> str:
    return "jmin_lever_odd" if d % 2 else "jmin_lever_even"


def delta_inequalities_hold(n: int, d: int) -> bool:
    """Check the three bristle/handle difference inequalities at (n, d):
    adding a bristle helps more on bigger brooms, shrinking the handle of a
    path costs less than extending it pays, and handle extension dominates
    bristle addition dominates leaf removal."""
    if not (3 <= d <= n - 1 and n >= 4):
        raise OutOfStatedRange(f"broom range needed, got n={n}, d={d}")
    dp = _delta_plus
    ineq1 = dp(n + 1, d) > dp(n, d)
    ineq2 = dp(n, n - 1) > dp(n - 1, n - 2)
    if d <= n - 2:
        minus = _delta_minus_broom(n, d)
    else:
        minus = _delta_minus_path(n)
    ineq3 = _big_delta_plus(n, d) > dp(n, d) > -minus
    return bool(ineq1 and ineq2 and ineq3)
