"""Command-line front end.

Subcommands: analyze | gen | audit | sweep | simulate. All flags are
long-form. Exact values cross the process boundary as integer pairs with
an advisory 12-significant-digit decimal rendering; identical inputs and
seeds produce byte-identical output once --no-timing is passed.

Exit codes: 0 success/verified, 1 usage or input error, 2 audit
discrepancy or refutation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from decimal import Context
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional, Sequence

from . import audit as audit_mod
from .enumeration import DEFAULT_CAP, tree_classes
from .errors import TreewalkError
from .families import (
    FORMULAS,
    FamilySpec,
    balanced_clusters,
    balanced_double_broom,
    balanced_fulcrum,
    balanced_lever,
    broom_tree,
    closed_form,
    generate,
)
from .simulate import simulate_hitting
from .trees import Tree, canonical_form, diameter_and_geodesic, format_edge_list, parse_edge_list
from .walkstats import (
    barycenter,
    joining_all,
    kemeny,
    t_bestmeet,
    t_meet,
)


# Rendering divides in this private context, never in the thread's decimal
# context; the flags it accumulates are never read. Cheaper per call than
# localcontext(), which matters at one call per vertex in analyze.
_DECIMAL12 = Context(prec=12)


def _decimal_str(fr: Fraction) -> str:
    return str(_DECIMAL12.divide(fr.numerator, fr.denominator))


def _exact(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator, "decimal": _decimal_str(fr)}


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _envelope(args: argparse.Namespace, payload: dict, digest: str, started: float) -> dict:
    env = {
        "command": args.command_echo,
        "input_digest": digest,
        "results": payload,
    }
    if not args.no_timing:
        env["timing_ms"] = round(1000 * (time.time() - started), 3)
    return env


def _emit(env: dict) -> None:
    print(json.dumps(env, sort_keys=True, indent=2))


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TreewalkError(f"{flag} expects an integer, got {text!r}") from None


def _parse_range(spec: str, flag: str) -> tuple[int, int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo_v, hi_v = _int(lo, flag), _int(hi, flag)
        if lo_v > hi_v:
            raise TreewalkError(f"{flag} range {spec} is empty: {lo_v} > {hi_v}")
        return lo_v, hi_v
    v = _int(spec, flag)
    return v, v


def _load_tree(path: str) -> tuple[str, Tree]:
    """The text of an edge-list file and the tree it describes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise TreewalkError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return text, parse_edge_list(text)


def _dot(t: Tree) -> str:
    lines = ["graph tree {"]
    lines += [f"  {u} -- {v};" for u, v in t.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


# In the indent=2 rendering of an analyze envelope, the per_vertex key and a
# null placeholder value; the block is spliced in there. It begins with a raw
# newline, which the encoder writes only between tokens and escapes inside
# every string, so no user text (the command echo, the --dot path) holds it.
_PER_VERTEX_KEY = '\n    "per_vertex": '
_PER_VERTEX_SLOT = _PER_VERTEX_KEY + "null"


def _per_vertex_json(js: Sequence[int], targets: list[int], two_edges: int) -> str:
    """The per_vertex value exactly as json.dumps(sort_keys=True, indent=2)
    renders {str(v): {"joining_time": J(v), "meeting_time": _exact(J(v)/2|E|)}}
    at its depth in the envelope, filled from one fixed template per vertex."""
    entries = []
    for v in sorted(targets, key=str):  # sort_keys order: "10" < "9"
        j = js[v]
        g = gcd(j, two_edges)
        num, den = j // g, two_edges // g
        entries.append(
            f'      "{v}": {{\n'
            f'        "joining_time": {j},\n'
            f'        "meeting_time": {{\n'
            f'          "decimal": "{_DECIMAL12.divide(num, den)}",\n'
            f'          "den": {den},\n'
            f'          "num": {num}\n'
            f"        }}\n"
            f"      }}"
        )
    return "{\n" + ",\n".join(entries) + "\n    }"


def _cmd_analyze(args: argparse.Namespace) -> int:
    started = time.time()
    text, t = _load_tree(args.input)
    if args.targets == "all":
        targets = list(range(t.n))
    else:
        targets = sorted({_int(x, "--targets") for x in args.targets.split(",")})
        for v in targets:
            if not 0 <= v < t.n:
                raise TreewalkError(f"target vertex {v} outside 0..{t.n - 1}")
    js = joining_all(t)
    d, geo = diameter_and_geodesic(t)
    bc = barycenter(t)
    tm, tm_at = t_meet(t)
    tb, tb_at = t_bestmeet(t)
    payload = {
        "n": t.n,
        "diameter": d,
        "geodesic": geo,
        "barycenter": list(bc.centers),
        "per_vertex": None,  # spliced in at _PER_VERTEX_SLOT
        "t_meet": _exact(tm) | {"argmax": tm_at},
        "t_bestmeet": _exact(tb) | {"argmin": tb_at},
        "kemeny": _exact(kemeny(t)),
    }
    if args.dot:
        Path(args.dot).write_text(_dot(t), encoding="utf-8")
        payload["dot_file"] = args.dot
    env = _envelope(args, payload, _digest(text), started)
    head, _, tail = json.dumps(env, sort_keys=True, indent=2).partition(_PER_VERTEX_SLOT)
    print(head + _PER_VERTEX_KEY + _per_vertex_json(js, targets, 2 * (t.n - 1)) + tail)
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

_FAMILY_FLAG = {
    "path": "path",
    "star": "star",
    "lever": "lever",
    "balanced-lever": "lever",
    "broom": "broom",
    "double-broom": "double_broom",
    "balanced-double-broom": "double_broom",
}


def _gen_tree(args: argparse.Namespace) -> tuple[Tree, FamilySpec]:
    family = _FAMILY_FLAG[args.family]
    n = args.n
    if family not in ("path", "star") and args.d is None:
        raise TreewalkError(f"family {args.family!r} needs --d")
    if args.family == "balanced-lever":
        return balanced_lever(n, args.d), FamilySpec("lever", n, args.d, k=balanced_fulcrum(args.d))
    d = {"path": n - 1, "star": 2}.get(family, args.d)
    if args.family == "balanced-double-broom":
        left, right = balanced_clusters(n, d)
    else:
        left, right = args.left, args.right
    spec = FamilySpec(family, n, d, k=args.k, left_leaves=left, right_leaves=right)
    return generate(spec), spec


def _predictions(spec: FamilySpec) -> dict:
    """Ledger values applicable to this instance, evaluated exactly: the
    forms its family predicts, when the instance is the balanced one, that
    hold at this (n, d) and parity."""
    n, d = spec.n, spec.d
    if spec.family == "lever":
        balanced = spec.k == balanced_fulcrum(d)
    elif spec.family == "double_broom":
        balanced = (spec.left_leaves, spec.right_leaves) == balanced_clusters(n, d)
    else:
        balanced = True  # path, star and broom have no free parameter
    if not balanced:
        return {}
    out: dict[str, dict] = {}
    for fid, row in FORMULAS.items():
        if row.predicts == spec.family:
            try:
                out[fid] = _exact(closed_form(fid, n, d))
            except TreewalkError:
                pass
    return out


def _cmd_gen(args: argparse.Namespace) -> int:
    started = time.time()
    t, spec = _gen_tree(args)
    text = format_edge_list(t)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    payload = {
        "family": spec.family,
        "n": spec.n,
        "d": spec.d,
        "canonical": canonical_form(t).decode("ascii"),
        "predicted": _predictions(spec),
    }
    if args.output:
        payload["output"] = args.output
    if args.dot:
        Path(args.dot).write_text(_dot(t), encoding="utf-8")
        payload["dot_file"] = args.dot
    _emit(_envelope(args, payload, _digest(text), started))
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _cmd_audit(args: argparse.Namespace) -> int:
    """Each claim reads its own flags, then runs; the audit functions are
    looked up on the module at call time, so a rebound one is seen."""
    started = time.time()
    claim = args.claim
    if claim in ("thm-min", "thm-max"):
        if args.n is None or args.d is None:
            raise TreewalkError(f"{claim} needs --n and --d")
        n, d = _int(args.n, "--n"), _int(args.d, "--d")
        run = audit_mod.audit_theorem_min if claim == "thm-min" else audit_mod.audit_theorem_max
        report = run(n, d, cap=args.cap)
    elif claim in ("thm-global", "prop-barycenter"):
        if args.n is None:
            raise TreewalkError(f"{claim} needs --n")
        n = _int(args.n, "--n")
        if claim == "thm-global":
            report = audit_mod.audit_theorem_global(n, cap=args.cap)
        else:
            report = audit_mod.audit_proposition_barycenter(n, cap=args.cap)
    else:
        if args.formula_id is None or args.n is None:
            raise TreewalkError("formula audits need a formula id and --n range")
        n_lo, n_hi = _parse_range(args.n, "--n")
        d_lo, d_hi = _parse_range(args.d, "--d") if args.d else (None, None)
        report = audit_mod.audit_formula(args.formula_id, n_lo, n_hi, d_lo, d_hi)
    digest = _digest(json.dumps(report.params, sort_keys=True))
    _emit(_envelope(args, report.as_dict(), digest, started))
    return 0 if report.status == audit_mod.VERIFIED else 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_FAMILIES = {
    "balanced-lever": balanced_lever,
    "balanced-double-broom": balanced_double_broom,
    "broom": broom_tree,
}


def _sweep_quantity(t: Tree, quantity: str) -> Fraction:
    if quantity == "t_bestmeet":
        return t_bestmeet(t)[0]
    if quantity == "t_meet":
        return t_meet(t)[0]
    if quantity == "kemeny":
        return kemeny(t)
    js = joining_all(t)
    if quantity == "j_min":
        return Fraction(min(js))
    if quantity == "j_max":
        return Fraction(max(js))
    raise TreewalkError(f"unknown quantity {quantity!r}")


def _sweep_diameters(args: argparse.Namespace, d_min: int, trees: str) -> range:
    """The diameters --d selects among d_min..n-1, the ones `trees` of order
    n can have; all of them without --d."""
    n = args.n
    d_lo, d_hi = _parse_range(args.d, "--d") if args.d else (d_min, n - 1)
    dees = range(max(d_lo, d_min), min(d_hi, n - 1) + 1)
    if not dees:
        raise TreewalkError(
            f"--d {args.d} selects no diameter of {trees} at order {n} ({d_min}..{n - 1})"
        )
    return dees


def _cmd_sweep(args: argparse.Namespace) -> int:
    started = time.time()
    rows: list[tuple[int, int, str, int, int]] = []
    if args.enumerated:
        n = args.n
        classes = tree_classes(n)
        dees = _sweep_diameters(args, min(2, n - 1), "enumerated trees")
        for t in classes:
            d, _ = diameter_and_geodesic(t)
            if d in dees:
                q = _sweep_quantity(t, args.quantity)
                rows.append((n, d, canonical_form(t).decode("ascii"), q.numerator, q.denominator))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
    else:
        if args.family not in _SWEEP_FAMILIES:
            raise TreewalkError(
                f"sweep family must be one of {sorted(_SWEEP_FAMILIES)}, got {args.family!r}"
            )
        build = _SWEEP_FAMILIES[args.family]
        n = args.n
        d_min = 3 if args.family == "broom" else 2
        if n <= d_min:
            raise TreewalkError(
                f"sweep family {args.family!r} has no instance of order {n}; it needs n >= {d_min + 1}"
            )
        for d in _sweep_diameters(args, d_min, f"family {args.family!r}"):
            t = build(n, d)
            q = _sweep_quantity(t, args.quantity)
            rows.append((n, d, args.family, q.numerator, q.denominator))
    header = "n,d,family,quantity_num,quantity_den"
    lines = [header] + [f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]}" for r in rows]
    csv_text = "\n".join(lines) + "\n"
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        payload = {
            "quantity": args.quantity,
            "rows": [
                {"n": r[0], "d": r[1], "family": r[2], "num": r[3], "den": r[4]}
                for r in rows
            ],
        }
        _emit(_envelope(args, payload, _digest(csv_text), started))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    started = time.time()
    text, t = _load_tree(args.input)
    sample = simulate_hitting(t, args.u, args.w, args.walks, args.seed)
    payload = sample.as_dict()
    payload["u"] = args.u
    payload["w"] = args.w
    _emit(_envelope(args, payload, _digest(text), started))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treewalk",
        description="Exact random-walk statistics, extremal families and audits on trees",
    )
    p.add_argument("--no-timing", action="store_true", help="omit the timing field for byte-identical output")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="walk statistics for an edge-list file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--targets", default="all", help="'all' or comma-separated vertex ids")
    pa.add_argument("--dot", default=None, help="also write a DOT rendering here")
    pa.set_defaults(func=_cmd_analyze)

    pg = sub.add_parser("gen", help="generate a named family instance")
    pg.add_argument("--family", required=True, choices=sorted(_FAMILY_FLAG))
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--d", type=int, default=None)
    pg.add_argument("--k", type=int, default=None, help="lever fulcrum index")
    pg.add_argument("--left", type=int, default=None, help="double-broom left cluster size")
    pg.add_argument("--right", type=int, default=None, help="double-broom right cluster size")
    pg.add_argument("--output", default=None, help="edge-list destination (stdout when omitted)")
    pg.add_argument("--dot", default=None)
    pg.set_defaults(func=_cmd_gen)

    pd = sub.add_parser("audit", help="run one adjudication")
    pd.add_argument("claim", choices=["thm-min", "thm-max", "thm-global", "prop-barycenter", "formula"])
    pd.add_argument("formula_id", nargs="?", default=None)
    pd.add_argument("--n", default=None, help="integer or lo..hi range for formula audits")
    pd.add_argument("--d", default=None)
    pd.add_argument("--cap", type=int, default=DEFAULT_CAP)
    pd.set_defaults(func=_cmd_audit)

    ps = sub.add_parser("sweep", help="tabulate a quantity over families or enumerated classes")
    ps.add_argument("--family", default=None)
    ps.add_argument("--enumerated", action="store_true")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--d", default=None, help="diameter or lo..hi range")
    ps.add_argument(
        "--quantity",
        default="t_bestmeet",
        choices=["t_bestmeet", "t_meet", "kemeny", "j_min", "j_max"],
    )
    ps.add_argument("--format", default="csv", choices=["csv", "json"])
    ps.set_defaults(func=_cmd_sweep)

    pm = sub.add_parser("simulate", help="seeded Monte Carlo hitting-time estimate")
    pm.add_argument("--input", required=True)
    pm.add_argument("--u", type=int, required=True)
    pm.add_argument("--w", type=int, required=True)
    pm.add_argument("--walks", type=int, required=True)
    pm.add_argument("--seed", type=int, required=True)
    pm.set_defaults(func=_cmd_simulate)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    args.command_echo = ["treewalk"] + argv
    try:
        return args.func(args)
    except (TreewalkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
