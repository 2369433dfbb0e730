"""Command-line front end.

Subcommands: analyze | gen | audit | sweep | simulate. All flags are
long-form. Exact values cross the process boundary as integer pairs with
an advisory 12-significant-digit decimal rendering; identical inputs and
seeds produce byte-identical output once --no-timing is passed. A flag
that the chosen claim, family or mode does not read is a usage error.

Exit codes: 0 success/verified, 1 usage or input error, 2 every audit
status but verified (refuted, discrepancy-in-paper, out-of-range).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import floordiv
from pathlib import Path
from typing import Optional, Sequence, TextIO

from . import audit as audit_mod
from .enumeration import DEFAULT_CAP, tree_classes
from .errors import TreewalkError
from .families import (
    FORMULAS,
    FamilySpec,
    _broom,
    _dbroom,
    _lever,
    balanced_lever,
    balanced_spec,
    closed_form,
    generate,
    refuse_past_budget,
)
from .simulate import simulate_hitting
from .trees import Tree, canonical_form, diameter_and_geodesic, format_edge_list, parse_edge_list
from .walkstats import (
    QUANTITIES,
    barycenter,
    joining_all,
    kemeny,
    t_bestmeet,
    t_meet,
)


# Decimals are divided and rendered in this private context, never in the
# thread's decimal context, whose precision, rounding or exponent case
# (capitals) a caller may have changed; the flags it accumulates are never
# read. Cheaper per call than localcontext(), which matters at one call per
# vertex in analyze.
_DECIMAL12 = Context(prec=12, rounding=ROUND_HALF_EVEN, capitals=1)


def _decimal_str(fr: Fraction) -> str:
    return _DECIMAL12.to_sci_string(_DECIMAL12.divide(fr.numerator, fr.denominator))


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


def _reject_unread(what: str, args: argparse.Namespace, *names: str) -> None:
    """A given flag that `what` does not read is a usage error, never a
    silent no-op; names are argparse dests, each None when not given."""
    given = [name for name in names if getattr(args, name) is not None]
    if given:
        flags = ", ".join("a formula id" if name == "formula_id" else f"--{name}" for name in given)
        raise TreewalkError(f"{what} does not read {flags}")


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


# Entries rendered per write: the block is never held whole, only one chunk
# of it, so analyze's peak memory does not grow with the block.
_CHUNK = 4096


def _write_per_vertex(out: TextIO, js: Sequence[int], targets: list[int], two_edges: int) -> None:
    """Write the per_vertex value to `out` exactly as json.dumps(sort_keys=True,
    indent=2) renders {str(v): {"joining_time": J(v), "meeting_time":
    _exact(J(v)/2|E|)}} at its depth in the envelope, filled from one fixed
    template per vertex and written _CHUNK entries at a time. Every J is
    congruent mod 4(n-1) (`Tree.joining`), so one gcd reduces every
    fraction, and the template holds the one denominator's line. Each
    chunk's numerators and decimals are computed by C-level maps."""
    order = sorted(targets, key=str)  # sort_keys order: "10" < "9"
    g = gcd(js[0], two_edges)
    den = two_edges // g
    den_line = f'",\n          "den": {den},\n          "num": '
    out.write("{\n")
    for start in range(0, len(order), _CHUNK):
        vs = order[start:start + _CHUNK]
        jv = list(map(js.__getitem__, vs))
        nums = list(map(floordiv, jv, repeat(g)))
        decs = map(_DECIMAL12.to_sci_string, map(_DECIMAL12.divide, nums, repeat(den)))
        entries = [
            f'      "{v}": {{\n'
            f'        "joining_time": {j},\n'
            f'        "meeting_time": {{\n'
            f'          "decimal": "{dec}{den_line}{num}\n'
            f"        }}\n"
            f"      }}"
            for v, j, dec, num in zip(vs, jv, decs, nums)
        ]
        if start:
            out.write(",\n")
        out.write(",\n".join(entries))
    out.write("\n    }")


def _analysis(args: argparse.Namespace) -> tuple[dict, str, list[int], list[int], int]:
    """The analyze payload (per_vertex left as a placeholder), the input
    digest, the sorted targets, J at every vertex and 2|E|. The tree and
    its text are dropped on return, before the per_vertex block is written,
    so analyze's peak does not hold them and the block's chunks at once."""
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
    return payload, _digest(text), targets, js, 2 * (t.n - 1)


def _cmd_analyze(args: argparse.Namespace) -> int:
    started = time.time()
    payload, digest, targets, js, two_edges = _analysis(args)
    env = _envelope(args, payload, digest, started)
    head, _, tail = json.dumps(env, sort_keys=True, indent=2).partition(_PER_VERTEX_SLOT)
    out = sys.stdout  # looked up now, so redirect_stdout captures the output
    out.write(head + _PER_VERTEX_KEY)
    _write_per_vertex(out, js, targets, two_edges)
    out.write(tail + "\n")
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# gen family -> (FamilySpec family, flags it needs); path and star default --d
_GEN_FAMILIES = {
    "path": ("path", ()),
    "star": ("star", ()),
    "lever": ("lever", ("d", "k")),
    "balanced-lever": ("lever", ("d",)),
    "broom": ("broom", ("d",)),
    "double-broom": ("double_broom", ("d", "left", "right")),
    "balanced-double-broom": ("double_broom", ("d",)),
}


def _gen_tree(args: argparse.Namespace) -> tuple[Tree, FamilySpec]:
    family, needs = _GEN_FAMILIES[args.family]
    unread = [name for name in ("k", "left", "right") if name not in needs]
    _reject_unread(f"gen --family {args.family}", args, *unread)
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise TreewalkError(f"family {args.family!r} needs {' and '.join(missing)}")
    n = args.n
    d = args.d if args.d is not None else {"path": n - 1, "star": 2}[family]
    if args.family.startswith("balanced-"):
        spec = balanced_spec(family, n, d)
    else:
        spec = FamilySpec(family, n, d, k=args.k, left_leaves=args.left, right_leaves=args.right)
    # balanced_lever gives the path at d = n-1 even where n <= 2 leaves no lever
    return (balanced_lever(n, d) if args.family == "balanced-lever" else generate(spec)), spec


def _predictions(spec: FamilySpec) -> dict:
    """Ledger values applicable to this instance, evaluated exactly: the
    forms its family predicts, when the instance is the balanced one, that
    hold at this (n, d) and parity."""
    if spec != balanced_spec(spec.family, spec.n, spec.d):
        return {}
    out: dict[str, dict] = {}
    for fid, row in FORMULAS.items():
        if row.predicts == spec.family:
            try:
                out[fid] = _exact(closed_form(fid, spec.n, spec.d))
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
    """Each claim parses its own flags and rejects the ones it does not
    read, then runs; the audit functions are looked up on the module at
    call time, so a rebound one is seen."""
    started = time.time()
    claim = args.claim
    cap = DEFAULT_CAP if args.cap is None else args.cap
    if claim in ("thm-min", "thm-max"):
        if args.n is None or args.d is None:
            raise TreewalkError(f"{claim} needs --n and --d")
        n, d = _int(args.n, "--n"), _int(args.d, "--d")
        _reject_unread(claim, args, "formula_id")
        run = audit_mod.audit_theorem_min if claim == "thm-min" else audit_mod.audit_theorem_max
        report = run(n, d, cap=cap)
    elif claim in ("thm-global", "prop-barycenter"):
        if args.n is None:
            raise TreewalkError(f"{claim} needs --n")
        n = _int(args.n, "--n")
        _reject_unread(claim, args, "formula_id", "d")
        if claim == "thm-global":
            report = audit_mod.audit_theorem_global(n, cap=cap)
        else:
            report = audit_mod.audit_proposition_barycenter(n, cap=cap)
    else:
        if args.formula_id is None or args.n is None:
            raise TreewalkError("formula audits need a formula id and --n range")
        n_lo, n_hi = _parse_range(args.n, "--n")
        d_lo, d_hi = _parse_range(args.d, "--d") if args.d is not None else (None, None)
        row = FORMULAS.get(args.formula_id)
        if row is not None:  # an unknown id is audit_formula's error
            unread = ("cap",) if row.needs_d else ("cap", "d")
            _reject_unread(f"formula {args.formula_id}", args, *unread)
        report = audit_mod.audit_formula(args.formula_id, n_lo, n_hi, d_lo, d_hi)
    digest = _digest(json.dumps(report.params, sort_keys=True))
    _emit(_envelope(args, report.as_dict(), digest, started))
    return 0 if report.status == audit_mod.VERIFIED else 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# sweep family -> the ledger's witness of it, which looks its generator up
# at call time, so a rebound one is seen
_SWEEP_FAMILIES = {
    "balanced-lever": _lever,
    "balanced-double-broom": _dbroom,
    "broom": _broom,
}


def _sweep_diameters(args: argparse.Namespace, d_min: int, trees: str) -> range:
    """The diameters --d selects among d_min..n-1, the ones `trees` of order
    n can have; all of them without --d."""
    n = args.n
    d_lo, d_hi = _parse_range(args.d, "--d") if args.d is not None else (d_min, n - 1)
    dees = range(max(d_lo, d_min), min(d_hi, n - 1) + 1)
    if not dees:
        raise TreewalkError(
            f"--d {args.d} selects no diameter of {trees} at order {n} ({d_min}..{n - 1})"
        )
    return dees


def _cmd_sweep(args: argparse.Namespace) -> int:
    started = time.time()
    rows: list[tuple[int, int, str, int, int]] = []
    # perfbench/selftest.py's exhaustive-audit fault rebinds cli.kemeny: read
    # kemeny through this name until it rebinds walkstats.kemeny (ROADMAP #5)
    quantity = kemeny if args.quantity == "kemeny" else QUANTITIES[args.quantity]
    if args.enumerated:
        _reject_unread("sweep --enumerated", args, "family")
        n = args.n
        classes = tree_classes(n)
        dees = _sweep_diameters(args, min(2, n - 1), "enumerated trees")
        for t in classes:
            d, _ = diameter_and_geodesic(t)
            if d in dees:
                q = quantity(t)
                rows.append((n, d, canonical_form(t).decode("ascii"), q.numerator, q.denominator))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
    else:
        if args.family is None:
            raise TreewalkError("sweep needs --family or --enumerated")
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
        dees = _sweep_diameters(args, d_min, f"family {args.family!r}")
        refuse_past_budget(n * len(dees), f"sweep --family {args.family} --n {n}")
        for d in dees:
            t = build(n, d)
            q = quantity(t)
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
    pg.add_argument("--family", required=True, choices=sorted(_GEN_FAMILIES))
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
    pd.add_argument("--cap", type=int, default=None)
    pd.set_defaults(func=_cmd_audit)

    ps = sub.add_parser("sweep", help="tabulate a quantity over families or enumerated classes")
    ps.add_argument("--family", default=None)
    ps.add_argument("--enumerated", action="store_true")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--d", default=None, help="diameter or lo..hi range")
    ps.add_argument("--quantity", default=next(iter(QUANTITIES)), choices=list(QUANTITIES))
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
