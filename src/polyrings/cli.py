"""Command line front end.

Exit codes: 0 success, 1 input or validation problems, 2 internal
invariant violations (purity, bijection, cross-method disagreement).
Under --json an error is one JSON object on stdout, {"error": {"class",
"message", "exit_code"}}; otherwise it is one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConsistencyError,
    DecompositionFailed,
    NotAFacet,
    NotPure,
    PolyominoError,
    TooLarge,
)
from .gorenstein import (
    is_gorenstein_convex,
    is_gorenstein_stack_corners,
    is_gorenstein_stack_subsets,
)
from .invariants import decompose, full_report, multiplicity_recursive, rook_number
from .polyomino import (
    Polyomino,
    corners,
    has_monotone_paths,
    heights,
    is_column_convex,
    is_convex,
    is_row_convex,
    is_stack,
    mirror,
    parse,
    serialize,
    transpose,
)
from .srcomplex import build_complex, facets, hilbert_numerator
from .toric import inner_minors, leading_term, mono_str, var_str, variable_order, verify_groebner


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load(args) -> Polyomino:
    if (args.path is None) == (args.grid is None):
        raise PolyominoError("give exactly one input: a grid file path or --grid TEXT")
    if args.grid is not None:
        return parse(args.grid.replace("\\n", "\n"))
    if args.path == "-":
        return parse(sys.stdin.read())
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PolyominoError(f"cannot read {args.path}: {exc}") from exc
    return parse(text)


def _budgeted(fn, *args):
    """fn(*args), or None when a work budget stops it; an --oracle
    cross-check that needs the value is then skipped."""
    try:
        return fn(*args)
    except TooLarge:
        return None


def cmd_check(p: Polyomino, args) -> int:
    """Print convexity, stack shape, heights and corners."""
    convex = is_convex(p)
    stack = is_stack(p)
    if args.oracle and convex != has_monotone_paths(p):
        raise ConsistencyError("convexity and monotone-path test disagree")
    cs = corners(p)
    info = {
        "cells": len(p),
        "m": p.m,
        "n": p.n,
        "row_convex": is_row_convex(p),
        "column_convex": is_column_convex(p),
        "convex": convex,
        "stack": stack,
        "heights": list(heights(p)) if convex else None,
        "inside_corners": sorted(cs["inside"]),
        "outside_corners": sorted(cs["outside"]),
        "interior_corners": sorted(cs["interior"]),
    }
    if args.json:
        _emit_json(info)
        return 0
    for key in ("cells", "m", "n", "row_convex", "column_convex", "convex", "stack"):
        print(f"{key}: {info[key]}")
    if info["heights"] is not None:
        print("heights:", " ".join(str(h) for h in info["heights"]))
    for key in ("inside_corners", "outside_corners", "interior_corners"):
        pts = " ".join(f"({i},{j})" for i, j in info[key])
        print(f"{key.replace('_', ' ')}: {pts}" if pts else f"{key.replace('_', ' ')}: none")
    return 0


def cmd_gorenstein(p: Polyomino, args) -> int:
    """Decide Gorenstein, with certificates or a violation."""
    verdict = is_gorenstein_convex(p)
    if args.oracle and is_stack(p):
        sub = is_gorenstein_stack_subsets(p)
        cor = is_gorenstein_stack_corners(p)
        if not verdict.gorenstein == sub.gorenstein == cor:
            raise ConsistencyError(
                f"checker disagreement: convex={verdict.gorenstein} "
                f"level-sets={sub.gorenstein} corners={cor}"
            )
        h = _budgeted(hilbert_numerator, build_complex(p))
        if h is not None and (h == h[::-1]) != verdict.gorenstein:
            raise ConsistencyError(
                f"h-vector {h} palindromicity contradicts verdict {verdict.gorenstein}"
            )
    if args.json:
        payload = {
            "gorenstein": verdict.gorenstein,
            "method": verdict.method,
            "violation": None
            if verdict.violation is None
            else {
                "kind": verdict.violation.kind,
                "side": verdict.violation.subset.side,
                "subset": list(verdict.violation.subset.indices()),
                "observed": verdict.violation.observed,
                "required": verdict.violation.required,
            },
            "certificates": [
                {
                    "subset": list(c.subset.indices()),
                    "neighbors": list(c.neighbors.indices()),
                }
                for c in verdict.certificates
            ],
        }
        _emit_json(payload)
        return 0
    if verdict.gorenstein:
        print("Gorenstein")
        for c in verdict.certificates:
            print(f"certificate T={c.subset}, N_Y(T)={c.neighbors}")
    else:
        print(f"NOT Gorenstein; {verdict.violation}")
    return 0


def cmd_invariants(p: Polyomino, args) -> int:
    """Print a-invariant, regularity, multiplicity, h-vector."""
    rep = full_report(p)
    if args.oracle and is_stack(p):
        # the recursion's h against the complex, which full_report does
        # not build for a stack
        h = _budgeted(hilbert_numerator, build_complex(p))
        if h is not None and h != rep.h_vector:
            raise ConsistencyError(f"recursion h-vector {rep.h_vector} vs complex {h}")
        # a transpose that is not a stack gets its multiplicity from the
        # complex, or none when the order or a budget fails
        q = transpose(p)
        flipped = full_report(q, None if is_stack(q) else variable_order(q)).multiplicity
        if flipped is not None and flipped != rep.multiplicity:
            raise ConsistencyError(
                f"multiplicity changes under transpose: {rep.multiplicity} vs {flipped}"
            )
        # -a = d - r(P), the paper's directed-cut packing number, by a
        # greedy matching sweep
        rooks = rook_number(p)
        if rooks != rep.regularity:
            raise ConsistencyError(
                f"d - r(P) = {rep.d - rooks} from the rook number {rooks} "
                f"vs -a = {-rep.a_invariant}"
            )
    if args.json:
        _emit_json(rep.to_dict())
        return 0
    print(f"box: [{rep.m}] x [{rep.n}]   d: {rep.d}")
    for name, value in (
        ("a-invariant", rep.a_invariant),
        ("regularity", rep.regularity),
        ("multiplicity", rep.multiplicity),
    ):
        tag = rep.methods[name.replace("-", "_")]
        print(f"{name}: {value if value is not None else 'unavailable'} [{tag}]")
    if rep.h_vector is not None:
        print("h-vector:", " ".join(str(x) for x in rep.h_vector))
    else:
        print("h-vector: unavailable")
    print(f"gorenstein: {'yes' if rep.gorenstein else 'no'}")
    for note in rep.notes:
        print(f"note: {note}")
    return 0


def cmd_facets(p: Polyomino, args) -> int:
    """List the facets of the initial complex."""
    c = build_complex(p)
    fs = facets(c)
    if args.oracle:
        # the forbidden pairs as read off the initial ideal, not the
        # complex's own bit masks
        forbidden_with = {v: set() for v in c.vertices}
        for a, b in c.forbidden:
            forbidden_with[a].add(b)
            forbidden_with[b].add(a)
        for f in fs:
            if not all(forbidden_with[v].isdisjoint(f) for v in f):
                raise ConsistencyError(f"facet contains a forbidden pair: {sorted(f)}")
            if any(forbidden_with[v].isdisjoint(f) for v in c.vertices if v not in f):
                raise ConsistencyError(f"facet is not maximal: {sorted(f)}")
        if is_stack(p) and multiplicity_recursive(p) != len(fs):
            raise ConsistencyError(
                f"facet count {len(fs)} vs recursion {multiplicity_recursive(p)}"
            )
    if args.json:
        _emit_json(
            {
                "d": c.d,
                "count": len(fs),
                "facets": [sorted(f) for f in fs],
            }
        )
        return 0
    print(f"d: {c.d}   facets: {len(fs)}")
    for f in fs:
        print(" ".join(var_str(v) for v in sorted(f)))
    return 0


def cmd_decompose(p: Polyomino, args) -> int:
    """Split a stack at its distinguished vertex."""
    dec = decompose(p)
    if args.oracle:
        whole = multiplicity_recursive(p)
        parts = multiplicity_recursive(dec.p1) + multiplicity_recursive(dec.p2)
        if whole != parts:
            raise ConsistencyError(f"e(P) = {whole} but e(P1) + e(P2) = {parts}")
        # the memo stores e(P1) + e(P2) as e(P); the mirror image takes
        # another path through the recursion
        flipped = multiplicity_recursive(mirror(p))
        if flipped != whole:
            raise ConsistencyError(f"e(P) = {whole} but e of its mirror image = {flipped}")
        fs = _budgeted(facets, build_complex(p))
        if fs is not None and len(fs) != whole:
            raise ConsistencyError("facet count disagrees with the recursion")
    if args.json:
        _emit_json(
            {
                "v": list(dec.v),
                "p1": {"cells": sorted(dec.p1.cells), "grid": serialize(dec.p1)},
                "p2": {"cells": sorted(dec.p2.cells), "grid": serialize(dec.p2)},
            }
        )
        return 0
    print(f"v: ({dec.v[0]},{dec.v[1]})")
    print("P1:")
    print(serialize(dec.p1))
    print("P2:")
    print(serialize(dec.p2))
    return 0


def cmd_groebner(p: Polyomino, args) -> int:
    """Print the variable order and each minor's lead term."""
    order = variable_order(p)
    minors = inner_minors(p)
    verified = verify_groebner(p, order)
    if args.oracle and is_stack(p) and not verified:
        raise ConsistencyError("height order on a stack failed the Groebner check")
    if args.json:
        _emit_json(
            {
                "order": [list(v) for v in order.ranked],
                "advisory": order.advisory,
                "verified": verified,
                "minors": [
                    {
                        "corners": [list(mn.corners[0]), list(mn.corners[1])],
                        "leading": sorted(leading_term(mn, order)),
                    }
                    for mn in minors
                ],
            }
        )
        return 0
    print("order:", " > ".join(var_str(v) for v in order.ranked))
    print(f"minors: {len(minors)}")
    for mn in minors:
        print(f"{mn}   lead {mono_str(leading_term(mn, order))}")
    print(f"groebner: {'verified' if verified else 'NOT a basis for this order'}")
    return 0


_COMMANDS = {
    "check": cmd_check,
    "gorenstein": cmd_gorenstein,
    "invariants": cmd_invariants,
    "facets": cmd_facets,
    "decompose": cmd_decompose,
    "groebner": cmd_groebner,
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="polyrings",
        description="Algebraic invariants of convex and stack polyominoes.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("path", nargs="?", help="grid or JSON cell file, '-' for stdin")
        sp.add_argument("--grid", help="inline grid text ('\\n' separates rows)")
        sp.add_argument("--json", action="store_true", help="machine readable output")
        sp.add_argument(
            "--oracle",
            action="store_true",
            help="run independent cross-checks, exit 2 on disagreement",
        )
        sp.set_defaults(func=fn)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        p = _load(args)
        return args.func(p, args)
    except (ConsistencyError, NotPure, DecompositionFailed, NotAFacet) as exc:
        return _fail(args, exc, 2, "internal invariant violation")
    except PolyominoError as exc:
        return _fail(args, exc, 1, "error")


def _fail(args, exc: PolyominoError, code: int, label: str) -> int:
    """Report exc and return its exit code: one JSON object on stdout
    under --json, else one labelled line on stderr."""
    if args.json:
        _emit_json({"error": {"class": type(exc).__name__, "message": str(exc), "exit_code": code}})
    else:
        print(f"{label}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
