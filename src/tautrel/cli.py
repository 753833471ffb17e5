"""Batch command-line front end.

Subcommands: enumerate, find, check, reduce.  Exit codes are a stable
contract: 0 success, 1 check failure, 2 bad input, 3 missing
inductive data.  All numeric output is exact (reduced fractions).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graphs import validate
from .gwi import GwiParseError, format_graph, format_sum, read_file
from .relations import InductiveDataMissing, RelationRegistry
from .solver import (
    check_invariance,
    enumerate_classes,
    find_equations,
    operator_index_bound,
)
from .sums import FormalSum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_MISSING_DATA = 3


def _registry(args) -> RelationRegistry:
    # commands that reduce modulo relations need an existing root
    registry = RelationRegistry(args.registry or None)
    if registry.root and not registry.root.is_dir():
        raise ValueError("registry root %s does not exist" % registry.root)
    return registry


def _add_ambient(p):
    p.add_argument("-g", type=int, required=True, help="total genus")
    p.add_argument("-n", type=int, required=True, help="number of marked points")
    p.add_argument("-k", type=int, required=True, help="codimension")


def _lmax(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("%s is negative" % text)
    return int(text)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="taut",
        description="exact calculus of tautological classes via decorated graphs",
    )
    ap.add_argument("--registry", help="directory of known-relation gwi files")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list decorated classes of an ambient")
    _add_ambient(p)
    decorations = p.add_mutually_exclusive_group()
    decorations.add_argument("--boundary-only", action="store_true", help="strata only, no psi")
    decorations.add_argument("--kappa", action="store_true", help="include kappa decorations")
    p.add_argument("--symmetrize", action="store_true", help="one class per orbit")
    p.add_argument("--out", help="write listing to a file instead of stdout")

    p = sub.add_parser("find", help="derive equation candidates for an ambient")
    _add_ambient(p)
    p.add_argument("--lmax", type=_lmax, help="override the operator index bound")
    p.add_argument("--boundary-only", action="store_true")
    p.add_argument("--no-symmetrize", action="store_true", help="full unsymmetrized space")
    p.add_argument("--out", default=".", help="directory for candidate files")

    p = sub.add_parser("check", help="test a gwi file for operator invariance")
    p.add_argument("file")
    p.add_argument("--lmax", type=_lmax)

    p = sub.add_parser("reduce", help="normal form of a gwi file modulo relations")
    p.add_argument("file")
    return ap


def cmd_enumerate(args) -> int:
    decorations = "none" if args.boundary_only else ("psi_kappa" if args.kappa else "psi")
    points = set(range(1, args.n + 1)) if args.symmetrize else None
    classes = enumerate_classes(
        args.g, args.n, args.k, decorations=decorations, symmetrize_points=points
    )
    lines = [format_graph(c) for c in classes]
    lines.append("COUNT %d" % len(classes))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_find(args) -> int:
    report = find_equations(
        args.g,
        args.n,
        args.k,
        _registry(args),
        lmax=args.lmax,
        symmetrized=not args.no_symmetrize,
        decorations="none" if args.boundary_only else "psi",
    )
    for line in report.lines():
        print(line)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    n_new = 0
    for cand in report.candidates:
        if cand.trivial:
            continue
        n_new += 1
        path = outdir / (
            "candidate_g%dn%dk%d_%d.gwi" % (args.g, args.n, args.k, n_new)
        )
        path.write_text(format_sum(cand.formal_sum) + "\n")
        print("CANDIDATE %s" % path)
    print("NEW %d" % n_new)
    return EXIT_OK


def _load_sum(path: str):
    # the lines of the file are the terms of one sum
    _, sums = read_file(Path(path))
    if not sums:
        raise GwiParseError("%s: no sum in the file" % path)
    fs = sum(sums, FormalSum())
    for graph, _ in fs.terms():
        bad = validate(graph)
        if bad:
            raise GwiParseError("%s: %s" % (format_graph(graph), "; ".join(bad)))
    return fs


def cmd_check(args) -> int:
    registry = _registry(args)
    fs = _load_sum(args.file)
    for graph, _ in fs.terms():
        if not graph.is_connected():
            raise ValueError("%s is not connected; check takes connected classes" % format_graph(graph))
    if fs.is_zero():
        print("EMPTY (zero sum is vacuously invariant)")
        return EXIT_OK
    ambients = {(t.total_genus(), t.external_labels(), t.codimension()) for t, _ in fs.terms()}
    ambients = sorted(ambients)
    if len(ambients) > 1:
        print("error: mixed (genus, labels, codim) ambients %s" % ambients, file=sys.stderr)
        return EXIT_BAD_INPUT
    (g, labels, k), = ambients
    bound = operator_index_bound(g, len(labels), k)
    lmax = bound if args.lmax is None else args.lmax
    reports = check_invariance(fs, range(1, lmax + 1), registry)
    ok = True
    for l in sorted(reports):
        nf = reports[l]
        if nf.is_zero():
            print("l=%d ZERO" % l)
        else:
            ok = False
            print("l=%d NONZERO" % l)
            print("  RESIDUAL %s" % format_sum(nf.as_formal_sum()))
            for key, coeff in nf.items():
                cls = format_graph(nf.basis_class(key))
                print("  COORD %s %s %s" % (nf.key_ambient(key), cls, coeff))
    if lmax == 0:
        why = "top codimension" if bound == 0 else "--lmax 0"
        print("l-range empty (%s): vacuously invariant" % why)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_reduce(args) -> int:
    registry = _registry(args)
    fs = _load_sum(args.file)
    nf = registry.normal_form(fs, allow_incomplete=True)
    if nf.is_zero():
        print("ZERO")
    else:
        print(format_sum(nf.as_formal_sum()))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"enumerate": cmd_enumerate, "find": cmd_find, "check": cmd_check, "reduce": cmd_reduce}
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        # unreadable, unwritable or malformed input, a registry file included
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except InductiveDataMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MISSING_DATA


if __name__ == "__main__":
    sys.exit(main())
