"""Command line interface.

Three subcommands:

  analyze FILE    decomposition analysis of one poset (sections selectable)
  generate        emit a poset from a named family in the text format
  verify          run the check suites exhaustively or on random families

Exit codes: 0 success, 1 a checked statement failed (witness printed),
2 malformed input, 3 a scope cap was hit (lift with --unsafe-scope).

`analyze` builds one `verify.Analysis` of the poset, the one the check
battery uses, and every section and the DOT output read their artifacts from
it; the sections apply the size caps themselves.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cut import CUT_ENUMERATION_CAP, _admissible_identities
from .errors import CheckFailure, CycleError, FormatError, ScopeExceededError, refuse_above
from .generate import FAMILIES, make_family
from .hcd import ChainGraph, _embedding
from .nccd import DESCENT_SCAN_CAP, NONCROSSING_CAP, _chain_bounds
from .poset import AUTOMORPHISM_CAP, POSET_ENUMERATION_CAP, Poset
from .textio import dumps, load, loads
from .verify import DEFAULT_CHECKS, Analysis, verify_exhaustive, verify_random

SECTIONS = ("dilworth", "mhcd", "cut-check", "embedding", "inequalities")


def _read_poset(path: str) -> Poset:
    if path == "-":
        return loads(sys.stdin.read())
    return load(path)


def _emit_json(doc: dict) -> None:
    # compact: with indent, json falls back to its pure-Python encoder
    print(json.dumps(doc, sort_keys=True))


# -- analyze --------------------------------------------------------------------


def _section_dilworth(an: Analysis, unsafe: bool) -> dict:
    d, a = an.dilworth
    return {
        "minimum_chains": d.k,
        "maximum_antichain": len(a),
        "equal": d.k == len(a),
        "decomposition": d.to_lines(),
        "antichain": sorted(str(x) for x in a),
    }


def _section_mhcd(an: Analysis, unsafe: bool) -> dict:
    gr = an.graph
    d = gr.decomposition
    names = [list(map(str, c)) for c in d.chains_as_labels()]
    edges = [[names[i], names[j]] for i, j in gr.edges()]
    return {
        "k": d.k,
        "decomposition": d.to_lines(),
        "oriented_edges": edges,
    }


def _section_cut_check(an: Analysis, unsafe: bool) -> dict:
    frame = an.frame
    cap = None if unsafe else CUT_ENUMERATION_CAP
    cuts = [
        {"heights": heights, "equal": equal}
        for block, batch in _admissible_identities(frame, cap)
        for heights, equal in zip(block, batch.equal.tolist())
    ]
    return {
        "admissible_cuts": len(cuts),
        "identity_holds": all(c["equal"] for c in cuts),
        "j_determinant": frame.j_determinant,
        "cuts": cuts,
    }


def _section_embedding(an: Analysis, unsafe: bool) -> dict:
    refuse_above("automorphism search", None if unsafe else AUTOMORPHISM_CAP, an.p.n)
    return _embedding(an.p, an.graph, 0).to_dict()


def _section_inequalities(an: Analysis, unsafe: bool) -> dict:
    p = an.p
    refuse_above("noncrossing minimum", None if unsafe else NONCROSSING_CAP, p.n)
    refuse_above("descent scan", None if unsafe else DESCENT_SCAN_CAP, p.n)
    return _chain_bounds(p, an.dilworth[0].k, an.noncrossing, an.construction, True).to_dict()


_SECTIONS = {
    "dilworth": _section_dilworth,
    "mhcd": _section_mhcd,
    "cut-check": _section_cut_check,
    "embedding": _section_embedding,
    "inequalities": _section_inequalities,
}


def _print_analysis(doc: dict) -> None:
    print(f"poset: {doc['n']} elements")
    s = doc["sections"]
    if "dilworth" in s:
        sec = s["dilworth"]
        tag = "equal" if sec["equal"] else "MISMATCH"
        print(
            f"dilworth: minimum chains = {sec['minimum_chains']}, "
            f"maximum antichain = {sec['maximum_antichain']} ({tag})"
        )
        for line in sec["decomposition"]:
            print(f"  {line}")
        print(f"  antichain: {' '.join(sec['antichain'])}")
    if "mhcd" in s:
        sec = s["mhcd"]
        print(f"minimal homogeneous decomposition: k = {sec['k']}")
        for line in sec["decomposition"]:
            print(f"  {line}")
        for src, dst in sec["oriented_edges"]:
            print(f"  edge: <{','.join(src)}> -> <{','.join(dst)}>")
    if "cut-check" in s:
        sec = s["cut-check"]
        holds = "holds on all" if sec["identity_holds"] else "FAILS"
        print(
            f"cut identity: {sec['admissible_cuts']} admissible cuts, {holds} "
            f"(det J = {sec['j_determinant']})"
        )
    if "embedding" in s:
        sec = s["embedding"]
        status = "ok" if sec["ok"] else "FAILED"
        print(
            f"embedding: |Aut(P)| = {sec['aut_poset_order']} into "
            f"{sec['aut_oriented_order']} oriented symmetries [{status}]"
        )
    if "inequalities" in s:
        sec = s["inequalities"]
        chain_str = " <= ".join(
            str(sec[key])
            for key in (
                "min_chains",
                "min_noncrossing",
                "min_descents",
                "min_descents_ext",
                "min_homogeneous",
            )
        )
        status = "ok" if sec["ok"] else "VIOLATED"
        print(f"inequalities: {chain_str} [{status}]")
        print(f"  permutation: {' '.join(sec['permutation'])}")
        print(f"  extension:   {' '.join(sec['extension'])}")
    if doc["findings"]:
        print("findings:")
        for f in doc["findings"]:
            print(f"  {json.dumps(f, sort_keys=True)}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    an = Analysis(_read_poset(args.file))
    wanted = [name for name in SECTIONS if getattr(args, name.replace("-", "_"))]
    if args.all or not wanted:
        wanted = list(SECTIONS)
    sections: dict = {}
    findings: list = []
    for name in wanted:
        sections[name] = _SECTIONS[name](an, args.unsafe_scope)
        for f in sections[name].pop("findings", []):
            findings.append({"section": name, **(f if isinstance(f, dict) else {"kind": str(f)})})
    failed = [name for name, sec in sections.items() if not all(
        sec.get(flag, True) for flag in ("equal", "identity_holds", "ok"))]
    doc = {"n": an.p.n, "sections": sections, "findings": findings, "ok": not failed}
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            gr = an.graph
            fh.write(ChainGraph(gr.decomposition, gr.rows).to_dot("chains"))
            fh.write("\n")
            fh.write(gr.to_dot("oriented"))
            fh.write("\n")
    if args.json:
        _emit_json(doc)
    else:
        _print_analysis(doc)
    if failed:
        print(f"failed sections: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# -- generate -------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    p = make_family(args.family, args.n, density=args.density, seed=args.seed)
    text = dumps(p)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- verify ---------------------------------------------------------------------


def _print_verify(summary: dict) -> None:
    print(f"mode: {summary['mode']}")
    print(f"posets checked: {summary['posets']}")
    for check in summary.get("global_checks", []):
        tag = "pass" if check["passed"] else "FAIL"
        print(f"global {check['name']}: {tag}")
    if summary["findings"]:
        print("findings:")
        for f in summary["findings"]:
            print(f"  {f['kind']}: {f['count']} occurrences")
    for name, count in summary["skipped"].items():
        if count:
            # a size cap skipped the check, or its scans, on these posets
            print(f"skipped {name}: {count} of {summary['posets']} posets")
    if summary["failures"]:
        first = summary["failures"][0]
        print(f"FAILURES: {len(summary['failures'])} posets", file=sys.stderr)
        print("first failing poset:", file=sys.stderr)
        for line in first["poset"]["covers"] or ["(antichain)"]:
            print(f"  {line}", file=sys.stderr)
        for check in first["checks"]:
            if not check["passed"]:
                print(f"  failed check: {check['name']}", file=sys.stderr)
                if "witness" in check:
                    print(f"  witness: {json.dumps(check['witness'], sort_keys=True)}", file=sys.stderr)
    elif summary["posets"] == 0:
        print("no posets checked")
    else:
        print("all checks passed")


def _cmd_verify(args: argparse.Namespace) -> int:
    which = tuple(args.checks.split(",")) if args.checks else DEFAULT_CHECKS
    if args.mode == "exhaustive":
        cap = None if args.unsafe_scope else POSET_ENUMERATION_CAP
        summary = verify_exhaustive(args.nmax, which=which, seed=args.seed, cap=cap)
    else:
        summary = verify_random(
            args.n,
            args.count,
            which=which,
            seed=args.seed,
            density=args.density,
            family=args.family,
        )
    if args.json:
        _emit_json(summary)
    else:
        _print_verify(summary)
    return 0 if summary["ok"] else 1


# -- parser ---------------------------------------------------------------------


def _size(text: str) -> int:
    """A size option: an integer >= 0, or a usage error (exit 2)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {n})")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetdecomp",
        description="chain decompositions of finite posets: Dilworth minima, "
        "homogeneous decompositions, cuts, and noncrossing structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze one poset from a text file ('-' for stdin)")
    an.add_argument("file", help="poset in the text format, or '-' for stdin")
    for name in SECTIONS:
        an.add_argument(f"--{name}", action="store_true", help=f"include the {name} section")
    an.add_argument("--all", action="store_true", help="include every section (default)")
    an.add_argument("--json", action="store_true", help="emit one JSON document")
    an.add_argument("--dot", metavar="FILE", help="write chain graphs in DOT format")
    an.add_argument(
        "--unsafe-scope",
        action="store_true",
        help="lift enumeration caps (exponential searches may run long)",
    )
    an.set_defaults(func=_cmd_analyze)

    gen = sub.add_parser("generate", help="emit a poset from a named family")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--n", type=_size, required=True, help="size parameter")
    gen.add_argument("--density", type=float, default=0.3, help="relation density (random family)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="run the check suites over many posets")
    vsub = ver.add_subparsers(dest="mode", required=True)

    vex = vsub.add_parser("exhaustive", help="every labeled poset up to a size")
    vex.add_argument("--nmax", type=_size, default=4)
    vex.add_argument("--seed", type=int, default=0)
    vex.add_argument("--checks", help="comma-separated check names (default: all)")
    vex.add_argument("--json", action="store_true")
    vex.add_argument(
        "--unsafe-scope",
        action="store_true",
        help=f"allow --nmax above {POSET_ENUMERATION_CAP} (130,023 labeled posets at "
        "n = 6 and 6,129,859 at n = 7, each through the battery; nmax = 7 would "
        "take hours)",
    )
    vex.set_defaults(func=_cmd_verify)

    vr = vsub.add_parser("random", help="seeded random posets")
    vr.add_argument("--n", type=_size, default=8)
    vr.add_argument("--count", type=_size, default=50)
    vr.add_argument("--seed", type=int, default=0)
    vr.add_argument("--density", type=float, default=0.3)
    vr.add_argument("--family", choices=("random", "wrapforest"), default="random")
    vr.add_argument("--checks", help="comma-separated check names (default: all)")
    vr.add_argument("--json", action="store_true")
    vr.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, CycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScopeExceededError as exc:
        print(f"scope: {exc}", file=sys.stderr)
        print("pass --unsafe-scope to lift the cap", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
