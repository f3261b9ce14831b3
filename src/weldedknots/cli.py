"""
Command-line front end.  Batch-oriented: inputs come from files or stdin,
results go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 domain error (invalid or unreadable input, file
errors, stale or malformed site, budget violation), 2 usage error.

File conventions: ``.gc`` Gauss code text, ``.wgd`` structured diagram,
``.jsonl`` atlas.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import search as search_mod
from .convert import (
    gauss_code_to_gauss_diagram,
    gauss_to_wgd,
    wgd_to_gauss,
    wgd_to_gauss_diagram,
)
from .invariants import builtin_group, fingerprint
from .model import (
    DomainError,
    GaussCode,
    GaussDiagram,
    WeldedGaussDiagram,
    canonical_wgd,
    decode_gauss_code,
    decode_wgd,
    encode_gauss_code,
    encode_wgd,
)
from .moves import MoveKind, MoveRecord, MoveSite, apply as apply_move, enumerate_sites
from .symmetry import bar, bar_code, global_reversal, reverse


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_any(text: str):
    """Sniff the input format: structured text starts with '{'."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return decode_wgd(stripped)
    return decode_gauss_code(stripped)


def _as_code(obj) -> GaussCode:
    return wgd_to_gauss(obj) if isinstance(obj, WeldedGaussDiagram) else obj


def _as_wgd(obj) -> WeldedGaussDiagram:
    return gauss_to_wgd(obj) if isinstance(obj, GaussCode) else obj


def _passage_obj(p) -> list:
    return [p.role, p.crossing, "+" if p.sign > 0 else "-"]


def _gd_obj(gd: GaussDiagram) -> dict:
    return {
        "points": [list(pt) for pt in gd.points],
        "arrows": sorted([list(t), list(h), "+" if s > 0 else "-"] for t, h, s in gd.arrows),
    }


def _site_obj(site: MoveSite) -> dict:
    return {"kind": site.kind.value, "positions": list(site.positions), "variant": site.variant}


def _site_from_text(text: str) -> MoveSite:
    try:
        obj = json.loads(text)
        kind = MoveKind(obj["kind"])
        return MoveSite(kind, tuple(int(i) for i in obj["positions"]), obj.get("variant", ""))
    except (KeyError, ValueError, TypeError) as e:
        raise DomainError(f"bad site descriptor: {e}") from e


def _record_obj(record: MoveRecord) -> dict:
    return {
        "kind": record.kind.value,
        "variant": record.variant,
        "removes": [[i, _passage_obj(p)] for i, p in record.removes],
        "inserts": [[i, _passage_obj(p)] for i, p in record.inserts],
        "swaps": [list(pair) for pair in record.swaps],
    }


def _budget_from_args(args, default_crossings: int) -> search_mod.SearchBudget:
    return search_mod.SearchBudget(
        max_crossings=args.max_crossings if args.max_crossings is not None else default_crossings,
        max_states=args.max_states,
        max_depth=args.max_depth,
    )


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-crossings", type=int, default=None,
                   help="crossing cap during search (default: input size + 2)")
    p.add_argument("--max-states", type=int, default=5000)
    p.add_argument("--max-depth", type=int, default=16)


def _parse_groups(spec: str):
    return tuple(builtin_group(name) for name in spec.split(",") if name)


def _parse_primes(spec: str):
    return tuple(int(p) for p in spec.split(",") if p)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_convert(args) -> int:
    obj = _parse_any(_read_input(args.input))
    if args.to == "wgd":
        print(encode_wgd(_as_wgd(obj)))
    elif args.to == "gauss":
        print(encode_gauss_code(_as_code(obj)))
    else:
        gd = (
            wgd_to_gauss_diagram(obj)
            if isinstance(obj, WeldedGaussDiagram)
            else gauss_code_to_gauss_diagram(obj)
        )
        print(json.dumps(_gd_obj(gd)))
    return 0


def _cmd_canon(args) -> int:
    print(encode_wgd(canonical_wgd(_as_wgd(_parse_any(_read_input(args.input))))))
    return 0


def _cmd_moves(args) -> int:
    code = _as_code(_parse_any(_read_input(args.input)))
    kinds = None
    if args.kinds:
        try:
            kinds = {MoveKind(k) for k in args.kinds.split(",")}
        except ValueError as e:
            raise DomainError(f"unknown move kind: {e}") from e
    sites = enumerate_sites(code, kinds, growth_allowed=not args.no_growth)
    if args.json:
        print(json.dumps([_site_obj(s) for s in sites]))
    else:
        for s in sites:
            print(f"{s.kind.value} @ {s.positions} {s.variant}")
    return 0


def _cmd_apply(args) -> int:
    code = _as_code(_parse_any(_read_input(args.input)))
    site = _site_from_text(args.site)
    new_code, record = apply_move(code, site)
    if args.json:
        print(json.dumps({"code": encode_gauss_code(new_code), "record": _record_obj(record)}))
    else:
        print(encode_gauss_code(new_code))
    return 0


def _cmd_equiv(args) -> int:
    w1 = _as_wgd(_parse_any(_read_input(args.a)))
    w2 = _as_wgd(_parse_any(_read_input(args.b)))
    budget = _budget_from_args(args, max(w1.n, w2.n) + 2)
    outcome = search_mod.are_equivalent(w1, w2, budget)
    distinguished = None
    if not outcome.equivalent:
        fp1 = fingerprint(w1).as_dict()
        fp2 = fingerprint(w2).as_dict()
        if fp1 != fp2:
            distinguished = {"a": fp1, "b": fp2}
    if args.json:
        print(json.dumps({
            "equivalent": outcome.equivalent,
            "path_length": len(outcome.path) if outcome.path is not None else None,
            "path": [_record_obj(r) for r in outcome.path] if outcome.path is not None else None,
            "reason": outcome.reason,
            "distinguished_by_invariant": distinguished,
        }))
    elif outcome.equivalent:
        print(f"equivalent, path length {len(outcome.path)}")
    else:
        print(f"unknown ({outcome.reason})")
        if distinguished:
            print(f"distinguished by invariant: {distinguished['a']} vs {distinguished['b']}")
    return 0


def _cmd_simplify(args) -> int:
    w = _as_wgd(_parse_any(_read_input(args.input)))
    budget = _budget_from_args(args, w.n + 2)
    print(encode_wgd(search_mod.simplify(w, budget)))
    return 0


def _cmd_invariants(args) -> int:
    code = _as_code(_parse_any(_read_input(args.input)))
    primes = _parse_primes(args.primes)
    groups = _parse_groups(args.groups)
    fp = fingerprint(code, primes=primes, groups=groups)
    if args.json:
        print(json.dumps(fp.as_dict()))
    else:
        print(dict(fp.coloring_counts))
        if groups:
            print(dict(fp.hom_counts))
    return 0


def _cmd_symmetry(args) -> int:
    obj = _parse_any(_read_input(args.input))
    chosen = [name for name, on in
              (("reverse", args.reverse), ("bar", args.bar), ("global", args.globalrev))
              if on]
    if len(chosen) != 1:
        raise DomainError("choose exactly one of --reverse, --bar, --global")
    op = chosen[0]
    if isinstance(obj, GaussCode):
        out = {"reverse": reverse, "bar": bar_code, "global": global_reversal}[op](obj)
        print(encode_gauss_code(out))
    else:
        out = {"reverse": reverse, "bar": bar, "global": global_reversal}[op](obj)
        print(encode_wgd(out))
    return 0


def _cmd_atlas(args) -> int:
    max_crossings = args.max_crossings if args.max_crossings is not None else args.n_max + 2
    records = search_mod.build_atlas(
        args.n_max, max_crossings, primes=_parse_primes(args.primes), groups=_parse_groups(args.groups)
    )
    text = search_mod.atlas_to_jsonl(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weldedknots",
        description="Gauss codes, welded Gauss diagrams, moves, invariants and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--to", choices=["wgd", "gauss", "gd"], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("canon", help="canonical form of a welded Gauss diagram")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("moves", help="list applicable move sites")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--kinds", default="", help="comma-separated move kinds")
    p.add_argument("--no-growth", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("apply", help="apply one move site")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--site", required=True, help="site descriptor as JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("equiv", help="bounded equivalence search")
    p.add_argument("a")
    p.add_argument("b")
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("simplify", help="search for a smaller equivalent diagram")
    p.add_argument("input", nargs="?", default="-")
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("invariants", help="coloring and homomorphism counts")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--primes", default="3,5")
    p.add_argument("--groups", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("symmetry", help="reversal operators")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--bar", action="store_true")
    p.add_argument("--global", dest="globalrev", action="store_true")
    p.set_defaults(func=_cmd_symmetry)

    atlas_help = ("classify diagrams by the components of the move graph within --max-crossings "
                  "(default: n-max + 2); --max-states and --max-depth are ignored")
    p = sub.add_parser("atlas", help=atlas_help, description=atlas_help)
    p.add_argument("--n-max", type=int, required=True)
    _add_budget_flags(p)
    p.add_argument("--primes", default="3,5")
    p.add_argument("--groups", default="")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
