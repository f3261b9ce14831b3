"""
Command-line front end.  Batch-oriented: inputs come from files or stdin,
results go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 domain error (invalid or unreadable input, file
errors, stale or malformed site, budget violation), 2 usage error.

File conventions: ``.gc`` Gauss code text, ``.wgd`` structured diagram,
``.jsonl`` atlas.

A named command parses with its own parser alone (see :func:`parse_args`),
so it does not pay for building the root and the eight parsers it does not
run.  Help, a typo, no command at all or arguments the command leaves over
get the full parser (:func:`build_parser`), so what is printed is the
same.  Nothing is built at import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import search as search_mod
from .convert import (
    gauss_code_to_gauss_diagram,
    gauss_to_wgd,
    wgd_to_gauss,
    wgd_to_gauss_diagram,
)
from .invariants import _fingerprint_terms, builtin_group, fingerprint
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
from .symmetry import bar, global_reversal, reverse


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
    """A JSON object with a ``kind``, ``positions`` (an array of integers)
    and an optional ``variant`` string."""
    try:
        obj = json.loads(text)
        kind = MoveKind(obj["kind"])
        positions, variant = obj["positions"], obj.get("variant", "")
    except (KeyError, ValueError, TypeError, RecursionError) as e:
        raise DomainError(f"bad site descriptor: {e}") from e
    if not isinstance(positions, list):
        raise DomainError("bad site descriptor: 'positions' must be an array of integers")
    return MoveSite(kind, tuple(positions), variant)


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
    p.add_argument("--max-states", type=int, default=search_mod.SearchBudget.max_states)
    p.add_argument("--max-depth", type=int, default=search_mod.SearchBudget.max_depth)


def _parse_groups(spec: str):
    return tuple(builtin_group(name) for name in spec.split(",") if name)


def _parse_primes(spec: str):
    try:
        return tuple(int(p) for p in spec.split(",") if p)
    except ValueError as e:
        raise DomainError(f"--primes must be comma-separated integers: {e}") from e


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
    if args.a == args.b == "-":  # b would read the empty rest of stdin
        raise DomainError("only one of a and b can be read from stdin (-)")
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
    obj = _parse_any(_read_input(args.input))
    primes = _parse_primes(args.primes)
    groups = _parse_groups(args.groups)
    fp = fingerprint(obj, primes=primes, groups=groups)
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
    out = {"reverse": reverse, "bar": bar, "global": global_reversal}[chosen[0]](obj)
    print(encode_gauss_code(out) if isinstance(out, GaussCode) else encode_wgd(out))
    return 0


def _cmd_atlas(args) -> int:
    max_crossings = args.max_crossings if args.max_crossings is not None else args.n_max + 2
    # fail before a build that can take minutes: the arguments first, so a
    # bad one leaves no file, then the output path
    search_mod._require_atlas_range(args.n_max, max_crossings)
    primes, groups = _fingerprint_terms(_parse_primes(args.primes), _parse_groups(args.groups))
    out = open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout)
    with out as fh:  # each record is written as it becomes final
        fh.writelines(search_mod._jsonl_lines(search_mod._atlas_records(args.n_max, max_crossings, primes, groups)))
    return 0


def _input_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-")


def _convert_arguments(p: argparse.ArgumentParser) -> None:
    _input_argument(p)
    p.add_argument("--to", choices=["wgd", "gauss", "gd"], required=True)


def _moves_arguments(p: argparse.ArgumentParser) -> None:
    _input_argument(p)
    p.add_argument("--kinds", default="", help="comma-separated move kinds")
    p.add_argument("--no-growth", action="store_true")
    p.add_argument("--json", action="store_true")


def _apply_arguments(p: argparse.ArgumentParser) -> None:
    _input_argument(p)
    p.add_argument("--site", required=True, help="site descriptor as JSON")
    p.add_argument("--json", action="store_true")


def _equiv_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("a")
    p.add_argument("b")
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")


def _simplify_arguments(p: argparse.ArgumentParser) -> None:
    _input_argument(p)
    _add_budget_flags(p)


def _invariants_arguments(p: argparse.ArgumentParser) -> None:
    _input_argument(p)
    p.add_argument("--primes", default="3,5")
    p.add_argument("--groups", default="")
    p.add_argument("--json", action="store_true")


def _symmetry_arguments(p: argparse.ArgumentParser) -> None:
    _input_argument(p)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--bar", action="store_true")
    p.add_argument("--global", dest="globalrev", action="store_true")


_ATLAS_HELP = ("classify diagrams by the components of the move graph within --max-crossings "
               "(default: n-max + 2); --max-states and --max-depth are ignored")


def _atlas_arguments(p: argparse.ArgumentParser) -> None:
    p.description = _ATLAS_HELP  # shown by ``atlas --help`` only
    p.add_argument("--n-max", type=int, required=True)
    _add_budget_flags(p)
    p.add_argument("--primes", default="3,5")
    p.add_argument("--groups", default="")
    p.add_argument("-o", "--output", default=None)


# (name, help, add_arguments, handler), in the order of the usage line
_COMMANDS = (
    ("convert", "convert between representations", _convert_arguments, _cmd_convert),
    ("canon", "canonical form of a welded Gauss diagram", _input_argument, _cmd_canon),
    ("moves", "list applicable move sites", _moves_arguments, _cmd_moves),
    ("apply", "apply one move site", _apply_arguments, _cmd_apply),
    ("equiv", "bounded equivalence search", _equiv_arguments, _cmd_equiv),
    ("simplify", "search for a smaller equivalent diagram", _simplify_arguments, _cmd_simplify),
    ("invariants", "coloring and homomorphism counts", _invariants_arguments, _cmd_invariants),
    ("symmetry", "reversal operators", _symmetry_arguments, _cmd_symmetry),
    ("atlas", _ATLAS_HELP, _atlas_arguments, _cmd_atlas),
)


def _add_command(p: argparse.ArgumentParser, name: str, add_arguments, handler) -> None:
    add_arguments(p)
    p.set_defaults(func=handler, command=name)


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser, with every subcommand registered.
    ``main`` builds it only for help, a typo, no command or arguments the
    named command leaves over; its usage line lists every command."""
    parser = argparse.ArgumentParser(
        prog="weldedknots",
        description="Gauss codes, welded Gauss diagrams, moves, invariants and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in _COMMANDS:
        _add_command(sub.add_parser(name, help=help_text), name, add_arguments, handler)
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """Parse ``argv`` as :func:`build_parser` would.  A named command
    parses with ``ArgumentParser(prog="weldedknots <name>")`` alone, the
    parser the full one hands it to, so its namespace, help and usage
    errors are the same; arguments it leaves over, which the root reports,
    and anything but a named command get the full parser."""
    for name, _, add_arguments, handler in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"weldedknots {name}")
            _add_command(parser, name, add_arguments, handler)
            args, leftovers = parser.parse_known_args(argv[1:])
            if not leftovers:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return
    its exit code; a usage error or help exits from the parser."""
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (DomainError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
