"""
Local rewriting on Gauss codes: Reidemeister moves R1, R2, R3 and the
over-commute move OC.

Because diagrams are kept modulo detour moves, every move is a rewrite of
short subwords of the cyclic code:

* R1: a kink is an adjacent pair of passages of one crossing, in either
  role order and either sign (4 variants).

* R2: an adjacent pair of over passages of two crossings plus an adjacent
  pair of their under passages, with opposite signs.  The under pair
  repeats the over pair's crossing order (parallel strands) or reverses
  it (antiparallel), giving 4 oriented variants.

* R3: three pairwise disjoint adjacent pairs carried by three strands
  through a triangle: two overs (top strand), an over and an under
  (middle), two unders (bottom).  The move swaps the two passages of
  each pair.  Which sign patterns are admissible is forced by the planar
  triangle configurations: with eT/eM/eB = 1 when the top/middle/bottom
  pair is reversed relative to the reference configuration, a site must
  satisfy  sx*sy = (-1)^(eM+eB)  and  sx*sz = -(-1)^(eT+eB).  The 16
  solutions are exactly the strand reorientations and the mirror image
  of one geometric configuration, and they swap in pairs under the move,
  so the family is closed under inversion, orientation reversal and sign
  reversal.

* OC: two adjacent over passages commute.

Site positions are indices into the given linear code; pairs may wrap
around the basepoint, and all edits are performed with cyclic index
arithmetic so that records stay bit-exact invertible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .convert import wgd_to_gauss
from .model import (
    OVER,
    UNDER,
    DomainError,
    GaussCode,
    Passage,
    WeldedGaussDiagram,
    canonical_wgd,
    require_valid_code,
)


class StaleSiteError(DomainError):
    """The site's pattern is no longer present in the code."""


class MoveKind(Enum):
    R1_INSERT = "R1_insert"
    R1_DELETE = "R1_delete"
    R2_INSERT = "R2_insert"
    R2_DELETE = "R2_delete"
    R3 = "R3"
    OC = "OC"


ALL_KINDS = frozenset(MoveKind)
GROWTH_KINDS = frozenset({MoveKind.R1_INSERT, MoveKind.R2_INSERT})
_KIND_ORDER = [
    MoveKind.R1_INSERT,
    MoveKind.R1_DELETE,
    MoveKind.R2_INSERT,
    MoveKind.R2_DELETE,
    MoveKind.R3,
    MoveKind.OC,
]


@dataclass(frozen=True)
class MoveSite:
    kind: MoveKind
    positions: tuple[int, ...]
    variant: str = ""


@dataclass(frozen=True)
class MoveRecord:
    """Self-contained edit: removals and insertions carry (index, passage)
    pairs, swaps carry index pairs.  Replaying a record on its source code
    yields its target; replaying the inverse on the target restores the
    source exactly."""

    kind: MoveKind
    variant: str = ""
    removes: tuple[tuple[int, Passage], ...] = ()
    inserts: tuple[tuple[int, Passage], ...] = ()
    swaps: tuple[tuple[int, int], ...] = ()
    site: MoveSite | None = field(default=None, compare=False)


_ARITY = {
    MoveKind.R1_INSERT: 1,
    MoveKind.R1_DELETE: 2,
    MoveKind.R2_INSERT: 2,
    MoveKind.R2_DELETE: 2,
    MoveKind.R3: 3,
    MoveKind.OC: 2,
}
_INSERT_VARIANTS = {
    MoveKind.R1_INSERT: ("ou+", "ou-", "uo+", "uo-"),
    MoveKind.R2_INSERT: ("par+", "par-", "anti+", "anti-"),
}

_INVERSE_KIND = {
    MoveKind.R1_INSERT: MoveKind.R1_DELETE,
    MoveKind.R1_DELETE: MoveKind.R1_INSERT,
    MoveKind.R2_INSERT: MoveKind.R2_DELETE,
    MoveKind.R2_DELETE: MoveKind.R2_INSERT,
    MoveKind.R3: MoveKind.R3,
    MoveKind.OC: MoveKind.OC,
}


def inverse_record(record: MoveRecord) -> MoveRecord:
    return MoveRecord(
        kind=_INVERSE_KIND[record.kind],
        variant=record.variant,
        removes=record.inserts,
        inserts=record.removes,
        swaps=record.swaps,
    )


def apply_record(code: GaussCode, record: MoveRecord) -> GaussCode:
    """Execute a record's edit, validating that the context matches."""
    passages = list(code.passages)
    if record.removes:
        for idx, expected in record.removes:
            if idx < 0 or idx >= len(passages) or passages[idx] != expected:
                raise StaleSiteError(f"expected {expected} at position {idx}")
        drop = {idx for idx, _ in record.removes}
        passages = [p for i, p in enumerate(passages) if i not in drop]
    if record.inserts:
        existing = {p.crossing for p in passages}
        for _, p in record.inserts:
            if p.crossing in existing:
                raise StaleSiteError(f"label {p.crossing} already present")
        for idx, p in sorted(record.inserts):
            if idx < 0 or idx > len(passages):
                raise StaleSiteError(f"insert position {idx} out of range")
            passages.insert(idx, p)
    for i, j in record.swaps:
        if max(i, j) >= len(passages):
            raise StaleSiteError("swap position out of range")
        passages[i], passages[j] = passages[j], passages[i]
    return GaussCode(tuple(passages))


def replay(code: GaussCode, records: Iterable[MoveRecord]) -> GaussCode:
    for record in records:
        code = apply_record(code, record)
    return code


# ---------------------------------------------------------------------------
# pattern matching

def _match_r1_delete(code: GaussCode, i: int) -> str | None:
    L = len(code)
    if L < 2:
        return None
    j = (i + 1) % L
    a, b = code[i], code[j]
    if a.crossing != b.crossing:
        return None
    order = "ou" if a.role == OVER else "uo"
    return order + ("+" if a.sign > 0 else "-")


def _match_oc(code: GaussCode, i: int) -> bool:
    L = len(code)
    if L < 2:
        return False
    j = (i + 1) % L
    return code[i].role == OVER and code[j].role == OVER


def _match_r2_delete(code: GaussCode, p: int, q: int) -> str | None:
    L = len(code)
    if L < 4:
        return None
    p1, q1 = (p + 1) % L, (q + 1) % L
    if len({p, p1, q, q1}) != 4:
        return None
    oa, ob = code[p], code[p1]
    ua, ub = code[q], code[q1]
    if not (oa.role == OVER and ob.role == OVER and ua.role == UNDER and ub.role == UNDER):
        return None
    a, b = oa.crossing, ob.crossing
    if oa.sign != -ob.sign:
        return None
    if (ua.crossing, ub.crossing) == (a, b):
        shape = "par"
    elif (ua.crossing, ub.crossing) == (b, a):
        shape = "anti"
    else:
        return None
    return shape + ("+" if oa.sign > 0 else "-")


def _match_r3(code: GaussCode, t: int, m: int, b: int) -> str | None:
    L = len(code)
    if L < 6:
        return None
    t1, m1, b1 = (t + 1) % L, (m + 1) % L, (b + 1) % L
    if len({t, t1, m, m1, b, b1}) != 6:
        return None
    tp = (code[t], code[t1])
    mp = (code[m], code[m1])
    bp = (code[b], code[b1])
    if not (tp[0].role == OVER and tp[1].role == OVER):
        return None
    if {mp[0].role, mp[1].role} != {OVER, UNDER}:
        return None
    if not (bp[0].role == UNDER and bp[1].role == UNDER):
        return None
    m_under = mp[0] if mp[0].role == UNDER else mp[1]
    m_over = mp[0] if mp[0].role == OVER else mp[1]
    x = m_under.crossing
    if x not in (tp[0].crossing, tp[1].crossing):
        return None
    y = tp[1].crossing if tp[0].crossing == x else tp[0].crossing
    z = m_over.crossing
    if {bp[0].crossing, bp[1].crossing} != {y, z}:
        return None
    e_t = 0 if (tp[0].crossing, tp[1].crossing) == (x, y) else 1
    e_m = 0 if mp[0].role == OVER else 1
    e_b = 0 if (bp[0].crossing, bp[1].crossing) == (z, y) else 1
    signs = {p.crossing: p.sign for p in (tp[0], tp[1], m_over)}
    sx, sy, sz = signs[x], signs[y], signs[z]
    if sx * sy != (1 if (e_m + e_b) % 2 == 0 else -1):
        return None
    if sx * sz != (-1 if (e_t + e_b) % 2 == 0 else 1):
        return None
    return f"r3:{e_t}{e_m}{e_b}{'+' if sx > 0 else '-'}"


# ---------------------------------------------------------------------------
# site enumeration

def enumerate_sites(
    code: GaussCode,
    kinds: Iterable[MoveKind] | None = None,
    growth_allowed: bool = True,
) -> list[MoveSite]:
    """Complete list of applicable sites, deterministically ordered.

    With growth_allowed False the insert kinds are skipped.  OC sites are
    exactly the cyclically adjacent over-over pairs.
    """
    require_valid_code(code)
    wanted = ALL_KINDS if kinds is None else frozenset(kinds)
    if not growth_allowed:
        wanted = wanted - GROWTH_KINDS
    L = len(code)
    sites: list[MoveSite] = []

    if MoveKind.R1_INSERT in wanted:
        slots = range(L) if L else range(1)
        for s in slots:
            for variant in _INSERT_VARIANTS[MoveKind.R1_INSERT]:
                sites.append(MoveSite(MoveKind.R1_INSERT, (s,), variant))

    if MoveKind.R2_INSERT in wanted and L >= 1:
        for so in range(L):
            for su in range(L):
                if so == su:
                    continue
                for variant in _INSERT_VARIANTS[MoveKind.R2_INSERT]:
                    sites.append(MoveSite(MoveKind.R2_INSERT, (so, su), variant))

    if MoveKind.R1_DELETE in wanted:
        for i in range(L):
            variant = _match_r1_delete(code, i)
            if variant is not None:
                sites.append(MoveSite(MoveKind.R1_DELETE, (i, (i + 1) % L), variant))

    if MoveKind.R2_DELETE in wanted or MoveKind.R3 in wanted:
        over_pairs = []
        mixed_pairs = []
        under_pairs = []
        for i in range(L):
            a, b = code[i], code[(i + 1) % L]
            if a.role == OVER and b.role == OVER:
                over_pairs.append(i)
            elif a.role == UNDER and b.role == UNDER:
                under_pairs.append(i)
            elif L > 2:
                mixed_pairs.append(i)

        if MoveKind.R2_DELETE in wanted:
            for p in over_pairs:
                for q in under_pairs:
                    variant = _match_r2_delete(code, p, q)
                    if variant is not None:
                        sites.append(MoveSite(MoveKind.R2_DELETE, (p, q), variant))

        if MoveKind.R3 in wanted:
            for t in over_pairs:
                for m in mixed_pairs:
                    for b in under_pairs:
                        variant = _match_r3(code, t, m, b)
                        if variant is not None:
                            sites.append(MoveSite(MoveKind.R3, (t, m, b), variant))

    if MoveKind.OC in wanted:
        for i in range(L):
            if _match_oc(code, i):
                sites.append(MoveSite(MoveKind.OC, (i, (i + 1) % L), "oc"))

    sites.sort(key=lambda s: (_KIND_ORDER.index(s.kind), s.positions, s.variant))
    return sites


# ---------------------------------------------------------------------------
# application

def _fresh_labels(code: GaussCode, count: int) -> list[int]:
    base = max(code.labels(), default=0)
    return [base + k + 1 for k in range(count)]


def apply(code: GaussCode, site: MoveSite) -> tuple[GaussCode, MoveRecord]:
    """Apply a move at the given site; reject stale sites.

    Returns the rewritten code and a record that replays or inverts the
    rewrite bit-exactly.
    """
    require_valid_code(code)
    if len(site.positions) != _ARITY[site.kind]:
        raise DomainError(f"{site.kind.value} site needs {_ARITY[site.kind]} positions, got {len(site.positions)}")
    if site.kind in _INSERT_VARIANTS and site.variant not in _INSERT_VARIANTS[site.kind]:
        raise DomainError(f"unknown {site.kind.value} variant {site.variant!r}")
    return _apply_unchecked(code, site)


def _apply_unchecked(code: GaussCode, site: MoveSite) -> tuple[GaussCode, MoveRecord]:
    L = len(code)
    kind = site.kind

    if kind == MoveKind.R1_INSERT:
        (slot,) = site.positions
        if slot < 0 or slot > max(L - 1, 0):
            raise StaleSiteError(f"insert slot {slot} out of range")
        (label,) = _fresh_labels(code, 1)
        s = 1 if site.variant.endswith("+") else -1
        roles = (OVER, UNDER) if site.variant.startswith("ou") else (UNDER, OVER)
        inserts = ((slot, Passage(roles[0], label, s)), (slot + 1, Passage(roles[1], label, s)))
        record = MoveRecord(kind, site.variant, inserts=inserts, site=site)

    elif kind == MoveKind.R1_DELETE:
        i = site.positions[0]
        if i >= L or _match_r1_delete(code, i) != site.variant:
            raise StaleSiteError("R1 kink no longer present")
        j = (i + 1) % L
        removes = tuple(sorted([(i, code[i]), (j, code[j])]))
        record = MoveRecord(kind, site.variant, removes=removes, site=site)

    elif kind == MoveKind.R2_INSERT:
        so, su = site.positions
        if so == su or min(so, su) < 0 or max(so, su) > max(L - 1, 0) or L == 0:
            raise StaleSiteError("R2 insert slots out of range")
        a, b = _fresh_labels(code, 2)
        s = 1 if site.variant.endswith("+") else -1
        over_run = [Passage(OVER, a, s), Passage(OVER, b, -s)]
        if site.variant.startswith("par"):
            under_run = [Passage(UNDER, a, s), Passage(UNDER, b, -s)]
        else:
            under_run = [Passage(UNDER, b, -s), Passage(UNDER, a, s)]
        if so < su:
            inserts = (
                (so, over_run[0]), (so + 1, over_run[1]),
                (su + 2, under_run[0]), (su + 3, under_run[1]),
            )
        else:
            inserts = (
                (su, under_run[0]), (su + 1, under_run[1]),
                (so + 2, over_run[0]), (so + 3, over_run[1]),
            )
        record = MoveRecord(kind, site.variant, inserts=inserts, site=site)

    elif kind == MoveKind.R2_DELETE:
        p, q = site.positions
        if p >= L or q >= L or _match_r2_delete(code, p, q) != site.variant:
            raise StaleSiteError("R2 pattern no longer present")
        idxs = sorted({p, (p + 1) % L, q, (q + 1) % L})
        removes = tuple((i, code[i]) for i in idxs)
        record = MoveRecord(kind, site.variant, removes=removes, site=site)

    elif kind == MoveKind.R3:
        t, m, b = site.positions
        if max(t, m, b) >= L or _match_r3(code, t, m, b) != site.variant:
            raise StaleSiteError("R3 pattern no longer present")
        swaps = ((t, (t + 1) % L), (m, (m + 1) % L), (b, (b + 1) % L))
        record = MoveRecord(kind, site.variant, swaps=swaps, site=site)

    elif kind == MoveKind.OC:
        i = site.positions[0]
        if i >= L or not _match_oc(code, i):
            raise StaleSiteError("over-over pair no longer present")
        record = MoveRecord(kind, "oc", swaps=((i, (i + 1) % L),), site=site)

    else:  # pragma: no cover
        raise DomainError(f"unknown move kind {kind}")

    return apply_record(code, record), record


# ---------------------------------------------------------------------------
# the over-commute class of a code, and welded neighbors

def _over_blocks(code: GaussCode) -> list[list[int]]:
    """Position blocks of over passages between consecutive unders,
    in cyclic traversal order (the block after the last under wraps)."""
    L = len(code)
    unders = [i for i in range(L) if code[i].role == UNDER]
    blocks: list[list[int]] = []
    for k, u in enumerate(unders):
        stop = unders[(k + 1) % len(unders)]
        block = []
        i = (u + 1) % L
        while i != stop:
            block.append(i)
            i = (i + 1) % L
        if block:
            blocks.append(block)
    return blocks


def oc_class(code: GaussCode) -> Iterator[GaussCode]:
    """All codes obtained by permuting over passages inside their blocks.

    These are exactly the codes with the same welded Gauss diagram, the
    basepoint and labels being fixed.  The input ordering is yielded
    first; enumeration order is deterministic.
    """
    require_valid_code(code)
    if code.n == 0:
        yield code
        return
    blocks = _over_blocks(code)
    contents = [tuple(code[i] for i in block) for block in blocks]
    for choice in itertools.product(*(itertools.permutations(c) for c in contents)):
        passages = list(code.passages)
        for block, perm in zip(blocks, choice):
            for pos, passage in zip(block, perm):
                passages[pos] = passage
        yield GaussCode(tuple(passages))


def wgd_neighbors_iter(
    w: WeldedGaussDiagram,
    kinds: Iterable[MoveKind] | None = None,
    growth_allowed: bool = True,
) -> Iterator[WeldedGaussDiagram]:
    """Yield the one-move neighbors of w, possibly with repeats.

    Moves are applied over the whole over-commute class of w's
    realization, so the result does not depend on which code realizes w.
    """
    from .convert import _gauss_to_wgd_unchecked

    w = canonical_wgd(w)
    rep = wgd_to_gauss(w)
    wanted = ALL_KINDS if kinds is None else frozenset(kinds)
    # over-commutations never change the diagram, so one witness suffices
    if MoveKind.OC in wanted and any(_match_oc(rep, i) for i in range(len(rep))):
        yield w
    wanted = wanted - {MoveKind.OC}
    for variant_code in oc_class(rep):
        for site in enumerate_sites(variant_code, wanted, growth_allowed):
            new_code, _ = _apply_unchecked(variant_code, site)
            yield _gauss_to_wgd_unchecked(new_code)


def wgd_neighbors(
    w: WeldedGaussDiagram,
    kinds: Iterable[MoveKind] | None = None,
    growth_allowed: bool = True,
    max_crossings: int | None = None,
) -> set[WeldedGaussDiagram]:
    """Deduplicated set of one-move neighbors of w (canonical forms)."""
    out = set()
    for nb in wgd_neighbors_iter(w, kinds, growth_allowed):
        if max_crossings is None or nb.n <= max_crossings:
            out.add(nb)
    return out
