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
arithmetic so that records stay bit-exact invertible.  An R2 insert
names the slots of its over run and its under run; when both runs share
one slot (always so on the empty code) its variant carries the run that
comes first, e.g. ``par+:ou`` or ``anti-:uo``, so that every R2 delete
pattern is the image of an insert site.

``_CROSSING_DELTA`` states each kind's change in the crossing count, and
the kind facts derive from it: the growth kinds, each kind's inverse (R3
and OC undo themselves), the edges within a cap, and whether a pair edit
removes its passages or swaps each pair.

One table, ``_RULES``, states this grammar once per kind: the number of
positions, the candidate positions on a code and the variants a site may
take.  :func:`enumerate_sites` lists its sites, :func:`apply` accepts
exactly those, and :func:`_edge_records` reads a kind's sites from it.

Welded neighbors are generated on the diagram itself, not on codes.  A
welded Gauss diagram is a code modulo over-commutation: the code is
``U_u G_u`` for each under ``u`` in cyclic order, and the over passages
of the gap ``G_u = {c : head[c] = u}`` may come in any order.  Each move
touches a few adjacent gaps, so its sites are read off ``order``,
``head`` and ``sign`` (see :func:`wgd_neighbors_iter` for the rules),
once per site instead of once per code of the over-commute class.

The move graph's edges are the R1, R2 and R3 moves (OC maps a diagram to
itself).  :func:`_edges` is the one neighbour step of every walk of
:mod:`weldedknots.search`, and :func:`_edge_records` realises an edge a
walk found as records on a concrete code.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .model import (
    OVER,
    UNDER,
    DomainError,
    GaussCode,
    Passage,
    WeldedGaussDiagram,
    _canonical_encoding,
    _canonical_wgd_encoding,
    _code_packed,
    _gaps,
    _hash_key,
    _pack,
    _relabelled,
    _tables,
    _wgd_from_encoding,
    require_valid_code,
    require_valid_wgd,
    validate_code,
)


class StaleSiteError(DomainError):
    """The site or record does not fit the code: :func:`enumerate_sites`
    does not list the site, or the record's passages are not there."""


class MoveKind(Enum):
    R1_INSERT = "R1_insert"
    R1_DELETE = "R1_delete"
    R2_INSERT = "R2_insert"
    R2_DELETE = "R2_delete"
    R3 = "R3"
    OC = "OC"


# each kind's change in the crossing count; the kind facts below derive from it
_CROSSING_DELTA = {
    MoveKind.R1_INSERT: 1,
    MoveKind.R2_INSERT: 2,
    MoveKind.R1_DELETE: -1,
    MoveKind.R2_DELETE: -2,
    MoveKind.R3: 0,
    MoveKind.OC: 0,
}
ALL_KINDS = frozenset(MoveKind)
GROWTH_KINDS = frozenset(kind for kind, delta in _CROSSING_DELTA.items() if delta > 0)
# the one Reidemeister kind that changes the crossing count by each amount
_KIND_BY_DELTA = {delta: kind for kind, delta in _CROSSING_DELTA.items() if kind != MoveKind.OC}
# the kind with the opposite change undoes a kind; R3 and OC undo themselves
_INVERSE_KIND = {kind: _KIND_BY_DELTA[-delta] if delta else kind for kind, delta in _CROSSING_DELTA.items()}


@dataclass(frozen=True)
class MoveSite:
    kind: MoveKind
    positions: tuple[int, ...]
    variant: str = ""

    def __post_init__(self):
        # True and False equal 1 and 0 but are not positions
        ints = isinstance(self.positions, tuple) and all(type(i) is int for i in self.positions)
        if not (ints and isinstance(self.kind, MoveKind) and isinstance(self.variant, str)):
            raise DomainError(f"a MoveSite takes a MoveKind, a tuple of ints and a str, got {self!r}")


@dataclass(frozen=True)
class MoveRecord:
    """A move is its edit: removals and insertions carry (index, passage)
    pairs, swaps carry index pairs.  Replaying a record on its source code
    yields its target; replaying the inverse on the target restores the
    source exactly."""

    kind: MoveKind
    variant: str = ""
    removes: tuple[tuple[int, Passage], ...] = ()
    inserts: tuple[tuple[int, Passage], ...] = ()
    swaps: tuple[tuple[int, int], ...] = ()

    def __hash__(self) -> int:
        return _hash_key(self, (self.kind, self.variant, self.removes, self.inserts, self.swaps))


def _require_record(record: MoveRecord) -> None:
    if not (isinstance(record, MoveRecord) and isinstance(record.kind, MoveKind) and all(
        isinstance(entries, tuple) and all(isinstance(e, tuple) and len(e) == 2 for e in entries)
        for entries in (record.removes, record.inserts, record.swaps)
    )):
        raise DomainError(f"expected a MoveRecord of a MoveKind whose edits are tuples of pairs, got {record!r}")


def inverse_record(record: MoveRecord) -> MoveRecord:
    _require_record(record)
    return MoveRecord(
        kind=_INVERSE_KIND[record.kind],
        variant=record.variant,
        removes=record.inserts,
        inserts=record.removes,
        swaps=record.swaps,
    )


def _in_range(idx, stop: int) -> bool:
    """An int in ``range(stop)``: ``True`` and ``1.0`` equal 1 but are not positions."""
    return type(idx) is int and 0 <= idx < stop


def _edit(code: GaussCode, record: MoveRecord) -> GaussCode:
    """The record's edit of ``code``, unchecked: drop the removed positions,
    insert at increasing positions, then swap."""
    passages = list(code.passages)
    if record.removes:
        drop = {idx for idx, _ in record.removes}
        passages = [p for i, p in enumerate(passages) if i not in drop]
    for idx, p in sorted(record.inserts):
        passages.insert(idx, p)
    for i, j in record.swaps:
        passages[i], passages[j] = passages[j], passages[i]
    return GaussCode(tuple(passages))


def apply_record(code: GaussCode, record: MoveRecord) -> GaussCode:
    """Execute a record's edit, validating that the context matches and
    that the result is a valid code."""
    require_valid_code(code)
    _require_record(record)
    for idx, expected in record.removes:
        if not _in_range(idx, len(code)) or code[idx] != expected:
            raise StaleSiteError(f"expected {expected} at position {idx}")
    # the inserts are sorted, which compares the passages of equal positions
    if not all(type(idx) is int and isinstance(p, Passage) for idx, p in record.inserts):
        raise StaleSiteError(f"inserts {record.inserts} are not pairs of an int position and a Passage")
    size = len(code) - len({idx for idx, _ in record.removes})
    for idx, _ in sorted(record.inserts):
        if not _in_range(idx, size + 1):
            raise StaleSiteError(f"insert position {idx} out of range")
        size += 1
    if not all(_in_range(i, size) for pair in record.swaps for i in pair):
        raise StaleSiteError(f"swap positions {record.swaps} out of range")
    new_code = _edit(code, record)
    problem = validate_code(new_code)
    if problem is not None:
        raise StaleSiteError(f"the edit gives no valid code: {problem}")
    return new_code


def replay(code: GaussCode, records: Iterable[MoveRecord]) -> GaussCode:
    require_valid_code(code)
    if not isinstance(records, Iterable):
        raise DomainError(f"replay takes an iterable of MoveRecords, got {type(records).__name__}")
    for record in records:
        code = apply_record(code, record)
    return code


# ---------------------------------------------------------------------------
# pattern matching

# Each matcher returns a site's variants, one or none, as ``_Rule.variants``
# does.  A code too short for R2 delete or R3 fails the distinctness test,
# and R1 delete and OC read an i in range, so the code holds a crossing.

def _match_r1_delete(code: GaussCode, i: int) -> tuple[str, ...]:
    a, b = code[i], code[(i + 1) % len(code)]
    if a.crossing != b.crossing:
        return ()
    order = "ou" if a.role == OVER else "uo"
    return (order + ("+" if a.sign > 0 else "-"),)


def _match_oc(code: GaussCode, i: int) -> tuple[str, ...]:
    if code[i].role != OVER or code[(i + 1) % len(code)].role != OVER:
        return ()
    return ("oc",)


def _match_r2_delete(code: GaussCode, positions: tuple[int, int]) -> tuple[str, ...]:
    p, q = positions
    L = len(code)
    p1, q1 = (p + 1) % L, (q + 1) % L
    if len({p, p1, q, q1}) != 4:
        return ()
    oa, ob = code[p], code[p1]
    ua, ub = code[q], code[q1]
    if not (oa.role == OVER and ob.role == OVER and ua.role == UNDER and ub.role == UNDER):
        return ()
    a, b = oa.crossing, ob.crossing
    if oa.sign != -ob.sign:
        return ()
    if (ua.crossing, ub.crossing) == (a, b):
        shape = "par"
    elif (ua.crossing, ub.crossing) == (b, a):
        shape = "anti"
    else:
        return ()
    return (shape + ("+" if oa.sign > 0 else "-"),)


def _match_r3(code: GaussCode, positions: tuple[int, int, int]) -> tuple[str, ...]:
    t, m, b = positions
    L = len(code)
    t1, m1, b1 = (t + 1) % L, (m + 1) % L, (b + 1) % L
    if len({t, t1, m, m1, b, b1}) != 6:
        return ()
    tp = (code[t], code[t1])
    mp = (code[m], code[m1])
    bp = (code[b], code[b1])
    if not (tp[0].role == OVER and tp[1].role == OVER):
        return ()
    if {mp[0].role, mp[1].role} != {OVER, UNDER}:
        return ()
    if not (bp[0].role == UNDER and bp[1].role == UNDER):
        return ()
    m_under = mp[0] if mp[0].role == UNDER else mp[1]
    m_over = mp[0] if mp[0].role == OVER else mp[1]
    x = m_under.crossing
    if x not in (tp[0].crossing, tp[1].crossing):
        return ()
    y = tp[1].crossing if tp[0].crossing == x else tp[0].crossing
    z = m_over.crossing
    if {bp[0].crossing, bp[1].crossing} != {y, z}:
        return ()
    e_t = 0 if (tp[0].crossing, tp[1].crossing) == (x, y) else 1
    e_m = 0 if mp[0].role == OVER else 1
    e_b = 0 if (bp[0].crossing, bp[1].crossing) == (z, y) else 1
    signs = {p.crossing: p.sign for p in (tp[0], tp[1], m_over)}
    sx, sy, sz = signs[x], signs[y], signs[z]
    if sx * sy != (1 if (e_m + e_b) % 2 == 0 else -1):
        return ()
    if sx * sz != (-1 if (e_t + e_b) % 2 == 0 else 1):
        return ()
    return (f"r3:{e_t}{e_m}{e_b}{'+' if sx > 0 else '-'}",)


# ---------------------------------------------------------------------------
# the site grammar

# variants in increasing order, the order sites list them in
_KINKS = ("ou+", "ou-", "uo+", "uo-")
_R2_SHAPES = ("anti+", "anti-", "par+", "par-")
# both runs in one slot: the suffix says which run comes first
_R2_SHARED_SLOT = tuple(f"{shape}:{first}" for shape in _R2_SHAPES for first in ("ou", "uo"))


def _slots(code: GaussCode) -> range:
    return range(len(code) or 1)  # the empty code has one slot


def _adjacent_pairs(code: GaussCode) -> list[tuple[int, int]]:
    L = len(code)
    return [(i, (i + 1) % L) for i in range(L)]


def _pair_starts(code: GaussCode, *overs: int) -> Iterator[tuple[int, ...]]:
    """In increasing order, the tuples whose k-th entry starts a cyclically
    adjacent pair holding ``overs[k]`` over passages."""
    L = len(code)
    count = [(code[i].role == OVER) + (code[(i + 1) % L].role == OVER) for i in range(L)]
    return itertools.product(*([i for i in range(L) if count[i] == k] for k in overs))


def _adjacent(match):
    """``match`` read at i, on positions (i, succ(i)) only."""
    return lambda code, pair: match(code, pair[0]) if pair[1] == (pair[0] + 1) % len(code) else ()


class _Rule(NamedTuple):
    """A kind's sites: ``arity`` positions, ``positions(code)`` the candidates
    in increasing order, and ``variants(code, positions)`` those of a site
    at in-range positions in increasing order, none off the candidates."""

    arity: int
    positions: Callable[[GaussCode], Iterable[tuple[int, ...]]]
    variants: Callable[[GaussCode, tuple[int, ...]], tuple[str, ...]]


# every kind's site grammar, in declaration order
_RULES = {
    MoveKind.R1_INSERT: _Rule(1, lambda code: itertools.product(_slots(code)), lambda code, slot: _KINKS),
    MoveKind.R1_DELETE: _Rule(2, _adjacent_pairs, _adjacent(_match_r1_delete)),
    MoveKind.R2_INSERT: _Rule(
        2, lambda code: itertools.product(_slots(code), repeat=2),
        lambda code, slots: _R2_SHARED_SLOT if slots[0] == slots[1] else _R2_SHAPES,
    ),
    MoveKind.R2_DELETE: _Rule(2, lambda code: _pair_starts(code, 2, 0), _match_r2_delete),
    MoveKind.R3: _Rule(3, lambda code: _pair_starts(code, 2, 1, 0), _match_r3),
    MoveKind.OC: _Rule(2, _adjacent_pairs, _adjacent(_match_oc)),
}


def _sites(code: GaussCode, kind: MoveKind) -> Iterator[tuple[tuple[int, ...], str]]:
    """The sites of one kind on ``code``, by its rule, as plain ``(positions,
    variant)`` fields, no :class:`MoveSite`; ``code`` is not validated."""
    rule = _RULES[kind]
    for positions in rule.positions(code):
        for variant in rule.variants(code, positions):
            yield positions, variant


def _wanted_kinds(kinds: Iterable[MoveKind] | None, growth_allowed: bool) -> frozenset[MoveKind]:
    """The kinds to generate: ``kinds`` (all when None), without the insert
    kinds unless ``growth_allowed``.  An entry that is not a ``MoveKind``,
    such as its value ``"R1_insert"``, would match nothing, so it is
    rejected."""
    if kinds is None:
        wanted = ALL_KINDS
    else:
        try:
            kinds = tuple(kinds)
        except TypeError:
            raise DomainError(f"kinds must be None or an iterable of MoveKinds, got {kinds!r}") from None
        for kind in kinds:
            if not isinstance(kind, MoveKind):
                raise DomainError(f"not a MoveKind: {kind!r}")
        wanted = frozenset(kinds)
    return wanted if growth_allowed else wanted - GROWTH_KINDS


def enumerate_sites(
    code: GaussCode,
    kinds: Iterable[MoveKind] | None = None,
    growth_allowed: bool = True,
) -> list[MoveSite]:
    """Every site of the wanted kinds on ``code``, ordered by kind (in
    declaration order), then positions, then variant.  With growth_allowed
    False the insert kinds are skipped."""
    require_valid_code(code)
    wanted = _wanted_kinds(kinds, growth_allowed)
    return [MoveSite(kind, p, v) for kind in MoveKind if kind in wanted for p, v in _sites(code, kind)]


# ---------------------------------------------------------------------------
# application

def _fresh_labels(code: GaussCode, count: int) -> list[int]:
    base = max(code.labels(), default=0)
    return [base + k + 1 for k in range(count)]


def apply(code: GaussCode, site: MoveSite) -> tuple[GaussCode, MoveRecord]:
    """Apply a move at the given site; reject a malformed or stale site.

    This is the one place a site is checked, against its kind's rule: a
    site is accepted exactly when :func:`enumerate_sites` lists it, and any
    other site raises :class:`StaleSiteError`.  The engine applies the
    sites it has just enumerated or built as plain fields, through
    :func:`_apply_unchecked`.  Returns the rewritten code and a record, the
    move's edit, that replays or inverts the rewrite bit-exactly.
    """
    require_valid_code(code)
    if not isinstance(site, MoveSite):
        raise DomainError(f"expected a MoveSite, got {type(site).__name__}")
    kind, positions, rule = site.kind, site.positions, _RULES[site.kind]
    stop = len(_slots(code)) if kind in GROWTH_KINDS else len(code)
    fits = len(positions) == rule.arity and all(_in_range(i, stop) for i in positions)
    if not (fits and site.variant in rule.variants(code, positions)):
        raise StaleSiteError(f"no {kind.value} site {site.variant!r} at positions {positions} on {len(code)} passages")
    return _apply_unchecked(code, kind, positions, site.variant)


def _apply_unchecked(code: GaussCode, kind: MoveKind, positions: tuple, variant: str) -> tuple[GaussCode, MoveRecord]:
    """:func:`apply` for a site's fields known to fit ``code``, such as those
    :func:`_sites` has just yielded: the record is its edit, run bare."""
    L = len(code)

    if kind == MoveKind.R1_INSERT:
        (slot,) = positions
        (label,) = _fresh_labels(code, 1)
        s = 1 if variant.endswith("+") else -1
        roles = (OVER, UNDER) if variant.startswith("ou") else (UNDER, OVER)
        inserts = ((slot, Passage(roles[0], label, s)), (slot + 1, Passage(roles[1], label, s)))
        record = MoveRecord(kind, variant, inserts=inserts)

    elif kind == MoveKind.R2_INSERT:
        so, su = positions
        a, b = _fresh_labels(code, 2)
        shape, _, first = variant.partition(":")
        s = 1 if shape.endswith("+") else -1
        over_run = [Passage(OVER, a, s), Passage(OVER, b, -s)]
        if shape.startswith("par"):
            under_run = [Passage(UNDER, a, s), Passage(UNDER, b, -s)]
        else:
            under_run = [Passage(UNDER, b, -s), Passage(UNDER, a, s)]
        if first == "uo" or su < so:
            runs, lo, hi = (under_run, over_run), su, so
        else:
            runs, lo, hi = (over_run, under_run), so, su
        inserts = (
            (lo, runs[0][0]), (lo + 1, runs[0][1]),
            (hi + 2, runs[1][0]), (hi + 3, runs[1][1]),
        )
        record = MoveRecord(kind, variant, inserts=inserts)

    else:
        # adjacent pairs: R1 delete and OC name both ends of their one pair,
        # R2 delete and R3 the first end of each pair
        one_pair = kind in (MoveKind.R1_DELETE, MoveKind.OC)
        pairs = (positions,) if one_pair else tuple((i, (i + 1) % L) for i in positions)
        if _CROSSING_DELTA[kind] < 0:
            removes = tuple((i, code[i]) for i in sorted(itertools.chain(*pairs)))
            record = MoveRecord(kind, variant, removes=removes)
        else:  # R3 and OC swap each pair
            record = MoveRecord(kind, variant, swaps=pairs)

    return _edit(code, record), record


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
    blocks = _over_blocks(code)
    contents = [tuple(code[i] for i in block) for block in blocks]
    for choice in itertools.product(*(itertools.permutations(c) for c in contents)):
        passages = list(code.passages)
        for block, perm in zip(blocks, choice):
            for pos, passage in zip(block, perm):
                passages[pos] = passage
        yield GaussCode(tuple(passages))


def _block_permutation_records(code: GaussCode, variant: GaussCode) -> list[MoveRecord]:
    """Over-commute records turning ``code`` into ``variant``, a code of its
    over-commute class, by adjacent transpositions inside each over block."""
    records: list[MoveRecord] = []
    current = code
    for block in _over_blocks(code):
        for k, pos in enumerate(block):
            j = next(jj for jj in range(k, len(block)) if current[block[jj]] == variant[pos])
            while j > k:
                current, rec = _apply_unchecked(current, MoveKind.OC, (block[j - 1], block[j]), "oc")
                records.append(rec)
                j -= 1
    return records


def _edge_records(code: GaussCode, want) -> tuple[list[MoveRecord], GaussCode]:
    """The records that realise on ``code`` a move-graph edge from its
    diagram to the diagram with the canonical packed encoding ``want``, and
    the code they reach: over-commute records reordering ``code`` into the
    first code of its over-commute class with a site reaching ``want``,
    then that move's record.

    Each trial is compared as a canonical packed encoding with ``want``;
    no trial builds a diagram.  A trial code comes from a site just listed
    on a valid code, so it is not validated: ``code`` is, by
    :func:`oc_class`."""
    kind = _KIND_BY_DELTA.get(len(want) - code.n)
    if kind is not None:
        for variant in oc_class(code):
            for site in _sites(variant, kind):
                new_code, rec = _apply_unchecked(variant, kind, *site)
                if _canonical_encoding(_code_packed(new_code)) == want:
                    return _block_permutation_records(code, variant) + [rec], new_code
    raise DomainError("states are not one move apart")


def _subsets(items: list[int]) -> Iterator[tuple[int, ...]]:
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


def _inserted(entries, u: int, k: int) -> list[int]:
    """Entries after k new crossings are inserted right after position u:
    heads beyond u move up by k, and the new entries are left as -1."""
    shifted = [v + 2 * k if v >> 1 > u else v for v in entries]
    return shifted[: u + 1] + [-1] * k + shifted[u + 1 :]


def _r1_inserts(e, gaps) -> Iterator:
    n = len(e)
    if n == 0:
        for v in (1, 0):  # sign +1, then -1
            yield _pack([v])
        return
    for u in range(n):
        c = u + 1
        base = _inserted(e, u, 1)
        for moved in _subsets(gaps[u]):
            new = base[:]
            for i in moved:
                new[i + 1 if i > u else i] += 2  # head u becomes c
            for own in (u, c):  # ou: c's over lies in u's gap; uo: in its own
                for s in (1, 0):
                    new[c] = 2 * own + s
                    yield _pack(new)


def _r2_inserts(e, gaps) -> Iterator:
    n = len(e)
    if n == 0:
        for s in (1, 0):
            yield _pack([2 + s, 3 - s])
        return
    for u in range(n):
        f, g = u + 1, u + 2
        base = _inserted(e, u, 2)
        targets = [h + 2 if h > u else h for h in range(n)] + [g]
        for moved in _subsets(gaps[u]):
            new = base[:]
            for i in moved:
                new[i + 2 if i > u else i] += 4  # head u becomes g
            for t in targets:
                for s in (1, 0):  # f gets the sign, g the opposite one
                    new[f], new[g] = 2 * t + s, 2 * t + 1 - s
                    yield _pack(new)


@functools.lru_cache(maxsize=2048)
def _delete_table(n: int, x: int, k: int):
    """Relabel table of deleting the k positions from x on (k = 1 for R1,
    2 for R2) from n crossings: heads at a deleted position move to
    pred(x), and the kept positions close up."""
    gone = {(x + i) % n for i in range(k)}
    position = {old: new for new, old in enumerate(i for i in range(n) if i not in gone)}
    # pred(x) is deleted only when nothing is kept
    heads = [position.get((x - 1) % n if h in gone else h, 0) for h in range(n)]
    return _tables([2 * h + s for h in heads for s in (0, 1)])[0]


def _r1_deletes(e, gaps) -> Iterator:
    n = len(e)
    for c in range(n):
        h = e[c] >> 1
        if h == c or h == (c - 1) % n:
            yield _relabelled(e[:c] + e[c + 1 :], _delete_table(n, c, 1))


def _has_delete(e) -> bool:
    """Whether the diagram with the packed encoding ``e`` has an R1 or R2
    delete, by the rules of :func:`_r1_deletes` and :func:`_r2_deletes`,
    with nothing built: some c has head[c] in {c, pred(c)}, or some x has
    an empty gap and ``e[x] ^ e[succ(x)] == 1``."""
    n = len(e)
    for c in range(n):
        h = e[c] >> 1
        if h == c or h == (c - 1) % n:
            return True
    heads = {v >> 1 for v in e}
    return any(e[x] ^ e[(x + 1) % n] == 1 and x not in heads for x in range(n))


def _r2_deletes(e, gaps) -> Iterator:
    n = len(e)
    for x in range(n):
        y = (x + 1) % n
        # same head, opposite signs: the entries differ in the sign bit only
        if gaps[x] or e[x] ^ e[y] != 1:
            continue
        kept = e[:x] + e[x + 2 :] if y else e[1:x]
        yield _relabelled(kept, _delete_table(n, x, 2))


def _r3_moves(e, gaps) -> Iterator:
    """R3 neighbours of both bottom orders: the bottom pair ``(z, y)`` is
    ``(p, q)`` for e_b = 0 and ``(q, p)`` for e_b = 1."""
    n = len(e)
    for p in range(n):
        if gaps[p]:
            continue
        q = (p + 1) % n
        # swapping the two unders moves the labels, not the gap contents
        for e_b in (0, 1):
            z, y = (q, p) if e_b else (p, q)
            for x in gaps[e[y] >> 1]:  # the x with head[x] = head[y]
                if x == p or x == q:
                    continue
                before_x = (x - 1) % n
                if e[z] >> 1 == before_x:
                    e_m, moved_to = 0, x
                elif e[z] >> 1 == x:
                    e_m, moved_to = 1, before_x
                else:
                    continue
                # sx * sy = (-1)^(e_m + e_b): the sign bits agree exactly when e_m + e_b is even
                if (e[x] ^ e[y]) & 1 != (e_m + e_b) & 1:
                    continue
                new = list(e)
                new[z] = e[y]
                new[y] = 2 * moved_to + (e[z] & 1)  # z's label now sits at y's old position
                yield _pack(new)


def wgd_neighbors_iter(
    w: WeldedGaussDiagram,
    kinds: Iterable[MoveKind] | None = None,
    growth_allowed: bool = True,
    max_crossings: int | None = None,
) -> Iterator[WeldedGaussDiagram]:
    """Yield the canonical one-move neighbors of w, once per diagram site;
    different sites may give the same neighbor.

    Sites are read off the diagram itself: a realizing code is
    ``U_u G_u`` for each under ``u`` in cyclic order, where the gap
    ``G_u = {c : head[c] = u}`` is the over passages between ``u`` and
    the next under, in any order (over-commutation).  So the neighbors
    are those of every code in w's over-commute class, and kinds whose
    result would have more than ``max_crossings`` crossings are skipped.
    ``pred``/``succ`` are the neighbors in the cyclic order.

    * R1 insert: for each under u, each P within G_u, order and sign,
      insert c after u; G_u minus P gets head c, and head[c] is u (ou)
      or c (uo).  With no crossings there are 2 results.
    * R2 insert: for each u, each P within G_u and sign s, insert f, g
      after u with signs s and -s; G_u minus P gets head g, and f and g
      share one head: any old under, or g.  Parallel and antiparallel
      insertions coincide modulo over-commutation.
    * R1 delete: c with head[c] in {pred(c), c}; remove c, its gap's
      contents get head pred(c).
    * R2 delete: y = succ(x) with G_x empty, head[x] = head[y] and
      opposite signs; remove both, their gap's contents get head
      pred(x).
    * R3: consecutive unders p, q with G_p empty are the bottom pair
      {y, z}; x has head[x] = head[y], and head[z] is pred(x) (e_m=0)
      or x (e_m=1).  The top pair's order e_t is free under
      over-commutation, so only sx*sy = (-1)^(e_m+e_b) is checked.
      Swap p and q, give G_q head p, and move z across x.
    * OC: w itself, when some gap holds at least two overs.
    """
    require_valid_wgd(w)
    wanted = _wanted_kinds(kinds, growth_allowed)
    if max_crossings is not None:
        # True and 2.0 compare equal to ints but are no cap
        if type(max_crossings) is not int:
            raise DomainError(f"max_crossings must be None or an int, got {max_crossings!r}")
        wanted = {k for k in wanted if w.n + _CROSSING_DELTA[k] <= max_crossings}
    raw = _raw_neighbor_encodings(_canonical_wgd_encoding(w), wanted)
    yield from map(_wgd_from_encoding, map(_canonical_encoding, raw))


def _oc_moves(e, gaps) -> Iterator:
    """``e`` itself, when some gap holds at least two overs."""
    if any(len(gap) >= 2 for gap in gaps):
        yield e


# each kind's generator, in output order
_GENERATORS = (
    (MoveKind.OC, _oc_moves),
    (MoveKind.R1_INSERT, _r1_inserts),
    (MoveKind.R2_INSERT, _r2_inserts),
    (MoveKind.R1_DELETE, _r1_deletes),
    (MoveKind.R2_DELETE, _r2_deletes),
    (MoveKind.R3, _r3_moves),
)


def _raw_neighbor_encodings(e, wanted) -> Iterator:
    """Packed encodings of the neighbors of the diagram with packed
    encoding ``e``, for the kinds in ``wanted``, once per site (the rules
    of :func:`wgd_neighbors_iter`), each with the basepoint and labels the
    site leaves it, not canonicalised.  The entry at position i is
    ``2 * head_pos + [sign > 0]``: bytes up to 128 crossings, where an R1 or
    R2 delete is a slice and one ``bytes.translate`` table and R3 writes
    two entries, and a tuple of the same ints beyond.  ``e`` is not
    validated."""
    gaps = _gaps(e)
    for kind, generate in _GENERATORS:
        if kind in wanted:
            yield from generate(e, gaps)


# the generators of the edges, every kind but OC, each with its kind's
# change in the crossing count, in the order of _GENERATORS
_EDGE_GENERATORS = tuple((_CROSSING_DELTA[kind], generate) for kind, generate in _GENERATORS if kind != MoveKind.OC)


def _edges(e, max_crossings: int) -> Iterator:
    """The raw neighbours of the diagram with packed encoding ``e`` along
    the move-graph edges whose result has at most ``max_crossings``
    crossings: :func:`_raw_neighbor_encodings` of those kinds, in its
    order."""
    room = max_crossings - len(e)
    gaps = _gaps(e)
    for delta, generate in _EDGE_GENERATORS:
        if delta <= room:
            yield from generate(e, gaps)


def wgd_neighbors(
    w: WeldedGaussDiagram,
    kinds: Iterable[MoveKind] | None = None,
    growth_allowed: bool = True,
    max_crossings: int | None = None,
) -> set[WeldedGaussDiagram]:
    """Deduplicated set of one-move neighbors of w (canonical forms)."""
    return set(wgd_neighbors_iter(w, kinds, growth_allowed, max_crossings))
