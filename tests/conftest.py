import functools
import itertools
import os
import random
from pathlib import Path
from typing import NamedTuple

import pytest

from weldedknots import (
    ALL_KINDS,
    GaussCode,
    Group,
    MoveKind,
    Passage,
    WeldedGaussDiagram,
    canonical_wgd,
    enumerate_sites,
    gauss_to_wgd,
    oc_class,
    wgd_to_gauss,
)
from weldedknots.model import OVER, UNDER, _canonical_encoding, _canonical_encodings, _pack
from weldedknots.moves import _apply_unchecked, _gaps, _match_oc, _r1_deletes, _r2_deletes


def random_code(rng: random.Random, n: int) -> GaussCode:
    """Any arrangement of n over/under pairs with per-crossing signs is a
    valid code, so a shuffle samples the whole space."""
    passages = []
    for c in range(1, n + 1):
        s = rng.choice((1, -1))
        passages.append(Passage(OVER, c, s))
        passages.append(Passage(UNDER, c, s))
    rng.shuffle(passages)
    return GaussCode(tuple(passages))


def random_wgd(rng: random.Random, n: int) -> WeldedGaussDiagram:
    labels = list(range(1, n + 1))
    order = labels[:]
    rng.shuffle(order)
    head = {c: rng.choice(labels) for c in labels}
    sign = {c: rng.choice((1, -1)) for c in labels}
    return WeldedGaussDiagram(tuple(order), head, sign)


def scrambled(w: WeldedGaussDiagram, rng: random.Random) -> WeldedGaussDiagram:
    """``w`` rotated and relabelled with n+1..2n: never canonical for n >= 1."""
    labels = list(range(w.n + 1, 2 * w.n + 1))
    rng.shuffle(labels)
    rename = dict(zip(w.order, labels))
    r = rng.randrange(max(w.n, 1))
    order = [rename[c] for c in w.order[r:] + w.order[:r]]
    return WeldedGaussDiagram(order, {rename[c]: rename[h] for c, h in w.head.items()},
                              {rename[c]: s for c, s in w.sign.items()})


@pytest.fixture
def rng():
    return random.Random(20260808)


def reference_wgd() -> WeldedGaussDiagram:
    """Six-crossing running example (labels 1..6 standing for a..f)."""
    order = (1, 2, 3, 4, 5, 6)
    head = {1: 3, 2: 3, 3: 2, 4: 5, 5: 2, 6: 2}
    sign = {1: 1, 2: 1, 3: -1, 4: -1, 5: -1, 6: 1}
    return WeldedGaussDiagram(order, head, sign)


TREFOIL_TEXT = "O1+ U2+ O3+ U1+ O2+ U3+"

# the alternating group A4, no built-in group and no dihedral one: the even
# permutations of 0..3, those with an even number of inversions
_EVEN = [p for p in itertools.permutations(range(4)) if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
A4 = Group("A4", tuple(tuple(_EVEN.index(tuple(a[b[x]] for x in range(4))) for b in _EVEN) for a in _EVEN))


ROOT = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def oracle_neighbors_iter(w: WeldedGaussDiagram, kinds=None, growth_allowed: bool = True):
    """The code-level neighbour generator: every site of every code in
    the over-commute class of w's realization, applied and converted
    back.  Slow; the diagram-level generator must agree with it."""
    w = canonical_wgd(w)
    rep = wgd_to_gauss(w)
    wanted = ALL_KINDS if kinds is None else frozenset(kinds)
    # over-commutations never change the diagram, so one witness suffices
    if MoveKind.OC in wanted and any(_match_oc(rep, i) for i in range(len(rep))):
        yield w
    wanted = wanted - {MoveKind.OC}
    for variant_code in oc_class(rep):
        for site in enumerate_sites(variant_code, wanted, growth_allowed):
            new_code, _ = _apply_unchecked(variant_code, site.kind, site.positions, site.variant)
            yield gauss_to_wgd(new_code)


def oracle_wgd_encoding(w: WeldedGaussDiagram) -> tuple:
    """``wgd_encoding(canonical_wgd(w))`` by brute force: every rotation of
    w's order, relabelled 1..n, as ``((head, sign), ...)``, and the least
    of them.  Uses none of the package's canonical-form code."""
    best = ()
    for r in range(len(w.order)):
        rotated = w.order[r:] + w.order[:r]
        rename = {c: j + 1 for j, c in enumerate(rotated)}
        encoding = tuple((rename[w.head[c]], w.sign[c]) for c in rotated)
        if r == 0 or encoding < best:
            best = encoding
    return best


def oracle_canonical_encodings(n_max: int) -> list[tuple]:
    """Every head/sign assignment, in encoding order, that is its own
    canonical encoding by :func:`oracle_wgd_encoding`: the unpruned
    enumeration, (2n)^n assignments per n."""
    out = [()]
    for n in range(1, n_max + 1):
        labels = range(1, n + 1)
        pairs = [(h, s) for h in labels for s in (-1, 1)]
        for encoding in itertools.product(pairs, repeat=n):
            heads, signs = zip(*encoding)
            w = WeldedGaussDiagram(labels, dict(zip(labels, heads)), dict(zip(labels, signs)))
            if oracle_wgd_encoding(w) == encoding:
                out.append(encoding)
    return out


def oracle_r3_moves(e, gaps, e_bs) -> list:
    """The R3 neighbours of the packed encoding ``e`` whose bottom order
    e_b is in ``e_bs``: the bottom pair ``(z, y)`` is ``(p, q)`` for
    e_b = 0 and ``(q, p)`` for e_b = 1.  The rule of ``moves._r3_moves``,
    split by bottom order; over both orders the two must agree."""
    n, out = len(e), []
    if n < 3:
        return out
    for p in range(n):
        if gaps[p]:
            continue
        q = (p + 1) % n
        for e_b in e_bs:
            z, y = (q, p) if e_b else (p, q)
            for x in gaps[e[y] >> 1]:
                if x == p or x == q:
                    continue
                before_x = (x - 1) % n
                if e[z] >> 1 == before_x:
                    e_m, moved_to = 0, x
                elif e[z] >> 1 == x:
                    e_m, moved_to = 1, before_x
                else:
                    continue
                if (e[x] ^ e[y]) & 1 != (e_m + e_b) & 1:
                    continue
                new = list(e)
                new[z] = e[y]
                new[y] = 2 * moved_to + (e[z] & 1)
                out.append(_pack(new))
    return out


def oracle_spanning_shrink_neighbors(e) -> list:
    """The raw shrink neighbours of the packed canonical encoding ``e``
    that the oracle atlas unions, a spanning subset of the shrink edges:

    * its first R1 delete only: deleting kinks c1 and c2 in either order
      gives one diagram, and a kink stays a kink once another is deleted,
      so any two R1 deletes share an R1 delete;
    * its first R2 delete, and only when it has no kink: with a kink c,
      an R2 delete of a pair without c commutes with deleting c, and one
      of a pair with c is two R1 deletes; without a kink, R2 deletes of
      disjoint pairs commute and overlapping pairs give one diagram;
    * its R3 moves with bottom order e_b = 0 only: the move
      (p, q, x, e_b, e_m) is undone by (p, q, x, 1 - e_b, 1 - e_m) from
      its target, so every R3 edge is found from one end.

    Every growth edge is the inverse of a shrink edge, and induction on
    the crossing count joins the ends of every shrink edge, so the
    components are those of the full move graph."""
    gaps = _gaps(e)
    r3 = oracle_r3_moves(e, gaps, (0,))
    first_delete = next(_r1_deletes(e, _gaps(e)), None)
    if first_delete is None:
        first_delete = next(_r2_deletes(e, gaps), None)
    return r3 if first_delete is None else [first_delete, *r3]


def oracle_find(parent: list, i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def oracle_union_components(states: list) -> list:
    """Union-find parents over ``states``, the sorted packed canonical
    encodings of every diagram within a cap, joining each state to its
    spanning shrink neighbours.  Roots are linked by least index, so every
    root is the least state of its component."""
    index = {e: i for i, e in enumerate(states)}
    parent = list(range(len(states)))
    for i, e in enumerate(states):
        for raw in oracle_spanning_shrink_neighbors(e):
            j = index.get(raw)
            if j is None:  # each distinct raw neighbour is canonicalised once
                j = index[raw] = index[_canonical_encoding(raw)]
            a, b = oracle_find(parent, i), oracle_find(parent, j)
            parent[max(a, b)] = min(a, b)
    return parent


@functools.lru_cache(maxsize=None)
def oracle_components(max_crossings: int) -> dict:
    """The full enumeration within the cap, each state mapped to the least
    state of its component by :func:`oracle_union_components`."""
    states = _canonical_encodings(max_crossings)
    parent = oracle_union_components(states)
    return {e: states[oracle_find(parent, i)] for i, e in enumerate(states)}


def long_wgd(n: int) -> WeldedGaussDiagram:
    """An n-crossing diagram (n >= 110) whose gaps hold at most two overs,
    so its over-commute class has 8 codes, with an R1 delete site at 50,
    an R2 delete site at (100, 101) and an R3 site at (103, 104)."""
    head = {c: (c + 2) % n for c in range(n)}  # gap u holds u - 2
    sign = dict.fromkeys(range(n), 1)
    head[50] = 50
    head[98] = 52
    head[100] = head[101] = 102
    sign[101] = -1
    head[105] = 106
    sign[105] = -1
    return WeldedGaussDiagram(
        range(1, n + 1), {c + 1: h + 1 for c, h in head.items()}, {c + 1: s for c, s in sign.items()}
    )


def scan_back_head(code: GaussCode, i: int) -> int:
    """Independent oracle for the head map: walk backwards one position at
    a time until an under passage appears."""
    L = len(code)
    j = (i - 1) % L
    while code[j].role != UNDER:
        j = (j - 1) % L
    return code[j].crossing


class CrossingArcs(NamedTuple):
    crossing: int
    over_arc: int
    in_arc: int
    out_arc: int
    sign: int


class ArcStructure(NamedTuple):
    arc_count: int
    crossings: tuple[CrossingArcs, ...]


def oracle_arcs(code: GaussCode) -> ArcStructure:
    """Oracle for the arcs the counts read, through :func:`scan_back_head`:
    arc j starts after the j-th under passage, and an over passage runs on
    the arc that starts after the under passage found scanning back from it."""
    unders = [p for p in code.passages if p.role == UNDER]
    if not unders:
        return ArcStructure(1, ())
    n = len(unders)
    arc_after = {p.crossing: j for j, p in enumerate(unders)}
    over_arc = {p.crossing: arc_after[scan_back_head(code, i)] for i, p in enumerate(code) if p.role == OVER}
    return ArcStructure(n, tuple(
        CrossingArcs(crossing=p.crossing, over_arc=over_arc[p.crossing], in_arc=(j - 1) % n, out_arc=j, sign=p.sign)
        for j, p in enumerate(unders)
    ))


def coloring_count_bruteforce(code: GaussCode, p: int) -> int:
    """Oracle for ``coloring_count``: try every assignment of Z/p colours
    to the arcs of :func:`oracle_arcs` and test ``out = 2 * over - in`` at
    every crossing."""
    structure = oracle_arcs(code)
    relations = [(c.out_arc, c.in_arc, c.over_arc) for c in structure.crossings]
    count = 0
    for colour in itertools.product(range(p), repeat=structure.arc_count):
        for out_arc, in_arc, over_arc in relations:
            if (colour[out_arc] + colour[in_arc] - 2 * colour[over_arc]) % p:
                break
        else:
            count += 1
    return count
