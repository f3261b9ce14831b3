"""
Bounded equivalence search, simplification, and the exact atlas.

States are canonical welded Gauss diagrams; codes are rematerialized on
demand when a replayable move path is requested.  Every reported
equivalence carries such a path; a negative answer is always Unknown
(budget exhaustion bounds the exploration, it proves nothing).

The atlas needs no budget: it enumerates every diagram up to a crossing
cap and takes the connected components of the move graph on them, which
are the equivalence classes of that graph exactly.

Equivalence queries run a bidirectional breadth-first search, expanding
whichever frontier is smaller.  Path extraction re-derives each edge of
the discovered state sequence on the concrete code, inserting explicit
over-commute records where the realization has to be reordered first, so
the returned record list replays start to finish with no hidden
normalization.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass

from .convert import gauss_to_wgd, wgd_to_gauss
from .invariants import Group, InvariantFingerprint, fingerprint
from .model import (
    DomainError,
    GaussCode,
    WeldedGaussDiagram,
    canonical_wgd,
    require_valid_wgd,
    wgd_encoding,
    wgd_to_obj,
)
from .moves import (
    MoveKind,
    MoveRecord,
    MoveSite,
    apply,
    enumerate_sites,
    replay,
    wgd_neighbors,
    _CROSSING_DELTA,
    _over_blocks,
)


@dataclass(frozen=True)
class SearchBudget:
    max_crossings: int
    max_states: int = 5000
    max_depth: int = 16

    def validate(self) -> None:
        if self.max_crossings < 0 or self.max_states < 1 or self.max_depth < 1:
            raise DomainError("budget fields must be positive")


@dataclass(frozen=True)
class EquivalenceOutcome:
    """``equivalent`` False means Unknown: the budget was exhausted before
    a path was found.  It is never a disproof."""

    equivalent: bool
    path: tuple[MoveRecord, ...] | None = None
    reason: str = ""
    states_explored: int = 0


def _neighbor_keys(state: WeldedGaussDiagram, max_crossings: int, cache: dict) -> list:
    key = wgd_encoding(state)
    hit = cache.get(key)
    if hit is None:
        nbs = wgd_neighbors(state, max_crossings=max_crossings)
        hit = sorted(nbs, key=lambda nb: (nb.n, wgd_encoding(nb)))
        cache[key] = hit
    return hit


def _state_key(w: WeldedGaussDiagram) -> tuple:
    return (w.n, wgd_encoding(w))


def are_equivalent(
    w1: WeldedGaussDiagram, w2: WeldedGaussDiagram, budget: SearchBudget
) -> EquivalenceOutcome:
    """Decide reachability in the move graph within the budget.

    Returns Equivalent with a replayable record path from w1's realization
    to a realization of w2, or Unknown on exhaustion.  Deterministic for
    fixed inputs and budget.
    """
    budget.validate()
    require_valid_wgd(w1)
    require_valid_wgd(w2)
    a, b = canonical_wgd(w1), canonical_wgd(w2)
    if budget.max_crossings < max(a.n, b.n):
        raise DomainError("max_crossings is below an endpoint's crossing count")
    if a == b:
        return EquivalenceOutcome(True, (), states_explored=1)

    cache: dict = {}
    sides = [
        {"visited": {_state_key(a): None}, "states": {_state_key(a): a}, "frontier": [_state_key(a)], "depth": 0},
        {"visited": {_state_key(b): None}, "states": {_state_key(b): b}, "frontier": [_state_key(b)], "depth": 0},
    ]

    def total_visited() -> int:
        return len(sides[0]["visited"]) + len(sides[1]["visited"])

    while sides[0]["frontier"] and sides[1]["frontier"]:
        if sides[0]["depth"] + sides[1]["depth"] >= budget.max_depth:
            return EquivalenceOutcome(False, reason="depth budget exhausted", states_explored=total_visited())
        side = sides[0] if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else sides[1]
        new_frontier = []
        for key in sorted(side["frontier"]):
            for nb in _neighbor_keys(side["states"][key], budget.max_crossings, cache):
                nb_key = _state_key(nb)
                if nb_key not in side["visited"]:
                    side["visited"][nb_key] = key
                    side["states"][nb_key] = nb
                    new_frontier.append(nb_key)
            if total_visited() > budget.max_states:
                return EquivalenceOutcome(False, reason="state budget exhausted", states_explored=total_visited())
        side["frontier"] = new_frontier
        side["depth"] += 1
        meetings = set(sides[0]["visited"]) & set(sides[1]["visited"])
        if meetings:
            meeting = min(meetings)
            seq = _state_sequence(sides, meeting)
            records = derive_path(seq)
            return EquivalenceOutcome(True, tuple(records), states_explored=total_visited())
    return EquivalenceOutcome(False, reason="move graph exhausted within crossing budget", states_explored=total_visited())


def _state_sequence(sides, meeting) -> list[WeldedGaussDiagram]:
    back = []
    key = meeting
    while key is not None:
        back.append(sides[0]["states"][key])
        key = sides[0]["visited"][key]
    seq = list(reversed(back))
    key = sides[1]["visited"][meeting]
    while key is not None:
        seq.append(sides[1]["states"][key])
        key = sides[1]["visited"][key]
    return seq


def _block_permutation_records(code: GaussCode, target_contents) -> tuple[list[MoveRecord], GaussCode]:
    """Over-commute records rearranging each over block of ``code`` into
    ``target_contents``, by adjacent transpositions."""
    blocks = _over_blocks(code)
    records: list[MoveRecord] = []
    current = code
    for block, target in zip(blocks, target_contents):
        for k in range(len(block)):
            j = next(jj for jj in range(k, len(block)) if current[block[jj]] == target[k])
            while j > k:
                site = MoveSite(MoveKind.OC, (block[j - 1], block[j]), "oc")
                current, rec = apply(current, site)
                records.append(rec)
                j -= 1
    return records, current


def derive_path(states: list[WeldedGaussDiagram]) -> list[MoveRecord]:
    """Record path realizing a sequence of adjacent states, starting from
    the first state's realization.  Each step may prepend over-commute
    records before its Reidemeister record."""
    if not states:
        return []
    code = wgd_to_gauss(canonical_wgd(states[0]))
    records: list[MoveRecord] = []
    for target in states[1:]:
        step = _edge_records(code, target)
        records.extend(step)
        code = replay(code, step)
    return records


# the one Reidemeister kind that changes the crossing count by each amount
_KIND_BY_DELTA = {delta: kind for kind, delta in _CROSSING_DELTA.items() if kind != MoveKind.OC}


def _edge_records(code: GaussCode, target: WeldedGaussDiagram) -> list[MoveRecord]:
    kind = _KIND_BY_DELTA.get(target.n - code.n)
    if kind is not None:
        blocks = _over_blocks(code)
        contents = [tuple(code[i] for i in block) for block in blocks]
        for choice in itertools.product(*(itertools.permutations(c) for c in contents)):
            oc_records, variant_code = _block_permutation_records(code, choice)
            for site in enumerate_sites(variant_code, kinds=(kind,)):
                new_code, rec = apply(variant_code, site)
                if gauss_to_wgd(new_code) == target:
                    return oc_records + [rec]
    raise DomainError("states are not one move apart")


# ---------------------------------------------------------------------------
# simplification

def simplify(w: WeldedGaussDiagram, budget: SearchBudget) -> WeldedGaussDiagram:
    """Reachable diagram of minimal crossing count found within budget.

    Best-first on crossing count, so shrinking paths are explored before
    growth; never returns more crossings than the input; deterministic.
    """
    budget.validate()
    require_valid_wgd(w)
    start = canonical_wgd(w)
    if budget.max_crossings < start.n:
        raise DomainError("max_crossings is below the input's crossing count")
    best = start
    cache: dict = {}
    visited = {_state_key(start)}
    heap = [(_state_key(start), 0)]
    states = {_state_key(start): start}
    while heap:
        key, depth = heapq.heappop(heap)
        state = states[key]
        if key < _state_key(best):
            best = state
        if best.n == 0:
            return best
        if depth >= budget.max_depth:
            continue
        for nb in _neighbor_keys(state, budget.max_crossings, cache):
            nb_key = _state_key(nb)
            if nb_key in visited:
                continue
            if len(visited) >= budget.max_states:
                break
            visited.add(nb_key)
            states[nb_key] = nb
            heapq.heappush(heap, (nb_key, depth + 1))
    return best


# ---------------------------------------------------------------------------
# atlas

@dataclass(frozen=True)
class AtlasRecord:
    wgd: WeldedGaussDiagram
    fingerprint: InvariantFingerprint
    class_id: int
    orbit_id: int
    capped = False  # not a field: classes are exact; bench/tracer.py still reads it


def enumerate_canonical_wgds(n_max: int) -> list[WeldedGaussDiagram]:
    """All canonical welded Gauss diagrams with up to n_max crossings,
    sorted by (crossing count, encoding)."""
    out = [WeldedGaussDiagram((), {}, {})]
    for n in range(1, n_max + 1):
        labels = tuple(range(1, n + 1))
        seen = set()
        for heads in itertools.product(labels, repeat=n):
            for signs in itertools.product((1, -1), repeat=n):
                w = canonical_wgd(
                    WeldedGaussDiagram(labels, dict(zip(labels, heads)), dict(zip(labels, signs)))
                )
                key = wgd_encoding(w)
                if key not in seen:
                    seen.add(key)
                    out.append(w)
    return sorted(out, key=_state_key)


def build_atlas(
    n_max: int,
    max_crossings: int,
    primes=(3, 5),
    groups: tuple[Group, ...] = (),
) -> list[AtlasRecord]:
    """Enumerate canonical diagrams up to n_max crossings, group them into
    the connected components of the move graph on all diagrams with at
    most max_crossings crossings, and pair classes under global reversal.

    Every growth edge is the inverse of a shrink edge, so the components
    are found by union-find over the R1-delete, R2-delete and R3
    neighbours of every diagram within the cap.  The classes are exact
    for that graph: no budget is involved.  Class and orbit ids depend
    only on n_max and max_crossings.
    """
    from .symmetry import global_reversal

    if not 0 <= n_max <= max_crossings:
        raise DomainError("need 0 <= n_max <= max_crossings")
    states = enumerate_canonical_wgds(max_crossings)
    index = {_state_key(w): i for i, w in enumerate(states)}

    parent = list(range(len(states)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i, w in enumerate(states):
        for nb in wgd_neighbors(w, growth_allowed=False):
            union(i, index[_state_key(nb)])

    # states are sorted by crossing count and roots are minimal indices,
    # so the seeds are a prefix and every seed's root is a seed
    seeds = [w for w in states if w.n <= n_max]
    keys = [_state_key(w) for w in seeds]
    prints = [fingerprint(w, primes=primes, groups=groups) for w in seeds]

    class_ids: dict[int, int] = {}
    for i in range(len(seeds)):
        root = find(i)
        if root not in class_ids:
            class_ids[root] = len(class_ids)

    class_of_key = {keys[i]: class_ids[find(i)] for i in range(len(seeds))}
    partner: dict[int, int] = {}
    for root, cid in class_ids.items():
        rev_key = _state_key(global_reversal(seeds[root]))
        partner[cid] = class_of_key[rev_key]

    orbit_ids: dict[int, int] = {}
    for cid in sorted(class_ids.values()):
        rep = min(cid, partner[cid])
        if rep not in orbit_ids:
            orbit_ids[rep] = len(orbit_ids)

    records = []
    for i, w in enumerate(seeds):
        cid = class_ids[find(i)]
        records.append(
            AtlasRecord(
                wgd=w,
                fingerprint=prints[i],
                class_id=cid,
                orbit_id=orbit_ids[min(cid, partner[cid])],
            )
        )
    return records


def atlas_to_jsonl(records) -> str:
    """One structured object per line with fields wgd, fingerprint, class, orbit."""
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "wgd": wgd_to_obj(r.wgd),
                    "fingerprint": r.fingerprint.as_dict(),
                    "class": r.class_id,
                    "orbit": r.orbit_id,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
