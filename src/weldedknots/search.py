"""
Bounded equivalence search, simplification, and the exact atlas.

States are packed canonical encodings (see :mod:`weldedknots.model`),
ordered by (crossing count, encoding) for determinism.  Every search
expands them through :func:`_expand`, which canonicalises each raw
neighbour once per walk.  Diagrams are built only at the API boundary:
for the states of a found path, whose codes are rematerialized into a
replayable move path, and for the result of :func:`simplify`.  Every
reported equivalence carries such a path; a negative answer is always
Unknown (budget exhaustion bounds the exploration, it proves nothing).

The atlas needs no budget: its classes are the connected components of
the move graph on all diagrams up to a crossing cap, found exactly.  It
classifies only its seeds, the diagrams up to a smaller crossing count,
and floods only the components that hold a seed:

* a seed with an R1 or R2 delete shares the class of that smaller
  diagram, because a delete is an edge;
* any other seed floods its component best-first by (crossing count,
  encoding), the walk of :func:`simplify`, and an exhausted flood, which
  follows every edge within the cap, is exactly the component, so it
  classifies every seed inside;
* labels pass only along edges, and an exhausted flood labels its whole
  component, so a labelled seed met by a flood is trivial, and the flood
  stops there; which labelled seed it meets first does not matter.

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
import operator
from dataclasses import dataclass

from .convert import gauss_to_wgd, wgd_to_gauss
from .invariants import Group, InvariantFingerprint, _fingerprint_terms, _fingerprints
from .model import (
    DomainError,
    GaussCode,
    WeldedGaussDiagram,
    canonical_wgd,
    require_valid_wgd,
    wgd_to_obj,
    _canonical_encoding,
    _canonical_reversal,
    _canonical_wgd_encoding,
    _gaps,
    _pack,
    _wgd_from_encoding,
)
from .moves import (
    MoveKind,
    MoveRecord,
    MoveSite,
    apply,
    enumerate_sites,
    oc_class,
    replay,
    _CROSSING_DELTA,
    _kinds_with_room,
    _over_blocks,
    _r1_deletes,
    _r2_deletes,
    _raw_neighbor_encodings,
)


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one search.  ``max_states`` is tested after each state's
    expansion, not per neighbour, so a search stopped by it can report more
    explored states than ``max_states``."""

    max_crossings: int
    max_states: int = 5000
    max_depth: int = 16

    def validate(self) -> None:
        # True and 2.0 compare equal to ints but are no limit
        if any(type(x) is not int for x in (self.max_crossings, self.max_states, self.max_depth)):
            raise DomainError("budget fields must be ints")
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


def _size_then_encoding(e) -> tuple:
    return (len(e), e)


def _expand(state, max_crossings: int, seen: set) -> list:
    """The neighbours of ``state`` within ``max_crossings`` crossings that
    are not in ``seen``, in state order.  ``seen``, one per walk, holds
    every encoding whose canonical form has been reached, raw neighbours
    and states alike, so each raw neighbour is canonicalised once per walk."""
    new = []
    for raw in _raw_neighbor_encodings(state, _kinds_with_room(max_crossings - len(state))):
        if raw in seen:
            continue
        nb = _canonical_encoding(raw)
        if nb not in seen:
            seen.add(nb)
            new.append(nb)
        seen.add(raw)
    return sorted(new, key=_size_then_encoding)


def _best_first(start, max_crossings: int, max_depth: int | None = None):
    """Yield the states other than ``start`` reachable within
    ``max_crossings`` crossings and ``max_depth`` moves (None: no limit),
    in the order found: expanded best-first by (crossing count, encoding),
    each expansion's new states in state order."""
    seen = {start}
    # states are distinct, so (crossing count, state) orders the heap alone
    heap = [(len(start), start, 0)]
    while heap:
        _, state, depth = heapq.heappop(heap)
        if depth == max_depth:
            continue
        for nb in _expand(state, max_crossings, seen):
            yield nb
            heapq.heappush(heap, (len(nb), nb, depth + 1))


def are_equivalent(
    w1: WeldedGaussDiagram, w2: WeldedGaussDiagram, budget: SearchBudget
) -> EquivalenceOutcome:
    """Decide reachability in the move graph within the budget.

    Returns Equivalent with a replayable record path from w1's realization
    to a realization of w2, or Unknown on exhaustion.  Deterministic for
    fixed inputs and budget.  The state budget is tested once a state's
    neighbours are all added, so "state budget exhausted" comes with
    ``states_explored`` up to one expansion above ``max_states`` (301 to
    375 at ``max_states=300`` on the golden pairs).
    """
    budget.validate()
    require_valid_wgd(w1)
    require_valid_wgd(w2)
    a, b = _canonical_wgd_encoding(w1), _canonical_wgd_encoding(w2)
    if budget.max_crossings < max(len(a), len(b)):
        raise DomainError("max_crossings is below an endpoint's crossing count")
    if a == b:
        return EquivalenceOutcome(True, (), states_explored=1)

    # per side, each visited state -> the state it was reached from, and
    # the side's walk set (see _expand)
    parents = ({a: None}, {b: None})
    seen = ({a}, {b})
    frontiers = [[a], [b]]
    layers = 0

    def total_visited() -> int:
        return len(parents[0]) + len(parents[1])

    while frontiers[0] and frontiers[1]:
        if layers >= budget.max_depth:
            return EquivalenceOutcome(False, reason="depth budget exhausted", states_explored=total_visited())
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        new_frontier = []
        for state in sorted(frontiers[side], key=_size_then_encoding):
            for nb in _expand(state, budget.max_crossings, seen[side]):
                parents[side][nb] = state
                new_frontier.append(nb)
            if total_visited() > budget.max_states:
                return EquivalenceOutcome(False, reason="state budget exhausted", states_explored=total_visited())
        frontiers[side] = new_frontier
        layers += 1
        # the sides were disjoint before this layer, so they can meet only
        # in its new states
        meetings = [w for w in new_frontier if w in parents[1 - side]]
        if meetings:
            meeting = min(meetings, key=_size_then_encoding)
            seq = _walk(parents[0], meeting)[::-1] + _walk(parents[1], meeting)[1:]
            path = derive_path([_wgd_from_encoding(e) for e in seq])
            return EquivalenceOutcome(True, tuple(path), states_explored=total_visited())
    return EquivalenceOutcome(False, reason="move graph exhausted within crossing budget", states_explored=total_visited())


def _walk(parents: dict, state) -> list:
    """``state`` and the states it was reached through, back to the start."""
    seq = []
    while state is not None:
        seq.append(state)
        state = parents[state]
    return seq


def _block_permutation_records(code: GaussCode, variant: GaussCode) -> list[MoveRecord]:
    """Over-commute records turning ``code`` into ``variant``, a code of its
    over-commute class, by adjacent transpositions inside each over block."""
    records: list[MoveRecord] = []
    current = code
    for block in _over_blocks(code):
        for k, pos in enumerate(block):
            j = next(jj for jj in range(k, len(block)) if current[block[jj]] == variant[pos])
            while j > k:
                site = MoveSite(MoveKind.OC, (block[j - 1], block[j]), "oc")
                current, rec = apply(current, site)
                records.append(rec)
                j -= 1
    return records


def derive_path(states: list[WeldedGaussDiagram]) -> list[MoveRecord]:
    """Record path realizing a sequence of adjacent states, starting from
    the first state's realization.  Each step may prepend over-commute
    records before its Reidemeister record.  Every state is validated and
    compared up to rotation and relabelling."""
    states = [canonical_wgd(w) for w in states]
    if not states:
        return []
    code = wgd_to_gauss(states[0])
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
        for variant in oc_class(code):
            for site in enumerate_sites(variant, kinds=(kind,)):
                new_code, rec = apply(variant, site)
                if gauss_to_wgd(new_code) == target:
                    return _block_permutation_records(code, variant) + [rec]
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
    start = _canonical_wgd_encoding(w)
    if budget.max_crossings < len(start):
        raise DomainError("max_crossings is below the input's crossing count")
    best = start
    if best:
        # the start is the first of the max_states states
        found = _best_first(start, budget.max_crossings, budget.max_depth)
        for state in itertools.islice(found, budget.max_states - 1):
            best = min(best, state, key=_size_then_encoding)
            if not best:  # nothing is smaller than the empty diagram
                break
    return _wgd_from_encoding(best)


# ---------------------------------------------------------------------------
# atlas

@dataclass(frozen=True)
class AtlasRecord:
    wgd: WeldedGaussDiagram
    fingerprint: InvariantFingerprint
    class_id: int
    orbit_id: int
    capped = False  # not a field: classes are exact; bench/tracer.py still reads it


def _canonical_encodings(n_max: int) -> list:
    """Packed encodings (see :mod:`weldedknots.model`) of all canonical
    welded Gauss diagrams with up to n_max crossings, sorted by (crossing
    count, encoding): bytes, one entry ``2 * head_pos + [sign > 0]`` per
    crossing, up to 128 crossings, tuples of the same ints beyond.

    For each n, the assignments are visited in encoding order (heads
    ascending, sign -1 before +1), and an assignment is kept when it is its
    own canonical encoding, so the sort holds by construction.  The first
    entry of a canonical encoding is the least first entry of its rotations,
    so after a first entry v1 position r >= 1 may hold only the entries v
    with ``(v - 2r) mod 2n >= v1``; the other assignments are never
    visited.  Rotation r then starts with ``(v - 2r) mod 2n``, which ties
    v1 only when v is ``(v1 + 2r) mod 2n``: an assignment with no such tie
    has every other rotation start above v1, so it is canonical untested,
    and only the assignments with a tie are canonicalised."""
    out: list = [_pack([])]
    for n in range(1, n_max + 1):
        for v1 in range(2 * n):
            allowed = [[v for v in range(2 * n) if (v - 2 * r) % (2 * n) >= v1] for r in range(1, n)]
            ties = [(v1 + 2 * r) % (2 * n) for r in range(1, n)]
            for rest in itertools.product(*allowed):
                encoding = _pack((v1,) + rest)
                if any(map(operator.eq, rest, ties)) and _canonical_encoding(encoding) != encoding:
                    continue
                out.append(encoding)
    return out


def enumerate_canonical_wgds(n_max: int) -> list[WeldedGaussDiagram]:
    """All canonical welded Gauss diagrams with up to n_max crossings,
    sorted by (crossing count, encoding): the diagrams of
    :func:`_canonical_encodings`, which visits only the assignments whose
    later entries are no less than the first entry under rotation."""
    return [_wgd_from_encoding(e) for e in _canonical_encodings(n_max)]


def _require_atlas_range(n_max: int, max_crossings: int) -> None:
    if type(n_max) is not int or type(max_crossings) is not int:
        raise DomainError("n_max and max_crossings must be ints")
    if not 0 <= n_max <= max_crossings:
        raise DomainError("need 0 <= n_max <= max_crossings")


def _flood(start, max_crossings: int, labelled: dict):
    """Walk the cap-``max_crossings`` component of ``start`` best-first.
    Returns ``(met, None)`` for the first state found that is a key of
    ``labelled``, else ``(None, component)`` once the component is
    exhausted, its states in the order found.  Which labelled state comes
    first does not matter: labels pass only along edges and an exhausted
    flood labels its whole component, so each one met got its label from
    the empty diagram (see :func:`build_atlas`)."""
    component = [start]
    for state in _best_first(start, max_crossings):
        if state in labelled:
            return state, None
        component.append(state)
    return None, component


def build_atlas(
    n_max: int,
    max_crossings: int,
    primes=(3, 5),
    groups: tuple[Group, ...] = (),
) -> list[AtlasRecord]:
    """Classify the canonical diagrams with up to n_max crossings, the
    seeds, by the connected components of the move graph on all diagrams
    with at most max_crossings crossings, and pair classes under global
    reversal.

    Seeds are labelled in (crossing count, encoding) order with the least
    seed of their class; the empty diagram labels itself.  A seed with an
    R1 or R2 delete takes the label of its first delete's canonical form,
    a smaller seed.  Any other unlabelled seed floods its component
    (:func:`_flood`): a flood that meets a labelled seed makes the seed
    trivial, and an exhausted flood labels every seed it visited.  This is
    exact:

    * a delete is an edge of the move graph, so the seed and its delete
      share a component;
    * a flood follows every edge within the cap, growth ones included, so
      an exhausted flood is exactly the component;
    * labels pass only along edges and an exhausted flood labels its whole
      component, so a labelled seed in an unlabelled seed's component got
      its label from the empty diagram: it is trivial.

    So the trivial component, most diagrams within the cap, is never
    flooded, nor is a component without a seed.  States are packed
    canonical encodings (see :mod:`weldedknots.model`), which sort as
    :func:`wgd_encoding` tuples do; diagrams are built only for the seeds.
    No budget is involved.  Class and orbit ids depend only on n_max and
    max_crossings: classes are numbered by their least seed, orbits by
    their least class.
    """
    _require_atlas_range(n_max, max_crossings)
    primes, groups = _fingerprint_terms(primes, groups)
    seeds = _canonical_encodings(n_max)
    wgds = [_wgd_from_encoding(e) for e in seeds]
    prints = _fingerprints(seeds, primes, groups)

    label = {seeds[0]: seeds[0]}  # the empty diagram
    for e in seeds:
        if e in label:
            continue
        delete = next(_r1_deletes(e), None)
        if delete is None:
            delete = next(_r2_deletes(e, _gaps(e)), None)
        if delete is not None:
            label[e] = label[_canonical_encoding(delete)]
            continue
        met, component = _flood(e, max_crossings, label)
        if met is not None:
            label[e] = label[met]
            continue
        for s in component:
            if len(s) <= n_max:
                label[s] = e

    class_ids: dict = {}
    for e in seeds:
        class_ids.setdefault(label[e], len(class_ids))

    partner: dict[int, int] = {}
    for least, cid in class_ids.items():
        partner[cid] = class_ids[label[_canonical_reversal(least, flip_signs=True)]]

    orbit_ids: dict[int, int] = {}
    for cid in range(len(class_ids)):
        orbit_ids.setdefault(min(cid, partner[cid]), len(orbit_ids))

    records = []
    for e, w, fp in zip(seeds, wgds, prints):
        cid = class_ids[label[e]]
        records.append(AtlasRecord(w, fp, cid, orbit_ids[min(cid, partner[cid])]))
    return records


def atlas_to_jsonl(records) -> str:
    """One structured object per line with fields wgd, fingerprint, class,
    orbit.  Records share few fingerprints, so each distinct one is
    serialised once per call."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    prints: dict = {}
    lines = []
    for r in records:
        fp = prints.get(r.fingerprint)
        if fp is None:
            fp = prints[r.fingerprint] = encode(r.fingerprint.as_dict())
        # class and orbit ids are ints, written as json writes them
        lines.append(f'{{"wgd":{encode(wgd_to_obj(r.wgd))},"fingerprint":{fp},'
                     f'"class":{r.class_id:d},"orbit":{r.orbit_id:d}}}')
    return "\n".join(lines) + ("\n" if lines else "")
