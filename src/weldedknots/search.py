"""
Bounded equivalence search, simplification, and the exact atlas.

States are packed canonical encodings (see :mod:`weldedknots.model`),
ordered by (crossing count, encoding) for determinism.  Every walk, the
equivalence search, :func:`simplify` and the atlas floods, takes one
neighbour step, :func:`moves._edges`: the raw neighbours along the R1,
R2 and R3 edges of the move graph within the crossing cap.  Equivalence
search and :func:`simplify` expand states through :func:`_expand`, which
canonicalises each raw neighbour once per walk.  Diagrams are built only
at the API boundary: for the states of a found path, whose codes are
rematerialized into a replayable move path, and for the result of
:func:`simplify`.  Every reported equivalence carries such a path; a
negative answer is always Unknown (budget exhaustion bounds the
exploration, it proves nothing).

The atlas needs no budget: its classes are the connected components of
the move graph on all diagrams up to a crossing cap, found exactly.  In
one pass, it classifies only its seeds, the diagrams up to a smaller
crossing count, and yields each record once final; it floods only the
components that hold a seed, one orbit of components under the reversal
group G = {id, bar, rev, glob} at a time, on orbit representatives.
:func:`build_atlas` states the method and proves it exact.

Equivalence queries run a bidirectional breadth-first search, expanding
whichever frontier is smaller.  Path extraction re-derives each edge of
the discovered state sequence on the concrete code
(:func:`moves._edge_records`), inserting explicit over-commute records
where the realization has to be reordered first, so the returned record
list replays start to finish with no hidden normalization.  The states
are validated once, where :func:`derive_path` takes them; each trial
move is compared with the next state as a canonical packed encoding,
with no diagram built per trial.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass

from .convert import wgd_to_gauss
from .invariants import Group, InvariantFingerprint, _fingerprint, _fingerprint_terms
from .model import (
    DomainError,
    WeldedGaussDiagram,
    require_valid_wgd,
    _GLOB,
    _GROUP,
    _canonical_encoding,
    _canonical_encodings,
    _canonical_image,
    _canonical_wgd_encoding,
    _orbit_canonical,
    _wgd_from_encoding,
)
from .moves import MoveRecord, _edge_records, _edges, _has_delete


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one search.  ``max_states`` is tested after each state's
    expansion, not per neighbour, so a search stopped by it can report more
    explored states than ``max_states``."""

    max_crossings: int
    max_states: int = 5000
    max_depth: int = 16


def _require_budget(budget: SearchBudget) -> None:
    if not isinstance(budget, SearchBudget):
        raise DomainError(f"expected a SearchBudget, got {type(budget).__name__}")
    # True and 2.0 compare equal to ints but are no limit
    if any(type(x) is not int for x in (budget.max_crossings, budget.max_states, budget.max_depth)):
        raise DomainError("budget fields must be ints")
    if budget.max_crossings < 0 or budget.max_states < 1 or budget.max_depth < 1:
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
    """The neighbours of ``state`` along the edges within ``max_crossings``
    crossings (:func:`moves._edges`) that are not in ``seen``, in state
    order.  ``seen``, one per walk, holds every encoding whose canonical
    form has been reached, raw neighbours and states alike, so each raw
    neighbour is canonicalised once per walk."""
    new = []
    for raw in _edges(state, max_crossings):
        if raw in seen:
            continue
        nb = _canonical_encoding(raw)
        if nb not in seen:
            seen.add(nb)
            new.append(nb)
        seen.add(raw)
    return sorted(new, key=_size_then_encoding)


def _best_first(start, max_crossings: int, max_depth: int):
    """Yield the states other than ``start`` reachable within
    ``max_crossings`` crossings and ``max_depth`` moves, in the order
    found: expanded best-first by (crossing count, encoding), each
    expansion's new states in state order."""
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
    _require_budget(budget)
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


def derive_path(states: list[WeldedGaussDiagram]) -> list[MoveRecord]:
    """Record path realizing a sequence of adjacent states, starting from
    the first state's realization.  Each step may prepend over-commute
    records before its Reidemeister record.  Every state is validated and
    canonicalised once, here, so states compare up to rotation and
    relabelling: each step's trials are compared with the next state's
    canonical packed encoding (:func:`moves._edge_records`), and the last
    code reached is dropped."""
    wants = []
    try:
        for w in states:
            require_valid_wgd(w)
            wants.append(_canonical_wgd_encoding(w))
    except TypeError as e:
        raise DomainError(f"expected an iterable of welded Gauss diagrams: {e}") from e
    if not wants:
        return []
    code = wgd_to_gauss(_wgd_from_encoding(wants[0]))
    records: list[MoveRecord] = []
    for want in wants[1:]:
        step, code = _edge_records(code, want)
        records.extend(step)
    return records


# ---------------------------------------------------------------------------
# simplification

def simplify(w: WeldedGaussDiagram, budget: SearchBudget) -> WeldedGaussDiagram:
    """Reachable diagram of minimal crossing count found within budget.

    Best-first on crossing count, so shrinking paths are explored before
    growth; never returns more crossings than the input; deterministic.
    """
    _require_budget(budget)
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
    """One seed of an atlas: its packed canonical encoding (see
    :mod:`weldedknots.model`), fingerprint, class and orbit.  The encoding
    is checked to be one, bytes or a tuple of ints with entries in
    range(2n), the fingerprint an :class:`InvariantFingerprint`, and the
    ids ints, not bools, so that :attr:`wgd` and :func:`atlas_to_jsonl`
    can read them."""

    encoding: bytes | tuple
    fingerprint: InvariantFingerprint
    class_id: int
    orbit_id: int
    capped = False  # not a field: classes are exact; bench/tracer.py still reads it

    def __post_init__(self):
        # wgd and atlas_to_jsonl index per-entry tables by the entries;
        # bytes entries are never negative, so one max checks them
        e = self.encoding
        if type(e) is bytes:
            valid = not e or max(e) < 2 * len(e)
        else:
            valid = type(e) is tuple and all(type(v) is int and 0 <= v < 2 * len(e) for v in e)
        if not valid:
            raise DomainError(f"an encoding is bytes or a tuple of ints, each in range(2n) for n entries; got {e!r}")
        if type(self.fingerprint) is not InvariantFingerprint:
            raise DomainError(f"expected an InvariantFingerprint, got {type(self.fingerprint).__name__}")
        if type(self.class_id) is not int or type(self.orbit_id) is not int:
            raise DomainError(f"class and orbit ids must be ints, got {self.class_id!r} and {self.orbit_id!r}")

    @property
    def wgd(self) -> WeldedGaussDiagram:
        """The seed as a canonical diagram, built on each access."""
        return _wgd_from_encoding(self.encoding)


def enumerate_canonical_wgds(n_max: int) -> list[WeldedGaussDiagram]:
    """All canonical welded Gauss diagrams with up to n_max crossings,
    sorted by (crossing count, encoding): the diagrams of
    :func:`_canonical_encodings`, which visits only the assignments whose
    later entries are no less than the first entry under rotation."""
    if type(n_max) is not int or n_max < 0:
        raise DomainError(f"n_max must be an int >= 0, got {n_max!r}")
    return [_wgd_from_encoding(e) for e in _canonical_encodings(n_max)]


def _require_atlas_range(n_max: int, max_crossings: int) -> None:
    if type(n_max) is not int or type(max_crossings) is not int:
        raise DomainError("n_max and max_crossings must be ints")
    if not 0 <= n_max <= max_crossings:
        raise DomainError("need 0 <= n_max <= max_crossings")


def _orbit_flood(start, lift: int, stab, max_crossings: int, seed):
    """Flood the orbit representatives of the cap-``max_crossings``
    component C of ``lift.start``, where ``start`` is a representative (see
    :func:`model._orbit_canonical`) with the stabiliser ``stab``, for the
    seed ``seed`` of its orbit; :func:`build_atlas` proves the method.

    Representatives are expanded best-first by (crossing count, encoding)
    along the edges of :func:`moves._edges`, each carrying its lift g, with
    g.rep in C.  A raw neighbour y = h.r_y of a representative with lift g
    gives a new r_y the lift g.h, and an r_y with the lift l the element
    g.h.l of Stab(C), the elements of G that map C to itself.  Each raw
    neighbour is canonicalised once per flood: a map keeps its h.l, which
    is all a later meeting needs.  Returns None at the first new
    representative that precedes ``seed`` in (crossing count, encoding)
    order; otherwise, once the component is exhausted, ``(lifts,
    subgroup)``: each visited representative's lift, and Stab(C),
    generated by those elements and ``stab``."""
    bound = _size_then_encoding(seed)
    lifts = {start: lift}
    generators = set(stab)
    offsets: dict = {}  # raw neighbour h.r_y -> h.lift(r_y)
    heap = [(len(start), start)]
    while heap:
        _, rep = heapq.heappop(heap)
        g = lifts[rep]
        for raw in _edges(rep, max_crossings):
            offset = offsets.get(raw)
            if offset is None:
                r_y, h, _ = _orbit_canonical(raw)
                lift_y = lifts.get(r_y)
                if lift_y is None:
                    if _size_then_encoding(r_y) < bound:
                        return None
                    lift_y = lifts[r_y] = g ^ h
                    heapq.heappush(heap, (len(r_y), r_y))
                offset = offsets[raw] = h ^ lift_y
            generators.add(g ^ offset)
    subgroup = {0}
    for x in generators:
        subgroup |= {x ^ y for y in subgroup}
    return lifts, subgroup


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

    The reversal group G = {id, bar, rev, glob} (see
    :func:`model._orbit_canonical`) acts on the move graph by
    automorphisms: g maps the neighbours of x onto those of g.x, within the
    same cap.  So G maps components onto components, and the work is done
    on orbit representatives.  Seeds are visited in (crossing count,
    encoding) order, and only the seeds with no R1 or R2 delete can flood:

    * a seed s with no delete (:func:`moves._has_delete`, which builds
      nothing) takes r, the representative of its orbit,
      with s = k.r.  It is skipped when r has a class; otherwise r floods
      (:func:`_orbit_flood`) with lift k.  A flood stops at the first new
      representative that precedes s, and r takes the trivial class;
    * an exhausted flood from s gives H, the subgroup of G that maps the
      component C of s to itself, and registers every seed of G.C: for
      each visited representative r' with at most n_max crossings and
      lift g, and for each x in G, the canonical encoding of x.r' gets the
      class (s, (x.g)H), r' itself for x = id.  The classes of the orbit
      G.C are the cosets G/H;
    * a seed that no flood registers lies in the trivial class, that of
      the empty diagram.

    This is exact:

    * a delete of a seed, canonicalised, is a seed with fewer crossings in
      the same component, as a delete is an edge.  So the least seed of a
      component is the empty diagram or a seed with no delete;
    * a flood follows every edge within the cap, growth ones included, so
      an exhausted flood meets every representative of G.C.  By induction
      along paths from k.r, every state of C is g.r' for a visited r' and
      some g in lift(r')H: an edge from a representative with lift l to
      the raw neighbour h.r' gives r' the lift l.h, or puts l.h.lift(r')
      in H.  So every seed of G.C is registered, in its coset class.  The
      flood skips OC: its self-loop at r' would only contribute an
      element of Stab(r'), which lies in H already (below);
    * H is exactly the subgroup that maps C to itself.  Each generator
      does: l.h.lift(r') maps the state lift(r').r' of C to the state
      l.h.r' of C, and the stabiliser of r, also a generator, fixes k.r.
      Conversely, if m.C = C, the state m.k.r of C is g.r for some g in
      kH, so m.k.g lies in the stabiliser of r, and m in H.  Then the
      stabiliser of every visited r' lies in H, as it fixes the state
      lift(r').r', so a seed x.r' falls in one class whichever x names
      it;
    * a flood from s that meets a representative t preceding s leaves s
      trivial, by induction on s.  The component D of t is g.C for some g
      in G, and its least seed m precedes s.  If m is empty, D is the
      trivial component T, which G fixes, so C = T.  Otherwise m has no
      delete and came before s; a flood over G.D = G.C that exhausted
      would have registered s and its representative.  So m's
      representative started a stopped flood, whose seed, in m's orbit,
      is trivial by induction, and so are m and C;
    * a seed that no flood registers is trivial: the least seed of its
      component is empty or has no delete, and one with no delete is
      registered, with its orbit of components, unless its flood stopped.

    So the trivial component, most diagrams within the cap, is never
    flooded, nor is a component without a seed, each orbit of components
    is flooded once, and no delete is canonicalised.  Class cH has the
    global-reversal partner (glob.c)H, so orbits come from the cosets with
    no reversal of their own.  The fingerprints are invariants of the
    welded class (see :mod:`weldedknots.invariants`), so each class's is
    computed once, on its least seed, and its records share it.  States
    are packed canonical encodings (see :mod:`weldedknots.model`), which
    sort as :func:`wgd_encoding` tuples do; no diagram is built, and each
    record carries its seed's encoding.  No budget is involved.

    A record is final once its seed is reached, and one pass yields its
    row there (:func:`_atlas_records`): a flood starts only at a seed s
    that is its own representative (a smaller one, an earlier seed with no
    delete, is placed first), and registers only images x.r' >= r' >= s.
    Ids depend only on the arguments: classes by least seed, orbits by
    least class.  Each row becomes an AtlasRecord here, where the API
    hands it out; the CLI writes the rows as they come.
    """
    _require_atlas_range(n_max, max_crossings)
    return [AtlasRecord(*row) for row in _atlas_records(n_max, max_crossings, *_fingerprint_terms(primes, groups))]


def _atlas_records(n_max: int, max_crossings: int, primes: tuple[int, ...], groups: tuple[Group, ...]):
    """Yield the rows ``(encoding, fingerprint, class id, orbit id)`` of
    :func:`build_atlas`, each once final; the caller checks the arguments."""
    seeds = _canonical_encodings(n_max)

    # a class is (f, c): the coset cH of the subgroup of the seed f's
    # flood, with c its least element, read off f's coset table; the empty
    # diagram stands for the trivial class, which G fixes
    trivial = seeds[0], 0
    cosets = {seeds[0]: (0, 0, 0, 0)}
    label: dict = {}  # each registered seed, and each stopped flood's start -> its class
    classes: dict = {}  # class -> (fingerprint, class id, orbit id)
    orbit_ids: dict = {}  # (f, the least c of the orbit's cosets) -> orbit id
    for e in seeds:
        if e and not _has_delete(e):
            rep, k, stab = _orbit_canonical(e)
            if rep not in label:  # else its orbit of components is done
                found = _orbit_flood(rep, k, stab, max_crossings, e)
                if found is None:
                    label[rep] = trivial
                else:
                    lifts, subgroup = found
                    table = cosets[e] = tuple(min(c ^ h for h in subgroup) for c in _GROUP)
                    for r, g in lifts.items():
                        if len(r) <= n_max:  # r is canonical: its own image under id
                            label.update((_canonical_image(r, x) if x else r, (e, table[x ^ g])) for x in _GROUP)
        flood, c = key = label.get(e, trivial)
        known = classes.get(key)
        if known is None:  # a new class: e is its least seed
            orbit = orbit_ids.setdefault((flood, min(c, cosets[flood][_GLOB ^ c])), len(orbit_ids))
            known = classes[key] = _fingerprint(e, primes, groups), len(classes), orbit
        yield (e, *known)


def atlas_to_jsonl(records) -> str:
    """The lines of :func:`_jsonl_lines` with fields wgd, fingerprint,
    class, orbit, of AtlasRecords only, as each checked its fields."""
    try:
        records = list(records)
    except TypeError as e:
        raise DomainError(f"expected an iterable of AtlasRecords: {e}") from e
    if not all(type(r) is AtlasRecord for r in records):
        raise DomainError("expected an iterable of AtlasRecords")
    return "".join(_jsonl_lines((r.encoding, r.fingerprint, r.class_id, r.orbit_id) for r in records))


def _jsonl_lines(rows):
    """Yield each unchecked row's line, newline included.  The wgd object
    is written from the packed encoding, byte for byte as compact json
    writes :func:`model.wgd_to_obj`: labels 1..n in order, then one
    ``"c":[head,"+"|"-"]`` fragment per entry, each built once per call,
    as is each distinct fingerprint's json."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    prints: dict = {}
    layouts: dict = {}  # n -> (the order, per position the fragment of each entry)
    for e, fingerprint, class_id, orbit_id in rows:
        fp = prints.get(fingerprint)
        if fp is None:
            fp = prints[fingerprint] = encode(fingerprint.as_dict())
        layout = layouts.get(len(e))
        if layout is None:
            n = len(e)
            fragments = [[f'"{c}":[{(v >> 1) + 1},"{"+-"[not v & 1]}"]' for v in range(2 * n)] for c in range(1, n + 1)]
            layout = layouts[n] = encode(list(range(1, n + 1))), fragments
        order, fragments = layout
        # class and orbit ids are ints, written as json writes them
        yield (f'{{"wgd":{{"order":{order},"map":{{{",".join(map(list.__getitem__, fragments, e))}}}}},'
               f'"fingerprint":{fp},"class":{class_id:d},"orbit":{orbit_id:d}}}\n')
