import collections
import hashlib
import itertools
import json
import random

import pytest

from weldedknots import (
    AtlasRecord,
    DomainError,
    GROWTH_KINDS,
    MoveKind,
    MoveSite,
    SearchBudget,
    WeldedGaussDiagram,
    are_equivalent,
    atlas_to_jsonl,
    bar,
    build_atlas,
    canonical_wgd,
    decode_gauss_code,
    decode_wgd,
    derive_path,
    dihedral_group,
    encode_wgd,
    enumerate_canonical_wgds,
    fingerprint,
    gauss_to_wgd,
    global_reversal,
    replay,
    reverse,
    simplify,
    symmetric_group_3,
    wgd_encoding,
    wgd_neighbors,
    wgd_to_gauss,
)

from weldedknots.model import _canonical_encoding, _canonical_encodings, _wgd_from_encoding, _wgd_packed, wgd_to_obj
from weldedknots.moves import (
    _CROSSING_DELTA,
    _edge_records,
    _gaps,
    _r1_deletes,
    _r2_deletes,
    _r3_moves,
    _raw_neighbor_encodings,
)

from conftest import (
    A4,
    TREFOIL_TEXT,
    long_wgd,
    oracle_canonical_encodings,
    oracle_components,
    oracle_find,
    oracle_r3_moves,
    oracle_union_components,
    random_wgd,
    reference_wgd,
)

EMPTY = WeldedGaussDiagram((), {}, {})
KINK = canonical_wgd(WeldedGaussDiagram((1,), {1: 1}, {1: 1}))
TREFOIL = gauss_to_wgd(decode_gauss_code(TREFOIL_TEXT))


def _count_calls(monkeypatch, counts: collections.Counter, module, name: str, key=None) -> None:
    """Count each call of ``module.name`` in ``counts``, under ``name`` or
    under ``key`` of the call's arguments."""
    original = getattr(module, name)

    def counted(*args):
        counts[name if key is None else key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def scramble(rng: random.Random, moves: int) -> WeldedGaussDiagram:
    """Random growth-move walk away from the trivial diagram."""
    w = EMPTY
    grown = 0
    for _ in range(moves):
        options = sorted(
            wgd_neighbors(w, kinds=GROWTH_KINDS), key=lambda x: (x.n, wgd_encoding(x))
        )
        options = [nb for nb in options if grown + (nb.n - w.n) <= 4]
        if not options:
            break
        nb = options[rng.randrange(len(options))]
        grown += nb.n - w.n
        w = nb
    return w


class TestAreEquivalent:
    def test_reflexive_with_empty_path(self):
        out = are_equivalent(TREFOIL, TREFOIL, SearchBudget(max_crossings=3))
        assert out.equivalent and out.path == ()

    def test_kink_reduces_by_single_delete(self):
        out = are_equivalent(KINK, EMPTY, SearchBudget(max_crossings=1))
        assert out.equivalent
        assert len(out.path) == 1
        assert out.path[0].kind == MoveKind.R1_DELETE

    def test_trefoil_vs_empty_unknown(self):
        out = are_equivalent(TREFOIL, EMPTY, SearchBudget(max_crossings=4, max_states=150, max_depth=5))
        assert not out.equivalent
        assert out.reason

    def test_depth_budget_exhausted(self):
        out = are_equivalent(TREFOIL, EMPTY, SearchBudget(5, max_states=100_000, max_depth=1))
        assert not out.equivalent and out.path is None
        assert out.reason == "depth budget exhausted" and out.states_explored == 25

    def test_budget_violation_rejected(self):
        with pytest.raises(DomainError):
            are_equivalent(TREFOIL, EMPTY, SearchBudget(max_crossings=2))
        with pytest.raises(DomainError):
            are_equivalent(KINK, EMPTY, SearchBudget(max_crossings=1, max_states=0))

    def test_paths_replay_exactly(self, rng):
        for _ in range(15):
            w = scramble(rng, rng.randint(1, 3))
            out = are_equivalent(w, EMPTY, SearchBudget(max_crossings=w.n + 2, max_states=3000, max_depth=10))
            assert out.equivalent
            final = replay(wgd_to_gauss(canonical_wgd(w)), out.path)
            assert gauss_to_wgd(final) == EMPTY

    def test_answer_does_not_depend_on_argument_order(self):
        # the two crossings' passages share one slot of the empty code
        clasp = gauss_to_wgd(decode_gauss_code("O1+ O2- U1+ U2-"))
        budget = SearchBudget(max_crossings=2)
        forward = are_equivalent(EMPTY, clasp, budget)
        backward = are_equivalent(clasp, EMPTY, budget)
        assert forward.equivalent and backward.equivalent
        assert gauss_to_wgd(replay(wgd_to_gauss(EMPTY), forward.path)) == clasp
        assert gauss_to_wgd(replay(wgd_to_gauss(clasp), backward.path)) == EMPTY

    def test_deterministic(self, rng):
        w = scramble(rng, 2)
        budget = SearchBudget(max_crossings=w.n + 2, max_states=2000, max_depth=8)
        first = are_equivalent(w, EMPTY, budget)
        second = are_equivalent(w, EMPTY, budget)
        assert first == second

    @pytest.mark.parametrize("n", [129, 130])
    def test_across_the_bytes_tuple_boundary(self, n):
        # states are bytes up to 128 crossings and tuples beyond: the R1 and
        # R2 deletes of these diagrams land on both sides of that line
        w = canonical_wgd(long_wgd(n))
        shrink = wgd_neighbors(w, kinds={MoveKind.R1_DELETE, MoveKind.R2_DELETE})
        assert sorted(nb.n for nb in shrink) == [n - 2, n - 1]
        budget = SearchBudget(max_crossings=n, max_states=50, max_depth=1)
        for nb in shrink:
            out = are_equivalent(w, nb, budget)
            assert out.equivalent and len(out.path) == 1
            assert gauss_to_wgd(replay(wgd_to_gauss(w), out.path)) == nb
        # one expansion of w puts states of both forms on simplify's heap
        assert simplify(w, budget) == min(shrink, key=lambda nb: nb.n)


class TestDerivePath:
    def test_every_state_is_canonicalised(self):
        kink = WeldedGaussDiagram((7,), {7: 7}, {7: 1})
        path = derive_path([EMPTY, kink])
        assert [r.kind for r in path] == [MoveKind.R1_INSERT]
        assert gauss_to_wgd(replay(wgd_to_gauss(EMPTY), path)) == canonical_wgd(kink)

    def test_edge_records_return_the_code_they_reach(self, rng):
        """``_edge_records`` hands back the code its records replay to, so
        ``derive_path`` never replays them; over-commute records come first
        where a code has to be reordered."""
        reordered = 0
        for _ in range(40):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 3)))
            code = wgd_to_gauss(w)
            for nb in wgd_neighbors(w, max_crossings=w.n + 1):
                if nb == w:  # an OC self-loop is no edge
                    continue
                records, reached = _edge_records(code, _wgd_packed(nb))
                assert replay(code, records) == reached and gauss_to_wgd(reached) == nb
                assert records[-1].kind != MoveKind.OC
                reordered += len(records) > 1
        assert reordered > 0

    def test_every_state_is_validated(self):
        with pytest.raises(DomainError):
            derive_path([EMPTY, 5])

    def test_no_states_no_records(self):
        assert derive_path([]) == []

    def test_states_must_be_one_move_apart(self):
        with pytest.raises(DomainError, match="not one move apart"):
            derive_path([TREFOIL, EMPTY])

    @pytest.mark.parametrize(
        "n, cap, edges, applies",
        [(5, 5, 8, 77), (6, 6, 11, 523), (4, 5, 81, 12_561)],
    )
    def test_cliff_cost(self, n, cap, edges, applies, monkeypatch):
        """A time-free pin of the steepest path realisation known: the
        diagram with every head at crossing 1 and alternating signs, each
        edge within the cap realised alone.  Every code of the over-commute
        class is tried in turn, so the applies grow with the factorial of
        the largest gap; witness-carrying edges would cut them."""
        import weldedknots.moves

        order = tuple(range(1, n + 1))
        w = canonical_wgd(WeldedGaussDiagram(order, {c: 1 for c in order}, {c: (-1) ** c for c in order}))
        neighbours = sorted(wgd_neighbors(w, max_crossings=cap) - {w}, key=lambda x: (x.n, wgd_encoding(x)))
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, weldedknots.moves, "_apply_unchecked")
        for nb in neighbours:
            derive_path([w, nb])
        assert (len(neighbours), counts["_apply_unchecked"]) == (edges, applies)


class TestSimplify:
    def test_empty(self):
        assert simplify(EMPTY, SearchBudget(max_crossings=2)) == EMPTY

    def test_never_grows(self, rng):
        for _ in range(20):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 4)))
            out = simplify(w, SearchBudget(max_crossings=w.n + 2, max_states=300, max_depth=6))
            assert out.n <= w.n

    def test_scramble_and_recover(self, rng):
        for _ in range(15):
            w = scramble(rng, rng.randint(1, 4))
            out = simplify(w, SearchBudget(max_crossings=w.n + 2, max_states=3000, max_depth=12))
            assert out == EMPTY

    def test_trefoil_stays_three(self):
        out = simplify(TREFOIL, SearchBudget(max_crossings=5, max_states=150, max_depth=8))
        assert out.n == 3

    def test_default_budget_reaches_the_least_state_within_cap_five(self):
        """At the default budget, ``simplify`` within cap 5 takes each of
        the 1,132 nonempty canonical diagrams with at most 4 crossings to
        the least state of its cap-5 component, as the union-find oracle
        (``conftest.oracle_components``) finds it: the oracle joins shrink
        and R3 edges and shares no walk with ``simplify``."""
        components = oracle_components(5)
        seeds = [e for e in components if 0 < len(e) <= 4]
        assert len(seeds) == 1_132
        misses = [e for e in seeds if _wgd_packed(simplify(_wgd_from_encoding(e), SearchBudget(5))) != components[e]]
        assert misses == []

    def test_budget_violation_rejected(self):
        with pytest.raises(DomainError):
            simplify(TREFOIL, SearchBudget(max_crossings=2))

    @pytest.mark.parametrize("budget", [
        SearchBudget(2.5),
        SearchBudget(4.0),
        SearchBudget(True),
        SearchBudget(4, max_states=300.0),
        SearchBudget(4, max_states=True),
        SearchBudget(4, max_depth=6.0),
    ])
    def test_non_int_budget_rejected(self, budget):
        with pytest.raises(DomainError):
            simplify(KINK, budget)
        with pytest.raises(DomainError):
            are_equivalent(KINK, EMPTY, budget)


class TestEnumeration:
    def test_counts_match_orbit_counting(self):
        # Burnside on rotations of the (head, sign) assignments:
        # n=1: 2, n=2: 10, n=3: 76, n=4: 1044, n=5: (10^5 + 4*10)/5 = 20008
        assert len(enumerate_canonical_wgds(0)) == 1
        assert len(enumerate_canonical_wgds(1)) == 3
        assert len(enumerate_canonical_wgds(2)) == 13
        assert len(enumerate_canonical_wgds(3)) == 89
        assert len(enumerate_canonical_wgds(4)) == 1133
        assert len(enumerate_canonical_wgds(5)) == 21141

    def test_all_entries_canonical_and_sorted(self):
        seeds = enumerate_canonical_wgds(4)
        keys = [(w.n, wgd_encoding(w)) for w in seeds]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for w in seeds:
            assert canonical_wgd(w) == w

    @pytest.mark.parametrize("n_max", [-1, True, 2.5, 3.0, "3", None])
    def test_bad_n_max_rejected(self, n_max):
        """``-1`` would give the empty diagram and ``True`` would act as 1."""
        with pytest.raises(DomainError, match="n_max"):
            enumerate_canonical_wgds(n_max)

    def test_pruned_enumeration_is_the_brute_force_filter(self):
        """Every raw encoding of up to four crossings that is its own
        canonical encoding, and no other, in (crossing count, encoding)
        order: the tie test that relabels only the tying rotations keeps
        exactly what a full canonicalisation keeps."""
        brute = [e for n in range(5) for e in map(bytes, itertools.product(range(2 * n), repeat=n))
                 if _canonical_encoding(e) == e]
        assert _canonical_encodings(4) == brute

    def test_pruning_keeps_every_canonical_encoding(self):
        # the lists are cumulative, so n_max=4 covers every n <= 4
        packed = _canonical_encodings(4)
        assert all(type(e) is bytes for e in packed)
        assert [wgd_encoding(_wgd_from_encoding(e)) for e in packed] == oracle_canonical_encodings(4)


def _components(states, neighbors) -> set[frozenset]:
    """Connected components of the undirected graph on ``states`` with an
    edge wherever ``neighbors`` lists one state from the other."""
    adjacent: dict = {w: set() for w in states}
    for w in states:
        for nb in neighbors(w):
            if nb in adjacent:
                adjacent[w].add(nb)
                adjacent[nb].add(w)
    out: set[frozenset] = set()
    for w in states:
        if any(w in c for c in out):
            continue
        component, frontier = {w}, {w}
        while frontier:
            frontier = {nb for x in frontier for nb in adjacent[x]} - component
            component |= frontier
        out.add(frozenset(component))
    return out


class TestShrinkEdgesSuffice:
    """The oracle atlas (``conftest.oracle_components``) takes components
    over shrink and R3 edges only; that is exact because every growth edge
    is the inverse of a shrink edge."""

    def test_every_growth_edge_has_an_inverse_shrink_edge(self):
        edges = 0
        for w in enumerate_canonical_wgds(3):
            for nb in wgd_neighbors(w, kinds=GROWTH_KINDS):
                edges += 1
                assert w in wgd_neighbors(nb, growth_allowed=False), (wgd_encoding(w), wgd_encoding(nb))
        assert edges > 0

    def test_every_shrink_edge_has_an_inverse_growth_edge(self):
        edges = 0
        for w in enumerate_canonical_wgds(4):
            for nb in wgd_neighbors(w, kinds={MoveKind.R1_DELETE, MoveKind.R2_DELETE}):
                edges += 1
                assert w in wgd_neighbors(nb, kinds=GROWTH_KINDS), (wgd_encoding(w), wgd_encoding(nb))
        assert edges > 0

    def test_atlas_classes_are_components_of_the_full_graph(self):
        # at cap 3 the R1-delete edges alone give the same 5 components;
        # cap 4 is the first where R2 and R3 edges merge classes
        cap = 4
        states = enumerate_canonical_wgds(cap)
        # growth out of a diagram at the cap always leaves it, so skip building it
        full = _components(
            states, lambda w: wgd_neighbors(w, growth_allowed=w.n < cap, max_crossings=cap)
        )
        by_least: dict = {}
        for e, least in oracle_components(cap).items():
            by_least.setdefault(least, set()).add(_wgd_from_encoding(e))
        assert {frozenset(c) for c in by_least.values()} == full
        by_class: dict[int, set] = {}
        for r in build_atlas(cap, max_crossings=cap):
            by_class.setdefault(r.class_id, set()).add(r.wgd)
        assert {frozenset(c) for c in by_class.values()} == full


SHRINK_KINDS = (MoveKind.R1_DELETE, MoveKind.R2_DELETE, MoveKind.R3)


@pytest.fixture(scope="module")
def states_to_five() -> list:
    """Packed encodings of every canonical diagram with at most 5 crossings."""
    return _canonical_encodings(5)


def _r1(e) -> set:
    """Canonical R1-delete neighbours of the packed encoding ``e``."""
    return set(map(_canonical_encoding, _r1_deletes(e, _gaps(e))))


def _r2(e) -> set:
    """Canonical R2-delete neighbours of the packed encoding ``e``."""
    return set(map(_canonical_encoding, _r2_deletes(e, _gaps(e))))


class TestSpanningEdges:
    """The oracle atlas (``conftest.oracle_spanning_shrink_neighbors``)
    unions, per state, its first R1 delete, its first R2 delete only when
    it has no kink, and its R3 moves with e_b = 0.  By induction on the
    crossing count, these lemmas (checked on every canonical state with
    n <= 5) join the ends of every shrink edge."""

    def test_r1_deletes_share_an_r1_delete(self, states_to_five):
        pairs = 0
        for e in states_to_five:
            targets = [_canonical_encoding(t) for t in _r1_deletes(e, _gaps(e))]
            for t1, t2 in itertools.combinations(targets, 2):
                pairs += 1
                assert _r1(t1) & _r1(t2), (e, t1, t2)
        assert pairs > 0

    def test_r2_deletes_with_a_kink_are_reached_through_an_r1_delete(self, states_to_five):
        # for an R1 delete s of e: t is an R1 delete of s (the kink is in
        # the pair), or t and s have a common R1 and R2 delete (it is not)
        checked = 0
        for e in states_to_five:
            below = _r1(e)
            if not below:
                continue
            twice = set().union(*map(_r1, below))
            r2_below = set().union(*map(_r2, below))
            for t in _r2(e):
                checked += 1
                assert t in twice or _r1(t) & r2_below, (e, t)
        assert checked > 0

    def test_r2_deletes_coincide_or_share_an_r2_delete(self, states_to_five):
        # with a kink and without: overlapping pairs give one diagram,
        # disjoint pairs commute
        pairs = {True: 0, False: 0}
        for e in states_to_five:
            targets = [_canonical_encoding(t) for t in _r2_deletes(e, _gaps(e))]
            for t1, t2 in itertools.combinations(targets, 2):
                pairs[bool(_r1(e))] += 1
                assert t1 == t2 or _r2(t1) & _r2(t2), (e, t1, t2)
        assert pairs[True] > 0 and pairs[False] > 0

    def test_r3_with_e_b_one_is_undone_with_e_b_zero(self, states_to_five):
        moves = 0
        for e in states_to_five:
            gaps = _gaps(e)
            assert sorted(_r3_moves(e, gaps)) == sorted(oracle_r3_moves(e, gaps, (0, 1)))
            for raw in oracle_r3_moves(e, gaps, (1,)):
                moves += 1
                t = _canonical_encoding(raw)
                assert e in set(map(_canonical_encoding, oracle_r3_moves(t, _gaps(t), (0,)))), (e, t)
        assert moves > 0

    @pytest.mark.parametrize("cap", [4, 5])
    def test_spanning_components_are_the_full_components(self, cap):
        states = _canonical_encodings(cap)
        full = _components(states, lambda e: map(_canonical_encoding, _raw_neighbor_encodings(e, SHRINK_KINDS)))
        parent = oracle_union_components(states)
        spanning: dict[int, set] = {}
        for i, e in enumerate(states):
            spanning.setdefault(oracle_find(parent, i), set()).add(e)
        assert {frozenset(c) for c in spanning.values()} == full
        assert len(full) < len(states)


# the least seed of some classes of build_atlas(4, 6)
CAP_SIX_LEAST = {
    6: '{"order": [1, 2, 3, 4], "map": {"1": [2, "-"], "2": [3, "-"], "3": [4, "-"], "4": [1, "-"]}}',
    8: '{"order": [1, 2, 3, 4], "map": {"1": [2, "-"], "2": [3, "-"], "3": [4, "+"], "4": [2, "-"]}}',
    21: '{"order": [1, 2, 3, 4], "map": {"1": [2, "+"], "2": [4, "-"], "3": [1, "+"], "4": [2, "+"]}}',
    24: '{"order": [1, 2, 3, 4], "map": {"1": [3, "+"], "2": [4, "+"], "3": [1, "+"], "4": [2, "+"]}}',
}
# the depth budget does not bind: 16 layers are too few for 8 vs 21
CAP_SEVEN_BUDGET = SearchBudget(7, max_states=200_000, max_depth=64)


def _path_states(w: WeldedGaussDiagram, path) -> list[WeldedGaussDiagram]:
    """The diagrams a record path passes through from w's realization."""
    code, states = wgd_to_gauss(w), [w]
    for record in path:
        code = replay(code, [record])
        states.append(gauss_to_wgd(code))
    return states


class TestAtlas:
    MAX_CROSSINGS = 4

    @pytest.mark.parametrize("n_max, max_crossings, digest", [
        (1, 3, "1978111af084fc20ac1097807f73e1476251eee1d4e2fd5ae9d0b8c683351627"),
        (2, 4, "4fca65b954e05599dd531f1b7902e4c701bd0bc288134470c6e9a38a1cc4a4ce"),
        (3, 4, "0dc6c1e4084c048b3ea29eb215fb0cd0a22beb73382948eace67bee8f7e0df09"),
        (3, 5, "0dc6c1e4084c048b3ea29eb215fb0cd0a22beb73382948eace67bee8f7e0df09"),
        (4, 5, "dff120ca16d99f004f131cc1876469fca5ce3754968021d6053c200430faf36e"),
        (5, 6, "dceefad23fde9f55bef13d3c10f05eee456d2932edaf8bf8a5c123cae1dbe30d"),
    ])
    def test_golden_jsonl(self, n_max, max_crossings, digest):
        records = build_atlas(n_max, max_crossings)
        assert hashlib.sha256(atlas_to_jsonl(records).encode()).hexdigest() == digest
        if (n_max, max_crossings) == (4, 5):
            assert len({r.class_id for r in records}) == 29
            assert len({r.orbit_id for r in records}) == 18
        if (n_max, max_crossings) == (5, 6):
            assert len(records) == 21_141
            assert len({r.class_id for r in records}) == 442
            assert len({r.orbit_id for r in records}) == 231

    @pytest.mark.parametrize("n_max, max_crossings", [(3, 4), (3, 5), (4, 4), (4, 5)])
    def test_seeded_partition_is_the_oracle_partition(self, n_max, max_crossings):
        seeds = _canonical_encodings(n_max)
        records = build_atlas(n_max, max_crossings)
        assert [r.encoding for r in records] == seeds
        assert [_wgd_from_encoding(e) for e in seeds] == [r.wgd for r in records]
        seeded: dict[int, set] = {}
        oracle: dict = {}
        components = oracle_components(max_crossings)
        for e, r in zip(seeds, records):
            seeded.setdefault(r.class_id, set()).add(e)
            oracle.setdefault(components[e], set()).add(e)
        assert {frozenset(c) for c in seeded.values()} == {frozenset(c) for c in oracle.values()}

    @pytest.mark.parametrize("n_max, max_crossings", [(3, 4), (3, 5), (4, 4), (4, 5)])
    def test_only_delete_free_least_seeds_need_floods(self, n_max, max_crossings, monkeypatch):
        """A delete of a seed is an earlier seed of its component, so each
        class's least seed is the empty diagram or has no R1 or R2 delete.
        The seeds that the exhausted floods register, the images under the
        reversal group of their visited representatives within n_max, are
        exactly those outside the oracle's trivial component."""
        import weldedknots.search

        flood = weldedknots.search._orbit_flood
        registered = set()

        def recording_flood(*args):
            found = flood(*args)
            for r in found[0] if found else ():
                if len(r) <= n_max:
                    w = _wgd_from_encoding(r)
                    images = (w, bar(w), reverse(w), global_reversal(w))
                    registered.update(_canonical_encoding(_wgd_packed(x)) for x in images)
            return found

        monkeypatch.setattr(weldedknots.search, "_orbit_flood", recording_flood)
        records = build_atlas(n_max, max_crossings)
        least: dict = {}
        for r in records:
            least.setdefault(r.class_id, r.encoding)
        for e in least.values():
            assert not e or (next(_r1_deletes(e, _gaps(e)), None), next(_r2_deletes(e, _gaps(e)), None)) == (None, None)
        components = oracle_components(max_crossings)
        trivial = components[records[0].encoding]
        assert registered <= {r.encoding for r in records}
        for r in records:
            assert (r.encoding in registered) == (components[r.encoding] != trivial), encode_wgd(r.wgd)

    def test_flood_cost_per_build(self, monkeypatch):
        """A time-free cost guard: at (4, 5) only 16 seeds flood orbit
        representatives, 4 of them stopping at a trivial seed, for 804
        expansions in all (each one call of ``_edges``).
        The build makes 2,039 orbit canonicalisations and 102 canonical
        forms, counted wherever they are made, ``model`` included: no
        delete is canonicalised (1,618 when each seed with a delete took
        its first delete's label), no OC self-loop is expanded (2,441
        orbit canonicalisations when it was), and no tie of the seed
        enumeration is fully canonicalised (654 canonical forms when it
        was).  Flooding each component on its own took 44 floods, 16 of
        them trivial, and 3,126 expansions, and 6,783 canonical forms
        counted in ``search`` and ``moves`` only."""
        import weldedknots.convert
        import weldedknots.model
        import weldedknots.moves
        import weldedknots.search

        calls = orbits = expansions = floods = trivial = 0
        canonical = weldedknots.model._canonical_encoding
        orbit_canonical = weldedknots.model._orbit_canonical
        edges = weldedknots.search._edges
        flood = weldedknots.search._orbit_flood

        def counted(e):
            nonlocal calls
            calls += 1
            return canonical(e)

        def counted_orbit(e):
            nonlocal orbits
            orbits += 1
            return orbit_canonical(e)

        def counted_edges(e, max_crossings):
            nonlocal expansions
            expansions += 1
            return edges(e, max_crossings)

        def counted_flood(*args):
            nonlocal floods, trivial
            found = flood(*args)
            floods += 1
            trivial += found is None
            return found

        for module in (weldedknots.model, weldedknots.convert, weldedknots.moves, weldedknots.search):
            monkeypatch.setattr(module, "_canonical_encoding", counted)
        for module in (weldedknots.model, weldedknots.search):
            monkeypatch.setattr(module, "_orbit_canonical", counted_orbit)
        monkeypatch.setattr(weldedknots.search, "_edges", counted_edges)
        monkeypatch.setattr(weldedknots.search, "_orbit_flood", counted_flood)
        records = build_atlas(4, 5)
        assert (floods, trivial, expansions) == (16, 4, 804)
        assert (orbits, calls) == (2_039, 102)
        digest = "dff120ca16d99f004f131cc1876469fca5ce3754968021d6053c200430faf36e"
        assert hashlib.sha256(atlas_to_jsonl(records).encode()).hexdigest() == digest

    def test_records_leave_as_they_become_final(self, monkeypatch):
        """The atlas streams: the empty diagram's record is out before any
        flood runs, and no flood runs for a seed at or before a record
        already out, so a record never waits for a later seed's flood."""
        import weldedknots.search

        flood = weldedknots.search._orbit_flood
        events = []  # ("flood", its seed) and ("record", its encoding), in the order they happen

        def logged_flood(start, lift, stab, max_crossings, seed):
            events.append(("flood", seed))
            return flood(start, lift, stab, max_crossings, seed)

        monkeypatch.setattr(weldedknots.search, "_orbit_flood", logged_flood)
        for e, *_ in weldedknots.search._atlas_records(4, 6, (3, 5), ()):  # one row at a time
            events.append(("record", e))
        assert events[0] == ("record", b"")
        out = []
        for kind, e in events:
            if kind == "flood":
                assert (len(e), e) > (len(out[-1]), out[-1])
            else:
                out.append(e)
        assert out == _canonical_encodings(4) and len(events) - len(out) == 16

    def test_cli_atlas_builds_no_record(self, monkeypatch, tmp_path):
        """The CLI writes the engine's rows: the benchmarked atlas builds no
        :class:`AtlasRecord`, while :func:`build_atlas` hands out and checks
        one per seed, 89 at (3, 4)."""
        from weldedknots.cli import main

        counts = collections.Counter()
        _count_calls(monkeypatch, counts, AtlasRecord, "__post_init__")
        assert main(["atlas", "--n-max", "3", "--max-crossings", "4", "-o", str(tmp_path / "atlas.jsonl")]) == 0
        assert counts["__post_init__"] == 0
        assert len(build_atlas(3, 4)) == counts["__post_init__"] == 89

    def test_floods_follow_edges_only(self, monkeypatch):
        """OC maps a diagram to itself, so a flood never asks for it: its
        self-loop would only put an element of Stab(rep) into H.  Each of
        the 804 expansions yields the raw neighbours of the other kinds
        within the cap, growth ones included."""
        import weldedknots.search

        edges = weldedknots.search._edges
        asked = []

        def recording(e, max_crossings):
            asked.append((e, max_crossings))
            return edges(e, max_crossings)

        monkeypatch.setattr(weldedknots.search, "_edges", recording)
        build_atlas(4, 5)
        assert len(asked) == 804
        kinds_seen = set()
        for e, cap in asked:
            wanted = {k for k in MoveKind if k != MoveKind.OC and len(e) + _CROSSING_DELTA[k] <= cap}
            assert list(edges(e, cap)) == list(_raw_neighbor_encodings(e, wanted)), (e, cap)
            kinds_seen |= wanted
        assert MoveKind.R2_INSERT in kinds_seen

    def test_fingerprints_once_per_class(self, monkeypatch):
        """A time-free cost guard: fingerprints are class invariants, so
        the 29 classes at (4, 5) cost one fingerprint each, on the class's
        least seed: 28 colouring eliminations, one serving both default
        primes 3 and 5 (118 at one per nonempty sign-free pattern, 2,264
        at one per seed and prime), and with S3 and D4 58 homomorphism
        counts (2,266 at one per seed and group)."""
        import weldedknots.invariants

        eliminated, homs = [], []
        colorings = weldedknots.invariants._coloring_counts
        hom_count = weldedknots.invariants._hom_count

        def counted_colorings(e, primes):
            if e:
                eliminated.append(e)
            return colorings(e, primes)

        def counted_homs(e, group):
            homs.append((e, group.name))
            return hom_count(e, group)

        monkeypatch.setattr(weldedknots.invariants, "_coloring_counts", counted_colorings)
        monkeypatch.setattr(weldedknots.invariants, "_hom_count", counted_homs)
        records = build_atlas(4, 5)
        least = [next(r.encoding for r in records if r.class_id == cid) for cid in range(29)]
        assert eliminated == least[1:]
        assert not homs
        digest = "dff120ca16d99f004f131cc1876469fca5ce3754968021d6053c200430faf36e"
        assert hashlib.sha256(atlas_to_jsonl(records).encode()).hexdigest() == digest
        build_atlas(4, 5, groups=(symmetric_group_3(), dihedral_group(4)))
        assert homs == [(e, name) for e in least for name in ("D4", "S3")]

    def test_fingerprints_equal_the_public_fingerprint(self):
        primes, groups = (3, 5, 7), (symmetric_group_3(), dihedral_group(4))
        records = build_atlas(4, 5, primes=primes, groups=groups)
        assert len(records) == 1133
        for r in records:
            assert r.fingerprint == fingerprint(r.wgd, primes=primes, groups=groups), encode_wgd(r.wgd)

    def test_fingerprints_with_a_non_dihedral_group(self):
        """The alternating group A4, built from permutations, is no
        built-in group and no dihedral one; its per-class homomorphism
        counts equal the public fingerprint of every seed."""
        records = build_atlas(4, 5, groups=(A4,))
        assert len({r.fingerprint for r in records}) > 1
        for r in records:
            assert r.fingerprint == fingerprint(r.wgd, groups=(A4,)), encode_wgd(r.wgd)

    def test_groups_read_once(self):
        """A generator of groups serves every seed, not the first only."""
        s3 = symmetric_group_3()
        records = build_atlas(1, 2, groups=(g for g in [s3]))
        assert [r.fingerprint for r in records] == [r.fingerprint for r in build_atlas(1, 2, groups=(s3,))]
        assert all(dict(r.fingerprint.hom_counts) == {"S3": 6} for r in records)

    # 10**400 + 1 is above the largest float and divisible by 353; 2**64 + 13
    # is prime, but past the bound where the primality test is exact
    @pytest.mark.parametrize("primes", [(4,), (3.0,), (10**400 + 1,), (2**64 + 13,)])
    def test_bad_primes_rejected(self, primes):
        with pytest.raises(DomainError):
            build_atlas(1, 2, primes=primes)

    def test_group_names_rejected(self):
        with pytest.raises(DomainError, match="expected a Group"):
            build_atlas(1, 2, groups=("S3",))

    def test_golden_jsonl_with_primes_and_groups(self):
        """Every fingerprint field in use: primes (3, 5, 7) and groups S3
        and D4 at (3, 4)."""
        records = build_atlas(3, 4, primes=(3, 5, 7), groups=(symmetric_group_3(), dihedral_group(4)))
        digest = "848d9fbbb1f93ea9602b053c0d8d5fb30ac04f1ddc1a60beb4af97ff3b26421c"
        assert hashlib.sha256(atlas_to_jsonl(records).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_max, max_crossings", [(2.5, 4), (2, 4.0), (True, 2), (1, True)])
    def test_non_int_range_rejected(self, n_max, max_crossings):
        with pytest.raises(DomainError):
            build_atlas(n_max, max_crossings)

    def test_cap_six(self):
        """Cap 6: the 1,133 seeds with at most 4 crossings in 25 classes and
        17 global-reversal orbits, with the least seeds of classes 6, 8, 21
        and 24 as pinned in :data:`CAP_SIX_LEAST`."""
        records = build_atlas(4, 6)
        assert len(records) == 1133
        assert len({r.class_id for r in records}) == 25
        assert len({r.orbit_id for r in records}) == 17
        digest = "bf98d881a85c82d7ef5c592d03bc66576c60aa89c68f0e7e01fbec4bcd98c4a6"
        assert hashlib.sha256(atlas_to_jsonl(records).encode()).hexdigest() == digest
        for cid, text in CAP_SIX_LEAST.items():
            assert next(r.wgd for r in records if r.class_id == cid) == decode_wgd(text)

    def test_cap_six_classes_8_and_21_merge_at_cap_7(self):
        a, b = (decode_wgd(CAP_SIX_LEAST[cid]) for cid in (8, 21))
        out = are_equivalent(a, b, CAP_SEVEN_BUDGET)
        assert out.equivalent and out.states_explored == 93_832
        assert len(out.path) == 44
        assert canonical_wgd(gauss_to_wgd(replay(wgd_to_gauss(a), out.path))) == canonical_wgd(b)
        assert max(state.n for state in _path_states(a, out.path)) == 7

    def test_cap_six_classes_6_and_24_distinct_within_cap_7(self):
        """Distinct within cap 7: the search exhausts one side's cap-7
        component without meeting the other.  This is exact for the capped
        move graph and proves nothing about welded equivalence."""
        a, b = (decode_wgd(CAP_SIX_LEAST[cid]) for cid in (6, 24))
        out = are_equivalent(a, b, CAP_SEVEN_BUDGET)
        assert not out.equivalent
        assert out.reason == "move graph exhausted within crossing budget"
        assert out.states_explored == 13_812

    def test_single_record_for_trivial_enumeration(self):
        records = build_atlas(0, max_crossings=2)
        assert len(records) == 1
        assert records[0].wgd == EMPTY
        assert records[0].class_id == 0 and records[0].orbit_id == 0

    def test_one_crossing_atlas_is_trivial_class(self):
        records = build_atlas(1, max_crossings=3)
        assert len(records) == 3
        assert {r.class_id for r in records} == {0}

    def test_class_ids_partition_consistently(self):
        records = build_atlas(2, max_crossings=self.MAX_CROSSINGS)
        by_class: dict[int, list] = {}
        for r in records:
            by_class.setdefault(r.class_id, []).append(r)
        # same class implies same fingerprint (fingerprints are invariants)
        for members in by_class.values():
            assert len({m.fingerprint for m in members}) == 1
        assert sorted(by_class) == list(range(len(by_class)))

    def test_orbit_pairing_is_involution(self):
        records = build_atlas(2, max_crossings=self.MAX_CROSSINGS)
        partner = {}
        for r in records:
            rev = canonical_wgd(global_reversal(r.wgd))
            rev_class = next(x.class_id for x in records if x.wgd == rev)
            partner[r.class_id] = rev_class
        for cid, pid in partner.items():
            assert partner[pid] == cid
        for r in records:
            assert r.orbit_id == min(
                next(x.orbit_id for x in records if x.class_id == r.class_id),
                next(x.orbit_id for x in records if x.class_id == partner[r.class_id]),
            )

    def test_deterministic_across_reruns(self):
        a = build_atlas(2, max_crossings=self.MAX_CROSSINGS)
        b = build_atlas(2, max_crossings=self.MAX_CROSSINGS)
        assert a == b

    def test_jsonl_wgd_is_compact_wgd_to_obj(self):
        """The wgd object is written from the encoding, in both packed
        forms, as compact json writes ``wgd_to_obj`` of the diagram."""
        fp = fingerprint(EMPTY)
        records = [AtlasRecord(_wgd_packed(w), fp, 0, 0) for w in (EMPTY, reference_wgd(), long_wgd(130))]
        records += build_atlas(2, max_crossings=2)
        assert type(records[2].encoding) is tuple
        for r, line in zip(records, atlas_to_jsonl(records).splitlines(), strict=True):
            wgd = json.dumps(wgd_to_obj(r.wgd), separators=(",", ":"))
            assert line.startswith(f'{{"wgd":{wgd},"fingerprint":')

    @pytest.mark.parametrize("encoding", [b"\x05", b"\x00\x04", (0, True), (0, -1), (2,), [0], "\x00", None])
    def test_record_rejects_what_is_no_encoding(self, encoding):
        with pytest.raises(DomainError):
            AtlasRecord(encoding, fingerprint(EMPTY), 0, 0)

    def test_jsonl_fields_exact(self):
        records = build_atlas(1, max_crossings=3)
        lines = atlas_to_jsonl(records).splitlines()
        assert len(lines) == len(records)
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"wgd", "fingerprint", "class", "orbit"}


def _outcome_line(out) -> str:
    """An equivalence outcome, every field of every record included, as JSON."""
    path = [[r.kind.value, r.variant, r.removes, r.inserts, r.swaps] for r in out.path or ()]
    return json.dumps([out.equivalent, out.reason, out.states_explored, path])


def _golden_pairs() -> list[tuple]:
    """The 30 pinned equivalence queries: scrambled pairs and their budgets."""
    rng = random.Random("golden:equiv")
    pairs = []
    for _ in range(30):
        a, b = scramble(rng, rng.randint(1, 3)), scramble(rng, rng.randint(1, 3))
        pairs.append((a, b, SearchBudget(max(a.n, b.n) + 1, max_states=300, max_depth=10)))
    return pairs


def _golden_simplify_inputs() -> list[tuple]:
    """The 60 pinned simplifications: random diagrams and their budgets."""
    rng = random.Random("golden:simplify")
    inputs = []
    for _ in range(60):
        w = random_wgd(rng, rng.randint(0, 4))
        inputs.append((w, SearchBudget(w.n + 2, max_states=300, max_depth=6)))
    return inputs


class TestSearchGolden:
    """Pinned search outputs: how states are held, ordered and expanded
    must move no tie-break, meeting, record or simplification result."""

    def test_golden_equivalence_outcomes(self):
        lines = [_outcome_line(are_equivalent(a, b, budget)) for a, b, budget in _golden_pairs()]
        # the other 6 pairs run out of states
        assert sum(json.loads(line)[0] for line in lines) == 24
        digest = "374a7471b9926adceb224b61327d77e2d0e7e79b647c58835d89e492cb5f87ef"
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_golden_simplify(self):
        lines = [encode_wgd(simplify(w, budget)) for w, budget in _golden_simplify_inputs()]
        digest = "046e97e0511abaca2e59440c1417974af70f5383fb3e931ab84783cc3e679024"
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_walk_cost(self, monkeypatch):
        """A time-free cost guard on the walk the searches share: the golden
        queries, inputs built beforehand, canonicalise 3,795 encodings in
        ``are_equivalent``'s walk and 5,596 in ``simplify`` (4,437 and 6,054
        when each search canonicalised every raw neighbour of every
        expansion).  Path realisation is pinned apart, by
        ``test_path_realisation_cost``."""
        import weldedknots.search

        pairs, inputs = _golden_pairs(), _golden_simplify_inputs()
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, weldedknots.search, "_canonical_encoding")
        for a, b, budget in pairs:
            are_equivalent(a, b, budget)
        equiv_calls = counts.pop("_canonical_encoding")
        for w, budget in inputs:
            simplify(w, budget)
        assert (equiv_calls, counts["_canonical_encoding"]) == (3_795, 5_596)

    def test_path_realisation_cost(self, monkeypatch):
        """A time-free cost guard on path realisation: the golden queries
        realise 40 edges with 320 trial moves, each compared once with its
        edge's target as a canonical encoding, and 5 over-commute records
        that reorder a code before its move."""
        import weldedknots.moves
        import weldedknots.search

        pairs = _golden_pairs()
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, weldedknots.search, "_edge_records")
        _count_calls(monkeypatch, counts, weldedknots.moves, "_canonical_encoding")
        _count_calls(
            monkeypatch, counts, weldedknots.moves, "_apply_unchecked",
            lambda code, kind, positions, variant: "reorder" if kind == MoveKind.OC else "trial",
        )
        for a, b, budget in pairs:
            are_equivalent(a, b, budget)
        assert counts == {"_edge_records": 40, "trial": 320, "_canonical_encoding": 320, "reorder": 5}

    def test_path_realisation_builds_no_move_site(self, monkeypatch):
        """The engine's sites are plain fields: the golden queries' 320
        trials and 5 reorders build no :class:`MoveSite`."""
        pairs = _golden_pairs()
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, MoveSite, "__init__")
        for a, b, budget in pairs:
            are_equivalent(a, b, budget)
        assert counts["__init__"] == 0

    def test_path_states_are_canonicalised_once(self, monkeypatch):
        """The golden queries canonicalise 60 diagrams: the two inputs of
        each of the 30 queries.  The walk holds every state of a found
        path as a canonical encoding already and hands those to the
        realiser, so none of the 64 states of the 24 paths is canonicalised
        again (124 when each went through ``derive_path``)."""
        import weldedknots.search

        pairs = _golden_pairs()
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, weldedknots.search, "_canonical_wgd_encoding")
        for a, b, budget in pairs:
            are_equivalent(a, b, budget)
        assert counts == {"_canonical_wgd_encoding": 60}

    def test_one_diagram_per_found_path(self, monkeypatch):
        """The golden queries, inputs built beforehand, construct 24
        diagrams: one per found path, whose code starts the realisation.
        No other state of a path is built as a diagram (88 when each
        state was)."""
        pairs = _golden_pairs()
        counts = collections.Counter()
        _count_calls(monkeypatch, counts, WeldedGaussDiagram, "__init__")
        outcomes = [are_equivalent(a, b, budget) for a, b, budget in pairs]
        assert sum(out.equivalent for out in outcomes) == 24
        assert counts == {"__init__": 24}
