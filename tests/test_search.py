import json
import random

import pytest

from weldedknots import (
    DomainError,
    GROWTH_KINDS,
    MoveKind,
    SearchBudget,
    WeldedGaussDiagram,
    are_equivalent,
    atlas_to_jsonl,
    build_atlas,
    canonical_wgd,
    decode_gauss_code,
    enumerate_canonical_wgds,
    gauss_to_wgd,
    global_reversal,
    replay,
    simplify,
    wgd_encoding,
    wgd_neighbors,
    wgd_to_gauss,
)

from conftest import TREFOIL_TEXT, random_wgd

EMPTY = WeldedGaussDiagram((), {}, {})
KINK = canonical_wgd(WeldedGaussDiagram((1,), {1: 1}, {1: 1}))
TREFOIL = gauss_to_wgd(decode_gauss_code(TREFOIL_TEXT))


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

    def test_deterministic(self, rng):
        w = scramble(rng, 2)
        budget = SearchBudget(max_crossings=w.n + 2, max_states=2000, max_depth=8)
        first = are_equivalent(w, EMPTY, budget)
        second = are_equivalent(w, EMPTY, budget)
        assert first == second


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

    def test_budget_violation_rejected(self):
        with pytest.raises(DomainError):
            simplify(TREFOIL, SearchBudget(max_crossings=2))


class TestEnumeration:
    def test_counts_match_orbit_counting(self):
        # Burnside on rotations of the (head, sign) assignments:
        # n=1: 2, n=2: 10, n=3: 76, n=4: 1044
        assert len(enumerate_canonical_wgds(0)) == 1
        assert len(enumerate_canonical_wgds(1)) == 3
        assert len(enumerate_canonical_wgds(2)) == 13
        assert len(enumerate_canonical_wgds(3)) == 89
        assert len(enumerate_canonical_wgds(4)) == 1133

    def test_all_entries_canonical_and_sorted(self):
        seeds = enumerate_canonical_wgds(3)
        keys = [(w.n, wgd_encoding(w)) for w in seeds]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for w in seeds:
            assert canonical_wgd(w) == w


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
    """The atlas takes components over shrink and R3 edges only; that is
    exact because every growth edge is the inverse of a shrink edge."""

    def test_every_growth_edge_has_an_inverse_shrink_edge(self):
        edges = 0
        for w in enumerate_canonical_wgds(2):
            for nb in wgd_neighbors(w, kinds=GROWTH_KINDS):
                edges += 1
                assert w in wgd_neighbors(nb, growth_allowed=False), (wgd_encoding(w), wgd_encoding(nb))
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
        by_class: dict[int, set] = {}
        for r in build_atlas(cap, max_crossings=cap):
            by_class.setdefault(r.class_id, set()).add(r.wgd)
        assert {frozenset(c) for c in by_class.values()} == full


class TestAtlas:
    MAX_CROSSINGS = 4

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

    def test_jsonl_fields_exact(self):
        records = build_atlas(1, max_crossings=3)
        lines = atlas_to_jsonl(records).splitlines()
        assert len(lines) == len(records)
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"wgd", "fingerprint", "class", "orbit"}
