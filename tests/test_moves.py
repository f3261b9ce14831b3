import dataclasses
import itertools
import random

import pytest

from weldedknots import (
    ALL_KINDS,
    DomainError,
    GROWTH_KINDS,
    GaussCode,
    MoveKind,
    MoveRecord,
    MoveSite,
    Passage,
    StaleSiteError,
    WeldedGaussDiagram,
    apply_move,
    apply_record,
    canonical_wgd,
    coloring_count,
    decode_gauss_code,
    encode_gauss_code,
    encode_wgd,
    enumerate_canonical_wgds,
    enumerate_sites,
    gauss_to_wgd,
    inverse_record,
    oc_class,
    validate_code,
    wgd_neighbors,
    wgd_neighbors_iter,
)

from weldedknots.model import OVER, UNDER, _canonical_encodings, _gaps, _pack, _wgd_packed
from weldedknots.moves import (
    _CROSSING_DELTA,
    _edges,
    _has_delete,
    _r1_deletes,
    _r2_deletes,
    _raw_neighbor_encodings,
)

from conftest import TREFOIL_TEXT, long_wgd, oracle_neighbors_iter, random_code, random_wgd


class TestEnumerate:
    def test_empty_code_offers_r1_and_r2_inserts(self):
        sites = enumerate_sites(GaussCode())
        r1 = [s for s in sites if s.kind == MoveKind.R1_INSERT]
        r2 = [s for s in sites if s.kind == MoveKind.R2_INSERT]
        assert len(r1) + len(r2) == len(sites)
        assert {s.variant for s in r1} == {"ou+", "ou-", "uo+", "uo-"}  # one slot, four kinks
        # both runs share the one slot, in either order
        assert {s.positions for s in r2} == {(0, 0)}
        assert {s.variant for s in r2} == {
            f"{shape}{sign}:{first}" for shape in ("par", "anti") for sign in "+-" for first in ("ou", "uo")
        }

    def test_r2_inserts_share_every_slot(self):
        code = decode_gauss_code("O1+ U1+")
        sites = enumerate_sites(code, kinds={MoveKind.R2_INSERT})
        assert {s.positions for s in sites} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for site in sites:
            new_code, record = apply_move(code, site)
            assert apply_record(new_code, inverse_record(record)) == code
            assert inverse_record(inverse_record(record)) == record
        shared = apply_move(code, MoveSite(MoveKind.R2_INSERT, (1, 1), "anti-:uo"))[0]
        assert encode_gauss_code(shared) == "O1+ U3+ U2- O2- O3+ U1+"

    def test_growth_excluded(self):
        assert GROWTH_KINDS == {MoveKind.R1_INSERT, MoveKind.R2_INSERT}
        sites = enumerate_sites(decode_gauss_code(TREFOIL_TEXT), growth_allowed=False)
        assert all(s.kind not in GROWTH_KINDS for s in sites)

    def test_oc_site_exact(self):
        code = decode_gauss_code("O1+ O2+ U1+ U2+")
        sites = enumerate_sites(code, kinds={MoveKind.OC})
        assert len(sites) == 1
        assert sites[0].positions == (0, 1)

    def test_kink_has_r1_delete(self):
        sites = enumerate_sites(decode_gauss_code("O1+ U1+"), kinds={MoveKind.R1_DELETE})
        assert any(s.kind == MoveKind.R1_DELETE for s in sites)

    def test_sites_all_apply(self, rng):
        for _ in range(100):
            code = random_code(rng, rng.randint(0, 6))
            for site in enumerate_sites(code):
                new_code, _ = apply_move(code, site)
                assert validate_code(new_code) is None


class TestApply:
    def test_r1_insert_on_empty(self):
        for variant, sign in (("ou+", 1), ("uo+", 1), ("ou-", -1), ("uo-", -1)):
            new_code, _ = apply_move(GaussCode(), MoveSite(MoveKind.R1_INSERT, (0,), variant))
            w = gauss_to_wgd(new_code)
            assert w.order == (1,)
            assert w.head == {1: 1}
            assert w.sign == {1: sign}

    def test_a_record_is_its_edit(self):
        assert [f.name for f in dataclasses.fields(MoveRecord)] == ["kind", "variant", "removes", "inserts", "swaps"]

    def test_oc_swaps_and_preserves_wgd(self):
        code = decode_gauss_code("O1+ O2+ U1+ U2+")
        new_code, _ = apply_move(code, MoveSite(MoveKind.OC, (0, 1), "oc"))
        assert encode_gauss_code(new_code) == "O2+ O1+ U1+ U2+"
        assert gauss_to_wgd(new_code) == gauss_to_wgd(code)

    def test_crossing_count_deltas(self, rng):
        deltas = {
            MoveKind.R1_INSERT: 1,
            MoveKind.R2_INSERT: 2,
            MoveKind.R1_DELETE: -1,
            MoveKind.R2_DELETE: -2,
            MoveKind.R3: 0,
            MoveKind.OC: 0,
        }
        for _ in range(200):
            code = random_code(rng, rng.randint(0, 5))
            for site in enumerate_sites(code):
                new_code, _ = apply_move(code, site)
                assert new_code.n - code.n == deltas[site.kind]

    def test_inverse_restores_bit_exactly(self, rng):
        inverse_kind = {
            MoveKind.R1_INSERT: MoveKind.R1_DELETE,
            MoveKind.R1_DELETE: MoveKind.R1_INSERT,
            MoveKind.R2_INSERT: MoveKind.R2_DELETE,
            MoveKind.R2_DELETE: MoveKind.R2_INSERT,
            MoveKind.R3: MoveKind.R3,
            MoveKind.OC: MoveKind.OC,
        }
        count = 0
        while count < 1000:
            code = random_code(rng, rng.randint(0, 5))
            sites = enumerate_sites(code)
            site = sites[rng.randrange(len(sites))]
            new_code, record = apply_move(code, site)
            assert inverse_record(record).kind == inverse_kind[record.kind]
            assert apply_record(new_code, inverse_record(record)) == code
            count += 1

    def test_accepts_exactly_the_listed_sites_up_to_two_crossings(self):
        """Every code with at most two crossings, every positions tuple of
        each matched kind's arity and every variant of the kind plus one
        foreign variant: apply succeeds exactly on the listed sites, and a
        code too short for a kind lists none of it."""
        r3 = tuple(f"r3:{t}{m}{b}{s}" for t, m, b in itertools.product("01", repeat=3) for s in "+-")
        variants = {
            MoveKind.R1_DELETE: ("ou+", "ou-", "uo+", "uo-", "oc"),
            MoveKind.OC: ("oc", "ou+"),
            MoveKind.R2_DELETE: ("anti+", "anti-", "par+", "par-", "r3:000+"),
            MoveKind.R3: r3 + ("par+",),
        }
        codes = [
            GaussCode(perm)
            for n in range(3)
            for signs in itertools.product((1, -1), repeat=n)
            for perm in itertools.permutations(
                [Passage(role, c, s) for c, s in enumerate(signs, 1) for role in (OVER, UNDER)]
            )
        ]
        assert len(codes) == 1 + 4 + 96
        for code in codes:
            listed = set(enumerate_sites(code, kinds=variants))
            # an R3 site takes six passages, an R2 delete four
            too_short = {MoveKind.R3} | ({MoveKind.R2_DELETE} if len(code) < 4 else set())
            assert not {site.kind for site in listed} & too_short, code
            for kind, names in variants.items():
                arity = 3 if kind == MoveKind.R3 else 2
                for positions in itertools.product(range(len(code)), repeat=arity):
                    for variant in names:
                        site = MoveSite(kind, positions, variant)
                        try:
                            apply_move(code, site)
                        except StaleSiteError:
                            assert site not in listed, (code, site)
                        else:
                            assert site in listed, (code, site)

    def test_replay_record_reproduces_target(self, rng):
        for _ in range(300):
            code = random_code(rng, rng.randint(0, 5))
            sites = enumerate_sites(code)
            site = sites[rng.randrange(len(sites))]
            new_code, record = apply_move(code, site)
            assert apply_record(code, record) == new_code

    def test_stale_site_rejected(self):
        code = decode_gauss_code("O1+ U1+")
        site = enumerate_sites(code, kinds={MoveKind.R1_DELETE})[0]
        shrunk, _ = apply_move(code, site)
        with pytest.raises(StaleSiteError):
            apply_move(shrunk, site)

    @pytest.mark.parametrize("site", [
        MoveSite(MoveKind.R1_DELETE, ()),
        MoveSite(MoveKind.R1_INSERT, (), "ou+"),
        MoveSite(MoveKind.R3, (0, 2)),
        MoveSite(MoveKind.R1_INSERT, (0,), "zz"),
        MoveSite(MoveKind.R2_INSERT, (0, 1), "par"),
    ])
    def test_malformed_site_rejected(self, site):
        with pytest.raises(DomainError):
            apply_move(decode_gauss_code("O1+ U1+"), site)

    @pytest.mark.parametrize("site", [
        MoveSite(MoveKind.OC, (0, 3), "oc"),
        MoveSite(MoveKind.OC, (-1, 0), "oc"),
        MoveSite(MoveKind.OC, (3, 4), "oc"),
        MoveSite(MoveKind.R1_DELETE, (1, 3), "ou+"),
        MoveSite(MoveKind.R2_DELETE, (0, -2), "par+"),
        MoveSite(MoveKind.R3, (0, 1, 7), "r3:000+"),
        MoveSite(MoveKind.R2_INSERT, (1, 1), "par+"),
        MoveSite(MoveKind.R2_INSERT, (0, 1), "par+:ou"),
    ])
    def test_positions_must_fit_the_code(self, site):
        code = decode_gauss_code("O1+ O2+ U1+ U2+")
        with pytest.raises(DomainError):
            apply_move(code, site)

    @pytest.mark.parametrize("record", [
        MoveRecord(MoveKind.OC, "oc", swaps=((-1, 0),)),
        MoveRecord(MoveKind.OC, "oc", swaps=((-10, 0),)),
        MoveRecord(MoveKind.OC, "oc", swaps=((1.0, 0),)),
        MoveRecord(MoveKind.OC, "oc", swaps=((0, True),)),
        MoveRecord(MoveKind.R1_DELETE, "ou+", removes=((1.0, Passage(UNDER, 1, 1)),)),
        MoveRecord(MoveKind.R1_DELETE, "ou+", removes=((True, Passage(UNDER, 1, 1)),)),
        MoveRecord(MoveKind.R1_INSERT, "ou+", inserts=((0, Passage(OVER, 3, 1)), (1.0, Passage(UNDER, 3, 1)))),
        MoveRecord(MoveKind.R1_INSERT, "ou+", inserts=((5, Passage(OVER, 3, 1)), (6, Passage(UNDER, 3, 1)))),
        MoveRecord(MoveKind.R1_INSERT, "ou+", inserts=((0, 5),)),
        MoveRecord(MoveKind.R1_INSERT, "ou+", inserts=((0, Passage(OVER, 9, 1)),)),  # no U9
        MoveRecord(MoveKind.R1_DELETE, "ou+", removes=((0, Passage(OVER, 1, 1)),)),  # U1 left alone
        MoveRecord(MoveKind.R1_INSERT, "ou+", inserts=((0, Passage(OVER, 1, 1)), (1, Passage(UNDER, 1, 1)))),
    ])
    def test_record_indices_must_be_ints_in_range(self, record):
        """Every remove, insert and swap index is an int (not a bool) in range,
        every insert a Passage, and the edit must give a valid code."""
        with pytest.raises(StaleSiteError):
            apply_record(decode_gauss_code("O1+ U1+ O2- U2-"), record)

    def test_r2_insert_then_delete_identity_all_variants(self, rng):
        for _ in range(40):
            code = random_code(rng, rng.randint(1, 4))
            for site in enumerate_sites(code, kinds={MoveKind.R2_INSERT}):
                new_code, record = apply_move(code, site)
                # the inverse is an R2 delete whose pattern must be present
                back_record = inverse_record(record)
                assert back_record.kind == MoveKind.R2_DELETE
                assert apply_record(new_code, back_record) == code
                # and enumerate_sites can see a matching R2 delete site
                positions = sorted(i for i, _ in record.inserts)
                dels = enumerate_sites(new_code, kinds={MoveKind.R2_DELETE})
                assert any(sorted({s.positions[0], (s.positions[0] + 1) % len(new_code),
                                   s.positions[1], (s.positions[1] + 1) % len(new_code)}) == positions
                           for s in dels)


class TestR3:
    BEFORE = "O2+ O1+ O3+ U1+ U3+ U2+"

    def test_braid_like_site(self):
        code = decode_gauss_code(self.BEFORE)
        sites = enumerate_sites(code, kinds={MoveKind.R3})
        assert [s.positions for s in sites] == [(0, 2, 4)]

    def test_self_inverse(self):
        code = decode_gauss_code(self.BEFORE)
        site = enumerate_sites(code, kinds={MoveKind.R3})[0]
        new_code, record = apply_move(code, site)
        assert new_code != code
        assert apply_record(new_code, inverse_record(record)) == code
        # the rewritten pairs form an R3 site again
        again = enumerate_sites(new_code, kinds={MoveKind.R3})
        assert any(s.positions == site.positions for s in again)

    def test_preserves_colorings(self, rng):
        seen = 0
        for _ in range(400):
            code = random_code(rng, rng.randint(3, 6))
            for site in enumerate_sites(code, kinds={MoveKind.R3}):
                new_code, _ = apply_move(code, site)
                assert coloring_count(new_code, 3) == coloring_count(code, 3)
                assert coloring_count(new_code, 5) == coloring_count(code, 5)
                seen += 1
        assert seen > 50


class TestOcClass:
    def test_contains_input_first(self, rng):
        code = random_code(rng, 4)
        variants = list(oc_class(code))
        assert variants[0] == code

    def test_all_variants_share_the_wgd(self, rng):
        for _ in range(50):
            code = random_code(rng, rng.randint(1, 5))
            w = gauss_to_wgd(code)
            variants = list(oc_class(code))
            assert len(set(variants)) == len(variants)
            for v in variants:
                assert gauss_to_wgd(v) == w


class TestWgdNeighbors:
    def test_empty_growth_gives_the_two_kinks(self):
        empty = WeldedGaussDiagram((), {}, {})
        nbs = wgd_neighbors(empty, kinds={MoveKind.R1_INSERT})
        assert nbs == {
            canonical_wgd(WeldedGaussDiagram((1,), {1: 1}, {1: 1})),
            canonical_wgd(WeldedGaussDiagram((1,), {1: 1}, {1: -1})),
        }

    def test_empty_r2_inserts_give_the_two_clasps(self):
        nbs = wgd_neighbors(WeldedGaussDiagram((), {}, {}), kinds={MoveKind.R2_INSERT})
        assert nbs == {
            canonical_wgd(WeldedGaussDiagram((1, 2), {1: 2, 2: 2}, {1: s, 2: -s})) for s in (1, -1)
        }

    def test_nothing_above_the_cap(self):
        w = gauss_to_wgd(decode_gauss_code(TREFOIL_TEXT))
        for cap in range(1, 6):
            nbs = list(wgd_neighbors_iter(w, max_crossings=cap))
            assert all(nb.n <= cap for nb in nbs)
            assert set(nbs) == {nb for nb in wgd_neighbors(w) if nb.n <= cap}

    @pytest.mark.parametrize("cap", [2.5, 3.0, "3", True, [3]])
    def test_non_int_cap_rejected(self, cap):
        """A cap is None or an int: ``True`` and ``3.0`` compare equal to
        ints but are no cap."""
        w = gauss_to_wgd(decode_gauss_code(TREFOIL_TEXT))
        with pytest.raises(DomainError, match="max_crossings"):
            wgd_neighbors(w, max_crossings=cap)
        with pytest.raises(DomainError, match="max_crossings"):
            next(wgd_neighbors_iter(w, max_crossings=cap))
        assert wgd_neighbors(w, max_crossings=None) == wgd_neighbors(w)
        assert wgd_neighbors(w, max_crossings=-1) == set()

    def test_kink_has_smaller_neighbor(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            w = canonical_wgd(random_wgd(rng, n))
            if not any(w.head[c] == c for c in w.order):
                continue
            nbs = wgd_neighbors(w, growth_allowed=False)
            assert any(nb.n == n - 1 for nb in nbs)

    def test_oc_only_neighbors_is_identity(self, rng):
        # every over-commute image is w itself; the set is empty only when
        # no interval carries two over passages
        saw_nonempty = 0
        for _ in range(100):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 6)))
            nbs = wgd_neighbors(w, kinds={MoveKind.OC})
            assert nbs <= {w}
            from weldedknots import wgd_to_gauss, enumerate_sites
            if enumerate_sites(wgd_to_gauss(w), kinds={MoveKind.OC}):
                assert nbs == {w}
                saw_nonempty += 1
        assert saw_nonempty > 20

    def test_fingerprints_constant_along_paths(self, rng):
        for _ in range(60):
            code = random_code(rng, rng.randint(0, 5))
            base = (coloring_count(code, 3), coloring_count(code, 5))
            for _ in range(6):
                sites = enumerate_sites(code)
                shrink = [s for s in sites if s.kind not in GROWTH_KINDS]
                pool = shrink if shrink and rng.random() < 0.6 else sites
                code, _ = apply_move(code, pool[rng.randrange(len(pool))])
                assert (coloring_count(code, 3), coloring_count(code, 5)) == base


@pytest.mark.parametrize("kinds", [["R1_insert"], [MoveKind.R3, "OC"], "R3", [None]])
def test_kinds_that_are_not_move_kinds_rejected(kinds):
    """A kind's value or name matches no site, so it is an error, not an
    empty answer."""
    code = decode_gauss_code(TREFOIL_TEXT)
    for generate in (enumerate_sites, lambda c, kinds: wgd_neighbors(gauss_to_wgd(c), kinds=kinds)):
        with pytest.raises(DomainError, match="not a MoveKind"):
            generate(code, kinds=kinds)


def test_raw_neighbors_by_kind_table():
    """``_raw_neighbor_encodings`` filters the one generator table by the
    kinds: for every set of kinds, passed as a frozenset, tuple or set, it
    yields each kind's encodings in the order OC, R1 insert, R2 insert, R1
    delete, R2 delete, R3."""
    order = (MoveKind.OC, MoveKind.R1_INSERT, MoveKind.R2_INSERT,
             MoveKind.R1_DELETE, MoveKind.R2_DELETE, MoveKind.R3)
    rng = random.Random(15)
    for _ in range(40):
        e = _wgd_packed(random_wgd(rng, rng.randint(0, 5)))
        by_kind = {k: list(_raw_neighbor_encodings(e, frozenset({k}))) for k in order}
        for r in range(len(order) + 1):
            for kinds in itertools.combinations(order, r):
                expected = [nb for k in kinds for nb in by_kind[k]]
                for wanted in (frozenset(kinds), kinds, set(kinds)):
                    assert list(_raw_neighbor_encodings(e, wanted)) == expected


class TestEdges:
    """``_edges``, the neighbour step of every walk, yields in order the
    raw neighbours of the kinds other than OC whose result fits the cap."""

    @staticmethod
    def _agrees(e, cap) -> None:
        within = {k for k in ALL_KINDS - {MoveKind.OC} if len(e) + _CROSSING_DELTA[k] <= cap}
        # compared as streams: the R2 inserts past 128 crossings are many
        pairs = itertools.zip_longest(_edges(e, cap), _raw_neighbor_encodings(e, within))
        assert all(a == b for a, b in pairs), (e, cap)

    def test_every_canonical_diagram_up_to_three_crossings(self):
        for e in _canonical_encodings(3):
            for cap in range(len(e) - 3, len(e) + 4):
                self._agrees(e, cap)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_seeded_diagrams(self, n):
        rng = random.Random(f"edges:{n}")
        for _ in range(30):
            e = _wgd_packed(random_wgd(rng, n))
            for cap in range(n - 3, n + 4):
                self._agrees(e, cap)

    def test_past_128_crossings(self):
        e = _wgd_packed(long_wgd(130))
        assert type(e) is tuple
        for cap in range(len(e) - 3, len(e) + 4):
            self._agrees(e, cap)


class TestHasDelete:
    """``_has_delete`` reads the R1 and R2 delete rules off the entries and
    builds nothing; it says whether the generators yield a delete."""

    @staticmethod
    def _agrees(e) -> None:
        first = (next(_r1_deletes(e, _gaps(e)), None), next(_r2_deletes(e, _gaps(e)), None))
        assert _has_delete(e) == (first != (None, None)), e

    def test_every_raw_encoding_up_to_four_crossings(self):
        for n in range(5):
            for entries in itertools.product(range(2 * n), repeat=n):
                self._agrees(_pack(entries))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_encodings(self, n):
        rng = random.Random(f"has_delete:{n}")
        for _ in range(300):
            self._agrees(_pack([rng.randrange(2 * n) for _ in range(n)]))

    def test_past_128_crossings(self):
        # tuples, with an R1 delete at 50 and an R2 delete at (100, 101);
        # heading 50 into gap 52 leaves the R2 delete alone
        w = long_wgd(130)
        e = _wgd_packed(w)
        assert type(e) is tuple and _has_delete(e)
        self._agrees(e)
        head = dict(w.head)
        head[w.order[50]] = w.order[52]
        e = _wgd_packed(WeldedGaussDiagram(w.order, head, w.sign))
        assert next(_r1_deletes(e, _gaps(e)), None) is None and _has_delete(e)
        self._agrees(e)


def _agrees_with_oracle(w, kinds) -> None:
    """Per kind, with growth off and under every relevant cap, the
    diagram-level neighbours of w equal the code-level oracle's."""
    by_kind = {k: set(oracle_neighbors_iter(w, {k})) for k in kinds}
    for k, expected in by_kind.items():
        assert wgd_neighbors(w, kinds={k}) == expected, (k, encode_wgd(w))
    everything = set().union(*by_kind.values())
    assert wgd_neighbors(w, kinds=kinds) == everything
    shrink = set().union(*(nbs for k, nbs in by_kind.items() if k not in GROWTH_KINDS))
    assert wgd_neighbors(w, kinds=kinds, growth_allowed=False) == shrink
    for cap in range(max(w.n - 2, 0), w.n + 3):
        capped = {nb for nb in everything if nb.n <= cap}
        assert wgd_neighbors(w, kinds=kinds, max_crossings=cap) == capped, (cap, encode_wgd(w))


class TestDiagramSitesMatchOracle:
    """The generator reads sites off the diagram's gaps; the oracle applies
    every code-level site to every code of the over-commute class."""

    def test_every_diagram_up_to_three_crossings(self):
        for w in enumerate_canonical_wgds(3):
            _agrees_with_oracle(w, ALL_KINDS)

    def test_every_four_crossing_diagram(self):
        # the oracle's R2 inserts cost ~45 s over all n = 4 diagrams; they
        # are covered at n <= 3 and by the seeded samples below
        for w in enumerate_canonical_wgds(4):
            if w.n == 4:
                _agrees_with_oracle(w, ALL_KINDS - {MoveKind.R2_INSERT})

    @pytest.mark.parametrize("n, count", [(4, 40), (5, 25), (6, 6)])
    def test_seeded_samples(self, n, count):
        rng = random.Random(f"oracle:{n}")
        for _ in range(count):
            _agrees_with_oracle(canonical_wgd(random_wgd(rng, n)), ALL_KINDS)

    @pytest.mark.parametrize("n", [128, 130])
    def test_past_128_crossings(self, n):
        # packed encodings turn from bytes into tuples past 128 crossings:
        # R1 inserts cross that line upward at 128, the R2 delete downward
        # at 130; the oracle's R2 inserts would take minutes here
        w = canonical_wgd(long_wgd(n))
        _agrees_with_oracle(w, ALL_KINDS - {MoveKind.R2_INSERT})
        shrink = wgd_neighbors(w, growth_allowed=False)
        assert {nb.n for nb in shrink} == {n - 2, n - 1, n}
