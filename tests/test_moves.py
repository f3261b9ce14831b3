import pytest

from weldedknots import (
    DomainError,
    GROWTH_KINDS,
    GaussCode,
    MoveKind,
    MoveSite,
    StaleSiteError,
    WeldedGaussDiagram,
    apply_move,
    apply_record,
    canonical_wgd,
    coloring_count,
    decode_gauss_code,
    encode_gauss_code,
    enumerate_sites,
    gauss_to_wgd,
    inverse_record,
    oc_class,
    validate_code,
    wgd_neighbors,
)

from conftest import TREFOIL_TEXT, random_code, random_wgd


class TestEnumerate:
    def test_empty_code_offers_r1_inserts_only(self):
        sites = enumerate_sites(GaussCode())
        assert all(s.kind == MoveKind.R1_INSERT for s in sites)
        assert len(sites) == 4  # one slot, four kink variants
        assert {s.variant for s in sites} == {"ou+", "ou-", "uo+", "uo-"}

    def test_growth_excluded(self):
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
        count = 0
        while count < 1000:
            code = random_code(rng, rng.randint(0, 5))
            sites = enumerate_sites(code)
            site = sites[rng.randrange(len(sites))]
            new_code, record = apply_move(code, site)
            assert apply_record(new_code, inverse_record(record)) == code
            count += 1

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
