import itertools

import pytest

from weldedknots import (
    DomainError,
    GaussCode,
    Group,
    arcs,
    builtin_group,
    coloring_count,
    coloring_count_bruteforce,
    decode_gauss_code,
    dihedral_group,
    fingerprint,
    hom_count,
    symmetric_group_3,
)
from weldedknots.moves import MoveKind, apply as apply_move, enumerate_sites

from conftest import TREFOIL_TEXT, random_code

TREFOIL = decode_gauss_code(TREFOIL_TEXT)


def brute_hom_count(code, group):
    """Oracle: check the conjugation relation on every assignment."""
    st = arcs(code)
    total = 0
    for vals in itertools.product(range(group.order), repeat=st.arc_count):
        ok = True
        for c in st.crossings:
            g = vals[c.over_arc]
            h = g if c.sign > 0 else group.inv(g)
            if vals[c.out_arc] != group.conjugate(h, vals[c.in_arc]):
                ok = False
                break
        total += ok
    return total


class TestArcs:
    def test_empty(self):
        st = arcs(GaussCode())
        assert st.arc_count == 1
        assert st.crossings == ()

    def test_single_kink(self):
        st = arcs(decode_gauss_code("O1+ U1+"))
        assert st.arc_count == 1
        c = st.crossings[0]
        assert c.over_arc == c.in_arc == c.out_arc

    def test_trefoil(self):
        st = arcs(TREFOIL)
        assert st.arc_count == 3
        for c in st.crossings:
            assert c.over_arc not in (c.in_arc, c.out_arc)

    def test_arc_count_equals_crossings(self, rng):
        for _ in range(200):
            code = random_code(rng, rng.randint(1, 8))
            assert arcs(code).arc_count == code.n

    def test_oc_swap_leaves_table_alone(self, rng):
        for _ in range(100):
            code = random_code(rng, rng.randint(2, 6))
            for site in enumerate_sites(code, kinds={MoveKind.OC}):
                swapped, _ = apply_move(code, site)
                assert arcs(swapped).crossings == arcs(code).crossings


class TestColorings:
    def test_empty(self):
        assert coloring_count(GaussCode(), 3) == 3

    def test_trefoil_frozen_constants(self):
        assert coloring_count(TREFOIL, 3) == 9
        assert coloring_count(TREFOIL, 5) == 5
        assert coloring_count_bruteforce(TREFOIL, 3) == 9
        assert coloring_count_bruteforce(TREFOIL, 5) == 5

    def test_non_prime_rejected(self):
        for bad in (4, 6, 9, 1, 0, -3, 2):
            with pytest.raises(DomainError):
                coloring_count(TREFOIL, bad)

    def test_linear_algebra_equals_bruteforce(self, rng):
        for _ in range(150):
            code = random_code(rng, rng.randint(0, 4))
            for p in (3, 5, 7):
                assert coloring_count(code, p) == coloring_count_bruteforce(code, p)


class TestGroups:
    def test_builtins(self):
        assert symmetric_group_3().order == 6
        for m in range(1, 7):
            assert dihedral_group(m).order == 2 * m
        assert builtin_group("S3").order == 6
        assert builtin_group("d4").order == 8
        with pytest.raises(DomainError):
            builtin_group("Q8")
        with pytest.raises(DomainError):
            dihedral_group(7)

    def test_bad_tables_rejected(self):
        with pytest.raises(DomainError):  # no identity
            Group("junk", ((0, 0), (0, 0)))
        with pytest.raises(DomainError):  # one-sided inverse only
            Group("junk", ((0, 1, 2), (1, 2, 0), (2, 1, 0)))
        with pytest.raises(DomainError):  # identity and inverses, not associative
            Group("junk", ((0, 1, 2), (1, 0, 0), (2, 0, 1)))

    def test_s3_is_nonabelian(self):
        g = symmetric_group_3()
        assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))


class TestHomCounts:
    def test_empty_gives_group_order(self):
        for g in (symmetric_group_3(), dihedral_group(4), dihedral_group(6)):
            assert hom_count(GaussCode(), g) == g.order

    def test_kink_forces_out_equals_in(self):
        for g in (symmetric_group_3(), dihedral_group(5)):
            assert hom_count(decode_gauss_code("O1+ U1+"), g) == g.order
            assert hom_count(decode_gauss_code("U1- O1-"), g) == g.order

    def test_trefoil_s3_frozen_regression_constant(self):
        g = symmetric_group_3()
        assert brute_hom_count(TREFOIL, g) == 12
        assert hom_count(TREFOIL, g) == 12

    def test_backtracking_equals_bruteforce(self, rng):
        g = symmetric_group_3()
        for _ in range(60):
            code = random_code(rng, rng.randint(0, 4))
            assert hom_count(code, g) == brute_hom_count(code, g)

    def test_dihedral_counts_match_bruteforce(self, rng):
        g = dihedral_group(4)
        for _ in range(20):
            code = random_code(rng, rng.randint(0, 3))
            assert hom_count(code, g) == brute_hom_count(code, g)


class TestFingerprint:
    def test_empty(self):
        fp = fingerprint(GaussCode(), primes=(3, 5))
        assert dict(fp.coloring_counts) == {3: 3, 5: 5}

    def test_trefoil(self):
        fp = fingerprint(TREFOIL, primes=(3, 5), groups=(symmetric_group_3(),))
        assert dict(fp.coloring_counts) == {3: 9, 5: 5}
        assert dict(fp.hom_counts) == {"S3": 12}

    def test_text_rejected(self):
        with pytest.raises(DomainError):
            fingerprint("O1+ U1+")

    def test_counts_at_least_trivial_baseline(self, rng):
        g = symmetric_group_3()
        for _ in range(50):
            code = random_code(rng, rng.randint(0, 5))
            fp = fingerprint(code, primes=(3, 5), groups=(g,))
            for p, count in fp.coloring_counts:
                assert count >= p
            for _, count in fp.hom_counts:
                assert count >= g.order

    def test_constant_along_move_paths(self, rng):
        from weldedknots import GROWTH_KINDS

        g = symmetric_group_3()
        for _ in range(25):
            code = random_code(rng, rng.randint(0, 4))
            base = fingerprint(code, primes=(3, 5), groups=(g,))
            for _ in range(6):
                sites = enumerate_sites(code)
                shrink = [s for s in sites if s.kind not in GROWTH_KINDS]
                pool = shrink if shrink and rng.random() < 0.6 else sites
                code, _ = apply_move(code, pool[rng.randrange(len(pool))])
                assert fingerprint(code, primes=(3, 5), groups=(g,)) == base
