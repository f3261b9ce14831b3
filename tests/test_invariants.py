import collections
import hashlib
import itertools
import math
import random
import subprocess
import sys
import time

import pytest

from weldedknots import (
    DomainError,
    GaussCode,
    Group,
    Passage,
    WeldedGaussDiagram,
    builtin_group,
    coloring_count,
    decode_gauss_code,
    dihedral_group,
    enumerate_canonical_wgds,
    fingerprint,
    hom_count,
    symmetric_group_3,
    wgd_to_gauss,
)
from weldedknots.invariants import _arc_encoding, _is_odd_prime
from weldedknots.model import UNDER
from weldedknots.moves import MoveKind, apply as apply_move, enumerate_sites

from conftest import (
    A4,
    TREFOIL_TEXT,
    ArcStructure,
    CrossingArcs,
    coloring_count_bruteforce,
    long_wgd,
    oracle_arcs,
    random_code,
    scrambled,
    subprocess_env,
)

TREFOIL = decode_gauss_code(TREFOIL_TEXT)


def brute_hom_count(code, group):
    """Oracle: check the conjugation relation on every assignment to the
    arcs of :func:`oracle_arcs`, reading ``group.table`` alone, with the
    identity and inverses found here."""
    table = group.table
    k = len(table)
    one = next(e for e in range(k) if all(table[e][x] == x for x in range(k)))
    inv = [next(b for b in range(k) if table[a][b] == one) for a in range(k)]
    st = oracle_arcs(code)
    total = 0
    for vals in itertools.product(range(k), repeat=st.arc_count):
        ok = True
        for c in st.crossings:
            g = vals[c.over_arc]
            h = g if c.sign > 0 else inv[g]
            if vals[c.out_arc] != table[table[h][vals[c.in_arc]]][inv[h]]:
                ok = False
                break
        total += ok
    return total


def _read_arcs(e, crossings) -> ArcStructure:
    """The arcs that the counts read off the packed encoding ``e`` whose
    j-th crossing is ``crossings[j]``: in arc j - 1, out arc j, over arc
    ``e[j] >> 1`` and sign + exactly when ``e[j] & 1``."""
    n = len(e)
    assert n == len(crossings)
    return ArcStructure(max(n, 1), tuple(
        CrossingArcs(crossing=c, over_arc=v >> 1, in_arc=(j - 1) % n, out_arc=j, sign=1 if v & 1 else -1)
        for j, (c, v) in enumerate(zip(crossings, e))
    ))


def code_arcs(code: GaussCode) -> ArcStructure:
    return _read_arcs(_arc_encoding(code), [p.crossing for p in code.passages if p.role == UNDER])


def wgd_arcs(w: WeldedGaussDiagram) -> ArcStructure:
    return _read_arcs(_arc_encoding(w), w.order)


class TestArcs:
    def test_empty(self):
        st = code_arcs(GaussCode())
        assert st.arc_count == 1
        assert st.crossings == ()

    def test_single_kink(self):
        st = code_arcs(decode_gauss_code("O1+ U1+"))
        assert st.arc_count == 1
        c = st.crossings[0]
        assert c.over_arc == c.in_arc == c.out_arc

    def test_trefoil(self):
        st = code_arcs(TREFOIL)
        assert st.arc_count == 3
        for c in st.crossings:
            assert c.over_arc not in (c.in_arc, c.out_arc)

    def test_arc_count_equals_crossings(self, rng):
        for _ in range(200):
            code = random_code(rng, rng.randint(1, 8))
            assert code_arcs(code).arc_count == code.n

    def test_any_labels_and_basepoint_against_scan_oracle(self):
        rng = random.Random("code-arcs")
        for _ in range(300):
            code = random_code(rng, rng.randint(0, 8))
            labels = dict(zip(sorted(code.labels()), rng.sample(range(1, 1000), code.n)))
            k = rng.randrange(len(code)) if code.n else 0
            passages = [Passage(p.role, labels[p.crossing], p.sign) for p in code.passages]
            code = GaussCode(tuple(passages[k:] + passages[:k]))
            assert code_arcs(code) == oracle_arcs(code)

    def test_oc_swap_leaves_table_alone(self, rng):
        for _ in range(100):
            code = random_code(rng, rng.randint(2, 6))
            for site in enumerate_sites(code, kinds={MoveKind.OC}):
                swapped, _ = apply_move(code, site)
                assert code_arcs(swapped).crossings == code_arcs(code).crossings


class TestColorings:
    def test_empty(self):
        assert coloring_count(GaussCode(), 3) == 3

    def test_trefoil_frozen_constants(self):
        assert coloring_count(TREFOIL, 3) == 9
        assert coloring_count(TREFOIL, 5) == 5
        assert coloring_count_bruteforce(TREFOIL, 3) == 9
        assert coloring_count_bruteforce(TREFOIL, 5) == 5
        assert fingerprint(TREFOIL, primes=(3, 5, 7)).coloring_counts == ((3, 9), (5, 5), (7, 7))

    def test_non_prime_rejected(self):
        for bad in (4, 6, 9, 1, 0, -3, 2, 3.0, 5.0):
            with pytest.raises(DomainError):
                coloring_count(TREFOIL, bad)
            with pytest.raises(DomainError):
                fingerprint(TREFOIL, primes=(3, bad))

    # 561 is a Carmichael number; the others are the least strong pseudoprimes
    # to the bases 2; 2 and 3; 2 to 7; 2 to 31
    @pytest.mark.parametrize("p", [561, 2047, 1373653, 3215031751, 3825123056546413051])
    def test_pseudoprimes_rejected(self, p):
        assert not _is_odd_prime(p)
        with pytest.raises(DomainError):
            coloring_count(TREFOIL, p)

    def test_primality_equals_trial_division(self):
        for p in range(-3, 20000):
            assert _is_odd_prime(p) == (p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1))), p

    @pytest.mark.parametrize("p", [10**16 + 61, 2**61 - 1, 2**64 - 59])
    def test_large_primes_accepted_at_once(self, p):
        start = time.perf_counter()
        assert _is_odd_prime(p)
        assert time.perf_counter() - start < 0.1

    def test_primes_from_two_to_the_64_rejected(self):
        # 2**64 + 13 is prime, but past the bound where the test is exact
        for p in (2**64, 2**64 + 13, 10**400 + 1):
            with pytest.raises(DomainError):
                fingerprint(TREFOIL, primes=(3, p))

    def test_linear_algebra_equals_bruteforce(self, rng):
        for _ in range(150):
            code = random_code(rng, rng.randint(0, 4))
            for p in (3, 5, 7):
                assert coloring_count(code, p) == coloring_count_bruteforce(code, p)

    def test_several_primes_equal_bruteforce(self, rng):
        """One elimination serves several primes, splitting the modulus at
        a pivot that is no unit; one prime at a time never splits."""
        primes = (3, 5, 7, 11)
        codes = [wgd_to_gauss(w) for w in enumerate_canonical_wgds(3)]
        codes += [random_code(rng, 4) for _ in range(12)]
        for code in codes:
            expected = tuple((p, coloring_count_bruteforce(code, p)) for p in primes)
            assert fingerprint(code, primes=primes).coloring_counts == expected, code


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
        for table in (5, (1, 2), ((0, 1), 5), ((0, 1), (1,))):
            with pytest.raises(DomainError, match="square"):
                Group("F", table)
        for table in (((0.0, 1.0), (1.0, 0.0)), ((0, 1), (1, 0.0)), ((False, True), (True, False))):
            with pytest.raises(DomainError, match="must be ints"):  # 1.0 and True equal 1
                Group("F", table)
        for name in (5, None, b"A"):
            with pytest.raises(DomainError, match="must be a str"):
                Group(name, ((0,),))
        with pytest.raises(DomainError, match="must be a str"):
            fingerprint(TREFOIL, groups=[Group(5, ((0,),)), Group("A", ((0,),))])

    @pytest.mark.parametrize("name", [3, None, b"S3"])
    def test_name_must_be_a_str(self, name):
        with pytest.raises(DomainError, match="must be a str"):
            builtin_group(name)

    @pytest.mark.parametrize("m", ["3", 2.0, True, None])
    def test_dihedral_size_must_be_an_int(self, m):
        with pytest.raises(DomainError, match="must be an int"):
            dihedral_group(m)

    def test_group_names_are_not_groups(self):
        with pytest.raises(DomainError, match="expected a Group"):
            fingerprint(TREFOIL, groups=["S3"])
        with pytest.raises(DomainError, match="expected a Group"):
            fingerprint(TREFOIL, groups=[symmetric_group_3(), "D4"])
        with pytest.raises(DomainError, match="expected a Group"):
            hom_count(TREFOIL, "S3")

    def test_builtin_tables_are_pinned(self):
        """S3 and D1..D6, entry for entry: D_m's element i + m*f is r^i s^f."""
        tables = [symmetric_group_3().table] + [dihedral_group(m).table for m in range(1, 7)]
        digest = hashlib.sha256(repr(tables).encode()).hexdigest()
        assert digest == "a7ded722171e4fc6d7025753db365036bf2b448f0aaa6c885b677bc2bc7f972d"

    def test_rows_given_as_lists_are_stored_as_tuples(self):
        group = Group("x", [[0]])
        assert group == Group("x", ((0,),)) and hash(group) == hash(Group("x", ((0,),)))

    def test_s3_is_nonabelian(self):
        g = symmetric_group_3()
        assert any(g.table[a][b] != g.table[b][a] for a in range(6) for b in range(6))


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

    def test_a4_counts_up_to_four_crossings(self):
        """A4 is no built-in group and no dihedral one: of the 1,133
        canonical diagrams with at most four crossings, 29 have 36
        homomorphisms into it and the rest 12, and the 29 match brute force."""
        codes = [wgd_to_gauss(w) for w in enumerate_canonical_wgds(4)]
        counts = [hom_count(code, A4) for code in codes]
        assert collections.Counter(counts) == {36: 29, 12: 1104}
        for code, count in zip(codes, counts):
            if count == 36:
                assert brute_hom_count(code, A4) == 36, code

    def test_branch_choice_cost(self):
        """A time-free pin on the search: ``try_assign`` calls for S3 on a
        seeded 40-crossing code.  Branching on the lowest free arc instead
        of the arc that fires the most relations takes more than ten times
        as many, so the count stops there."""
        code = random_code(random.Random("branch-0"), 40)
        calls = 0

        class TooMany(Exception):
            pass

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "try_assign":
                calls += 1
                if calls > 25_000:
                    raise TooMany

        sys.setprofile(profile)
        try:
            count = hom_count(code, symmetric_group_3())
        except TooMany:
            count = None
        finally:
            sys.setprofile(None)
        assert (count, calls) == (6, 2428)


class TestOneArcEncoding:
    def test_diagrams_read_as_their_codes(self):
        """Every diagram with at most 3 crossings, rotated and relabelled,
        has the arcs of its code, and so the same colourings and
        homomorphism counts."""
        rng = random.Random("one-arc-encoding")
        groups = (symmetric_group_3(), dihedral_group(4), A4)
        diagrams = [scrambled(w, rng) for w in enumerate_canonical_wgds(3)]
        assert len(diagrams) == 89
        for w in diagrams:
            code = wgd_to_gauss(w)
            assert _arc_encoding(w) == _arc_encoding(code), w
            for p in (3, 5, 7):
                assert coloring_count(w, p) == coloring_count(code, p), (w, p)
            for g in groups:
                assert hom_count(w, g) == hom_count(code, g), (w, g.name)


class TestFingerprint:
    def test_empty(self):
        fp = fingerprint(GaussCode(), primes=(3, 5))
        assert dict(fp.coloring_counts) == {3: 3, 5: 5}

    def test_trefoil(self):
        fp = fingerprint(TREFOIL, primes=(3, 5), groups=(symmetric_group_3(),))
        assert dict(fp.coloring_counts) == {3: 9, 5: 5}
        assert dict(fp.hom_counts) == {"S3": 12}

    def test_counts_equal_the_public_functions(self, rng):
        groups = (symmetric_group_3(), dihedral_group(4))
        for _ in range(20):
            code = random_code(rng, rng.randint(0, 5))
            fp = fingerprint(code, primes=(3, 5, 7), groups=groups)
            assert fp.coloring_counts == tuple((p, coloring_count(code, p)) for p in (3, 5, 7))
            assert fp.hom_counts == tuple(sorted((g.name, hom_count(code, g)) for g in groups))

    def test_colorings_past_128_crossings(self):
        """Past 128 crossings a packed encoding is a tuple, whose sign bits
        are cleared entry by entry; one elimination over Z/m serves every
        prime, however large m grows."""
        w = long_wgd(130)
        code = wgd_to_gauss(w)
        primes = (3, 5, 2**61 - 1)
        for obj in (w, code):
            assert fingerprint(obj, primes=primes).coloring_counts == tuple((p, coloring_count(code, p)) for p in primes)

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


    def test_repeated_primes_count_once(self):
        fp = fingerprint(TREFOIL, primes=(5, 3, 3, 5))
        assert fp.coloring_counts == ((3, 9), (5, 5))
        assert fp == fingerprint(TREFOIL, primes=(3, 5))

    def test_repeated_groups_count_once(self):
        s3 = symmetric_group_3()
        fp = fingerprint(TREFOIL, groups=(s3, dihedral_group(4), symmetric_group_3(), s3))
        assert fp.hom_counts == (("D4", hom_count(TREFOIL, dihedral_group(4))), ("S3", 12))

    def test_iterators_read_once(self):
        """Primes and groups may be iterators: each is read once."""
        s3 = symmetric_group_3()
        expected = fingerprint(TREFOIL, primes=(3, 5), groups=(s3,))
        assert fingerprint(TREFOIL, primes=iter([3, 5]), groups=iter([s3])) == expected
        assert fingerprint(TREFOIL, primes=(p for p in (5, 3)), groups=(g for g in [s3])) == expected

    def test_different_groups_with_one_name_rejected(self):
        impostor = Group("S3", dihedral_group(3).table)  # isomorphic, but another table
        assert impostor != symmetric_group_3()
        with pytest.raises(DomainError, match="S3"):
            fingerprint(TREFOIL, groups=(symmetric_group_3(), impostor))


def _relabelled_wgd(rng: random.Random, n: int) -> WeldedGaussDiagram:
    """A random diagram whose labels are drawn from 1..999 (mostly outside
    1..n) and whose order starts at a random rotation."""
    labels = rng.sample(range(1, 1000), n)
    k = rng.randrange(n) if n else 0
    order = labels[k:] + labels[:k]
    return WeldedGaussDiagram(
        order, {c: rng.choice(labels) for c in labels}, {c: rng.choice((1, -1)) for c in labels}
    )


class TestWgdArcs:
    """Arcs read off a diagram's encoding equal the arcs of its realizing code."""

    def test_every_canonical_diagram_up_to_four_crossings(self):
        diagrams = enumerate_canonical_wgds(4)
        assert len(diagrams) == 1133
        for w in diagrams:
            assert wgd_arcs(w) == oracle_arcs(wgd_to_gauss(w))

    def test_any_labels_and_basepoint(self):
        rng = random.Random("wgd-arcs")
        groups = (symmetric_group_3(),)
        for _ in range(300):
            w = _relabelled_wgd(rng, rng.randint(0, 6))
            code = wgd_to_gauss(w)
            assert wgd_arcs(w) == oracle_arcs(code)
            assert fingerprint(w, primes=(3, 5), groups=groups) == fingerprint(code, primes=(3, 5), groups=groups)

    @pytest.mark.parametrize("w", [
        WeldedGaussDiagram((1, 2), {1: 2, 2: 3}, {1: 1, 2: -1}),  # head at an unknown label
        WeldedGaussDiagram((1,), {1: 1}, {1: 1.0}),               # float sign
    ])
    def test_invalid_diagram_rejected(self, w):
        with pytest.raises(DomainError):
            fingerprint(w)
        with pytest.raises(DomainError):
            _arc_encoding(w)


def test_package_import_leaves_numpy_out():
    """The package never imports numpy."""
    probe = "import sys, weldedknots, weldedknots.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
