import random

import pytest

from weldedknots import (
    DomainError,
    GaussCode,
    WeldedGaussDiagram,
    bar,
    bar_code,
    canonical_wgd,
    decode_gauss_code,
    encode_gauss_code,
    enumerate_canonical_wgds,
    fingerprint,
    gauss_to_wgd,
    global_reversal,
    reverse,
    wgd_neighbors,
    wgd_to_gauss,
)
from weldedknots.model import _canonical_encoding, _canonical_reversal, _wgd_from_encoding, _wgd_packed
from weldedknots.search import _canonical_encodings

from conftest import TREFOIL_TEXT, long_wgd, random_code, random_wgd, reference_wgd


class TestReverse:
    def test_empty(self):
        assert reverse(GaussCode()) == GaussCode()

    def test_trefoil_sequence_reversal(self):
        code = decode_gauss_code(TREFOIL_TEXT)
        assert encode_gauss_code(reverse(code)) == "U3+ O2+ U1+ O3+ U2+ O1+"

    def test_involution(self, rng):
        for _ in range(300):
            code = random_code(rng, rng.randint(0, 8))
            assert reverse(reverse(code)) == code
        for _ in range(300):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 8)))
            assert reverse(reverse(w)) == w


class TestBar:
    def test_reference_signs_flip(self):
        w = reference_wgd()
        flipped = bar(w)
        assert flipped.order == w.order
        assert flipped.head == w.head
        assert flipped.sign == {1: -1, 2: -1, 3: 1, 4: 1, 5: 1, 6: -1}

    def test_involution(self, rng):
        for _ in range(1000):
            w = random_wgd(rng, rng.randint(0, 8))
            assert bar(bar(w)) == w

    def test_trefoil_bar_code(self):
        code = bar_code(decode_gauss_code(TREFOIL_TEXT))
        w = gauss_to_wgd(code)
        expected = canonical_wgd(
            WeldedGaussDiagram((2, 1, 3), {1: 3, 2: 1, 3: 2}, {1: -1, 2: -1, 3: -1})
        )
        assert w == expected

    def test_code_contract(self, rng):
        # bar leaves order and head untouched, so its output need not be
        # canonical; the contract is equality of welded objects
        for _ in range(500):
            code = random_code(rng, rng.randint(0, 8))
            assert gauss_to_wgd(bar_code(code)) == canonical_wgd(bar(gauss_to_wgd(code)))


class TestGlobalReversal:
    def test_empty(self):
        assert global_reversal(GaussCode()) == GaussCode()
        empty = WeldedGaussDiagram((), {}, {})
        assert global_reversal(empty) == empty

    def test_composition_and_commutation(self, rng):
        for _ in range(300):
            w = random_wgd(rng, rng.randint(0, 8))
            g = global_reversal(w)
            assert g == canonical_wgd(reverse(bar(w)))
            assert g == canonical_wgd(bar(reverse(w)))
            assert global_reversal(g) == canonical_wgd(w)

    def test_reference_composition(self):
        w = reference_wgd()
        assert global_reversal(w) == canonical_wgd(reverse(bar(w)))

    def test_move_equivariance(self, rng):
        # reversal is an involutive bijection on diagrams that maps moves
        # to moves, so it must carry neighbor sets onto neighbor sets
        for _ in range(40):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 4)))
            g = global_reversal(w)
            image = {canonical_wgd(global_reversal(nb)) for nb in wgd_neighbors(w)}
            assert image == wgd_neighbors(g)


class TestCanonicalReversal:
    """The packed reversal (entry j to n-1-j, head h to n-1-((h+1) mod n),
    sign bits flipped for global reversal) against reversing a realizing
    code."""

    @staticmethod
    def diagrams():
        rng = random.Random(20141)
        yield from enumerate_canonical_wgds(4)
        for n in range(5, 9):
            for _ in range(300):
                yield random_wgd(rng, n)
        yield long_wgd(130)  # past 128 crossings: the tuple form

    def test_against_code_reversal(self):
        count = 0
        for w in self.diagrams():
            e = _wgd_packed(w)
            reversed_w = _wgd_from_encoding(_canonical_reversal(e))
            global_w = _wgd_from_encoding(_canonical_reversal(e, flip_signs=True))
            code = wgd_to_gauss(w)
            assert reversed_w == gauss_to_wgd(reverse(code)) == reverse(w)
            assert global_w == gauss_to_wgd(global_reversal(code)) == global_reversal(w)
            count += 1
        assert count == len(_canonical_encodings(4)) + 4 * 300 + 1

    def test_involution_on_the_encoding(self):
        for w in self.diagrams():
            e = _wgd_packed(w)
            for flip in (False, True):
                assert _canonical_reversal(_canonical_reversal(e, flip), flip) == _canonical_encoding(e)

    def test_invalid_diagram_rejected(self):
        bad = WeldedGaussDiagram((1, 2), {1: 2, 2: 3}, {1: 1, 2: 1})
        for op in (reverse, global_reversal):
            with pytest.raises(DomainError, match="invalid welded Gauss diagram"):
                op(bad)


class TestFingerprintCoincidence:
    def test_reverse_and_bar_preserve_fingerprints(self, rng):
        for _ in range(40):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 6)))
            fp = fingerprint(w)
            assert fingerprint(reverse(w)) == fp
            assert fingerprint(bar(w)) == fp
            assert fingerprint(global_reversal(w)) == fp
