import itertools
import random

import pytest

from weldedknots import (
    DomainError,
    GaussCode,
    WeldedGaussDiagram,
    bar,
    canonical_wgd,
    decode_gauss_code,
    encode_gauss_code,
    enumerate_canonical_wgds,
    fingerprint,
    gauss_to_wgd,
    global_reversal,
    reverse,
    wgd_to_gauss,
)
from weldedknots.model import (
    OVER,
    UNDER,
    Passage,
    _BAR,
    _GLOB,
    _REV,
    _canonical_encoding,
    _canonical_encodings,
    _canonical_image,
    _orbit_canonical,
    _wgd_from_encoding,
    _wgd_packed,
)
from weldedknots.moves import ALL_KINDS, _raw_neighbor_encodings

from conftest import TREFOIL_TEXT, long_wgd, random_code, random_wgd, reference_wgd, scrambled

_SIGN_FLIP = bytes(v ^ 1 for v in range(256))


def group_images(e) -> list:
    """The canonical encodings of the images of the packed encoding ``e``
    under id, bar, reverse and global reversal, in that order (the elements
    0..3 of the reversal group), each computed on its own."""
    flipped = e.translate(_SIGN_FLIP) if type(e) is bytes else tuple(v ^ 1 for v in e)
    return [_canonical_encoding(e), _canonical_encoding(flipped), _canonical_image(e, _REV), _canonical_image(e, _GLOB)]


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
        flipped = {1: -1, 2: -1, 3: 1, 4: 1, 5: 1, 6: -1}
        assert bar(w) == canonical_wgd(WeldedGaussDiagram(w.order, w.head, flipped))

    def test_involution(self, rng):
        for _ in range(1000):
            w = random_wgd(rng, rng.randint(0, 8))
            assert bar(bar(w)) == canonical_wgd(w)

    def test_trefoil_bar_code(self):
        code = bar(decode_gauss_code(TREFOIL_TEXT))
        w = gauss_to_wgd(code)
        expected = canonical_wgd(
            WeldedGaussDiagram((2, 1, 3), {1: 3, 2: 1, 3: 2}, {1: -1, 2: -1, 3: -1})
        )
        assert w == expected

    def test_code_contract(self, rng):
        for _ in range(500):
            code = random_code(rng, rng.randint(0, 8))
            assert gauss_to_wgd(bar(code)) == bar(gauss_to_wgd(code))


def all_codes(n_max: int):
    """Every code with the labels 1..n, n <= n_max: each choice of signs,
    each order of the 2n passages."""
    for n in range(n_max + 1):
        for signs in itertools.product((1, -1), repeat=n):
            passages = [Passage(role, c, s) for c, s in enumerate(signs, 1) for role in (OVER, UNDER)]
            yield from map(GaussCode, itertools.permutations(passages))


class TestOneRulePerRepresentation:
    def test_codes_and_diagrams_agree(self):
        """Each operator is an involution on codes, commutes with
        ``gauss_to_wgd``, and returns the canonical form of a diagram's
        image, also for a diagram that is not canonical: on every code with
        at most two crossings and 500 seeded codes with up to 8."""
        rng = random.Random(20143)
        codes = list(all_codes(2)) + [random_code(rng, rng.randint(0, 8)) for _ in range(500)]
        assert len(codes) == 1 + 4 + 96 + 500
        for code in codes:
            w = gauss_to_wgd(code)
            raw = scrambled(w, rng)
            for op in (reverse, bar, global_reversal):
                image = op(code)
                assert op(image) == code
                assert gauss_to_wgd(image) == op(w) == op(raw) == canonical_wgd(op(raw))


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

    def test_move_equivariance(self):
        """bar, reverse and global reversal are involutive bijections on
        diagrams that map moves to moves, so each carries neighbour sets
        onto neighbour sets: checked on every canonical diagram with at most
        4 crossings, through the packed operators, which
        :class:`TestCanonicalReversal` checks against the public ones.  The
        orbit flood of ``build_atlas`` is exact only because of this."""
        neighbors = {
            e: {_canonical_encoding(raw) for raw in _raw_neighbor_encodings(e, ALL_KINDS)}
            for e in _canonical_encodings(4)
        }
        images: dict = {}
        for e, nbs in neighbors.items():
            for nb in nbs:
                if nb not in images:
                    images[nb] = group_images(nb)
            for g in (1, 2, 3):  # bar, reverse, global reversal
                image = {images[nb][g] for nb in nbs}
                assert image == neighbors[group_images(e)[g]], (g, e)


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
            reversed_w = _wgd_from_encoding(_canonical_image(e, _REV))
            global_w = _wgd_from_encoding(_canonical_image(e, _GLOB))
            code = wgd_to_gauss(w)
            assert reversed_w == gauss_to_wgd(reverse(code)) == reverse(w)
            assert global_w == gauss_to_wgd(global_reversal(code)) == global_reversal(w)
            barred_w = _wgd_from_encoding(_canonical_image(e, _BAR))
            assert barred_w == _wgd_from_encoding(group_images(e)[1])
            assert barred_w == gauss_to_wgd(bar(code)) == bar(w)
            count += 1
        assert count == len(_canonical_encodings(4)) + 4 * 300 + 1

    def test_involution_on_the_encoding(self):
        for w in self.diagrams():
            e = _wgd_packed(w)
            for g in (_BAR, _REV, _GLOB):
                assert _canonical_image(_canonical_image(e, g), g) == _canonical_encoding(e)

    def test_invalid_diagram_rejected(self):
        bad = WeldedGaussDiagram((1, 2), {1: 2, 2: 3}, {1: 1, 2: 1})
        for op in (reverse, bar, global_reversal):
            with pytest.raises(DomainError, match="invalid welded Gauss diagram"):
                op(bad)


class TestOrbitCanonical:
    """``model._orbit_canonical`` against the four images computed one by
    one, on raw encodings: rotated and relabelled, not canonical."""

    @staticmethod
    def raw_encodings():
        rng = random.Random(20142)
        for w in enumerate_canonical_wgds(4):
            yield _wgd_packed(scrambled(w, rng))
        for n in range(5, 9):
            for _ in range(300):
                yield _wgd_packed(random_wgd(rng, n))
        e = _wgd_packed(long_wgd(130))  # past 128 crossings: the tuple form
        yield e[57:] + e[:57]

    def test_against_the_four_images(self):
        count = 0
        for x in self.raw_encodings():
            rep, h, stab = _orbit_canonical(x)
            assert rep == min(group_images(x)), x
            images = group_images(rep)
            assert _canonical_encoding(x) == images[h]
            assert stab == tuple(g for g in range(4) if images[g] == rep)
            count += 1
        assert count == len(_canonical_encodings(4)) + 4 * 300 + 1

    def test_raw_inputs_are_not_all_canonical(self):
        raw = list(self.raw_encodings())
        assert sum(_canonical_encoding(x) != x for x in raw) > len(raw) // 2
        assert type(raw[-1]) is tuple


class TestFingerprintCoincidence:
    def test_reverse_and_bar_preserve_fingerprints(self, rng):
        for _ in range(40):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 6)))
            fp = fingerprint(w)
            assert fingerprint(reverse(w)) == fp
            assert fingerprint(bar(w)) == fp
            assert fingerprint(global_reversal(w)) == fp
