import random

import pytest

from weldedknots import (
    DomainError,
    GaussCode,
    GaussDiagram,
    WeldedGaussDiagram,
    canonical_wgd,
    decode_gauss_code,
    encode_gauss_code,
    enumerate_canonical_wgds,
    gauss_code_to_gauss_diagram,
    gauss_diagram_to_wgd,
    gauss_to_wgd,
    validate_code,
    wgd_to_gauss,
    wgd_to_gauss_diagram,
)
from weldedknots.model import OVER, UNDER, _code_packed

from conftest import TREFOIL_TEXT, random_code, random_wgd, reference_wgd, scan_back_head


def scan_wgd(code):
    """The welded Gauss diagram of a code by :func:`scan_back_head`, with
    the code's labels and basepoint, in canonical form."""
    order = tuple(p.crossing for p in code.passages if p.role == UNDER)
    head = {p.crossing: scan_back_head(code, i) for i, p in enumerate(code.passages) if p.role == OVER}
    sign = {p.crossing: p.sign for p in code.passages}
    return canonical_wgd(WeldedGaussDiagram(order, head, sign))


class TestGaussToWgd:
    def test_empty(self):
        assert gauss_to_wgd(GaussCode()) == WeldedGaussDiagram((), {}, {})

    def test_trefoil_matches_hand_construction(self):
        # running along the code: under order (2, 1, 3); the crossing met on
        # the lowest strand just before each over passage gives the head map
        raw = WeldedGaussDiagram((2, 1, 3), {1: 3, 2: 1, 3: 2}, {1: 1, 2: 1, 3: 1})
        assert gauss_to_wgd(decode_gauss_code(TREFOIL_TEXT)) == canonical_wgd(raw)

    def test_single_crossing_head_is_self(self):
        for text in ("O1+ U1+", "U1+ O1+", "O1- U1-"):
            w = gauss_to_wgd(decode_gauss_code(text))
            assert w.head == {1: 1}

    def test_head_against_scan_oracle(self, rng):
        for _ in range(300):
            code = random_code(rng, rng.randint(1, 8))
            assert gauss_to_wgd(code) == scan_wgd(code)

    def test_long_code_against_scan_oracle(self):
        """Past 128 crossings the packed encoding is a tuple, not bytes."""
        code = random_code(random.Random("long code"), 130)
        assert type(_code_packed(code)) is tuple
        assert gauss_to_wgd(code) == scan_wgd(code)

    def test_output_is_canonical(self, rng):
        for _ in range(200):
            w = gauss_to_wgd(random_code(rng, rng.randint(0, 8)))
            assert canonical_wgd(w) == w


class TestRoundTrip:
    def test_empty(self):
        assert wgd_to_gauss(WeldedGaussDiagram((), {}, {})) == GaussCode()

    def test_reference_wgd(self):
        w = reference_wgd()
        assert gauss_to_wgd(wgd_to_gauss(w)) == canonical_wgd(w)

    def test_exhaustive_small(self):
        # orbit counts check out against Burnside: 1 + 2 + 10 + 76
        seeds = enumerate_canonical_wgds(3)
        assert len(seeds) == 89
        for w in seeds:
            assert gauss_to_wgd(wgd_to_gauss(w)) == w

    def test_random(self, rng):
        for _ in range(500):
            w = random_wgd(rng, rng.randint(0, 8))
            assert gauss_to_wgd(wgd_to_gauss(w)) == canonical_wgd(w)

    def test_realization_validates_with_dictated_intervals(self, rng):
        for _ in range(200):
            w = canonical_wgd(random_wgd(rng, rng.randint(1, 8)))
            code = wgd_to_gauss(w)
            assert validate_code(code) is None
            # each crossing's over passage sits after the under passage of
            # its head and before the next under passage
            for i, p in enumerate(code.passages):
                if p.role == OVER:
                    assert scan_back_head(code, i) == w.head[p.crossing]


class TestWriters:
    """Overs within a gap follow their crossing's position in the code, and
    their label in the Gauss diagram."""

    W = WeldedGaussDiagram((7, 3, 5), {7: 7, 3: 7, 5: 7}, {7: 1, 3: -1, 5: 1})

    def test_code_orders_a_gap_by_position(self):
        assert encode_gauss_code(wgd_to_gauss(self.W)) == "U7+ O7+ O3- O5+ U3- U5+"

    def test_gauss_diagram_orders_a_gap_by_label(self):
        points = wgd_to_gauss_diagram(self.W).points
        assert points == ((UNDER, 7), (OVER, 3), (OVER, 5), (OVER, 7), (UNDER, 3), (UNDER, 5))


class TestGaussDiagrams:
    def test_empty(self):
        gd = wgd_to_gauss_diagram(WeldedGaussDiagram((), {}, {}))
        assert gd.points == () and gd.arrows == frozenset()

    def test_reference_structure(self):
        w = reference_wgd()
        gd = wgd_to_gauss_diagram(w)
        assert len(gd.points) == 12
        assert len(gd.arrows) == 6
        # tails land in the interval after their head's base point
        preimages = {2: [3, 5, 6], 3: [1, 2], 5: [4]}
        for c, expected in preimages.items():
            start = gd.points.index((UNDER, c))
            tail_run = []
            for pt in gd.points[start + 1:]:
                if pt[0] == UNDER:
                    break
                tail_run.append(pt[1])
            assert tail_run == expected

    def test_counts_random(self, rng):
        for _ in range(500):
            w = canonical_wgd(random_wgd(rng, rng.randint(0, 8)))
            gd = wgd_to_gauss_diagram(w)
            assert len(gd.points) == 2 * w.n
            assert len(gd.arrows) == w.n

    def test_code_path_smallest_cases(self):
        assert gauss_code_to_gauss_diagram(GaussCode()).points == ()
        gd = gauss_code_to_gauss_diagram(decode_gauss_code("O1+ U1+"))
        assert len(gd.points) == 2
        assert gd.arrows == frozenset({((OVER, 1), (UNDER, 1), 1)})

    def test_both_paths_agree_after_collapse(self, rng):
        for _ in range(300):
            code = random_code(rng, rng.randint(0, 8))
            w = gauss_to_wgd(code)
            via_code = gauss_diagram_to_wgd(gauss_code_to_gauss_diagram(code))
            via_wgd = gauss_diagram_to_wgd(wgd_to_gauss_diagram(w))
            assert via_code == w
            assert via_wgd == w

    @pytest.mark.parametrize("points, arrows", [
        # two arrows share the head point
        ([(OVER, 1), (UNDER, 1), (OVER, 2)], [((OVER, 1), (UNDER, 1), 1), ((OVER, 2), (UNDER, 1), 1)]),
        # three arrows share endpoints so that one of them vanishes from the points
        ([(OVER, 1), (UNDER, 2), (OVER, 3), (UNDER, 3)],
         [((OVER, 1), (UNDER, 1), 1), ((OVER, 1), (UNDER, 2), 1), ((OVER, 3), (UNDER, 1), 1)]),
        # a point that no arrow uses
        ([(OVER, 1), (UNDER, 1), (OVER, 9)], [((OVER, 1), (UNDER, 1), 1)]),
        # a sign that is neither +1 nor -1
        ([(OVER, 1), (UNDER, 1)], [((OVER, 1), (UNDER, 1), 0)]),
        # an arrow endpoint missing from the points
        ([(OVER, 1)], [((OVER, 1), (UNDER, 1), 1)]),
    ])
    def test_malformed_gauss_diagram_rejected(self, points, arrows):
        with pytest.raises(DomainError):
            gauss_diagram_to_wgd(GaussDiagram(tuple(points), frozenset(arrows)))
