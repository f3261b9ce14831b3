import itertools
import random

import pytest

from weldedknots import (
    DecodeError,
    DomainError,
    GaussCode,
    Passage,
    WeldedGaussDiagram,
    canonical_wgd,
    decode_gauss_code,
    decode_wgd,
    encode_gauss_code,
    encode_wgd,
    validate_code,
    validate_wgd,
    wgd_encoding,
)
from weldedknots.model import (
    _GROUP,
    OVER,
    UNDER,
    _canonical_image,
    _canonical_wgd_encoding,
    _orbit_canonical,
    _relabel_tables,
)

from conftest import TREFOIL_TEXT, long_wgd, oracle_wgd_encoding, random_code, random_wgd, reference_wgd


class TestValidation:
    def test_trefoil_ok(self):
        assert validate_code(decode_gauss_code(TREFOIL_TEXT)) is None

    def test_empty_ok(self):
        assert validate_code(GaussCode()) is None

    def test_sign_mismatch(self):
        code = GaussCode((Passage(OVER, 1, 1), Passage(UNDER, 1, -1)))
        assert "sign mismatch" in validate_code(code)

    def test_missing_partner(self):
        code = GaussCode((Passage(OVER, 1, 1), Passage(OVER, 2, 1), Passage(UNDER, 2, 1), Passage(UNDER, 3, 1)))
        assert validate_code(code) is not None

    def test_double_role(self):
        code = GaussCode((Passage(OVER, 1, 1), Passage(OVER, 1, 1)))
        assert "more than once" in validate_code(code)

    def test_every_generated_code_pairs_once(self, rng):
        for _ in range(200):
            code = random_code(rng, rng.randint(0, 8))
            assert validate_code(code) is None
            for c in code.labels():
                roles = [p.role for p in code.passages if p.crossing == c]
                assert sorted(roles) == [OVER, UNDER]

    def test_wgd_total_maps(self):
        w = WeldedGaussDiagram((1, 2), {1: 2}, {1: 1, 2: 1})
        assert validate_wgd(w) is not None
        assert validate_wgd(reference_wgd()) is None


class TestDiagramValue:
    def test_compares_by_its_current_fields(self):
        # the maps are dicts, so a diagram hashed before its sign map is
        # edited must not keep answering with the old fields
        w = WeldedGaussDiagram((1, 2), {1: 2, 2: 1}, {1: 1, 2: 1})
        v = WeldedGaussDiagram((1, 2), {1: 2, 2: 1}, {1: 1, 2: -1})
        hash(w)
        w.sign[2] = -1
        assert w == v
        assert hash(w) == hash(v)

    def test_fields_cannot_be_rebound(self):
        w = reference_wgd()
        with pytest.raises(AttributeError):
            w.order = ()

    def test_never_equals_another_type(self):
        assert (reference_wgd() == 1) is False


class TestCanonicalWgd:
    def test_empty(self):
        w = WeldedGaussDiagram((), {}, {})
        assert canonical_wgd(w) == w

    def test_relabels_to_initial_segment(self):
        w = WeldedGaussDiagram((2, 1, 3), {1: 3, 2: 1, 3: 2}, {1: 1, 2: 1, 3: 1})
        c = canonical_wgd(w)
        assert c.order == (1, 2, 3)
        assert set(c.head) == {1, 2, 3}

    def test_rotation_invariance_against_bruteforce(self, rng):
        # oracle: enumerate every rotation-with-relabeling by hand and take
        # the minimum encoding; the canonical form must match it
        for _ in range(100):
            n = rng.randint(1, 6)
            w = random_wgd(rng, n)
            c = canonical_wgd(w)
            assert tuple((c.head[i], c.sign[i]) for i in range(1, n + 1)) == oracle_wgd_encoding(w)

    def test_every_assignment_up_to_four_crossings_against_bruteforce(self):
        for n in range(5):
            labels = range(1, n + 1)
            for heads in itertools.product(labels, repeat=n):
                for signs in itertools.product((1, -1), repeat=n):
                    w = WeldedGaussDiagram(labels, dict(zip(labels, heads)), dict(zip(labels, signs)))
                    assert wgd_encoding(canonical_wgd(w)) == oracle_wgd_encoding(w), encode_wgd(w)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_samples_against_bruteforce(self, n):
        rng = random.Random(f"canonical:{n}")
        for _ in range(300):
            w = random_wgd(rng, n)
            assert wgd_encoding(canonical_wgd(w)) == oracle_wgd_encoding(w), encode_wgd(w)

    def test_packed_as_bytes_up_to_128_crossings_then_tuples(self, rng):
        for n in (0, 1, 8, 128):
            assert type(_canonical_wgd_encoding(random_wgd(rng, n))) is bytes
        for n in (129, 130):
            assert type(_canonical_wgd_encoding(random_wgd(rng, n))) is tuple

    def test_rotation_tables_past_128_crossings_share_one_buffer(self):
        # n separate tables of 2n entries would hold 2n^2 ints: 18M at 3000
        tables = _relabel_tables(3000)[0]
        assert len(tables) == 3000
        assert len({id(t.obj) for t in tables}) == 1

    def test_empty_encoding_under_the_group(self):
        # zero crossings have no rotations, hence no relabel tables to look up
        for g in _GROUP:
            assert _canonical_image(b"", g) == b""
        assert _orbit_canonical(b"") == (b"", 0, _GROUP)

    def test_past_128_crossings_against_bruteforce(self, rng):
        for w in (long_wgd(130), random_wgd(rng, 130)):
            c = canonical_wgd(w)
            assert wgd_encoding(c) == oracle_wgd_encoding(w)
            assert canonical_wgd(c) == c

    def test_constant_on_rotations(self, rng):
        for _ in range(200):
            n = rng.randint(1, 8)
            w = random_wgd(rng, n)
            c = canonical_wgd(w)
            for r in range(n):
                rotated = WeldedGaussDiagram(w.order[r:] + w.order[:r], w.head, w.sign)
                assert canonical_wgd(rotated) == c

    def test_idempotent(self, rng):
        for _ in range(1000):
            w = random_wgd(rng, rng.randint(0, 8))
            c = canonical_wgd(w)
            assert canonical_wgd(c) == c


class TestCodecs:
    def test_empty_round_trip(self):
        assert encode_gauss_code(GaussCode()) == ""
        assert decode_gauss_code("") == GaussCode()

    def test_trefoil_round_trip(self):
        code = decode_gauss_code(TREFOIL_TEXT)
        assert encode_gauss_code(code) == TREFOIL_TEXT
        assert decode_gauss_code(encode_gauss_code(code)) == code

    def test_reference_wgd_round_trip(self):
        w = reference_wgd()
        assert decode_wgd(encode_wgd(w)) == w

    def test_random_round_trips(self, rng):
        for _ in range(1000):
            code = random_code(rng, rng.randint(0, 8))
            assert decode_gauss_code(encode_gauss_code(code)) == code
        for _ in range(1000):
            w = random_wgd(rng, rng.randint(0, 8))
            assert decode_wgd(encode_wgd(w)) == w

    def test_syntax_error_reports_position_and_token(self):
        with pytest.raises(DecodeError) as exc:
            decode_gauss_code("O1+ X2+ U1+")
        assert exc.value.position == 1
        assert exc.value.token == "X2+"

    def test_semantic_error_reports_pairing(self):
        with pytest.raises(DomainError) as exc:
            decode_gauss_code("O1+ U1+ O2+")
        assert "crossing 2" in str(exc.value)

    def test_wgd_decode_errors(self):
        with pytest.raises(DecodeError):
            decode_wgd("{not json")
        with pytest.raises(DecodeError):
            decode_wgd('{"order": [1]}')
        with pytest.raises(DomainError):
            decode_wgd('{"order": [1, 2], "map": {"1": [1, "+"]}}')

    @pytest.mark.parametrize("text", [
        '{"order": [true], "map": {"1": [1, "+"]}}',
        '{"order": [1], "map": {"1": [true, "+"]}}',
        '{"order": [1], "map": {"1": [1, "+"], "01": [1, "-"]}}',
        '{"order": [1], "map": {"01": [1, "-"], "1": [1, "+"]}}',
        '{"order": [1], "map": {"1\\n": [1, "+"]}}',
    ])
    def test_wgd_decode_rejects_aliased_labels(self, text):
        with pytest.raises(DomainError):
            decode_wgd(text)

    def test_bool_labels_are_invalid(self):
        assert validate_wgd(WeldedGaussDiagram((True,), {True: True}, {True: 1})) is not None
        assert validate_wgd(WeldedGaussDiagram((1,), {1: True}, {1: 1})) is not None
        assert validate_code(GaussCode((Passage(OVER, True, 1), Passage(UNDER, True, 1)))) is not None

    def test_bool_signs_are_invalid(self):
        # floats too: True and 1.0 both compare equal to 1
        for sign in (True, False, 1.0, -1.0):
            assert "sign" in validate_code(GaussCode((Passage(OVER, 1, sign), Passage(UNDER, 1, sign))))
            w = WeldedGaussDiagram((1,), {1: 1}, {1: sign})
            assert "sign" in validate_wgd(w)
            with pytest.raises(DomainError):
                canonical_wgd(w)
