"""Tests for the input boundary: a move site is accepted exactly when
``enumerate_sites`` lists it, and malformed text, JSON or arguments end in
``DomainError``, never in another exception."""

import inspect
import json
import types

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import weldedknots
from weldedknots import (
    AtlasRecord,
    DomainError,
    GaussCode,
    GaussDiagram,
    InvariantFingerprint,
    MoveKind,
    MoveRecord,
    MoveSite,
    Passage,
    SearchBudget,
    WeldedGaussDiagram,
    apply_move,
    apply_record,
    are_equivalent,
    atlas_to_jsonl,
    build_atlas,
    canonical_wgd,
    decode_gauss_code,
    decode_wgd,
    derive_path,
    encode_gauss_code,
    encode_wgd,
    enumerate_sites,
    fingerprint,
    gauss_code_to_gauss_diagram,
    gauss_diagram_to_wgd,
    gauss_to_wgd,
    global_reversal,
    inverse_record,
    replay,
    reverse,
    simplify,
    symmetric_group_3,
    wgd_encoding,
    wgd_neighbors,
)
from weldedknots.cli import _site_from_text
from weldedknots.model import OVER, UNDER, require_valid_code, require_valid_wgd, wgd_from_obj, wgd_to_obj

from conftest import TREFOIL_TEXT

# bounded so that the whole file runs in a few seconds; no deadline, since
# a loaded host can stall any single example
PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

VARIANTS = (
    ["", "x", "oc", "ou+", "ou-", "uo+", "uo-", "par", "par:ou"]
    + [f"{shape}{s}" for shape in ("par", "anti") for s in "+-"]
    + [f"{shape}{s}:{first}" for shape in ("par", "anti") for s in "+-" for first in ("ou", "uo")]
    + [f"r3:{t}{m}{b}{s}" for t in "01" for m in "01" for b in "01" for s in "+-"]
)


@st.composite
def codes(draw, n_max=4):
    """Any arrangement of n over/under pairs with per-crossing signs."""
    n = draw(st.integers(0, n_max))
    passages = []
    for c in range(1, n + 1):
        s = draw(st.sampled_from((1, -1)))
        passages += [Passage(OVER, c, s), Passage(UNDER, c, s)]
    return GaussCode(tuple(draw(st.permutations(passages))))


@st.composite
def code_and_site(draw):
    code = draw(codes())
    listed = enumerate_sites(code)
    if draw(st.booleans()):
        return code, draw(st.sampled_from(listed))
    kind = draw(st.sampled_from(list(MoveKind)))
    positions = draw(st.lists(st.integers(-2, len(code) + 1), max_size=4))
    variant = draw(st.sampled_from(VARIANTS) | st.text(max_size=4))
    return code, MoveSite(kind, tuple(positions), variant)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
DIGITS = st.integers(-3, 12).map(str)


@given(code_and_site())
@PROPERTY
@example((decode_gauss_code("O1+ O2+ U1+ U2+"), MoveSite(MoveKind.OC, (0, 1), "")))
@example((decode_gauss_code("O1+ O2+ U1+ U2+"), MoveSite(MoveKind.OC, (0, 1), "x")))
@example((GaussCode(), MoveSite(MoveKind.R1_INSERT, (0,), "uo-")))  # the empty code's one slot
@example((decode_gauss_code("O1+ U1+"), MoveSite(MoveKind.R2_INSERT, (1, 1), "par+")))  # shared slot, no run order
@example((decode_gauss_code("O1+ U1+"), MoveSite(MoveKind.R2_INSERT, (0, 1), "par+:ou")))  # a run order, two slots
@example((decode_gauss_code("O1+ O2- U2- U1+"), MoveSite(MoveKind.R1_DELETE, (3, 0), "uo+")))  # across the basepoint
@example((decode_gauss_code("O1+ O2+ U1+ U2+"), MoveSite(MoveKind.OC, (0, 3), "oc")))  # not adjacent
@example((decode_gauss_code("O1+ U1+"), MoveSite(MoveKind.R1_INSERT, (0, 1), "ou+")))  # two positions for one
def test_apply_accepts_exactly_the_listed_sites(case):
    code, site = case
    listed = site in enumerate_sites(code)
    try:
        apply_move(code, site)
    except DomainError:
        assert not listed
    else:
        assert listed


@given(st.text(max_size=40) | st.lists(st.sampled_from(["O1+", "U1+", "O2-", "U2-", "O", "U0+", "1"])).map(" ".join))
@PROPERTY
@example("O" + "1" * 5000 + "+ U1+")
def test_decode_gauss_code_raises_only_domain_error(text):
    try:
        decode_gauss_code(text)
    except DomainError:
        pass


WGD_OBJECTS = st.fixed_dictionaries({
    "order": st.lists(st.integers(-1, 4) | JSON, max_size=4),
    "map": st.dictionaries(
        DIGITS | st.text(max_size=3),
        st.tuples(st.integers(-1, 4) | JSON, st.sampled_from(["+", "-"]) | JSON).map(list) | JSON,
        max_size=4,
    ),
})


@given(st.text(max_size=40) | JSON.map(json.dumps) | WGD_OBJECTS.map(json.dumps))
@PROPERTY
@example("1" * 5000)
@example('{"order": [1], "map": {"' + "1" * 5000 + '": [1, "+"]}}')
@example("[" * 100000)
def test_decode_wgd_raises_only_domain_error(text):
    try:
        decode_wgd(text)
    except DomainError:
        pass


SITE_OBJECTS = st.fixed_dictionaries(
    {"kind": st.sampled_from([k.value for k in MoveKind]) | JSON,
     "positions": st.lists(st.integers(-1, 4) | JSON, max_size=4) | JSON},
    optional={"variant": st.sampled_from(VARIANTS) | JSON},
)


@given(st.text(max_size=40) | JSON.map(json.dumps) | SITE_OBJECTS.map(json.dumps))
@PROPERTY
@example("[" * 100000)
@example('{"kind": "OC", "positions": [' + "1" * 5000 + "]}")
def test_site_parser_raises_only_domain_error(text):
    try:
        site = _site_from_text(text)
    except DomainError:
        return
    assert isinstance(site.kind, MoveKind) and isinstance(site.variant, str)
    assert all(type(i) is int for i in site.positions)


TREFOIL_CODE = decode_gauss_code(TREFOIL_TEXT)
TREFOIL = gauss_to_wgd(TREFOIL_CODE)
R3_SITE = enumerate_sites(decode_gauss_code("O2+ O1+ O3+ U1+ U3+ U2+"), kinds=(MoveKind.R3,))[0]
_, RECORD = apply_move(TREFOIL_CODE, enumerate_sites(TREFOIL_CODE)[0])
MISUSES = {
    "apply_move, a site that is None": lambda: apply_move(TREFOIL_CODE, None),
    "apply_move, a kind that is its value": lambda: apply_move(TREFOIL_CODE, MoveSite("R3", (0, 1, 2))),
    "apply_move, positions that are None": lambda: apply_move(TREFOIL_CODE, MoveSite(MoveKind.R3, None)),
    "apply_move, positions that are a list": lambda: apply_move(
        decode_gauss_code("O2+ O1+ O3+ U1+ U3+ U2+"), MoveSite(MoveKind.R3, list(R3_SITE.positions), R3_SITE.variant)
    ),
    "a site whose positions are bools": lambda: MoveSite(MoveKind.OC, (False, True), "oc"),
    "a site whose variant is None": lambda: MoveSite(MoveKind.OC, (0, 1), None),
    "reverse of None": lambda: reverse(None),
    "reverse of text": lambda: reverse(TREFOIL_TEXT),
    "global_reversal of an int": lambda: global_reversal(5),
    # an R3 site at six distinct in-range positions whose top, middle or
    # bottom pair has the wrong roles; three crossings always give the
    # bottom pair two unders, so that one takes a fourth crossing
    "an R3 site whose top pair is not two overs": lambda: apply_move(
        decode_gauss_code("O2+ O1+ O3+ U1+ U3+ U2+"), MoveSite(MoveKind.R3, (2, 0, 4), R3_SITE.variant)
    ),
    "an R3 site whose middle pair is not an over and an under": lambda: apply_move(
        decode_gauss_code("O2+ O1+ O3+ U1+ U3+ U2+"), MoveSite(MoveKind.R3, (0, 4, 2), R3_SITE.variant)
    ),
    "an R3 site whose bottom pair is not two unders": lambda: apply_move(
        decode_gauss_code("O2+ O1+ O3+ U1+ O4+ U4+ U3+ U2+"), MoveSite(MoveKind.R3, (0, 2, 4), R3_SITE.variant)
    ),
    "a passage that is a plain tuple": lambda: require_valid_code(GaussCode((("O", 1, 1), ("U", 1, 1)))),
    "a passage whose role is neither O nor U": lambda: require_valid_code(
        GaussCode((Passage("X", 1, 1), Passage(UNDER, 1, 1)))
    ),
    "passages that are None": lambda: require_valid_code(GaussCode(None)),
    "an unhashable head": lambda: require_valid_wgd(WeldedGaussDiagram([1], {1: [1]}, {1: 1})),
    "an unhashable label": lambda: require_valid_wgd(WeldedGaussDiagram([[1]], {}, {})),
    "a sign map that misses a label": lambda: require_valid_wgd(WeldedGaussDiagram((1,), {1: 1}, {})),
    "an order that is None": lambda: WeldedGaussDiagram(None, {}, {}),
    "a head map that is None": lambda: WeldedGaussDiagram((1,), None, {1: 1}),
    "wgd_encoding of None": lambda: wgd_encoding(None),
    "wgd_encoding, labels that are not 1..n": lambda: wgd_encoding(WeldedGaussDiagram((2,), {2: 2}, {2: 1})),
    # read by label, these maps encode as order (1, 2, 3) does: ((2, 1), (3, 1), (1, 1))
    "wgd_encoding, an order that is not 1..n": lambda: wgd_encoding(
        WeldedGaussDiagram((1, 3, 2), {1: 2, 2: 3, 3: 1}, {1: 1, 2: 1, 3: 1})
    ),
    "are_equivalent without a budget": lambda: are_equivalent(TREFOIL, TREFOIL, None),
    "simplify without a budget": lambda: simplify(TREFOIL, None),
    "decode_gauss_code of None": lambda: decode_gauss_code(None),
    "decode_wgd of None": lambda: decode_wgd(None),
    "decode_wgd of bytes": lambda: decode_wgd(b'{"order": [], "map": {}}'),
    "wgd_from_obj, a map that is an array": lambda: wgd_from_obj({"order": [], "map": []}),
    "an arrow that is a pair": lambda: gauss_diagram_to_wgd(
        GaussDiagram(((OVER, 1), (UNDER, 1)), frozenset({((OVER, 1), (UNDER, 1))}))
    ),
    "apply_record, a record that is None": lambda: apply_record(TREFOIL_CODE, None),
    "apply_record, a code that is None": lambda: apply_record(None, RECORD),
    "apply_record, a code that is text": lambda: apply_record("x", RECORD),
    "replay, a record that is None": lambda: replay(TREFOIL_CODE, [None]),
    "replay, records that are None": lambda: replay(TREFOIL_CODE, None),
    "replay of text, no records": lambda: replay(TREFOIL_TEXT, ()),
    "inverse_record of None": lambda: inverse_record(None),
    "inverse_record, a kind that is None": lambda: inverse_record(MoveRecord(None)),
    "replay, swaps that are None": lambda: replay(TREFOIL_CODE, [MoveRecord(MoveKind.OC, swaps=None)]),
    "apply_record, a swap that is no pair": lambda: apply_record(TREFOIL_CODE, MoveRecord(MoveKind.OC, swaps=((0,),))),
    "apply_record, a remove that is an int": lambda: apply_record(TREFOIL_CODE, MoveRecord(MoveKind.R1_DELETE, removes=(5,))),
    "replay to a code that is not valid": lambda: replay(
        decode_gauss_code("O1+ U1+"), [MoveRecord(MoveKind.R1_DELETE, removes=((0, Passage(OVER, 1, 1)),))]
    ),
    "wgd_to_obj of None": lambda: wgd_to_obj(None),
    "wgd_to_obj, a head map that is not total": lambda: wgd_to_obj(WeldedGaussDiagram((1,), {}, {})),
    "encode_wgd, a head map that is not total": lambda: encode_wgd(WeldedGaussDiagram((1,), {}, {})),
    "gauss_diagram_to_wgd of None": lambda: gauss_diagram_to_wgd(None),
    "a point that is a list": lambda: gauss_diagram_to_wgd(
        GaussDiagram(([OVER, 1], (UNDER, 1)), frozenset({((OVER, 1), (UNDER, 1), 1)}))
    ),
    "enumerate_sites, kinds that are an int": lambda: enumerate_sites(TREFOIL_CODE, kinds=5),
    "wgd_neighbors, kinds that are an int": lambda: wgd_neighbors(TREFOIL, kinds=5),
    "fingerprint, primes that are None": lambda: fingerprint(TREFOIL, primes=None),
    "fingerprint, groups that are None": lambda: fingerprint(TREFOIL, groups=None),
    "build_atlas, primes that are None": lambda: build_atlas(2, 3, primes=None),
    "derive_path of None": lambda: derive_path(None),
    "atlas_to_jsonl of None": lambda: atlas_to_jsonl(None),
    "atlas_to_jsonl, a record that is None": lambda: atlas_to_jsonl([None]),
    # only an AtlasRecord has checked fields: 5 and -1 are no entries of a
    # one- or two-crossing encoding, and the writer indexes by entry
    "atlas_to_jsonl, a look-alike with an entry past 2n": lambda: atlas_to_jsonl(
        [types.SimpleNamespace(encoding=b"\x05", fingerprint=fingerprint(TREFOIL), class_id=0, orbit_id=0)]
    ),
    "atlas_to_jsonl, a look-alike with a negative entry": lambda: atlas_to_jsonl(
        [types.SimpleNamespace(encoding=(0, -1), fingerprint=fingerprint(TREFOIL), class_id=0, orbit_id=0)]
    ),
    "atlas_to_jsonl, a plain row": lambda: atlas_to_jsonl([(b"", fingerprint(TREFOIL), 0, 0)]),
    "encode_wgd of None": lambda: encode_wgd(None),
    "encode_gauss_code of None": lambda: encode_gauss_code(None),
    "a diagram whose head map is not total, in a set": lambda: WeldedGaussDiagram((1,), {}, {}) in {TREFOIL},
    "a diagram whose head map is not total, equal to itself": lambda: (lambda w: w == w)(WeldedGaussDiagram((1,), {}, {})),
    "hash of a diagram with an unhashable head": lambda: hash(WeldedGaussDiagram((1,), {1: [1]}, {1: 1})),
    "hash of a code whose passages are a list": lambda: hash(GaussCode([Passage(OVER, 1, 1), Passage(UNDER, 1, 1)])),
    "hash of a code with a list label": lambda: hash(GaussCode((Passage(OVER, [1], 1),))),
    "hash of a record whose swaps are lists": lambda: hash(MoveRecord(MoveKind.OC, "oc", swaps=[[0, 1]])),
    "hash of a Gauss diagram whose points are a list": lambda: hash(GaussDiagram([(OVER, 1), (UNDER, 1)], frozenset())),
    "wgd_encoding, heads and signs that are not valid": lambda: wgd_encoding(WeldedGaussDiagram((1,), {1: 5}, {1: 7})),
    "replay of passages that are None, no records": lambda: replay(GaussCode(None), []),
    "replay of a code without its under passage, no records": lambda: replay(GaussCode((Passage(OVER, 1, 1),)), ()),
    "an atlas record whose class id is True": lambda: AtlasRecord(b"", fingerprint(TREFOIL), True, 0),
    "an atlas record whose orbit id is False": lambda: AtlasRecord(b"", fingerprint(TREFOIL), 0, False),
    "an atlas record whose class id is a float": lambda: AtlasRecord(b"", fingerprint(TREFOIL), 1.0, 0),
    "an atlas record whose orbit id is None": lambda: AtlasRecord(b"", fingerprint(TREFOIL), 0, None),
    "an atlas record whose fingerprint is None": lambda: AtlasRecord(b"", None, 0, 0),
    "an atlas record whose fingerprint is a str": lambda: AtlasRecord(b"", "x", 0, 0),
    "an atlas record whose fingerprint is its dict": lambda: AtlasRecord(b"", fingerprint(TREFOIL).as_dict(), 0, 0),
    "a fingerprint whose fields are None": lambda: InvariantFingerprint(None, None),
    "a fingerprint whose count is True": lambda: InvariantFingerprint(((3, True),), ()),
    "a fingerprint whose prime is True": lambda: InvariantFingerprint(((True, 3),), ()),
    "a fingerprint whose count is a float": lambda: InvariantFingerprint(((3, 3.0),), ()),
    "a fingerprint whose colourings are a list": lambda: InvariantFingerprint([(3, 3)], ()),
    "a fingerprint whose colouring is a triple": lambda: InvariantFingerprint(((3, 3, 3),), ()),
    "a fingerprint whose group name is an int": lambda: InvariantFingerprint(((3, 3),), ((1, 6),)),
    "a fingerprint whose homomorphism count is None": lambda: InvariantFingerprint((), (("S3", None),)),
}


@pytest.mark.parametrize("misuse", MISUSES.values(), ids=MISUSES.keys())
def test_misuse_ends_in_domain_error(misuse):
    """Each argument is checked where it enters: none of these ends in
    AttributeError, KeyError, TypeError or ValueError, and bytes are not
    read as text."""
    with pytest.raises(DomainError):
        misuse()


def test_repr_of_an_invalid_value_shows_its_fields():
    """Error messages format diagrams and codes, so ``repr`` never raises:
    an invalid one shows its raw fields."""
    text = repr(WeldedGaussDiagram((1,), {}, {}))
    assert isinstance(text, str) and text == "WeldedGaussDiagram(order=(1,), head={}, sign={})"
    assert repr(GaussCode(None)) == "GaussCode(passages=None)"


# the generated sweep: every public function, each parameter in turn
# replaced by each wrong value while the others hold valid ones

KINK = canonical_wgd(WeldedGaussDiagram((1,), {1: 1}, {1: 1}))
# a code with R1, R2 and R3 sites, an over block of three and one of two
SWEEP_CODE = decode_gauss_code("U2- O1- U1- U4+ U5- O3- O4+ O5- U3- O2-")
SWEEP_WGD = gauss_to_wgd(SWEEP_CODE)
SWEEP_SITE = enumerate_sites(SWEEP_CODE)[0]
_, SWEEP_RECORD = apply_move(SWEEP_CODE, SWEEP_SITE)
# a valid value per parameter name, and per (function, name) where one
# name means something else; a parameter with neither takes its default
VALID = {
    "code": SWEEP_CODE,
    "w": SWEEP_WGD,
    "w1": SWEEP_WGD,
    "w2": KINK,
    "x": SWEEP_WGD,
    "gd": gauss_code_to_gauss_diagram(SWEEP_CODE),
    "site": SWEEP_SITE,
    "record": SWEEP_RECORD,
    "records": [SWEEP_RECORD],
    "budget": SearchBudget(6, max_states=50, max_depth=3),
    "states": [WeldedGaussDiagram((), {}, {}), KINK],
    "n_max": 1,
    "max_crossings": 2,
    "p": 3,
    "m": 4,
    "group": symmetric_group_3(),
    "name": "S3",
}
VALID_IN = {
    ("decode_gauss_code", "text"): TREFOIL_TEXT,
    ("decode_wgd", "text"): encode_wgd(TREFOIL),
    ("atlas_to_jsonl", "records"): build_atlas(1, 2),
    ("wgd_neighbors", "max_crossings"): 6,
    ("wgd_neighbors_iter", "max_crossings"): 6,
}
WRONG = (None, 3, -1, True, 2.5, "x", b"x", [1], {1: 1}, object())
MALFORMED_WGDS = (
    WeldedGaussDiagram((1,), {}, {}),
    WeldedGaussDiagram((1,), {1: 2}, {1: 1}),
    WeldedGaussDiagram((1, 1), {1: 1}, {1: 1}),
    WeldedGaussDiagram((1,), {1: 1}, {1: 0}),
    WeldedGaussDiagram((0,), {0: 0}, {0: 1}),
)
MALFORMED_CODES = (
    GaussCode(None),
    GaussCode((Passage(OVER, 1, 1),)),
    GaussCode(((OVER, 1, 1), (UNDER, 1, 1))),
    GaussCode((Passage(OVER, 1, 1), Passage(UNDER, 1, -1))),
    GaussCode((Passage(OVER, 1, 1), Passage(OVER, 1, 1))),
)
MALFORMED = {
    "w": MALFORMED_WGDS,
    "w1": MALFORMED_WGDS,
    "w2": MALFORMED_WGDS,
    "states": tuple([w] for w in MALFORMED_WGDS),
    "code": MALFORMED_CODES,
    "x": MALFORMED_WGDS + MALFORMED_CODES,
}
PUBLIC_FUNCTIONS = sorted(name for name in weldedknots.__all__ if inspect.isfunction(getattr(weldedknots, name)))


def _valid_arguments(name: str) -> dict:
    """A valid value for each parameter of the public function ``name``."""
    arguments = {}
    for param in inspect.signature(getattr(weldedknots, name)).parameters.values():
        if (name, param.name) in VALID_IN:
            arguments[param.name] = VALID_IN[name, param.name]
        elif param.name in VALID:
            arguments[param.name] = VALID[param.name]
        elif param.default is not inspect.Parameter.empty:
            arguments[param.name] = param.default
        else:
            pytest.fail(f"{name}: no valid value listed for parameter {param.name!r}")
    return arguments


def _call(name: str, arguments: dict):
    """Call the public function ``name``, draining a generator it returns."""
    result = getattr(weldedknots, name)(**arguments)
    return list(result) if inspect.isgenerator(result) else result


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_every_argument_is_checked_where_it_enters(name):
    """Each public function returns with valid arguments, and with any one
    argument replaced by a wrong value it returns or raises DomainError,
    never another exception."""
    arguments = _valid_arguments(name)
    _call(name, arguments)
    leaks = []
    for param in arguments:
        for wrong in WRONG + MALFORMED.get(param, ()):
            try:
                _call(name, {**arguments, param: wrong})
            except DomainError:
                pass
            except Exception as e:
                leaks.append(f"{param}={wrong!r}: {type(e).__name__}: {e}")
    assert not leaks
