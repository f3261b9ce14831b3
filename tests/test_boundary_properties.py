"""Property tests for the input boundary: a move site is accepted exactly
when ``enumerate_sites`` lists it, and malformed text or JSON ends in
``DomainError``, never in another exception."""

import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from weldedknots import (
    DomainError,
    GaussCode,
    MoveKind,
    MoveSite,
    Passage,
    apply_move,
    decode_gauss_code,
    decode_wgd,
    enumerate_sites,
)
from weldedknots.cli import _site_from_text
from weldedknots.model import OVER, UNDER

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
