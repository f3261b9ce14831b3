import itertools
import os
import random
from pathlib import Path

import pytest

from weldedknots import (
    ALL_KINDS,
    GaussCode,
    MoveKind,
    Passage,
    WeldedGaussDiagram,
    canonical_wgd,
    enumerate_sites,
    oc_class,
    wgd_to_gauss,
)
from weldedknots.convert import _gauss_to_wgd_unchecked
from weldedknots.model import OVER, UNDER, _canonical_encoding
from weldedknots.moves import _apply_unchecked, _match_oc


def random_code(rng: random.Random, n: int) -> GaussCode:
    """Any arrangement of n over/under pairs with per-crossing signs is a
    valid code, so a shuffle samples the whole space."""
    passages = []
    for c in range(1, n + 1):
        s = rng.choice((1, -1))
        passages.append(Passage(OVER, c, s))
        passages.append(Passage(UNDER, c, s))
    rng.shuffle(passages)
    return GaussCode(tuple(passages))


def random_wgd(rng: random.Random, n: int) -> WeldedGaussDiagram:
    labels = list(range(1, n + 1))
    order = labels[:]
    rng.shuffle(order)
    head = {c: rng.choice(labels) for c in labels}
    sign = {c: rng.choice((1, -1)) for c in labels}
    return WeldedGaussDiagram(tuple(order), head, sign)


@pytest.fixture
def rng():
    return random.Random(20260808)


def reference_wgd() -> WeldedGaussDiagram:
    """Six-crossing running example (labels 1..6 standing for a..f)."""
    order = (1, 2, 3, 4, 5, 6)
    head = {1: 3, 2: 3, 3: 2, 4: 5, 5: 2, 6: 2}
    sign = {1: 1, 2: 1, 3: -1, 4: -1, 5: -1, 6: 1}
    return WeldedGaussDiagram(order, head, sign)


TREFOIL_TEXT = "O1+ U2+ O3+ U1+ O2+ U3+"


ROOT = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def oracle_neighbors_iter(w: WeldedGaussDiagram, kinds=None, growth_allowed: bool = True):
    """The code-level neighbour generator: every site of every code in
    the over-commute class of w's realization, applied and converted
    back.  Slow; the diagram-level generator must agree with it."""
    w = canonical_wgd(w)
    rep = wgd_to_gauss(w)
    wanted = ALL_KINDS if kinds is None else frozenset(kinds)
    # over-commutations never change the diagram, so one witness suffices
    if MoveKind.OC in wanted and any(_match_oc(rep, i) for i in range(len(rep))):
        yield w
    wanted = wanted - {MoveKind.OC}
    for variant_code in oc_class(rep):
        for site in enumerate_sites(variant_code, wanted, growth_allowed):
            new_code, _ = _apply_unchecked(variant_code, site)
            yield _gauss_to_wgd_unchecked(new_code)


def oracle_canonical_encodings(n_max: int) -> list[tuple]:
    """Every head/sign assignment, in encoding order, that is its own
    canonical encoding: the unpruned enumeration, (2n)^n assignments per n."""
    out = [()]
    for n in range(1, n_max + 1):
        pairs = [(h, s) for h in range(1, n + 1) for s in (-1, 1)]
        for encoding in itertools.product(pairs, repeat=n):
            heads, signs = zip(*encoding)
            if _canonical_encoding([h - 1 for h in heads], signs) == encoding:
                out.append(encoding)
    return out
