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
    arcs,
    canonical_wgd,
    enumerate_sites,
    oc_class,
    wgd_to_gauss,
)
from weldedknots.convert import _gauss_to_wgd_unchecked
from weldedknots.model import OVER, UNDER
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


def oracle_wgd_encoding(w: WeldedGaussDiagram) -> tuple:
    """``wgd_encoding(canonical_wgd(w))`` by brute force: every rotation of
    w's order, relabelled 1..n, as ``((head, sign), ...)``, and the least
    of them.  Uses none of the package's canonical-form code."""
    best = ()
    for r in range(len(w.order)):
        rotated = w.order[r:] + w.order[:r]
        rename = {c: j + 1 for j, c in enumerate(rotated)}
        encoding = tuple((rename[w.head[c]], w.sign[c]) for c in rotated)
        if r == 0 or encoding < best:
            best = encoding
    return best


def oracle_canonical_encodings(n_max: int) -> list[tuple]:
    """Every head/sign assignment, in encoding order, that is its own
    canonical encoding by :func:`oracle_wgd_encoding`: the unpruned
    enumeration, (2n)^n assignments per n."""
    out = [()]
    for n in range(1, n_max + 1):
        labels = range(1, n + 1)
        pairs = [(h, s) for h in labels for s in (-1, 1)]
        for encoding in itertools.product(pairs, repeat=n):
            heads, signs = zip(*encoding)
            w = WeldedGaussDiagram(labels, dict(zip(labels, heads)), dict(zip(labels, signs)))
            if oracle_wgd_encoding(w) == encoding:
                out.append(encoding)
    return out


def long_wgd(n: int) -> WeldedGaussDiagram:
    """An n-crossing diagram (n >= 110) whose gaps hold at most two overs,
    so its over-commute class has 8 codes, with an R1 delete site at 50,
    an R2 delete site at (100, 101) and an R3 site at (103, 104)."""
    head = {c: (c + 2) % n for c in range(n)}  # gap u holds u - 2
    sign = dict.fromkeys(range(n), 1)
    head[50] = 50
    head[98] = 52
    head[100] = head[101] = 102
    sign[101] = -1
    head[105] = 106
    sign[105] = -1
    return WeldedGaussDiagram(
        range(1, n + 1), {c + 1: h + 1 for c, h in head.items()}, {c + 1: s for c, s in sign.items()}
    )


def coloring_count_bruteforce(code: GaussCode, p: int) -> int:
    """Oracle for ``coloring_count``: try every assignment of Z/p colours
    to the arcs and test ``out = 2 * over - in`` at every crossing."""
    structure = arcs(code)
    relations = [(c.out_arc, c.in_arc, c.over_arc) for c in structure.crossings]
    count = 0
    for colour in itertools.product(range(p), repeat=structure.arc_count):
        for out_arc, in_arc, over_arc in relations:
            if (colour[out_arc] + colour[in_arc] - 2 * colour[over_arc]) % p:
                break
        else:
            count += 1
    return count
