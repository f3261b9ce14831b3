import os
import random
from pathlib import Path

import pytest

from weldedknots import GaussCode, Passage, WeldedGaussDiagram
from weldedknots.model import OVER, UNDER


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
