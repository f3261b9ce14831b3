"""
Core value types for welded-knot combinatorics.

Two equivalent pictures of the same object live here:

* ``GaussCode`` -- the cyclic word of over/under passages of a virtual
  diagram.  Virtual and mixed crossings are never stored: a diagram is
  kept modulo detour moves, so only the classical crossings and the
  abstract connections between their endpoints remain.  Detour-type
  moves are therefore identities on this representation.

* ``WeldedGaussDiagram`` -- a finite label set with a cyclic order and a
  map ``label -> (label, sign)``.  This is the faithful form of a welded
  torus: Gauss codes that differ by over-commutations collapse to the
  same welded Gauss diagram.

Cyclic sequences are stored as linear tuples; index 0 is the basepoint.
Structural equality (``==``) is basepointed; equality as cyclic objects
goes through :func:`canonical_wgd`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple


class DomainError(Exception):
    """Input violates a structural invariant of the domain."""


class DecodeError(DomainError):
    """Text input does not parse; carries position and offending token."""

    def __init__(self, message: str, position: int | None = None, token: str | None = None):
        super().__init__(message)
        self.position = position
        self.token = token


OVER = "O"
UNDER = "U"


class Passage(NamedTuple):
    role: str      # OVER or UNDER
    crossing: int  # positive label
    sign: int      # +1 or -1


@dataclass(frozen=True)
class GaussCode:
    """A cyclic sequence of passages; every crossing appears once over,
    once under, with a consistent sign.  The empty code is the trivial
    diagram."""

    passages: tuple[Passage, ...] = ()

    @property
    def n(self) -> int:
        return len(self.passages) // 2

    def __len__(self) -> int:
        return len(self.passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self.passages)

    def __getitem__(self, i: int) -> Passage:
        return self.passages[i]

    def labels(self) -> set[int]:
        return {p.crossing for p in self.passages}

    def __repr__(self) -> str:
        return f"GaussCode({encode_gauss_code(self)!r})"


class WeldedGaussDiagram:
    """Cyclically ordered crossing labels with a head map and a sign map.

    ``order`` lists each label exactly once (the cyclic order of lowest
    passages); ``head[c]`` and ``sign[c]`` are the two components of the
    defining map.  Instances are immutable by convention; all operations
    return fresh objects.
    """

    __slots__ = ("order", "head", "sign", "_key")

    def __init__(self, order, head, sign):
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "head", dict(head))
        object.__setattr__(self, "sign", dict(sign))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeldedGaussDiagram is immutable")

    @property
    def n(self) -> int:
        return len(self.order)

    def key(self) -> tuple:
        """Hashable structural key (basepointed, label-sensitive)."""
        key = self._key
        if key is None:
            key = (
                self.order,
                tuple(self.head[c] for c in self.order),
                tuple(self.sign[c] for c in self.order),
            )
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeldedGaussDiagram):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"WeldedGaussDiagram({encode_wgd(self)})"


PointLabel = tuple[str, int]  # (OVER|UNDER, crossing)


@dataclass(frozen=True)
class GaussDiagram:
    """Circle with marked points and signed arrows, one arrow per
    crossing from its over point (tail) to its under point (head)."""

    points: tuple[PointLabel, ...] = ()
    arrows: frozenset = frozenset()  # of (tail: PointLabel, head: PointLabel, sign)


# ---------------------------------------------------------------------------
# validation


def validate_code(code: GaussCode) -> str | None:
    """Return the first violated invariant as a message, or None if valid.

    Total function: never raises on malformed content.
    """
    if not isinstance(code, GaussCode):
        return f"expected a GaussCode, got {type(code).__name__}"
    seen: dict[int, dict[str, int]] = {}
    for p in code.passages:
        if p.role not in (OVER, UNDER):
            return f"passage role must be O or U, got {p.role!r}"
        if not isinstance(p.crossing, int) or p.crossing < 1:
            return f"crossing label must be a positive integer, got {p.crossing!r}"
        if p.sign not in (1, -1):
            return f"sign must be +1 or -1, got {p.sign!r}"
        entry = seen.setdefault(p.crossing, {})
        if p.role in entry:
            return f"crossing {p.crossing} passes {p.role} more than once"
        entry[p.role] = p.sign
    for label, entry in seen.items():
        if OVER not in entry or UNDER not in entry:
            return f"crossing {label} is missing its {OVER if OVER not in entry else UNDER} passage"
        if entry[OVER] != entry[UNDER]:
            return f"sign mismatch on crossing {label}"
    return None


def validate_wgd(w: WeldedGaussDiagram) -> str | None:
    """Return the first violated invariant as a message, or None if valid."""
    if not isinstance(w, WeldedGaussDiagram):
        return f"expected a WeldedGaussDiagram, got {type(w).__name__}"
    labels = set(w.order)
    if len(labels) != len(w.order):
        return "order repeats a label"
    for c in w.order:
        if not isinstance(c, int) or c < 1:
            return f"label must be a positive integer, got {c!r}"
    if set(w.head) != labels:
        return "head map is not total on the label set"
    if set(w.sign) != labels:
        return "sign map is not total on the label set"
    for c, h in w.head.items():
        if h not in labels:
            return f"head of {c} points at unknown label {h}"
    for c, s in w.sign.items():
        if s not in (1, -1):
            return f"sign of {c} must be +1 or -1, got {s!r}"
    return None


def require_valid_code(code: GaussCode) -> None:
    msg = validate_code(code)
    if msg is not None:
        raise DomainError(f"invalid Gauss code: {msg}")


def require_valid_wgd(w: WeldedGaussDiagram) -> None:
    msg = validate_wgd(w)
    if msg is not None:
        raise DomainError(f"invalid welded Gauss diagram: {msg}")


# ---------------------------------------------------------------------------
# canonical forms


def _canonical_wgd_unchecked(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    n = len(w.order)
    if n == 0:
        return WeldedGaussDiagram((), {}, {})
    position = {c: i for i, c in enumerate(w.order)}
    head_pos = [position[w.head[c]] for c in w.order]
    signs = [w.sign[c] for c in w.order]
    best = min(
        tuple(((head_pos[(r + j) % n] - r) % n + 1, signs[(r + j) % n]) for j in range(n))
        for r in range(n)
    )
    order = tuple(range(1, n + 1))
    head = {i + 1: best[i][0] for i in range(n)}
    sign = {i + 1: best[i][1] for i in range(n)}
    return WeldedGaussDiagram(order, head, sign)


def canonical_wgd(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    """Unique representative of w up to cyclic rotation and relabeling.

    Labels become 1..n in the rotated order; among the n rotations the one
    whose (head, sign) encoding is lexicographically minimal wins.
    Idempotent, and constant on rotation/relabeling orbits.
    """
    require_valid_wgd(w)
    return _canonical_wgd_unchecked(w)


def wgd_encoding(w: WeldedGaussDiagram) -> tuple:
    """Hashable encoding of a *canonical* wGD: ((head(1), sign(1)), ...).

    Used as a state key in searches and as the atlas sort key.
    """
    return tuple((w.head[i], w.sign[i]) for i in range(1, w.n + 1))


def normalize_code_labels(code: GaussCode) -> GaussCode:
    """Rename crossing labels to 1..n by order of first under passage."""
    require_valid_code(code)
    rename: dict[int, int] = {}
    for p in code.passages:
        if p.role == UNDER and p.crossing not in rename:
            rename[p.crossing] = len(rename) + 1
    return GaussCode(tuple(Passage(p.role, rename[p.crossing], p.sign) for p in code.passages))


def rotated_code(code: GaussCode, k: int) -> GaussCode:
    """The same cyclic word with the basepoint moved forward by k."""
    L = len(code.passages)
    if L == 0:
        return code
    k %= L
    return GaussCode(code.passages[k:] + code.passages[:k])


def canonical_code(code: GaussCode) -> GaussCode:
    """Minimal representative of the code up to rotation and relabeling;
    realizes cyclic-equality checks for Gauss codes."""
    require_valid_code(code)
    L = len(code.passages)
    if L == 0:
        return code
    best = None
    for k in range(L):
        cand = normalize_code_labels(rotated_code(code, k))
        key = tuple(cand.passages)
        if best is None or key < best:
            best = key
    return GaussCode(best)


# ---------------------------------------------------------------------------
# text codec for Gauss codes

_TOKEN = re.compile(r"^(O|U)([0-9]+)([+-])$")


def encode_gauss_code(code: GaussCode) -> str:
    """Whitespace-separated tokens ``O3+ U1- ...``; empty code -> ''."""
    return " ".join(f"{p.role}{p.crossing}{'+' if p.sign > 0 else '-'}" for p in code.passages)


def decode_gauss_code(text: str) -> GaussCode:
    """Parse the token grammar; reject syntax errors with position/token
    and semantic errors (bad pairing) with a validation report."""
    passages = []
    for i, token in enumerate(text.split()):
        m = _TOKEN.match(token)
        if m is None:
            raise DecodeError(f"bad token {token!r} at position {i}", position=i, token=token)
        role, digits, s = m.groups()
        passages.append(Passage(role, int(digits), 1 if s == "+" else -1))
    code = GaussCode(tuple(passages))
    require_valid_code(code)
    return code


# ---------------------------------------------------------------------------
# structured codec for welded Gauss diagrams

def wgd_to_obj(w: WeldedGaussDiagram) -> dict:
    """Plain-data form: {"order": [...], "map": {label: [head, "+"|"-"]}}."""
    return {
        "order": list(w.order),
        "map": {str(c): [w.head[c], "+" if w.sign[c] > 0 else "-"] for c in w.order},
    }


def encode_wgd(w: WeldedGaussDiagram) -> str:
    """JSON object with fields ``order`` and ``map`` (label -> [head, sign]),
    signs written as "+"/"-".  Deterministic."""
    return json.dumps(wgd_to_obj(w), separators=(", ", ": "))


def decode_wgd(text: str) -> WeldedGaussDiagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DecodeError(f"bad structured input at offset {e.pos}: {e.msg}", position=e.pos) from e
    return wgd_from_obj(obj)


def wgd_from_obj(obj) -> WeldedGaussDiagram:
    if not isinstance(obj, dict) or set(obj) != {"order", "map"}:
        raise DecodeError("expected an object with fields 'order' and 'map'")
    order = obj["order"]
    if not isinstance(order, list) or not all(isinstance(c, int) for c in order):
        raise DecodeError("'order' must be an array of integer labels")
    raw_map = obj["map"]
    if not isinstance(raw_map, dict):
        raise DecodeError("'map' must be an object")
    head: dict[int, int] = {}
    sign: dict[int, int] = {}
    for key, val in raw_map.items():
        if not key.lstrip("-").isdigit():
            raise DecodeError(f"bad label {key!r} in map", token=key)
        if (not isinstance(val, list)) or len(val) != 2 or not isinstance(val[0], int) or val[1] not in ("+", "-"):
            raise DecodeError(f"map entry for {key} must be [label, \"+\"|\"-\"]", token=key)
        head[int(key)] = val[0]
        sign[int(key)] = 1 if val[1] == "+" else -1
    w = WeldedGaussDiagram(tuple(order), head, sign)
    require_valid_wgd(w)
    return w
