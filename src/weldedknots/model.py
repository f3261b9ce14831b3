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

import functools
import itertools
import json
import operator
import re
from array import array
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


def _hash_key(value, key: tuple) -> int:
    """``hash(key)``, where ``key`` is the tuple of ``value``'s compared
    fields: a field built from lists ends in :class:`DomainError`."""
    try:
        return hash(key)
    except TypeError:
        raise DomainError(f"{value!r} has an unhashable field") from None


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

    def __hash__(self) -> int:
        return _hash_key(self, (self.passages,))

    def __repr__(self) -> str:
        # error messages format codes, so an invalid one shows its passages
        try:
            return f"GaussCode({encode_gauss_code(self)!r})"
        except DomainError:
            return f"GaussCode(passages={self.passages!r})"


class WeldedGaussDiagram:
    """Cyclically ordered crossing labels with a head map and a sign map.

    ``order`` lists each label exactly once (the cyclic order of lowest
    passages); ``head[c]`` and ``sign[c]`` are the two components of the
    defining map.  ``order`` is a tuple, list or range and ``head`` and
    ``sign`` are dicts; other types end in :class:`DomainError`.  Instances
    are immutable by convention; all operations return fresh objects.
    """

    __slots__ = ("order", "head", "sign")

    def __init__(self, order, head, sign):
        if not (isinstance(order, (tuple, list, range)) and isinstance(head, dict) and isinstance(sign, dict)):
            kinds = ", ".join(type(arg).__name__ for arg in (order, head, sign))
            raise DomainError(f"a WeldedGaussDiagram takes a tuple, list or range and two dicts, got {kinds}")
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "head", dict(head))
        object.__setattr__(self, "sign", dict(sign))

    def __setattr__(self, name, value):
        raise AttributeError("WeldedGaussDiagram is immutable")

    @property
    def n(self) -> int:
        return len(self.order)

    def key(self) -> tuple:
        """Hashable structural key (basepointed, label-sensitive); a label
        with no head or sign ends in :class:`DomainError`."""
        try:
            return (
                self.order,
                tuple(self.head[c] for c in self.order),
                tuple(self.sign[c] for c in self.order),
            )
        except (KeyError, TypeError):
            raise DomainError(f"{self!r}: a label is unhashable or has no head or sign") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeldedGaussDiagram):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return _hash_key(self, self.key())

    def __repr__(self) -> str:
        # error messages format diagrams, so an invalid one shows its fields
        try:
            return f"WeldedGaussDiagram({encode_wgd(self)})"
        except DomainError:
            return f"WeldedGaussDiagram(order={self.order!r}, head={self.head!r}, sign={self.sign!r})"


PointLabel = tuple[str, int]  # (OVER|UNDER, crossing)


@dataclass(frozen=True)
class GaussDiagram:
    """Circle with marked points and signed arrows, one arrow per
    crossing from its over point (tail) to its under point (head)."""

    points: tuple[PointLabel, ...] = ()
    arrows: frozenset = frozenset()  # of (tail: PointLabel, head: PointLabel, sign)

    def __hash__(self) -> int:
        return _hash_key(self, (self.points, self.arrows))


# ---------------------------------------------------------------------------
# validation


def _is_sign(value) -> bool:
    """+1 or -1 as an int: ``True`` and ``1.0`` compare equal to 1 but are
    not signs."""
    return type(value) is int and (value == 1 or value == -1)


def _is_label(value) -> bool:
    """An int that is not a bool: ``True`` and ``False``, which JSON
    ``true`` and ``false`` decode to, are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_code(code: GaussCode) -> str | None:
    """Return the first violated invariant as a message, or None if valid.

    Total function: never raises on malformed content.
    """
    if not isinstance(code, GaussCode):
        return f"expected a GaussCode, got {type(code).__name__}"
    if not isinstance(code.passages, tuple):
        return f"passages must be a tuple, got {type(code.passages).__name__}"
    seen: dict[int, dict[str, int]] = {}
    for p in code.passages:
        if not isinstance(p, Passage):
            return f"expected a Passage, got {p!r}"
        if p.role not in (OVER, UNDER):
            return f"passage role must be O or U, got {p.role!r}"
        if not _is_label(p.crossing) or p.crossing < 1:
            return f"crossing label must be a positive integer, got {p.crossing!r}"
        if not _is_sign(p.sign):
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
    for c in w.order:
        if not _is_label(c) or c < 1:
            return f"label must be a positive integer, got {c!r}"
    labels = set(w.order)
    if len(labels) != len(w.order):
        return "order repeats a label"
    if set(w.head) != labels:
        return "head map is not total on the label set"
    if set(w.sign) != labels:
        return "sign map is not total on the label set"
    for c, h in w.head.items():
        if not _is_label(h) or h not in labels:
            return f"head of {c} points at unknown label {h}"
    for c, s in w.sign.items():
        if not _is_sign(s):
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


# The private layer works on packed encodings.  The crossing at cyclic
# position i is the entry ``2 * head_pos + [sign > 0]``, where ``head_pos``
# is the position of its head; entries order as (head, sign) pairs do, so
# packed encodings sort as :func:`wgd_encoding` tuples do.  Up to 128
# crossings the entries are a bytes string, one byte each (the largest
# entry, 2 * 127 + 1, is 255), so a rotation is two slices and a relabelling
# is ``bytes.translate``.  Past 128 crossings they are a tuple of the same
# ints.  Only the three helpers below tell the two forms apart.  Codes and
# diagrams meet only here: :func:`_code_packed` and :func:`_wgd_packed` read
# them, and :func:`_gaps` lists the overs of each gap to write a code back.
# :func:`_canonical_image` maps one under the reversal group, and
# :func:`_orbit_canonical` canonicalises under the group too.

_BYTE_CROSSINGS = 128


def _pack(values) -> bytes | tuple:
    """The encoding with the entries ``values`` (ints)."""
    return bytes(values) if len(values) <= _BYTE_CROSSINGS else tuple(values)


def _relabelled(entries, table) -> bytes | tuple:
    """The encoding with entries ``table[v]`` for the entries v of
    ``entries``, packed by its length."""
    if type(entries) is bytes:
        return entries.translate(table)
    return _pack([table[v] for v in entries])


def _tables(values: list[int], starts=(0,)) -> list:
    """Relabel tables: for each start s, the table sending entry v to
    ``values[s + v]``, at least 256 entries wide (the values are padded
    with zeros).  When every value fits a byte the tables are bytes, and
    then those of encodings of up to 128 crossings serve
    ``bytes.translate``; otherwise they are views of one array, so
    overlapping windows of a long list copy nothing."""
    width = max(256, len(values) - max(starts))
    values = values + [0] * (max(starts) + width - len(values))
    if max(values) < 256:
        packed = bytes(values)
        return [packed[s : s + width] for s in starts]
    view = memoryview(array("q", values))
    return [view[s : s + width] for s in starts]


# The reversal group G = {id, bar, rev, glob}, isomorphic to Z/2 x Z/2,
# acts on diagrams: bar flips every sign, rev reverses the orientation and
# glob does both.  Its elements are the ints 0..3, bit 0 for bar and bit 1
# for rev, so a product is an XOR and every element is its own inverse.
# Each element acts on a packed encoding by one relabelling, of the
# reversed entries for rev and glob.  Read backwards, the code ``U_0 G_0
# ... U_{n-1} G_{n-1}`` meets the unders in reverse order, so the entry at
# position j moves to n-1-j, and each gap now follows the under after it,
# so a head h becomes n-1-((h+1) mod n).

_BAR, _REV, _GLOB = 1, 2, 3
_GROUP = (0, _BAR, _REV, _GLOB)


@functools.lru_cache(maxsize=2 * _BYTE_CROSSINGS)
def _relabel_tables(n: int) -> tuple:
    """The relabel tables of encodings of n >= 1 crossings, in one lookup:
    ``(rotations, unsigned, reversals)``.  ``rotations[r]``, per rotation
    r, takes entry v to ``(v - 2r) mod 2n``: heads move back r positions,
    signs stay.  ``unsigned[r]`` does the same and clears the sign bit.
    Both are windows of one doubled list.  ``reversals[g]`` is the table of
    the element g of G (index 0, the identity, is None); rev and glob
    apply to the reversed entries."""
    starts = [2 * n - 2 * r for r in range(n)]
    rotations = _tables(list(range(2 * n)) * 2, starts)
    unsigned = _tables([v & ~1 for v in range(2 * n)] * 2, starts)
    rev = [2 * (n - 1 - (h + 1) % n) + s for h in range(n) for s in (0, 1)]
    reversals = [None] + _tables([v ^ 1 for v in range(2 * n)]) + _tables(rev) + _tables([v ^ 1 for v in rev])
    return rotations, unsigned, reversals


def _canonical_encoding(entries) -> bytes | tuple:
    """Packed encoding of the canonical form of the diagram with the packed
    encoding ``entries`` (one entry ``2 * head_pos + [sign > 0]`` per crossing:
    bytes up to 128 crossings, a tuple of the same ints beyond).

    The canonical form is the least of the n rotations, each relabelled to
    start at position 0: rotation r is ``entries[r:] + entries[:r]``
    relabelled through the table ``v -> (v - 2r) mod 2n``, one
    ``bytes.translate`` in the byte form.  Only the rotations whose first
    entry is least can win, so only those are relabelled in full."""
    n = len(entries)
    if n == 0:
        return entries
    tables = _relabel_tables(n)[0]
    firsts = list(map(operator.getitem, tables, entries))
    lowest = min(firsts)
    r = firsts.index(lowest)
    best = _relabelled(entries[r:] + entries[:r], tables[r])
    if firsts.count(lowest) > 1:
        for r in range(r + 1, n):
            if firsts[r] == lowest:
                candidate = _relabelled(entries[r:] + entries[:r], tables[r])
                if candidate < best:
                    best = candidate
    return best


def _canonical_encodings(n_max: int) -> list:
    """Packed encodings of all canonical welded Gauss diagrams with up to
    n_max crossings, sorted by (crossing count, encoding): bytes, one entry
    ``2 * head_pos + [sign > 0]`` per crossing, up to 128 crossings, tuples
    of the same ints beyond.

    For each n, the assignments are visited in encoding order (heads
    ascending, sign -1 before +1), and an assignment is kept when it is its
    own canonical encoding, so the sort holds by construction.  The first
    entry of a canonical encoding is the least first entry of its rotations,
    so after a first entry v1 position r >= 1 may hold only the entries v
    with ``(v - 2r) mod 2n >= v1``; the other assignments are never
    visited.  Rotation r then starts with ``(v - 2r) mod 2n``, which ties
    v1 only when v is ``(v1 + 2r) mod 2n``: an assignment with no such tie
    has every other rotation start above v1, so it is canonical untested.
    One with ties is canonical unless a tying rotation, the only kind that
    can precede it, relabels to a smaller encoding: only those rotations
    are relabelled, each compared with the assignment."""
    out: list = [_pack([])]
    for n in range(1, n_max + 1):
        tables = _relabel_tables(n)[0]
        for v1 in range(2 * n):
            allowed = [[v for v in range(2 * n) if (v - 2 * r) % (2 * n) >= v1] for r in range(1, n)]
            ties = [(v1 + 2 * r) % (2 * n) for r in range(1, n)]
            for rest in itertools.product(*allowed):
                encoding = _pack((v1,) + rest)
                if any(map(operator.eq, rest, ties)) and any(
                    _relabelled(encoding[r:] + encoding[:r], tables[r]) < encoding
                    for r, v, tie in zip(range(1, n), rest, ties)
                    if v == tie
                ):
                    continue
                out.append(encoding)
    return out


def _wgd_from_encoding(encoding) -> WeldedGaussDiagram:
    """The diagram with labels 1..n whose packed encoding is ``encoding``."""
    order = range(1, len(encoding) + 1)
    head = {c: (v >> 1) + 1 for c, v in zip(order, encoding)}
    sign = {c: 1 if v & 1 else -1 for c, v in zip(order, encoding)}
    return WeldedGaussDiagram(order, head, sign)


def _wgd_packed(w: WeldedGaussDiagram) -> bytes | tuple:
    """Packed encoding of ``w`` as it stands, position i holding
    ``w.order[i]`` (not validated, not canonicalised)."""
    position = {c: i for i, c in enumerate(w.order)}
    return _pack([2 * position[w.head[c]] + (w.sign[c] > 0) for c in w.order])


def _code_packed(code: GaussCode) -> bytes | tuple:
    """Packed encoding of ``code`` as it stands: position j holds the
    crossing of the j-th under passage, and an over passage lies in the gap
    of the under passage before it, cyclically (not validated, not
    canonicalised)."""
    unders = [p for p in code.passages if p.role == UNDER]
    gap, head = -1, {}  # over passages before the first under lie in the last gap
    for p in code.passages:
        if p.role == UNDER:
            gap += 1
        else:
            head[p.crossing] = gap % len(unders)
    return _pack([2 * head[p.crossing] + (p.sign > 0) for p in unders])


def _gaps(e) -> list[list[int]]:
    """The gap ``G_u = {c : head[c] = u}`` of each position u of the
    packed encoding ``e``, each in increasing c."""
    gaps: list[list[int]] = [[] for _ in e]
    for c, v in enumerate(e):
        gaps[v >> 1].append(c)
    return gaps


def _canonical_image(e, g: int) -> bytes | tuple:
    """Canonical packed encoding of the image g.e, for the element g of G,
    of the diagram with the packed encoding ``e``."""
    if not e:
        return e
    if g & _REV:
        e = e[::-1]
    return _canonical_encoding(_relabelled(e, _relabel_tables(len(e))[2][g]) if g else e)


def _orbit_canonical(x) -> tuple:
    """``(rep, h, stab)`` for the diagram with the packed encoding ``x``:
    ``rep`` is the least of the canonical encodings of the four images g.x,
    g in G, the canonical encoding of x is that of h.rep, and ``stab`` lists
    in increasing order the g whose image g.rep has the canonical encoding
    ``rep``.

    One least-first-entry scan serves the 4n rotations of the four images.
    Rotation tables keep sign bits, so rotation r of bar(x) starts with the
    first entry of rotation r of x with its sign bit flipped, and glob(x)
    is bar(rev(x)): only x and rev(x) are scanned, their first entries read
    with the sign bit cleared.  The least first entry over the four images
    is the least of these, and only the rotations that start with it are
    relabelled in full, as in :func:`_canonical_encoding`, each from x or
    rev(x) and sign-flipped when that makes it start with it.  The three
    kinds of table come from one lookup of :func:`_relabel_tables`, and
    when one element alone gives ``rep``, as for most diagrams, ``stab``
    is ``(0,)`` with nothing sorted."""
    n = len(x)
    if n == 0:
        return x, 0, _GROUP
    rotations, unsigned, tables = _relabel_tables(n)
    reversed_x = _relabelled(x[::-1], tables[_REV])
    firsts = list(map(operator.getitem, unsigned, x))
    reversed_firsts = list(map(operator.getitem, unsigned, reversed_x))
    lowest = min(min(firsts), min(reversed_firsts))
    best, winners = None, []
    for g, image, starts in ((0, x, firsts), (_REV, reversed_x, reversed_firsts)):
        r = -1
        for _ in range(starts.count(lowest)):
            r = starts.index(lowest, r + 1)
            candidate = _relabelled(image[r:] + image[:r], rotations[r])
            element = g
            if candidate[0] != lowest:  # the sign-flipped image starts lowest
                candidate = _relabelled(candidate, tables[_BAR])
                element = g ^ _BAR
            if best is None or candidate < best:
                best, winners = candidate, [element]
            elif candidate == best and element not in winners:
                winners.append(element)
    h = winners[0]
    if len(winners) == 1:  # the usual case: only the identity fixes rep
        return best, h, (0,)
    return best, h, tuple(sorted(g ^ h for g in winners))


def _canonical_wgd_encoding(w: WeldedGaussDiagram) -> bytes | tuple:
    """Packed encoding of the canonical form of ``w`` (not validated)."""
    return _canonical_encoding(_wgd_packed(w))


def canonical_wgd(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    """Unique representative of w up to cyclic rotation and relabeling.

    Labels become 1..n in the rotated order; among the n rotations the one
    whose (head, sign) encoding is lexicographically minimal wins.
    Idempotent, and constant on rotation/relabeling orbits.
    """
    require_valid_wgd(w)
    return _wgd_from_encoding(_canonical_wgd_encoding(w))


def wgd_encoding(w: WeldedGaussDiagram) -> tuple:
    """Hashable encoding of a *canonical* wGD, whose order is 1..n:
    ((head(1), sign(1)), ...).  Diagrams with equally many crossings sort
    by it as by their packed encodings, which the package itself keys and
    sorts by."""
    require_valid_wgd(w)
    if w.order != tuple(range(1, w.n + 1)):
        raise DomainError(f"expected a WeldedGaussDiagram whose order is 1..n, got {w.order}")
    return tuple((w.head[i], w.sign[i]) for i in range(1, w.n + 1))


# ---------------------------------------------------------------------------
# text codec for Gauss codes

_TOKEN = re.compile(r"^(O|U)([0-9]+)([+-])$")


def encode_gauss_code(code: GaussCode) -> str:
    """Whitespace-separated tokens ``O3+ U1- ...``; empty code -> ''."""
    require_valid_code(code)
    return " ".join(f"{p.role}{p.crossing}{'+' if p.sign > 0 else '-'}" for p in code.passages)


def decode_gauss_code(text: str) -> GaussCode:
    """Parse the token grammar; reject syntax errors with position/token
    and semantic errors (bad pairing) with a validation report."""
    if not isinstance(text, str):
        raise DecodeError(f"expected text, got {type(text).__name__}")
    passages = []
    for i, token in enumerate(text.split()):
        m = _TOKEN.match(token)
        if m is None:
            raise DecodeError(f"bad token {token!r} at position {i}", position=i, token=token)
        role, digits, s = m.groups()
        try:
            label = int(digits)
        except ValueError as e:  # more digits than int() converts
            raise DecodeError(f"bad token at position {i}: {e}", position=i) from e
        passages.append(Passage(role, label, 1 if s == "+" else -1))
    code = GaussCode(tuple(passages))
    require_valid_code(code)
    return code


# ---------------------------------------------------------------------------
# structured codec for welded Gauss diagrams

def wgd_to_obj(w: WeldedGaussDiagram) -> dict:
    """Plain-data form: {"order": [...], "map": {label: [head, "+"|"-"]}}."""
    require_valid_wgd(w)
    return {
        "order": list(w.order),
        "map": {str(c): [w.head[c], "+" if w.sign[c] > 0 else "-"] for c in w.order},
    }


def encode_wgd(w: WeldedGaussDiagram) -> str:
    """JSON object with fields ``order`` and ``map`` (label -> [head, sign]),
    signs written as "+"/"-".  Deterministic."""
    return json.dumps(wgd_to_obj(w), separators=(", ", ": "))


def decode_wgd(text: str) -> WeldedGaussDiagram:
    if not isinstance(text, str):
        raise DecodeError(f"expected text, got {type(text).__name__}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DecodeError(f"bad structured input at offset {e.pos}: {e.msg}", position=e.pos) from e
    except (ValueError, RecursionError) as e:  # an over-long integer, or too deep nesting
        raise DecodeError(f"bad structured input: {e}") from e
    return wgd_from_obj(obj)


_MAP_KEY = re.compile(r"-?[0-9]+")


def wgd_from_obj(obj) -> WeldedGaussDiagram:
    if not isinstance(obj, dict) or set(obj) != {"order", "map"}:
        raise DecodeError("expected an object with fields 'order' and 'map'")
    order = obj["order"]
    if not isinstance(order, list) or not all(_is_label(c) for c in order):
        raise DecodeError("'order' must be an array of integer labels")
    raw_map = obj["map"]
    if not isinstance(raw_map, dict):
        raise DecodeError("'map' must be an object")
    head: dict[int, int] = {}
    sign: dict[int, int] = {}
    for key, val in raw_map.items():
        if _MAP_KEY.fullmatch(key) is None:
            raise DecodeError(f"bad label {key!r} in map", token=key)
        if (not isinstance(val, list)) or len(val) != 2 or not _is_label(val[0]) or val[1] not in ("+", "-"):
            raise DecodeError(f"map entry for {key} must be [label, \"+\"|\"-\"]", token=key)
        try:
            label = int(key)
        except ValueError as e:  # more digits than int() converts
            raise DecodeError(f"bad label in map: {e}") from e
        if label in head:
            raise DecodeError(f"label {label} has more than one map entry", token=key)
        head[label] = val[0]
        sign[label] = 1 if val[1] == "+" else -1
    w = WeldedGaussDiagram(tuple(order), head, sign)
    require_valid_wgd(w)
    return w
