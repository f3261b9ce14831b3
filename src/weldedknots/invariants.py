"""
Move-invariant fingerprints of codes: Fox coloring counts over Z/p and
counts of homomorphisms of the arc presentation into small finite groups.

Arcs break at under passages only; over passages run through.  A code
with n >= 1 crossings has exactly n arcs, the empty code has one.  At a
crossing the outgoing arc is determined by the incoming and the over arc:

    colorings:      out = 2*over - in      (mod p)
    homomorphisms:  out = over * in * over^-1     for sign +
                    out = over^-1 * in * over     for sign -

Both counts are constant along every implemented move, for any finite
group, which is what makes them usable as oracles for the rewriting
engine.  So they are constant on each class of the move graph, and the
atlas fingerprints each class once, on its least seed (see
:func:`search.build_atlas`).  Both read the arc presentation of the
welded knot group: Fox p-colorings are its homomorphisms to the dihedral
group of order 2p that send every arc to a reflection.  Colorings ignore
signs: the coloring relation reads the over and the incoming arc only.
The counts for several primes come from one Gaussian elimination over
Z/m, m the product of the primes, which splits the modulus at a pivot
that is no unit (see :func:`_coloring_counts`).

The counts read arcs off a packed encoding (see :mod:`weldedknots.model`):
arc j starts after the under passage at position j, so the crossing at
position j has incoming arc j - 1 (cyclically), outgoing arc j, over arc
``e[j] >> 1`` and sign + exactly when ``e[j] & 1``.  :func:`_arc_encoding`
reads a diagram as it stands, a code through :func:`model._code_packed`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import (
    DomainError,
    GaussCode,
    WeldedGaussDiagram,
    require_valid_code,
    require_valid_wgd,
    _code_packed,
    _wgd_packed,
)


def _arc_encoding(x) -> bytes | tuple:
    """The packed encoding of the code or diagram ``x``, checked, read as
    its arcs.  A diagram's arcs are those of ``wgd_to_gauss(x)``, whose j-th
    under passage is that of ``x.order[j]``."""
    if isinstance(x, GaussCode):
        require_valid_code(x)
        return _code_packed(x)
    if isinstance(x, WeldedGaussDiagram):
        require_valid_wgd(x)
        return _wgd_packed(x)
    raise DomainError(f"expected a GaussCode or a WeldedGaussDiagram, got {type(x).__name__}")


# Miller-Rabin with these witnesses decides primality exactly below 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_odd_prime(p: int) -> bool:
    """Whether the int ``p`` < 2**64 is an odd prime, by deterministic
    Miller-Rabin: the time grows as log p, not as sqrt(p)."""
    if p < 3:
        return False
    for a in _WITNESSES:  # small primes, such as the default 3 and 5, end here
        if p % a == 0:
            return p == a
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        # a prime p has a**d = 1 or a**(d * 2**k) = -1 for some k < s (mod p)
        powers = [pow(a, d << k, p) for k in range(s)]
        if powers[0] != 1 and p - 1 not in powers:
            return False
    return True


def _require_odd_prime(p: int) -> None:
    # 3.0 compares equal to 3, but Z/p needs an integer modulus
    if not isinstance(p, int):
        raise DomainError(f"p must be an odd prime, got {p!r}")
    if p >= 2**64:
        raise DomainError("p must be below 2**64")
    if not _is_odd_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")


def coloring_count(x, p: int) -> int:
    """Number of Fox p-colorings of the arcs of the code or diagram ``x``:
    p**d for the nullspace dimension d of the relation matrix."""
    _require_odd_prime(p)
    return _coloring_counts(_arc_encoding(x), (p,))[0][1]


def _coloring_counts(e, primes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``(p, count)`` for each of the distinct odd primes ``primes``, in
    order: the Fox p-colorings of the arcs of the packed encoding ``e``,
    p**(n - r) for the rank r of the relation matrix over Z/p.

    One Gaussian elimination over Z/m serves every prime, m the product of
    the primes.  Z/m is the product of the fields Z/p, so a unit pivot
    eliminates in all of them at once and a column that is zero mod m is
    zero mod each p.  A pivot that is no unit has g = gcd(pivot, m) > 1;
    m is squarefree, so Z/m splits as Z/g x Z/(m/g), and each part goes
    on from that column with the rank found so far (the pivot is zero mod
    g and a unit mod m/g).  A part that runs out of columns gives its rank
    to every prime that divides its modulus."""
    n = len(e)
    if not n or not primes:
        return tuple((p, p) for p in primes)
    m = math.prod(primes)
    rows = []
    for j, v in enumerate(e):
        row = [0] * n
        row[j] = 1  # out
        row[j - 1] += 1  # in
        row[v >> 1] = (row[v >> 1] - 2) % m  # over
        rows.append(row)
    ranks = {}
    parts = [(m, rows, 0, 0)]  # (modulus, rows left reduced by it, column, rank)
    while parts:
        m, rows, start, rank = parts.pop()
        for col in range(start, n):
            for i, pivot in enumerate(rows):
                if pivot[col]:
                    break
            else:
                continue
            g = math.gcd(pivot[col], m)
            if g > 1:
                parts += ((d, [[v % d for v in row] for row in rows], col, rank) for d in (g, m // g))
                break
            del rows[i]
            inv = pow(pivot[col], -1, m)
            rows = [[(a - f * b) % m for a, b in zip(row, pivot)] if (f := row[col] * inv) else row
                    for row in rows]
            rank += 1
        else:
            ranks.update((p, rank) for p in primes if m % p == 0)
    return tuple((p, p ** (n - ranks[p])) for p in primes)


# ---------------------------------------------------------------------------
# finite groups given by multiplication tables

@dataclass(frozen=True)
class Group:
    """A finite group as a checked multiplication table: a * b is ``table[a][b]``."""
    name: str
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def __post_init__(self):
        # groups are ordered and told apart by name
        if not isinstance(self.name, str):
            raise DomainError(f"a group name must be a str, got {self.name!r}")
        k = len(self.table) if isinstance(self.table, (tuple, list)) else -1
        if k < 0 or any(not isinstance(row, (tuple, list)) or len(row) != k for row in self.table):
            raise DomainError("multiplication table must be a square of rows")
        # rows given as lists are stored as tuples, so the group hashes
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))
        # True and 1.0 compare equal to 1 but index no element
        if any(type(v) is not int or v < 0 or v >= k for row in self.table for v in row):
            raise DomainError("table entries must be ints indexing elements")
        identity = None
        for e in range(k):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(k)):
                identity = e
                break
        if identity is None:
            raise DomainError("table has no identity element")
        inverses = [None] * k
        for a in range(k):
            for b in range(k):
                if self.table[a][b] == identity == self.table[b][a]:
                    inverses[a] = b
                    break
            if inverses[a] is None:
                raise DomainError(f"element {a} has no inverse")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise DomainError("table is not associative")
        object.__setattr__(self, "_inverses", tuple(inverses))


def symmetric_group_3() -> Group:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return Group("S3", tuple(tuple(index[tuple(a[x] for x in b)] for b in perms) for a in perms))


def dihedral_group(m: int) -> Group:
    """Dihedral group of order 2m, 1 <= m <= 6: element i + m*f is r^i s^f,
    and r^i s^f * r^j s^g = r^(i + (-1)^f j) s^(f+g)."""
    # 2.0 and True compare equal to ints but are no group size
    if isinstance(m, bool) or not isinstance(m, int):
        raise DomainError(f"m must be an int, got {m!r}")
    if m < 1 or m > 6:
        raise DomainError("dihedral groups are built in up to order 12")
    elements = [(i, f) for f in (0, 1) for i in range(m)]
    table = tuple(tuple((i - j if f else i + j) % m + m * (f ^ g) for j, g in elements) for i, f in elements)
    return Group(f"D{m}", table)


_BUILTIN = {"S3": symmetric_group_3, **{f"D{m}": (lambda m=m: dihedral_group(m)) for m in range(1, 7)}}


def builtin_group(name: str) -> Group:
    if not isinstance(name, str):
        raise DomainError(f"a group name must be a str, got {name!r}")
    try:
        return _BUILTIN[name.upper()]()
    except KeyError:
        raise DomainError(f"unknown group {name!r}; built-ins: {', '.join(sorted(_BUILTIN))}") from None


def _require_group(group) -> None:
    # a name is not a group: builtin_group turns one into a Group
    if not isinstance(group, Group):
        raise DomainError(f"expected a Group, got {group!r}")


# ---------------------------------------------------------------------------
# homomorphism counting

def hom_count(x, group: Group) -> int:
    """Number of assignments of group elements to the arcs of the code or
    diagram ``x`` satisfying the conjugation relation at every crossing.

    Backtracks over the value of the first arc; assigning an arc propagates
    through every relation it takes part in, with an undo trail instead of
    state copies.  Branch values range over the first arc's conjugacy
    class, since the relations make every arc conjugate to it.
    """
    _require_group(group)
    return _hom_count(_arc_encoding(x), group)


def _hom_count(e, group: Group) -> int:
    m = len(e)
    k = group.order
    if not m:
        return k

    relations = [((j - 1) % m, v >> 1, j, v & 1) for j, v in enumerate(e)]
    touching: list[list[int]] = [[] for _ in range(m)]
    for ridx, (in_a, over_a, out_a, _) in enumerate(relations):
        for a in {in_a, over_a, out_a}:
            touching[a].append(ridx)

    table, inv = group.table, group._inverses
    conj = [[table[table[g][a]][inv[g]] for a in range(k)] for g in range(k)]  # g * a * g^-1

    values: list[int | None] = [None] * m

    def try_assign(arc: int, val: int, trail: list[int]) -> bool:
        stack = [(arc, val)]
        while stack:
            a, v = stack.pop()
            current = values[a]
            if current is not None:
                if current != v:
                    return False
                continue
            values[a] = v
            trail.append(a)
            for ridx in touching[a]:
                in_a, over_a, out_a, sign = relations[ridx]
                g = values[over_a]
                if g is None:
                    continue
                h = g if sign else inv[g]
                vin = values[in_a]
                if vin is not None:
                    stack.append((out_a, conj[h][vin]))
                else:
                    vout = values[out_a]
                    if vout is not None:
                        stack.append((in_a, conj[inv[h]][vout]))
        return True

    def pick_branch_arc() -> int | None:
        # prefer the arc whose assignment fires the most relations now;
        # ties and the no-information case fall back to the lowest index.
        # The lowest free arc alone took S3 on a seeded 40-crossing code from
        # 0.018 s to 2.5 s (2-core host, Python 3.11; test_branch_choice_cost)
        best, best_score = None, -1
        for a in range(m):
            if values[a] is not None:
                continue
            score = 0
            for ridx in touching[a]:
                in_a, over_a, out_a, _ = relations[ridx]
                assigned = (values[in_a] is not None) + (values[over_a] is not None) + (values[out_a] is not None)
                if assigned == 2:
                    score += 1
            if score > best_score:
                best, best_score = a, score
        return best

    # every arc is conjugate to arc 0, so once it has a value the others
    # range over that value's conjugacy class
    classes = [tuple(sorted({row[g] for row in conj})) for g in range(k)]

    def count() -> int:
        free = pick_branch_arc()  # arc 0 while nothing is assigned
        if free is None:
            return 1
        total = 0
        for val in range(k) if values[0] is None else classes[values[0]]:
            trail: list[int] = []
            if try_assign(free, val, trail):
                total += count()
            for a in trail:
                values[a] = None
        return total

    return count()


# ---------------------------------------------------------------------------
# fingerprints

@dataclass(frozen=True)
class InvariantFingerprint:
    coloring_counts: tuple[tuple[int, int], ...]  # (prime, count), sorted
    hom_counts: tuple[tuple[str, int], ...]       # (group name, count), sorted

    def __post_init__(self):
        # as_dict and the atlas JSONL read the pairs; True is no prime or count
        cc, hc = self.coloring_counts, self.hom_counts
        if not (type(cc) is tuple and type(hc) is tuple
                and all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in cc)
                and all(type(p) is tuple and len(p) == 2 and isinstance(p[0], str) and type(p[1]) is int
                        for p in hc)):
            raise DomainError(f"fingerprint fields are tuples of (int, int) and (str, int) pairs, got {cc!r} and {hc!r}")

    def as_dict(self) -> dict:
        return {
            "coloring_counts": {str(p): c for p, c in self.coloring_counts},
            "hom_counts": {name: c for name, c in self.hom_counts},
        }


def _fingerprint_terms(primes, groups) -> tuple[tuple[int, ...], tuple[Group, ...]]:
    """The distinct primes, ascending, and the distinct groups, by name, of
    a fingerprint, checked.  Each argument is read once, so iterators serve
    as well as tuples; two different groups with one name are rejected."""
    try:
        primes, groups = tuple(primes), tuple(groups)
    except TypeError:
        raise DomainError(f"primes and groups must be iterables, got {primes!r} and {groups!r}") from None
    for p in primes:
        _require_odd_prime(p)
    by_name: dict[str, Group] = {}
    for g in groups:
        _require_group(g)
        if by_name.setdefault(g.name, g) != g:
            raise DomainError(f"two different groups are named {g.name!r}")
    return tuple(sorted(set(primes))), tuple(by_name[name] for name in sorted(by_name))


def _fingerprint(e, primes: tuple[int, ...], groups: tuple[Group, ...]) -> InvariantFingerprint:
    """The fingerprint of the diagram with the packed encoding ``e``, for
    terms from :func:`_fingerprint_terms`: one elimination serves every
    prime (see :func:`_coloring_counts`), and each group gets its
    homomorphism count."""
    return InvariantFingerprint(_coloring_counts(e, primes), tuple((g.name, _hom_count(e, g)) for g in groups))


def fingerprint(x, primes=(3, 5), groups=()) -> InvariantFingerprint:
    """Deterministic invariant tuple; equal fingerprints are necessary for
    move-equivalence.  Accepts a code or a welded Gauss diagram.  Repeated
    primes and repeated groups count once; two different groups with one
    name are rejected.  ``primes`` and ``groups`` may be any iterables."""
    primes, groups = _fingerprint_terms(primes, groups)
    return _fingerprint(_arc_encoding(x), primes, groups)
