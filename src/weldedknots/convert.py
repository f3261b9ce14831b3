"""
Conversions between Gauss codes, welded Gauss diagrams and Gauss diagrams.

The code -> wGD direction orders crossings by their under passages and
sends each crossing to the crossing of the nearest under passage strictly
preceding its over passage (cyclically).  The inverse direction emits the
unders in cyclic order and drops each over passage into the interval that
the head map dictates; inside one interval overs are ordered by their
crossing's position in the cyclic order, which fixes a deterministic
over-commute representative.
"""

from __future__ import annotations

from .model import (
    OVER,
    UNDER,
    DomainError,
    GaussCode,
    GaussDiagram,
    Passage,
    WeldedGaussDiagram,
    require_valid_code,
    require_valid_wgd,
)


def _preceding_under(code: GaussCode) -> list[int]:
    """For each position, the position of the nearest under passage
    strictly before it, cyclically.  Requires n >= 1."""
    L = len(code.passages)
    prev = [-1] * L
    last = max(i for i in range(L) if code.passages[i].role == UNDER)
    for i in range(L):
        prev[i] = last
        if code.passages[i].role == UNDER:
            last = i
    return prev


def _gauss_to_wgd_unchecked(code: GaussCode) -> WeldedGaussDiagram:
    from .model import _canonical_wgd_unchecked

    if code.n == 0:
        return WeldedGaussDiagram((), {}, {})
    prev_under = _preceding_under(code)
    order = tuple(p.crossing for p in code.passages if p.role == UNDER)
    head: dict[int, int] = {}
    sign: dict[int, int] = {}
    for i, p in enumerate(code.passages):
        if p.role == OVER:
            head[p.crossing] = code.passages[prev_under[i]].crossing
            sign[p.crossing] = p.sign
    return _canonical_wgd_unchecked(WeldedGaussDiagram(order, head, sign))


def gauss_to_wgd(code: GaussCode) -> WeldedGaussDiagram:
    """Welded Gauss diagram of a code, in canonical form."""
    require_valid_code(code)
    return _gauss_to_wgd_unchecked(code)


def wgd_to_gauss(w: WeldedGaussDiagram) -> GaussCode:
    """Deterministic Gauss code realizing w.

    Round-trip contract: ``gauss_to_wgd(wgd_to_gauss(w)) == canonical_wgd(w)``.
    """
    require_valid_wgd(w)
    position = {c: i for i, c in enumerate(w.order)}
    passages: list[Passage] = []
    for c in w.order:
        passages.append(Passage(UNDER, c, w.sign[c]))
        incoming = sorted((d for d in w.order if w.head[d] == c), key=position.__getitem__)
        passages.extend(Passage(OVER, d, w.sign[d]) for d in incoming)
    return GaussCode(tuple(passages))


def wgd_to_gauss_diagram(w: WeldedGaussDiagram) -> GaussDiagram:
    """Classical Gauss-diagram presentation of w.

    One base point per label in cyclic order; after the base point of c,
    one extra point per crossing whose head is c (ordered by label); one
    arrow per crossing from its extra point to its base point.
    """
    require_valid_wgd(w)
    points: list[tuple[str, int]] = []
    for c in w.order:
        points.append((UNDER, c))
        points.extend((OVER, d) for d in sorted(d for d in w.order if w.head[d] == c))
    arrows = frozenset(((OVER, c), (UNDER, c), w.sign[c]) for c in w.order)
    return GaussDiagram(tuple(points), arrows)


def gauss_code_to_gauss_diagram(code: GaussCode) -> GaussDiagram:
    """Gauss diagram read directly off a code: the 2n passages in code
    order, one arrow per crossing from over point to under point."""
    require_valid_code(code)
    points = tuple((p.role, p.crossing) for p in code.passages)
    arrows = frozenset(
        ((OVER, p.crossing), (UNDER, p.crossing), p.sign) for p in code.passages if p.role == UNDER
    )
    return GaussDiagram(points, arrows)


def gauss_diagram_to_wgd(gd: GaussDiagram) -> WeldedGaussDiagram:
    """Collapse a Gauss diagram to the welded Gauss diagram it encodes.

    The points are read as a Gauss code: each arrow is one crossing, with
    its tail as the over passage and its head as the under passage, both
    carrying the arrow's sign.  :func:`gauss_to_wgd` then validates that
    code and quotients away rotation and the ordering of tails inside an
    interval, which makes the two diagram-construction paths comparable.
    """
    passage_at: dict = {}
    for label, (tail, head, sign) in enumerate(gd.arrows, start=1):
        passage_at[tail] = Passage(OVER, label, sign)
        passage_at[head] = Passage(UNDER, label, sign)
    if len(passage_at) != 2 * len(gd.arrows):
        raise DomainError("arrows must be disjoint on endpoints")
    if not all(pt in passage_at for pt in gd.points):
        raise DomainError("every point must be an endpoint of an arrow")
    return gauss_to_wgd(GaussCode(tuple(passage_at[pt] for pt in gd.points)))
