"""
Conversions between Gauss codes, welded Gauss diagrams and Gauss diagrams.

Both directions go through the packed encoding of :mod:`weldedknots.model`.
A code is read through :func:`model._code_packed`: crossings in the order
of their under passages, each over passage in the gap of the nearest under
passage strictly before it (cyclically).  A diagram is written back by
emitting the unders in cyclic order, each followed by the over passages of
its gap (:func:`model._gaps`); inside one gap overs are ordered by their
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
    _canonical_encoding,
    _code_packed,
    _gaps,
    _wgd_from_encoding,
    _wgd_packed,
)


def gauss_to_wgd(code: GaussCode) -> WeldedGaussDiagram:
    """Welded Gauss diagram of a code, in canonical form."""
    require_valid_code(code)
    return _wgd_from_encoding(_canonical_encoding(_code_packed(code)))


def wgd_to_gauss(w: WeldedGaussDiagram) -> GaussCode:
    """Deterministic Gauss code realizing w.

    Round-trip contract: ``gauss_to_wgd(wgd_to_gauss(w)) == canonical_wgd(w)``.
    """
    require_valid_wgd(w)
    passages: list[Passage] = []
    for c, gap in zip(w.order, _gaps(_wgd_packed(w))):
        passages.append(Passage(UNDER, c, w.sign[c]))
        passages.extend(Passage(OVER, w.order[d], w.sign[w.order[d]]) for d in gap)
    return GaussCode(tuple(passages))


def wgd_to_gauss_diagram(w: WeldedGaussDiagram) -> GaussDiagram:
    """Classical Gauss-diagram presentation of w.

    One base point per label in cyclic order; after the base point of c,
    one extra point per crossing whose head is c (ordered by label); one
    arrow per crossing from its extra point to its base point.
    """
    require_valid_wgd(w)
    points: list[tuple[str, int]] = []
    for c, gap in zip(w.order, _gaps(_wgd_packed(w))):
        points.append((UNDER, c))
        points.extend((OVER, d) for d in sorted(w.order[i] for i in gap))
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
    if not isinstance(gd, GaussDiagram):
        raise DomainError(f"expected a GaussDiagram, got {type(gd).__name__}")
    passage_at: dict = {}
    try:
        for label, arrow in enumerate(gd.arrows, start=1):
            if not (isinstance(arrow, tuple) and len(arrow) == 3):
                raise DomainError(f"an arrow is a (tail, head, sign) triple, got {arrow!r}")
            tail, head, sign = arrow
            passage_at[tail] = Passage(OVER, label, sign)
            passage_at[head] = Passage(UNDER, label, sign)
        if len(passage_at) != 2 * len(gd.arrows):
            raise DomainError("arrows must be disjoint on endpoints")
        if not all(pt in passage_at for pt in gd.points):
            raise DomainError("every point must be an endpoint of an arrow")
        passages = tuple(passage_at[pt] for pt in gd.points)
    except TypeError as e:  # points or arrows that are not iterable, or an unhashable point
        raise DomainError(f"malformed Gauss diagram: {e}") from e
    return gauss_to_wgd(GaussCode(passages))
