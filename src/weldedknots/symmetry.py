"""
Reversal operators: orientation reversal, sign reversal, and their
composition (global reversal), the elements rev, bar and glob of the
reversal group G = {id, bar, rev, glob} (see :mod:`weldedknots.model`).

Each operator takes a code or a diagram, and G acts by one rule per
representation.  A code is read backwards for rev and glob, and every
passage keeps its role and flips its sign for bar and glob.  A diagram is
acted on through its packed encoding (:func:`model._canonical_image`), and
the result is its canonical form.  The virtual detours that realize sign
reversal on a planar picture vanish in the detour-quotiented
representation, which is what makes the two rules agree: converting the
image of a code gives the image of its diagram.

All three operators are involutions at canonical-form level, and
orientation reversal commutes with sign reversal.
"""

from __future__ import annotations

from .model import (
    DomainError,
    GaussCode,
    Passage,
    WeldedGaussDiagram,
    require_valid_code,
    require_valid_wgd,
    _BAR,
    _GLOB,
    _REV,
    _canonical_image,
    _wgd_from_encoding,
    _wgd_packed,
)


def _act(x, g: int):
    """The image of the code or diagram ``x`` under the element g of G: a
    code as it stands, a diagram in canonical form."""
    if isinstance(x, GaussCode):
        require_valid_code(x)
        passages = x.passages[::-1] if g & _REV else x.passages
        if g & _BAR:
            passages = (Passage(p.role, p.crossing, -p.sign) for p in passages)
        return GaussCode(tuple(passages))
    if isinstance(x, WeldedGaussDiagram):
        require_valid_wgd(x)
        return _wgd_from_encoding(_canonical_image(_wgd_packed(x), g))
    raise DomainError(f"expected a GaussCode or a WeldedGaussDiagram, got {type(x).__name__}")


def reverse(x):
    """Reverse the traversal orientation of a code or a diagram; roles and
    signs are preserved."""
    return _act(x, _REV)


def bar(x):
    """Flip every sign of a code or a diagram."""
    return _act(x, _BAR)


def global_reversal(x):
    """Simultaneous orientation and sign reversal of a code or a diagram."""
    return _act(x, _GLOB)
