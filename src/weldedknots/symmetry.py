"""
Reversal operators: orientation reversal, sign reversal, and their
composition (global reversal).

Sign reversal is defined at the welded-Gauss-diagram level as flipping
every sign; on codes it keeps every passage's role and position and flips
its sign.  The virtual detours that realize this on a planar picture
vanish in the detour-quotiented representation, which is what makes the
two descriptions agree: converting a sign-flipped code gives exactly the
sign-flipped diagram.

All three operators are involutions at canonical-form level, and
orientation reversal commutes with sign reversal.  On a diagram,
orientation and global reversal act on its packed encoding
(:func:`model._canonical_image`) and return canonical forms.
"""

from __future__ import annotations

from .model import (
    DomainError,
    GaussCode,
    Passage,
    WeldedGaussDiagram,
    require_valid_code,
    require_valid_wgd,
    _GLOB,
    _REV,
    _canonical_image,
    _wgd_from_encoding,
    _wgd_packed,
)


def reverse(x):
    """Reverse the traversal orientation of a code or a diagram; roles and
    signs are preserved."""
    if isinstance(x, GaussCode):
        require_valid_code(x)
        return GaussCode(tuple(reversed(x.passages)))
    return _reversed_wgd(x, _REV)


def _reversed_wgd(w: WeldedGaussDiagram, g: int) -> WeldedGaussDiagram:
    """Canonical form of the image of the diagram ``w`` under the element g
    of the reversal group (see :mod:`weldedknots.model`), reversed on its
    packed encoding."""
    if not isinstance(w, WeldedGaussDiagram):
        raise DomainError(f"expected a GaussCode or a WeldedGaussDiagram, got {type(w).__name__}")
    require_valid_wgd(w)
    return _wgd_from_encoding(_canonical_image(_wgd_packed(w), g))


def bar(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    """Flip every sign; order and head map are untouched."""
    require_valid_wgd(w)
    return WeldedGaussDiagram(w.order, w.head, {c: -s for c, s in w.sign.items()})


def bar_code(code: GaussCode) -> GaussCode:
    """Sign reversal on a code: every passage keeps its role and position,
    its sign flips.  Contract: gauss_to_wgd(bar_code(c)) == bar(gauss_to_wgd(c))."""
    require_valid_code(code)
    return GaussCode(tuple(Passage(p.role, p.crossing, -p.sign) for p in code.passages))


def global_reversal(x):
    """Simultaneous orientation and sign reversal of a code or a diagram."""
    if isinstance(x, GaussCode):
        return bar_code(reverse(x))
    return _reversed_wgd(x, _GLOB)
