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

from functools import singledispatch

from .model import (
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


@singledispatch
def reverse(x):
    """Reverse the traversal orientation; roles and signs are preserved."""
    raise TypeError(f"cannot reverse {type(x).__name__}")


@reverse.register
def _(code: GaussCode) -> GaussCode:
    require_valid_code(code)
    return GaussCode(tuple(reversed(code.passages)))


@reverse.register
def _(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    return _reversed_wgd(w, flip_signs=False)


def _reversed_wgd(w: WeldedGaussDiagram, flip_signs: bool) -> WeldedGaussDiagram:
    """Canonical form of the orientation reversal of ``w``, and of its
    global reversal with ``flip_signs``, reversed on its packed encoding."""
    require_valid_wgd(w)
    return _wgd_from_encoding(_canonical_image(_wgd_packed(w), _GLOB if flip_signs else _REV))


def bar(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    """Flip every sign; order and head map are untouched."""
    require_valid_wgd(w)
    return WeldedGaussDiagram(w.order, w.head, {c: -s for c, s in w.sign.items()})


def bar_code(code: GaussCode) -> GaussCode:
    """Sign reversal on a code: every passage keeps its role and position,
    its sign flips.  Contract: gauss_to_wgd(bar_code(c)) == bar(gauss_to_wgd(c))."""
    require_valid_code(code)
    return GaussCode(tuple(Passage(p.role, p.crossing, -p.sign) for p in code.passages))


@singledispatch
def global_reversal(x):
    """Simultaneous orientation and sign reversal."""
    raise TypeError(f"cannot globally reverse {type(x).__name__}")


@global_reversal.register
def _(code: GaussCode) -> GaussCode:
    return bar_code(reverse(code))


@global_reversal.register
def _(w: WeldedGaussDiagram) -> WeldedGaussDiagram:
    return _reversed_wgd(w, flip_signs=True)
