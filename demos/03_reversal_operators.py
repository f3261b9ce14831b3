"""
Reversal operators
==================

Three involutions act on diagrams: orientation reversal, sign reversal,
and their composition, the global reversal.  Each takes a code or a
diagram: sign reversal flips every passage's sign of a code in place, and
on a diagram every operator returns the canonical form of the image.  The
two reversals commute, and the one-move neighborhood of a diagram is
carried onto the neighborhood of its global reversal.
"""

from weldedknots import (
    bar,
    canonical_wgd,
    decode_gauss_code,
    encode_gauss_code,
    encode_wgd,
    gauss_to_wgd,
    global_reversal,
    reverse,
    wgd_neighbors,
)

trefoil = decode_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
w = gauss_to_wgd(trefoil)

# %% orientation reversal reads the code backwards
print("reverse:", encode_gauss_code(reverse(trefoil)))

# %% sign reversal flips every sign and nothing else
print("bar:    ", encode_gauss_code(bar(trefoil)))
print("bar on the diagram:", encode_wgd(bar(w)))

# %% both compositions of the two reversals agree
g = global_reversal(w)
print("global reversal:", encode_wgd(g))
print("reverse then bar:", bar(reverse(w)) == g)
print("bar then reverse:", reverse(bar(w)) == g)
print("involution:", global_reversal(g) == canonical_wgd(w))

# %% global reversal maps one-move neighborhoods onto one-move neighborhoods
neighbors = wgd_neighbors(w, max_crossings=4)
image = {global_reversal(nb) for nb in neighbors}
print("neighbors:", len(neighbors), "| image equals the reversal's neighbors:",
      image == wgd_neighbors(g, max_crossings=4))
