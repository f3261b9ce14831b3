"""
Equivalence search and the small atlas
======================================

Welded knots are diagrams up to the rewriting moves, so equivalence is
reachability in the move graph.  Searches are budgeted: a positive answer
comes with a replayable move path, a negative answer is only ever
"unknown".  The atlas needs no budget: it enumerates every diagram up to
a crossing cap, takes the connected components of the move graph on them
as classes, and pairs each class with the class of its global reversal.
"""

from collections import Counter

from weldedknots import (
    SearchBudget,
    WeldedGaussDiagram,
    are_equivalent,
    build_atlas,
    decode_gauss_code,
    encode_gauss_code,
    encode_wgd,
    fingerprint,
    gauss_to_wgd,
    replay,
    simplify,
    wgd_to_gauss,
)

EMPTY = WeldedGaussDiagram((), {}, {})

# %% a tangled unknot: the 2-crossing diagram that the over-commute unties
tangled = gauss_to_wgd(decode_gauss_code("U1+ U2+ O1+ O2+"))
print("tangled:", encode_wgd(tangled))
outcome = are_equivalent(tangled, EMPTY, SearchBudget(max_crossings=4, max_states=2000, max_depth=10))
print("equivalent to the trivial diagram:", outcome.equivalent)
print("move path:", [r.kind.value for r in outcome.path])

# %% the path replays on the actual code
final = replay(wgd_to_gauss(tangled), outcome.path)
print("replayed end state:", repr(encode_gauss_code(final)), "->", encode_wgd(gauss_to_wgd(final)))

# %% the trefoil does not untie within budget, and an invariant explains why
trefoil = gauss_to_wgd(decode_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+"))
outcome = are_equivalent(trefoil, EMPTY, SearchBudget(max_crossings=5, max_states=400, max_depth=8))
print("trefoil vs trivial:", "equivalent" if outcome.equivalent else f"unknown ({outcome.reason})")
print("fingerprints:", dict(fingerprint(trefoil).coloring_counts), "vs", dict(fingerprint(EMPTY).coloring_counts))

# %% simplification walks downhill in crossing count
print("simplify(tangled):", encode_wgd(simplify(tangled, SearchBudget(max_crossings=4))))
print("simplify(trefoil):", encode_wgd(simplify(trefoil, SearchBudget(max_crossings=5, max_states=200, max_depth=6))))

# %% the atlas of everything up to two crossings, classified within four
records = build_atlas(2, max_crossings=4)
print(f"atlas: {len(records)} diagrams, {len({r.class_id for r in records})} class(es)")
print("class sizes:", dict(Counter(r.class_id for r in records)))

# %% orbit ids pair each class with the class of its global reversal
orbits = sorted({(r.class_id, r.orbit_id) for r in records})
print("class -> orbit:", orbits)
