"""
Acceptance suite: each test exercises one exit criterion at its stated
size and time budget and prints a single PASS line (pytest stops at the
first failing assert, so a printed line means the criterion held).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

from weldedknots import (
    GROWTH_KINDS,
    GaussCode,
    MoveKind,
    SearchBudget,
    WeldedGaussDiagram,
    apply_move,
    bar,
    build_atlas,
    canonical_wgd,
    coloring_count,
    decode_gauss_code,
    decode_wgd,
    enumerate_canonical_wgds,
    enumerate_sites,
    gauss_to_wgd,
    global_reversal,
    hom_count,
    oc_class,
    reverse,
    simplify,
    symmetric_group_3,
    wgd_neighbors_iter,
    wgd_to_gauss,
)
from weldedknots.model import OVER, UNDER, Passage

from conftest import TREFOIL_TEXT, coloring_count_bruteforce, random_code, random_wgd

EMPTY = WeldedGaussDiagram((), {}, {})
TREFOIL = decode_gauss_code(TREFOIL_TEXT)


def report(name: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.time() - started
    print(f"PASS {name}: {detail} [{elapsed:.1f}s < {limit:.0f}s]")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_1_round_trip_bijection():
    started = time.time()
    rng = random.Random(101)
    seeds = enumerate_canonical_wgds(4)
    for w in seeds:
        assert gauss_to_wgd(wgd_to_gauss(w)) == w
    for _ in range(10_000):
        w = random_wgd(rng, rng.randint(0, 8))
        assert gauss_to_wgd(wgd_to_gauss(w)) == canonical_wgd(w)
    report(
        "criterion 1 (round-trip bijection)",
        started,
        10,
        f"exhaustive on {len(seeds)} canonical diagrams with n <= 4 plus 10000 random with n <= 8",
    )


def test_criterion_2_oc_transparency():
    started = time.time()
    rng = random.Random(102)
    sites_checked = 0
    for _ in range(500):
        code = random_code(rng, rng.randint(0, 8))
        w = gauss_to_wgd(code)
        for site in enumerate_sites(code, kinds={MoveKind.OC}):
            new_code, _ = apply_move(code, site)
            assert gauss_to_wgd(new_code) == w
            sites_checked += 1
    report(
        "criterion 2 (over-commute transparency)",
        started,
        5,
        f"500 random codes, {sites_checked} commute sites, diagram unchanged every time",
    )


def test_criterion_3_move_engine_soundness():
    started = time.time()
    rng = random.Random(103)
    s3 = symmetric_group_3()

    def profile(code):
        return (
            coloring_count(code, 3),
            coloring_count(code, 5),
            hom_count(code, s3),
        )

    steps_taken = 0
    for _ in range(1000):
        code = random_code(rng, rng.randint(0, 6))
        base = profile(code)
        for _ in range(rng.randint(1, 20)):
            # walk policy: shrink-biased, growth stops once the diagram has
            # grown to 8 crossings, so path length stays the only free knob
            sites = enumerate_sites(code, growth_allowed=code.n < 8)
            shrink = [s for s in sites if s.kind not in GROWTH_KINDS]
            pool = shrink if shrink and rng.random() < 0.7 else sites
            code, _ = apply_move(code, pool[rng.randrange(len(pool))])
            assert profile(code) == base
            steps_taken += 1
    report(
        "criterion 3 (move-engine soundness)",
        started,
        60,
        f"colorings at p=3,5 and S3 homomorphism counts constant along 1000 paths ({steps_taken} moves)",
    )


def test_criterion_4_involutions_and_commutation():
    started = time.time()
    rng = random.Random(104)
    for _ in range(1000):
        w = canonical_wgd(random_wgd(rng, rng.randint(0, 8)))
        assert reverse(reverse(w)) == w
        assert bar(bar(w)) == w
        assert global_reversal(global_reversal(w)) == w
        assert canonical_wgd(reverse(bar(w))) == canonical_wgd(bar(reverse(w)))
    report(
        "criterion 4 (involutions and commutation)",
        started,
        5,
        "reverse, bar and global reversal are involutions and commute on 1000 random diagrams",
    )


def test_criterion_5_bar_contract():
    started = time.time()
    rng = random.Random(105)
    for _ in range(1000):
        code = random_code(rng, rng.randint(0, 8))
        assert gauss_to_wgd(bar(code)) == bar(gauss_to_wgd(code))
    report(
        "criterion 5 (sign-reversal contract)",
        started,
        5,
        "code-level and diagram-level sign reversal agree on 1000 random codes",
    )


def test_criterion_6_global_reversal_move_equivariance():
    started = time.time()
    rng = random.Random(106)
    for _ in range(500):
        w = canonical_wgd(random_wgd(rng, rng.randint(0, 5)))
        # sample one neighbor: a random site of a random commute variant
        variants = list(oc_class(wgd_to_gauss(w)))
        variant = variants[rng.randrange(len(variants))]
        sites = enumerate_sites(variant)
        kinds_present = sorted({s.kind for s in sites}, key=lambda k: k.value)
        kind = kinds_present[rng.randrange(len(kinds_present))]
        of_kind = [s for s in sites if s.kind == kind]
        new_code, _ = apply_move(variant, of_kind[rng.randrange(len(of_kind))])
        neighbor = gauss_to_wgd(new_code)
        # reversal conjugation preserves the move kind, so membership in the
        # kind-restricted neighbor set witnesses membership in the full set
        target = canonical_wgd(global_reversal(neighbor))
        g = global_reversal(w)
        assert any(nb == target for nb in wgd_neighbors_iter(g, kinds={kind}))
    report(
        "criterion 6 (global-reversal move-equivariance)",
        started,
        30,
        "global reversal of a neighbor is a neighbor of the global reversal, 500 sampled pairs",
    )


def _canonical_code(code: GaussCode) -> GaussCode:
    """The least rotation of ``code`` with its labels renamed 1..n by first
    under passage: one representative per rotation/relabeling orbit."""
    candidates = []
    for k in range(len(code)):
        rotated = code.passages[k:] + code.passages[:k]
        rename = {}
        for p in rotated:
            if p.role == UNDER:
                rename.setdefault(p.crossing, len(rename) + 1)
        candidates.append(tuple(Passage(p.role, rename[p.crossing], p.sign) for p in rotated))
    return GaussCode(min(candidates, default=code.passages))


def _all_codes_up_to_symmetry(n: int):
    """Every Gauss code with n crossings, one representative per
    rotation/relabeling orbit."""
    if n == 0:
        yield GaussCode()
        return
    positions = list(range(2 * n))

    def pairings(rest):
        if not rest:
            yield []
            return
        first, others = rest[0], rest[1:]
        for i, second in enumerate(others):
            for tail in pairings(others[:i] + others[i + 1:]):
                yield [(first, second)] + tail

    seen = set()
    for pairing in pairings(positions):
        for roles in itertools.product((0, 1), repeat=n):
            for signs in itertools.product((1, -1), repeat=n):
                passages = [None] * (2 * n)
                for label, ((a, b), role_bit, s) in enumerate(zip(pairing, roles, signs), start=1):
                    first_role, second_role = (OVER, UNDER) if role_bit else (UNDER, OVER)
                    passages[a] = Passage(first_role, label, s)
                    passages[b] = Passage(second_role, label, s)
                code = _canonical_code(GaussCode(tuple(passages)))
                if code.passages not in seen:
                    seen.add(code.passages)
                    yield code


def test_criterion_7_coloring_oracle_agreement():
    started = time.time()
    total = 0
    for n in range(5):
        for code in _all_codes_up_to_symmetry(n):
            for p in (3, 5, 7):
                assert coloring_count(code, p) == coloring_count_bruteforce(code, p)
            total += 1
    assert total == 3569
    assert coloring_count(TREFOIL, 3) == 9
    assert coloring_count(TREFOIL, 5) == 5
    assert coloring_count(GaussCode(), 3) == 3
    report(
        "criterion 7 (coloring oracle agreement)",
        started,
        30,
        f"nullspace count equals brute-force enumeration on all {total} codes with n <= 4 at p = 3, 5, 7",
    )


def test_criterion_8_scramble_and_recover():
    started = time.time()
    rng = random.Random(108)
    for _ in range(100):
        code = GaussCode()
        for _ in range(rng.randint(1, 4)):
            kinds = GROWTH_KINDS if code.n <= 2 else {MoveKind.R1_INSERT}
            sites = enumerate_sites(code, kinds=kinds)
            code, _ = apply_move(code, sites[rng.randrange(len(sites))])
            if code.n >= 4:
                break
        w = gauss_to_wgd(code)
        budget = SearchBudget(max_crossings=w.n + 2, max_states=4000, max_depth=12)
        assert simplify(w, budget) == EMPTY, f"failed to untangle {code}"
    report(
        "criterion 8 (scramble and recover)",
        started,
        120,
        "100 diagrams scrambled by up to 4 growth moves all simplify back to the trivial diagram",
    )


def test_criterion_9_atlas_sanity():
    started = time.time()
    records_1 = build_atlas(1, max_crossings=3)
    assert {r.class_id for r in records_1} == {0}

    records_3 = build_atlas(3, max_crossings=5)
    p3_by_class: dict[int, int] = {}
    for r in records_3:
        p3_by_class[r.class_id] = dict(r.fingerprint.coloring_counts)[3]
    values = set(p3_by_class.values())
    assert len(p3_by_class) >= 2
    assert {3, 9} <= values
    assert len(p3_by_class) == 4
    class_of = {r.wgd: r.class_id for r in records_3}
    first, second = (
        canonical_wgd(decode_wgd(text))
        for text in (
            '{"order":[1,2,3],"map":{"1":[2,"-"],"2":[3,"-"],"3":[1,"+"]}}',
            '{"order":[1,2,3],"map":{"1":[2,"-"],"2":[3,"+"],"3":[1,"+"]}}',
        )
    )
    assert class_of[first] == class_of[second]

    rerun = build_atlas(3, max_crossings=5)
    assert rerun == records_3
    report(
        "criterion 9 (atlas sanity)",
        started,
        600,
        f"n<=1 atlas is a single trivial class; n<=3 atlas has {len(p3_by_class)} classes "
        f"with p=3 counts {sorted(values)}; identical across re-runs",
    )
