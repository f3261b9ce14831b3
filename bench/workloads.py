"""The three workloads: inputs made from a seed, one operation, its check.

Each workload calls the package through attribute lookups on the package
object at call time, so the tracer's wrappers see every call.

An operation returns its output; ``check`` turns (item, output or
exception) into an ``Outcome`` counted in units: a query or a diagram for
``equiv`` and ``census``, a classified seed diagram for ``atlas``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Outcome:
    """``raised`` units ended in an exception or an error exit; ``wrong``
    units returned an output that failed its check."""

    units: int
    raised: int = 0
    wrong: int = 0
    decided: int = 0
    failures: list = field(default_factory=list)


class Atlas:
    """``weldedknots atlas`` at n<=3 with a crossing cap of 4, in-process.

    The input is fixed by the command line, so the seed changes nothing.
    The list holds the one command; every pass repeats the same work, which
    is what a CLI user pays per command as long as no cache outlives one
    ``main`` call.
    """

    name = "atlas"
    N_MAX = 3

    def __init__(self, wk, seed: int, scratch: Path):
        self.wk = wk
        self.out = scratch / "atlas.jsonl"
        self.argv = ["atlas", "--n-max", str(self.N_MAX), "--max-crossings", "4",
                     "--max-states", "300", "--max-depth", "8", "-o", str(self.out)]

    def generate(self):
        self.seeds = self.wk.enumerate_canonical_wgds(self.N_MAX)
        return [self.argv]

    def warm_up(self) -> None:
        argv = ["atlas", "--n-max", "1", "--max-crossings", "2", "-o", str(self.out)]
        with contextlib.redirect_stderr(io.StringIO()):
            if self.wk.cli.main(argv) != 0:
                raise RuntimeError("warm-up atlas command failed")

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.wk.cli.main(argv)
        return code, self.out.read_text(encoding="utf-8"), err.getvalue()

    def check(self, argv, output) -> Outcome:
        wk = self.wk
        units = len(self.seeds)
        if isinstance(output, BaseException):
            return Outcome(units, raised=units, failures=[f"{type(output).__name__}: {output}"])
        code, text, err = output
        if code != 0:
            return Outcome(units, raised=units, failures=[f"exit code {code}: {err.strip()}"])
        records = [json.loads(line) for line in text.splitlines()]
        by_key = {}
        for r in records:
            w = wk.model.wgd_from_obj(r["wgd"])
            by_key[wk.wgd_encoding(w)] = (w, r)
        failures = []
        expected = {wk.wgd_encoding(w) for w in self.seeds}
        wrong = len(expected ^ set(by_key)) + len(records) - len(by_key)
        if wrong:
            failures.append(f"{len(records)} records for {units} seeds, "
                            f"{len(expected - set(by_key))} seeds missing")
        classes = {}
        for w, r in by_key.values():
            classes.setdefault(r["class"], []).append((w, r))
        for cid, members in sorted(classes.items()):
            prints = {json.dumps(r["fingerprint"], sort_keys=True) for _, r in members}
            # (class of the reversal, same orbit) must be one pair for the whole class
            partners = set()
            for w, r in members:
                rev = by_key.get(wk.wgd_encoding(wk.global_reversal(w)))
                partners.add(None if rev is None else (rev[1]["class"], rev[1]["orbit"] == r["orbit"]))
            if len(prints) != 1:
                wrong += len(members)
                failures.append(f"class {cid} has {len(prints)} fingerprints")
            elif len(partners) != 1 or None in partners or not next(iter(partners))[1]:
                wrong += len(members)
                failures.append(f"class {cid}: global reversals land in {sorted(map(str, partners))}")
        capped = {line.split("classifying ", 1)[1] for line in err.splitlines()
                  if line.startswith("warning: resource cap hit")}
        return Outcome(units, wrong=min(units, wrong), decided=units - len(capped), failures=failures)


class Equiv:
    """Closed-loop stream of ``are_equivalent(a, b)`` queries on codes.

    ``a`` is a random code with at most 2 crossings; ``b`` is ``a`` after 3
    random non-OC moves (a kind drawn uniformly among the kinds with a
    site, then a site), growth allowed while the code has fewer than 3
    crossings.  Every pair is equivalent by construction.

    The pool of pairs comes from one fixed stream, and the seed shuffles it
    and presents every code with fresh labels and a rotated basepoint.  A
    seeded pool would not do: per-query cost has a coefficient of variation
    near 4 (most queries take milliseconds, a few explore over a thousand
    states for seconds), so a few hundred seeded queries vary by a third
    from seed to seed.  Every pass of a run replays the whole pool, so
    every run does the same search work.  120 pairs leave twelve queries
    beyond the 90th percentile and a pass short enough to repeat several
    times in a run.
    """

    name = "equiv"
    POOL = 120
    SCRAMBLE_MOVES = 3

    def __init__(self, wk, seed: int, scratch: Path):
        self.wk = wk
        self.seed = seed

    def _pair(self, rng: random.Random):
        wk = self.wk
        n = rng.randint(0, 2)
        passages = []
        for c in range(1, n + 1):
            s = rng.choice((1, -1))
            passages += [wk.Passage("O", c, s), wk.Passage("U", c, s)]
        rng.shuffle(passages)
        a = b = wk.GaussCode(tuple(passages))
        moves = wk.ALL_KINDS - {wk.MoveKind.OC}
        for _ in range(self.SCRAMBLE_MOVES):
            sites = wk.enumerate_sites(b, moves, growth_allowed=b.n < 3)
            kind = rng.choice(sorted({s.kind for s in sites}, key=lambda k: k.value))
            b, _ = wk.apply_move(b, rng.choice([s for s in sites if s.kind == kind]))
        return a, b

    def _present(self, code, rng: random.Random):
        """The same diagram under random labels and basepoint."""
        wk = self.wk
        labels = sorted(code.labels())
        fresh = dict(zip(labels, rng.sample(range(1, 100), len(labels))))
        passages = [wk.Passage(p.role, fresh[p.crossing], p.sign) for p in code.passages]
        k = rng.randrange(len(passages)) if passages else 0
        return wk.GaussCode(tuple(passages[k:] + passages[:k]))

    def generate(self):
        pool_rng = random.Random("equiv:pool")
        pairs = [self._pair(pool_rng) for _ in range(self.POOL)]
        rng = random.Random(f"equiv:{self.seed}")
        rng.shuffle(pairs)
        items = []
        for a, b in pairs:
            a, b = self._present(a, rng), self._present(b, rng)
            budget = self.wk.SearchBudget(max_crossings=max(a.n, b.n) + 1, max_states=2000, max_depth=10)
            items.append((a, b, budget))
        return items

    def warm_up(self) -> None:
        rng = random.Random("equiv:warm-up")
        for _ in range(5):
            a, b = self._pair(rng)
            self.run((a, b, self.wk.SearchBudget(max(a.n, b.n) + 1, 2000, 10)))

    def run(self, item):
        wk = self.wk
        a, b, budget = item
        return wk.are_equivalent(wk.gauss_to_wgd(a), wk.gauss_to_wgd(b), budget)

    def check(self, item, output) -> Outcome:
        wk = self.wk
        a, b, _ = item
        pair = f"{wk.encode_gauss_code(a) or '(trivial)'} ~ {wk.encode_gauss_code(b) or '(trivial)'}"
        if isinstance(output, BaseException):
            return Outcome(1, raised=1, failures=[f"{pair}: {type(output).__name__}: {output}"])
        if not output.equivalent:
            return Outcome(1)
        start = wk.wgd_to_gauss(wk.gauss_to_wgd(a))  # gauss_to_wgd is canonical
        try:
            end = wk.gauss_to_wgd(wk.replay(start, output.path))
        except wk.DomainError as e:
            return Outcome(1, wrong=1, failures=[f"{pair}: path does not replay: {e}"])
        if end != wk.gauss_to_wgd(b):
            return Outcome(1, wrong=1, failures=[f"{pair}: path ends at another diagram"])
        return Outcome(1, decided=1)


class Census:
    """Fingerprint and shrink-only neighbours of canonical diagrams.

    The list holds every diagram with at most 4 crossings and a seeded
    sample of 5-crossing ones, in seeded order; a pass visits each once."""

    name = "census"
    N_MAX = 4
    SAMPLE_N = 5
    SAMPLE_SIZE = 300
    PRIMES = (3, 5, 7)
    GROUPS = ("S3", "D4", "D5", "D6")

    def __init__(self, wk, seed: int, scratch: Path):
        self.wk = wk
        self.seed = seed
        self.groups = tuple(wk.builtin_group(g) for g in self.GROUPS)

    def _random_wgd(self, rng: random.Random, n: int):
        labels = range(1, n + 1)
        return self.wk.canonical_wgd(self.wk.WeldedGaussDiagram(
            labels, {c: rng.randint(1, n) for c in labels}, {c: rng.choice((1, -1)) for c in labels}))

    def generate(self):
        wk = self.wk
        rng = random.Random(f"census:{self.seed}")
        items = list(wk.enumerate_canonical_wgds(self.N_MAX))
        seen = set()
        while len(seen) < self.SAMPLE_SIZE:
            w = self._random_wgd(rng, self.SAMPLE_N)
            key = wk.wgd_encoding(w)
            if key not in seen:
                seen.add(key)
                items.append(w)
        rng.shuffle(items)
        return items

    def warm_up(self) -> None:
        rng = random.Random("census:warm-up")
        for n in range(self.SAMPLE_N + 1):
            self.run(self._random_wgd(rng, n))

    def run(self, w):
        wk = self.wk
        return (wk.fingerprint(w, primes=self.PRIMES, groups=self.groups),
                wk.wgd_neighbors(w, growth_allowed=False))

    def check(self, w, output) -> Outcome:
        wk = self.wk
        label = wk.encode_wgd(w)
        if isinstance(output, BaseException):
            return Outcome(1, raised=1, failures=[f"{label}: {type(output).__name__}: {output}"])
        fp, neighbors = output
        colorings, homs = dict(fp.coloring_counts), dict(fp.hom_counts)
        problems = []
        # S3 and D5 homomorphisms are the p-colourings plus the maps onto
        # rotations, so the two independent counts must agree
        if homs["S3"] != colorings[3] + 3:
            problems.append(f"hom_count(S3)={homs['S3']} but coloring_count(3)={colorings[3]}")
        if homs["D5"] != colorings[5] + 5:
            problems.append(f"hom_count(D5)={homs['D5']} but coloring_count(5)={colorings[5]}")
        for nb in neighbors:
            if nb.n not in (w.n - 2, w.n - 1, w.n):
                problems.append(f"shrink neighbour with {nb.n} crossings")
            elif wk.coloring_count(wk.wgd_to_gauss(nb), 3) != colorings[3]:
                problems.append(f"neighbour {wk.encode_wgd(nb)} changes the 3-colouring count")
        if problems:
            return Outcome(1, wrong=1, failures=[f"{label}: {p}" for p in problems])
        return Outcome(1, decided=1)


WORKLOADS = {w.name: w for w in (Atlas, Equiv, Census)}
