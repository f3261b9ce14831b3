"""Span tracer that wraps public functions of the weldedknots modules.

Every wrapped call records one span (function, parent span, start, end) in
memory; generators record one span per resume, so the consumer's work
between resumes is not charged to the generator.  Self time is a span's
duration minus the durations of its child spans, computed once the run is
over.  A function is wrapped at every module attribute that holds it, so a
call is traced under whichever name the caller looked up
(``weldedknots.search.wgd_neighbors`` and ``weldedknots.moves.wgd_neighbors``
are one function, counted once per call).

Besides calls, errors raised and self time, a few functions feed work
counters:

* ``moves.wgd_neighbors`` and ``moves.wgd_neighbors_iter``: neighbours
  generated (raw), within the crossing cap, and unique after deduplication;
* calls to ``wgd_neighbors`` made through the search module's name are
  search expansions; an expansion repeats when the same state was already
  expanded with the same cap, kinds and growth setting in this run;
* ``search.are_equivalent``: states explored and Unknown answers;
* ``search.derive_path``: move records returned;
* ``search.build_atlas``: classes and capped records.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "convert", "moves", "symmetry", "invariants", "search", "cli")

COUNTERS = (
    "moves.neighbors_raw",
    "moves.neighbors_in_cap",
    "moves.neighbors_unique",
    "search.expansions",
    "search.expansions_repeated",
    "search.are_equivalent.states_explored",
    "search.are_equivalent.unknown",
    "search.path_records",
    "search.atlas_classes",
    "search.atlas_capped",
)


class Tracer:
    def __init__(self, package, functions: list[str]):
        """``functions`` are ``<layer>.<name>`` of the functions to wrap."""
        self.package = package
        self.names = list(functions)
        self.calls = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._fid = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._caps: list = []
        self._expanded: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        modules = self._modules()
        for fid, qualified in enumerate(self.names):
            layer, name = qualified.split(".", 1)
            module = sys.modules.get(f"{self.package.__name__}.{layer}")
            original = getattr(module, name, None)
            if not inspect.isfunction(original):
                continue  # absent at this commit: reported as zero calls
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        wrapper = self._wrap(fid, original, via=holder.__name__.rsplit(".", 1)[-1])
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _open(self, fid: int) -> int:
        i = len(self._fid)
        self._fid.append(fid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fid: int, f, via: str):
        qualified = self.names[fid]
        if inspect.isgeneratorfunction(f):
            return self._wrap_generator(fid, f, counting=qualified == "moves.wgd_neighbors_iter")
        hook = {
            "moves.wgd_neighbors": self._after_neighbors,
            "search.are_equivalent": self._after_equivalence,
            "search.derive_path": self._after_path,
            "search.build_atlas": self._after_atlas,
        }.get(qualified)
        calls, errors = self.calls, self.errors
        is_neighbors = qualified == "moves.wgd_neighbors"
        signature = inspect.signature(f) if is_neighbors else None

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if is_neighbors:
                self._before_neighbors(signature, via, args, kwargs)
            i = self._open(fid)
            try:
                result = f(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                self._close(i)
                if is_neighbors:
                    self._caps.pop()
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = f
        return wrapper

    def _wrap_generator(self, fid: int, f, counting: bool):
        calls, errors, counters = self.calls, self.errors, self.counters

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            gen = f(*args, **kwargs)
            cap = self._caps[-1] if self._caps else None
            while True:
                i = self._open(fid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    errors[fid] += 1
                    raise
                finally:
                    self._close(i)
                if counting:
                    counters["moves.neighbors_raw"] += 1
                    if cap is None or item.n <= cap:
                        counters["moves.neighbors_in_cap"] += 1
                yield item

        wrapper.__wrapped__ = f
        return wrapper

    # -- counters ----------------------------------------------------------

    def _before_neighbors(self, signature, via: str, args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        cap = a.get("max_crossings")
        self._caps.append(cap)
        if via == "search":
            # search passes canonical states, so the structural key identifies the state
            state = next(iter(a.values()))
            kinds = a.get("kinds")
            key = (state.key(), None if kinds is None else frozenset(kinds), a.get("growth_allowed"), cap)
            self.counters["search.expansions"] += 1
            if key in self._expanded:
                self.counters["search.expansions_repeated"] += 1
            self._expanded.add(key)

    def _after_neighbors(self, result) -> None:
        self.counters["moves.neighbors_unique"] += len(result)

    def _after_equivalence(self, outcome) -> None:
        self.counters["search.are_equivalent.states_explored"] += outcome.states_explored
        if not outcome.equivalent:
            self.counters["search.are_equivalent.unknown"] += 1

    def _after_path(self, records) -> None:
        self.counters["search.path_records"] += len(records)

    def _after_atlas(self, records) -> None:
        self.counters["search.atlas_classes"] += len({r.class_id for r in records})
        self.counters["search.atlas_capped"] += sum(1 for r in records if r.capped)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self._fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Self seconds per wrapped function."""
        s = self.spans()
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        children = np.bincount(s["parent"][has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        own = duration - children
        return np.bincount(s["fid"], weights=own, minlength=len(self.names))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        self_s = self.self_times()
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for fid, qualified in enumerate(self.names):
            out[f"{qualified}.calls"] = self.calls[fid]
            out[f"{qualified}.errors"] = self.errors[fid]
            out[f"{qualified}.self_s"] = float(self_s[fid])
            layer_s[qualified.split(".", 1)[0]] += float(self_s[fid])
        for layer, seconds in layer_s.items():
            out[f"{layer}.self_s"] = seconds
        out.update(self.counters)
        c = self.counters
        out["moves.neighbors_useful_ratio"] = (
            c["moves.neighbors_unique"] / c["moves.neighbors_raw"] if c["moves.neighbors_raw"] else 0.0)
        out["moves.neighbors_above_cap_ratio"] = (
            1 - c["moves.neighbors_in_cap"] / c["moves.neighbors_raw"] if c["moves.neighbors_raw"] else 0.0)
        out["search.expansion_repeat_ratio"] = (
            c["search.expansions_repeated"] / c["search.expansions"] if c["search.expansions"] else 0.0)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
