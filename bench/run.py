"""Benchmark of the weldedknots engine.

    python3 bench/run.py --workload atlas|equiv|census --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one closed-loop client, no threads.

With ``--trace 0`` the run sets up, then runs its list of operations back
to back in whole passes for ``--seconds`` seconds and reports the
end-to-end metrics named in ``BENCHMARK.json``, from each item's median
time over the passes, scaled to a reference speed of the machine (see
``speed.py``); the same figures in wall time go in the ``meta`` line.
With ``--trace 1`` it runs one pass over the list twice, untraced and
then with every listed public function wrapped, and reports the
per-layer metrics; the spans are written to ``.bench_out/``.  Every
output is checked either way.

The last line of standard output is the result object; the lines before it
give the run's environment and every failed operation.  Each run also
appends a record to ``.bench_out/results.jsonl``, which ``compare.py``
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedTrack

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import weldedknots"


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import weldedknots
        import weldedknots.cli
    except ImportError as e:
        sys.exit(f"cannot import weldedknots from {SRC}: {e}")
    if not Path(weldedknots.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"weldedknots was imported from {weldedknots.__file__}, not from {SRC}")
    return weldedknots


def fresh_import() -> None:
    """Import the package in a new interpreter."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                   capture_output=True, timeout=120, check=True)


def set_up(workload):
    """Import, input generation and warm-up, repeated; the inputs of every
    repeat must be equal, since they come from one seed.  Returns the
    inputs and the median set-up time, scaled and wall."""
    spans, inputs = [], None
    with SpeedTrack() as track:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fresh_import()
            items = workload.generate()
            workload.warm_up()
            spans.append((t0, time.perf_counter()))
            if inputs is not None and items != inputs:
                sys.exit("the same seed generated different inputs")
            inputs = items
    scaled = statistics.median(track.clock(t1) - track.clock(t0) for t0, t1 in spans)
    wall = statistics.median(track.wall_clock(t1) - track.wall_clock(t0) for t0, t1 in spans)
    return inputs, scaled, wall


def run_ops(workload, items, check=True):
    """Run one operation per item, in order.

    Returns (result, start, end) per operation, where the result is the
    operation's checked ``Outcome``, or with ``check`` off the pair (item,
    output or exception) for checking later.  Checks run outside the timed
    call, and checked outputs are dropped, so memory does not grow with
    the number of operations.
    """
    done = []
    for item in items:
        t0 = time.perf_counter()
        try:
            output = workload.run(item)
        except Exception as e:  # a failed operation is counted, not fatal
            output = e
        t1 = time.perf_counter()
        done.append((workload.check(item, output) if check else (item, output), t0, t1))
    return done


def run_passes(workload, items, seconds: int):
    """Whole passes over the items for ``seconds``: the first pass always
    runs, another starts only if it fits.

    Returns the outcomes of every operation, the number of passes, each
    item's median time over the passes, scaled to the reference speed (see
    ``speed.py``) and wall, and the run's median speed factor.
    """
    outcomes, spans, passes = [], [], 0
    with SpeedTrack() as track:
        start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            for i, (outcome, t0, t1) in enumerate(run_ops(workload, items)):
                outcomes.append(outcome)
                spans.append((i, t0, t1))
            passes += 1
            now = time.perf_counter()
            if (now - start) + (now - t_pass) > seconds:
                break
    scaled, wall = [[] for _ in items], [[] for _ in items]
    for i, t0, t1 in spans:
        scaled[i].append(track.clock(t1) - track.clock(t0))
        wall[i].append(track.wall_clock(t1) - track.wall_clock(t0))
    return (outcomes, passes, [statistics.median(t) for t in scaled],
            [statistics.median(t) for t in wall], track.factor())


def summarize(outcomes):
    return {
        "units": sum(o.units for o in outcomes),
        "raised": sum(o.raised for o in outcomes),
        "wrong": sum(o.wrong for o in outcomes),
        "decided": sum(o.decided for o in outcomes),
        # a failing item fails alike in every pass; list it once
        "failures": list(dict.fromkeys(f for o in outcomes for f in o.failures)),
    }


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timings(units_per_pass: float, setup_s: float, times: list[float]) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": units_per_pass / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_p90_ms": percentile_90(times) * 1000,
    }


def end_to_end(workload, items, setup: tuple[float, float], seconds: int):
    outcomes, passes, scaled, wall, speed = run_passes(workload, items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = summarize(outcomes)
    units = summary["units"]
    metrics = {
        **timings(units / passes, setup[0], scaled),
        "ok_ratio": 1 - (summary["raised"] + summary["wrong"]) / units,
        "decided_ratio": summary["decided"] / units,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"operations": len(outcomes), "passes": passes, "speed_factor": speed,
             "wall": timings(units / passes, setup[1], wall)}
    return summary, metrics, extra


def traced(workload, items, wk, functions: list[str], seed: int):
    from tracer import Tracer

    t0 = time.perf_counter()
    run_ops(workload, items, check=False)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer(wk, functions)
    tracer.install()
    try:
        t0 = time.perf_counter()
        done = run_ops(workload, items, check=False)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    summary = summarize([workload.check(item, output) for (item, output), *_ in done])
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    tracer.save(OUT / f"spans-{workload.name}-{seed}.npz")
    return summary, metrics, {"operations": len(done), "untraced_s": untraced_s, "traced_s": traced_s}


def git_commit() -> str:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wk = import_package()
    import numpy

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](wk, args.seed, OUT)
    items, *setup = set_up(workload)

    if args.trace:
        wanted = spec["per_layer"]
        functions = [m["name"].removesuffix(".calls") for m in wanted if m["name"].endswith(".calls")]
        summary, values, extra = traced(workload, items, wk, functions, args.seed)
    else:
        wanted = spec["end_to_end"]
        summary, values, extra = end_to_end(workload, items, setup, args.seconds)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), **extra,
    }
    result = {
        "correct": summary["wrong"] == 0,
        "attempted": summary["units"],
        "failed": summary["raised"] + summary["wrong"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, "result": result, "failures": summary["failures"]}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"failures": summary["failures"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
