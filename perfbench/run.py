"""Run one benchmark workload and print its result as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {advise,ingest,serve} \\
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout the script sits
in. The run pins itself to one CPU, builds its set-up three times
(``setup_s`` is the median), measures for ``--seconds``, checks every
output it produced, and prints a ``perfbench-env`` line followed by the
result object as the last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps each layer's public calls in per-thread
timers (see ``probes.py``) and reports the per-layer metrics instead.
A failed operation or a failed check makes the result's ``correct``
false, and the run then exits with status 1.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import shutil
import statistics
import sys
from contextlib import nullcontext

from common import (ROOT, cycle_tail, environment, metric, p99_with_tail,
                    peak_rss_mb, pin_cpu, timed_setup)

WORKLOADS = ("advise", "ingest", "serve")


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _per_call_us(layer: dict) -> float:
    return layer["busy_s"] / layer["calls"] * 1e6 if layer["calls"] else 0.0


def layer_metrics(totals: dict, phase: dict) -> dict:
    """Every per-layer metric, per operation of the workload.

    A layer that does not run in this workload reads 0, which is the
    prediction for it.
    """
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def layer(key: str) -> dict:
        return totals.get(key, empty)

    ops = phase["attempted"] - phase["failed"]
    counters = phase.get("search_counters", {})
    splits = phase.get("splits") or []
    out = {
        "engine.estimate_calls": (_per_op(layer("engine")["calls"], ops),
                                  "count"),
        "engine.estimate_us": (_per_call_us(layer("engine")), "us"),
        "engine.busy_s": (_per_op(layer("engine")["busy_s"], ops), "s"),
        "physdesign.tune_calls": (
            _per_op(layer("physdesign")["calls"], ops), "count"),
        "physdesign.self_s": (
            _per_op(layer("physdesign")["self_s"], ops), "s"),
        "search.evaluations": (
            _per_op(counters.get("evaluations", 0), ops), "count"),
        "search.memo_hits": (
            _per_op(counters.get("memo_hits", 0), ops), "count"),
        "search.derived_costs": (
            _per_op(counters.get("derived", 0), ops), "count"),
        "search.self_s": (_per_op(layer("search")["self_s"], ops), "s"),
        "translate.calls": (_per_op(layer("translate")["calls"], ops),
                            "count"),
        "translate.busy_s": (_per_op(layer("translate")["busy_s"], ops),
                             "s"),
        "translate.miss_us": (_per_call_us(layer("translate")), "us"),
        "datasets.busy_s": (_per_op(layer("datasets")["self_s"], ops), "s"),
        "mapping.shred_s": (_per_op(layer("mapping")["self_s"], ops), "s"),
        "backends.insert_s": (
            _per_op(layer("backends.load")["self_s"], ops), "s"),
        "backends.ddl_s": (_per_op(layer("backends.ddl")["busy_s"], ops),
                           "s"),
        "backends.commits": (
            _per_op(layer("backends.commit")["calls"], ops), "count"),
        "backends.execute_us": (_per_call_us(layer("backends.execute")),
                                "us"),
        "serve.plan_hit_ratio": (phase.get("hit_ratio", 0.0), "ratio"),
        "xpath.parses_per_request": (
            _per_op(layer("xpath.parse")["calls"], ops), "count"),
        "serve.lookup_us": (0.0, "us"),
        "serve.other_us": (0.0, "us"),
        "trace.ops_per_s": (ops / phase["elapsed"], "1/s"),
    }
    if splits:
        # Per request, medians: the worker's plan-cache time, its
        # backend execute, and everything else the client waited for.
        for index, key in enumerate(("serve.lookup_us",
                                     "backends.execute_us",
                                     "serve.other_us")):
            out[key] = (statistics.median(s[index] for s in splits) * 1e6,
                        "us")
    return {key: metric(value, unit) for key, (value, unit) in out.items()}


def end_to_end(setup_s: float, rss: float, phase: dict,
               score: dict) -> dict:
    ops = phase["attempted"] - phase["failed"]
    latencies = phase["latencies"]
    # The slow operations: on advise and ingest the slowest of each
    # whole cycle, on serve the plan-cache misses (see serve.py).
    tail = (cycle_tail(phase["cycles"]) if "cycles" in phase
            else statistics.median(phase["miss_latencies"]))
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops / phase["elapsed"], "1/s"),
        "p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
        "design_cost": metric(score["design_cost"], "cost"),
        "stored_bytes_per_xml_byte": metric(score["stored_ratio"], "B/B"),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    from layers import LayerClock

    workload = importlib.import_module(name)
    clock = LayerClock() if trace else None
    records: dict | None = {} if trace else None
    serial = itertools.count()

    def build():
        # Each build gets a fresh scratch path inside the work directory.
        return workload.build(
            seed, os.path.join(workdir, f"{name}-{next(serial)}"))

    state, setup_s = timed_setup(build)
    if clock is not None:
        from probes import install
        probes = install(clock, records)
    else:
        probes = nullcontext()
    try:
        with probes:
            phase = workload.timed_phase(state, seconds, records)
        rss = peak_rss_mb()
        score = workload.check_and_score(state, phase)
    finally:
        if hasattr(state, "close"):
            state.close()
    problems = score["problems"]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = (layer_metrics(clock.totals(), phase) if clock
               else end_to_end(setup_s, rss, phase, score))
    detail = {"elapsed_s": phase["elapsed"],
              "cycles_s": [sum(c) for c in phase.get("cycles", [])],
              **{k: v for k, v in score.items() if k != "problems"}}
    if "hit_ratio" in phase:
        detail["plan_hit_ratio"] = phase["hit_ratio"]
        detail["p99_ms"] = p99_with_tail(phase["latencies"]) * 1e3
    print("perfbench-detail " + json.dumps(detail, sort_keys=True),
          flush=True)
    return {"correct": not problems, "attempted": phase["attempted"],
            "failed": phase["failed"], "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({src})",
              file=sys.stderr)
        return 2
    cpus = pin_cpu()
    sys.path.insert(0, str(src))
    import repro  # noqa: F401  (imports are not part of setup_s)

    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # SQLite's own temporary files (sorts, index builds) stay in the
    # checkout as well.
    os.environ["SQLITE_TMPDIR"] = str(workdir)
    try:
        env = environment(args.workload, args.seed, cpus, bool(args.trace))
        print("perfbench-env " + json.dumps(env, sort_keys=True),
              flush=True)
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
