"""Compare two sets of benchmark result files.

Usage::

    python3 perfbench/compare.py BASELINE_DIR CANDIDATE_DIR

Each directory holds the saved standard output of ``run.py`` runs, one
file per run (``sweep.py`` writes them). For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the spread (quartile distance over the median), and
whether the candidate's median is worse than the baseline's by more
than the metric's bound. It also checks that both sides failed the
same share of operations. Where a side holds traced runs, it prints
each workload's tracing overhead: how much lower the traced
throughput is than that side's untraced ``ops_per_s``.

Exit status 1 when any run reports ``correct: false``, any metric
regresses beyond its bound, a spread exceeds its bound, or the failed
shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, bool], list[dict]]:
    """``{(workload, traced): [{"env":..., "result":...}, ...]}``."""
    runs: dict[tuple[str, bool], list[dict]] = defaultdict(list)
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        env = result = None
        for line in path.read_text().splitlines():
            if line.startswith("perfbench-env "):
                env = json.loads(line[len("perfbench-env "):])
            elif line.startswith("{"):
                result = json.loads(line)
        if env is None or result is None:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        runs[(env["workload"], bool(env["trace"]))].append(
            {"env": env, "result": result, "file": path.name})
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def compare(base: dict, cand: dict, spec: dict) -> list[str]:
    problems = [f"{side}/{run['file']}: correct is false"
                for side, runs in (("base", base), ("cand", cand))
                for group in runs.values() for run in group
                if not run["result"]["correct"]]
    workloads = sorted({name for name, traced in base | cand if not traced})
    header = (f"{'workload':8} {'metric':26} {'base q1/med/q3':>32} "
              f"{'spread':>7} {'cand q1/med/q3':>32} {'spread':>7} "
              f"{'change':>8}  verdict")
    print(header)
    for workload in workloads:
        a = base.get((workload, False), [])
        b = cand.get((workload, False), [])
        if not a or not b:
            problems.append(f"{workload}: missing runs on one side")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            qa, qb = summary(va), summary(vb)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = []
            if worse > bound:
                verdict.append(f"WORSE>{bound:.0%}")
            if max(spread_a, spread_b) > bound:
                verdict.append("SPREAD>bound")
            problems += [f"{workload}/{name}: {v}" for v in verdict]
            print(f"{workload:8} {name:26} "
                  f"{qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                  f"{spread_a:7.1%} "
                  f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} "
                  f"{spread_b:7.1%} {change:+8.1%}  "
                  f"{' '.join(verdict) or 'ok'}")
        share_a, share_b = failed_share(a), failed_share(b)
        if share_a != share_b:
            problems.append(f"{workload}: failed share {share_a:.6f} vs "
                            f"{share_b:.6f}")
        print(f"{workload:8} {'failed share':26} {share_a:10.6f} "
              f"{share_b:10.6f}")
    for side, runs in (("base", base), ("cand", cand)):
        for workload in workloads:
            traced = runs.get((workload, True))
            plain = runs.get((workload, False))
            if not traced or not plain:
                continue
            t = statistics.median(r["result"]["metrics"]["trace.ops_per_s"]
                                  ["value"] for r in traced)
            u = statistics.median(r["result"]["metrics"]["ops_per_s"]
                                  ["value"] for r in plain)
            print(f"{side}: {workload} tracing overhead {1 - t / u:+.1%} "
                  f"(traced {t:.4g}/s vs untraced {u:.4g}/s)")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])),
                       spec)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
