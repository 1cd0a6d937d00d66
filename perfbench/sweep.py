"""Run the benchmark over several seeds and save each run's output.

Usage::

    python3 perfbench/sweep.py OUT_DIR [--seeds 1-10]
        [--workloads advise,ingest,serve] [--trace 0]

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, the
length its bounds are set for. Runs are sequential (one benchmark
process at a time, each waited for) and each run's standard output is
written to ``OUT_DIR/<workload>-t<trace>-s<seed>.txt`` for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str]) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            target = args.out / f"{workload}-t{args.trace}-s{seed}.txt"
            with target.open("w") as out:
                code = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    stdout=out, cwd=HERE.parent, check=False).returncode
            last = target.read_text().splitlines()[-1:] or ["(no output)"]
            print(f"{target.name}: exit {code} {last[0][:160]}", flush=True)
            status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
