"""Shared plumbing: CPU placement, set-up timing, statistics, run record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: How many times each workload builds its set-up; ``setup_s`` is the
#: median, and the timed phase uses the last one.
SETUP_REPEATS = 3


def pin_cpu() -> str:
    """Pin this process (all its threads) to one CPU; return the set.

    Placement changes serve throughput by up to ~2.5x on a 2-vCPU VM
    (threads handing the interpreter lock across CPUs); one fixed CPU
    makes runs comparable whether the other CPU is idle or busy. Only
    this process's own affinity is changed.
    """
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return str(cpu)


def git_revision() -> str:
    """The checkout's git revision, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-1 over the program's source files (identifies the code even
    in a checkout that is not a git repository)."""
    digest = hashlib.sha1()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def environment(workload: str, seed: int, cpus: str, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "trace": trace,
            "cpu_set": cpus, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_rev": git_revision(), "src_digest": source_digest()}


def timed_setup(build):
    """Run ``build()`` ``SETUP_REPEATS`` times; return (last, median s).

    Earlier products are closed (if they have ``close``) before the
    next build, so only one set-up is alive during the timed phase.
    """
    seconds = []
    product = None
    for _ in range(SETUP_REPEATS):
        if product is not None and hasattr(product, "close"):
            product.close()
        started = time.perf_counter()
        product = build()
        seconds.append(time.perf_counter() - started)
    return product, statistics.median(seconds)


def peak_rss_mb() -> float:
    """High-water resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        return peak / (1024 * 1024)
    return peak / 1024


def p99_with_tail(values: list[float]) -> float:
    """p99, refusing when fewer than 10 samples lie beyond it."""
    if len(values) < 1000:
        raise ValueError(f"p99 needs >= 1000 samples, got {len(values)}")
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def cycle_tail(cycles: list[list[float]]) -> float:
    """Slowest operation of each whole cycle, median over cycles.

    For runs with too few operations for a p99 (advise searches,
    ingest deploys), this is the tail a user of the run sees.
    """
    return statistics.median(max(cycle) for cycle in cycles)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
