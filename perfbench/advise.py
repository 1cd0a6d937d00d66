"""``advise``: serial Greedy searches over the paper's standard suite.

One cycle runs Greedy (``jobs=1``, no persistent cache) once on each of
eight cells: the LP/HP x LS/HS workloads of 10 queries on DBLP and on
Movie. The suite is fixed (data seed 7, workload seed 41 at 1,200
elements, the repository's own benchmark defaults): the work of a
Greedy search depends on the workload, and on generated suites the
DBLP HP-LS cell alone takes either ~2.3 s or ~7 s, so cycle time moved
between 10 s and 16 s from one seed to the next. ``--seed`` therefore
only rotates the cell order. The run ends with the first whole cycle
that reaches the run length, and throughput counts whole cycles only.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.backends import SQLiteBackend
from repro.experiments import DatasetBundle, measure_design
from repro.mapping import hybrid_inlining
from repro.search import GreedySearch, MappingEvaluator
from repro.xmlkit.writer import serialize
from repro.xpath import evaluate_values

from checks import not_costlier, same_every_cycle, values_match

SCALE = 1200
DATA_SEED = 7
SUITE_SEED = 41
QUERIES = 10


@dataclass
class Cell:
    bundle: object
    workload: object

    @property
    def label(self) -> str:
        return f"{self.bundle.name}/{self.workload.name}"


def build(seed: int, scratch: str) -> list[Cell]:
    cells = []
    for make in (DatasetBundle.dblp, DatasetBundle.movie):
        bundle = make(scale=SCALE, seed=DATA_SEED)
        generator = bundle.workload_generator(seed=SUITE_SEED)
        cells += [Cell(bundle, workload)
                  for workload in generator.standard_suite(QUERIES)]
    shift = seed % len(cells)
    return cells[shift:] + cells[:shift]


def design_digest(result) -> str:
    return hashlib.sha1(result.describe().encode()).hexdigest()


def timed_phase(cells: list[Cell], seconds: float, records=None) -> dict:
    cycles: list[list[float]] = []
    # Only the first result of a cell is kept (for the checks), plus a
    # digest per cycle, so peak RSS does not grow with the cycle count.
    first: dict[str, object] = {}
    digests: dict[str, list] = {cell.label: [] for cell in cells}
    counters = {"evaluations": 0, "memo_hits": 0, "derived": 0}
    failed = 0
    errors: dict[str, str] = {}
    started = time.perf_counter()
    while True:
        times = []
        for cell in cells:
            t0 = time.perf_counter()
            try:
                result = GreedySearch(
                    cell.bundle.tree, cell.workload, cell.bundle.stats,
                    storage_bound=cell.bundle.storage_bound,
                    jobs=1).run()
            except Exception as exc:
                failed += 1
                errors.setdefault(cell.label, repr(exc))
                result = None
            times.append(time.perf_counter() - t0)
            digests[cell.label].append(
                None if result is None else design_digest(result))
            if result is not None:
                first.setdefault(cell.label, result)
                counters["evaluations"] += result.counters.mappings_evaluated
                counters["memo_hits"] += result.counters.cache_hits
                counters["derived"] += result.counters.derived_query_costs
        cycles.append(times)
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            break
    return {"attempted": sum(map(len, cycles)), "failed": failed,
            "elapsed": elapsed, "cycles": cycles,
            "latencies": [t for cycle in cycles for t in cycle],
            "first": first, "digests": digests,
            "search_counters": counters,
            "problems": [f"{label}: search failed: {error}"
                         for label, error in errors.items()]}


def check_and_score(cells: list[Cell], phase: dict) -> dict:
    """Correctness problems, design cost and stored-bytes ratio.

    The design cost is the paper's quality measure: the executed cost
    of each cell's workload on its realized recommended design, summed
    over one cycle. The stored bytes are the SQLite pages holding each
    realized design, over the serialized XML, summed over the cycle.
    """
    problems = list(phase["problems"])
    design_cost = 0.0
    stored = xml = 0
    for cell in cells:
        if cell.label not in phase["first"]:
            continue  # every search of the cell failed
        digests = [d for d in phase["digests"][cell.label] if d is not None]
        problems += same_every_cycle(cell.label, digests)
        result = phase["first"][cell.label]
        bundle = cell.bundle
        hybrid = MappingEvaluator(cell.workload, bundle.stats,
                                  bundle.storage_bound).evaluate(
            hybrid_inlining(bundle.tree))
        problems += not_costlier(cell.label, result.estimated_cost,
                                 hybrid.total_cost)
        design_cost += measure_design(result, bundle)
        with SQLiteBackend() as backend:
            backend.load(result.schema, bundle.docs)
            backend.apply_configuration(result.configuration)
            for (sql, _), weighted in zip(result.sql_queries,
                                          cell.workload.queries):
                problems += values_match(
                    f"{cell.label} {weighted.query}", backend.execute(sql),
                    evaluate_values(weighted.query, bundle.docs))
            pages = backend.execute_sql("PRAGMA page_count")[0][0]
            page_size = backend.execute_sql("PRAGMA page_size")[0][0]
        stored += pages * page_size
        xml += len(serialize(bundle.docs).encode("utf-8"))
    return {"problems": problems, "design_cost": design_cost,
            "stored_ratio": stored / xml}
