"""``ingest``: repeated deploys of one lazily generated DBLP document.

Each deploy generates, shreds and bulk-loads the document into a fresh
file-backed SQLite database, then builds the physical design set-up
computed: the tuned hybrid-inlining design for a fixed 8-query
workload (query seed 41 over the statistics of the seed-7 document).
``--seed`` draws the deployed document's content; the design stays
the same, so the index builds and the stored size do not change with
the queries a seed happens to draw. The what-if optimizer and the
query service do not run in the timed phase.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

from repro.backends import SQLiteBackend
from repro.datasets import dblp_schema, generate_dblp
from repro.experiments import measure_workload, realize
from repro.mapping import collect_statistics, hybrid_inlining
from repro.search import MappingEvaluator
from repro.translate import Translator
from repro.workload import WorkloadGenerator
from repro.xmlkit.writer import serialize
from repro.xpath import evaluate_values

from checks import load_complete, same_row_totals, values_match

PUBLICATIONS = 5000
QUERIES = 8
DATA_SEED = 7
QUERY_SEED = 41
#: Deploys per round; ``tail_ms`` is the slowest deploy of each round.
ROUND = 5


@dataclass
class State:
    tree: object
    docs: object
    workload: object
    schema: object
    configuration: object
    sql_queries: list
    workdir: str
    seed: int
    deploys: list = field(default_factory=list)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(seed: int, scratch: str) -> State:
    tree = dblp_schema()
    reference = generate_dblp(PUBLICATIONS, seed=DATA_SEED, stream=True)
    stats = collect_statistics(tree, reference)
    workload = WorkloadGenerator(tree, stats, seed=QUERY_SEED).generate(
        QUERIES)
    evaluated = MappingEvaluator(workload, stats).evaluate(
        hybrid_inlining(tree))
    os.makedirs(scratch)
    docs = generate_dblp(PUBLICATIONS, seed=seed, stream=True)
    return State(tree, docs, workload, evaluated.schema,
                 evaluated.tuning.configuration, evaluated.sql_queries,
                 scratch, seed)


def _remove(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def deploy(state: State, path: str) -> dict:
    """One deploy; returns what the checks need to see of it."""
    backend = SQLiteBackend(path)
    try:
        backend.load(state.schema, state.docs)
        backend.apply_configuration(state.configuration)
        manifest = backend.load_manifest()
        rows = dict(backend.row_counts)
    finally:
        backend.close()
    return {"complete": manifest is not None and manifest.complete,
            "rows": rows}


def timed_phase(state: State, seconds: float, records=None) -> dict:
    path = os.path.join(state.workdir, "deploy.sqlite")
    latencies: list[float] = []
    sizes: list[int] = []
    failed = 0
    problems: list[str] = []
    last_ok = False
    started = time.perf_counter()
    while True:
        _remove(path)
        t0 = time.perf_counter()
        try:
            state.deploys.append(deploy(state, path))
        except Exception as exc:
            failed += 1
            last_ok = False
            if len(problems) < 5:
                problems.append(f"deploy {len(latencies)} failed: {exc!r}")
        else:
            last_ok = True
            sizes.append(os.path.getsize(path))
        latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(latencies) % ROUND == 0:
            break
    rounds = [latencies[i:i + ROUND]
              for i in range(0, len(latencies), ROUND)]
    return {"attempted": len(latencies), "failed": failed,
            "elapsed": elapsed, "latencies": latencies, "cycles": rounds,
            "db_bytes": statistics.median(sizes) if sizes else 0,
            "db_path": path, "last_ok": last_ok, "problems": problems}


def check_and_score(state: State, phase: dict) -> dict:
    """Per-deploy checks, check queries on the last loaded file, and
    the design cost and storage ratio of what ingest deploys.

    The check queries are drawn from the deployed document's own
    statistics, so their predicates select values it holds.
    """
    problems = list(phase["problems"])
    for i, outcome in enumerate(state.deploys):
        problems += load_complete(f"deploy {i}", outcome["complete"])
    problems += same_row_totals([d["rows"] for d in state.deploys])
    check_queries = WorkloadGenerator(
        state.tree, collect_statistics(state.tree, state.docs),
        seed=state.seed).generate(QUERIES)
    translator = Translator(state.schema)
    if phase["last_ok"]:  # else the file holds a failed deploy
        with SQLiteBackend(phase["db_path"], read_only=True) as backend:
            for weighted in check_queries.queries:
                problems += values_match(
                    str(weighted.query),
                    backend.execute(translator.translate(weighted.query)),
                    evaluate_values(weighted.query, state.docs))
    db = realize(state.schema, state.configuration, state.docs,
                 use_cache=False)
    # The writer cannot serialize the lazy root; the eager document has
    # element-for-element identical content.
    eager = generate_dblp(PUBLICATIONS, seed=state.seed)
    xml_bytes = len(serialize(eager).encode("utf-8"))
    rows = sum(state.deploys[0]["rows"].values()) if state.deploys else 0
    return {"problems": problems,
            "design_cost": measure_workload(db, state.sql_queries),
            "stored_ratio": phase["db_bytes"] / xml_bytes,
            "rows_per_deploy": rows}
