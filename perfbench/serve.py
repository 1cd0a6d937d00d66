"""``serve``: a closed loop of client threads against the query service.

Two client threads (one per vCPU of the reference machine), each
waiting for its reply, drive a ``QueryService`` with two workers that
serves the Greedy-tuned DBLP design from a file. The Zipf mix has more
distinct queries than the 128-entry plan cache holds, so the run sees
both plan hits and translated misses. The clients are the benchmark's
own: ``repro.serve.LoadGenerator`` would digest every response's rows
on the client thread.

The slow path is a plan-cache miss (about one request in ten), and
``tail_ms`` is the median latency of the misses. A p99 over the whole
run is kept in the detail line only: with four threads on one pinned
CPU it is set by interpreter-lock hand-offs and host preemption, and
between runs of the same code it moved from 5.5x to 9x the median
request while the miss median stayed at 1.75x-1.9x of it.

The document, the query mix and the design are fixed (data seed 7,
query seed 41); ``--seed`` draws the request sequence. Over five
seeds that also drew the mix, the served design changed with the
seed: its stored size moved between 1.15x and 1.90x the XML and
throughput by 16%, a spread that says nothing about a code change.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.datasets import dblp_schema, generate_dblp
from repro.experiments import measure_workload, realize
from repro.mapping import collect_statistics
from repro.search import GreedySearch
from repro.serve import QueryService
from repro.workload import (MixSampler, WeightedQuery, Workload,
                            WorkloadGenerator, zipf_mix)
from repro.xmlkit.writer import serialize
from repro.xpath import evaluate_values

from checks import same_response, values_match

PUBLICATIONS = 1000
DATA_SEED = 7
QUERY_SEED = 41
MIX_QUERIES = 200
SKEW = 1.0
#: Greedy tunes the design for the mix's most frequent queries.
TRAINING_QUERIES = 6
CLIENTS = 2
WORKERS = 2
PLAN_CACHE = 128
#: Requests served before timing, so the plan cache is in steady state.
WARMUP_REQUESTS = 1000


@dataclass
class State:
    docs: object
    mix: object
    texts: list[str]
    design: object
    service: object
    db_path: str
    seed: int
    first: dict = field(default_factory=dict)

    def close(self) -> None:
        self.service.close()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.db_path + suffix)
            except FileNotFoundError:
                pass


def _distinct(workload):
    seen: dict[str, object] = {}
    for weighted in workload.queries:
        seen.setdefault(str(weighted.query), weighted)
    return Workload(workload.name, list(seen.values()))


def build(seed: int, scratch: str) -> State:
    tree = dblp_schema()
    docs = generate_dblp(PUBLICATIONS, seed=DATA_SEED)
    stats = collect_statistics(tree, docs)
    generated = WorkloadGenerator(tree, stats, seed=QUERY_SEED).generate(
        MIX_QUERIES)
    mix = zipf_mix(_distinct(generated), skew=SKEW)
    training = Workload("serve-head", [
        WeightedQuery(query, probability) for query, probability in
        list(zip(mix.queries, mix.probabilities))[:TRAINING_QUERIES]])
    design = GreedySearch(tree, training, stats, jobs=1).run()
    db_path = scratch + ".sqlite"
    service = QueryService(design.schema, docs, design.configuration,
                           workers=WORKERS, plan_cache_size=PLAN_CACHE,
                           db_path=db_path)
    texts = [str(query) for query in mix.queries]
    sampler = MixSampler(mix, seed=seed)
    for _ in range(WARMUP_REQUESTS):
        service.serve(texts[sampler.sample_index()])
    return State(docs, mix, texts, design, service, db_path, seed)


def timed_phase(state: State, seconds: float,
                records: dict | None = None) -> dict:
    service = state.service
    before = service.plan_cache.stats()
    lock = threading.Lock()
    latencies: list[float] = []
    miss_latencies: list[float] = []
    splits: list[tuple[float, float, float]] = []
    outcome = {"attempted": 0, "failed": 0, "problems": []}
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        sampler = MixSampler(state.mix, seed=state.seed * 100 + index + 1)
        mine: list[float] = []
        misses: list[float] = []
        split: list[tuple[float, float, float]] = []
        attempted = failed = 0
        first_error = None
        problems: list[str] = []
        try:
            while time.perf_counter() < deadline:
                qi = sampler.sample_index()
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = service.serve(state.texts[qi])
                except Exception as exc:
                    failed += 1
                    first_error = first_error or (
                        f"{state.texts[qi]}: {exc!r}")
                    continue
                latency = time.perf_counter() - t0
                rows = result.rows
                mine.append(latency)
                if not result.cached_plan:
                    misses.append(latency)
                if records is not None:
                    lookup, execute = records.pop(id(rows))
                    split.append((lookup, execute,
                                  latency - lookup - execute))
                first = state.first.setdefault(qi, rows)
                if first is not rows:
                    problems += same_response(state.texts[qi], first, rows)
        except Exception as exc:  # a fault in the benchmark's own client
            problems.append(f"client {index} stopped: {exc!r}")
        if failed:
            problems.insert(0, f"client {index}: {failed} of {attempted} "
                            f"requests failed, first {first_error}")
        with lock:
            latencies.extend(mine)
            miss_latencies.extend(misses)
            splits.extend(split)
            outcome["attempted"] += attempted
            outcome["failed"] += failed
            outcome["problems"] += problems[:5]

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,),
                                name=f"perfbench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    after = service.plan_cache.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    outcome.update(elapsed=elapsed, latencies=latencies,
                   miss_latencies=miss_latencies, splits=splits,
                   hit_ratio=hits / max(hits + misses, 1))
    return outcome


def check_and_score(state: State, phase: dict) -> dict:
    """Served answers against the reference evaluator, plus the design
    cost and storage ratio of the served design."""
    problems = list(phase["problems"])
    for qi in sorted(state.first):
        problems += values_match(state.texts[qi], state.first[qi],
                                 evaluate_values(state.mix.queries[qi],
                                                 state.docs))
    design = state.design
    db = realize(design.schema, design.configuration, state.docs,
                 use_cache=False)
    xml_bytes = len(serialize(state.docs).encode("utf-8"))
    return {"problems": problems,
            "design_cost": measure_workload(db, design.sql_queries),
            "stored_ratio": os.path.getsize(state.db_path) / xml_bytes,
            "distinct_served": len(state.first)}
