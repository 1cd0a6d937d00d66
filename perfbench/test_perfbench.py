"""Tests for the benchmark's own checks and timers.

Run from the repository root::

    python3 -m pytest perfbench -q

Each correctness check is shown catching a planted wrong answer: a
dropped row, a changed value, a design that differs between cycles,
an incomplete load, a changed response, a failing operation.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
from layers import LayerClock  # noqa: E402

SPEC = json.loads((compare.ROOT / "BENCHMARK.json").read_text())

QUERY = '/dblp/inproceedings[year >= "1990"]/(title | author)'


@pytest.fixture(scope="module")
def loaded():
    """A small DBLP document loaded into SQLite under hybrid inlining."""
    from repro.backends import SQLiteBackend
    from repro.datasets import dblp_schema, generate_dblp
    from repro.mapping import derive_schema, hybrid_inlining
    from repro.translate import translate_xpath
    from repro.xpath import evaluate_values, parse_xpath

    docs = generate_dblp(60, seed=3)
    schema = derive_schema(hybrid_inlining(dblp_schema()))
    backend = SQLiteBackend()
    backend.load(schema, docs)
    sql = translate_xpath(schema, QUERY)
    expected = evaluate_values(parse_xpath(QUERY), docs)
    yield backend, sql, expected
    backend.close()


def test_values_match_accepts_the_real_answer(loaded):
    backend, sql, expected = loaded
    assert expected
    assert checks.values_match("q", backend.execute(sql), expected) == []


def test_values_match_catches_a_dropped_row(loaded):
    backend, sql, expected = loaded
    rows = backend.execute(sql)
    assert checks.values_match("q", rows[:-1], expected)


def test_values_match_catches_a_changed_value(loaded):
    backend, sql, expected = loaded
    rows = backend.execute(sql)
    key, *values = rows[0]
    changed = [key] + [None if v is None else f"{v}!" for v in values]
    problems = checks.values_match("q", [tuple(changed)] + rows[1:],
                                   expected)
    assert problems and "missing" in problems[0]


@pytest.mark.parametrize("statement", [
    # a dropped row: one author of a qualifying publication
    'DELETE FROM "author" WHERE rowid = (SELECT MIN(a.rowid) FROM '
    '"author" AS a JOIN "inproc" AS i ON a."PID" = i."ID" '
    'WHERE i."year" >= \'1990\')',
    # a changed value: one qualifying title
    'UPDATE "inproc" SET "title" = "title" || \'!\' WHERE "ID" = '
    '(SELECT MIN("ID") FROM "inproc" WHERE "year" >= \'1990\')',
])
def test_values_match_catches_wrong_storage(statement):
    """The same check, with the wrong answer planted in the database."""
    from repro.backends import SQLiteBackend
    from repro.datasets import dblp_schema, generate_dblp
    from repro.mapping import derive_schema, hybrid_inlining
    from repro.translate import translate_xpath
    from repro.xpath import evaluate_values, parse_xpath

    docs = generate_dblp(60, seed=3)
    schema = derive_schema(hybrid_inlining(dblp_schema()))
    sql = translate_xpath(schema, QUERY)
    expected = evaluate_values(parse_xpath(QUERY), docs)
    with SQLiteBackend() as backend:
        backend.load(schema, docs)
        assert checks.values_match("q", backend.execute(sql), expected) == []
        backend.execute_sql(statement)
        backend.connection.commit()
        assert checks.values_match("q", backend.execute(sql), expected)


def test_same_every_cycle():
    assert checks.same_every_cycle("cell", ["a", "a", "a"]) == []
    assert checks.same_every_cycle("cell", ["a", "b", "a"])


def test_design_digest_tells_designs_apart():
    from advise import design_digest
    from repro.datasets import dblp_schema, generate_dblp
    from repro.mapping import collect_statistics
    from repro.search import GreedySearch
    from repro.workload import Workload

    tree = dblp_schema()
    docs = generate_dblp(80, seed=5)
    stats = collect_statistics(tree, docs)
    one = Workload.from_strings("one", ["/dblp/inproceedings/title"])
    two = Workload.from_strings(
        "two", ['/dblp/inproceedings[year = "2000"]/(title | author)'])
    first = GreedySearch(tree, one, stats, jobs=1).run()
    again = GreedySearch(tree, one, stats, jobs=1).run()
    other = GreedySearch(tree, two, stats, jobs=1).run()
    digests = [design_digest(first), design_digest(again)]
    assert checks.same_every_cycle("cell", digests) == []
    assert checks.same_every_cycle("cell", digests + [design_digest(other)])


def test_not_costlier():
    assert checks.not_costlier("cell", 10.0, 10.0) == []
    assert checks.not_costlier("cell", 10.5, 10.0)


def test_load_checks():
    assert checks.load_complete("deploy 0", True) == []
    assert checks.load_complete("deploy 0", False)
    same = {"a": 3, "b": 4}
    assert checks.same_row_totals([same, dict(same)]) == []
    problems = checks.same_row_totals([same, {"a": 3, "b": 3}])
    assert problems and "'b'" in problems[0]


def test_same_response():
    rows = [(1, "x"), (2, "y")]
    assert checks.same_response("q", rows, list(rows)) == []
    assert checks.same_response("q", rows, rows[:1])
    assert checks.same_response("q", rows, [(1, "x"), (2, "z")])


def test_clock_self_time_excludes_nested_layers():
    clock = LayerClock()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        timed_inner()
        timed_inner()

    timed_inner = clock.wrap("inner", inner)
    clock.wrap("outer", outer)()
    totals = clock.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["busy_s"] >= totals["inner"]["busy_s"] >= 0.04
    assert 0.01 <= totals["outer"]["self_s"] < 0.03


def test_clock_keeps_threads_apart():
    """Spans opened on another thread never nest in this thread's."""
    clock = LayerClock()
    started = threading.Event()
    release = threading.Event()

    def worker():
        clock.enter("worker")
        started.set()
        release.wait(timeout=5)
        clock.exit()

    thread = threading.Thread(target=worker)
    thread.start()
    assert started.wait(timeout=5)
    clock.wrap("main", time.sleep)(0.01)
    release.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    totals = clock.totals()
    assert totals["main"]["self_s"] == pytest.approx(
        totals["main"]["busy_s"])
    assert totals["worker"]["calls"] == 1



def test_serve_reports_a_failing_request():
    import serve

    class Service:
        plan_cache = SimpleNamespace(
            stats=lambda: {"hits": 0, "misses": 0})

        def serve(self, text):
            if text == "bad":
                raise RuntimeError("planted")
            return SimpleNamespace(rows=[(1, text)], cached_plan=True)

    state = SimpleNamespace(
        service=Service(), texts=["good", "bad"], seed=1, first={},
        mix=SimpleNamespace(queries=["good", "bad"],
                            probabilities=[0.5, 0.5]))
    phase = serve.timed_phase(state, 0.05)
    assert 0 < phase["failed"] < phase["attempted"]
    assert any("planted" in problem for problem in phase["problems"])
    # The requests that succeeded are still kept for the checks.
    assert state.first == {0: [(1, "good")]}


def test_advise_reports_a_failing_search(monkeypatch):
    import advise

    class Search:
        def __init__(self, tree, workload, stats, **options):
            self.workload = workload

        def run(self):
            if self.workload.name == "bad":
                raise RuntimeError("planted")
            return SimpleNamespace(
                describe=lambda: "design",
                counters=SimpleNamespace(mappings_evaluated=1, cache_hits=0,
                                         derived_query_costs=0))

    monkeypatch.setattr(advise, "GreedySearch", Search)
    bundle = SimpleNamespace(name="d", tree=None, stats=None,
                             storage_bound=None)
    cells = [advise.Cell(bundle, SimpleNamespace(name=name))
             for name in ("good", "bad")]
    phase = advise.timed_phase(cells, 0.0)
    assert (phase["attempted"], phase["failed"]) == (2, 1)
    assert phase["problems"] == [
        "d/bad: search failed: RuntimeError('planted')"]
    assert list(phase["first"]) == ["d/good"]


def test_ingest_reports_a_failing_deploy(monkeypatch, tmp_path):
    import ingest

    calls = itertools.count()

    def deploy(state, path):
        if next(calls) == 1:
            raise RuntimeError("planted")
        Path(path).write_bytes(b"db")
        return {"complete": True, "rows": {"t": 1}}

    monkeypatch.setattr(ingest, "deploy", deploy)
    state = SimpleNamespace(workdir=str(tmp_path), deploys=[])
    phase = ingest.timed_phase(state, 0.0)
    assert (phase["attempted"], phase["failed"]) == (ingest.ROUND, 1)
    assert len(phase["problems"]) == 1 and "planted" in phase["problems"][0]
    assert len(state.deploys) == ingest.ROUND - 1


def _save_runs(directory, workload, runs):
    """Write ``(correct, {metric: value})`` pairs as result files."""
    directory.mkdir()
    for i, (correct, values) in enumerate(runs):
        metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        result = {"correct": correct, "attempted": 10, "failed": 0,
                  "metrics": metrics}
        env = {"workload": workload, "trace": False}
        (directory / f"{workload}-{i}.txt").write_text(
            f"perfbench-env {json.dumps(env)}\n{json.dumps(result)}\n")
    return compare.load_runs(directory)


def test_compare_passes_identical_sets(tmp_path):
    runs = [(True, {})] * 4
    base = _save_runs(tmp_path / "a", "serve", runs)
    cand = _save_runs(tmp_path / "b", "serve", runs)
    assert compare.compare(base, cand, SPEC) == []


def test_compare_reports_an_incorrect_run(tmp_path):
    base = _save_runs(tmp_path / "a", "serve", [(True, {})] * 4)
    cand = _save_runs(tmp_path / "b", "serve",
                      [(True, {})] * 3 + [(False, {})])
    assert compare.compare(base, cand, SPEC) == [
        "cand/serve-3.txt: correct is false"]


def test_compare_checks_the_setup_spread(tmp_path):
    base = _save_runs(tmp_path / "a", "serve", [(True, {})] * 4)
    cand = _save_runs(tmp_path / "b", "serve", [
        (True, {"setup_s": value}) for value in (0.5, 1.0, 1.0, 1.5)])
    assert compare.compare(base, cand, SPEC) == [
        "serve/setup_s: SPREAD>bound"]
