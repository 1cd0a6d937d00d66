"""The traced run's wrappers around the program's public layer calls.

Each wrapper is installed at the name its caller looks up, so the
program runs unchanged apart from the timer around the call:

===================  ===============================================
layer                wrapped call
===================  ===============================================
``engine``           ``Database.estimate`` (the what-if optimizer)
``physdesign``       ``IndexTuningAdvisor.tune``
``search``           ``GreedySearch.run``, ``MappingEvaluator.evaluate*``
``translate``        ``Translator.translate``
``datasets``         each ``next()`` of the lazy DBLP generator
``mapping``          each ``next()`` of ``shred_typed_batches`` as the
                     loader imports it
``backends.load``    ``RelationalBackend.load``
``backends.ddl``     ``RelationalBackend.apply_configuration``
``backends.commit``  the loader's commit points (counted)
``backends.execute`` ``RelationalBackend.execute``
``serve.lookup``     ``PlanCache.__contains__`` / ``get_or_translate``
``xpath.parse``      ``parse_xpath`` as the plan cache imports it
===================  ===============================================
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from unittest import mock

from layers import LayerClock


def install(clock: LayerClock, records: dict | None = None) -> ExitStack:
    """Patches that time every layer on ``clock``, undone when the
    returned stack closes.

    With ``records``, each served request's worker-side split is stored
    under ``id(rows)`` of the rows list the service hands back, as
    ``(lookup seconds, execute seconds)``: the lookup is the plan-cache
    time the worker spent since the request's ``in plan_cache`` test.
    """
    import repro.backends.dbms as dbms
    import repro.datasets.dblp as dblp
    import repro.serve.plan_cache as plan_cache
    from repro.engine import Database
    from repro.physdesign import IndexTuningAdvisor
    from repro.search import GreedySearch, MappingEvaluator
    from repro.translate import Translator

    backend = dbms.RelationalBackend
    cache = plan_cache.PlanCache
    local = threading.local()
    contains = clock.wrap("serve.lookup", cache.__contains__)
    execute = clock.wrap("backends.execute", backend.execute)

    def marked_contains(self, query):
        local.mark = clock.thread_busy("serve.lookup")
        return contains(self, query)

    def recorded_execute(self, query):
        rows = execute(self, query)
        if records is not None and hasattr(local, "mark"):
            lookup = clock.thread_busy("serve.lookup") - local.mark
            records[id(rows)] = (lookup, clock.last_elapsed())
        return rows

    targets = [
        (Database, "estimate", clock.wrap("engine", Database.estimate)),
        (IndexTuningAdvisor, "tune",
         clock.wrap("physdesign", IndexTuningAdvisor.tune)),
        (GreedySearch, "run", clock.wrap("search", GreedySearch.run)),
        (Translator, "translate",
         clock.wrap("translate", Translator.translate)),
        (dblp, "iter_dblp_publications",
         clock.wrap_iter("datasets", dblp.iter_dblp_publications)),
        (dbms, "shred_typed_batches",
         clock.wrap_iter("mapping", dbms.shred_typed_batches)),
        (backend, "load", clock.wrap("backends.load", backend.load)),
        (backend, "apply_configuration",
         clock.wrap("backends.ddl", backend.apply_configuration)),
        (backend, "_commit_write",
         clock.wrap("backends.commit", backend._commit_write)),
        (backend, "execute", recorded_execute),
        (cache, "__contains__", marked_contains),
        (cache, "get_or_translate",
         clock.wrap("serve.lookup", cache.get_or_translate)),
        (plan_cache, "parse_xpath",
         clock.wrap("xpath.parse", plan_cache.parse_xpath)),
    ]
    for name in ("evaluate", "evaluate_partial", "evaluate_many",
                 "evaluate_partial_many"):
        targets.append((MappingEvaluator, name,
                        clock.wrap("search", getattr(MappingEvaluator,
                                                     name))))
    with ExitStack() as patches:
        for owner, name, replacement in targets:
            patches.enter_context(
                mock.patch.object(owner, name, replacement))
        return patches.pop_all()
