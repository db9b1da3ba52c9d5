"""Set-up probe: a fresh interpreter's path to the first dispatch.

Run as ``python3 perfbench/setup_probe.py PLAN.json SCRATCH_DIR`` with
``src`` on ``PYTHONPATH``.  It imports ``repro``, builds and validates
the workload's inputs, expands tasks and opens the store — what every
CLI invocation pays before its first task or candidate is dispatched —
and prints ``time.monotonic()`` at that point, followed by the host
slowdown a :class:`speed.SpeedProbe` measured meanwhile.  The parent
subtracts the monotonic time at which it started this process.  Of the
benchmark it imports only ``speed.py``, so what is measured is the
program's own set-up.
"""

import json
import os
import sys
import time

from speed import SpeedProbe


def sweep(plan):
    from repro.experiments import SweepRunner, load_specs

    runner = SweepRunner(
        load_specs(plan["specs"]),
        workers=1,
        results_path=plan.get("results", plan["store"] + os.sep),
        store="sharded",
    )
    tasks = runner.tasks()
    return runner.open_store(tasks)


def search(plan):
    from repro.search import EvaluationContext, SearchSettings, make_space
    from repro.search.evaluate import PopulationEvaluator
    from repro.search.persist import (
        CandidateRecord,
        genome_fingerprint_validator,
        search_fingerprint,
    )
    from repro.search.searchers import build_searcher
    from repro.store import open_store

    search = plan["searches"][0]
    settings = SearchSettings(**search["settings"])
    space = make_space(settings)
    build_searcher(search["searcher"], space, settings)
    store = open_store(
        plan["store"] + os.sep,
        parse=CandidateRecord.from_dict,
        backend="sharded",
        validator=genome_fingerprint_validator,
        fingerprint=search_fingerprint(
            settings, search["searcher"], search["seed"]
        ),
    )
    store.claim_keys()
    context = EvaluationContext(settings, graph=space.graph)
    PopulationEvaluator(settings, workers=1, context=context)
    return store


def main(argv):
    with open(argv[1], "r", encoding="utf-8") as f:
        plan = json.load(f)
    plan["store"] = os.path.join(argv[2], "store")
    with SpeedProbe() as probe:
        store = sweep(plan) if plan["kind"] == "sweep" else search(plan)
        done = time.monotonic()
        slowdown = probe.slowdown(0.0, time.perf_counter())
    print(repr(done), repr(slowdown))
    store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
