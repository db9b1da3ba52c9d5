"""Declarative parallel experiment sweeps.

The subsystem turns the paper's ensemble claims — statements over grids
of (graph × algorithm × adversary × seed) configurations — into a
first-class workload::

    from repro.experiments import ExperimentSpec, run_sweep

    spec = ExperimentSpec(
        name="demo",
        algorithms=[("harmonic", {"T": 4}), "round_robin"],
        graphs=[("clique-bridge", n) for n in (9, 17, 33)],
        adversaries=["greedy"],
        seeds=range(5),
    )
    result = run_sweep(spec, workers=4, results_path="results/demo.jsonl")
    print(result.summarize_by("n"))

Sweeps fan out over ``multiprocessing``, persist each finished run as a
JSON line, and resume by key after interruption.  Records are
deterministic: the same spec yields identical results for any worker
count.
"""

from repro.experiments.registry import (
    ADVERSARIES,
    CHURNS,
    GRAPHS,
    build_adversary,
    build_churn,
    build_graph,
    graph_seed_dependent,
    register_adversary,
    register_churn,
    register_graph,
)
from repro.experiments.results import RunResult, SweepResult
from repro.experiments.runner import (
    SweepRunner,
    execute_batch,
    execute_task,
    run_sweep,
)
from repro.experiments.spec import (
    AdversarySpec,
    AlgorithmSpec,
    CellBatch,
    ChurnSpec,
    ExperimentSpec,
    GraphSpec,
    RunTask,
    load_specs,
    plan_batches,
)

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "AlgorithmSpec",
    "CHURNS",
    "CellBatch",
    "ChurnSpec",
    "ExperimentSpec",
    "GRAPHS",
    "GraphSpec",
    "RunResult",
    "RunTask",
    "SweepResult",
    "SweepRunner",
    "build_adversary",
    "build_churn",
    "build_graph",
    "execute_batch",
    "execute_task",
    "graph_seed_dependent",
    "load_specs",
    "plan_batches",
    "register_adversary",
    "register_churn",
    "register_graph",
    "run_sweep",
]
