"""The runtime stays NumPy- and SciPy-free.

Nothing in ``repro`` imports NumPy or SciPy.  A fresh interpreter
imports every ``repro.*`` module, runs the engines, sweeps on the
JSON-lines and sharded stores, adversary search and ``repro report``,
and then checks ``sys.modules``, so an import anywhere — at module
level or deferred into a function body on those paths — fails here.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import os
    import pkgutil
    import sys

    import repro
    from repro.cli import main
    from repro.experiments import ExperimentSpec, SweepRunner
    from repro.search import SearchBudget, SearchSettings, run_search

    work = sys.argv[1]
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        # ``repro.__main__`` runs the CLI on import; it imports only
        # repro.cli.
        if module.name != "repro.__main__":
            importlib.import_module(module.name)
    spec = ExperimentSpec(
        name="imports",
        algorithms=["round_robin", ("harmonic", {"T": 2})],
        graphs=[("line", 8), ("gnp", 12)],
        adversaries=["greedy"],
        collision_rules=["CR3", "CR4"],
        engines=["fast"],
        seeds=[0, 1],
    )
    for store, path in (
        ("jsonl", os.path.join(work, "sweep.jsonl")),
        ("sharded", os.path.join(work, "campaign")),
    ):
        result = SweepRunner(spec, results_path=path, store=store).run()
        assert result.executed == spec.size, (store, result.executed)
    search = run_search(
        SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=9,
            collision_rule="CR4",
        ),
        searcher="local",
        budget=SearchBudget(evaluations=8, batch_size=4),
        results_path=os.path.join(work, "search.jsonl"),
        verify=True,
    )
    assert search.replay_verified
    assert main(["report", "--results", os.path.join(work, "campaign")]) == 0
    loaded = sorted({"numpy", "scipy"} & set(sys.modules))
    assert not loaded, f"runtime imported {loaded}"
    """
)


def test_runtime_paths_import_neither_numpy_nor_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
