"""The runtime stays NumPy- and SciPy-free.

No runtime path imports NumPy or SciPy: the engines, sweeps on the
JSON-lines and sharded stores, adversary search and ``repro report``
are pure Python.  The one, explicitly gated, user is
:class:`repro.store.ColumnarStore`.  A fresh interpreter runs each of
those paths and then checks ``sys.modules``, so an import anywhere in
the chain — including one deferred into a function body — fails here.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import os
    import sys

    from repro.cli import main
    from repro.experiments import ExperimentSpec, SweepRunner
    from repro.search import SearchBudget, SearchSettings, run_search

    work = sys.argv[1]
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
