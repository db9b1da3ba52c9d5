"""Result files keyed for the deleted vector engine still resume.

``fixtures/legacy/tiny_eng_vector.jsonl`` was written by
``repro sweep --spec examples/specs/tiny_sweep.json --engine vector``
while the NumPy lockstep engine still existed, so every key ends in
``/eng-vector``.  A spec that names ``"vector"`` on its engines axis
keeps that key segment, so the campaign resumes by key with nothing
re-run; a task that does run executes on the fast engine.
"""

import json
import pathlib
import shutil

from repro.experiments import SweepRunner, execute_task, load_specs

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = ROOT / "examples" / "specs" / "tiny_sweep.json"
LEGACY = pathlib.Path(__file__).parent / "fixtures" / "legacy" / (
    "tiny_eng_vector.jsonl"
)


def spec_on(engine, tmp_path):
    """The shipped tiny spec with its engines axis set to ``engine``."""
    doc = json.loads(SPEC.read_text(encoding="utf-8"))
    doc["engines"] = [engine]
    path = tmp_path / f"tiny-{engine}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (spec,) = load_specs(str(path))
    return spec


def science(record):
    """A record's fields minus the engine bookkeeping (key, engine)."""
    doc = record.to_dict()
    del doc["key"], doc["engine"]
    return doc


def test_legacy_vector_file_resumes_with_nothing_run(tmp_path):
    results = tmp_path / "legacy.jsonl"
    shutil.copy(LEGACY, results)
    spec = spec_on("vector", tmp_path)

    resumed = SweepRunner(spec, results_path=str(results)).run()

    assert spec.size == 24
    assert resumed.executed == 0
    assert resumed.resumed == spec.size
    assert all(r.key.endswith("/eng-vector") for r in resumed.records)
    assert results.read_bytes() == LEGACY.read_bytes()
    fresh = SweepRunner(spec_on("fast", tmp_path)).run()
    assert [science(r) for r in resumed.records] == [
        science(r) for r in fresh.records
    ]


def test_legacy_vector_task_runs_on_fast_engine(tmp_path):
    task = spec_on("vector", tmp_path).tasks()[0]
    record = execute_task(task)
    assert record.key.endswith("/eng-vector")
    assert record.engine == "fast"


def test_legacy_vector_tasks_append_beside_other_engines(tmp_path):
    """One results file holds reference, fast and legacy-vector records
    under disjoint keys; each engine's re-run resumes only its own."""
    results = tmp_path / "mixed.jsonl"
    specs = [spec_on(e, tmp_path) for e in ("reference", "fast", "vector")]
    for spec in specs:
        first = SweepRunner(spec, results_path=str(results)).run()
        assert (first.executed, first.resumed) == (spec.size, 0)
    keys = [
        json.loads(line)["key"]
        for line in results.read_text(encoding="utf-8").splitlines()
    ]
    assert len(keys) == len(set(keys)) == 3 * specs[0].size
    for spec in specs:
        again = SweepRunner(spec, results_path=str(results)).run()
        assert (again.executed, again.resumed) == (0, spec.size)
