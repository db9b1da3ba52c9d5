"""Tests for the declarative parallel sweep subsystem."""

import json

import pytest

from repro.experiments import (
    AdversarySpec,
    AlgorithmSpec,
    ExperimentSpec,
    GraphSpec,
    SweepResult,
    SweepRunner,
    build_adversary,
    build_graph,
    execute_task,
    load_specs,
    register_graph,
    run_sweep,
)
from repro.experiments.results import RunResult
from repro.store import StoreHealth, open_store


def load_records(path):
    """A results file's key → record map and its load-time damage."""
    store = open_store(path, RunResult.from_dict)
    records = {r.key: r for r in store.iter_records()}
    return records, store.health


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="tiny",
        algorithms=["round_robin"],
        graphs=[("line", 6), ("line", 10)],
        adversaries=["none"],
        seeds=range(2),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_axis_shorthands_coerce(self):
        spec = ExperimentSpec(
            name="s",
            algorithms=["round_robin", ("harmonic", {"T": 2})],
            graphs=[GraphSpec("line", 8), {"kind": "gnp", "sizes": [16, 32]}],
            adversaries=["greedy", AdversarySpec("random", (("p", 0.3),))],
            seeds={"start": 3, "count": 2},
        )
        assert spec.algorithms[1] == AlgorithmSpec(
            "harmonic", (("T", 2),)
        )
        assert [g.n for g in spec.graphs] == [8, 16, 32]
        assert spec.adversaries[1].params == (("p", 0.3),)
        assert spec.seeds == (3, 4)

    def test_grid_size_and_order_stable(self):
        spec = tiny_spec(collision_rules=["CR1", "CR4"])
        tasks = spec.tasks()
        assert len(tasks) == spec.size == 1 * 2 * 1 * 2 * 1 * 2
        assert [t.key for t in tasks] == [t.key for t in spec.tasks()]
        assert len({t.key for t in tasks}) == len(tasks)

    def test_derived_seed_stable_and_distinct(self):
        tasks = tiny_spec().tasks()
        seeds = [t.derived_seed for t in tasks]
        assert seeds == [t.derived_seed for t in tiny_spec().tasks()]
        assert len(set(seeds)) == len(seeds)

    def test_unknown_collision_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown collision rule"):
            tiny_spec(collision_rules=["CR9"])

    def test_unknown_start_mode_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(start_modes=["sometimes"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            tiny_spec(algorithms=[])

    def test_json_roundtrip(self):
        spec = ExperimentSpec(
            name="rt",
            algorithms=[("harmonic", {"T": 3})],
            graphs=[("clique-bridge", 9)],
            adversaries=[("random", {"p": 0.25})],
            collision_rules=["CR3"],
            start_modes=["synchronous"],
            seeds=[5, 7],
            max_rounds=123,
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [t.key for t in clone.tasks()] == [
            t.key for t in spec.tasks()
        ]

    def test_unknown_spec_field_rejected(self):
        doc = tiny_spec().to_dict()
        doc["max_round"] = 5  # typo'd field must not be dropped
        with pytest.raises(ValueError, match="unknown spec field"):
            ExperimentSpec.from_dict(doc)

    def test_missing_required_spec_field_named(self):
        doc = tiny_spec().to_dict()
        del doc["algorithms"]
        with pytest.raises(
            ValueError, match="missing required spec field 'algorithms'"
        ):
            ExperimentSpec.from_dict(doc)

    def test_seed_range_without_count_named(self):
        doc = dict(tiny_spec().to_dict(), seeds={"start": 0})
        with pytest.raises(ValueError, match="seeds: missing 'count'"):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize("field", ["name", "graphs"])
    def test_every_required_spec_field_named(self, field):
        doc = tiny_spec().to_dict()
        del doc[field]
        with pytest.raises(
            ValueError, match=f"missing required spec field '{field}'"
        ):
            ExperimentSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "seeds,expected",
        [({"start": 2, "count": 3}, (2, 3, 4)), ({"count": 2}, (0, 1))],
    )
    def test_seed_range_forms(self, seeds, expected):
        doc = dict(tiny_spec().to_dict(), seeds=seeds)
        assert ExperimentSpec.from_dict(doc).seeds == expected

    @pytest.mark.parametrize("engine", ["reference", "fast", "vector"])
    def test_engine_axis_spellings(self, engine):
        """``vector`` is still accepted, as the legacy spelling whose
        ``/eng-vector`` key segment lets old result files resume."""
        task = tiny_spec(engines=[engine.upper()]).tasks()[0]
        assert task.engine == engine
        if engine == "reference":
            assert "eng-" not in task.key
        else:
            assert task.key.endswith(f"/eng-{engine}")

    @pytest.mark.parametrize("engine", ["lockstep", "numpy"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            tiny_spec(engines=[engine])

    def test_max_rounds_is_part_of_the_key(self):
        capped = tiny_spec(max_rounds=3).tasks()[0]
        uncapped = tiny_spec().tasks()[0]
        assert capped.key != uncapped.key
        assert "cap3" in capped.key

    def test_load_specs_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps(tiny_spec().to_dict()))
        assert [s.name for s in load_specs(str(single))] == ["tiny"]

        many = tmp_path / "many.json"
        many.write_text(
            json.dumps(
                [
                    tiny_spec().to_dict(),
                    tiny_spec(name="other").to_dict(),
                ]
            )
        )
        assert [s.name for s in load_specs(str(many))] == [
            "tiny", "other",
        ]


class TestRegistry:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            build_graph("nope", 8)
        with pytest.raises(ValueError, match="unknown adversary kind"):
            build_adversary("nope")

    def test_register_graph_duplicate_rejected(self):
        register_graph(
            "test-only-star", lambda n, seed, **kw: build_graph("line", n)
        )
        assert build_graph("test-only-star", 5).n == 5
        with pytest.raises(ValueError, match="already registered"):
            register_graph("test-only-star", lambda n, seed, **kw: None)

    def test_interferers_exposed_through_registry(self):
        from repro.adversaries import GreedyInterferer, PivotAdversary

        assert isinstance(build_adversary("greedy"), GreedyInterferer)
        assert isinstance(
            build_adversary("pivot", n=20), PivotAdversary
        )

    def test_pivot_adversary_usable_from_a_spec(self):
        from repro.experiments import run_sweep

        spec = ExperimentSpec(
            name="pivot-spec",
            algorithms=["round_robin"],
            graphs=[("pivot-layers", 16)],
            adversaries=[("pivot", {"n": 16})],
            collision_rules=["CR1"],
            seeds=[0],
        )
        result = run_sweep(spec)
        assert len(result) == 1
        assert result.records[0].adversary_kind == "pivot"

    def test_descriptions_cover_every_kind(self):
        from repro.experiments import ADVERSARIES, GRAPHS

        # Every built-in kind carries a one-liner (runtime-registered
        # test kinds may omit theirs).
        missing = [
            kind
            for registry in (GRAPHS, ADVERSARIES)
            for kind, entry in registry.items()
            if not entry.description and not kind.startswith("test-")
        ]
        assert not missing


class TestExecuteTask:
    def test_result_matches_task(self):
        task = tiny_spec().tasks()[0]
        result = execute_task(task)
        assert result.key == task.key
        assert result.completed
        assert result.algorithm == "round_robin"
        assert result.graph_n == 6
        assert result.completion_round <= result.rounds

    def test_round_cap_reported_as_failure(self):
        task = tiny_spec(max_rounds=1).tasks()[0]
        result = execute_task(task)
        assert not result.completed
        assert result.completion_round is None
        assert result.rounds == 1


class TestSweepRunner:
    def test_serial_run_covers_grid(self):
        spec = tiny_spec()
        result = run_sweep(spec)
        assert len(result) == spec.size
        assert result.executed == spec.size
        assert result.resumed == 0
        assert not result.failures

    def test_duplicate_task_keys_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="duplicate task key"):
            SweepRunner([spec, spec]).run()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(tiny_spec(), workers=0)

    def test_determinism_across_worker_counts(self):
        """Regression: 1 worker and N workers yield identical records."""
        spec = ExperimentSpec(
            name="det",
            algorithms=["round_robin", ("harmonic", {"T": 2})],
            graphs=[("line", 8), ("clique-bridge", 9)],
            adversaries=["greedy"],
            seeds=range(3),
        )
        serial = SweepRunner(spec, workers=1).run()
        parallel = SweepRunner(spec, workers=2, chunksize=2).run()
        assert serial.records == parallel.records

    def test_resume_skips_finished_tasks(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.jsonl"
        first = run_sweep(spec, results_path=str(path))
        assert (first.executed, first.resumed) == (spec.size, 0)

        second = run_sweep(spec, results_path=str(path))
        assert (second.executed, second.resumed) == (0, spec.size)
        assert second.records == first.records

    def test_resume_reruns_only_missing_tasks(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.jsonl"
        run_sweep(spec, results_path=str(path))

        # Drop the last record and tear the line before it, as an
        # interrupt mid-write would.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:15])

        resumed = run_sweep(spec, results_path=str(path))
        assert resumed.resumed == spec.size - 2
        assert resumed.executed == 2
        assert len(load_records(str(path))[0]) == spec.size

    def test_changed_round_cap_invalidates_old_records(self, tmp_path):
        """Raising max_rounds must re-run, not resume, capped records."""
        path = tmp_path / "results.jsonl"
        capped = run_sweep(tiny_spec(max_rounds=1), results_path=str(path))
        assert capped.failure_count == len(capped)

        retried = run_sweep(tiny_spec(), results_path=str(path))
        assert retried.resumed == 0
        assert retried.executed == tiny_spec().size
        assert not retried.failures

    def test_load_records_missing_file(self, tmp_path):
        loaded, health = load_records(str(tmp_path / "absent.jsonl"))
        assert loaded == {}
        assert health == StoreHealth()

    def test_load_records_counts_torn_and_foreign_lines(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.jsonl"
        run_sweep(spec, results_path=str(path))

        lines = path.read_text().splitlines()
        damaged = (
            "\n".join(lines[:-1])
            + "\nnot json at all\n"
            + '{"foreign": "document"}\n'
            + lines[-1][:12]
        )
        path.write_text(damaged)

        loaded, health = load_records(str(path))
        assert len(loaded) == spec.size - 1  # the torn record is gone
        assert health.skipped_lines == 3

        resumed = run_sweep(spec, results_path=str(path))
        assert resumed.skipped_lines == 3
        assert resumed.executed == 1

    def test_progress_callback_sees_every_task(self):
        seen = []
        spec = tiny_spec()
        run_sweep(
            spec,
            progress=lambda rec, done, total: seen.append(
                (rec.key, done, total)
            ),
        )
        assert len(seen) == spec.size
        assert seen[-1][1:] == (spec.size, spec.size)


class TestSweepResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(
            ExperimentSpec(
                name="agg",
                algorithms=["round_robin"],
                graphs=[("line", 6), ("line", 12)],
                adversaries=["none"],
                seeds=range(2),
            )
        )

    def test_filter_and_group(self, result):
        assert len(result.filter(n=6)) == 2
        assert set(result.group_by("n")) == {6, 12}

    def test_summaries_and_quantiles(self, result):
        by_n = result.summarize_by("n")
        # Round robin on a longer line takes more rounds.
        assert by_n[12].mean > by_n[6].mean
        assert result.completion_quantile(1.0) == max(
            result.completion_rounds()
        )

    def test_table_rows(self, result):
        rows = result.table_rows()
        assert len(rows) == 2  # one per (sweep, algorithm, graph, n)
        assert rows[0][:4] == ["agg", "round_robin", "line", 6]
        assert all(row[5] == 0 for row in rows)  # nothing capped

    def test_failures_surface_in_table(self):
        capped = run_sweep(tiny_spec(max_rounds=1))
        assert capped.failure_count == capped.records.__len__()
        assert all(row[4] == "—" for row in capped.table_rows())
        assert SweepResult(capped.records).failures == capped.failures
