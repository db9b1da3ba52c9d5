"""Batched sweep execution: equivalence, resume granularity, healing.

The batching contract: grouping tasks into per-graph batches is *pure
scheduling*.  A batched sweep must emit records byte-identical to
running :func:`execute_task` on every task, for any worker count; a
batch interrupted midway must resume with only its missing tasks;
each graph instance is built once per dispatch unit, and no unit
holds more tasks than the largest pending science cell; and torn-line
healing must keep working under batch appends.
"""

import collections
import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    GraphBatch,
    SweepRunner,
    execute_batch,
    execute_task,
    graph_seed_dependent,
    plan_batches,
    register_graph,
)
from repro.experiments import runner as runner_module
from repro.experiments.results import RunResult
from repro.graphs import line
from repro.sim import (
    EngineConfig,
    build_engine,
    compile_topology,
    trace_to_json,
)
from repro.store import open_store
def grid_spec(**overrides) -> ExperimentSpec:
    """A small multi-cell grid exercising engines and collision rules."""
    base = dict(
        name="batchgrid",
        algorithms=["round_robin", ("harmonic", {"T": 2})],
        graphs=[("line", 8), ("clique-bridge", 9)],
        adversaries=["greedy"],
        collision_rules=["CR2", "CR4"],
        engines=["fast"],
        seeds=range(3),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def adversarial_spec() -> ExperimentSpec:
    """Seed-dependent graphs under CR4 with window churn: 16 cells of 3
    seeds on 6 graph instances, 8 tasks each, round caps derived."""
    return ExperimentSpec(
        name="graphunits",
        algorithms=["decay", ("harmonic", {"T": 2})],
        graphs=[("gnp", 16), ("gray-zone", 16)],
        adversaries=["random", "greedy"],
        collision_rules=["CR4"],
        engines=["fast"],
        churns=[
            "none", ("window", {"count": 2, "start": 3, "length": 5}),
        ],
        seeds=range(3),
    )


def count_builds(monkeypatch) -> list:
    """Record the (kind, n, seed) of every graph the runner builds."""
    calls = []
    real = runner_module.build_graph

    def counting(kind, n, seed=0, **params):
        calls.append((kind, n, seed))
        return real(kind, n, seed=seed, **params)

    monkeypatch.setattr(runner_module, "build_graph", counting)
    return calls


def per_task(spec: ExperimentSpec) -> list:
    """The spec's records run one task at a time, key-sorted."""
    return sorted(
        (execute_task(t) for t in spec.tasks()), key=lambda r: r.key
    )


def sorted_lines(path) -> list:
    """The results file's non-empty lines, key-sorted."""
    lines = [
        ln for ln in path.read_text(encoding="utf-8").splitlines() if ln
    ]
    return sorted(lines, key=lambda ln: json.loads(ln)["key"])


class TestPlanning:
    def test_plan_batches_groups_by_graph(self):
        spec = grid_spec()
        tasks = spec.tasks()
        batches = plan_batches(tasks)
        # 2 algorithms x 2 rules x 3 seeds = 12 tasks on each of the two
        # seed-independent graphs, split at the 3-seed cell size.
        assert len(batches) == 8
        assert all(len(b) == 3 for b in batches)
        assert sorted(t.key for b in batches for t in b.tasks) == sorted(
            t.key for t in tasks
        )
        for b in batches:
            assert len({t.graph_key for t in b.tasks}) == 1
        # Batches appear in first-appearance order of their graphs and
        # keep the spec's task order inside each graph.
        assert [t.key for b in batches for t in b.tasks] == [
            t.key
            for graph in dict.fromkeys(t.graph_key for t in tasks)
            for t in tasks
            if t.graph_key == graph
        ]

    def test_graph_key_drops_seed_only_for_seed_independent_kinds(self):
        line_a, line_b = grid_spec(seeds=[4, 9]).tasks()[:2]
        assert line_a.graph_key == line_b.graph_key
        gnp_a, gnp_b = grid_spec(
            graphs=[("gnp", 12)], seeds=[4, 9]
        ).tasks()[:2]
        assert gnp_a.graph_key != gnp_b.graph_key
        # Everything but the graph inputs is ignored.
        other = grid_spec(
            algorithms=["decay"], adversaries=["random"],
            collision_rules=["CR3"], engines=["reference"],
            max_rounds=7, seeds=[4],
        ).tasks()[0]
        assert other.graph_key == line_a.graph_key
        sized = grid_spec(graphs=[("line", 9)]).tasks()[0]
        assert sized.graph_key != line_a.graph_key

    def test_cell_key_drops_only_the_seed(self):
        a, b = grid_spec(seeds=[4, 9]).tasks()[:2]
        assert a.cell_key == b.cell_key
        assert a.key != b.key
        assert "s4" in a.key and "s4" not in a.cell_key

    def test_cell_key_separates_engines_and_caps(self):
        fast = grid_spec().tasks()[0]
        ref = grid_spec(engines=["reference"]).tasks()[0]
        capped = grid_spec(max_rounds=7).tasks()[0]
        assert len({fast.cell_key, ref.cell_key, capped.cell_key}) == 3
        assert "eng-fast" in fast.cell_key
        assert "cap7" in capped.cell_key

    def test_split_preserves_tasks_and_order(self):
        spec = grid_spec(seeds=range(10))
        batch = plan_batches(spec.tasks())[0]
        subs = batch.split(4)
        assert [len(s) for s in subs] == [4, 4, 2]
        assert [t.key for s in subs for t in s.tasks] == [
            t.key for t in batch.tasks
        ]
        assert {t.graph_key for s in subs for t in s.tasks} == {
            batch.tasks[0].graph_key
        }
        with pytest.raises(ValueError, match="max_size"):
            batch.split(0)

    def test_single_cell_sweep_spreads_across_workers(self):
        """A one-cell many-seed sweep must not serialise on a pool."""
        spec = ExperimentSpec(
            name="onecell",
            algorithms=["round_robin"],
            graphs=[("line", 6)],
            adversaries=["none"],
            seeds=range(20),
        )
        runner = SweepRunner(spec, workers=2)
        units = runner._plan_units(spec.tasks())
        # ceil(20 / (2 workers * 2)) = 5 seeds per sub-batch: 4 units.
        assert len(units) == 4
        assert [len(u) for u in units] == [5, 5, 5, 5]
        # Many small cells stay unsplit (splitting only engages when
        # cells alone cannot occupy the workers).
        grid = grid_spec()  # 8 cells x 3 seeds
        assert [
            len(u)
            for u in SweepRunner(grid, workers=2)._plan_units(
                grid.tasks()
            )
        ] == [3] * 8
        # Serial runs keep one batch per cell for maximal amortisation.
        assert len(SweepRunner(spec)._plan_units(spec.tasks())) == 1
        # And the split path still produces the canonical records.
        assert SweepRunner(spec, workers=2).run().records == per_task(
            spec
        )

    def test_mixed_graph_batch_rejected(self):
        t1, t2 = grid_spec().tasks()[0], grid_spec().tasks()[-1]
        with pytest.raises(ValueError, match="mixes graph instances"):
            GraphBatch((t1, t2))
        with pytest.raises(ValueError, match="at least one task"):
            GraphBatch(())
        # Different cells on one graph make a valid batch.
        other_cell = grid_spec(algorithms=["decay"]).tasks()[0]
        assert len(GraphBatch((t1, other_cell))) == 2


class TestBatchExecution:
    def test_execute_batch_matches_execute_task(self):
        for batch in plan_batches(grid_spec().tasks()):
            assert execute_batch(batch) == [
                execute_task(t) for t in batch.tasks
            ]

    @pytest.mark.parametrize("make_spec", [grid_spec, adversarial_spec])
    def test_batched_vs_per_task_identical_jsonl(self, tmp_path, make_spec):
        spec = make_spec()
        files = {}
        for label, workers in (("serial", 1), ("pool", 2)):
            path = tmp_path / f"{label}.jsonl"
            result = SweepRunner(
                spec, workers=workers, results_path=str(path)
            ).run()
            assert result.executed == spec.size
            files[label] = sorted_lines(path)
        per_task_lines = [
            json.dumps(r.to_dict(), sort_keys=True) for r in per_task(spec)
        ]
        assert files["serial"] == files["pool"]
        assert files["serial"] == per_task_lines

    def test_seed_dependent_graph_rebuilt_per_seed(self):
        """gnp cells must not share one graph across their seeds."""
        spec = ExperimentSpec(
            name="gnpgrid",
            algorithms=["round_robin"],
            graphs=[{"kind": "gnp", "n": 12, "params": {"p_reliable": 0.4}}],
            adversaries=["none"],
            seeds=range(4),
        )
        batched = SweepRunner(spec).run()
        assert batched.records == per_task(spec)
        # Different seeds genuinely produce different executions, so a
        # wrongly shared graph could not have survived the comparison.
        assert len({r.completion_round for r in batched.records}) > 1

    @pytest.mark.parametrize("graph_kind", ["gnp", "gray-zone"])
    def test_seed_dependent_fast_cell_matches_reference(self, graph_kind):
        """A seed-dependent cell on the fast engine batches to the
        per-task records and to the reference engine's science."""
        def spec_on(engine):
            return ExperimentSpec(
                name="seeddep",
                algorithms=[("harmonic", {"T": 2})],
                graphs=[(graph_kind, 12)],
                adversaries=["greedy"],
                collision_rules=["CR3"],
                engines=[engine],
                seeds=range(3),
            )

        fast = SweepRunner(spec_on("fast")).run().records
        assert all(r.engine == "fast" for r in fast)
        assert fast == per_task(spec_on("fast"))
        ref = SweepRunner(spec_on("reference")).run().records
        assert [
            (r.completed, r.completion_round, r.total_transmissions)
            for r in fast
        ] == [
            (r.completed, r.completion_round, r.total_transmissions)
            for r in ref
        ]

    def test_batch_interrupted_mid_cell_resumes_missing_seeds(
        self, tmp_path
    ):
        spec = grid_spec()
        path = tmp_path / "results.jsonl"
        reference = SweepRunner(spec, results_path=str(path)).run()

        # Simulate a kill mid-cell: drop one full cell plus one seed of
        # another cell (batch flushes are per-record, so a partial cell
        # on disk is exactly what an interrupt leaves).
        batches = plan_batches(spec.tasks())
        lost = {t.key for t in batches[0].tasks}
        lost.add(batches[1].tasks[-1].key)
        kept = [
            ln
            for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and json.loads(ln)["key"] not in lost
        ]
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")

        resumed = SweepRunner(spec, results_path=str(path)).run()
        assert resumed.executed == len(lost)
        assert resumed.resumed == spec.size - len(lost)
        assert resumed.records == reference.records
        store = open_store(str(path), RunResult.from_dict)
        assert len(store.claim_keys()) == spec.size

    def test_torn_line_healed_under_batch_appends(self, tmp_path):
        spec = grid_spec()
        path = tmp_path / "results.jsonl"
        reference = SweepRunner(spec, results_path=str(path)).run()

        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][:20],
            encoding="utf-8",
        )

        resumed = SweepRunner(spec, results_path=str(path)).run()
        assert resumed.executed == 1
        assert resumed.skipped_lines == 1  # the torn line was counted
        assert resumed.records == reference.records
        store = open_store(str(path), RunResult.from_dict)
        assert len(store.claim_keys()) == spec.size
        # The torn fragment stays behind as its own (unparsable) line —
        # healing only guarantees the next append starts fresh — so it
        # keeps being counted, never silently vanishes.
        assert store.health.skipped_lines == 1


class TestGraphUnits:
    def test_one_build_per_graph_unit(self, monkeypatch):
        spec = adversarial_spec()
        tasks = spec.tasks()
        largest_cell = max(
            collections.Counter(t.cell_key for t in tasks).values()
        )
        per_graph = collections.Counter(t.graph_key for t in tasks)
        expected = sum(-(-c // largest_cell) for c in per_graph.values())
        # 6 graph instances of 8 tasks, capped at 3: 3 units each.
        assert (len(per_graph), largest_cell, expected) == (6, 3, 18)
        calls = count_builds(monkeypatch)
        SweepRunner(spec).run()
        assert len(calls) == expected
        assert len(set(calls)) == len(per_graph)

    def test_seed_independent_graph_shared_across_cells(self, monkeypatch):
        big = ExperimentSpec(
            name="big",
            algorithms=["round_robin"],
            graphs=[("line", 8)],
            adversaries=["none"],
            seeds=range(4),
        )
        small = ExperimentSpec(
            name="small",
            algorithms=["round_robin", ("harmonic", {"T": 2})],
            graphs=[("line", 8)],
            adversaries=["greedy"],
            seeds=range(2),
        )
        batches = plan_batches(big.tasks() + small.tasks())
        assert [len(b) for b in batches] == [4, 4]
        assert len({t.cell_key for t in batches[1].tasks}) == 2
        calls = count_builds(monkeypatch)
        result = SweepRunner([big, small]).run()
        assert len(calls) == 2  # three cells, two units
        monkeypatch.undo()
        assert result.records == sorted(
            per_task(big) + per_task(small), key=lambda r: r.key
        )

    def test_resume_runs_exactly_the_missing_keys(
        self, tmp_path, monkeypatch
    ):
        spec = adversarial_spec()
        path = tmp_path / "results.jsonl"
        reference = SweepRunner(spec, results_path=str(path)).run()
        # Every third record lost: the gaps cut through every unit.
        lines = sorted_lines(path)
        lost = {json.loads(ln)["key"] for ln in lines[::3]}
        path.write_text(
            "".join(
                ln + "\n" for ln in lines
                if json.loads(ln)["key"] not in lost
            ),
            encoding="utf-8",
        )
        ran = []
        real = runner_module._execute_on

        def recording(task, *args):
            ran.append(task.key)
            return real(task, *args)

        monkeypatch.setattr(runner_module, "_execute_on", recording)
        resumed = SweepRunner(spec, results_path=str(path)).run()
        assert sorted(ran) == sorted(lost)
        assert resumed.executed == len(lost)
        assert resumed.records == reference.records

    def test_no_unit_exceeds_largest_pending_cell(self):
        spec = adversarial_spec()
        tasks = spec.tasks()
        # The full grid, a resume with uneven cells, and a resume that
        # leaves one task per graph.
        pendings = [
            tasks,
            [t for i, t in enumerate(tasks) if i % 5],
            list({t.graph_key: t for t in tasks}.values()),
        ]
        for pending in pendings:
            largest_cell = max(
                collections.Counter(t.cell_key for t in pending).values()
            )
            for workers in (1, 2):
                units = SweepRunner(spec, workers=workers)._plan_units(
                    pending
                )
                assert max(len(u) for u in units) <= largest_cell
                assert sorted(t.key for u in units for t in u.tasks) == (
                    sorted(t.key for t in pending)
                )


class TestSeedDependenceRegistry:
    def test_builtin_kinds_classified(self):
        assert graph_seed_dependent("gnp")
        assert graph_seed_dependent("gray-zone")
        for kind in ("line", "ring", "grid", "clique-bridge",
                     "hard-line", "layered-pairs", "pivot-layers"):
            assert not graph_seed_dependent(kind), kind

    def test_unknown_kind_is_safe(self):
        assert graph_seed_dependent("no-such-kind")

    def test_runtime_registration_defaults_to_dependent(self):
        register_graph(
            "test-batch-dep", lambda n, seed, **kw: line(n)
        )
        assert graph_seed_dependent("test-batch-dep")
        register_graph(
            "test-batch-indep",
            lambda n, seed, **kw: line(n),
            seed_dependent=False,
        )
        assert not graph_seed_dependent("test-batch-indep")


class TestCompiledTopology:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_shared_topology_identical_traces(self, engine, tiny_line):
        from repro.core.runner import make_processes

        graph = tiny_line
        topology = compile_topology(graph)
        traces = []
        for topo in (None, topology, topology):  # reuse twice
            eng = build_engine(
                graph,
                make_processes("round_robin", graph.n),
                config=EngineConfig(seed=3, engine=engine),
                topology=topo,
            )
            traces.append(trace_to_json(eng.run()))
        assert traces[0] == traces[1] == traces[2]

    def test_mismatched_topology_rejected(self, tiny_line):
        from repro.core.runner import make_processes

        topology = compile_topology(tiny_line)
        other = line(tiny_line.n)  # equal structure, different object
        with pytest.raises(ValueError, match="different graph"):
            build_engine(
                other,
                make_processes("round_robin", other.n),
                topology=topology,
            )

    def test_topology_matches_engine_internals(self):
        graph = line(5)
        topology = compile_topology(graph)
        assert topology.bit == [1, 2, 4, 8, 16]
        assert topology.reach_mask[0] == 0b00011
        assert topology.reach_mask[2] == 0b01110
        assert topology.reliable_out_seq[1] == (0, 2)


class TestChunkCap:
    def test_derived_chunksize_spreads_few_pending(self):
        runner = SweepRunner(grid_spec(), workers=2)
        # 9 pending units on 2 workers: at most the fair share of 4
        # per chunk, so both workers stay busy.
        assert runner._dispatch_chunksize(9) <= 4
        assert runner._dispatch_chunksize(1) == 1


class TestObserverBatching:
    @pytest.mark.parametrize("engine", ["fast"])
    def test_batching_with_observer_processes(self, engine):
        """Cells whose processes observe silence batch identically."""
        spec = ExperimentSpec(
            name="dec",
            algorithms=["decay"],
            graphs=[("clique-bridge", 9)],
            adversaries=["none"],
            engines=[engine],
            seeds=range(3),
            max_rounds=64,
        )
        assert SweepRunner(spec).run().records == per_task(spec)
