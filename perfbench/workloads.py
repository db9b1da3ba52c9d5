"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload generates its inputs from the workload seed alone
(:meth:`Workload.prepare`), then :meth:`Workload.run_once` runs one
closed-loop pass over them through the public ``repro`` API and returns
the pass's wall time, its unit count and its science outputs.  All
sweeps and searches use ``engines=["fast"]``; none uses the vector
engine or the lockstep evaluator.

Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: The seed whose outputs are pinned in ``perfbench/expected/``.
PINNED_SEED = 0
#: A seed no tuning used; a speed claim must also hold on it.
HELD_OUT_SEED = 1

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Science fields of a sweep record that the correctness gate compares.
SCIENCE_FIELDS = (
    "completed",
    "completion_round",
    "rounds",
    "total_transmissions",
)

_clock = time.perf_counter

#: Every workload runs on one worker (see ``README.md``: a pool could
#: not be made steady on the reference host).
WORKERS = 1


@dataclass
class Pass:
    """One timed pass of a workload.

    Attributes:
        units: Tasks, candidates or records the pass completed.
        start: ``time.perf_counter()`` when the timed region began.
        wall_s: Wall time of the timed region.
        outputs: Comparable science outputs, by key.
        problems: Failed structural checks, one line each.
        events_path: The telemetry stream the pass wrote, if any.
        pass_dir: The directory the pass wrote into.
        trace: The pass's trace data, when it ran traced.
    """

    units: int
    start: float
    wall_s: float
    outputs: Dict[str, list]
    problems: List[str] = field(default_factory=list)
    events_path: Optional[Path] = None
    pass_dir: Optional[Path] = None
    trace: Any = None
    #: Wall time at the reference speed (see ``speed.py``).
    ref_s: float = 0.0
    #: The process's peak resident memory (MB) when the pass ended.
    peak_mb: float = 0.0


class Workload:
    """Base class: a named input generator plus its timed pass."""

    name = ""
    #: What one unit of work is, for the human-readable metric name.
    unit = "tasks"
    #: Whether the pinned seed's outputs are kept in ``expected/``.
    pinned = True

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.size = size
        self.inputs: Optional[Path] = None

    def prepare(self, inputs: Path) -> None:
        """Write the generated inputs (and the set-up probe's plan)."""
        raise NotImplementedError

    def run_once(self, pass_dir: Path) -> Pass:
        """Run one timed pass against the prepared inputs."""
        raise NotImplementedError

    def cells(self) -> List[str]:
        """The workload's cell list, for provenance."""
        raise NotImplementedError

    def sample_check(self, outputs: Dict[str, list]) -> Tuple[int, List[str]]:
        """Re-check a fixed sample on the reference engine (untimed).

        Returns ``(checked, problems)``.
        """
        return 0, []

    def final_check(self, pass_dir: Path) -> List[str]:
        """Checks on the last pass's files (untimed)."""
        return []

    def expected_path(self) -> Optional[Path]:
        """Where the pinned outputs live (``None``: not pinned)."""
        if not self.pinned or self.seed != PINNED_SEED or self.size != "full":
            return None
        return EXPECTED_DIR / f"{self.name}-{self.size}-seed{self.seed}.json"

    def reference_outputs(self) -> Dict[str, list]:
        """The outputs recomputed on the reference engine (slow)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _seeds(seed: int, count: int) -> Dict[str, int]:
    return {"start": seed * 1000, "count": count}


def _sweep_spec(
    name: str,
    algorithms: list,
    graph: Tuple[str, int],
    adversaries: list,
    rule: str,
    seeds: Dict[str, int],
    max_rounds: Optional[int],
    churns: Optional[list] = None,
) -> Dict[str, Any]:
    return {
        "name": name,
        "algorithms": algorithms,
        "graphs": [{"kind": graph[0], "n": graph[1]}],
        "adversaries": adversaries,
        "collision_rules": [rule],
        "engines": ["fast"],
        "churns": churns or ["none"],
        "seeds": seeds,
        "max_rounds": max_rounds,
    }


class SweepWorkload(Workload):
    """A sweep through ``SweepRunner`` into a sharded store, then a report.

    The timed region runs from ``SweepRunner.run()`` until the campaign
    report (and, with telemetry on, its perf panel) is rendered.
    """

    events = False

    def spec_docs(self) -> List[Dict[str, Any]]:
        """The generated spec documents."""
        raise NotImplementedError

    def prepare(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        self.inputs = inputs
        (inputs / "specs.json").write_text(
            json.dumps(self.spec_docs(), indent=1), encoding="utf-8"
        )
        (inputs / "probe.json").write_text(
            json.dumps(
                {
                    "kind": "sweep",
                    "specs": str(inputs / "specs.json"),
                }
            ),
            encoding="utf-8",
        )
        # Task key -> science key, expanded here so a traced pass
        # records no expansion outside its timed region.
        self.science = {t.key: t.science_key for t in self.tasks()}

    def _specs(self):
        from repro.experiments import load_specs

        assert self.inputs is not None, "prepare() first"
        return load_specs(str(self.inputs / "specs.json"))

    def tasks(self):
        """The expanded task list (untimed helper)."""
        return [t for spec in self._specs() for t in spec.tasks()]

    def cells(self) -> List[str]:
        seen: Dict[str, None] = {}
        for task in self.tasks():
            seen.setdefault(task.cell_key, None)
        return list(seen)

    def run_once(self, pass_dir: Path) -> Pass:
        from repro.analysis.report import CampaignReport
        from repro.experiments import RunResult, SweepRunner
        from repro.obs import (
            JsonlTelemetry,
            events_path,
            merge_event_files,
            perf_summary,
            render_perf_panel,
            use,
        )
        from repro.store import open_store

        specs = self._specs()
        science = self.science
        results = str(pass_dir / "campaign") + os.sep
        stream = None
        start = _clock()
        runner = SweepRunner(
            specs, workers=WORKERS, results_path=results,
            store="sharded",
        )
        if self.events:
            # The ``repro sweep --events`` path: the stream lives inside
            # the campaign directory; worker streams merge at the end.
            os.makedirs(results, exist_ok=True)
            stream = events_path(results)
            sink = JsonlTelemetry(stream)
            try:
                with use(sink):
                    result = runner.run()
            finally:
                sink.close()
                merge_event_files(results)
        else:
            result = runner.run()
        store = open_store(
            results, parse=RunResult.from_dict, backend="sharded"
        )
        report = CampaignReport.from_store(store)
        text = report.render(title=f"campaign {results}")
        if self.events:
            text += "\n" + render_perf_panel(perf_summary(results))
        wall = _clock() - start

        problems = []
        total = len(science)
        if result.executed != total or result.resumed != 0:
            problems.append(
                f"sweep executed {result.executed} and resumed "
                f"{result.resumed}; expected {total} and 0"
            )
        if report.records != total:
            problems.append(
                f"report folded {report.records} records, expected {total}"
            )
        outputs = {
            science[r.key]: [getattr(r, f) for f in SCIENCE_FIELDS]
            for r in result.records
        }
        return Pass(total, start, wall, outputs, problems, stream)

    def reference_outputs(self) -> Dict[str, list]:
        from repro.experiments import ExperimentSpec, SweepRunner

        specs = [
            ExperimentSpec.from_dict(dict(doc, engines=["reference"]))
            for doc in self.spec_docs()
        ]
        result = SweepRunner(specs).run()
        # Reference-engine keys carry no engine segment: they are the
        # science keys the fast records are compared under.
        return {
            r.key: [getattr(r, f) for f in SCIENCE_FIELDS]
            for r in result.records
        }

    def sample(self) -> list:
        """A fixed sample: the first task of four evenly spread cells.

        On sweep-adversarial the four cover both algorithms, both
        graphs, both adversaries and both churn kinds.
        """
        firsts: Dict[str, Any] = {}
        for task in self.tasks():
            firsts.setdefault(task.cell_key, task)
        cells = list(firsts.values())
        picks = sorted({round(i * (len(cells) - 1) / 3) for i in range(4)})
        return [cells[i] for i in picks]

    def sample_check(self, outputs: Dict[str, list]) -> Tuple[int, List[str]]:
        problems = []
        sample = self.sample()
        for task in sample:
            got = outputs.get(task.science_key)
            want, violations = reference_run(task)
            if got != want:
                problems.append(
                    f"{task.key}: fast {got} != reference {want}"
                )
            problems.extend(f"{task.key}: {v}" for v in violations[:3])
        return len(sample), problems


def reference_run(task) -> Tuple[list, List[str]]:
    """Re-run one sweep task on the reference engine and validate it.

    Builds the same inputs the sweep runner builds for the task (graph,
    key-derived seed, round cap, churn schedule), records receptions,
    and passes the trace through the independent validator.  Returns
    the science fields and the validator's violations.
    """
    from repro.core.runner import make_processes, suggested_round_limit
    from repro.experiments.registry import (
        build_adversary,
        build_churn,
        build_graph,
    )
    from repro.sim.collision import CollisionRule
    from repro.sim.engine import EngineConfig, StartMode, build_engine
    from repro.sim.validation import validate_execution

    graph = build_graph(
        task.graph_kind, task.n, seed=task.seed, **dict(task.graph_params)
    )
    cap = task.max_rounds
    if cap is None:
        cap = suggested_round_limit(task.algorithm, graph)
    seed = task.derived_seed
    churn = build_churn(
        task.churn_kind, n=graph.n, rounds=cap, seed=seed,
        **dict(task.churn_params),
    )
    rule = CollisionRule[task.collision_rule]
    mode = StartMode(task.start_mode)
    engine = build_engine(
        graph,
        make_processes(
            task.algorithm, graph.n, **dict(task.algorithm_params)
        ),
        build_adversary(
            task.adversary_kind, seed=seed, **dict(task.adversary_params)
        ),
        EngineConfig(
            collision_rule=rule,
            start_mode=mode,
            max_rounds=cap,
            seed=seed,
            record_receptions=True,
            engine="reference",
            churn=churn,
        ),
    )
    trace = engine.run()
    fields = [
        trace.completed,
        trace.completion_round,
        trace.num_rounds,
        sum(trace.sender_counts()),
    ]
    return fields, validate_execution(trace, graph, rule, mode, churn=churn)


class DeterministicSweep(SweepWorkload):
    """Three deterministic cells under CR3, no adversary, one worker."""

    name = "sweep-deterministic"

    def spec_docs(self) -> List[Dict[str, Any]]:
        if self.size == "full":
            cells = [
                ("strong_select", ("grid", 196), None, 3),
                ("round_robin", ("line", 1000), None, 4),
                # The wide cell: engine construction dominates.
                ("round_robin", ("line", 10_000), 30, 8),
            ]
        else:
            cells = [
                ("strong_select", ("grid", 16), None, 1),
                ("round_robin", ("line", 50), None, 2),
                ("round_robin", ("line", 500), 30, 2),
            ]
        return [
            _sweep_spec(
                f"det-{alg}-{graph[0]}{graph[1]}",
                [alg],
                graph,
                ["none"],
                "CR3",
                _seeds(self.seed, count),
                cap,
            )
            for alg, graph, cap, count in cells
        ]


class AdversarialSweep(SweepWorkload):
    """Randomized algorithms against real adversaries under CR4 + churn."""

    name = "sweep-adversarial"
    events = True

    def spec_docs(self) -> List[Dict[str, Any]]:
        graphs = (
            [("gnp", 300), ("gray-zone", 64)]
            if self.size == "full"
            else [("gnp", 40), ("gray-zone", 16)]
        )
        # Both graph kinds are drawn per seed, and one instance can run
        # 5% slower than another: 5 seeds per cell average that out.
        count = 5 if self.size == "full" else 1
        docs = []
        for graph in graphs:
            # About a tenth of the nodes go down for 20 rounds from
            # round 3.  Every cell has an explicit round cap: churn
            # cells without one can run for minutes.
            window = {
                "kind": "window",
                "params": {"count": graph[1] // 10, "start": 3, "length": 20},
            }
            docs.append(
                _sweep_spec(
                    f"adv-{graph[0]}{graph[1]}",
                    ["decay", {"name": "harmonic", "params": {"T": 2}}],
                    graph,
                    ["random", "greedy"],
                    "CR4",
                    _seeds(self.seed, count),
                    400,
                    churns=["none", window],
                )
            )
        return docs


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------
class AdversarySearch(Workload):
    """Two ``run_search`` cells, sandbox evaluator, replay-verified."""

    name = "search-adversary"
    unit = "candidates"
    batch_size = 16

    def search_docs(self) -> List[Dict[str, Any]]:
        """The generated searches: each cell split into seeded searches.

        The cells (networks, caps, engine seeds) are fixed; the workload
        seed picks the search seeds, which draw every candidate.  Cell A
        (512 candidates) runs as 16 searches of 32 and cell B (1024) as
        32 of 32.  A local-search trajectory's candidates run long or
        short together, so a pass's cost depends on its seed; over
        seeds 20-29 the total engine rounds of a pass spread by 0.087
        (quartile distance / median) with 4 + 8 searches of 64, and by
        0.052 with these 16 + 32.
        """
        full = self.size == "full"
        cells = [
            (
                "A-harmonic-clique-bridge33",
                {
                    "algorithm": "harmonic",
                    "algorithm_params": {"T": 2},
                    "graph_kind": "clique-bridge",
                    "n": 33,
                    "collision_rule": "CR4",
                    "max_rounds": 120,
                },
                "random",
                16 if full else 1,
            ),
            (
                "B-decay-gnp32",
                {
                    "algorithm": "decay",
                    "graph_kind": "gnp",
                    "n": 32,
                    "collision_rule": "CR4",
                    "max_rounds": 60,
                },
                "local",
                32 if full else 1,
            ),
        ]
        docs = []
        for name, settings, searcher, count in cells:
            for k in range(count):
                seed = self.seed * 100 + k
                docs.append(
                    {
                        "name": f"{name}/search{seed}",
                        "settings": dict(settings, engine="fast", seed=0),
                        "searcher": searcher,
                        "seed": seed,
                        "candidates": 32,
                    }
                )
        return docs

    def prepare(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        self.inputs = inputs
        doc = {
            "kind": "search",
            "batch_size": self.batch_size,
            "searches": self.search_docs(),
        }
        (inputs / "searches.json").write_text(
            json.dumps(doc, indent=1), encoding="utf-8"
        )
        (inputs / "probe.json").write_text(
            json.dumps(doc), encoding="utf-8"
        )

    def _searches(self) -> Tuple[Dict[str, Any], list]:
        from repro.search import SearchSettings

        assert self.inputs is not None, "prepare() first"
        doc = json.loads((self.inputs / "searches.json").read_text("utf-8"))
        searches = [
            (search, SearchSettings(**search["settings"]))
            for search in doc["searches"]
        ]
        return doc, searches

    def cells(self) -> List[str]:
        return [
            f"{settings.key}/{search['searcher']}/r{search['seed']}"
            f"/{search['candidates']}"
            for search, settings in self._searches()[1]
        ]

    def _run(self, search, settings, batch_size: int, **kwargs):
        from repro.search import SearchBudget, run_search

        return run_search(
            settings,
            searcher=search["searcher"],
            budget=SearchBudget(
                evaluations=search["candidates"], batch_size=batch_size
            ),
            seed=search["seed"],
            **kwargs,
        )

    def run_once(self, pass_dir: Path) -> Pass:
        doc, searches = self._searches()
        results = []
        start = _clock()
        for search, settings in searches:
            results.append(
                self._run(
                    search,
                    settings,
                    doc["batch_size"],
                    workers=WORKERS,
                    results_path=str(pass_dir / search["name"]) + os.sep,
                    store="sharded",
                    verify=True,
                )
            )
        wall = _clock() - start

        problems = []
        outputs = {}
        self._best = {}
        for (search, settings), result in zip(searches, results):
            name = search["name"]
            if result.executed != search["candidates"]:
                problems.append(
                    f"{name}: scored {result.executed} of "
                    f"{search['candidates']} candidates"
                )
            if not result.replay_verified:
                problems.append(f"{name}: replay certification failed")
            outputs[name] = [result.best.objective, result.best.completed]
            self._best[name] = (settings, result.best.genome)
        units = sum(search["candidates"] for search, _ in searches)
        return Pass(units, start, wall, outputs, problems)

    def reference_outputs(self) -> Dict[str, list]:
        import dataclasses

        doc, searches = self._searches()
        outputs = {}
        for search, settings in searches:
            result = self._run(
                search,
                dataclasses.replace(settings, engine="reference"),
                doc["batch_size"],
            )
            outputs[search["name"]] = [
                result.best.objective,
                result.best.completed,
            ]
        return outputs

    def sample_check(self, outputs: Dict[str, list]) -> Tuple[int, List[str]]:
        """Re-score each cell's best genome on the reference engine."""
        import dataclasses

        from repro.search.evaluate import EvaluationContext, score_from_trace
        from repro.sim.collision import CollisionRule
        from repro.sim.engine import StartMode
        from repro.sim.validation import validate_execution

        problems = []
        for name, (settings, genome) in self._best.items():
            ctx = EvaluationContext(
                dataclasses.replace(settings, engine="reference")
            )
            trace, _ = ctx.run_genome(
                genome, engine="reference", record_receptions=True
            )
            score = score_from_trace(genome, trace, ctx.round_cap, "reference")
            want = [score.objective, score.completed]
            if outputs.get(name) != want:
                problems.append(
                    f"{name}: fast {outputs.get(name)} != reference {want}"
                )
            violations = validate_execution(
                trace,
                ctx.graph,
                CollisionRule[settings.collision_rule],
                StartMode(settings.start_mode),
            )
            problems.extend(f"{name}: {v}" for v in violations[:3])
        return len(self._best), problems


# ----------------------------------------------------------------------
# Campaign replay
# ----------------------------------------------------------------------
class CampaignReplay(Workload):
    """Resume, report and merge a finished 144k-record sharded campaign."""

    name = "campaign-replay"
    unit = "records"
    # No engine runs here: the structural checks in run_once and
    # final_check are the whole correctness gate.
    pinned = False

    def spec_doc(self) -> Dict[str, Any]:
        """The campaign's spec: 3 algorithms x 4 graphs x 3 x 2 x seeds."""
        return {
            "name": "replay",
            "algorithms": [
                "round_robin",
                "decay",
                {"name": "harmonic", "params": {"T": 2}},
            ],
            "graphs": [
                {"kind": "line", "n": 64},
                {"kind": "grid", "n": 64},
                {"kind": "gnp", "n": 64},
                {"kind": "clique-bridge", "n": 33},
            ],
            "adversaries": ["none", "random", "greedy"],
            "collision_rules": ["CR3", "CR4"],
            "engines": ["fast"],
            "seeds": {
                "start": self.seed * 100_000,
                "count": 2000 if self.size == "full" else 10,
            },
        }

    def _specs(self):
        from repro.experiments import load_specs

        assert self.inputs is not None, "prepare() first"
        return load_specs(str(self.inputs / "spec.json"))

    def campaign(self) -> str:
        """The generated campaign directory."""
        assert self.inputs is not None, "prepare() first"
        return str(self.inputs / "campaign") + os.sep

    def prepare(self, inputs: Path) -> None:
        """Write a finished campaign: one record per task of the spec.

        Records carry the spec's own keys; their science fields are
        drawn from an RNG seeded by the workload seed.  They are written
        through the sweep runner's own store, so the campaign carries
        the spec's fingerprint exactly as a real sweep leaves it.
        """
        from repro.experiments import RunResult, SweepRunner

        inputs.mkdir(parents=True, exist_ok=True)
        self.inputs = inputs
        (inputs / "spec.json").write_text(
            json.dumps(self.spec_doc(), indent=1), encoding="utf-8"
        )
        runner = SweepRunner(
            self._specs(), results_path=self.campaign(), store="sharded"
        )
        tasks = runner.tasks()
        rng = random.Random(f"campaign-replay:{self.seed}")
        store = runner.open_store(tasks)
        try:
            for task in tasks:
                rounds = rng.randint(1, 600)
                completed = rng.random() < 0.9
                store.append(
                    RunResult(
                        key=task.key,
                        sweep=task.sweep,
                        algorithm=task.algorithm,
                        graph_kind=task.graph_kind,
                        n=task.n,
                        graph_n=task.n,
                        adversary_kind=task.adversary_kind,
                        collision_rule=task.collision_rule,
                        start_mode=task.start_mode,
                        seed=task.seed,
                        completed=completed,
                        completion_round=rounds if completed else None,
                        rounds=rounds,
                        total_transmissions=rng.randint(rounds, 20 * rounds),
                        engine=task.engine,
                        churn_kind=task.churn_kind,
                    )
                )
        finally:
            store.close()
        self.written = len(tasks)
        (inputs / "probe.json").write_text(
            json.dumps(
                {
                    "kind": "sweep",
                    "specs": str(inputs / "spec.json"),
                    "results": self.campaign(),
                }
            ),
            encoding="utf-8",
        )

    def cells(self) -> List[str]:
        seen: Dict[str, None] = {}
        for spec in self._specs():
            for task in spec.tasks():
                seen.setdefault(task.cell_key, None)
        return list(seen)

    def run_once(self, pass_dir: Path) -> Pass:
        from repro.analysis.report import CampaignReport
        from repro.experiments import RunResult, SweepRunner
        from repro.store import RawRecord, merge_store, open_store

        specs = self._specs()
        campaign = self.campaign()
        merged = pass_dir / "merged.jsonl"
        pass_dir.mkdir(parents=True, exist_ok=True)
        start = _clock()
        result = SweepRunner(
            specs, results_path=campaign, store="sharded"
        ).run()
        store = open_store(
            campaign, parse=RunResult.from_dict, backend="sharded"
        )
        report = CampaignReport.from_store(store)
        text = report.render(title=f"campaign {campaign}")
        source = open_store(campaign, parse=RawRecord, backend="sharded")
        merged_count = merge_store(source, str(merged))
        wall = _clock() - start

        written = self.written
        problems = []
        if result.executed != 0:
            problems.append(f"resume executed {result.executed} tasks")
        if result.resumed != written:
            problems.append(
                f"resumed {result.resumed} records, generator wrote {written}"
            )
        if report.records != written:
            problems.append(
                f"report folded {report.records} records, wrote {written}"
            )
        if merged_count != written:
            problems.append(
                f"merge wrote {merged_count} records, generator {written}"
            )
        outputs = {
            "report": [_digest(text)],
            "merged": [_file_digest(merged)],
        }
        return Pass(written, start, wall, outputs, problems)

    def final_check(self, pass_dir: Path) -> List[str]:
        """The merged file holds every generated key, in sorted order."""
        want = sorted(t.key for spec in self._specs() for t in spec.tasks())
        keys = []
        with open(pass_dir / "merged.jsonl", "r", encoding="utf-8") as f:
            for line in f:
                keys.append(json.loads(line)["key"])
        if keys != want:
            return [
                f"merged file has {len(keys)} keys; expected the "
                f"{len(want)} generated keys in sorted order"
            ]
        return []


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


WORKLOADS = {
    w.name: w
    for w in (DeterministicSweep, AdversarialSweep, AdversarySearch, CampaignReplay)
}

