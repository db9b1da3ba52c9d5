"""The sweep executor: fan a task grid out over worker processes.

:func:`execute_task` is the per-task unit of work and
:func:`execute_batch` the per-graph unit — module-level functions taking
and returning picklable values, so a ``multiprocessing`` pool can run
them anywhere.  :class:`SweepRunner` expands one or more
:class:`~repro.experiments.spec.ExperimentSpec`\\ s, skips tasks whose
records already sit in the results file (resume-by-key), and streams the
remaining work through ``imap_unordered``.  Pending tasks are grouped
into :class:`~repro.experiments.spec.GraphBatch` units by graph
instance (:attr:`~repro.experiments.spec.RunTask.graph_key`), so each
worker builds a graph and compiles its engine topology
(:class:`~repro.sim.engine.CompiledTopology`) once, then runs every
task on that graph in a tight loop — every seed of a seed-independent
kind, and every algorithm, adversary, rule and churn of one
``gnp``/``gray-zone`` draw (``benchmarks/bench_sweep.py`` measures the
win).

Invariants:

* **Determinism** — each task's engine seed is derived from its science
  key, and the final record list is key-sorted, so the same spec
  produces the identical
  :class:`~repro.experiments.results.SweepResult` records for any
  worker count, chunking, engine choice, or resume history.
* **Batching is pure scheduling** — :func:`execute_batch` emits records
  byte-identical to :func:`execute_task`'s: the task loop inside a
  batch runs exactly the :func:`execute_task` pipeline, with only
  graph/cap/topology construction hoisted.  A batch holds only tasks
  whose graph builds are equal by construction (one graph key; the
  seed is part of it exactly for kinds that
  :func:`~repro.experiments.registry.graph_seed_dependent` names).
  ``tests/test_batching.py`` asserts this.
* **Durable resume** — with ``results_path`` set, each record is
  appended to the sweep's result store (:mod:`repro.store`: a single
  JSON-lines file by default, a sharded campaign directory on
  request) the moment its result reaches the parent process, so an
  interrupted sweep leaves a valid prefix.  Durability cadence is the
  store's explicit ``flush_every`` policy (the default JSONL backend
  flushes every record, the historical behaviour).
  *Resume* granularity stays per task under batching: pending tasks
  are filtered by key before batches are planned, so whatever a kill
  left on disk, re-running executes exactly the missing tasks.
  *Durability* granularity is the dispatch unit — a batch's records
  reach the parent together when the batch finishes, so a hard kill
  forfeits (and the resume re-runs) the in-flight batches' completed
  tasks.  No batch holds more tasks than the largest pending science
  cell (:func:`~repro.experiments.spec.plan_batches`), and with a pool
  ``_plan_units`` splits further to a fair share per worker.  The
  storage layer (:mod:`repro.store`) heals a torn final line — the
  signature of a hard kill mid-write — by skipping (and counting)
  what does not parse on load and starting the next append on a
  fresh line.
* **One production engine** — a task that asks for ``"reference"``
  runs on the reference oracle; every other engine name (``"fast"``,
  and the legacy key spelling ``"vector"`` that older result files
  carry) runs on the fast bitmask engine.  The engines are proven
  trace-equivalent, so only the record's ``engine`` field tells which
  implementation ran.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.runner import make_processes, suggested_round_limit
from repro.obs.telemetry import Stopwatch, Telemetry, current, set_telemetry
from repro.experiments.registry import (
    build_adversary,
    build_churn,
    build_graph,
)
from repro.experiments.results import RunResult, SweepResult
from repro.experiments.spec import (
    ExperimentSpec,
    GraphBatch,
    RunTask,
    plan_batches,
)
from repro.graphs.dualgraph import DualGraph
from repro.sim.collision import CollisionRule
from repro.sim.engine import (
    CompiledTopology,
    EngineConfig,
    StartMode,
    build_engine,
    compile_topology,
)
from repro.sim.trace import ExecutionTrace
from repro.store import ResultStore, StoreHealth, open_store

#: Called after each finished task with (result, done_count, total).
ProgressCallback = Callable[[RunResult, int, int], None]

class _WorkerStats:
    """Per-process heartbeat state: a clock and a cumulative tally."""

    __slots__ = ("watch", "tasks_done")

    def __init__(self) -> None:
        self.watch = Stopwatch()
        self.tasks_done = 0


#: pid → heartbeat state; cleared on the first heartbeat after a fork
#: so a child never reports the parent's clock or tally as its own.
_WORKER_STATS: Dict[int, _WorkerStats] = {}


def _heartbeat(telemetry: Telemetry, tasks_done: int) -> None:
    """Emit one worker heartbeat (pid, cumulative tasks, tasks/s).

    Called from the worker side after each finished dispatch unit.  The
    trailing ``flush()`` also pushes the engine-counter deltas
    accumulated since the last heartbeat into the sink as a ``stats``
    event, so perf panels can sum per-worker contributions.  A no-op
    without an enabled sink.
    """
    if not telemetry.enabled:
        return
    pid = os.getpid()
    stats = _WORKER_STATS.get(pid)
    if stats is None:
        _WORKER_STATS.clear()  # drop state inherited through fork
        stats = _WORKER_STATS[pid] = _WorkerStats()
    stats.tasks_done += tasks_done
    elapsed = stats.watch.elapsed()
    rate = stats.tasks_done / elapsed if elapsed > 0.0 else 0.0
    telemetry.event(
        "heartbeat", tasks_done=stats.tasks_done, rate=rate
    )
    telemetry.flush()


def _init_worker_telemetry(target: Optional[str]) -> None:
    """Pool initializer: ensure workers have a telemetry sink.

    Fork-started workers inherit the parent's sink (whose pid check
    diverts their writes to a sibling stream, see
    :mod:`repro.obs.jsonl`), so they need nothing here; spawn-started
    workers start with the null default and install their own
    ``worker=True`` sink against the campaign's stream path.
    """
    if target is not None and not current().enabled:
        from repro.obs.jsonl import JsonlTelemetry

        set_telemetry(JsonlTelemetry(target, worker=True))


class _ProgressEmitter:
    """Rate-limited ``progress`` events for the live campaign stream.

    At most ~2 events per second, except that the terminal state
    (``done == total``) always emits — a finished campaign's stream
    must end on the true count.
    """

    _MIN_INTERVAL = 0.5

    def __init__(self, telemetry: Telemetry, total: int) -> None:
        self._telemetry = telemetry
        self._total = total
        self._watch = Stopwatch()
        self._last = -self._MIN_INTERVAL

    def update(self, done: int) -> None:
        """Emit ``done``/total if the rate limit (or the end) allows."""
        if not self._telemetry.enabled:
            return
        now = self._watch.elapsed()
        if done < self._total and now - self._last < self._MIN_INTERVAL:
            return
        self._last = now
        self._telemetry.event(
            "progress", done=done, total=self._total
        )


def _execute_on(
    task: RunTask,
    graph: DualGraph,
    topology: Optional[CompiledTopology] = None,
    default_cap: Optional[int] = None,
) -> RunResult:
    """Run one task against an already-built graph.

    The shared tail of :func:`execute_task` and :func:`execute_batch`:
    everything downstream of graph construction.  ``topology`` and
    ``default_cap`` (the algorithm's derived round limit on ``graph``,
    used when the task carries no explicit ``max_rounds``) are per-graph
    reusables the batched path hands in; both default to per-task
    derivation.
    """
    adversary = build_adversary(
        task.adversary_kind,
        seed=task.derived_seed,
        **dict(task.adversary_params),
    )
    processes = make_processes(
        task.algorithm, graph.n, **dict(task.algorithm_params)
    )
    max_rounds = task.max_rounds
    if max_rounds is None:
        max_rounds = (
            default_cap
            if default_cap is not None
            else suggested_round_limit(task.algorithm, graph)
        )
    rule = CollisionRule[task.collision_rule]
    engine_name = "reference" if task.engine == "reference" else "fast"
    # The churn schedule is built from the task's key-derived seed and
    # its *resolved* round cap, so rate-based schedules cover the whole
    # horizon and are reproducible from the spec alone.
    churn = build_churn(
        task.churn_kind,
        n=graph.n,
        rounds=max_rounds,
        seed=task.derived_seed,
        **dict(task.churn_params),
    )
    config = EngineConfig(
        collision_rule=rule,
        start_mode=StartMode(task.start_mode),
        max_rounds=max_rounds,
        seed=task.derived_seed,
        engine=engine_name,
        churn=churn,
    )
    engine = build_engine(
        graph, processes, adversary, config, topology=topology
    )
    with current().span("engine_run"):
        trace = engine.run()
    return _result_from(task, graph, trace, engine_name)


def _result_from(
    task: RunTask,
    graph: DualGraph,
    trace: ExecutionTrace,
    engine_name: str,
) -> RunResult:
    """Fold one finished trace into the task's deterministic record."""
    return RunResult(
        key=task.key,
        sweep=task.sweep,
        algorithm=task.algorithm,
        graph_kind=task.graph_kind,
        n=task.n,
        graph_n=graph.n,
        adversary_kind=task.adversary_kind,
        collision_rule=task.collision_rule,
        start_mode=task.start_mode,
        seed=task.seed,
        completed=trace.completed,
        completion_round=trace.completion_round,
        rounds=trace.num_rounds,
        total_transmissions=sum(trace.sender_counts()),
        engine=engine_name,
        churn_kind=task.churn_kind,
    )


def execute_task(task: RunTask) -> RunResult:
    """Run one grid cell seed and return its deterministic record."""
    telemetry = current()
    with telemetry.span("graph_build"):
        graph = build_graph(
            task.graph_kind,
            task.n,
            seed=task.seed,
            **dict(task.graph_params),
        )
    result = _execute_on(task, graph)
    _heartbeat(telemetry, 1)
    return result


def execute_batch(batch: GraphBatch) -> List[RunResult]:
    """Run the tasks of one graph instance with shared setup.

    The graph is built and its engine topology compiled once for the
    whole batch, and each algorithm's round cap is derived once for the
    tasks without an explicit ``max_rounds``.  Each task then runs
    through the unchanged :func:`execute_task` pipeline in batch order,
    so the returned records are byte-identical to per-task execution.
    """
    telemetry = current()
    first = batch.tasks[0]
    with telemetry.span("graph_build"):
        graph = build_graph(
            first.graph_kind,
            first.n,
            seed=first.seed,
            **dict(first.graph_params),
        )
    with telemetry.span("topology_compile"):
        topology = compile_topology(graph)
    caps: Dict[str, int] = {}
    results: List[RunResult] = []
    for task in batch.tasks:
        cap = None
        if task.max_rounds is None:
            cap = caps.get(task.algorithm)
            if cap is None:
                cap = caps[task.algorithm] = suggested_round_limit(
                    task.algorithm, graph
                )
        results.append(_execute_on(task, graph, topology, cap))
    _heartbeat(telemetry, len(results))
    return results


class SweepRunner:
    """Run one or several specs as a single fanned-out sweep.

    Args:
        specs: One :class:`ExperimentSpec` or a sequence of them (their
            task keys must be disjoint; spec names namespace the keys).
        workers: Worker process count.  ``1`` runs in-process (no pool),
            which is also the fallback when only one dispatch unit is
            pending.
        results_path: Optional results location — a JSON-lines file
            (default backend) or a campaign directory (sharded
            backend).  Existing records are loaded and their
            tasks skipped; new records are appended as they finish, so
            interrupting and re-running resumes where the sweep
            stopped.
        store: Result-store backend name (``"jsonl"`` or
            ``"sharded"``); ``None``/``"auto"`` detects from the path
            (see :func:`repro.store.detect_backend`).  A
            pre-built :class:`~repro.store.base.ResultStore` instance
            is also accepted and used as-is (``results_path`` then
            being ignored for opening).
        flush_every: Explicit durability policy forwarded to the
            store; ``None`` keeps each backend's documented default
            (jsonl flushes every record, exactly the historical
            behaviour).
    """

    def __init__(
        self,
        specs: Union[ExperimentSpec, Sequence[ExperimentSpec]],
        workers: int = 1,
        results_path: Optional[str] = None,
        store: Union[ResultStore, str, None] = None,
        flush_every: Optional[int] = None,
    ) -> None:
        """Validate the configuration and store it (see class docs)."""
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        self.specs: List[ExperimentSpec] = list(specs)
        if not self.specs:
            raise ValueError("need at least one spec")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if flush_every is not None and flush_every < 1:
            raise ValueError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.workers = workers
        self.results_path = results_path
        self.store = store
        self.flush_every = flush_every

    def tasks(self) -> List[RunTask]:
        """The combined, ordered task list of all specs."""
        out: List[RunTask] = []
        seen: Dict[str, str] = {}
        for spec in self.specs:
            for task in spec.tasks():
                if task.key in seen:
                    raise ValueError(
                        f"duplicate task key {task.key!r} "
                        f"(specs {seen[task.key]!r} and {spec.name!r})"
                    )
                seen[task.key] = spec.name
                out.append(task)
        return out

    def fingerprint(self, tasks: Optional[List[RunTask]] = None) -> str:
        """A stable campaign fingerprint: hash of the sorted task keys.

        Written into manifest-carrying store backends so a campaign
        directory refuses records from a *different* spec instead of
        silently interleaving two campaigns.  Stable across worker
        counts and resume histories by construction.
        """
        if tasks is None:
            tasks = self.tasks()
        keys = sorted(t.key for t in tasks)
        # A fingerprint over non-unique keys would hash colliding tasks
        # into one campaign identity; refuse before any worker runs
        # (externally-assembled task lists bypass the spec-level and
        # ``tasks()`` duplicate checks, so this is the last gate).
        dupes = sorted(
            {k for k, nxt in zip(keys, keys[1:]) if k == nxt}
        )
        if dupes:
            raise ValueError(
                f"non-unique task keys {dupes[:5]}: colliding tasks "
                "would overwrite each other's resume records"
            )
        digest = hashlib.sha256("\n".join(keys).encode("utf-8"))
        return digest.hexdigest()[:16]

    def open_store(
        self, tasks: Optional[List[RunTask]] = None
    ) -> Optional[ResultStore]:
        """The result store behind ``results_path`` (``None`` if unset).

        A pre-built store instance passed as ``store=`` is returned
        as-is; a backend name (or ``None`` for auto-detection) opens
        the path through :func:`repro.store.open_store` with this
        sweep's spec fingerprint.
        """
        if isinstance(self.store, ResultStore):
            return self.store
        if not self.results_path:
            return None
        return open_store(
            self.results_path,
            parse=RunResult.from_dict,
            backend=self.store,
            flush_every=self.flush_every,
            fingerprint=self.fingerprint(tasks),
        )

    def run(
        self, progress: Optional[ProgressCallback] = None
    ) -> SweepResult:
        """Execute all pending tasks and return the aggregated result."""
        watch = Stopwatch()
        telemetry = current()
        tasks = self.tasks()
        done: Dict[str, RunResult] = {}
        store = self.open_store(tasks)
        if store is not None:
            with telemetry.span("resume_scan"):
                on_disk = store.claim_keys()
            done = {
                t.key: on_disk[t.key] for t in tasks if t.key in on_disk
            }
        pending = [t for t in tasks if t.key not in done]

        records = dict(done)
        total = len(tasks)
        if telemetry.enabled:
            telemetry.event(
                "campaign_start",
                name=self.specs[0].name,
                total=total,
                resumed=len(done),
                workers=self.workers,
            )
        emitter = _ProgressEmitter(telemetry, total)
        try:
            for result in self._execute(pending):
                records[result.key] = result
                if store is not None:
                    with telemetry.span("store_append"):
                        store.append(result)
                if progress is not None:
                    progress(result, len(records), total)
                emitter.update(len(records))
        finally:
            if store is not None:
                with telemetry.span("store_flush"):
                    store.close()

        elapsed = watch.elapsed()
        if telemetry.enabled:
            telemetry.event(
                "campaign_end",
                done=len(records),
                total=total,
                elapsed=elapsed,
            )
            telemetry.flush()
        health = store.health if store is not None else StoreHealth()
        return SweepResult(
            records=list(records.values()),
            executed=len(pending),
            resumed=len(done),
            elapsed=elapsed,
            skipped_lines=health.skipped_lines,
            health=health,
        )

    def _dispatch_chunksize(self, n_units: int) -> int:
        """Batches per pool chunk.

        Derived to give each worker several chunks — large enough to
        amortise pickling, small enough to keep stragglers short — and
        capped at the per-worker fair share, so a resumed sweep with
        only a few pending batches (e.g. 9 pending on 2 workers) still
        spreads across every worker instead of collapsing into one
        oversized chunk and serialising.
        """
        fair_share = max(1, n_units // self.workers)
        return min(
            max(1, n_units // (self.workers * 8)), fair_share
        )

    def _plan_units(self, pending: Sequence[RunTask]) -> List[GraphBatch]:
        """Plan the batched dispatch units for the pending tasks.

        The graph-instance batches of
        :func:`~repro.experiments.spec.plan_batches`, except that with a
        pool in play oversized batches are split so the sweep always
        yields at least ~2 dispatch units per worker: a single-cell
        hundred-seed sweep must occupy every worker, not serialise into
        one batch.  Each sub-batch builds its graph once, so
        amortisation is preserved within sub-batches.
        """
        batches = plan_batches(pending)
        if self.workers <= 1 or not pending:
            return batches
        # ceil-divide: the largest batch size that still yields at
        # least workers * 2 units when batches alone are too few.
        max_size = -(-len(pending) // (self.workers * 2))
        return [
            sub for batch in batches for sub in batch.split(max_size)
        ]

    def _execute(self, pending: Sequence[RunTask]):
        """Yield one :class:`RunResult` per pending task.

        Results stream back in completion order (a sub-batch's tasks
        stay contiguous); :meth:`run` re-establishes the canonical key
        order, so scheduling never leaks into results.
        """
        units = self._plan_units(pending)
        if self.workers == 1 or len(units) <= 1:
            for unit in units:
                yield from execute_batch(unit)
            return
        chunksize = self._dispatch_chunksize(len(units))
        # Prefer fork so runtime register_graph/register_adversary
        # entries reach the workers; spawn platforms (macOS, Windows)
        # re-import the registries and only see module-level entries.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # Spawn-started workers re-import everything and would lose the
        # campaign's sink; the initializer hands them its stream path
        # (fork workers inherit the sink and the initializer no-ops).
        sink_path = getattr(current(), "path", None)
        with ctx.Pool(
            self.workers,
            initializer=_init_worker_telemetry,
            initargs=(
                str(sink_path) if sink_path is not None else None,
            ),
        ) as pool:
            for out in pool.imap_unordered(
                execute_batch, units, chunksize=chunksize
            ):
                yield from out


def run_sweep(
    specs: Union[ExperimentSpec, Sequence[ExperimentSpec]],
    workers: int = 1,
    results_path: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    store: Union[ResultStore, str, None] = None,
    flush_every: Optional[int] = None,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        specs,
        workers=workers,
        results_path=results_path,
        store=store,
        flush_every=flush_every,
    ).run(progress=progress)
