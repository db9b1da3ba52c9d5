"""Layer tracing from outside the program: wrap public calls, time them.

:class:`Tracer` replaces public functions and methods of ``repro`` with
timing wrappers for the duration of a traced run and restores them
afterwards.  Nothing under ``src/`` knows it is being traced.

Two kinds of call are recorded:

* **Spans** (coarse calls: graph builds, engine construction, a sweep,
  a store scan) are kept in memory with an id and the id of the span
  that was open when they started, so self time is exact: a span's
  duration minus the time its child spans and folded calls cover.
* **Folded calls** (per-round or per-record calls: ``decide_send``,
  ``choose_deliveries``, ``resolve_cr4``, store appends and record
  reads) only add to a per-layer call count and total time, so memory
  stays bounded however many rounds run.  Their time is still
  subtracted from the enclosing span's self time.

A folded wrapper costs about as much as a short ``decide_send``, and a
traced pass can make millions of them.  :meth:`Tracer.calibrate`
measures that cost at the start of every traced pass, and
:meth:`TraceData.layers` reports each layer's time both as measured
(``raw_self_s``) and with the wrapper's cost taken out (``self_s``).

Only methods in a class's own ``__dict__`` are wrapped.  The fast engine
picks its code path with identity tests such as
``type(adversary).resolve_cr4 is Adversary.resolve_cr4``; setting a
wrapper on a subclass that inherits the method would switch paths.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Span frame layout while open:
#: [name, id, parent_id, start, child_s, folded_intervals].
_NAME, _ID, _PARENT, _START, _CHILD, _FOLDS = range(6)
#: Folded stats layout: [calls, seconds, non-None results, intervals].
#: ``intervals`` counts timed intervals (a generator's exhaustion is
#: one more than its items), each of which paid the wrapper's cost.
_CALLS, _SECONDS, _HITS, _INTERVALS = range(4)


class Tracer:
    """Spans, folded per-layer call totals and counts for this process."""

    def __init__(self) -> None:
        self._restore: List[Tuple[Any, str, Any]] = []
        # name -> folded stats; wrappers hold the lists, so resets zero
        # them in place.
        self.folded: Dict[str, List[float]] = {}
        self._fold_depth: Dict[str, List[int]] = {}
        #: Seconds per folded interval the wrapper adds inside and
        #: outside the interval it times (see :meth:`calibrate`).
        self.overhead: Tuple[float, float] = (0.0, 0.0)
        self._stack: List[list] = []
        self.reset()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every finished span, count and folded total."""
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self._next_id = 1
        # The root frame (id 0) stands for the benchmark's own code, so
        # a folded call always has an enclosing frame to charge.  The
        # list is refilled in place: wrappers hold it.
        self._stack[:] = [["root", 0, None, 0.0, 0.0, 0]]
        for stats in self.folded.values():
            stats[:] = [0, 0.0, 0, 0]
        for depth in self._fold_depth.values():
            depth[0] = 0

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the count ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def calibrate(self, trials: int = 7, calls: int = 20_000) -> None:
        """Measure a folded wrapper's own cost, then :meth:`reset`.

        Each trial times ``calls`` calls of a no-op, bare and then
        through a folded wrapper; :attr:`overhead` becomes the median
        over the trials of ``(inside, outside)``: the seconds per call
        the wrapper adds inside the interval it times, and outside it.
        Called at the start of every traced pass, so the figure follows
        the host's speed during that pass.
        """

        def noop(_: Any) -> None:
            return None

        stats: List[float] = [0, 0.0, 0, 0]
        timed = self._make_fold(noop, stats, [0])
        inside, outside = [], []
        for _ in range(trials):
            stats[_SECONDS] = 0.0
            start = _clock()
            for _ in range(calls):
                noop(None)
            plain = _clock() - start
            start = _clock()
            for _ in range(calls):
                timed(None)
            wrapped = _clock() - start
            # One call of the wrapped function stays inside: the
            # untraced program pays that call too.
            ins = max(0.0, (stats[_SECONDS] - plain) / calls)
            inside.append(ins)
            outside.append(max(0.0, (wrapped - plain) / calls - ins))
        self.overhead = (statistics.median(inside), statistics.median(outside))
        self.reset()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        """Start a span under the innermost open one."""
        frame = [name, self._next_id, self._stack[-1][_ID], _clock(), 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        """End ``frame`` (the innermost open span); return its duration."""
        end = _clock()
        duration = end - frame[_START]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame[_NAME]!r} closed while {popped[_NAME]!r} "
                "was innermost"
            )
        self._stack[-1][_CHILD] += duration
        self.spans.append(
            {
                "id": frame[_ID],
                "parent": frame[_PARENT],
                "name": frame[_NAME],
                "start": frame[_START],
                "end": end,
                "self": duration - frame[_CHILD],
                "folds": frame[_FOLDS],
            }
        )
        return duration

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[["Tracer", Any, tuple], None]],
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return wrapper

    def _folded_stats(self, name: str) -> Tuple[List[float], List[int]]:
        stats = self.folded.setdefault(name, [0, 0.0, 0, 0])
        depth = self._fold_depth.setdefault(name, [0])
        return stats, depth

    def _make_fold(
        self, fn: Callable, stats: List[float], depth: List[int]
    ) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # A call nested in another call of the same layer (an
            # adversary delegating to an inner one) is already timed.
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                depth[0] = 0
                stats[_CALLS] += 1
                stats[_SECONDS] += elapsed
                stats[_INTERVALS] += 1
                frame = stack[-1]
                frame[_CHILD] += elapsed
                frame[_FOLDS] += 1
            if result is not None:
                stats[_HITS] += 1
            return result

        return wrapper

    def _fold_generator_wrapper(self, fn: Callable, name: str) -> Callable:
        stats, _ = self._folded_stats(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            while True:
                start = _clock()
                try:
                    item = next(inner)
                    done = False
                except StopIteration:
                    done = True
                elapsed = _clock() - start
                stats[_SECONDS] += elapsed
                stats[_INTERVALS] += 1
                frame = stack[-1]
                frame[_CHILD] += elapsed
                frame[_FOLDS] += 1
                if done:
                    return
                stats[_CALLS] += 1
                yield item

        return wrapper

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> None:
        """Wrap ``fn`` everywhere a ``repro`` module binds it by name.

        Modules import public functions by name (``from repro.core.runner
        import make_processes``), so the module that defines ``fn`` and
        every module holding the same object under the same name are
        patched.
        """
        wrapper = self._span_wrapper(fn, name, on_result)
        attr = fn.__name__
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if module.__dict__.get(attr) is fn:
                self._replace(module, attr, wrapper)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        folded: bool = False,
        on_result: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> bool:
        """Wrap ``cls.attr`` if — and only if — ``cls`` defines it itself.

        Returns whether a wrapper was installed.  Classmethods are
        unwrapped, wrapped and re-wrapped; abstract methods are left
        alone.
        """
        raw = cls.__dict__.get(attr)
        if raw is None:
            return False
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if getattr(fn, "__isabstractmethod__", False):
            return False
        if folded:
            if fn.__code__.co_flags & 0x20:  # CO_GENERATOR
                wrapper = self._fold_generator_wrapper(fn, name)
            else:
                wrapper = self._make_fold(fn, *self._folded_stats(name))
        else:
            wrapper = self._span_wrapper(fn, name, on_result)
        self._replace(
            cls, attr, classmethod(wrapper) if is_classmethod else wrapper
        )
        return True

    def wrap_hierarchy(
        self, base: type, attr: str, name: str, folded: bool = True
    ) -> None:
        """Wrap ``attr`` on ``base`` and every loaded subclass defining it."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            self.wrap_method(cls, attr, name, folded=folded)
            todo.extend(cls.__subclasses__())

    def uninstall(self) -> None:
        """Put every wrapped function and method back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def collect(self) -> "TraceData":
        """What this process recorded since the last reset; then reset."""
        data = TraceData(
            spans=list(self.spans),
            counts=dict(self.counts),
            folded={k: list(v) for k, v in self.folded.items()},
            overhead=self.overhead,
        )
        self.reset()
        return data


class TraceData:
    """Spans, counts and folded totals of one traced pass.

    Args:
        overhead: The folded wrapper's ``(inside, outside)`` cost per
            timed interval, measured at the start of the pass.
    """

    def __init__(
        self,
        spans: List[Dict[str, Any]],
        counts: Dict[str, float],
        folded: Dict[str, List[float]],
        overhead: Tuple[float, float],
    ) -> None:
        self.spans = spans
        self.counts = counts
        self.folded = folded
        self.overhead = overhead

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds and self seconds.

        ``self_s`` has the folded wrappers' cost taken out: a folded
        layer loses the part inside each interval it timed, and a span
        the part outside each folded interval directly under it.
        ``raw_self_s`` is the self time as measured.
        """
        inside, outside = self.overhead
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span["name"],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raw_self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += span["end"] - span["start"]
            row["raw_self_s"] += span["self"]
            row["self_s"] += span["self"] - span["folds"] * outside
        for name, (calls, seconds, _, intervals) in self.folded.items():
            if calls:
                corrected = seconds - intervals * inside
                out[name] = {
                    "calls": calls,
                    "total_s": corrected,
                    "self_s": corrected,
                    "raw_self_s": seconds,
                }
        return out

    def top_level_s(self) -> float:
        """Summed duration of the spans opened directly under the root."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["parent"] == 0
        )


def _count_len(name: str) -> Callable[[Tracer, Any, tuple], None]:
    def on_result(tracer: Tracer, result: Any, args: tuple) -> None:
        tracer.count(name, len(result))

    return on_result


def _count_rounds(tracer: Tracer, trace: Any, args: tuple) -> None:
    tracer.count("sim.engine.rounds", trace.num_rounds)


def _count_candidates(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("search.candidates", len(args[1]))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark names.

    Layer names follow the ``repro`` modules.  Call :meth:`Tracer.
    uninstall` to undo.
    """
    from repro.adversaries.base import Adversary
    from repro.analysis.report import CampaignReport
    from repro.core import runner as core_runner
    from repro.experiments import registry, runner
    from repro.experiments.spec import ExperimentSpec
    from repro.obs import events, progress
    from repro.search import evaluate, harness, searchers
    from repro.sim import engine, fast_engine
    from repro.sim.process import Process
    from repro.store import sharded

    # Importing the packages above loads every built-in Process and
    # Adversary subclass, so the hierarchy walks below see them all.
    tracer.wrap_method(
        ExperimentSpec, "tasks", "experiments.spec.expand",
        on_result=_count_len("experiments.spec.tasks"),
    )
    tracer.wrap_method(runner.SweepRunner, "run", "experiments.runner.run")
    tracer.wrap_function(runner.execute_batch, "experiments.runner.batch")
    tracer.wrap_function(registry.build_graph, "graphs.build")
    tracer.wrap_function(
        fast_engine.compile_topology, "sim.fast_engine.compile"
    )
    tracer.wrap_function(
        core_runner.make_processes, "core.make_processes",
        on_result=_count_len("core.processes"),
    )
    tracer.wrap_function(engine.build_engine, "sim.engine.build")
    tracer.wrap_function(registry.build_churn, "sim.faults.build")
    tracer.wrap_method(
        engine.BroadcastEngine, "run", "sim.engine.run",
        on_result=_count_rounds,
    )
    tracer.wrap_hierarchy(Process, "decide_send", "core.decide")
    tracer.wrap_hierarchy(
        Adversary, "choose_deliveries", "adversaries.choose"
    )
    tracer.wrap_hierarchy(Adversary, "resolve_cr4", "adversaries.cr4")

    tracer.wrap_method(
        sharded.ShardedStore, "claim_keys", "store.claim",
        on_result=_count_len("store.records_claimed"),
    )
    tracer.wrap_method(
        sharded.ShardedStore, "append", "store.append", folded=True
    )
    tracer.wrap_method(
        sharded.ShardedStore, "iter_records", "store.iter", folded=True
    )
    tracer.wrap_method(sharded.ShardedStore, "close", "store.close")
    tracer.wrap_function(sharded.merge_store, "store.merge")
    tracer.wrap_method(
        CampaignReport, "from_store", "analysis.report.fold"
    )
    tracer.wrap_method(CampaignReport, "render", "analysis.report.render")

    tracer.wrap_function(harness.run_search, "search.run")
    tracer.wrap_function(harness.make_space, "search.space")
    tracer.wrap_hierarchy(searchers.Searcher, "ask", "search.ask", False)
    tracer.wrap_hierarchy(searchers.Searcher, "tell", "search.tell", False)
    tracer.wrap_method(
        evaluate.PopulationEvaluator, "evaluate", "search.evaluate",
        on_result=_count_candidates,
    )
    tracer.wrap_function(evaluate.verify_replay, "search.verify")

    tracer.wrap_function(events.merge_event_files, "obs.merge")
    tracer.wrap_function(progress.perf_summary, "obs.perf_summary")
