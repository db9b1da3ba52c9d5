"""Oblivious send schedules and lazily seeded process contexts.

Round robin and Strong Select declare their sender sets through
``Process.send_schedule``; the fast engine then asks only the round's
scheduled processes to decide.  These tests pin the schedules, the
engine's choice of path, the unchanged traces, and the lazily seeded
``ProcessContext`` PRNG that keeps deterministic algorithms from paying
for seeding.
"""

import copy
import random

import pytest

from repro.core.decay import DecayProcess
from repro.core.round_robin import (
    RoundRobinProcess,
    RoundRobinSchedule,
    make_round_robin_processes,
)
from repro.core.runner import make_processes
from repro.core.strong_select import build_schedule
from repro.graphs import line
from repro.graphs.dualgraph import DualGraph
from repro.sim import (
    ChurnSchedule,
    CollisionRule,
    EngineConfig,
    StartMode,
    build_engine,
    trace_to_json,
)
from repro.sim.fast_engine import _common_schedule
from repro.sim.process import ProcessContext, SilentProcess


def draws(rng, k=5):
    return [rng.random() for _ in range(k)]


class TestLazyContext:
    def test_lazy_stream_equals_keyed_random(self):
        ctx = ProcessContext.lazy("7:3", 10)
        assert ctx._rng is None
        assert draws(ctx.rng) == draws(random.Random("7:3"))
        assert ctx._rng is not None

    def test_deepcopy_of_unseeded_context_keeps_the_stream(self):
        ctx = ProcessContext.lazy("7:3", 10)
        clone = copy.deepcopy(ctx)
        assert clone._rng is None
        expected = draws(random.Random("7:3"))
        assert draws(clone.rng) == expected
        assert draws(ctx.rng) == expected  # the original is independent

    def test_deepcopy_of_seeded_context_continues_the_stream(self):
        ctx = ProcessContext.lazy("7:3", 10)
        reference = random.Random("7:3")
        assert draws(ctx.rng, 3) == draws(reference, 3)
        clone = copy.deepcopy(ctx)
        expected = draws(reference)
        assert draws(clone.rng) == expected
        assert draws(ctx.rng) == expected

    def test_positional_signature_and_setter(self):
        rng = random.Random(0)
        ctx = ProcessContext(4, rng, 8)
        assert (ctx.round_number, ctx.rng, ctx.n) == (4, rng, 8)
        other = random.Random(1)
        ctx.rng = other
        assert ctx.rng is other
        lazy = ProcessContext.lazy("0:0", 8)
        lazy.rng = other
        assert lazy.rng is other

    def test_a_context_needs_a_stream(self):
        with pytest.raises(ValueError, match="rng"):
            ProcessContext(0, None, 4)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_round_robin_run_materialises_no_rng(self, engine):
        graph = line(10_000)
        eng = build_engine(
            graph,
            make_round_robin_processes(graph.n),
            config=EngineConfig(engine=engine, max_rounds=30),
        )
        trace = eng.run()
        assert len(trace.rounds) == 30
        assert all(c._rng is None for c in eng._contexts.values())

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_randomized_trace_equals_eager_seeding(self, engine):
        graph = line(12)
        traces = []
        for eager in (False, True):
            eng = build_engine(
                graph,
                make_processes("decay", graph.n),
                config=EngineConfig(engine=engine, seed=5, max_rounds=60),
            )
            if eager:
                for node, ctx in eng._contexts.items():
                    ctx.rng = random.Random(f"5:{eng.proc_map[node]}")
            traces.append(trace_to_json(eng.run()))
        assert traces[0] == traces[1]


class TestSchedules:
    def test_round_robin_schedule(self):
        sched = RoundRobinSchedule(5)
        assert [tuple(sched.uids_at(r)) for r in range(1, 8)] == [
            (0,), (1,), (2,), (3,), (4,), (0,), (1,),
        ]

    def test_round_robin_processes_share_one_schedule(self):
        procs = make_round_robin_processes(6)
        schedules = {id(p.send_schedule()) for p in procs}
        assert len(schedules) == 1
        assert procs[0].send_schedule() == RoundRobinSchedule(6)

    def test_round_robin_without_universe_has_no_schedule(self):
        assert RoundRobinProcess(2).send_schedule() is None
        assert RoundRobinProcess(9, n=4).send_schedule() is None

    def test_strong_select_uids_at_is_the_scheduled_set(self):
        sched = build_schedule(64)
        for r in range(1, 200):
            assert sched.uids_at(r) == sched.scheduled_set(r)[1]

    @pytest.mark.parametrize(
        "algorithm,params",
        [
            ("round_robin", {}),
            ("strong_select", {}),
            ("strong_select_ks", {}),
            ("strong_select", {"participate_once": False}),
        ],
    )
    def test_schedule_algorithms_share_a_common_schedule(
        self, algorithm, params
    ):
        procs = make_processes(algorithm, 16, **params)
        assert _common_schedule(procs) is procs[0].send_schedule()

    def test_no_common_schedule(self):
        assert _common_schedule(make_processes("decay", 8)) is None
        mixed = make_round_robin_processes(4)[:3] + [DecayProcess(3)]
        assert _common_schedule(mixed) is None
        assert _common_schedule([SilentProcess(0)]) is None
        unequal = [RoundRobinProcess(0, n=4), RoundRobinProcess(1, n=5)]
        assert _common_schedule(unequal) is None


class TestFastEngineSchedulePath:
    def _count_decides(self, monkeypatch, cls):
        calls = []
        original = cls.decide_send

        def counted(self, ctx):
            calls.append((ctx.round_number, self.uid))
            return original(self, ctx)

        monkeypatch.setattr(cls, "decide_send", counted)
        return calls

    def test_only_scheduled_processes_decide(self, monkeypatch):
        calls = self._count_decides(monkeypatch, RoundRobinProcess)
        graph = line(20)
        config = EngineConfig(
            engine="fast",
            start_mode=StartMode.SYNCHRONOUS,
            collision_rule=CollisionRule.CR3,
        )
        fast = build_engine(
            graph, make_round_robin_processes(graph.n), config=config
        )
        fast_trace = fast.run()
        assert fast._schedule == RoundRobinSchedule(20)
        assert calls == [
            (r, (r - 1) % 20) for r in range(1, len(fast_trace.rounds) + 1)
        ]
        calls.clear()
        config.engine = "reference"
        ref_trace = build_engine(
            graph, make_round_robin_processes(graph.n), config=config
        ).run()
        assert len(calls) == 20 * len(ref_trace.rounds)
        assert trace_to_json(fast_trace) == trace_to_json(ref_trace)

    def test_schedule_free_algorithms_keep_the_full_loop(self):
        graph = line(8)
        eng = build_engine(
            graph,
            make_processes("decay", graph.n),
            config=EngineConfig(engine="fast"),
        )
        assert eng._schedule is None


def run_rejoin(engine, crash_round, node, recover_round):
    graph = line(40)
    procs = make_processes("strong_select", graph.n, participate_once=False)
    churn = ChurnSchedule(
        crashes={crash_round: (node,)}, recoveries={recover_round: (node,)}
    )
    eng = build_engine(
        graph,
        procs,
        config=EngineConfig(engine=engine, churn=churn, max_rounds=400),
    )
    return eng, eng.run()


@pytest.mark.parametrize("engine", ["reference", "fast"])
class TestStrongSelectUninformedRejoin:
    """A re-informed Strong Select node restarts its participation
    windows from its new informing round."""

    def test_windows_restart_at_reinforming(self, engine):
        eng, trace = run_rejoin(engine, 5, 1, 200)
        process = eng.process_at[1]
        assert trace.informed_round[1] == 201
        assert process.first_message_round == 201
        window = process.schedule.participation_window(1, 201)
        assert window == (240, 280)
        assert process._windows == {1: window}

    def test_first_send_after_rejoin_is_in_the_new_window(self, engine):
        _, trace = run_rejoin(engine, 5, 1, 200)
        resends = [
            r.round_number
            for r in trace.rounds
            if r.round_number > 200 and 1 in r.senders
        ]
        # Position p = r - 1 (s_max = 1 at n = 40); uid 1 is scheduled
        # at p ≡ 1 (mod 40), and the window opens at p = 240.  Stale
        # windows from the first informing would allow p = 201.
        assert resends[0] == 242

    def test_engines_agree(self, engine):
        _, trace = run_rejoin(engine, 5, 1, 200)
        _, ref = run_rejoin("reference", 5, 1, 200)
        assert trace_to_json(trace) == trace_to_json(ref)

    def test_engines_agree_when_the_fast_engine_skipped_the_node(
        self, engine
    ):
        # On a star every leaf is informed in round 1.  Leaf 5 is first
        # scheduled in round 6 but crashes in round 3: the reference
        # engine has asked it to decide (and fixed its windows), the
        # fast engine has not.  Only the reset on crash keeps the two
        # equal once the source re-informs it in round 41.
        n = 40
        edges = [(0, v) for v in range(1, n)]
        star = DualGraph(n, edges, edges, undirected=True, name="star")
        churn = ChurnSchedule(crashes={3: (5,)}, recoveries={10: (5,)})
        traces = {}
        for name in ("reference", engine):
            eng = build_engine(
                star,
                make_processes("strong_select", n, participate_once=False),
                config=EngineConfig(
                    engine=name,
                    churn=churn,
                    max_rounds=100,
                    stop_when_informed=False,
                ),
            )
            traces[name] = eng.run()
        trace = traces[engine]
        assert trace.informed_round[5] == 41
        assert [r.round_number for r in trace.rounds if 5 in r.senders] == [
            86
        ]
        assert trace_to_json(trace) == trace_to_json(traces["reference"])
