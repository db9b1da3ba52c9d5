"""CR4 consults see the same arrivals, in the same order, on both engines.

Under CR4 a non-sender reached by two or more messages hears whatever
the adversary's resolver picks.  The resolver is handed the node's
arrival list, so its order is observable: a resolver that picks by
position (``cr4_mode="random"``) would diverge between engines on any
reordering.  These tests log every consult as ``(round, node, sender
tuple)`` and require the two engines to produce identical logs, with
and without reception recording, on the seed-dependent kinds under
window churn — where some contested nodes are crashed and must never
be consulted for.
"""

import pytest

from repro.adversaries import RandomDeliveryAdversary
from repro.core.runner import make_processes
from repro.experiments.registry import build_churn, build_graph
from repro.sim import CollisionRule, EngineConfig, build_engine

ENGINES = ("reference", "fast")


class RecordingResolver(RandomDeliveryAdversary):
    """A random CR4 resolver that logs every consult it answers."""

    def __init__(self, seed: int) -> None:
        super().__init__(0.5, seed=seed, cr4_mode="random")
        self.log = []

    def resolve_cr4(self, view, node, arrivals):
        self.log.append(
            (view.round_number, node, tuple(m.sender for m in arrivals))
        )
        return super().resolve_cr4(view, node, arrivals)


def _run(kind, seed, algorithm, engine, recording):
    name, params = algorithm
    graph = build_graph(kind, 24, seed=seed)
    adversary = RecordingResolver(seed)
    config = EngineConfig(
        collision_rule=CollisionRule.CR4,
        max_rounds=60,
        seed=seed,
        engine=engine,
        record_receptions=recording,
        churn=build_churn(
            "window", n=graph.n, rounds=60, seed=seed,
            count=6, start=2, length=30,
        ),
    )
    engine_obj = build_engine(
        graph, make_processes(name, graph.n, **params), adversary, config
    )
    return graph, engine_obj.run(), adversary.log


def _crashed_contested(graph, trace):
    """(round, node) pairs where a down non-sender got >= 2 arrivals."""
    down = set()
    out = set()
    for record in trace.rounds:
        down.difference_update(record.recovered)
        down.update(record.crashed)
        hits = {}
        for sender in record.senders:
            targets = {sender} | set(graph.reliable_out(sender))
            targets |= set(record.unreliable_deliveries.get(sender, ()))
            for node in targets:
                hits[node] = hits.get(node, 0) + 1
        out.update(
            (record.round_number, node)
            for node, count in hits.items()
            if count >= 2 and node in down and node not in record.senders
        )
    return out


@pytest.mark.parametrize(
    "algorithm",
    [("decay", {}), ("harmonic", {"T": 2})],
    ids=["decay", "harmonic"],
)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["gnp", "gray-zone"])
def test_cr4_consults_identical_across_engines(kind, seed, algorithm):
    logs = {}
    for engine in ENGINES:
        for recording in (False, True):
            graph, trace, log = _run(
                kind, seed, algorithm, engine, recording
            )
            logs[engine, recording] = log
    reference = logs["reference", False]
    assert reference, "the cell must consult the resolver"
    for log in logs.values():
        assert log == reference
    for _, _, senders in reference:
        assert len(senders) >= 2
        assert list(senders) == sorted(set(senders))
    # The window takes nodes down while messages still reach them;
    # none of those contested-but-crashed nodes is ever consulted for.
    crashed = _crashed_contested(graph, trace)
    assert crashed, "the window must crash some contested node"
    assert not crashed & {(rnd, node) for rnd, node, _ in reference}
