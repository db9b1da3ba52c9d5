"""The graph, adversary and churn vocabularies of sweep grids.

Sweep tasks cross process boundaries (``multiprocessing`` workers), so an
:class:`~repro.experiments.spec.ExperimentSpec` cannot hold live graph or
adversary objects — it names them.  Workers resolve the names through the
:class:`~repro.registry.Registry` instances below, which therefore define
the vocabulary of spec files (together with the algorithm registry in
:mod:`repro.core.runner`).

Graph factories take ``(n, seed, **params)`` and return a
:class:`~repro.graphs.dualgraph.DualGraph`; adversary factories take
``(seed, **params)`` and return an
:class:`~repro.adversaries.base.Adversary`; churn factories take
``(n, rounds, seed, **params)`` and return a
:class:`~repro.sim.faults.ChurnSchedule` (or ``None`` for the
failure-free ``"none"`` kind).  ``rounds`` is the task's *resolved*
round cap, so rate-based schedules cover the whole horizon a run can
reach; the seed is the task's key-derived seed, making every schedule
reproducible from the spec alone.

All registries are extensible via :func:`register_graph` /
:func:`register_adversary` / :func:`register_churn`.
Runtime registrations reach sweep workers on platforms with the
``fork`` start method (Linux, which the runner prefers); on
spawn-only platforms (Windows) workers re-import this module, so
custom kinds must be registered at import time of a module the
workers also import — or run with ``workers=1``.
"""

from __future__ import annotations

from typing import Optional

from repro.adversaries import (
    Adversary,
    FullDeliveryAdversary,
    GreedyInterferer,
    NoDeliveryAdversary,
    PivotAdversary,
    RandomDeliveryAdversary,
)
from repro.graphs import (
    clique_bridge,
    gnp_dual,
    gray_zone,
    grid,
    layered_pairs,
    line,
    pivot_layers_for_n,
    ring,
    with_complete_unreliable,
)
from repro.graphs.dualgraph import DualGraph
from repro.registry import Entry, Registry
from repro.sim.faults import ChurnSchedule, generate_churn, window_churn


def _seed_free(description: str, build) -> Entry:
    """A parameterless graph kind whose output ignores the seed."""
    return Entry(
        lambda n, seed: build(n), description, {}, seed_dependent=False
    )


GRAPHS = Registry(
    "graph kind",
    {
        "gnp": Entry(
            lambda n, seed, **kw: gnp_dual(n, seed=seed, **kw),
            "Erdős–Rényi dual graph (seed-dependent)",
            {"p_reliable": float, "p_unreliable": float},
        ),
        "line": _seed_free("path graph, reliable edges only", line),
        "hard-line": _seed_free(
            "path graph with complete unreliable overlay",
            lambda n: with_complete_unreliable(line(n)),
        ),
        "ring": _seed_free(
            "cycle graph, reliable edges only", lambda n: ring(max(3, n))
        ),
        "grid": _seed_free(
            "~sqrt(n) x sqrt(n) grid, reliable edges only",
            lambda n: grid(max(2, int(n**0.5)), max(2, int(n**0.5))),
        ),
        "gray-zone": Entry(
            lambda n, seed, **kw: gray_zone(n, seed=seed, **kw)[0],
            "geometric graph with unreliable gray zone (seeded)",
            {"reliable_radius": float, "gray_radius": float},
        ),
        "clique-bridge": _seed_free(
            "Theorem 2 network: clique + bridge + receiver",
            lambda n: clique_bridge(max(3, n)).graph,
        ),
        "clique-bridge-classical": _seed_free(
            "clique-bridge projected to G = G'",
            lambda n: clique_bridge(max(3, n)).graph.classical_projection(),
        ),
        "layered-pairs": _seed_free(
            "Theorem 12 network: source + width-2 layers",
            lambda n: layered_pairs(n if n % 2 else n + 1).graph,
        ),
        "pivot-layers": _seed_free(
            "Theorem 11 stand-in: hidden-pivot layer chain",
            lambda n: pivot_layers_for_n(n).graph,
        ),
    },
)

ADVERSARIES = Registry(
    "adversary kind",
    {
        "none": Entry(
            lambda seed: NoDeliveryAdversary(),
            "never delivers on unreliable links",
            {},
        ),
        "full": Entry(
            lambda seed: FullDeliveryAdversary(),
            "always delivers on every unreliable link",
            {},
        ),
        "random": Entry(
            lambda seed, p=0.5: RandomDeliveryAdversary(p, seed=seed),
            "delivers each unreliable edge with probability p",
            {"p": float},
        ),
        "greedy": Entry(
            lambda seed: GreedyInterferer(),
            "GreedyInterferer: collides lone reliable receptions",
            {},
        ),
        "pivot": Entry(
            lambda seed, n: PivotAdversary(pivot_layers_for_n(int(n))),
            "PivotAdversary: blankets the next pivot layer (needs n)",
            {"n": int},
        ),
    },
)

CHURNS = Registry(
    "churn kind",
    {
        "none": Entry(
            lambda n, rounds, seed: None,
            "failure-free run (no fault injection)",
            {},
        ),
        "rate": Entry(
            lambda n, rounds, seed, **kw: generate_churn(
                n, rounds, seed=seed, **kw
            ),
            "per-round crash/recover coin flips",
            {"crash_rate": float, "recover_rate": float, "rejoin": str},
        ),
        "window": Entry(
            lambda n, rounds, seed, **kw: window_churn(n, **kw),
            "count nodes down from round start for length rounds",
            {"count": int, "start": int, "length": int, "rejoin": str},
        ),
    },
)

register_graph = GRAPHS.register
register_adversary = ADVERSARIES.register
register_churn = CHURNS.register


def graph_seed_dependent(kind: str) -> bool:
    """Whether a graph kind's factory output depends on the task seed.

    Cells over seed-dependent kinds cannot share one graph across their
    seeds, so the batched sweep path rebuilds per seed.  Unknown kinds
    report ``True`` (the safe answer; building them fails loudly
    elsewhere).
    """
    return kind not in GRAPHS or GRAPHS.entry(kind).seed_dependent


def build_graph(kind: str, n: int, seed: int = 0, **params) -> DualGraph:
    """Instantiate a registered graph kind."""
    return GRAPHS.build(kind, n, seed, **params)


def build_adversary(kind: str, seed: int = 0, **params) -> Adversary:
    """Instantiate a registered adversary kind."""
    return ADVERSARIES.build(kind, seed, **params)


def build_churn(
    kind: str, n: int, rounds: int, seed: int = 0, **params
) -> Optional[ChurnSchedule]:
    """Instantiate a registered churn kind for one run's horizon."""
    return CHURNS.build(kind, n, rounds, seed, **params)
