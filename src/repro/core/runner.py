"""High-level convenience API: run a named algorithm on a network.

This is the entry point most downstream users want::

    from repro import broadcast
    from repro.graphs import gnp_dual
    from repro.adversaries import GreedyInterferer

    trace = broadcast(gnp_dual(64, seed=1), "harmonic",
                      adversary=GreedyInterferer(), seed=7)
    print(trace.completion_round)

Algorithms are registered by name; ``make_processes`` exposes the factory
directly for callers that need to customise processes before running.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from repro.adversaries.base import Adversary
from repro.core.decay import make_decay_processes
from repro.core.harmonic import (
    completion_bound,
    default_T,
    make_harmonic_processes,
)
from repro.core.round_robin import (
    make_round_robin_processes,
    round_robin_bound,
)
from repro.core.ssf import kautz_singleton_ssf
from repro.core.strong_select import (
    build_schedule,
    make_strong_select_processes,
)
from repro.core.uniform import make_uniform_processes
from repro.graphs.dualgraph import DualGraph
from repro.registry import Entry, Registry
from repro.sim.engine import EngineConfig, build_engine
from repro.sim.process import Process
from repro.sim.trace import ExecutionTrace

_STRONG_SELECT_PARAMS = {"s_max": int, "participate_once": bool}

#: Algorithm factories take ``(n, **params)`` and return the processes.
ALGORITHMS = Registry(
    "algorithm",
    {
        "strong_select": Entry(
            make_strong_select_processes,
            "deterministic Strong Select (Section 5)",
            _STRONG_SELECT_PARAMS,
        ),
        "strong_select_ks": Entry(
            lambda n, **kw: make_strong_select_processes(
                n, ssf_builder=kautz_singleton_ssf, **kw
            ),
            "Strong Select on Kautz singleton SSFs",
            _STRONG_SELECT_PARAMS,
        ),
        "harmonic": Entry(
            make_harmonic_processes,
            "randomized Harmonic Broadcast (Section 6)",
            {"T": int, "epsilon": float, "constant": float},
        ),
        "round_robin": Entry(
            make_round_robin_processes,
            "uids transmit in fixed rotation",
            {},
        ),
        "decay": Entry(
            make_decay_processes, "classical Decay baseline", {}
        ),
        "uniform": Entry(
            make_uniform_processes,
            "transmit each round with probability c/n",
            {"c": float},
        ),
    },
)

algorithm_names = ALGORITHMS.kinds
register_algorithm = ALGORITHMS.register


def make_processes(
    algorithm: str, n: int, **params: Any
) -> List[Process]:
    """Instantiate the processes of a registered algorithm."""
    return ALGORITHMS.build(algorithm, n, **params)


def suggested_round_limit(algorithm: str, network: DualGraph) -> int:
    """A safe ``max_rounds`` derived from each algorithm's proven bound.

    Strong Select gets its Theorem-10 bound ``X = n/ρ``; Harmonic gets
    twice the Theorem-18 bound (the theorem is w.h.p., not worst-case);
    round robin gets ``n·ecc``; Decay, which has no dual-graph guarantee,
    gets a generous ``4·n·log²n + n·ecc``-ish allowance.
    """
    n = network.n
    ecc = network.source_eccentricity
    if algorithm.startswith("strong_select"):
        return build_schedule(n).round_bound() + 1
    if algorithm == "harmonic":
        return 2 * completion_bound(n, default_T(n)) + 1
    if algorithm == "round_robin":
        return round_robin_bound(n, ecc) + 1
    log2n = max(1.0, math.log2(n))
    if algorithm == "uniform":
        # Expected Θ(n) rounds per frontier layer at probability 1/n,
        # with a log factor of headroom for the tail.
        return int(12 * n * (ecc + log2n) * log2n) + 1
    return int(4 * n * log2n * log2n + n * ecc) + 1


def broadcast(
    network: DualGraph,
    algorithm: str = "strong_select",
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    algorithm_params: Optional[dict] = None,
    **config_kwargs: Any,
) -> ExecutionTrace:
    """Run a named broadcast algorithm on a network and return its trace.

    Args:
        network: The dual graph to broadcast on.
        algorithm: A registered algorithm name (see
            :func:`algorithm_names`).
        adversary: The adversary controlling unreliable links (default:
            never delivers on them).
        seed: Master seed for the processes' randomness.
        max_rounds: Execution cap (default: derived from the algorithm's
            proven bound via :func:`suggested_round_limit`).
        algorithm_params: Extra keyword arguments for the process factory
            (e.g. ``{"T": 8}`` for Harmonic).
        **config_kwargs: Forwarded to
            :class:`~repro.sim.engine.EngineConfig` (e.g.
            ``collision_rule=CollisionRule.CR1``,
            ``start_mode=StartMode.SYNCHRONOUS``, ``engine="fast"``).
    """
    processes = make_processes(
        algorithm, network.n, **(algorithm_params or {})
    )
    if max_rounds is None:
        max_rounds = suggested_round_limit(algorithm, network)
    config = EngineConfig(
        seed=seed, max_rounds=max_rounds, **config_kwargs
    )
    engine = build_engine(network, processes, adversary, config)
    return engine.run()
