"""Experiment OBS — the telemetry layer's overhead contract.

Three measurements back the contracts stated in docs/OBSERVABILITY.md:

* **No-op path overhead (the contract: <= 5%).**  With telemetry
  disabled (the default ``NullTelemetry``), each engine round pays one
  fixed preamble: hoist the sink and test its ``enabled`` flag.  That
  preamble is timed here verbatim and compared against the measured
  per-round cost of the reference engine on the same workload; the
  contract asserts the disabled instrumentation is <= 5% of a round.
* **Enabled-path budget (the contract: <= 10%).**  The same workload
  timed under an enabled in-memory ``RecordingTelemetry`` versus the
  null sink, in paired reps.  Enabled telemetry folds each round's
  arrival masks into the engine counters once
  (``repro.sim.engine.fold_round_counters``); the contract asserts the
  median paired on/off run-time ratio is <= 1.10.
* **Primitive throughput.**  Raw calls/s of the disabled ``count()``
  and ``span()`` no-ops.

Both engine runs are also checked for identical completion rounds; the
full trace-byte-equality guarantee lives in ``tests/test_obs.py``.
"""

import gc
import statistics
import time
from types import SimpleNamespace

from repro.analysis import render_table
from repro.core.runner import broadcast
from repro.experiments.registry import build_adversary, build_graph
from repro.obs import NullTelemetry, RecordingTelemetry, use
from repro.sim.collision import CollisionRule

#: Reference workload: a sparse line keeps rounds cheap, which is the
#: worst case for fixed per-round instrumentation overhead.
_N = 200
_SEED = 1
_REPS = 15
_LIMIT = 0.05  # the <=5% no-op overhead contract
_ENABLED_LIMIT = 1.10  # the <=10% enabled-telemetry budget


def _run_once(telemetry):
    """One timed reference-engine broadcast under ``telemetry``."""
    graph = build_graph("line", _N, seed=_SEED)
    adv = build_adversary("none", seed=_SEED)
    gc.collect()  # stabilise: no inherited garbage in the timed region
    with use(telemetry):
        started = time.perf_counter()
        trace = broadcast(
            graph,
            "round_robin",
            adversary=adv,
            seed=_SEED,
            engine="reference",
            collision_rule=CollisionRule.CR3,
        )
        elapsed = time.perf_counter() - started
    return elapsed, trace


def _measure_runs():
    """min-of-reps run times (off/on), the median of the per-rep on/off
    ratios, and the round count."""
    times = {"off": [], "on": []}
    rounds = {}
    for rep in range(_REPS):
        # Pair the modes within each rep, alternating which goes first,
        # so drift on a shared box hits both sides equally; the median
        # of the paired ratios discards the reps a burst of load hit.
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            telemetry = (
                RecordingTelemetry()
                if mode == "on"
                else NullTelemetry()
            )
            elapsed, trace = _run_once(telemetry)
            times[mode].append(elapsed)
            rounds[mode] = len(trace.rounds)
    assert rounds["off"] == rounds["on"]
    ratio = statistics.median(
        on / off for on, off in zip(times["on"], times["off"])
    )
    return min(times["off"]), min(times["on"]), ratio, rounds["off"]


def _noop_preamble_cost(iterations=200_000):
    """Per-round cost of the disabled instrumentation, timed verbatim.

    This mirrors the statements ``BroadcastEngine._step`` executes when
    telemetry is off: the hoist of the engine's sink and the dead
    ``enabled`` guard around the counter fold.
    """
    engine = SimpleNamespace(_telemetry=NullTelemetry())
    folds = 0
    gc.collect()
    started = time.perf_counter()
    for _ in range(iterations):
        telemetry = engine._telemetry
        if telemetry.enabled:
            folds += 1
    elapsed = time.perf_counter() - started
    assert folds == 0
    return elapsed / iterations


def test_noop_overhead_within_contract(table_out):
    """Disabled instrumentation costs <= 5% of a reference round, and
    enabled telemetry stays within its <= 10% run-time budget."""
    off, on, ratio, rounds = _measure_runs()
    per_round = off / rounds
    preamble = min(_noop_preamble_cost() for _ in range(3))
    fraction = preamble / per_round
    table_out(
        render_table(
            ["metric", "value"],
            [
                ["engine rounds", str(rounds)],
                ["run (telemetry off)", f"{off * 1e3:.2f} ms"],
                ["run (telemetry on)", f"{on * 1e3:.2f} ms"],
                ["on/off ratio (median of pairs)", f"{ratio:.3f}"],
                ["per-round engine cost", f"{per_round * 1e6:.2f} us"],
                ["per-round no-op preamble", f"{preamble * 1e9:.0f} ns"],
                ["no-op fraction of a round", f"{fraction * 100:.2f}%"],
            ],
            title=(
                f"OBS overhead: reference engine, line n={_N} "
                f"(no-op <= {_LIMIT:.0%}, on/off <= {_ENABLED_LIMIT:.2f})"
            ),
        )
    )
    assert fraction <= _LIMIT, (
        f"disabled-telemetry preamble is {fraction:.1%} of a reference "
        f"round, over the {_LIMIT:.0%} contract "
        "(see docs/OBSERVABILITY.md)"
    )
    assert ratio <= _ENABLED_LIMIT, (
        f"enabled telemetry runs at {ratio:.3f}x the disabled run time, "
        f"over the {_ENABLED_LIMIT:.2f} budget (see docs/OBSERVABILITY.md)"
    )


def test_null_primitives_are_cheap(table_out):
    """The disabled count()/span() no-ops sustain >1M calls/s."""
    null = NullTelemetry()
    calls = 200_000
    rows = []
    rates = {}
    for name, op in (
        ("count", lambda: null.count("x")),
        ("span", lambda: null.span("x").__enter__()),
    ):
        gc.collect()
        started = time.perf_counter()
        for _ in range(calls):
            op()
        elapsed = time.perf_counter() - started
        rate = calls / elapsed if elapsed > 0 else float("inf")
        rates[name] = rate
        rows.append([name, f"{rate / 1e6:.1f}M"])
    table_out(
        render_table(
            ["no-op", "calls/s"],
            rows,
            title="OBS null-sink primitive throughput",
        )
    )
    assert min(rates.values()) > 1e6
