"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-deterministic --seed 0 \\
        --seconds 20 --trace 0

The run is a closed loop from this one process: the workload's timed
pass repeats until the next pass would end after ``--seconds``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it are a human-readable table and a provenance row.  ``--workload all``
runs the four workloads in turn, each ending with its own JSON line.
The untraced timed passes run in a fresh interpreter
(``isolated.py``), so their peak memory is theirs alone.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# The script's own directory is first on sys.path when it runs.
from speed import SpeedProbe
from tracing import Tracer, install_layers
from workloads import WORKERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

#: Set-up probes per run (at least the first, at most the second, and
#: more only while within ``SETUP_BUDGET_S``); ``setup_s`` is their median.
SETUP_REPS = (3, 9)
SETUP_BUDGET_S = 4.0

#: The end-to-end metrics of an untraced run, with their units: work
#: units per second and set-up seconds (both at the reference speed of
#: ``speed.py``), and peak resident memory.
END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics of a traced run, with their units.
PER_LAYER = {
    "experiments.spec.expand_s": "s",
    "experiments.spec.tasks": "count",
    "experiments.runner.batch_s": "s",
    "experiments.runner.batches": "count",
    "graphs.build_s": "s",
    "graphs.builds": "count",
    "sim.fast_engine.compile_s": "s",
    "sim.fast_engine.compiles": "count",
    "core.make_processes_s": "s",
    "core.processes": "count",
    "sim.engine.build_s": "s",
    "sim.engine.builds": "count",
    "core.decide_s": "s",
    "core.decide_calls": "count",
    "core.send_ratio": "ratio",
    "adversaries.choose_s": "s",
    "adversaries.choose_calls": "count",
    "adversaries.cr4_s": "s",
    "adversaries.cr4_calls": "count",
    "sim.faults.build_s": "s",
    "sim.engine.run_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.rounds": "count",
    "sim.engine.self_us_per_round": "us",
    "store.claim_s": "s",
    "store.append_s": "s",
    "store.appends": "count",
    "store.close_s": "s",
    "store.iter_s": "s",
    "store.records_read": "count",
    "store.merge_s": "s",
    "analysis.report.fold_s": "s",
    "analysis.report.render_s": "s",
    "search.space_s": "s",
    "search.ask_s": "s",
    "search.tell_s": "s",
    "search.evaluate_s": "s",
    "search.verify_s": "s",
    "search.candidates": "count",
    "obs.events": "count",
    "obs.bytes": "bytes",
    "bench.traced_pass_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_s": "s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The environment of a fresh interpreter that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(inputs: Path, scratch: Path) -> List[float]:
    """Time several fresh interpreters up to the first dispatch.

    Each time is at the reference speed: the probe process measures the
    host's slowdown while it sets up.
    """
    env = child_env()
    times = []
    started = time.monotonic()
    low, high = SETUP_REPS
    while len(times) < low or (
        len(times) < high and time.monotonic() - started < SETUP_BUDGET_S
    ):
        probe_dir = scratch / f"probe-{len(times)}"
        start = time.monotonic()
        done = subprocess.run(
            [
                sys.executable,
                str(BENCH / "setup_probe.py"),
                str(inputs / "probe.json"),
                str(probe_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        end, slowdown = map(float, done.stdout.split()[-2:])
        times.append((end - start) / slowdown)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def peak_rss_mb() -> float:
    """This process's peak resident memory so far (``VmHWM``), in MB.

    Not ``getrusage``'s ``ru_maxrss``: on Linux that also keeps the
    high-water mark of the memory the process had before ``exec``,
    which for a child started by ``subprocess`` is its parent's.
    """
    with open("/proc/self/status", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_passes(workload, seconds: float, scratch: Path, tracer=None):
    """Repeat the timed pass until the next one would overrun ``seconds``.

    Returns the passes, each with its trace data when ``tracer`` is set
    and the process's peak memory at its end.  The last pass's
    directory is kept for the final checks.
    """
    passes = []
    started = time.monotonic()
    index = 0
    while True:
        pass_dir = scratch / f"pass-{'t' if tracer else 'u'}{index}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        gc.collect()
        if tracer is not None:
            tracer.calibrate()
        with SpeedProbe() as probe:
            result = workload.run_once(pass_dir)
        result.ref_s = result.wall_s / probe.slowdown(
            result.start, result.start + result.wall_s
        )
        if tracer is not None:
            result.trace = tracer.collect()
            if result.events_path is not None:
                raw = Path(result.events_path).read_bytes()
                result.trace.counts["obs.events"] = raw.count(b"\n")
                result.trace.counts["obs.bytes"] = len(raw)
        result.pass_dir = pass_dir
        result.peak_mb = peak_rss_mb()
        passes.append(result)
        index += 1
        elapsed = time.monotonic() - started
        if elapsed + result.wall_s > seconds:
            return passes
        shutil.rmtree(pass_dir, ignore_errors=True)


def run_isolated(workload, seconds: float, scratch: Path):
    """:func:`run_passes` in a fresh interpreter; returns its results.

    The prepared workload goes to ``isolated.py`` and comes back with
    the state its passes left (what the checks need), the passes and
    the child's peak resident memory in MB at the end of its first
    pass.  Nothing this process did
    before, inputs generation and earlier workloads included, counts
    towards that peak, and the checks run after it was taken.
    """
    state = scratch / "isolated.pkl"
    with open(state, "wb") as f:
        pickle.dump(workload, f)
    subprocess.run(
        [
            sys.executable,
            str(BENCH / "isolated.py"),
            str(state),
            repr(seconds),
            str(scratch),
        ],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        timeout=seconds + 150,
        check=True,
    )
    with open(state, "rb") as f:
        return pickle.load(f)


def layer_metrics(data, wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    layers = data.layers()

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    counts = data.counts
    decide = data.folded.get("core.decide", [0, 0.0, 0, 0])
    run_s = total("sim.engine.run")
    engine_self = layers.get("sim.engine.run", {}).get("self_s", 0.0)
    rounds = counts.get("sim.engine.rounds", 0)
    return {
        "experiments.spec.expand_s": total("experiments.spec.expand"),
        "experiments.spec.tasks": counts.get("experiments.spec.tasks", 0),
        "experiments.runner.batch_s": total("experiments.runner.batch"),
        "experiments.runner.batches": calls("experiments.runner.batch"),
        "graphs.build_s": total("graphs.build"),
        "graphs.builds": calls("graphs.build"),
        "sim.fast_engine.compile_s": total("sim.fast_engine.compile"),
        "sim.fast_engine.compiles": calls("sim.fast_engine.compile"),
        "core.make_processes_s": total("core.make_processes"),
        "core.processes": counts.get("core.processes", 0),
        "sim.engine.build_s": total("sim.engine.build"),
        "sim.engine.builds": calls("sim.engine.build"),
        "core.decide_s": total("core.decide"),
        "core.decide_calls": decide[0],
        "core.send_ratio": decide[2] / decide[0] if decide[0] else 0.0,
        "adversaries.choose_s": total("adversaries.choose"),
        "adversaries.choose_calls": calls("adversaries.choose"),
        "adversaries.cr4_s": total("adversaries.cr4"),
        "adversaries.cr4_calls": calls("adversaries.cr4"),
        "sim.faults.build_s": total("sim.faults.build"),
        "sim.engine.run_s": run_s,
        "sim.engine.self_s": engine_self,
        "sim.engine.rounds": rounds,
        "sim.engine.self_us_per_round": (
            1e6 * engine_self / rounds if rounds else 0.0
        ),
        "store.claim_s": total("store.claim"),
        "store.append_s": total("store.append"),
        "store.appends": calls("store.append"),
        "store.close_s": total("store.close"),
        "store.iter_s": total("store.iter"),
        "store.records_read": (
            calls("store.iter") + counts.get("store.records_claimed", 0)
        ),
        "store.merge_s": total("store.merge"),
        "analysis.report.fold_s": total("analysis.report.fold"),
        "analysis.report.render_s": total("analysis.report.render"),
        "search.space_s": total("search.space"),
        "search.ask_s": total("search.ask"),
        "search.tell_s": total("search.tell"),
        "search.evaluate_s": total("search.evaluate"),
        "search.verify_s": total("search.verify"),
        "search.candidates": counts.get("search.candidates", 0),
        "obs.events": counts.get("obs.events", 0),
        "obs.bytes": counts.get("obs.bytes", 0),
        "bench.traced_pass_s": wall,
        "bench.unattributed_s": wall - data.top_level_s(),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def compare(outputs: Dict[str, list], want: Dict[str, list]) -> List[str]:
    """Keys whose outputs differ from ``want`` (missing keys included)."""
    return sorted(
        key
        for key in set(outputs) | set(want)
        if outputs.get(key) != want.get(key)
    )


def check_passes(workload, passes, expected: Optional[Path]):
    """Every check on a run's passes: ``(attempted, failed, problems)``.

    A unit fails when its pass raised a structural problem, when its
    output differs from the first pass's (same inputs, same outputs),
    or when it differs from the pinned expected outputs.  The sample
    re-run on the reference engine adds its mismatches.
    """
    attempted = sum(p.units for p in passes)
    failed = 0
    problems: List[str] = []
    want = None
    if expected is not None and expected.exists():
        want = json.loads(expected.read_text("utf-8"))
    elif expected is not None:
        problems.append(f"missing expected outputs {expected}")
    first = passes[0].outputs
    for p in passes:
        if p.problems:
            failed += p.units
            problems.extend(p.problems)
            continue
        bad = set(compare(p.outputs, first))
        if want is not None:
            bad |= set(compare(p.outputs, want))
        if bad:
            failed += min(p.units, max(1, len(bad)))
            problems.append(
                f"{len(bad)} output(s) differ, e.g. {sorted(bad)[0]}"
            )
    checked, sample_problems = workload.sample_check(first)
    if sample_problems:
        failed += max(1, min(checked, len(sample_problems)))
        problems.extend(sample_problems)
    problems.extend(workload.final_check(passes[-1].pass_dir))
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(workload) -> Dict[str, Any]:
    """Environment, commit, source digest, workers and cell list."""
    from repro.obs import environment_metadata

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return {
        "environment": environment_metadata(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workers": WORKERS,
        "cells": workload.cells(),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(args, name: str) -> Dict[str, Any]:
    """Run one workload and print its table, row and JSON result line."""
    workload = WORKLOADS[name](args.seed, args.size)
    scratch = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        workload.prepare(scratch / "inputs")
        prov = provenance(workload)
        expected = (
            Path(args.expected) if args.expected else workload.expected_path()
        )
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2, scratch)
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced = run_passes(
                    workload, args.seconds / 2, scratch, tracer
                )
            finally:
                tracer.uninstall()
            passes = untraced + traced
            # Traced and untraced passes ran the same inputs, so the
            # first-pass comparison in check_passes covers their
            # records too.
        else:
            setup = measure_setup(scratch / "inputs", scratch)
            workload, passes, peak = run_isolated(
                workload, args.seconds, scratch
            )
        attempted, failed, problems = check_passes(workload, passes, expected)

        extra = {}
        if args.trace:
            metrics = traced_metrics(untraced, traced)
            units = PER_LAYER
            extra["uncorrected"] = uncorrected(traced)
            write_spans(name, args.seed, traced[-1].trace)
        else:
            rates = [p.units / p.ref_s for p in passes]
            metrics = {
                "throughput_per_s": statistics.median(rates),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak,
            }
            units = END_TO_END
        print_table(workload, passes, metrics, units, attempted, failed)
        for line in problems[:20]:
            print(f"  check failed: {line}")
        row = {
            "workload": name,
            "seed": args.seed,
            "size": args.size,
            "seconds": args.seconds,
            "trace": args.trace,
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_ref_s": [p.ref_s for p in passes],
            "pass_peak_mb": [p.peak_mb for p in passes],
            "metrics": metrics,
            **extra,
            "provenance": prov,
        }
        print("row " + json.dumps(row, sort_keys=True))
        return {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m: {"value": metrics[m], "unit": units[m]} for m in units
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_metrics(untraced, traced) -> Dict[str, float]:
    """Median per-layer metrics over the traced passes, plus overhead."""
    per_pass = [layer_metrics(p.trace, p.wall_s) for p in traced]
    metrics = {
        m: statistics.median(row[m] for row in per_pass)
        for m in per_pass[0]
    }
    metrics["bench.trace_overhead"] = statistics.median(
        p.ref_s for p in traced
    ) / statistics.median(p.ref_s for p in untraced)
    return {m: metrics[m] for m in PER_LAYER}


def uncorrected(traced) -> Dict[str, float]:
    """``core.decide_s`` and ``sim.engine.self_s`` as measured.

    Medians over the traced passes, before the folded wrappers' cost is
    taken out, to set beside the corrected metrics.
    """
    layers = [p.trace.layers() for p in traced]
    return {
        metric: statistics.median(
            row.get(layer, {}).get("raw_self_s", 0.0) for row in layers
        )
        for metric, layer in (
            ("core.decide_s", "core.decide"),
            ("sim.engine.self_s", "sim.engine.run"),
        )
    }


def write_spans(name: str, seed: int, data) -> None:
    """Keep the last traced pass's spans in ``.perfbench_out/``."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"{name}-seed{seed}-spans.jsonl", "w") as f:
        for span in data.spans:
            f.write(json.dumps(span, sort_keys=True) + "\n")
        f.write(json.dumps({"folded": data.folded}) + "\n")


def print_table(workload, passes, metrics, units, attempted, failed) -> None:
    """The human-readable report printed above the result line."""
    unit_metric = f"{workload.unit}_per_s"
    print(
        f"== {workload.name} (seed {workload.seed}, {workload.size}, "
        f"{len(passes)} pass(es), {WORKERS} worker(s))"
    )
    for name, value in metrics.items():
        label = name
        if name == "throughput_per_s":
            label = f"{unit_metric} (throughput_per_s)"
        print(f"  {label:<44} {value:>14.6g} {units[name]}")
    raw = statistics.median(p.units / p.wall_s for p in passes)
    print(f"  {unit_metric + ' (raw wall clock)':<44} {raw:>14.6g} 1/s")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<44} {frac:>14.6g} share of {attempted}")
    trace = getattr(passes[-1], "trace", None)
    if trace is not None:
        print_layers(trace, passes[-1].wall_s)


def print_layers(data, wall: float) -> None:
    """Per-layer calls, total and self time of the last traced pass.

    ``raw_self_s`` is the self time before the folded wrappers' measured
    cost is taken out, so the size of that correction shows.
    """
    rows = sorted(
        data.layers().items(), key=lambda kv: kv[1]["self_s"], reverse=True
    )
    inside, outside = data.overhead
    print(
        f"  folded wrapper cost per call: {1e9 * inside:.0f} ns inside, "
        f"{1e9 * outside:.0f} ns outside"
    )
    print(f"  {'layer':<30} {'calls':>10} {'total_s':>10} {'self_s':>10} "
          f"{'raw_self_s':>10} {'self%':>6}")
    for name, row in rows:
        print(
            f"  {name:<30} {row['calls']:>10.0f} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['raw_self_s']:>10.4f} "
            f"{100 * row['self_s'] / wall:>6.1f}"
        )


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the self-test",
    )
    parser.add_argument(
        "--expected", default=None,
        help="expected-outputs file to check against (default: the "
        "pinned file for this workload, size and seed, if any)",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        return _fail(f"unknown workload {unknown[0]!r}; known: {list(WORKLOADS)}")
    for name in names:
        result = run_workload(args, name)
        print(json.dumps(result, sort_keys=True), flush=True)
    # A wrong result is reported through "correct", not the exit code.
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
