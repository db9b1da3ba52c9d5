"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(the repository's own ``pytest`` run collects ``tests/`` only).
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from make_expected import write_expected  # noqa: E402
from tracing import Tracer, install_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(workload: str, *args: str) -> subprocess.CompletedProcess:
    return bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--size", "tiny", *args,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = tiny(workload, "--trace", trace)
    result = last_json(done)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    table = done.stdout
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert metric["name"] in table
    assert "failed_frac" in table
    assert "\nrow " in table


@pytest.mark.parametrize("workload", ["sweep-deterministic", "search-adversary"])
def test_a_corrupted_expected_record_fails_the_run(workload, tmp_path):
    expected = tmp_path / "expected.json"
    assert write_expected(workload, 3, "tiny", expected)
    clean = last_json(tiny(workload, "--expected", str(expected)))
    assert clean["correct"] and clean["failed"] == 0

    outputs = json.loads(expected.read_text("utf-8"))
    key = sorted(outputs)[0]
    outputs[key][-2] = 10**6  # a science field no run produces
    expected.write_text(json.dumps(outputs), encoding="utf-8")
    result = last_json(tiny(workload, "--expected", str(expected)))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_passes_give_identical_outputs(workload, tmp_path):
    subject = WORKLOADS[workload](3, "tiny")
    subject.prepare(tmp_path / "inputs")
    untraced = subject.run_once(tmp_path / "u")
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced = subject.run_once(tmp_path / "t")
    finally:
        tracer.uninstall()
    data = tracer.collect()
    assert not untraced.problems and not traced.problems
    assert traced.outputs == untraced.outputs
    assert data.spans, "the traced pass recorded no spans"


def test_all_and_a_single_workload_report_the_same_peak_memory():
    done = bench(
        "--workload", "all", "--seed", "3", "--seconds", "1",
        "--size", "tiny", "--trace", "0",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    results = [
        json.loads(line)
        for line in done.stdout.splitlines()
        if line.startswith('{"attempted"')
    ]
    assert len(results) == len(WORKLOADS)
    for name, together in zip(WORKLOADS, results):
        alone = last_json(tiny(name, "--trace", "0"))
        want = alone["metrics"]["peak_rss_mb"]["value"]
        got = together["metrics"]["peak_rss_mb"]["value"]
        assert abs(got - want) <= 0.05 * want, (name, got, want)


def test_peak_memory_leaves_out_what_the_caller_holds(tmp_path):
    subject = WORKLOADS["sweep-deterministic"](3, "tiny")
    subject.prepare(tmp_path / "inputs")
    ballast = bytearray(200 << 20)  # 200 MB, every page touched
    try:
        back, passes, peak = run.run_isolated(subject, 0.5, tmp_path)
    finally:
        del ballast
    assert passes and back.science == subject.science
    assert 0 < peak < 150


def _calibrated(body, repeats: int) -> float:
    """Seconds ``body`` takes ``repeats`` times, at the reference speed."""
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        start = time.perf_counter()
        for _ in range(repeats):
            body()
        wall = time.perf_counter() - start
        return wall / probe.slowdown(start, start + wall)


def test_work_added_to_the_program_shows_in_full_in_calibrated_time(
    tmp_path,
):
    # The speed kernel runs inside the measured process.  If it shared
    # enough state with the program to slow down with it, calibration
    # would cancel part of a real regression.  Add a known amount of
    # interpreter work to every decide_send and check that calibrated
    # time grows by that work's own calibrated cost.
    from repro.sim.process import Process

    subject = WORKLOADS["sweep-deterministic"](3, "tiny")
    subject.prepare(tmp_path / "inputs")
    fresh = itertools.count()

    def one_pass():
        subject.run_once(tmp_path / f"p{next(fresh)}")

    def burn():
        x = 0
        for i in range(150):
            x += i
        return x

    calls = [0]

    def injected(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            burn()
            return fn(*args, **kwargs)

        return wrapper

    class Idle:
        def decide_send(self, round_no):
            return None

    Idle.decide_send = injected(Idle.decide_send)
    owners, todo = {}, [Process]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "decide_send" in cls.__dict__:
            owners[cls] = cls.__dict__["decide_send"]

    repeats = 40
    one_pass()  # warm-up
    ratios = []
    for _ in range(5):
        base = _calibrated(one_pass, repeats)
        calls[0] = 0
        for cls, fn in owners.items():
            setattr(cls, "decide_send", injected(fn))
        try:
            slow = _calibrated(one_pass, repeats)
        finally:
            for cls, fn in owners.items():
                setattr(cls, "decide_send", fn)
        # The injected work's own cost, called the same way.
        per_pass = calls[0] // repeats
        idle = Idle()
        cost = _calibrated(
            lambda: [idle.decide_send(0) for _ in range(per_pass)], repeats
        )
        ratios.append((slow - base) / cost)
    # Below 1 the calibration would be cancelling part of the added
    # work.  The ratio reads about 1.1: replacing decide_send costs a
    # little more inside the engine than in the plain loop above.
    assert 0.8 <= statistics.median(ratios) <= 1.4, ratios


def test_uninstall_restores_the_engine_path_identity():
    from repro.adversaries.base import Adversary
    from repro.adversaries.simple import RandomDeliveryAdversary
    from repro.core.runner import make_processes
    from repro.experiments import runner

    before = (
        Adversary.resolve_cr4,
        RandomDeliveryAdversary.resolve_cr4,
        runner.make_processes,
    )
    tracer = Tracer()
    install_layers(tracer)
    try:
        # Classes that inherit the default resolver must still see it.
        from repro.adversaries.interferers import GreedyInterferer
        from repro.search.genome import GenomeAdversary

        assert GenomeAdversary.resolve_cr4 is Adversary.resolve_cr4
        assert "resolve_cr4" not in GenomeAdversary.__dict__
        assert GreedyInterferer.resolve_cr4 is not Adversary.resolve_cr4
        assert runner.make_processes is not make_processes
    finally:
        tracer.uninstall()
    assert before == (
        Adversary.resolve_cr4,
        RandomDeliveryAdversary.resolve_cr4,
        runner.make_processes,
    )


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(
        "--workload", "sweep-deterministic", "--seed", "0",
        "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
