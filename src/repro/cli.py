"""Command-line interface: run broadcasts and experiments from a shell.

Usage (module form)::

    python -m repro run --graph gnp --n 64 --algorithm harmonic \
        --adversary greedy --seed 7
    python -m repro sweep --graph clique-bridge --algorithm strong_select \
        --sizes 16,32,64 --seeds 0,1,2 --workers 4
    python -m repro sweep --spec examples/specs/tiny_sweep.json \
        --workers 4 --results results/tiny.jsonl
    python -m repro sweep --spec examples/specs/tiny_sweep.json \
        --workers 4 --results results/campaign --store sharded
    python -m repro merge --results results/campaign --out results/all.jsonl
    python -m repro report --results results/campaign
    python -m repro lowerbound --theorem 2 --n 32
    python -m repro lowerbound --theorem 12 --n 33 --algorithm round_robin

Everything the CLI can do is a thin layer over the library API; the CLI
exists so experiments are reproducible from shell history alone.  Sweeps
go through :mod:`repro.experiments`: they fan out over worker processes,
and with ``--results`` they persist each run as a JSON line and resume
by key after an interruption.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from repro.analysis import best_fit, render_table
from repro.core.runner import ALGORITHMS, broadcast, suggested_round_limit
from repro.registry import Registry
from repro.sim.collision import CollisionRule
from repro.sim.engine import ENGINE_NAMES, StartMode
from repro.sim.faults import REJOIN_POLICIES
from repro.store import STORE_BACKENDS
from repro.experiments import (
    ExperimentSpec,
    SweepResult,
    SweepRunner,
    build_adversary,
    build_churn,
    build_graph,
    load_specs,
)
from repro.experiments.registry import ADVERSARIES, CHURNS, GRAPHS


def _warn_health(health, source: str, noun: str) -> None:
    """Print the unified store-damage warning when there is damage.

    One text for both subsystems and every backend — the
    :class:`~repro.store.base.StoreHealth` satellite of the storage
    redesign.
    """
    message = health.warning(source, noun)
    if message:
        print(message, file=sys.stderr)


def _store_backend(args) -> Optional[str]:
    """The ``--store`` choice, with ``auto`` mapped to detection."""
    choice = getattr(args, "store", "auto")
    return None if choice == "auto" else choice


def _flag_params(
    registry: Registry, kind: str, args, prefix: str = "", **given
) -> dict:
    """The declared params of ``kind`` that the parsed flags supply.

    A declared param ``name`` takes ``given[name]`` if present, else the
    flag ``--<prefix><name>`` or ``--<name>`` (``--p`` for the random
    adversary's ``p``, ``--churn-count`` for the window churn's
    ``count``).  Params no flag supplies are left to the factory
    default; unknown kinds get none (the build names the kind).
    """
    if kind not in registry:
        return {}
    params = {}
    for name in registry.entry(kind).params or ():
        if name in given:
            params[name] = given[name]
        else:
            for dest in (prefix + name, name):
                if hasattr(args, dest):
                    params[name] = getattr(args, dest)
                    break
    return params


def cmd_run(args) -> int:
    try:
        graph = build_graph(args.graph, args.n, seed=args.seed)
        # Resolve the round cap up front: a rate-based churn schedule
        # must cover the whole horizon the run can reach.
        max_rounds = args.max_rounds
        if max_rounds is None:
            max_rounds = suggested_round_limit(args.algorithm, graph)
        trace = broadcast(
            graph,
            args.algorithm,
            adversary=build_adversary(
                args.adversary,
                seed=args.seed,
                **_flag_params(ADVERSARIES, args.adversary, args),
            ),
            seed=args.seed,
            max_rounds=max_rounds,
            engine=args.engine,
            churn=build_churn(
                args.churn,
                n=graph.n,
                rounds=max_rounds,
                seed=args.seed,
                **_flag_params(CHURNS, args.churn, args, prefix="churn_"),
            ),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(trace.to_json())
    else:
        print(
            render_table(
                ["quantity", "value"],
                list(trace.summary().items()),
                title=f"{args.algorithm} on {graph.name}",
            )
        )
    return 0 if trace.completed else 1


def _legacy_spec(args) -> ExperimentSpec:
    """Build a one-spec grid from the sweep subcommand's inline flags."""
    sizes = [int(s) for s in args.sizes.split(",")]
    params = _flag_params(ADVERSARIES, args.adversary, args, n=sizes[0])
    if "n" in params and len(sizes) > 1:
        # An adversary sized by ``n`` (pivot) is built per network
        # size; one spec entry cannot cover a size grid.  Spec files
        # can (one adversary entry per size); the inline form takes a
        # single --sizes.
        raise SystemExit(
            f"--adversary {args.adversary} needs a single --sizes value "
            "(its layout is built per network size); use a spec file "
            "for grids"
        )
    return ExperimentSpec(
        name=f"{args.algorithm}-{args.graph}",
        algorithms=[args.algorithm],
        graphs=[(args.graph, n) for n in sizes],
        adversaries=[(args.adversary, params)],
        engines=[args.engine or "reference"],
        seeds=[int(s) for s in args.seeds.split(",")],
        max_rounds=args.max_rounds,
    )


def _print_growth_fits(result: SweepResult) -> None:
    """Fit completion-round growth per (sweep, algorithm) curve."""
    for sweep, by_sweep in result.group_by("sweep").items():
        for alg, group in by_sweep.group_by("algorithm").items():
            summaries = group.summarize_by("n")
            if len(summaries) < 2:
                continue
            sizes = sorted(summaries)
            means = [summaries[n].mean for n in sizes]
            fit = best_fit(sizes, means)
            print(f"growth fit [{sweep}/{alg}]: {fit.format()}")


def cmd_sweep(args) -> int:
    if args.spec:
        try:
            specs = load_specs(args.spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"cannot load spec {args.spec!r}: {exc}")
        if args.engine:
            # An explicit --engine overrides every loaded spec's engine
            # axis (results are engine-independent; only keys change).
            specs = [
                dataclasses.replace(spec, engines=(args.engine,))
                for spec in specs
            ]
        title = f"sweep spec {args.spec}"
    else:
        try:
            specs = [_legacy_spec(args)]
        except ValueError as exc:
            raise SystemExit(str(exc))
        title = (
            f"{args.algorithm} on {args.graph}, adversary="
            f"{args.adversary}, seeds={[int(s) for s in args.seeds.split(',')]}"
        )

    sink = None
    if args.events:
        if not args.results:
            raise SystemExit(
                "--events requires --results: the events.jsonl stream "
                "lives beside the campaign store"
            )
        from repro.obs import JsonlTelemetry, events_path
        from repro.store import detect_backend

        # A directory-shaped campaign keeps its stream *inside* the
        # directory; create it up front so events_path resolves the
        # directory form even on a campaign's very first sweep.
        backend = _store_backend(args) or detect_backend(args.results)
        if backend in ("sharded", "columnar"):
            os.makedirs(args.results, exist_ok=True)
        sink = JsonlTelemetry(events_path(args.results))

    try:
        runner = SweepRunner(
            specs,
            workers=args.workers,
            results_path=args.results,
            batch=args.batch,
            store=_store_backend(args),
            flush_every=args.flush_every,
        )
        if sink is not None:
            from repro.obs import merge_event_files, use

            try:
                with use(sink):
                    result = runner.run()
            finally:
                sink.close()
                merge_event_files(args.results)
        else:
            result = runner.run()
    except (ValueError, ImportError) as exc:
        # Bad worker counts, unknown graph/adversary kinds, duplicate
        # task keys, campaign fingerprint mismatches, a missing NumPy
        # for --store columnar: user input problems, not crashes.
        raise SystemExit(str(exc))

    _warn_health(result.health, args.results, "task")
    for record in result.failures:
        print(
            f"warning: {record.key} hit the round cap", file=sys.stderr
        )
    print(
        render_table(
            SweepResult.TABLE_HEADER,
            result.table_rows(),
            title=f"{title} ({result.executed} run, "
            f"{result.resumed} resumed, {result.elapsed:.1f}s, "
            f"workers={args.workers})",
        )
    )
    _print_growth_fits(result)
    return 0 if not result.failures else 1


def cmd_list(args) -> int:
    """Print every registered kind, its declared params and description."""
    from repro.search.searchers import SEARCHERS

    registries = [
        ("graphs", "graph kinds", GRAPHS),
        ("adversaries", "adversary kinds", ADVERSARIES),
        ("churns", "churn kinds (fault injection)", CHURNS),
        ("algorithms", "algorithms", ALGORITHMS),
        ("searchers", "searcher kinds (repro search)", SEARCHERS),
    ]
    described = {key: registry.describe() for key, _, registry in registries}
    if args.json:
        print(json.dumps(described, indent=2, sort_keys=True))
        return 0
    for key, title, _ in registries:
        rows = [
            [
                kind,
                "(undeclared)" if d["params"] is None else ", ".join(
                    f"{name}: {typ}" for name, typ in d["params"].items()
                ) or "-",
                d["description"],
            ]
            for kind, d in described[key].items()
        ]
        print(
            render_table(
                ["kind", "params", "description"], rows, title=title
            )
        )
    return 0


def cmd_search(args) -> int:
    from repro.search import (
        SearchBudget,
        SearchSettings,
        run_search,
        supports_theorem2,
        theorem2_comparison,
    )

    graph = args.graph
    dashed = graph.replace("_", "-")
    if graph not in GRAPHS and dashed in GRAPHS:
        # Accept underscore spellings of registered hyphenated kinds.
        graph = dashed
    try:
        settings = SearchSettings(
            algorithm=args.algorithm,
            graph_kind=graph,
            n=args.n,
            collision_rule=args.cr,
            start_mode=args.start_mode,
            seed=args.seed,
            max_rounds=args.max_rounds,
            engine=args.engine,
            churn_genes=args.churn_genes,
        )
        result = run_search(
            settings,
            searcher=args.searcher,
            budget=SearchBudget(
                evaluations=args.budget, batch_size=args.batch_size
            ),
            seed=args.search_seed,
            workers=args.workers,
            results_path=args.results,
            verify=args.verify,
            store=_store_backend(args),
            flush_every=args.flush_every,
        )
    except (ValueError, ImportError) as exc:
        raise SystemExit(str(exc))

    _warn_health(result.health, args.results, "candidate")
    comparison = None
    if args.compare_theorem2:
        if supports_theorem2(settings):
            comparison = theorem2_comparison(result)
        else:
            print(
                f"warning: --compare-theorem2 skipped: graph kind "
                f"{settings.graph_kind!r} is not in the Theorem-2 "
                "clique-bridge family",
                file=sys.stderr,
            )
    if args.json:
        doc = result.summary()
        if comparison is not None:
            doc["theorem2"] = dataclasses.asdict(comparison)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        rows = result.table_rows()
        if result.replay_verified is not None:
            rows.append(["replay verified", result.replay_verified])
        print(
            render_table(
                ["quantity", "value"],
                rows,
                title=f"adversary search: {args.searcher} vs "
                f"{settings.algorithm} on {settings.graph_kind} "
                f"(n={settings.n}, {settings.collision_rule}, "
                f"{result.executed} run, {result.resumed} resumed, "
                f"{result.elapsed:.1f}s)",
            )
        )
        if comparison is not None:
            print(
                render_table(
                    ["quantity", "value"],
                    comparison.table_rows(),
                    title="search vs Theorem 2",
                )
            )
    return 0 if result.replay_verified is not False else 1


def cmd_merge(args) -> int:
    """Fold a campaign store into one canonical JSONL results file."""
    from repro.store import RawRecord, merge_store, open_store

    try:
        source = open_store(
            args.results, parse=RawRecord, backend=_store_backend(args)
        )
        count = merge_store(source, args.out)
    except (OSError, ValueError, ImportError) as exc:
        raise SystemExit(str(exc))
    _warn_health(source.health, args.results, "record")
    print(
        f"merged {args.results} -> {args.out}: {count} record(s), "
        "key-sorted (idempotent; resumable by any sweep/search "
        "with --results pointing at the merged file)"
    )
    return 0


def cmd_report(args) -> int:
    """Stream a campaign into the paper-reproduction table set."""
    from repro.analysis.report import CampaignReport
    from repro.experiments import RunResult
    from repro.store import open_store

    try:
        store = open_store(
            args.results,
            parse=RunResult.from_dict,
            backend=_store_backend(args),
        )
        report = CampaignReport.from_store(store)
    except (OSError, ValueError, ImportError) as exc:
        raise SystemExit(str(exc))
    _warn_health(store.health, args.results, "record")
    # Perf panel: present only when the campaign ran with --events (a
    # missing stream is a normal state, not an error).
    from repro.obs import events_path, perf_summary, render_perf_panel

    perf = (
        perf_summary(args.results)
        if events_path(args.results).exists()
        else None
    )
    if args.json:
        doc = report.to_dict()
        if perf is not None:
            doc["perf"] = perf
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(report.render(title=f"campaign {args.results}"))
        if perf is not None:
            print()
            print(render_perf_panel(perf))
    if not report.records:
        # A valid-but-empty campaign (e.g. a store opened before its
        # first sweep finished a record) is a normal state, not an
        # error; scripts gating on the exit code must only fail on
        # damage.  The JSON payload already reports records: 0.
        print(
            f"note: {args.results} holds no sweep records yet",
            file=sys.stderr,
        )
    return 1 if store.health.issues else 0


def cmd_progress(args) -> int:
    """Render a campaign's progress from its events.jsonl stream."""
    import time

    from repro.obs import events_path, read_progress

    stream = events_path(args.results)
    if not stream.exists():
        raise SystemExit(
            f"no events stream at {stream}; run the sweep with --events"
        )
    progress = read_progress(args.results)
    if args.json:
        print(json.dumps(progress.to_dict(), indent=2, sort_keys=True))
        return 0
    if not args.follow:
        print(progress.render_line())
        return 0
    # Live tail: rewrite one status line until the campaign finishes.
    while True:
        line = progress.render_line()
        print(f"\r\x1b[2K{line}", end="", flush=True)
        if progress.finished:
            print()
            return 0
        time.sleep(args.interval)
        progress = read_progress(args.results)


def cmd_profile(args) -> int:
    """Run one cell under instrumentation; print timings + counters."""
    from repro.obs import profile_task

    try:
        spec = ExperimentSpec(
            name="profile",
            algorithms=(args.algorithm,),
            graphs=((args.graph, args.n),),
            adversaries=(
                (
                    args.adversary,
                    _flag_params(ADVERSARIES, args.adversary, args),
                ),
            ),
            collision_rules=(args.cr,),
            engines=(args.engine,),
            churns=(args.churn,),
            seeds=(args.seed,),
            max_rounds=args.max_rounds,
        )
        report = profile_task(spec.tasks()[0])
    except (ValueError, ImportError) as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def cmd_check(args) -> int:
    """Run the AST invariant checker (see docs/CHECKS.md)."""
    import pathlib

    from repro.check import (
        Baseline,
        check_paths,
        render_human,
        render_json,
        render_rule_list,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    paths = [pathlib.Path(p) for p in (args.paths or ["src/repro"])]
    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(pathlib.Path(args.baseline))
        except ValueError as exc:
            raise SystemExit(str(exc))
    try:
        report = check_paths(paths, baseline=baseline)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    if args.write_baseline:
        Baseline.from_findings(list(report.findings)).save(
            pathlib.Path(args.write_baseline)
        )
        print(
            f"wrote baseline {args.write_baseline}: "
            f"{len(report.findings)} finding(s) grandfathered"
        )
        return 0
    print(render_json(report) if args.json else render_human(report))
    return 0 if report.clean else 1


def cmd_lowerbound(args) -> int:
    from repro.core import (
        make_round_robin_processes,
        make_strong_select_processes,
    )
    from repro.lowerbounds import (
        theorem2_lower_bound,
        theorem11_lower_bound,
        theorem12_construction,
    )

    factories = {
        "round_robin": make_round_robin_processes,
        "strong_select": lambda n: make_strong_select_processes(n),
    }
    try:
        factory = factories[args.algorithm]
    except KeyError:
        raise SystemExit(
            "lower-bound drivers need a deterministic algorithm: "
            f"{sorted(factories)}"
        )

    if args.theorem == 2:
        res = theorem2_lower_bound(factory, args.n)
        print(
            render_table(
                ["quantity", "value"],
                [
                    ["n", res.n],
                    ["worst-case rounds", res.worst_rounds],
                    ["paper bound (n-3)", res.theorem_bound],
                    ["worst bridge identity", res.worst_bridge_uid],
                    ["bound holds", res.bound_holds],
                ],
                title=f"Theorem 2 vs {args.algorithm}",
            )
        )
        return 0
    if args.theorem == 11:
        res = theorem11_lower_bound(factory, n=args.n)
        print(
            render_table(
                ["quantity", "value"],
                [
                    ["n", res.n],
                    ["layers x width", f"{res.num_layers} x {res.width}"],
                    ["total rounds", res.total_rounds],
                    ["rounds / n^1.5",
                     f"{res.normalized:.3f}" if res.normalized else "—"],
                ],
                title=f"Theorem 11 vs {args.algorithm}",
            )
        )
        return 0
    if args.theorem == 12:
        n = args.n if args.n % 2 else args.n + 1
        res = theorem12_construction(factory, n)
        print(
            render_table(
                ["quantity", "value"],
                [
                    ["n", res.n],
                    ["certified rounds", res.total_rounds],
                    ["stages", len(res.stages)],
                    ["min early-stage rounds", res.min_early_stage_rounds],
                    ["paper total guarantee",
                     f"{res.paper_total_guarantee:.0f}"],
                ],
                title=f"Theorem 12 vs {args.algorithm}",
            )
        )
        return 0
    raise SystemExit("supported theorems: 2, 11, 12")


#: Marks a shared flag as required by a subcommand (instead of a default).
_REQUIRED = object()


def _shared_flags() -> dict:
    """argparse keywords of every flag several subcommands share.

    Each flag is defined here once; its help text and choices come from
    the registries and enums.  Subcommands add them through
    :func:`_add_shared` with their own defaults.
    """

    def kinds(registry: Registry) -> str:
        return ", ".join(registry.kinds())

    return {
        "graph": dict(
            help=f"graph kind: {kinds(GRAPHS)} (see `repro list`)"
        ),
        "n": dict(type=int, help="network size"),
        "algorithm": dict(help=f"algorithm: {kinds(ALGORITHMS)}"),
        "adversary": dict(help=f"adversary kind: {kinds(ADVERSARIES)}"),
        "p": dict(
            type=float, help="delivery probability for --adversary random"
        ),
        "seed": dict(
            type=int,
            help="cell seed: graph, adversary and engine randomness "
            "derive from it",
        ),
        "max_rounds": dict(
            type=int,
            help="round cap (default: from the algorithm's proven bound)",
        ),
        "engine": dict(
            choices=list(ENGINE_NAMES),
            help="execution engine: reference (the oracle) or fast (the "
            "bitmask engine); traces are identical.  A sweep's --engine "
            "overrides the spec file's engines axis",
        ),
        "churn": dict(
            help=f"fault-injection kind: {kinds(CHURNS)} (see `repro "
            "list`); schedules derive deterministically from --seed",
        ),
        "cr": dict(
            choices=list(CollisionRule.__members__),
            help="collision rule of the cell",
        ),
        "start_mode": dict(
            choices=[mode.value for mode in StartMode],
            help="start rule (lower-bound constructions use synchronous)",
        ),
        "results": dict(
            help="result store: a JSON-lines file or a campaign "
            "directory (sharded/columnar); sweep and search resume the "
            "records already there by key rather than re-run them",
        ),
        "store": dict(
            choices=list(STORE_BACKENDS),
            help="result-store backend behind --results (auto: detect "
            "from the path/manifest — a directory is a sharded "
            "campaign, a file is JSON lines; see docs/STORAGE.md)",
        ),
        "flush_every": dict(
            type=int,
            help="flush the result store every N records (default: the "
            "backend's policy — jsonl 1, sharded 64, columnar 512)",
        ),
        "workers": dict(
            type=int, help="worker processes (default 1: in-process)"
        ),
        "json": dict(action="store_true", help="machine-readable output"),
    }


def _add_shared(parser: argparse.ArgumentParser, **defaults) -> None:
    """Add the named shared flags with this subcommand's defaults.

    A default of :data:`_REQUIRED` makes the flag required instead.
    """
    flags = _shared_flags()
    for name, default in defaults.items():
        kwargs = dict(flags[name])
        if default is _REQUIRED:
            kwargs["required"] = True
        else:
            kwargs["default"] = default
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Broadcasting in unreliable radio networks — "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one broadcast")
    _add_shared(
        run, graph="gnp", n=32, algorithm="strong_select",
        adversary="greedy", p=0.5, seed=0, max_rounds=None,
        engine="reference", churn="none", json=False,
    )
    run.add_argument(
        "--crash-rate", type=float, default=0.02,
        help="per-round crash probability for --churn rate",
    )
    run.add_argument(
        "--recover-rate", type=float, default=0.2,
        help="per-round recovery probability for --churn rate",
    )
    run.add_argument(
        "--rejoin", choices=list(REJOIN_POLICIES),
        default="uninformed",
        help="recovery policy: uninformed loses the payload on crash "
        "(must be re-informed), informed keeps it (stable storage)",
    )
    run.add_argument(
        "--churn-count", type=int, default=1,
        help="nodes taken down by --churn window",
    )
    run.add_argument(
        "--churn-start", type=int, default=2,
        help="first down round for --churn window",
    )
    run.add_argument(
        "--churn-length", type=int, default=4,
        help="rounds the window nodes stay down",
    )
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run an experiment grid (optionally in parallel)"
    )
    sweep.add_argument(
        "--spec", default=None,
        help="JSON spec file (one spec object or a list); overrides the "
        "inline grid flags below",
    )
    _add_shared(
        sweep, graph="gnp", algorithm="strong_select", adversary="greedy",
        p=0.5, max_rounds=None, engine=None, results=None, store="auto",
        flush_every=None, workers=1,
    )
    sweep.add_argument("--sizes", default="16,32,64")
    sweep.add_argument("--seeds", default="0,1,2")
    sweep.add_argument(
        "--events", action="store_true",
        help="write a schema-versioned events.jsonl telemetry stream "
        "beside --results (progress, worker heartbeats, engine "
        "counters; consumed by repro progress and repro report)",
    )
    sweep.add_argument(
        "--batch", action=argparse.BooleanOptionalAction, default=True,
        help="group tasks by science cell so each worker builds the "
        "cell's graph and compiled engine topology once and runs all "
        "its seeds against them (--no-batch: per-task dispatch); "
        "records are identical either way",
    )
    sweep.set_defaults(func=cmd_sweep)

    lister = sub.add_parser(
        "list",
        help="list registered graph/adversary/algorithm/searcher kinds",
    )
    _add_shared(lister, json=False)
    lister.set_defaults(func=cmd_list)

    search = sub.add_parser(
        "search",
        help="search for a worst-case adversary strategy "
        "(see docs/SEARCH.md)",
    )
    _add_shared(
        search, graph="clique-bridge", n=16, algorithm="round_robin",
        cr="CR1", start_mode="synchronous", seed=0, max_rounds=None,
        engine="fast", results=None, store="auto", flush_every=None,
        workers=1, json=False,
    )
    search.add_argument(
        "--searcher", default="random",
        help="searcher kind (see `repro list`)",
    )
    search.add_argument(
        "--budget", type=int, default=64,
        help="total candidate evaluations (across resumes)",
    )
    search.add_argument(
        "--batch-size", type=int, default=8,
        help="candidates generated and evaluated per iteration",
    )
    search.add_argument(
        "--search-seed", type=int, default=0,
        help="seed of the candidate-generation rng",
    )
    search.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="replay-certify the best genome through a strict "
        "ReplayAdversary on the reference engine (--no-verify skips)",
    )
    search.add_argument(
        "--churn-genes", action="store_true",
        help="let genomes carry crash genes (node, round, down-for): "
        "the adversary co-optimises crash/recovery timing alongside "
        "edge deliveries; the source is never crashed",
    )
    search.add_argument(
        "--compare-theorem2", action="store_true",
        help="on clique-bridge cells, also print the found worst case "
        "next to the Theorem 2 bound and scripted-adversary stall",
    )
    search.set_defaults(func=cmd_search)

    merge = sub.add_parser(
        "merge",
        help="merge a campaign store into one canonical JSONL file "
        "(see docs/STORAGE.md)",
    )
    _add_shared(merge, results=_REQUIRED, store="auto")
    merge.add_argument(
        "--out", required=True,
        help="destination JSONL file; existing records there are "
        "kept and updated by key (idempotent, key-sorted, atomic)",
    )
    merge.set_defaults(func=cmd_merge)

    report = sub.add_parser(
        "report",
        help="stream a campaign into the paper-reproduction tables "
        "(completion summaries + Thm 2/10/18 reference bounds)",
    )
    _add_shared(report, results=_REQUIRED, store="auto", json=False)
    report.set_defaults(func=cmd_report)

    prog = sub.add_parser(
        "progress",
        help="show a campaign's progress from its events.jsonl stream "
        "(written by repro sweep --events)",
    )
    prog.add_argument(
        "results",
        help="the campaign's results file or directory (the stream "
        "lives beside it)",
    )
    _add_shared(prog, json=False)
    prog.add_argument(
        "--follow", action="store_true",
        help="keep re-rendering the status line until the campaign "
        "finishes",
    )
    prog.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in seconds for --follow",
    )
    prog.set_defaults(func=cmd_progress)

    profile = sub.add_parser(
        "profile",
        help="run one experiment cell under instrumentation and print "
        "its phase-timing and engine-counter tables",
    )
    _add_shared(
        profile, graph="gnp", n=32, algorithm="strong_select",
        adversary="greedy", p=0.5, cr="CR4", engine="reference",
        churn="none", seed=0, max_rounds=None, json=False,
    )
    profile.set_defaults(func=cmd_profile)

    check = sub.add_parser(
        "check",
        help="statically check the determinism/eligibility/import "
        "contracts (AST rules RPR001-RPR008, see docs/CHECKS.md)",
    )
    check.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: src/repro)",
    )
    check.add_argument(
        "--baseline", default=None,
        help="baseline JSON of grandfathered findings to subtract "
        "(the repo's own policy is an empty baseline)",
    )
    check.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="snapshot the current findings into FILE and exit 0",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (code, contract, fix, scope)",
    )
    _add_shared(check, json=False)
    check.set_defaults(func=cmd_check)

    lb = sub.add_parser(
        "lowerbound", help="run an executable lower-bound construction"
    )
    lb.add_argument("--theorem", type=int, required=True,
                    choices=[2, 11, 12])
    lb.add_argument("--n", type=int, default=17)
    lb.add_argument("--algorithm", default="round_robin")
    lb.set_defaults(func=cmd_lowerbound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
