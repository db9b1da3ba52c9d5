"""Tests for the adversary-search harness, evaluation and searchers."""

import json
import random
import re

import pytest

from repro.adversaries.scripted import ReplayAdversary
from repro.core.runner import make_processes
from repro.search import (
    SEARCHERS,
    CandidateRecord,
    EvaluationContext,
    PopulationEvaluator,
    SearchBudget,
    SearchSettings,
    StrategyGenome,
    load_candidates,
    make_space,
    register_searcher,
    run_search,
    theorem2_comparison,
)
from repro.search.persist import candidate_key
from repro.sim.engine import EngineConfig, StartMode, build_engine
from repro.sim.collision import CollisionRule

CELL = SearchSettings(
    algorithm="round_robin", graph_kind="clique-bridge", n=10
)


class TestSearchSettings:
    def test_key_and_seed_stable(self):
        assert CELL.key == (
            "search/round_robin/clique-bridge:n10/CR1-synchronous/s0"
        )
        assert CELL.derived_seed == SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=10
        ).derived_seed

    def test_cap_in_key(self):
        capped = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=10,
            max_rounds=40,
        )
        assert capped.key.endswith("/cap40")

    def test_validation(self):
        with pytest.raises(ValueError, match="collision rule"):
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                collision_rule="CR9",
            )
        with pytest.raises(ValueError, match="engine"):
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                engine="warp",
            )
        # ``auto`` always meant the fast engine; fast is the default.
        with pytest.raises(ValueError, match="engine"):
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                engine="auto",
            )
        assert CELL.engine == "fast"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"algorithm": "nope"}, "algorithm: unknown algorithm 'nope'"),
            ({"graph_kind": "nope"}, "graph_kind: unknown graph kind"),
            (
                {"algorithm_params": {"T": "a"}, "algorithm": "harmonic"},
                "algorithm_params.T: expected int, got 'a'",
            ),
            (
                {"graph_params": {"bogus": 1}},
                "graph_params.bogus: graph kind 'line' takes no param",
            ),
        ],
    )
    def test_cell_validated_against_registries(self, fields, message):
        doc = dict(algorithm="round_robin", graph_kind="line", n=4)
        doc.update(fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            SearchSettings(**doc)


class TestEvaluation:
    def test_objective_is_completion_round(self):
        ctx = EvaluationContext(CELL)
        score = ctx.evaluate(StrategyGenome(horizon=ctx.round_cap))
        assert score.completed
        assert score.objective == score.completion_round

    def test_capped_run_scores_above_any_completion(self):
        capped = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=10,
            max_rounds=1,
        )
        ctx = EvaluationContext(capped)
        score = ctx.evaluate(StrategyGenome(horizon=1))
        assert not score.completed
        assert score.objective == 2  # cap + 1

    def test_fast_and_reference_engines_agree(self):
        space = make_space(CELL)
        genome = space.random(random.Random(5))
        default = EvaluationContext(CELL).evaluate(genome)
        ref = EvaluationContext(
            SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=10,
                engine="reference",
            )
        ).evaluate(genome)
        assert default.engine == "fast"
        assert ref.engine == "reference"
        assert default.objective == ref.objective
        assert default.completion_round == ref.completion_round

    def test_cr4_genes_stay_on_fast_engine(self):
        """CR4 genomes with resolution genes score on the fast engine
        (its consult path serves the real resolver) and agree with an
        explicit reference-engine evaluation."""
        cr4_cell = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=10,
            collision_rule="CR4",
        )
        ctx = EvaluationContext(cr4_cell)
        plain = ctx.evaluate(StrategyGenome(horizon=4))
        genome = StrategyGenome(horizon=4, cr4=((1, 0, 1),))
        genes = ctx.evaluate(genome)
        assert plain.engine == "fast"
        assert genes.engine == "fast"
        ref = EvaluationContext(
            SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=10,
                collision_rule="CR4",
                engine="reference",
            )
        ).evaluate(genome)
        assert genes.objective == ref.objective
        assert genes.completion_round == ref.completion_round

    def test_parallel_matches_serial(self):
        space = make_space(CELL)
        rng = random.Random(2)
        genomes = [space.random(rng) for _ in range(8)]
        with PopulationEvaluator(CELL, workers=2) as para:
            parallel = para.evaluate(genomes)
        with PopulationEvaluator(CELL, workers=1) as seri:
            serial = seri.evaluate(genomes)
        assert parallel == serial

    @pytest.mark.parametrize("rule", ["CR1", "CR4"])
    def test_population_engines_agree_objective_for_objective(self, rule):
        """Random genomes — under CR4 carrying resolution genes — score
        identically on the fast and reference engines; only the
        recorded engine label differs."""
        cells = {
            engine: SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=10,
                collision_rule=rule,
                engine=engine,
            )
            for engine in ("fast", "reference")
        }
        space = make_space(cells["fast"])
        rng = random.Random(7)
        genomes = [space.random(rng) for _ in range(9)]
        assert any(g.cr4 for g in genomes) == (rule == "CR4")
        scores = {}
        for engine, cell in cells.items():
            with PopulationEvaluator(cell) as evaluator:
                scores[engine] = evaluator.evaluate(genomes)
        for fast, ref in zip(scores["fast"], scores["reference"]):
            assert (fast.engine, ref.engine) == ("fast", "reference")
            assert (
                fast.objective, fast.completed, fast.completion_round,
                fast.rounds,
            ) == (
                ref.objective, ref.completed, ref.completion_round,
                ref.rounds,
            )


class TestRunSearch:
    def budget(self, n=8):
        return SearchBudget(evaluations=n, batch_size=4)

    def test_deterministic_for_fixed_seed(self):
        a = run_search(CELL, searcher="random", budget=self.budget(), seed=1)
        b = run_search(CELL, searcher="random", budget=self.budget(), seed=1)
        assert a.best == b.best
        assert a.best_ordinal == b.best_ordinal

    def test_engines_find_the_same_best(self):
        """The engine choice is not part of the science: a local search
        on either engine walks the same trajectory to the same best."""
        results = {
            engine: run_search(
                SearchSettings(
                    algorithm="round_robin",
                    graph_kind="clique-bridge",
                    n=10,
                    engine=engine,
                ),
                searcher="local",
                budget=self.budget(),
                seed=1,
            )
            for engine in ("fast", "reference")
        }
        fast, ref = results["fast"], results["reference"]
        assert fast.best.genome == ref.best.genome
        assert fast.best.objective == ref.best.objective
        assert fast.best_ordinal == ref.best_ordinal

    def test_seed_changes_exploration(self):
        a = run_search(CELL, searcher="random", budget=self.budget(), seed=1)
        b = run_search(CELL, searcher="random", budget=self.budget(), seed=2)
        assert a.best.genome != b.best.genome

    def test_resume_by_key(self, tmp_path):
        path = str(tmp_path / "search.jsonl")
        first = run_search(
            CELL, searcher="local", budget=self.budget(4), seed=3,
            results_path=path,
        )
        assert (first.executed, first.resumed) == (4, 0)
        full = run_search(
            CELL, searcher="local", budget=self.budget(8), seed=3,
            results_path=path,
        )
        assert (full.executed, full.resumed) == (4, 4)
        fresh = run_search(
            CELL, searcher="local", budget=self.budget(8), seed=3
        )
        assert full.best == fresh.best
        # A finished search re-runs as a pure resume.
        again = run_search(
            CELL, searcher="local", budget=self.budget(8), seed=3,
            results_path=path,
        )
        assert (again.executed, again.resumed) == (0, 8)
        assert again.best == fresh.best

    def test_resume_distrusts_fingerprint_mismatch(self, tmp_path):
        path = str(tmp_path / "search.jsonl")
        run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        records = load_candidates(path)
        key = candidate_key(CELL, "random", 5, 0)
        forged = CandidateRecord(
            key=key,
            ordinal=0,
            searcher="random",
            fingerprint="deadbeef",  # does not match any genome
            genome=records[key].genome,
            objective=10_000,
            completed=False,
            completion_round=None,
            rounds=0,
            engine="reference",
        )
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(forged.to_dict(), sort_keys=True) + "\n")
        resumed = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        # The store-level validator rejects the internally inconsistent
        # forgery at load time, so the earlier honest record for the
        # same key is resumed instead — no re-evaluation needed, and
        # the forged objective never reaches the searcher.
        assert resumed.executed == 0
        assert resumed.resumed == 4
        assert resumed.health.rejected_records == 1
        assert resumed.best.objective < 10_000

    def test_resume_distrusts_wrong_genome_for_key(self, tmp_path):
        path = str(tmp_path / "search.jsonl")
        run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        records = load_candidates(path)
        key0 = candidate_key(CELL, "random", 5, 0)
        key1 = candidate_key(CELL, "random", 5, 1)
        # Internally consistent (fingerprint matches its own genome) so
        # the store validator accepts it — but the genome belongs to a
        # *different* candidate, so the harness's regenerated-genome
        # check must re-evaluate rather than trust the stored score.
        wrong = CandidateRecord(
            key=key0,
            ordinal=0,
            searcher="random",
            fingerprint=records[key1].genome.fingerprint,
            genome=records[key1].genome,
            objective=10_000,
            completed=False,
            completion_round=None,
            rounds=0,
            engine="reference",
        )
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(wrong.to_dict(), sort_keys=True) + "\n")
        resumed = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        assert resumed.executed == 1
        assert resumed.health.rejected_records == 0
        assert resumed.best.objective < 10_000

    def test_torn_lines_counted_and_healed(self, tmp_path):
        path = tmp_path / "search.jsonl"
        path.write_text('{"key": "torn-fragm\n')
        result = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=0,
            results_path=str(path),
        )
        assert result.skipped_lines == 1
        assert load_candidates(str(path)).skipped == 1

    def test_unknown_searcher_rejected(self):
        with pytest.raises(ValueError, match="unknown searcher"):
            run_search(CELL, searcher="nope", budget=self.budget())

    def test_register_searcher_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_searcher("random", object)

    def test_searcher_kinds(self):
        assert {"random", "local", "greedy"} <= set(SEARCHERS.kinds())


class TestReplayCertification:
    """The acceptance contract: reported objective == replayed reality."""

    def test_best_genome_replays_bit_exactly(self):
        result = run_search(
            CELL, searcher="random", budget=SearchBudget(evaluations=6),
            seed=4, verify=True,
        )
        assert result.replay_verified is True
        # Independently: running the best genome on the reference
        # engine, then replaying its recorded trace through a strict
        # ReplayAdversary, reproduces the reported round count.
        ctx = EvaluationContext(CELL)
        trace, _ = ctx.run_genome(
            result.best.genome, engine="reference",
            record_receptions=True,
        )
        assert trace.completion_round == result.best.completion_round
        processes = make_processes("round_robin", ctx.graph.n)
        replay = build_engine(
            ctx.graph,
            processes,
            ReplayAdversary(trace, strict=True),
            EngineConfig(
                collision_rule=CollisionRule.CR1,
                start_mode=StartMode.SYNCHRONOUS,
                max_rounds=ctx.round_cap,
                seed=CELL.derived_seed,
            ),
        ).run()
        assert replay.completion_round == trace.completion_round
        assert replay.informed_round == trace.informed_round

    def test_cr4_gene_genome_verifies(self):
        cr4_cell = SearchSettings(
            algorithm="harmonic",
            graph_kind="clique-bridge",
            n=10,
            collision_rule="CR4",
            start_mode="asynchronous",
        )
        result = run_search(
            cr4_cell, searcher="random",
            budget=SearchBudget(evaluations=4), seed=2, verify=True,
        )
        assert result.replay_verified is True


class TestGreedyVsTheorem2:
    """Search should rediscover (a constant factor of) Theorem 2.

    The exact numbers for larger sizes live in docs/SEARCH.md; here the
    assertion is deliberately loose — the greedy searcher must at least
    match the scripted adversary family's measured stall, which it does
    comfortably (the run is deterministic for the fixed seed).
    """

    def test_greedy_matches_scripted_construction(self):
        cell = SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=12
        )
        result = run_search(
            cell,
            searcher="greedy",
            budget=SearchBudget(evaluations=3, batch_size=3),
            seed=0,
            verify=True,
        )
        assert result.replay_verified is True
        comparison = theorem2_comparison(result)
        assert comparison.scripted_worst is not None
        # Theorem 2's analytic bound and the executable scripted worst
        # case are both cleared by the found strategy.
        assert comparison.search_best > comparison.theorem_bound
        assert comparison.search_best >= comparison.scripted_worst
        assert comparison.ratio >= 1.0

    def test_greedy_deterministic(self):
        cell = SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=10
        )
        budget = SearchBudget(evaluations=2, batch_size=2)
        a = run_search(cell, searcher="greedy", budget=budget, seed=1)
        b = run_search(cell, searcher="greedy", budget=budget, seed=1)
        assert a.best == b.best

    def test_greedy_lookahead_matches_engine_for_randomized(self):
        """The sandbox simulation mirrors the engine's RNG streams, so
        greedy genomes score exactly what construction predicted even
        for randomized algorithms (here: lookahead-built deliveries
        remain legal and replay-certify)."""
        cell = SearchSettings(
            algorithm="harmonic",
            graph_kind="clique-bridge",
            n=9,
            collision_rule="CR4",
            start_mode="asynchronous",
        )
        result = run_search(
            cell,
            searcher="greedy",
            budget=SearchBudget(evaluations=2, batch_size=2),
            seed=0,
            verify=True,
        )
        assert result.replay_verified is True


class TestMakeSpace:
    def test_cr4_cell_gets_cr4_genes(self):
        assert make_space(
            SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=8,
                collision_rule="CR4",
            )
        ).cr4_genes
        assert not make_space(CELL).cr4_genes

    def test_horizon_defaults_to_round_cap(self):
        settings = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=8,
            max_rounds=17,
        )
        assert make_space(settings).horizon == 17


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="evaluation"):
            SearchBudget(evaluations=0)
        with pytest.raises(ValueError, match="batch_size"):
            SearchBudget(evaluations=4, batch_size=0)
