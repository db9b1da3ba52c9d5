"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestRun:
    def test_basic_run(self, capsys):
        rc = main(
            [
                "run", "--graph", "line", "--n", "8",
                "--algorithm", "round_robin", "--adversary", "none",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "round_robin" in out

    def test_json_output(self, capsys):
        rc = main(
            [
                "run", "--graph", "gnp", "--n", "12",
                "--algorithm", "harmonic", "--adversary", "random",
                "--p", "0.3", "--json",
            ]
        )
        assert rc == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["completed"] is True
        assert decoded["n"] == 12

    def test_run_with_churn(self, capsys):
        rc = main(
            [
                "run", "--graph", "line", "--n", "8",
                "--algorithm", "round_robin", "--adversary", "none",
                "--churn", "window", "--churn-count", "2",
                "--churn-start", "2", "--churn-length", "3", "--json",
            ]
        )
        # The outage may or may not let the run finish under the cap;
        # either exit is legal, but the payload must show the faults.
        assert rc in (0, 1)
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["crash_events"] == 2
        assert decoded["recovery_events"] == 2

    def test_run_rejects_bad_churn_params(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run", "--graph", "line", "--n", "8",
                    "--churn", "rate", "--crash-rate", "2.0",
                ]
            )

    def test_incomplete_run_exit_code(self, capsys):
        rc = main(
            [
                "run", "--graph", "line", "--n", "12",
                "--algorithm", "round_robin", "--adversary", "none",
                "--max-rounds", "2",
            ]
        )
        assert rc == 1

    def test_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--graph", "nope"])

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--adversary", "nope", "--n", "8"])

    @pytest.mark.parametrize(
        "graph",
        ["gnp", "line", "hard-line", "ring", "grid", "clique-bridge",
         "layered-pairs", "pivot-layers"],
    )
    def test_every_graph_choice_runs(self, graph, capsys):
        rc = main(
            [
                "run", "--graph", graph, "--n", "13",
                "--algorithm", "round_robin", "--adversary", "none",
            ]
        )
        assert rc == 0

    def test_pivot_adversary_runs_inline(self, capsys):
        """The pivot kind needs its n param threaded by the CLI."""
        rc = main(
            [
                "run", "--graph", "pivot-layers", "--n", "16",
                "--algorithm", "round_robin", "--adversary", "pivot",
            ]
        )
        assert rc == 0


class TestSweep:
    def test_sweep_prints_fit(self, capsys):
        rc = main(
            [
                "sweep", "--graph", "line", "--algorithm", "round_robin",
                "--adversary", "none", "--sizes", "8,16,32",
                "--seeds", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "growth fit" in out
        assert "completion rounds" in out

    def test_sweep_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--graph", "nope", "--sizes", "8"])

    def test_sweep_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-spec",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "sizes": [6, 10]}],
                    "adversaries": ["none"],
                    "seeds": [0, 1],
                }
            )
        )
        rc = main(["sweep", "--spec", str(spec_file), "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out
        assert "growth fit" in out

    def test_sweep_spec_resumes_from_results(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-resume",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": [0, 1, 2],
                }
            )
        )
        results = tmp_path / "results.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_file), "--results", str(results)]
        ) == 0
        first = capsys.readouterr().out
        assert "3 run, 0 resumed" in first

        assert main(
            ["sweep", "--spec", str(spec_file), "--results", str(results)]
        ) == 0
        second = capsys.readouterr().out
        assert "0 run, 3 resumed" in second

    def test_sweep_no_batch_resumes_batched_results(
        self, capsys, tmp_path
    ):
        """--batch and --no-batch share one results file seamlessly."""
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-batch",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": [0, 1, 2],
                }
            )
        )
        results = tmp_path / "results.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_file), "--batch",
             "--results", str(results)]
        ) == 0
        assert "3 run, 0 resumed" in capsys.readouterr().out

        assert main(
            ["sweep", "--spec", str(spec_file), "--no-batch",
             "--results", str(results)]
        ) == 0
        assert "0 run, 3 resumed" in capsys.readouterr().out

    def test_sweep_warns_about_unparsable_result_lines(
        self, capsys, tmp_path
    ):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-skip",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": [0],
                }
            )
        )
        results = tmp_path / "results.jsonl"
        results.write_text('{"key": "torn-fragm\nnot json either\n')
        assert main(
            ["sweep", "--spec", str(spec_file), "--results", str(results)]
        ) == 0
        err = capsys.readouterr().err
        assert "2 unparsable line(s)" in err

    def test_sweep_missing_spec_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["sweep", "--spec", str(tmp_path / "absent.json")])

    def test_sweep_shipped_tiny_spec_runs(self, capsys):
        """The spec file CI's smoke job uses stays valid."""
        import pathlib

        spec = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "specs" / "tiny_sweep.json"
        )
        rc = main(["sweep", "--spec", str(spec), "--workers", "2"])
        assert rc == 0
        assert "tiny" in capsys.readouterr().out

    def test_sweep_pivot_adversary_single_size(self, capsys):
        rc = main(
            [
                "sweep", "--graph", "pivot-layers", "--algorithm",
                "round_robin", "--adversary", "pivot", "--sizes", "16",
                "--seeds", "0",
            ]
        )
        assert rc == 0

    def test_sweep_pivot_adversary_rejects_size_grid(self):
        with pytest.raises(SystemExit, match="single --sizes"):
            main(
                [
                    "sweep", "--graph", "pivot-layers", "--algorithm",
                    "round_robin", "--adversary", "pivot",
                    "--sizes", "16,25", "--seeds", "0",
                ]
            )

    def test_sweep_capped_runs_exit_nonzero(self, capsys):
        rc = main(
            [
                "sweep", "--graph", "line", "--algorithm", "round_robin",
                "--adversary", "none", "--sizes", "12", "--seeds", "0",
                "--max-rounds", "2",
            ]
        )
        assert rc == 1
        assert "hit the round cap" in capsys.readouterr().err


class TestList:
    def test_lists_every_registry(self, capsys):
        rc = main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        # One entry from each section, with its description.
        assert "clique-bridge" in out
        assert "Theorem 2 network" in out
        assert "pivot" in out
        assert "GreedyInterferer" in out
        assert "strong_select" in out
        assert "greedy" in out and "lookahead" in out

    def test_lists_runtime_registrations(self, capsys, monkeypatch):
        from repro.experiments import registry

        monkeypatch.setattr(
            registry.ADVERSARIES, "entries",
            dict(registry.ADVERSARIES.entries),
        )
        registry.register_adversary(
            "cli-test-adv",
            lambda seed, **kw: None,
            description="registered at runtime",
        )
        main(["list"])
        out = capsys.readouterr().out
        assert "cli-test-adv" in out
        assert "registered at runtime" in out
        assert "(undeclared)" in out

    def test_lists_declared_params(self, capsys):
        assert main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["adversaries"]["pivot"]["params"] == {"n": "int"}
        assert doc["graphs"]["gnp"]["params"] == {
            "p_reliable": "float", "p_unreliable": "float",
        }
        assert doc["algorithms"]["harmonic"]["params"] == {
            "T": "int", "constant": "float", "epsilon": "float",
        }
        assert doc["churns"]["window"]["params"]["count"] == "int"
        assert doc["graphs"]["line"]["params"] == {}


class TestSearch:
    ARGS = [
        "search", "--graph", "clique-bridge", "--n", "10",
        "--algorithm", "round_robin", "--cr", "CR1",
        "--searcher", "random", "--budget", "4", "--batch-size", "2",
        "--seed", "0",
    ]

    def test_basic_search(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "best objective" in out
        assert "True" in out  # replay verified by default

    def test_underscore_graph_spelling_accepted(self, capsys):
        rc = main(
            ["search", "--graph", "clique_bridge", "--n", "9",
             "--algorithm", "round_robin", "--budget", "2",
             "--no-verify"]
        )
        assert rc == 0
        assert "clique-bridge" in capsys.readouterr().out

    def test_search_resumes_from_results(self, capsys, tmp_path):
        results = str(tmp_path / "search.jsonl")
        assert main(self.ARGS + ["--results", results]) == 0
        assert "4 run, 0 resumed" in capsys.readouterr().out
        assert main(self.ARGS + ["--results", results]) == 0
        assert "0 run, 4 resumed" in capsys.readouterr().out

    def test_search_json_output(self, capsys):
        rc = main(self.ARGS + ["--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_objective"] >= 1
        assert doc["replay_verified"] is True
        assert doc["best_genome"]["horizon"] >= 1

    def test_search_compare_theorem2(self, capsys):
        rc = main(self.ARGS + ["--compare-theorem2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "search vs Theorem 2" in out
        assert "theorem 2 bound (n-3)" in out

    def test_search_compare_theorem2_in_json(self, capsys):
        rc = main(self.ARGS + ["--compare-theorem2", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem2"]["theorem_bound"] == 7  # n=10
        assert doc["theorem2"]["search_best"] == doc["best_objective"]

    def test_search_compare_theorem2_warns_off_family(self, capsys):
        rc = main(
            ["search", "--graph", "line", "--n", "6",
             "--algorithm", "round_robin", "--budget", "2",
             "--no-verify", "--compare-theorem2"]
        )
        assert rc == 0
        assert "skipped" in capsys.readouterr().err

    def test_unknown_graph_rejected(self):
        with pytest.raises(SystemExit, match="unknown graph"):
            main(["search", "--graph", "nope", "--budget", "2"])

    def test_unknown_searcher_rejected(self):
        with pytest.raises(SystemExit, match="unknown searcher"):
            main(
                ["search", "--graph", "line", "--n", "6",
                 "--searcher", "nope", "--budget", "2"]
            )


class TestLowerBound:
    def test_theorem2(self, capsys):
        rc = main(["lowerbound", "--theorem", "2", "--n", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 2" in out
        assert "True" in out  # bound holds

    def test_theorem11(self, capsys):
        rc = main(
            ["lowerbound", "--theorem", "11", "--n", "20",
             "--algorithm", "round_robin"]
        )
        assert rc == 0
        assert "Theorem 11" in capsys.readouterr().out

    def test_theorem12(self, capsys):
        rc = main(["lowerbound", "--theorem", "12", "--n", "17"])
        assert rc == 0
        assert "Theorem 12" in capsys.readouterr().out

    def test_randomized_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["lowerbound", "--theorem", "2", "--n", "10",
                 "--algorithm", "harmonic"]
            )


class TestStoreCommands:
    def spec_file(self, tmp_path, seeds=3):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-store",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": list(range(seeds)),
                }
            )
        )
        return str(spec_file)

    def test_sweep_sharded_campaign_resumes(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        assert main(
            ["sweep", "--spec", spec, "--results", camp,
             "--store", "sharded"]
        ) == 0
        assert "3 run, 0 resumed" in capsys.readouterr().out
        # auto-detection resumes the campaign directory without --store
        assert main(
            ["sweep", "--spec", spec, "--results", camp]
        ) == 0
        assert "0 run, 3 resumed" in capsys.readouterr().out
        assert (tmp_path / "camp" / "manifest.json").exists()

    def test_merge_then_resume_merged_file(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        merged = str(tmp_path / "merged.jsonl")
        assert main(
            ["sweep", "--spec", spec, "--results", camp,
             "--store", "sharded"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["merge", "--results", camp, "--out", merged]
        ) == 0
        out = capsys.readouterr().out
        assert "3 record(s)" in out
        assert main(
            ["sweep", "--spec", spec, "--results", merged]
        ) == 0
        assert "0 run, 3 resumed" in capsys.readouterr().out

    def test_report_renders_tables(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        assert main(
            ["sweep", "--spec", spec, "--results", camp,
             "--store", "sharded"]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", camp]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out
        assert "completion rounds" in out

    def test_report_json(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        results = str(tmp_path / "r.jsonl")
        assert main(
            ["sweep", "--spec", spec, "--results", results]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", results, "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["records"] == 3
        assert decoded["cells"]

    def test_report_empty_store_exits_zero(self, capsys, tmp_path):
        # A valid-but-empty campaign is a normal state (a store opened
        # before its first sweep lands a record); the nonzero exit is
        # reserved for damaged stores.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--results", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "holds no sweep records" in captured.err
        assert "0 records" in captured.out

    def test_report_empty_store_json_exits_zero(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(
            ["report", "--results", str(empty), "--json"]
        ) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["records"] == 0
        assert doc["cells"] == []
        assert "holds no sweep records" in captured.err

    def test_report_damaged_store_exits_one(self, capsys, tmp_path):
        # Damage (unparsable lines) is what the nonzero exit means.
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("{this is not a record\n")
        assert main(["report", "--results", str(damaged)]) == 1
        assert "unparsable" in capsys.readouterr().err

    def test_report_renders_churn_table(self, capsys, tmp_path):
        spec = tmp_path / "churn.json"
        spec.write_text(json.dumps({
            "name": "churny",
            "algorithms": ["round_robin"],
            "graphs": [["line", 6]],
            "adversaries": ["none"],
            "collision_rules": ["CR2"],
            "churns": ["none",
                       ["window", {"count": 1, "start": 2,
                                   "length": 2}]],
            "seeds": [0, 1],
        }))
        results = str(tmp_path / "churn.jsonl")
        assert main(
            ["sweep", "--spec", str(spec), "--results", results]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "under churn" in out
        assert "4 records" in out

    def test_search_sharded_campaign_resumes(self, capsys, tmp_path):
        camp = str(tmp_path / "search-camp")
        args = [
            "search", "--graph", "line", "--n", "6",
            "--algorithm", "round_robin", "--searcher", "random",
            "--budget", "4", "--results", camp,
            "--store", "sharded",
        ]
        assert main(args) == 0
        assert "4" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "evaluations resumed" in out
        assert (tmp_path / "search-camp" / "manifest.json").exists()

    def test_unknown_store_backend_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--spec", self.spec_file(tmp_path),
                 "--store", "nope"]
            )


class TestEngineChoice:
    """``reference`` and ``fast`` are the CLI's engines."""

    RUN = [
        "run", "--graph", "clique-bridge", "--n", "9",
        "--algorithm", "harmonic", "--adversary", "greedy", "--json",
    ]

    def test_run_engines_agree(self, capsys):
        docs = {}
        for engine in ("reference", "fast"):
            assert main(self.RUN + ["--engine", engine]) == 0
            docs[engine] = json.loads(capsys.readouterr().out)
        assert docs["fast"] == docs["reference"]

    def test_sweep_engine_fast_beside_reference_file(
        self, capsys, tmp_path
    ):
        """``--engine fast`` appends its own keys to a file written by
        the reference engine, then resumes them."""
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-fast",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": [0, 1, 2],
                    "collision_rules": ["CR3"],
                }
            )
        )
        results = tmp_path / "results.jsonl"
        args = ["sweep", "--spec", str(spec_file), "--results",
                str(results)]
        assert main(args) == 0
        assert "3 run, 0 resumed" in capsys.readouterr().out
        assert main(args + ["--engine", "fast"]) == 0
        assert "3 run, 0 resumed" in capsys.readouterr().out
        assert main(args + ["--engine", "fast"]) == 0
        assert "0 run, 3 resumed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--graph", "line", "--n", "8"],
            ["sweep", "--graph", "line", "--sizes", "6"],
            ["profile", "--graph", "line", "--n", "8"],
        ],
        ids=["run", "sweep", "profile"],
    )
    def test_vector_engine_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--engine", "vector"])
        assert exc.value.code == 2
        assert "invalid choice: 'vector'" in capsys.readouterr().err

    def test_search_has_no_evaluator_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["search", "--graph", "line", "--n", "6",
                 "--evaluator", "sandbox"]
            )
        assert exc.value.code == 2
        assert "--evaluator" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
