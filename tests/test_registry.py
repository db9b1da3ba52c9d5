"""The registry type and the fail-fast validation it drives.

Every named vocabulary — graphs, adversaries, churns, algorithms,
searchers — is one :class:`repro.registry.Registry`.  Its parameter
declarations are checked when a spec or search cell is built, so bad
input fails with a field path before any task runs.
"""

import hashlib
import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.core.runner import ALGORITHMS
from repro.experiments import ExperimentSpec, load_specs
from repro.experiments.registry import ADVERSARIES, CHURNS, GRAPHS
from repro.registry import Entry, Registry
from repro.search import SearchSettings, make_space
from repro.search.searchers import SEARCHERS


def _base(**fields):
    doc = {
        "name": "probe",
        "algorithms": ["round_robin"],
        "graphs": [{"kind": "line", "n": 8}],
    }
    doc.update(fields)
    return doc


#: Spec documents whose mistakes would otherwise surface only inside a
#: worker (or silently run defaults), with the load error each raises.
PROBES = {
    "harmonic-T-str": (
        _base(algorithms=[{"name": "harmonic", "params": {"T": "a"}}]),
        "algorithms[0].params.T: expected int, got 'a'",
    ),
    "line-bogus": (
        _base(graphs=[{"kind": "line", "n": 8, "params": {"bogus": 1}}]),
        "graphs[0].params.bogus: graph kind 'line' takes no param",
    ),
    "random-q": (
        _base(adversaries=[{"kind": "random", "params": {"q": 0.1}}]),
        "adversaries[0].params.q: adversary kind 'random' takes no param",
    ),
    "window-cnt": (
        _base(churns=[{"kind": "window", "params": {"cnt": 2}}]),
        "churns[0].params.cnt: churn kind 'window' takes no param",
    ),
    "unknown-algorithm": (
        _base(algorithms=["round_robin", "nope"]),
        "algorithms[1].name: unknown algorithm 'nope'",
    ),
    "unknown-graph": (
        _base(
            graphs=[
                {"kind": "line", "n": 8},
                {"kind": "nope", "sizes": [8, 16]},
            ]
        ),
        "graphs[1].kind: unknown graph kind 'nope'",
    ),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_bad_spec_fails_at_load_with_its_field_path(probe):
    doc, message = PROBES[probe]
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec.from_dict(doc)


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_sweep_refuses_bad_spec_before_writing(probe, tmp_path, capsys):
    doc, message = PROBES[probe]
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    results = tmp_path / "results.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--spec", str(spec), "--results", str(results)])
    assert exc.value.code != 0
    assert message in str(exc.value.code)
    assert not results.exists()


def test_inline_sweep_flags_validated_like_a_spec(tmp_path):
    results = tmp_path / "results.jsonl"
    with pytest.raises(SystemExit, match=r"graphs\[0\]\.kind: unknown"):
        main(
            [
                "sweep", "--graph", "nope", "--sizes", "8", "--seeds", "0",
                "--results", str(results),
            ]
        )
    assert not results.exists()


#: SHA-256 of each shipped spec's newline-joined task keys.  Keys are
#: resume handles for results files already on disk, so validating
#: specs against the registries must leave every one unchanged.
SHIPPED_KEY_DIGESTS = {
    "churn_sweep.json": (
        12, "59f7d0706977f3e3c3018ad74925d0cadd0566744e5c1aacb01398598a083004"
    ),
    "tiny_sweep.json": (
        24, "ecc05eab4771023a26d80a62353f32cc8663c0144db00c4b566122c60264d957"
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_KEY_DIGESTS))
def test_shipped_spec_keys_unchanged(name):
    path = pathlib.Path(__file__).parent.parent / "examples" / "specs" / name
    keys = [t.key for spec in load_specs(str(path)) for t in spec.tasks()]
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
    assert (len(keys), digest) == SHIPPED_KEY_DIGESTS[name]


def test_declared_float_accepts_int_and_valid_specs_load():
    spec = ExperimentSpec.from_dict(
        _base(
            algorithms=[
                {"name": "harmonic", "params": {"T": 2, "constant": 12}},
            ],
            adversaries=[{"kind": "random", "params": {"p": 1}}],
            churns=[
                {"kind": "window",
                 "params": {"count": 1, "start": 2, "length": 3}},
            ],
        )
    )
    assert spec.size == 1


# ----------------------------------------------------------------------
# The built-in declarations
# ----------------------------------------------------------------------
def _cell():
    return SearchSettings(algorithm="round_robin", graph_kind="line", n=8)


#: (registry name, kind) → a value for every declared param.
SAMPLES = {
    ("graph", "gnp"): {"p_reliable": 0.1, "p_unreliable": 0.2},
    ("graph", "gray-zone"): {"reliable_radius": 0.35, "gray_radius": 0.7},
    ("adversary", "random"): {"p": 0.5},
    ("adversary", "pivot"): {"n": 16},
    ("churn", "rate"): {
        "crash_rate": 0.02, "recover_rate": 0.2, "rejoin": "informed",
    },
    ("churn", "window"): {
        "count": 1, "start": 2, "length": 3, "rejoin": "informed",
    },
    ("algorithm", "strong_select"): {"s_max": 4, "participate_once": True},
    ("algorithm", "strong_select_ks"): {
        "s_max": 4, "participate_once": False,
    },
    ("algorithm", "harmonic"): {"T": 2, "epsilon": 0.1, "constant": 12.0},
    ("algorithm", "uniform"): {"c": 2.0},
    ("searcher", "greedy"): {"random_patterns": 3},
}

#: registry name → (registry, positional args its factories take).
REGISTRIES = {
    "graph": (GRAPHS, lambda: (8, 0)),
    "adversary": (ADVERSARIES, lambda: (0,)),
    "churn": (CHURNS, lambda: (8, 20, 0)),
    "algorithm": (ALGORITHMS, lambda: (8,)),
    "searcher": (SEARCHERS, lambda: (make_space(_cell()), _cell())),
}

BUILT_INS = [
    (name, kind)
    for name, (registry, _) in REGISTRIES.items()
    for kind in registry.kinds()
]


def test_every_built_in_kind_declares_params_and_describes_itself():
    for name, kind in BUILT_INS:
        entry = REGISTRIES[name][0].entry(kind)
        assert entry.params is not None, (name, kind)
        assert entry.description, (name, kind)
        assert set(entry.params) == set(SAMPLES.get((name, kind), {}))


@pytest.mark.parametrize("name, kind", BUILT_INS)
def test_factory_accepts_every_declared_param(name, kind):
    registry, args = REGISTRIES[name]
    params = SAMPLES.get((name, kind), {})
    registry.check(kind, params.items(), "kind", "params")
    registry.build(kind, *args(), **params)


@pytest.mark.parametrize("name, kind", BUILT_INS)
def test_factory_refuses_an_undeclared_param(name, kind):
    registry, args = REGISTRIES[name]
    params = dict(SAMPLES.get((name, kind), {}), undeclared_probe=1)
    with pytest.raises(TypeError):
        registry.build(kind, *args(), **params)


def test_graph_seed_dependence_is_declared():
    dependent = {
        kind for name, kind in BUILT_INS
        if name == "graph" and GRAPHS.entry(kind).seed_dependent
    }
    assert dependent == {"gnp", "gray-zone"}


# ----------------------------------------------------------------------
# The Registry type
# ----------------------------------------------------------------------
def _toy():
    return Registry(
        "toy kind",
        {
            "a": Entry(lambda x=1: x, "declares x", {"x": int}),
            "b": Entry(lambda **kw: kw, "declares nothing"),
        },
    )


class TestRegistry:
    def test_kinds_items_describe(self):
        toy = _toy()
        assert toy.kinds() == ["a", "b"]
        assert [kind for kind, _ in toy.items()] == ["a", "b"]
        assert "a" in toy and "c" not in toy
        assert toy.describe() == {
            "a": {"description": "declares x", "params": {"x": "int"}},
            "b": {"description": "declares nothing", "params": None},
        }

    def test_build_and_unknown_kind(self):
        toy = _toy()
        assert toy.build("a", x=5) == 5
        with pytest.raises(ValueError, match=r"unknown toy kind 'c'; "
                           r"known: \['a', 'b'\]"):
            toy.build("c")

    def test_register_rejects_duplicates_and_bad_types(self):
        toy = _toy()
        toy.register("c", lambda: None, "runtime")
        assert toy.entry("c").description == "runtime"
        with pytest.raises(ValueError, match="already registered"):
            toy.register("a", lambda: None)
        with pytest.raises(ValueError, match="declares"):
            toy.register("d", lambda: None, params={"x": list})

    def test_check_types(self):
        toy = _toy()
        toy.check("a", [("x", 3)], "k", "p")
        for bad in ("3", 3.0, True, None):
            with pytest.raises(ValueError, match="p.x: expected int"):
                toy.check("a", [("x", bad)], "k", "p")
        with pytest.raises(ValueError, match="p.y: toy kind 'a' takes"):
            toy.check("a", [("y", 1)], "k", "p")
        with pytest.raises(ValueError, match="k: unknown toy kind"):
            toy.check("zz", [], "k", "p")

    def test_undeclared_kinds_pass_params_through(self):
        toy = _toy()
        toy.check("b", [("anything", object())], "k", "p")
        assert toy.build("b", anything=1) == {"anything": 1}

    def test_float_and_bool_declarations(self):
        toy = Registry(
            "toy", {"f": Entry(lambda **kw: kw, "", {"r": float, "b": bool})}
        )
        toy.check("f", [("r", 1), ("r", 0.5), ("b", False)], "k", "p")
        with pytest.raises(ValueError, match="expected float"):
            toy.check("f", [("r", True)], "k", "p")
        with pytest.raises(ValueError, match="expected bool"):
            toy.check("f", [("b", 1)], "k", "p")
