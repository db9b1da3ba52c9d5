"""Declarative experiment grids.

An :class:`ExperimentSpec` names every axis of a sweep — algorithms,
graph families with sizes, adversaries, collision rules, start modes,
engines and seeds — and expands to the cross product as a deterministic,
ordered list of :class:`RunTask`\\ s.  Tasks are frozen tuples of
primitives, so they pickle cheaply across ``multiprocessing`` workers.

Invariants the rest of the subsystem builds on:

* **Stable keys** — :attr:`RunTask.key` names every input that can
  change the outcome; it is the resume-by-key handle (the same spec
  always yields the same keys in the same order), so a results file
  written by one run is a valid resume point for any later run of the
  same spec.
* **Key-derived seeds** — each task's engine seed is
  ``crc32(science_key)``: derived, not assigned, so no two grid cells
  share an RNG stream even when they share a sweep seed, and the
  derivation is independent of worker count, chunking and resume
  history (``zlib.crc32`` is stable across processes and Python
  versions, unlike ``hash``).
* **Engine neutrality** — the ``engine`` axis selects an
  *implementation* (reference or bitmask fast path), not an experiment
  input.  It is part of :attr:`RunTask.key` (records of different
  engines never collide in a results file) but excluded from
  :attr:`RunTask.science_key`, which seeds the run — so the same grid
  cell produces the identical trace under either engine, a property
  ``tests/test_fast_engine_equivalence.py`` asserts.

* **Cell grouping** — :attr:`RunTask.cell_key` names every axis
  *except* the seed.  :func:`plan_batches` groups an ordered task list
  into one :class:`CellBatch` per cell so the runner's batched path can
  build each cell's graph and compiled engine topology once and run
  all of its seeds against them; batching is pure scheduling and never
  changes keys, seeds or records.

Specs serialise to/from JSON (``to_dict`` / ``from_dict`` /
:func:`load_specs`) so sweeps are reproducible from a committed file and
shell history alone; the format is documented field by field in
``docs/SWEEP_SPECS.md``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.runner import ALGORITHMS
from repro.experiments.registry import ADVERSARIES, CHURNS, GRAPHS
from repro.sim.collision import CollisionRule
from repro.sim.engine import ENGINE_NAMES, StartMode

Params = Tuple[Tuple[str, Any], ...]


def _freeze_params(params: Optional[Union[dict, Params]]) -> Params:
    if not params:
        return ()
    if isinstance(params, tuple):
        return params
    return tuple(sorted(params.items()))


def _fmt_params(params: Params) -> str:
    if not params:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in params)
    return f"({inner})"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm axis entry: a registered name plus factory params."""

    name: str
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``harmonic(T=4)``."""
        return f"{self.name}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class GraphSpec:
    """One graph axis entry: a registered kind, a size and params."""

    kind: str
    n: int
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``line:n16``."""
        return f"{self.kind}:n{self.n}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary axis entry: a registered kind plus params."""

    kind: str = "none"
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``random(p=0.5)``."""
        return f"{self.kind}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class ChurnSpec:
    """One fault-injection axis entry: a registered kind plus params.

    ``kind="none"`` (the default) is the failure-free run; other kinds
    are resolved by :mod:`repro.experiments.registry` into a
    :class:`~repro.sim.faults.ChurnSchedule` built from the task's
    derived seed, so the schedule is reproducible from the spec alone.
    """

    kind: str = "none"
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``rate(crash_rate=0.02)``."""
        return f"{self.kind}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class RunTask:
    """One fully-specified execution: a single cell of the sweep grid.

    Everything is a primitive (or tuple of primitives), so tasks pickle
    across process boundaries without dragging live objects along.
    """

    sweep: str
    algorithm: str
    algorithm_params: Params
    graph_kind: str
    n: int
    graph_params: Params
    adversary_kind: str
    adversary_params: Params
    collision_rule: str
    start_mode: str
    seed: int
    max_rounds: Optional[int] = None
    engine: str = "reference"
    churn_kind: str = "none"
    churn_params: Params = ()

    def _key_parts(self, with_seed: bool) -> List[str]:
        """The shared key-segment list behind every key flavour.

        One builder keeps :attr:`science_key`, :attr:`key` and
        :attr:`cell_key` from drifting apart when a grid axis is added:
        a new axis lands in all of them (or in none) by construction.
        """
        parts = [
            self.sweep,
            f"{self.algorithm}{_fmt_params(self.algorithm_params)}",
            f"{self.graph_kind}:n{self.n}"
            f"{_fmt_params(self.graph_params)}",
            f"{self.adversary_kind}"
            f"{_fmt_params(self.adversary_params)}",
            f"{self.collision_rule}-{self.start_mode}",
        ]
        # The churn segment appears only for fault-injected tasks, so
        # every key of every pre-churn sweep is unchanged and old
        # results files remain valid resume points.
        if self.churn_kind != "none":
            parts.append(
                f"churn-{self.churn_kind}"
                f"{_fmt_params(self.churn_params)}"
            )
        if with_seed:
            parts.append(f"s{self.seed}")
        if self.max_rounds is not None:
            parts.append(f"cap{self.max_rounds}")
        return parts

    @property
    def science_key(self) -> str:
        """The key of the *experiment inputs* only — engine excluded.

        Two tasks differing only in ``engine`` share a science key and
        therefore a derived seed: the engine is an implementation
        choice, proven trace-equivalent, and must not change results.
        """
        return "/".join(self._key_parts(with_seed=True))

    @property
    def key(self) -> str:
        """Stable identifier used for persistence and resume.

        Every input that can change the outcome is part of the key —
        including an explicit round cap, so editing ``max_rounds`` in a
        spec invalidates old records instead of silently resuming them.
        The engine is appended only when it is not the reference engine,
        keeping keys (and results files) from older sweeps valid.
        """
        key = self.science_key
        if self.engine != "reference":
            key = f"{key}/eng-{self.engine}"
        return key

    @property
    def cell_key(self) -> str:
        """The task's *science cell*: every key input except the seed.

        Tasks sharing a cell key differ only in their sweep seed, so a
        worker can build the cell's graph, round cap and compiled
        engine topology once and run all of the cell's seeds against
        them (:func:`plan_batches` /
        :func:`repro.experiments.runner.execute_batch`).  This is a
        grouping handle only — persistence and resume stay keyed by
        the per-seed :attr:`key`.
        """
        parts = self._key_parts(with_seed=False)
        if self.engine != "reference":
            parts.append(f"eng-{self.engine}")
        return "/".join(parts)

    @property
    def derived_seed(self) -> int:
        """Engine seed derived from the task's science key.

        ``zlib.crc32`` is stable across processes and Python versions
        (unlike ``hash``), so the derivation is reproducible no matter
        how the grid is partitioned over workers.  Deriving from
        :attr:`science_key` rather than :attr:`key` makes the seed —
        and hence the run — independent of the engine choice.
        """
        return zlib.crc32(self.science_key.encode("utf-8"))


@dataclass(frozen=True)
class CellBatch:
    """All pending tasks of one science cell, dispatched as one unit.

    The tasks share every grid axis except the seed (validated at
    construction), in their original spec order.  A batch is a frozen
    tuple of primitives like the tasks themselves, so it pickles
    cheaply to ``multiprocessing`` workers, where
    :func:`repro.experiments.runner.execute_batch` builds the cell's
    shared setup once and runs the seed loop against it.
    """

    tasks: Tuple[RunTask, ...]

    def __post_init__(self) -> None:
        """Freeze the task tuple and reject mixed-cell batches."""
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ValueError("a batch needs at least one task")
        cells = {t.cell_key for t in self.tasks}
        if len(cells) != 1:
            raise ValueError(
                f"batch mixes science cells: {sorted(cells)}"
            )

    @property
    def cell_key(self) -> str:
        """The science cell shared by every task in the batch."""
        return self.tasks[0].cell_key

    def split(self, max_size: int) -> List["CellBatch"]:
        """Chop the batch into sub-batches of at most ``max_size`` tasks.

        A sweep with fewer cells than workers would otherwise collapse
        onto too few dispatch units and serialise; sub-batches trade a
        few repeated per-cell setups for full worker occupancy (each
        sub-batch still amortises setup over its own seeds).  Task
        order is preserved across the returned batches.
        """
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        return [
            CellBatch(self.tasks[i:i + max_size])
            for i in range(0, len(self.tasks), max_size)
        ]

    def __len__(self) -> int:
        return len(self.tasks)


def plan_batches(tasks: Sequence[RunTask]) -> List[CellBatch]:
    """Group an ordered task list into one :class:`CellBatch` per cell.

    Batches appear in the order their cells first appear in ``tasks``,
    and each batch keeps its tasks in input order — so for a freshly
    expanded spec every batch is the cell's seed axis in seed order,
    while a resumed sweep yields batches holding only the missing
    seeds.
    """
    groups: Dict[str, List[RunTask]] = {}
    seen_keys: set = set()
    for task in tasks:
        # A key collision here means two tasks would overwrite each
        # other's records and silently satisfy each other's resume
        # check — fail loudly before any work is dispatched.
        if task.key in seen_keys:
            raise ValueError(
                f"duplicate task key {task.key!r}: two tasks would "
                "share one resume-by-key record"
            )
        seen_keys.add(task.key)
        groups.setdefault(task.cell_key, []).append(task)
    return [CellBatch(tuple(group)) for group in groups.values()]


def _coerce_named(cls, field: str, entry):
    """An algorithm, adversary or churn axis entry from its shorthand.

    Accepts the spec object itself, a bare name, a ``(name, params)``
    pair, or a ``{field: name, "params": {…}}`` document.
    """
    if isinstance(entry, cls):
        return entry
    if isinstance(entry, str):
        return cls(entry)
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        return cls(entry[0], _freeze_params(entry[1]))
    if isinstance(entry, dict):
        return cls(entry[field], _freeze_params(entry.get("params")))
    raise TypeError(f"cannot interpret {cls.__name__} entry {entry!r}")


def _coerce_graph(entry) -> List[GraphSpec]:
    if isinstance(entry, GraphSpec):
        return [entry]
    if isinstance(entry, (tuple, list)) and len(entry) in (2, 3):
        kind, n = entry[0], entry[1]
        params = _freeze_params(entry[2] if len(entry) == 3 else None)
        return [GraphSpec(kind, int(n), params)]
    if isinstance(entry, dict):
        params = _freeze_params(entry.get("params"))
        sizes = entry.get("sizes", [entry["n"]] if "n" in entry else None)
        if sizes is None:
            raise ValueError(
                f"graph entry {entry!r} needs 'n' or 'sizes'"
            )
        return [GraphSpec(entry["kind"], int(n), params) for n in sizes]
    raise TypeError(f"cannot interpret graph entry {entry!r}")


def _coerce_rule(entry) -> str:
    if isinstance(entry, CollisionRule):
        return entry.name
    name = str(entry).upper()
    if name not in CollisionRule.__members__:
        raise ValueError(
            f"unknown collision rule {entry!r}; "
            f"known: {list(CollisionRule.__members__)}"
        )
    return name


def _coerce_mode(entry) -> str:
    if isinstance(entry, StartMode):
        return entry.value
    value = str(entry).lower()
    StartMode(value)  # raises ValueError on unknown modes
    return value


#: Engine spellings the ``engines`` axis accepts beyond
#: :data:`~repro.sim.engine.ENGINE_NAMES`: ``"vector"`` names a deleted
#: backend, kept so result files whose keys carry ``/eng-vector`` still
#: resume by key.  The runner executes such tasks on the fast engine.
_LEGACY_ENGINES = ("vector",)


def _coerce_engine(entry) -> str:
    value = str(entry).lower()
    if value not in ENGINE_NAMES and value not in _LEGACY_ENGINES:
        raise ValueError(
            f"unknown engine {entry!r}; known: {list(ENGINE_NAMES)}"
        )
    return value


def _coerce_seeds(entry) -> Tuple[int, ...]:
    if isinstance(entry, dict):
        if "count" not in entry:
            raise ValueError("seeds: missing 'count'")
        start = int(entry.get("start", 0))
        count = int(entry["count"])
        return tuple(range(start, start + count))
    if isinstance(entry, int):
        return (entry,)
    return tuple(int(s) for s in entry)


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep grid.

    The task list is the cross product
    ``algorithms × graphs × adversaries × collision_rules × start_modes
    × engines × churns × seeds`` in that (deterministic) nesting order.

    Axis entries accept light-weight shorthands::

        ExperimentSpec(
            name="demo",
            algorithms=["round_robin", ("harmonic", {"T": 4})],
            graphs=[("clique-bridge", n) for n in (9, 17, 33)],
            adversaries=["greedy"],
            seeds=range(5),
        )

    ``max_rounds=None`` lets each task fall back to the algorithm's
    proven-bound limit (:func:`repro.core.runner.suggested_round_limit`).

    ``engines`` selects the execution engine implementation per task:
    ``"reference"`` (the oracle) or ``"fast"`` (the bitmask engine) —
    results are identical either way, only the keys differ.  The legacy
    spelling ``"vector"`` is accepted so old result files resume by key;
    those tasks run on the fast engine.
    """

    name: str
    algorithms: Tuple[AlgorithmSpec, ...]
    graphs: Tuple[GraphSpec, ...]
    adversaries: Tuple[AdversarySpec, ...] = (AdversarySpec("none"),)
    collision_rules: Tuple[str, ...] = ("CR4",)
    start_modes: Tuple[str, ...] = ("asynchronous",)
    engines: Tuple[str, ...] = ("reference",)
    churns: Tuple[ChurnSpec, ...] = (ChurnSpec("none"),)
    seeds: Tuple[int, ...] = (0,)
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "algorithms",
            tuple(
                _coerce_named(AlgorithmSpec, "name", a)
                for a in self.algorithms
            ),
        )
        graphs: List[GraphSpec] = []
        for i, entry in enumerate(self.graphs):
            # A ``sizes`` entry expands to one GraphSpec per size.
            for graph in _coerce_graph(entry):
                GRAPHS.check(
                    graph.kind,
                    graph.params,
                    f"graphs[{i}].kind",
                    f"graphs[{i}].params",
                )
                graphs.append(graph)
        object.__setattr__(self, "graphs", tuple(graphs))
        object.__setattr__(
            self,
            "adversaries",
            tuple(
                _coerce_named(AdversarySpec, "kind", a)
                for a in self.adversaries
            ),
        )
        object.__setattr__(
            self,
            "collision_rules",
            tuple(_coerce_rule(r) for r in self.collision_rules),
        )
        object.__setattr__(
            self,
            "start_modes",
            tuple(_coerce_mode(m) for m in self.start_modes),
        )
        object.__setattr__(
            self,
            "engines",
            tuple(_coerce_engine(e) for e in self.engines),
        )
        object.__setattr__(
            self,
            "churns",
            tuple(_coerce_named(ChurnSpec, "kind", c) for c in self.churns),
        )
        object.__setattr__(self, "seeds", _coerce_seeds(self.seeds))
        # Kinds and params are checked against their registries once
        # per axis entry (graphs above), so bad input fails before any
        # task runs.
        for axis, registry, field in (
            ("algorithms", ALGORITHMS, "name"),
            ("adversaries", ADVERSARIES, "kind"),
            ("churns", CHURNS, "kind"),
        ):
            for i, entry in enumerate(getattr(self, axis)):
                registry.check(
                    getattr(entry, field),
                    entry.params,
                    f"{axis}[{i}].{field}",
                    f"{axis}[{i}].params",
                )
        if not (
            self.algorithms
            and self.graphs
            and self.adversaries
            and self.collision_rules
            and self.start_modes
            and self.engines
            and self.churns
            and self.seeds
        ):
            raise ValueError(
                "spec needs at least one entry on every axis "
                "(algorithms, graphs, adversaries, collision_rules, "
                "start_modes, engines, churns, seeds)"
            )
        # Repeated axis entries expand to tasks with identical keys, so
        # they would overwrite each other's records and make a resumed
        # sweep report completion after running only the unique cells.
        # Reject them at construction with the offending entries named.
        self._reject_duplicates("seeds", self.seeds, str)
        self._reject_duplicates(
            "algorithms", self.algorithms, lambda a: a.label
        )
        self._reject_duplicates(
            "graphs", self.graphs, lambda g: g.label
        )
        self._reject_duplicates(
            "adversaries", self.adversaries, lambda a: a.label
        )
        self._reject_duplicates(
            "collision_rules", self.collision_rules, str
        )
        self._reject_duplicates("start_modes", self.start_modes, str)
        self._reject_duplicates("engines", self.engines, str)
        self._reject_duplicates(
            "churns", self.churns, lambda c: c.label
        )

    def _reject_duplicates(self, axis, entries, label) -> None:
        """Raise if an axis repeats an entry (keys would collide)."""
        seen: set = set()
        dupes: List[str] = []
        for entry in entries:
            if entry in seen:
                dupes.append(label(entry))
            seen.add(entry)
        if dupes:
            raise ValueError(
                f"spec {self.name!r}: duplicate {axis} "
                f"entries {dupes} — repeated entries collapse onto "
                "one resume key and silently shrink the sweep"
            )

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of tasks the grid expands to."""
        return (
            len(self.algorithms)
            * len(self.graphs)
            * len(self.adversaries)
            * len(self.collision_rules)
            * len(self.start_modes)
            * len(self.engines)
            * len(self.churns)
            * len(self.seeds)
        )

    def tasks(self) -> List[RunTask]:
        """Expand the grid to its ordered task list."""
        out: List[RunTask] = []
        for alg in self.algorithms:
            for graph in self.graphs:
                for adv in self.adversaries:
                    for rule in self.collision_rules:
                        for mode in self.start_modes:
                            for engine in self.engines:
                                for churn in self.churns:
                                    for seed in self.seeds:
                                        out.append(
                                            RunTask(
                                                sweep=self.name,
                                                algorithm=alg.name,
                                                algorithm_params=(
                                                    alg.params
                                                ),
                                                graph_kind=graph.kind,
                                                n=graph.n,
                                                graph_params=(
                                                    graph.params
                                                ),
                                                adversary_kind=adv.kind,
                                                adversary_params=(
                                                    adv.params
                                                ),
                                                collision_rule=rule,
                                                start_mode=mode,
                                                seed=seed,
                                                max_rounds=(
                                                    self.max_rounds
                                                ),
                                                engine=engine,
                                                churn_kind=churn.kind,
                                                churn_params=(
                                                    churn.params
                                                ),
                                            )
                                        )
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-serialisable document (see ``from_dict``)."""
        return {
            "name": self.name,
            "algorithms": [
                {"name": a.name, "params": dict(a.params)}
                for a in self.algorithms
            ],
            "graphs": [
                {"kind": g.kind, "n": g.n, "params": dict(g.params)}
                for g in self.graphs
            ],
            "adversaries": [
                {"kind": a.kind, "params": dict(a.params)}
                for a in self.adversaries
            ],
            "collision_rules": list(self.collision_rules),
            "start_modes": list(self.start_modes),
            "engines": list(self.engines),
            "churns": [
                {"kind": c.kind, "params": dict(c.params)}
                for c in self.churns
            ],
            "seeds": list(self.seeds),
            "max_rounds": self.max_rounds,
        }

    _FIELDS = (
        "name",
        "algorithms",
        "graphs",
        "adversaries",
        "collision_rules",
        "start_modes",
        "engines",
        "churns",
        "seeds",
        "max_rounds",
    )

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a JSON document, rejecting unknown fields.

        A missing required field (``name``, ``algorithms``, ``graphs``)
        raises a ``ValueError`` naming it.
        """
        unknown = sorted(set(doc) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {unknown}; known: "
                f"{list(cls._FIELDS)}"
            )
        for required in ("name", "algorithms", "graphs"):
            if required not in doc:
                raise ValueError(
                    f"missing required spec field {required!r}"
                )
        return cls(
            name=doc["name"],
            algorithms=doc["algorithms"],
            graphs=doc["graphs"],
            adversaries=doc.get("adversaries", ["none"]),
            collision_rules=doc.get("collision_rules", ["CR4"]),
            start_modes=doc.get("start_modes", ["asynchronous"]),
            engines=doc.get("engines", ["reference"]),
            churns=doc.get("churns", ["none"]),
            seeds=doc.get("seeds", [0]),
            max_rounds=doc.get("max_rounds"),
        )


def load_specs(path: str) -> List[ExperimentSpec]:
    """Load one spec or a list of specs from a JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = [doc]
    return [ExperimentSpec.from_dict(d) for d in doc]
