"""One registry type for every named kind specs, the CLI and searches use.

Graphs, algorithms, adversaries, churn schedules and searchers are each
one :class:`Registry`.  An :class:`Entry` holds a kind's factory, its
one-line description, its declared spec params (name → ``int``,
``float``, ``str`` or ``bool``; defaults stay in the factory signature,
and a declared param the signature gives no default is required) and,
for graphs, whether the factory's output depends on the seed.
:meth:`Registry.check` validates a kind and its params against the
declaration and names the offending field, so bad spec input fails
when the spec is built, not in a worker mid-sweep.  A kind registered
without a declaration (``params=None``) passes any params through.

This module imports nothing from ``repro``, so every layer can hold a
registry.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

#: The types a declared spec parameter may have (JSON's scalars).
PARAM_TYPES = (int, float, str, bool)


@dataclass(frozen=True)
class Entry:
    """One registered kind: its factory and what describes it."""

    factory: Callable[..., Any]
    description: str = ""
    #: Declared spec params, name → type; ``None`` declares nothing and
    #: passes every param through to the factory.
    params: Optional[Mapping[str, type]] = None
    #: Whether the factory's output varies with its seed argument
    #: (graph registries only; ``True`` is the safe answer).
    seed_dependent: bool = True


def _type_ok(value: Any, expected: type) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


class Registry:
    """A named vocabulary: kind → :class:`Entry`.

    ``noun`` names the vocabulary in errors (``"graph kind"``,
    ``"algorithm"``).
    """

    def __init__(self, noun: str, entries: Mapping[str, Entry]) -> None:
        self.noun = noun
        #: kind → entry; :meth:`register` is the checked way to add one.
        self.entries: Dict[str, Entry] = {}
        for kind, entry in entries.items():
            self._add(kind, entry)

    def _add(self, kind: str, entry: Entry) -> None:
        if kind in self.entries:
            raise ValueError(f"{self.noun} {kind!r} already registered")
        for name, typ in (entry.params or {}).items():
            if typ not in PARAM_TYPES:
                raise ValueError(
                    f"{self.noun} {kind!r}: param {name!r} declares "
                    f"{typ!r}; use one of "
                    f"{[t.__name__ for t in PARAM_TYPES]}"
                )
        self.entries[kind] = entry

    def register(
        self,
        kind: str,
        factory: Callable[..., Any],
        description: str = "",
        params: Optional[Mapping[str, type]] = None,
        seed_dependent: bool = True,
    ) -> None:
        """Add a kind at runtime; re-registering a kind is an error.

        Without ``params`` the kind's params pass through unchecked.
        ``seed_dependent`` matters to graph registries only: pass
        ``False`` just for factories that ignore their seed, which lets
        batched sweeps share one graph across a cell's seeds.
        """
        self._add(
            kind, Entry(factory, description, params, seed_dependent)
        )

    def __contains__(self, kind: object) -> bool:
        return kind in self.entries

    def kinds(self) -> List[str]:
        """The registered kind names, sorted."""
        return sorted(self.entries)

    def items(self) -> List[Tuple[str, Entry]]:
        """``(kind, entry)`` pairs, sorted by kind."""
        return sorted(self.entries.items())

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """kind → description and params (name → type name, ``None``
        when undeclared): what ``repro list --json`` prints."""
        return {
            kind: {
                "description": entry.description,
                "params": None if entry.params is None else {
                    name: typ.__name__
                    for name, typ in sorted(entry.params.items())
                },
            }
            for kind, entry in self.items()
        }

    def entry(self, kind: str) -> Entry:
        """The entry of ``kind``; unknown kinds raise ``ValueError``."""
        try:
            return self.entries[kind]
        except KeyError:
            raise ValueError(
                f"unknown {self.noun} {kind!r}; known: {self.kinds()}"
            ) from None

    def build(self, kind: str, *args: Any, **params: Any) -> Any:
        """Call the factory of ``kind`` with ``args`` and ``params``."""
        return self.entry(kind).factory(*args, **params)

    def check(
        self,
        kind: str,
        params: Iterable[Tuple[str, Any]],
        kind_path: str,
        params_path: str,
    ) -> None:
        """Validate ``kind`` and its ``(name, value)`` params.

        Errors start with the field path of the offender: ``kind_path``
        for an unknown kind, ``params_path.<name>`` for an undeclared or
        mistyped param, ``params_path`` for missing required ones.
        """
        try:
            entry = self.entry(kind)
        except ValueError as exc:
            raise ValueError(f"{kind_path}: {exc}") from None
        declared = entry.params
        if declared is None:
            return
        params = tuple(params)
        for name, value in params:
            path = f"{params_path}.{name}"
            if name not in declared:
                raise ValueError(
                    f"{path}: {self.noun} {kind!r} takes no param "
                    f"{name!r}; declared: {sorted(declared)}"
                )
            expected = declared[name]
            if not _type_ok(value, expected):
                raise ValueError(
                    f"{path}: expected {expected.__name__}, got {value!r}"
                )
        given = {name for name, _ in params}
        missing = [
            name
            for name, param in inspect.signature(
                entry.factory
            ).parameters.items()
            if name in declared
            and name not in given
            and param.default is inspect.Parameter.empty
        ]
        if missing:
            raise ValueError(
                f"{params_path}: {self.noun} {kind!r} needs params "
                f"{sorted(missing)}"
            )
