"""The CLI surface is pinned: every subcommand's flags, defaults, choices.

``fixtures/cli_surface.json`` holds the surface of ``build_parser()``
as it stood before the shared cell flags were folded into one
definition per flag.  The live parser must match it flag for flag,
apart from the deliberate changes listed in :data:`REMOVED` and
:data:`CHANGED`.  Help text is free to change; names, destinations,
types, defaults, choices and required-ness are not.

Regenerate the fixture only for a deliberate CLI change::

    PYTHONPATH=src python tests/test_cli_surface.py > \\
        tests/fixtures/cli_surface.json
"""

import argparse
import json
import pathlib

from repro.cli import build_parser

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_surface.json"

#: Flags deleted on purpose: ``sweep --seed`` was never read (inline
#: sweeps take ``--seeds``); ``sweep --batch/--no-batch`` chose a
#: per-task dispatch path that wrote the same records as the batched
#: one and was never faster.
REMOVED = {("sweep", "--seed"), ("sweep", "--no-batch")}

#: The ``--store`` vocabulary after the columnar backend's removal.
_STORE = {"choices": ["auto", "jsonl", "sharded"]}

#: Flags whose surface changed on purpose: ``search --engine`` lost its
#: ``auto`` spelling, which always meant the fast engine; every
#: ``--store`` lost its ``columnar`` choice.
CHANGED = {
    ("search", "--engine"): {
        "choices": ["reference", "fast"],
        "default": "fast",
    },
    **{
        (sub, "--store"): _STORE
        for sub in ("sweep", "search", "merge", "report")
    },
}


def _describe(action: argparse.Action) -> dict:
    return {
        "dest": action.dest,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", None),
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "nargs": action.nargs,
    }


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """subcommand -> flag (or positional dest) -> its description."""
    surface = {}
    for group in parser._subparsers._group_actions:  # argparse internals
        for name, sub in group.choices.items():
            surface[name] = {
                (action.option_strings[-1] if action.option_strings
                 else action.dest): _describe(action)
                for action in sub._actions
                if not isinstance(action, argparse._HelpAction)
            }
    return surface


def test_parser_matches_the_pinned_surface():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for sub, flag in REMOVED:
        del expected[sub][flag]
    for (sub, flag), changes in CHANGED.items():
        expected[sub][flag].update(changes)
    actual = json.loads(json.dumps(parser_surface(build_parser())))
    assert sorted(actual) == sorted(expected)
    for sub in expected:
        assert actual[sub] == expected[sub], sub


def test_sweep_seed_is_gone():
    """``sweep --seed`` was silently ignored; it now abbreviates ``--seeds``."""
    args = build_parser().parse_args(["sweep", "--seed", "5"])
    assert not hasattr(args, "seed")
    assert args.seeds == "5"


if __name__ == "__main__":
    print(json.dumps(parser_surface(build_parser()), indent=1, sort_keys=True))
