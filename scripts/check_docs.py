#!/usr/bin/env python3
"""Cross-check documented CLI commands against the real ``repro --help``.

Walks every fenced code block in README.md and docs/*.md, extracts the
``repro …`` / ``python -m repro …`` command lines (joining backslash
continuations), and verifies that

* the subcommand exists, and
* every ``--flag`` it uses is accepted by that subcommand's parser

so documentation cannot drift ahead of (or behind) the CLI without
failing the CI docs job.  The converse is enforced too: every live
subcommand must appear in at least one documented command block, so a
new command cannot ship undocumented.  The registry-kinds table of
docs/SWEEP_SPECS.md must name exactly the registered graph, adversary,
churn and algorithm kinds with their declared params (on drift the
check prints the table as the registries render it).  Relative
markdown links are checked for existence as a bonus — a renamed doc
breaks the build, not the reader.

Usage: ``python scripts/check_docs.py`` (exit status 0 = clean).
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import build_parser  # noqa: E402
from repro.core.runner import ALGORITHMS  # noqa: E402
from repro.experiments.registry import (  # noqa: E402
    ADVERSARIES,
    CHURNS,
    GRAPHS,
)

DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
SPEC_DOC = ROOT / "docs" / "SWEEP_SPECS.md"

#: Table label → registry, in the order the table lists them.
SPEC_REGISTRIES = {
    "graph": GRAPHS,
    "adversary": ADVERSARIES,
    "churn": CHURNS,
    "algorithm": ALGORITHMS,
}

FENCE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")
LINK = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")
PARAM = re.compile(r"`(\w+: \w+)`")


def known_flags() -> dict:
    """subcommand -> set of accepted ``--flags``, from the live parser."""
    parser = build_parser()
    out = {}
    for action in parser._subparsers._group_actions:  # argparse internals
        for name, sub in action.choices.items():
            out[name] = set(FLAG.findall(sub.format_help())) | {"--help"}
    return out


def command_lines(block: str):
    """Yield logical ``repro …`` command lines, continuations joined."""
    logical = []
    pending = ""
    for line in block.splitlines():
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        logical.append(line)
    for line in logical:
        for prefix in ("repro ", "python -m repro "):
            if line.startswith(prefix):
                yield line, line[len(prefix):].split()
                break


def check_commands(
    path: pathlib.Path,
    text: str,
    flags_by_sub: dict,
    documented: set,
):
    problems = []
    for block in FENCE.findall(text):
        for line, argv in command_lines(block):
            if not argv:
                continue
            sub = argv[0]
            if sub not in flags_by_sub:
                problems.append(
                    f"{path.name}: unknown subcommand {sub!r} in: {line}"
                )
                continue
            documented.add(sub)
            used = {f.split("=")[0] for f in argv[1:] if f.startswith("--")}
            stale = sorted(used - flags_by_sub[sub])
            if stale:
                problems.append(
                    f"{path.name}: `repro {sub}` does not accept "
                    f"{', '.join(stale)} (from: {line})"
                )
    return problems


def kinds_table() -> list:
    """The registry-kinds table rows, rendered from the registries."""
    rows = []
    for label, registry in SPEC_REGISTRIES.items():
        for kind, described in registry.describe().items():
            params = ", ".join(
                f"`{name}: {typ}`"
                for name, typ in (described["params"] or {}).items()
            )
            rows.append(
                f"| {label} | `{kind}` | {params or '—'} | "
                f"{described['description']} |"
            )
    return rows


def _row_vocabulary(row: str):
    """``(label, kind, params)`` of one table row; params as a string."""
    cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
    params = ", ".join(sorted(PARAM.findall(cells[2])))
    return cells[0], cells[1].strip("`"), params


def check_kinds(text: str):
    """The SWEEP_SPECS kinds table against the live registries."""
    section = text.split("### Registry kinds", 1)[-1].split("\n## ", 1)[0]
    documented = {
        _row_vocabulary(line)
        for line in section.splitlines()
        if line.startswith("| ") and line.split("|")[1].strip()
        in SPEC_REGISTRIES
    }
    live = {_row_vocabulary(row) for row in kinds_table()}
    problems = [
        f"{SPEC_DOC.name}: kinds table lacks {label} `{kind}`"
        f" ({params or 'no params'})"
        for label, kind, params in sorted(live - documented)
    ] + [
        f"{SPEC_DOC.name}: kinds table names {label} `{kind}`"
        f" ({params or 'no params'}), which is not registered so"
        for label, kind, params in sorted(documented - live)
    ]
    if problems:
        problems.append(
            "the registries render the table as:\n"
            + "\n".join(kinds_table())
        )
    return problems


def check_links(path: pathlib.Path, text: str):
    problems = []
    for target in LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{path.name}: broken link -> {target}")
    return problems


def main() -> int:
    flags_by_sub = known_flags()
    problems = []
    documented = set()
    checked = 0
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        problems += check_commands(path, text, flags_by_sub, documented)
        problems += check_links(path, text)
        checked += 1
    problems += check_kinds(SPEC_DOC.read_text(encoding="utf-8"))
    for sub in sorted(set(flags_by_sub) - documented):
        problems.append(
            f"subcommand `repro {sub}` appears in no documented "
            "command block (README.md / docs/*.md)"
        )
    if problems:
        for problem in problems:
            print(f"STALE-DOCS: {problem}", file=sys.stderr)
        return 1
    print(
        f"docs check: {checked} files, CLI commands, kinds table and "
        f"links consistent with repro --help and the registries "
        f"({', '.join(sorted(flags_by_sub))})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
