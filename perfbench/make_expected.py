"""Regenerate a workload's pinned outputs on the reference engine.

Usage, from the root of a checkout::

    python3 perfbench/make_expected.py [--seed 0] [--size full]

Writes ``perfbench/expected/<workload>-<size>-seed<seed>.json`` for
every workload that runs an engine.  The files are generated once and
committed; ``run.py`` compares every pass of a run on that seed against
them.  The reference engine is the oracle the fast engine is proven
trace-equivalent to, so a mismatch is a fast-engine (or workload) bug.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import EXPECTED_DIR, PINNED_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def write_expected(name: str, seed: int, size: str, out: Path) -> bool:
    """Write one workload's reference outputs to ``out``.

    Returns ``False`` (writing nothing) for a workload without pinned
    outputs.
    """
    workload = WORKLOADS[name](seed, size)
    if not workload.pinned:
        return False
    scratch = ROOT / ".perfbench_work" / f"expected-{os.getpid()}"
    try:
        workload.prepare(scratch / "inputs")
        outputs = workload.reference_outputs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return True


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in WORKLOADS:
        path = EXPECTED_DIR / f"{name}-{args.size}-seed{args.seed}.json"
        if write_expected(name, args.seed, args.size, path):
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
