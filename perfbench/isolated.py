"""Timed passes in a fresh interpreter, so their peak memory is theirs.

Run as ``python3 perfbench/isolated.py STATE.pkl SECONDS SCRATCH_DIR``
with ``src`` on ``PYTHONPATH``; ``run.py`` does this for every untraced
run.  ``STATE.pkl`` holds a prepared workload.  The script runs
:func:`run.run_passes` on it and writes back, into the same file, the
workload (with the state its passes left), the passes and this
process's peak resident memory in MB up to the end of the first pass.
Every run has a first pass, and how many follow depends on the host's
speed; memory a later pass keeps (one search-adversary run grew from
30.7 to 34.2 MB on its second pass) would make the figure depend on
it too.
"""

import pickle
import sys
from pathlib import Path

import run


def main(argv):
    state = Path(argv[1])
    with open(state, "rb") as f:
        workload = pickle.load(f)
    # What a parent that generated the inputs had already imported, so
    # the first pass is not charged for it.
    import repro.analysis.report  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.search  # noqa: F401
    import repro.store  # noqa: F401

    passes = run.run_passes(workload, float(argv[2]), Path(argv[3]))
    peak = passes[0].peak_mb
    with open(state, "wb") as f:
        pickle.dump((workload, passes, peak), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
