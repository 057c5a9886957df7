"""Set-up probe: a fresh interpreter imports ``lusztig_cones.cli`` and
builds one workload's inputs, then prints the monotonic clock and the
import's seconds.  It imports nothing else of the benchmark, so the time
from its start to its output is the program's set-up.  ``run.py`` starts
it; by hand:

    python3 bench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_program() -> float:
    """Import ``lusztig_cones.cli`` from the checkout's ``src``; seconds taken."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    try:
        import lusztig_cones.cli  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"cannot import lusztig_cones from {SRC}: {exc}\n")
        sys.exit(2)
    return time.perf_counter() - t0


def main(workload: str, seed: str) -> None:
    import_s = import_program()
    import inputs

    inputs.prepare(inputs.WORKLOADS[workload], int(seed))
    print(time.monotonic(), import_s)


if __name__ == "__main__":
    main(*sys.argv[1:])
