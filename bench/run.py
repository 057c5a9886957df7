"""Benchmark of lusztig-cones, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes a separate traced run for the per-layer
metrics.  Every output of the program is checked exactly.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance and sample counts.  Set-up is timed in fresh
interpreters running ``probe.py``.  Records and spans are written under
``.bench_out/`` in the checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import import_program

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
# Not used while the benchmark was written; confirm a claimed gain on it.
HELD_OUT_SEED = 918273
SETUP_PROBES = 21


class SetupProbes:
    """(set-up seconds, import seconds) of fresh interpreters running
    ``probe.py``, from process start to the first timed call."""

    def __init__(self, workload: str, seed: int, count: int = SETUP_PROBES):
        self.args = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
        self.count = count
        self.samples: list[tuple[float, float]] = []

    def run_until(self, fraction: float) -> None:
        """Run probes until ``fraction`` of them are done."""
        while len(self.samples) < min(self.count, math.ceil(self.count * fraction)):
            t0 = time.monotonic()
            proc = subprocess.run(self.args, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"set-up probe exited with {proc.returncode}")
            ready, import_s = map(float, proc.stdout.split()[-2:])
            self.samples.append((ready - t0, import_s))


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_hash() -> str:
    """Digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    import_program()
    import checks
    import inputs
    import traced
    import workloads

    w = inputs.WORKLOADS.get(args.workload)
    if w is None:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    digest = code_hash()
    probes = SetupProbes(w.name, args.seed)
    state = inputs.prepare(w, args.seed)
    tally = workloads.Tally()
    tally.record(1, state.failures)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "code_sha256": digest,
        "loadavg_at_start": load_at_start,
    }
    if args.trace == 0:
        # set-up probes are spread over the run, so a slow or fast spell of
        # a shared machine reaches them as it reaches the loops
        metrics, details = workloads.run_end_to_end(
            state, args.seconds, OUT_DIR, tally, probes.run_until
        )
        probes.run_until(1.0)
        setup_s = statistics.median(s for s, _ in probes.samples)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    else:
        probes.run_until(1.0)
        import_s = statistics.median(i for _, i in probes.samples)
        metrics, counts, details, tracer = traced.run_traced(
            state, args.seconds, OUT_DIR, import_s, tally
        )
        counts_path = OUT_DIR / f"counts-{w.name}-{args.seed}-{digest[:16]}.json"
        previous = json.loads(counts_path.read_text()) if counts_path.exists() else None
        tally.record(1, checks.check_counts_repeat(previous, counts))
        if previous is None:
            counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        spans_path = OUT_DIR / f"spans-{w.name}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
        metrics["failed_frac"] = (tally.failed / tally.attempted, "ratio")
        record["exact_counts"] = counts
        record["spans"] = str(spans_path.relative_to(ROOT))
    record.update(setup_samples_s=[s for s, _ in probes.samples],
                  details=details, failures=tally.messages)
    (OUT_DIR / f"run-{w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for message in tally.messages:
        sys.stderr.write(f"FAILED: {message}\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
