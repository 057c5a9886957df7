"""The untraced closed loops that give the end-to-end metrics, and the
pieces the traced run shares with them.  Every loop is closed: the next
call starts only after the previous one has finished."""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import statistics
import time
from pathlib import Path

from lusztig_cones import cli, pquiver, spanning, wiring
from lusztig_cones.cone import RootVector, SimpleRootLabel
from lusztig_cones.words import ReducedWord

import checks
from inputs import State, Workload


def jobs_for(requested: int) -> int:
    return max(1, min(requested, os.cpu_count() or 1))


def verify_args(w: Workload, count: int, seed: int, jobs: int, out: Path) -> list[str]:
    args = ["verify", "--n", str(w.n), "--mode", w.mode, "--jobs", str(jobs)]
    if w.mode == "sample":
        args += ["--count", str(count), "--seed", str(seed)]
    return args + ["--format", "json", "--out", str(out)]


def percentile(samples, p: float) -> float:
    """Nearest-rank ``p``-th percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 11."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0, len(s)
    return s[-11], 100.0 * (len(s) - 10) / len(s), len(s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed; a failure is a mismatch, an
    exception or a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ops: int, failures: list[str]) -> bool:
        self.attempted += ops
        if failures:
            self.failed += ops
            self.messages.extend(failures[: max(0, 20 - len(self.messages))])
        return not failures

    def guarded(self, ops: int, fn, *args):
        """Run ``fn(*args) -> (seconds, failures, result)``; an exception is a
        failure.  Returns the seconds of a passing call, else None."""
        try:
            seconds, failures, _ = fn(*args)
        except Exception as exc:  # any exception from the program is a failed op
            self.record(ops, [f"{type(exc).__name__}: {exc}"])
            return None
        return seconds if self.record(ops, failures) else None


class Session:
    """A query session: a quiver at rank n and points planted from the
    formula vectors with the spec's coefficients."""

    def __init__(self, n: int, spec: dict):
        self.n = n
        self.spec = spec
        self.Q = pquiver.Quiver(n, tuple(spec["quiver"]))
        self._points = None

    def points(self) -> tuple[RootVector, RootVector]:
        """(inside, outside); built on first use, outside any timed region."""
        if self._points is None:
            n = self.n
            vectors = {("simple", j): spanning.v_simple(j, n) for j in range(1, n + 1)}
            for P in pquiver.sub_partial_quivers(self.Q):
                vectors[("pq", (P.rightmost, P.leftmost))] = spanning.v_partial_quiver(P)
            coeffs = self.spec["coeffs"]
            outside = {**coeffs, self.spec["outside"]: -1}
            self._points = tuple(
                RootVector(
                    n,
                    tuple(
                        sum(c[key] * vectors[key].values[i] for key in c)
                        for i in range(len(vectors[("simple", 1)].values))
                    ),
                )
                for c in (coeffs, outside)
            )
        return self._points

    def check(self, word, inside: bool, outside: bool, coeffs: dict) -> list[str]:
        """Chamber sets of the word, both memberships and the coefficients."""
        chambers = wiring.chambers(wiring.build_wiring(word))
        failures = checks.check_chamber_sets(
            {c.chamber_set for c in chambers},
            {pquiver.chamber_set_of(P) for P in pquiver.sub_partial_quivers(self.Q)},
        )
        failures += checks.check_contains(inside, outside)
        by_pair = {(c.left_pos, c.right_pos): c.chamber_set for c in chambers}
        got = []
        for label, c in coeffs.items():
            if isinstance(label, SimpleRootLabel):
                got.append((("simple", label.j), c))
            else:
                P = pquiver.partial_quiver_of(by_pair[(label.left, label.right)], self.n)
                got.append((("pq", (P.rightmost, P.leftmost)), c))
        return failures + checks.check_coefficients(got, self.spec["coeffs"])


def run_verify_call(args: list[str], out: Path, requested: int):
    """One in-process ``lusztig-cones verify`` call, checked from its JSON."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    rc = cli.main(args)
    seconds = time.perf_counter() - t0
    payload = json.loads(out.read_text()) if out.exists() else None
    return seconds, checks.check_verify_payload(rc, payload, requested), None


def run_word(word: ReducedWord, labels: int):
    t0 = time.perf_counter()
    report = spanning.verify_theorem(word)
    seconds = time.perf_counter() - t0
    return seconds, checks.check_report(report, word, labels), report


def run_for(tally: Tally, budget: float, calls, op, minimum: int = 1) -> list[float]:
    """Closed loop: ``op(*args)`` for successive ``args`` of the iterator
    ``calls``, until at least ``minimum`` calls have run and ``budget`` wall
    seconds have passed.  ``op`` returns (seconds, failures, result), and
    each call is one op of ``tally``.  Returns the passing calls' seconds."""
    times = []
    start = time.perf_counter()
    for done, args in enumerate(calls, 1):
        seconds = tally.guarded(1, op, *args)
        if seconds is not None:
            times.append(seconds)
        if done >= minimum and time.perf_counter() - start >= budget:
            break
    return times


def run_end_to_end(state: State, seconds: float, out_dir: Path, tally: Tally,
                   between) -> tuple[dict, dict]:
    """Closed loops with tracing off.

    One ``verify`` call (throughput) alternates with as long a slice of
    single-word ``verify_theorem`` calls (latency per word), so both
    figures sample the whole run.  Throughput counts the words of passing
    calls over the seconds those calls took.  After each round,
    ``between`` gets the share of ``seconds`` spent so far.
    """
    w = state.workload
    out = out_dir / f"verify-{w.name}.json"
    jobs = jobs_for(w.jobs)
    words = ((word, w.k) for word in itertools.cycle(state.words))
    call_times, latencies = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        args = verify_args(w, w.count, state.call_seeds.randrange(2**31), jobs, out)
        t0 = time.perf_counter()
        t = tally.guarded(w.count, run_verify_call, args, out, w.count)
        if t is not None:
            call_times.append(t)
        latencies += run_for(tally, time.perf_counter() - t0, words, run_word)
        between((time.perf_counter() - start) / seconds)
    ops, busy = w.count * len(call_times), sum(call_times)
    if not latencies:
        latencies = [0.0]
    value, pct, samples = tail(latencies)
    metrics = {
        "ops_per_s": (ops / busy if busy else 0.0, "1/s"),
        "op_ms_p90": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "latency_samples": samples,
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "tail_ms": 1e3 * value,
        "tail_percentile": pct,
        "ops": ops,
        "busy_s": busy,
    }
    return metrics, details
