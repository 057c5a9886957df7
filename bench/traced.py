"""The traced run: spans recorded in memory around each public call of
``words``, ``wiring``, ``pquiver``, ``cone``, ``spanning`` and ``cli``, and
the per-layer metrics computed from them.

A traced word is replayed layer by layer in the order ``verify_theorem``
uses internally, next to one untraced ``verify_theorem`` call on the same
word; the verdicts of the two must agree.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from collections import defaultdict
from pathlib import Path

from lusztig_cones import cone, pquiver, spanning, wiring, words
from lusztig_cones.cone import SimpleRootLabel
from lusztig_cones.words import ReducedWord

import checks
import inputs
from inputs import State
from workloads import (
    Session,
    Tally,
    jobs_for,
    run_for,
    run_verify_call,
    tail,
    verify_args,
)

# Spans whose sum, subtracted from verify_theorem, leaves its own glue.
LAYER_SPANS = (
    "cone.cone_matrix",
    "cone.invert_unimodular",
    "wiring.build_wiring",
    "wiring.chambers",
    "pquiver.partial_quiver_of",
    "spanning.v_simple",
    "spanning.v_partial_quiver",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, word or session id."""

    def __init__(self):
        self.spans: list[list] = []

    def start(self, name: str, key: str, parent: int | None = None) -> int:
        self.spans.append([name, time.perf_counter(), None, parent, key])
        return len(self.spans) - 1

    def end(self, sid: int) -> float:
        """Close span ``sid``; returns its seconds."""
        span = self.spans[sid]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def call(self, name: str, key: str, parent: int | None, fn, *args):
        sid = self.start(name, key, parent)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def by_key(self) -> dict:
        """key -> span name -> list of durations in seconds."""
        out: dict = defaultdict(lambda: defaultdict(list))
        for name, start, end, _, key in self.spans:
            out[key][name].append(end - start)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "key": key}
            for i, (name, start, end, parent, key) in enumerate(self.spans)
        ]


def replay_word(tr: Tracer, key: str, word: ReducedWord):
    """verify_theorem, then its layers one call at a time, then the bare
    exact inverse of the same matrix.  Returns (seconds, failures, (M, span))."""
    root = tr.start("word", key)
    report = tr.call("spanning.verify_theorem", key, root, spanning.verify_theorem, word)
    rep = tr.start("replay", key, root)
    M = tr.call("cone.cone_matrix", key, rep, cone.cone_matrix, word)
    span = tr.call("cone.invert_unimodular", key, rep, cone.invert_unimodular, M)
    diagram = tr.call("wiring.build_wiring", key, rep, wiring.build_wiring, word)
    chambers = tr.call("wiring.chambers", key, rep, wiring.chambers, diagram)
    by_pair = {(c.left_pos, c.right_pos): c for c in chambers}
    rebuilt = []
    for label in span.matrix.labels:
        got = span.vector(label)
        if isinstance(label, SimpleRootLabel):
            expected = tr.call("spanning.v_simple", key, rep, spanning.v_simple, label.j, word.n)
        else:
            chamber = by_pair[(label.left, label.right)]
            P = tr.call(
                "pquiver.partial_quiver_of", key, rep,
                pquiver.partial_quiver_of, chamber.chamber_set, word.n,
            )
            expected = tr.call("spanning.v_partial_quiver", key, rep, spanning.v_partial_quiver, P)
        rebuilt.append((label, expected, got))
    tr.end(rep)
    tr.call("cone.exact_inverse", key, root, cone.exact_inverse, M.rows)
    seconds = tr.end(root)
    failures = checks.check_report(report, word, word.k)
    failures += checks.check_verdicts_match(rebuilt, report.verdicts)
    return seconds, failures, (M, span)


def trace_session(tr: Tracer, key: str, session: Session):
    """Returns (seconds, failures, None)."""
    inside, outside = session.points()
    root = tr.start("session", key)
    word = tr.call("pquiver.bfz_word", key, root, pquiver.bfz_word, session.Q)
    ins = tr.call("cone.contains", key, root, cone.contains, word, inside)
    outs = tr.call("cone.contains", key, root, cone.contains, word, outside)
    coeffs = tr.call("cone.decompose", key, root, cone.decompose, word, inside)
    seconds = tr.end(root)
    tr.call("cone.spanning_set", key, None, cone.spanning_set, word)
    return seconds, session.check(word, ins, outs, coeffs), None


def passes(items, prefix: str):
    """(key, item, first pass?) over every item, pass after pass."""
    for p in itertools.count():
        for i, item in enumerate(items):
            yield f"{prefix}{p}.{i}", item, p == 0


def run_traced(state: State, seconds: float, out_dir: Path, import_s: float, tally: Tally):
    """Returns (metrics, exact counts, details, tracer)."""
    w = state.workload
    rng = random.Random(f"{w.name}/{state.seed}/trace")
    tr = Tracer()
    counts = {"max_entry_bits": 0, "row_nnz_max": 0, "det_neg": 0}

    # spanning: the --jobs pool, same words at --jobs 1 and --jobs 2.  It
    # runs first, while the process is small: forked workers touch the
    # parent's heap, so a heap full of spans would slow them.
    pool_words = w.count if w.mode == "exhaustive" else w.pool_count
    pool_seed = rng.randrange(2**31)
    out = out_dir / f"verify-{w.name}-traced.json"
    pool_times = {1: [], jobs_for(2): []}
    for order in ((1, jobs_for(2)), (jobs_for(2), 1)):  # alternated against drift
        for jobs in order:
            args = verify_args(w, pool_words, pool_seed, jobs, out)
            t = tally.guarded(pool_words, lambda: tr.call(
                f"cli.main.jobs{jobs}", "pool", None, run_verify_call, args, out, pool_words))
            if t is not None:
                pool_times[jobs].append(t)

    # cli: cli.main against verify_all on the same small exhaustive run
    cli_out = out_dir / f"verify-{w.name}-n3.json"
    cli_args = ["verify", "--n", "3", "--mode", "exhaustive", "--format", "json", "--out", str(cli_out)]
    overheads = []
    for r in range(20):
        t_cli = tally.guarded(16, lambda: tr.call(
            "cli.main", f"cli{r}", None, run_verify_call, cli_args, cli_out, 16))
        t_all = tally.guarded(16, lambda: tr.call(
            "spanning.verify_all", f"cli{r}", None, _verify_all_n3))
        if t_cli is not None and t_all is not None:
            overheads.append(t_cli - t_all)

    # words: the sampler at rank n; enumeration at n=4, the largest rank
    # where enumerating every word is feasible.
    c = max(8, 30000 // w.k**2)

    def sample_op(key, seed, first):
        sid = tr.start("words.random_words", key)
        got = spanning.random_words(w.n, c, seed)
        ok = len(got) == c
        return tr.end(sid), [] if ok else [f"random_words gave {len(got)} of {c} words"], None

    enum: list = []

    def enum_op(key, _, first):
        sid = tr.start("words.enumerate", key)
        enum[:] = words.enumerate_reduced_words(4)
        ok = len(enum) == inputs.word_count(4)
        return tr.end(sid), [] if ok else [f"enumerated {len(enum)} words"], None

    seeds = [rng.randrange(2**31) for _ in range(3)]
    run_for(tally, 0, passes(seeds, "rw"), sample_op, len(seeds))
    run_for(tally, 0, passes(range(3), "enum"), enum_op, 3)
    generated = sum(len(list(words.braid_neighbors(x))) for x in enum)
    counts["enum_useful_ratio"] = len(set(enum)) / generated if generated else 0.0

    # verify layers, word by word
    trace_words = [
        ReducedWord(w.n, x) for x in inputs.walk_words(w.n, w.trace_words, rng)
    ]

    def word_op(key, word, first):
        seconds, failures, (M, span) = replay_word(tr, key, word)
        if first:
            counts["max_entry_bits"] = max(
                counts["max_entry_bits"],
                max(x.bit_length() for col in span.columns for x in col),
            )
            counts["row_nnz_max"] = max(
                counts["row_nnz_max"], max(sum(1 for x in r if x) for r in M.rows)
            )
            counts["det_neg"] += span.det < 0
        return seconds, failures, None

    run_for(tally, 0.5 * seconds, passes(trace_words, "w"), word_op, len(trace_words))

    # query sessions at rank n
    sessions = [Session(w.n, s) for s in inputs.session_specs(w.n, w.trace_sessions, rng)]
    run_for(tally, 0.25 * seconds, passes(sessions, "q"),
            lambda key, s, first: trace_session(tr, key, s), len(sessions))

    spans = tr.by_key()

    def total(d, name):
        return sum(d.get(name, ()))

    def groups(prefix, last):
        """Span groups of one word or session, complete up to span ``last``."""
        return [d for k, d in spans.items() if k.startswith(prefix) and last in d]

    wd = groups("w", "cone.exact_inverse")
    qd = groups("q", "cone.spanning_set")
    vt = [total(d, "spanning.verify_theorem") for d in wd]
    vt_tail, vt_pct, vt_n = tail(vt) if vt else (0.0, 0.0, 0)
    t1, t2 = (statistics.median(pool_times[j]) if pool_times[j] else None
              for j in (1, jobs_for(2)))

    def med(values, scale=1e3):
        return scale * statistics.median(values) if values else 0.0

    metrics = {
        "words.sample_ms_per_word": (
            med([total(d, "words.random_words") / c for d in groups("rw", "words.random_words")]),
            "ms"),
        "words.enumerate_ms": (
            med([total(d, "words.enumerate") for d in groups("enum", "words.enumerate")]), "ms"),
        "words.enum_useful_ratio": (counts["enum_useful_ratio"], "ratio"),
        "wiring.build_wiring_us": (med([total(d, "wiring.build_wiring") for d in wd], 1e6), "us"),
        "wiring.chambers_us": (med([total(d, "wiring.chambers") for d in wd], 1e6), "us"),
        "pquiver.partial_quiver_of_us": (
            med([total(d, "pquiver.partial_quiver_of") for d in wd], 1e6), "us"),
        "pquiver.bfz_word_ms": (med([total(d, "pquiver.bfz_word") for d in qd]), "ms"),
        "cone.cone_matrix_us": (med([total(d, "cone.cone_matrix") for d in wd], 1e6), "us"),
        "cone.exact_inverse_ms": (med([total(d, "cone.exact_inverse") for d in wd]), "ms"),
        "cone.inverse_check_ms": (
            med([total(d, "cone.invert_unimodular") - total(d, "cone.exact_inverse") for d in wd]),
            "ms"),
        "cone.contains_ms": (med([x for d in qd for x in d["cone.contains"]]), "ms"),
        "cone.decompose_ms": (med([total(d, "cone.decompose") for d in qd]), "ms"),
        "cone.decompose_inverse_share": (
            med([total(d, "cone.spanning_set") / total(d, "cone.decompose") for d in qd], 1),
            "ratio"),
        "cone.max_entry_bits": (counts["max_entry_bits"], "count"),
        "cone.row_nnz_max": (counts["row_nnz_max"], "count"),
        "cone.det_neg_frac": (counts["det_neg"] / len(trace_words), "ratio"),
        "spanning.formula_us": (
            med([total(d, "spanning.v_simple") + total(d, "spanning.v_partial_quiver")
                 for d in wd], 1e6), "us"),
        "spanning.verify_theorem_ms_p50": (med(vt), "ms"),
        "spanning.verify_theorem_ms_tail": (1e3 * vt_tail, "ms"),
        "spanning.self_ms": (
            med([total(d, "spanning.verify_theorem") - sum(total(d, name) for name in LAYER_SPANS)
                 for d in wd]), "ms"),
        "spanning.pool_speedup": (t1 / t2 if t1 and t2 else 0.0, "x"),
        "spanning.pool_overhead_s": (t2 - t1 / jobs_for(2) if t1 and t2 else 0.0, "s"),
        "cli.import_ms": (1e3 * import_s, "ms"),
        "cli.overhead_ms": (med(overheads), "ms"),
        "trace_overhead_frac": (
            med([total(d, "replay") / total(d, "spanning.verify_theorem") - 1 for d in wd], 1),
            "ratio"),
        "trace.words": (len(trace_words), "count"),
        "trace.sessions": (len(sessions), "count"),
    }
    exact_counts = {
        "cone.max_entry_bits": counts["max_entry_bits"],
        "cone.row_nnz_max": counts["row_nnz_max"],
        "cone.det_neg_frac": metrics["cone.det_neg_frac"][0],
        "words.enum_useful_ratio": counts["enum_useful_ratio"],
        "trace.words": len(trace_words),
        "trace.sessions": len(sessions),
        "pool.words": pool_words,
    }
    details = {
        "verify_theorem_samples": vt_n,
        "verify_theorem_tail_percentile": vt_pct,
        "sessions_traced": len(qd),
        "pool_jobs": jobs_for(2),
        "cli_overhead_pairs": len(overheads),
    }
    return metrics, exact_counts, details, tr


def _verify_all_n3():
    t0 = time.perf_counter()
    report = spanning.verify_all(3, mode="exhaustive")
    seconds = time.perf_counter() - t0
    payload = {"checked": report.checked, "mismatches": report.mismatches}
    return seconds, checks.check_verify_payload(0, payload, 16), report
