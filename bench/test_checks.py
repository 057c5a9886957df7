"""Self-tests of the benchmark's correctness checks: a corrupted verdict, a
wrong coefficient and a short word count must each count as a failure.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from lusztig_cones import cone, pquiver, spanning  # noqa: E402
from lusztig_cones.cone import RootVector  # noqa: E402
from lusztig_cones.spanning import LabelVerdict, TheoremReport  # noqa: E402
from lusztig_cones.words import ReducedWord  # noqa: E402

WORD = ReducedWord(3, (1, 3, 2, 1, 3, 2))


def corrupted(report):
    """The report with the first label's inverse column changed."""
    first = report.verdicts[0]
    values = list(first.inverse.values)
    values[0] += 1
    bad = LabelVerdict(first.label, first.formula, RootVector(first.inverse.n, tuple(values)))
    return TheoremReport(report.word, (bad,) + report.verdicts[1:])


def test_true_report_passes():
    report = spanning.verify_theorem(WORD)
    assert checks.check_report(report, WORD, WORD.k) == []
    rebuilt = [(v.label, v.formula, v.inverse) for v in report.verdicts]
    assert checks.check_verdicts_match(rebuilt, report.verdicts) == []


def test_corrupted_verdict_fails():
    report = spanning.verify_theorem(WORD)
    bad = corrupted(report)
    assert checks.check_report(bad, WORD, WORD.k)
    rebuilt = [(v.label, v.formula, v.inverse) for v in report.verdicts]
    assert checks.check_verdicts_match(rebuilt, bad.verdicts)


def test_dropped_verdict_fails():
    report = spanning.verify_theorem(WORD)
    short = TheoremReport(report.word, report.verdicts[:-1])
    assert checks.check_report(short, WORD, WORD.k)


@pytest.mark.parametrize("checked", [0, 767])
def test_short_word_count_fails(checked):
    payload = {"n": 4, "checked": checked, "mismatches": []}
    assert checks.check_verify_payload(0, payload, 768)


def test_verify_payload_with_mismatch_or_bad_exit_fails():
    assert checks.check_verify_payload(0, {"checked": 16, "mismatches": [{}]}, 16)
    assert checks.check_verify_payload(1, {"checked": 16, "mismatches": []}, 16)
    assert checks.check_verify_payload(0, None, 16)
    assert checks.check_verify_payload(0, {"checked": 16, "mismatches": []}, 16) == []


def test_wrong_coefficient_fails():
    planted = {("simple", 1): 2, ("pq", (2, 3)): 0}
    assert checks.check_coefficients(planted.items(), planted) == []
    assert checks.check_coefficients([(("simple", 1), 2), (("pq", (2, 3)), 1)], planted)
    assert checks.check_coefficients([(("simple", 1), 2)], planted)
    assert checks.check_coefficients(
        [(("simple", 1), 2), (("simple", 1), 2), (("pq", (2, 3)), 0)], planted
    )


def test_contains_answers_must_be_exact():
    assert checks.check_contains(True, False) == []
    assert checks.check_contains(True, True)
    assert checks.check_contains(False, False)


def test_counts_must_repeat():
    counts = {"cone.max_entry_bits": 2, "trace.words": 6}
    assert checks.check_counts_repeat(None, counts) == []
    assert checks.check_counts_repeat(dict(counts), counts) == []
    assert checks.check_counts_repeat({**counts, "trace.words": 7}, counts)


def test_planted_session_passes_and_wrong_answer_fails():
    session = workloads.Session(5, inputs.session_specs(5, 1, random.Random(3))[0])
    assert traced.trace_session(traced.Tracer(), "q", session)[1] == []
    w = pquiver.bfz_word(session.Q)
    inside, _ = session.points()
    coeffs = cone.decompose(w, inside)
    first = next(iter(coeffs))
    assert session.check(w, True, False, {**coeffs, first: coeffs[first] + 1})
    assert session.check(w, True, True, coeffs)


def test_failed_verify_call_counts_every_word(tmp_path):
    tally = workloads.Tally()
    out = tmp_path / "v.json"
    args = ["verify", "--n", "3", "--mode", "exhaustive", "--format", "json", "--out", str(out)]
    assert tally.guarded(16, workloads.run_verify_call, args, out, 16) is not None
    assert tally.guarded(17, workloads.run_verify_call, args, out, 17) is None
    assert (tally.attempted, tally.failed) == (33, 17)
    assert json.loads(out.read_text())["checked"] == 16


def test_exception_counts_as_failure():
    tally = workloads.Tally()

    def boom():
        raise ArithmeticError("broken")

    assert tally.guarded(3, boom) is None
    assert (tally.attempted, tally.failed) == (3, 3)


def test_inputs_repeat_for_a_seed():
    assert inputs.walk_words(5, 4, random.Random(7)) == inputs.walk_words(5, 4, random.Random(7))
    state = inputs.prepare(inputs.WORKLOADS["exhaustive-n4"], 7)
    assert (len(state.words), state.failures) == (inputs.word_count(4), [])
    assert state.words == inputs.prepare(inputs.WORKLOADS["exhaustive-n4"], 7).words
    for w in inputs.walk_words(6, 5, random.Random(1)):
        ReducedWord(6, w)  # raises unless the word is reduced for w0


def test_short_enumeration_counts_as_failure(monkeypatch):
    true_enumerate = inputs.enumerate_reduced_words
    monkeypatch.setattr(inputs, "enumerate_reduced_words", lambda n: list(true_enumerate(n))[1:])
    state = inputs.prepare(inputs.WORKLOADS["exhaustive-n4"], 7)
    tally = workloads.Tally()
    assert tally.record(1, state.failures) is False
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, count = workloads.tail(range(100))
    assert (value, pct, count) == (89, 90.0, 100)
    assert workloads.tail([3, 1, 2]) == (3, 100.0, 3)


def test_corrupted_program_answer_counts_as_failure(monkeypatch):
    true_verify = spanning.verify_theorem
    monkeypatch.setattr(workloads.spanning, "verify_theorem", lambda w: corrupted(true_verify(w)))
    tally = workloads.Tally()
    assert tally.guarded(1, workloads.run_word, WORD, WORD.k) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_percentile_is_nearest_rank():
    assert workloads.percentile(range(1, 101), 90) == 90
    assert workloads.percentile([5.0], 90) == 5.0
