import functools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pquiver import reference_components

from lusztig_cones import cone, pquiver, spanning, wiring, words
from lusztig_cones.cone import (
    CertificateError,
    ChamberLabel,
    RootVector,
    SimpleRootLabel,
    spanning_set,
)
from lusztig_cones.pquiver import (
    Component,
    PartialQuiver,
    all_partial_quivers,
    chamber_set_of,
)
from lusztig_cones.spanning import (
    random_word,
    random_words,
    v_component,
    v_partial_quiver,
    v_simple,
    verify_all,
    verify_theorem,
    weight_vector,
)
from lusztig_cones.words import (
    ReducedWord,
    braid_neighbors,
    enumerate_reduced_words,
    is_reduced_word_for_w0,
    staircase_word,
)

FIG_WORD = ReducedWord(3, (1, 3, 2, 1, 3, 2))


def ones_at(n, roots):
    return RootVector(n, tuple(int(r in roots) for r in words.all_positive_roots(n)))


def indicator_weight(P):
    """The weight vector of P by definition: the number of components Y
    of P with p < a(Y) and b(Y) < q, at each root (p, q)."""
    return tuple(
        sum(p < Y.a and Y.b < q for Y in reference_components(P))
        for p, q in words.all_positive_roots(P.n)
    )


@functools.lru_cache(maxsize=None)
def rounded_half_weights(n):
    """Every partial quiver of rank n with the paper's column: the
    rounded-up half of its reference weight."""
    return [(P, tuple(-(-x // 2) for x in indicator_weight(P))) for P in all_partial_quivers(n)]


class TestFormulas:
    def test_v_simple(self):
        assert v_simple(1, 3) == ones_at(3, [(1, 2), (1, 3), (1, 4)])
        assert v_simple(2, 3) == ones_at(3, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert v_simple(1, 1) == ones_at(1, [(1, 2)])

    def test_v_simple_out_of_range(self):
        with pytest.raises(ValueError):
            v_simple(4, 3)

    def test_v_component(self):
        assert v_component(Component("R", 2, 2), 3) == ones_at(3, [(1, 3), (1, 4)])
        assert v_component(Component("L", 3, 3), 3) == ones_at(3, [(1, 4), (2, 4)])

    def test_v_component_full_span(self):
        for n in (3, 4, 5):
            assert v_component(Component("L", 2, n), n) == ones_at(n, [(1, n + 1)])

    def test_v_partial_quiver_single_components(self):
        assert v_partial_quiver(PartialQuiver.from_string("-R", 3)) == ones_at(
            3, [(1, 3), (1, 4)]
        )
        assert v_partial_quiver(PartialQuiver.from_string("L-", 3)) == ones_at(
            3, [(1, 4), (2, 4)]
        )

    def test_v_partial_quiver_two_components(self):
        P = PartialQuiver.from_string("LR", 3)
        w = weight_vector(P)
        assert w.to_dict()[(1, 4)] == 2
        assert w.to_dict()[(1, 3)] == 1
        assert w.to_dict()[(2, 4)] == 1
        assert v_partial_quiver(P) == ones_at(3, [(1, 3), (1, 4), (2, 4)])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_v_partial_quiver_is_rounded_half_weight(self, n):
        # the bridge from the boundary form to the paper's formula
        for P, half in rounded_half_weights(n):
            assert v_partial_quiver(P) == RootVector(n, half)
            assert spanning.chamber_column(chamber_set_of(P), n) == RootVector(n, half)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_match_indicator_definitions(self, n):
        roots = words.all_positive_roots(n)
        for j in range(1, n + 1):
            assert v_simple(j, n).values == tuple(int(p <= j < q) for p, q in roots)
        for a in range(2, n + 1):
            for b in range(a, n + 1):
                indicator = tuple(int(p < a and b < q) for p, q in roots)
                assert v_component(Component("R", a, b), n).values == indicator
        for P in all_partial_quivers(n) if n >= 2 else ():
            assert weight_vector(P).values == indicator_weight(P)

    def test_v_component_out_of_range(self):
        with pytest.raises(ValueError):
            v_component(Component("R", 1, 2), 3)
        with pytest.raises(ValueError):
            v_component(Component("L", 3, 4), 3)

    @pytest.mark.parametrize("width", [16, 24])
    def test_wider_lanes(self, monkeypatch, width):
        # ranks from 32 on need lanes of two bytes; force wider lanes at
        # ranks up to 10, on tables built afresh
        monkeypatch.setattr(cone, "lane_width", lambda bound: width)
        spanning.rank_table.cache_clear()
        try:
            for n in range(2, 11):
                assert spanning.rank_table(n).width == width
                for P, half in rounded_half_weights(n):
                    assert spanning.chamber_column(chamber_set_of(P), n).values == half
        finally:
            spanning.rank_table.cache_clear()

    def test_lanes_admit_every_column(self):
        # entries reach n // 2 and a column of M weighs at most 5 (3 bits),
        # so the certificate's mask admits entries below 2^(width-4)
        for n in range(1, 70):
            width = spanning.rank_table(n).width
            assert n // 2 < 2 ** (width - 4) and width == (8 if n < 32 else 16)

    def test_half_rank_entry_needs_wider_lanes(self):
        # the BFZ word of the alternating quiver at n = 34 has a column
        # entry 17 = n // 2, past the 16 that 8-bit lanes admit
        n = 34
        word = pquiver.bfz_word(pquiver.Quiver(n, tuple("RL"[i % 2] for i in range(n - 1))))
        chamber_list = wiring.chambers(wiring.build_wiring(word))
        rows = cone.root_rows(n, chamber_list)
        table = spanning.rank_table(n)
        columns = spanning.formula_vectors(n, chamber_list)
        assert max(max(table.vector(x).values) for x in columns) == 17
        assert table.width == 16
        assert cone.certify_inverse(rows, columns, 16)
        narrow = [cone.pack(table.vector(x).values, 8) for x in columns]
        assert not cone.certify_inverse(rows, narrow, 8)


def bareiss_vectors(word):
    """The oracle: exact inverse columns, root-indexed, in label order."""
    span = spanning_set(word)
    return [span.vector(label) for label in span.matrix.labels]


def plant_chamber_columns(monkeypatch, planted):
    """Make ``formula_vectors`` give ``planted(members, n)``, a RootVector,
    packed as the column of each chamber set."""
    real = spanning.formula_vectors

    def planted_vectors(n, chamber_list):
        columns, width = real(n, chamber_list), spanning.rank_table(n).width
        columns[n:] = [cone.pack(planted(c.chamber_set, n).values, width) for c in chamber_list]
        return columns

    monkeypatch.setattr(spanning, "formula_vectors", planted_vectors)


def corrupt(monkeypatch, target):
    """Make the column of the chamber set of the partial quiver ``target``
    one too large at its first entry, where verify_theorem computes it."""
    good, target_set = spanning.chamber_column, chamber_set_of(target)

    def bad(members, n):
        v = good(members, n)
        if members != target_set:
            return v
        return RootVector(v.n, (v.values[0] + 1,) + v.values[1:])

    plant_chamber_columns(monkeypatch, bad)


class TestVerifyTheorem:
    def test_figure_word(self):
        report = verify_theorem(FIG_WORD)
        assert report.overall
        v = next(
            x for x in report.verdicts if x.label == ChamberLabel(1, 4)
        )
        assert v.inverse.to_positions(FIG_WORD) == (0, 0, 1, 0, 1, 0)
        assert v.formula == v_partial_quiver(PartialQuiver.from_string("-R", 3))

    def test_rank_two(self):
        w = ReducedWord(2, (1, 2, 1))
        report = verify_theorem(w)
        assert report.overall
        v = next(x for x in report.verdicts if x.label == ChamberLabel(1, 3))
        assert v.inverse.to_positions(w) == (0, 1, 0)
        assert v.formula == v_partial_quiver(PartialQuiver.from_string("R", 2))

    def test_rank_one(self):
        report = verify_theorem(ReducedWord(1, (1,)))
        assert report.overall
        assert [v.label for v in report.verdicts] == [SimpleRootLabel(1)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_simple_columns_depend_only_on_j(self, n):
        reference = None
        for w in enumerate_reduced_words(n):
            span = spanning_set(w)
            cols = {j: span.vector(SimpleRootLabel(j)) for j in range(1, n + 1)}
            if reference is None:
                reference = cols
            assert cols == reference

    @pytest.mark.parametrize("n", [2, 3])
    def test_equal_chamber_sets_give_equal_columns(self, n):
        by_set = {}
        for w in enumerate_reduced_words(n):
            span = spanning_set(w)
            for c in wiring.chambers(wiring.build_wiring(w)):
                vec = span.vector(ChamberLabel(c.left_pos, c.right_pos))
                by_set.setdefault(c.chamber_set, set()).add(vec)
        assert all(len(vs) == 1 for vs in by_set.values())

    def test_braid_transport_of_columns(self):
        # all spanning vectors, root-indexed, agree across short braid moves
        # (the neighbours with the same letters)
        for w in enumerate_reduced_words(3):
            ref = set(bareiss_vectors(w))
            for w2 in braid_neighbors(w):
                if sorted(w2.letters) == sorted(w.letters):
                    assert set(bareiss_vectors(w2)) == ref

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bareiss_exhaustive(self, n):
        for w in enumerate_reduced_words(n):
            report = verify_theorem(w)
            assert [v.inverse for v in report.verdicts] == bareiss_vectors(w)
            assert report.overall

    def test_matches_bareiss_sampled_n5(self):
        for w in random_words(5, 1000, seed=1):
            report = verify_theorem(w)
            assert [v.inverse for v in report.verdicts] == bareiss_vectors(w)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_certificate_agrees_with_bareiss(self, n, seed):
        (w,) = random_words(n, 1, seed)
        chamber_list = wiring.chambers(wiring.build_wiring(w))
        rows = cone.root_rows(n, chamber_list)
        width = spanning.rank_table(n).width
        columns = [cone.pack(v.values, width) for v in bareiss_vectors(w)]
        assert cone.certify_inverse(rows, columns, width)
        assert spanning.formula_vectors(n, chamber_list) == columns

    def test_corrupted_formula_reports_true_inverse(self, monkeypatch):
        corrupt(monkeypatch, PartialQuiver.from_string("-R", 3))
        report = verify_theorem(FIG_WORD)
        assert not report.overall
        (bad,) = [v for v in report.verdicts if not v.equal]
        assert bad.label == ChamberLabel(1, 4)
        assert bad.inverse == spanning_set(FIG_WORD).vector(bad.label)
        assert bad.formula.values[0] == bad.inverse.values[0] + 1

    def test_fallback_traces_the_word_once(self, monkeypatch):
        # the fallback inverts the root rows verify_theorem already built:
        # no second wiring trace and no root ordering per label
        oracle = spanning_set(FIG_WORD).vector(ChamberLabel(1, 4))
        corrupt(monkeypatch, PartialQuiver.from_string("-R", 3))
        calls = Counter()

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return wrapper

        for module in (wiring, cone):
            monkeypatch.setattr(module, "build_wiring", counted(module.build_wiring))
        for module in (words, cone):
            monkeypatch.setattr(module, "root_ordering", counted(module.root_ordering))
        report = verify_theorem(FIG_WORD)
        (bad,) = [v for v in report.verdicts if not v.equal]
        assert (bad.label, bad.inverse) == (ChamberLabel(1, 4), oracle)
        assert calls == {"build_wiring": 1}

    def test_corrupted_formula_under_optimize(self):
        # asserts vanish under -O; the rejection and decompose's
        # recombination check must not
        script = """
import json
from lusztig_cones import cone, spanning, wiring
from lusztig_cones.cone import RootVector, spanning_set
from lusztig_cones.words import ReducedWord

good, target = spanning.formula_vectors, frozenset({1, 3, 4})  # the set of -R

def bad(n, chamber_list):
    # one too large at the first entry of the column of -R's set
    columns = good(n, chamber_list)
    return columns[:n] + [
        x + (c.chamber_set == target) for x, c in zip(columns[n:], chamber_list)
    ]

spanning.formula_vectors = bad
w = ReducedWord(3, (1, 3, 2, 1, 3, 2))
report = spanning.verify_theorem(w)
wrong = [v for v in report.verdicts if not v.equal]
point = spanning_set(w).vector(wrong[0].label)
try:
    cone.decompose(w, point)
    decompose = "passed"
except cone.CertificateError:
    decompose = "CertificateError"
print(json.dumps({
    "debug": __debug__,
    "overall": report.overall,
    "wrong": [list(v.inverse.values) for v in wrong],
    "oracle": list(spanning_set(w).vector(wrong[0].label).values),
    "decompose": decompose,
}))
"""
        src = str(Path(spanning.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["debug"] is False
        assert out["overall"] is False
        assert out["wrong"] == [out["oracle"]]
        assert out["decompose"] == "CertificateError"

    def test_rejected_certificate_that_bareiss_accepts_is_an_error(self, monkeypatch):
        real = cone.certify_inverse
        calls = []

        def reject_first(rows, packed, width):
            # the first call is verify_theorem's; Bareiss's own check follows
            calls.append(rows)
            return len(calls) > 1 and real(rows, packed, width)

        monkeypatch.setattr(cone, "certify_inverse", reject_first)
        with pytest.raises(CertificateError):
            verify_theorem(FIG_WORD)


class TestVerifyAll:
    def test_exhaustive_rank_two(self):
        report = verify_all(2, mode="exhaustive")
        assert (report.checked, report.mismatches) == (2, [])

    def test_exhaustive_rank_three(self):
        report = verify_all(3, mode="exhaustive")
        assert (report.checked, report.mismatches) == (16, [])

    def test_sample_deterministic(self):
        r1 = verify_all(4, mode="sample", count=20, seed=3)
        r2 = verify_all(4, mode="sample", count=20, seed=3)
        assert r1.checked == r2.checked == 20
        assert not r1.mismatches and not r2.mismatches
        assert random_words(4, 20, 3) == random_words(4, 20, 3)

    def test_parallel_matches_serial(self):
        serial = verify_all(3, mode="exhaustive", jobs=1)
        parallel = verify_all(3, mode="exhaustive", jobs=2)
        assert serial.checked == parallel.checked
        assert serial.mismatches == parallel.mismatches == []

    def test_json_schema(self):
        payload = verify_all(2, mode="exhaustive").to_json()
        assert payload == {"n": 2, "checked": 2, "mismatches": []}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_all(2, mode="all")

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"mode": "sample", "count": 0}, "count"),
            ({"mode": "sample", "count": -4}, "count"),
            ({"mode": "sample", "count": 5, "jobs": 0}, "jobs"),
            ({"mode": "exhaustive", "jobs": -1}, "jobs"),
            ({"mode": "sample", "count": -4, "jobs": 0}, "jobs"),
        ],
    )
    def test_no_vacuous_run(self, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must be at least 1"):
            verify_all(5, **kwargs)

    def test_each_chamber_checked_once_without_partial_quivers(self, monkeypatch):
        # the columns are read off the chamber sets' boundaries: one
        # boundary scan per chamber, no component and no PartialQuiver
        calls = Counter()
        real_boundary, real_init = wiring.chamber_boundary, PartialQuiver.__post_init__

        def boundary(members, n):
            calls["chamber_boundary"] += 1
            return real_boundary(members, n)

        def components(members, n):
            calls["chamber_components"] += 1
            raise AssertionError("the verify path reads no components")

        def init(self):
            calls["PartialQuiver"] += 1
            real_init(self)

        monkeypatch.setattr(wiring, "chamber_boundary", boundary)
        monkeypatch.setattr(pquiver, "chamber_components", components)
        monkeypatch.setattr(PartialQuiver, "__post_init__", init)
        report = verify_all(4)
        assert (report.checked, report.mismatches) == (768, [])
        assert calls == {"chamber_boundary": 768 * (10 - 4)}

    def test_past_byte_lanes(self):
        # at n = 40, 8-bit lanes would no longer admit n // 2 = 20
        assert spanning.rank_table(40).width > 8
        report = verify_all(40, mode="sample", count=2)
        assert (report.checked, report.mismatches) == (2, [])

    def test_passing_words_build_nothing_per_label(self, monkeypatch):
        calls = Counter()

        def counted(cls):
            real = cls.__init__

            def init(self, *args, **kwargs):
                calls[cls.__name__] += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        for cls in (RootVector, spanning.LabelVerdict, ChamberLabel):
            counted(cls)
        monkeypatch.setattr(cone, "unpack", lambda *args: calls.update(["unpack"]))
        report = verify_all(4)
        assert (report.checked, report.mismatches) == (768, [])
        assert calls == {}

    @pytest.mark.parametrize(
        "mode, count, calls", [("exhaustive", 1, 768), ("sample", 50, 50)]
    )
    def test_validates_each_word_once(self, monkeypatch, mode, count, calls):
        # enumerated words are reduced by construction and not validated
        validations = 0 if mode == "exhaustive" else calls
        real = words.is_reduced_word_for_w0
        seen = []

        def counting(letters, n):
            seen.append(letters)
            return real(letters, n)

        monkeypatch.setattr(words, "is_reduced_word_for_w0", counting)
        report = verify_all(4, mode=mode, count=count)
        assert (report.checked, report.mismatches) == (calls, [])
        assert len(seen) == validations

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_names_the_word(self, monkeypatch, jobs):
        real = wiring.build_wiring

        def fail_on_figure_word(word):
            if word == FIG_WORD:
                raise ArithmeticError("planted failure")
            return real(word)

        monkeypatch.setattr(wiring, "build_wiring", fail_on_figure_word)
        with pytest.raises(ValueError) as info:
            verify_all(3, mode="exhaustive", jobs=jobs)
        assert str(FIG_WORD.letters) in str(info.value)
        assert "ArithmeticError: planted failure" in str(info.value)


    @pytest.mark.parametrize("share", [0, 1])
    def test_jobs_error_in_a_share_names_the_word(self, monkeypatch, share):
        # share 0 is the parent's, share 1 a child's
        target = list(enumerate_reduced_words(3))[share]
        real = wiring.build_wiring

        def fail_on_target(word):
            if word == target:
                raise ArithmeticError("planted failure")
            return real(word)

        monkeypatch.setattr(wiring, "build_wiring", fail_on_target)
        with pytest.raises(ValueError) as info:
            verify_all(3, mode="exhaustive", jobs=2)
        assert str(target.letters) in str(info.value)
        assert "ArithmeticError: planted failure" in str(info.value)
        assert multiprocessing.active_children() == []

    def test_jobs_leave_no_process(self):
        report = verify_all(3, mode="exhaustive", jobs=2)
        assert (report.checked, report.mismatches) == (16, [])
        assert multiprocessing.active_children() == []

    def test_jobs_dead_child_is_a_value_error(self, monkeypatch):
        # a parent that kept the child's pipe end open would wait forever
        def timeout(signum, frame):
            raise TimeoutError("verify_all still waits for a dead process")

        kill_children(monkeypatch)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            with pytest.raises(ValueError, match=r"^share 1: .* exited with code 3 "):
                verify_all(3, mode="exhaustive", jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "n, mode, count, checked", [(2, "exhaustive", 1, 2), (5, "sample", 2, 2)]
    )
    def test_jobs_start_no_process_for_an_empty_share(self, monkeypatch, n, mode, count, checked):
        started = []
        real = multiprocessing.Process.start

        def start(self):
            started.append(self)
            real(self)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        report = verify_all(n, mode=mode, count=count, jobs=4)
        assert (report.checked, report.mismatches) == (checked, [])
        assert len(started) == 1


def kill_children(monkeypatch):
    """Make every process but this one exit with code 3 before it checks
    its first word, without sending a result."""
    parent, real = os.getpid(), wiring.build_wiring

    def build_wiring(word):
        if os.getpid() != parent:
            os._exit(3)
        return real(word)

    monkeypatch.setattr(wiring, "build_wiring", build_wiring)


def chi_square(sample, n):
    """Pearson's statistic of ``sample`` against the uniform law on every
    reduced word of rank n, and its rejection bound: the chi-square
    quantile at p = 1e-6 (normal quantile 4.7534) by the Wilson–Hilferty
    approximation."""
    support = {w.letters for w in enumerate_reduced_words(n)}
    counts = Counter(w.letters for w in sample)
    assert set(counts) <= support
    expected = len(sample) / len(support)
    statistic = sum((counts[x] - expected) ** 2 for x in support) / expected
    df = len(support) - 1
    bound = df * (1 - 2 / (9 * df) + 4.7534 * math.sqrt(2 / (9 * df))) ** 3
    return statistic, bound


@functools.lru_cache(maxsize=None)
def uniform_sample(n):
    """20 draws per reduced word of rank n, at seed 0."""
    return random_words(n, 20 * sum(1 for _ in enumerate_reduced_words(n)), 0)


class TestRandomWords:
    def test_counts_and_validity(self):
        ws = random_words(5, 10, seed=9)
        assert len(ws) == 10
        for w in ws:
            assert w.n == 5 and w.k == 15

    def test_seed_changes_sample(self):
        assert random_words(5, 10, seed=1) != random_words(5, 10, seed=2)

    @pytest.mark.parametrize("n, seed, t", [(1, 0, 2), (4, 3, 0), (5, 9, 7), (12, 1, 4)])
    def test_each_word_depends_on_its_index_alone(self, n, seed, t):
        word = random_word(n, seed, t)
        assert random_words(n, t + 1, seed)[t] == random_words(n, t + 5, seed)[t] == word

    def test_rank_one_stays_put(self):
        assert random_words(1, 3, seed=0) == [staircase_word(1)] * 3

    @pytest.mark.parametrize("n", range(1, 17))
    def test_every_sample_is_reduced(self, n):
        for w in random_words(n, 8, seed=n):
            assert w.n == n and is_reduced_word_for_w0(w.letters, n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_uniform_chi_square(self, n):
        statistic, bound = chi_square(uniform_sample(n), n)
        assert statistic < bound

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reaches_every_word(self, n):
        reached = {w.letters for w in uniform_sample(n)}
        assert reached == {w.letters for w in enumerate_reduced_words(n)}
