import copy
import functools
import itertools
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import is_chamber_set, v_component, weight_vector
from test_pquiver import reference_components
from test_words import staircase_tableaux_count

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
    v_partial_quiver,
    v_simple,
    verify_all,
    verify_theorem,
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


def boundary_column(members, n):
    """(column, None) of the chamber set with bit mask ``members`` by its
    boundary list: the packed sum of v_simple(t) over
    ``wiring.chamber_boundary``, shifted right by one bit and masked; or
    (None, message) if ``chamber_boundary`` raises."""
    table = spanning.rank_table(n)
    try:
        boundary = wiring.chamber_boundary(strings_of(members), n)
    except ValueError as exc:
        return None, str(exc)
    return sum(table.simple[t - 1] for t in boundary) >> 1 & table.mask, None


def mask_column(members, n):
    """(column, None) by ``spanning._packed_column``, or (None, message)."""
    try:
        return spanning._packed_column(spanning.rank_table(n), members), None
    except ValueError as exc:
        return None, str(exc)


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

    @pytest.mark.parametrize("n", [1, 4, 31, 32, 40])
    def test_mask_keeps_the_bits_the_weight_cap_allows(self, n):
        # the certificate caps column weights at 7, so b = width - 4: a
        # digit of V·M stays below 7·(2^b - 1) < 2^(width-1), and the
        # mask still admits every entry, at most n // 2
        table = spanning.rank_table(n)
        b = table.width - 4
        assert cone.unpack(table.mask, table.k, table.width) == (2**b - 1,) * table.k
        assert 7 * (2**b - 1) < 2 ** (table.width - 1) and n // 2 < 2**b

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 12, 16, 17, 24])
    def test_pieces_are_sums_of_simple_columns(self, n):
        # every entry of every 8-point piece, against its plain sum; the
        # exhaustive mask test below reaches the second piece only at
        # n = 9 and 10
        table = spanning.RankTable(n)
        assert table.pieces is None
        pieces = table.fill_pieces()
        assert table.pieces is pieces
        assert [len(piece) for piece in pieces] == [
            1 << min(8, n - start) for start in range(0, n, 8)
        ]
        for g, piece in enumerate(pieces):
            for x, total in enumerate(piece):
                points = [8 * g + t for t in range(8) if x >> t & 1]
                assert total == sum(table.simple[t] for t in points), (g, x)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_mask_column_on_every_mask(self, n):
        # every set of strings in [0, n+2], legal or not, as a bit mask and
        # as a set
        table = spanning.rank_table(n)
        for members in range(1 << n + 3):
            expected = boundary_column(members, n)
            assert mask_column(members, n) == expected, members
            column, message = expected
            try:
                got = spanning.chamber_column(strings_of(members), n), None
            except ValueError as exc:
                got = None, str(exc)
            assert got == (None if column is None else table.vector(column), message), members

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mask_column_on_drawn_masks(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        members = data.draw(
            st.one_of(
                st.integers(0, (1 << n + 3) - 1),  # strings 0 and n+2 may be in
                st.integers(1, (1 << n + 1) - 1).map(lambda m: m << 1),  # in [1, n+1]
            ),
            label="members",
        )
        assert mask_column(members, n) == boundary_column(members, n)

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


def strings_of(members):
    """The set of strings whose bit mask is ``members`` (string s at bit s),
    as ``spanning._packed_column`` takes a chamber set."""
    return frozenset(s for s in range(members.bit_length()) if members >> s & 1)


def mask_of(strings):
    """The bit mask of a set of strings; inverse of ``strings_of``."""
    return sum(1 << s for s in set(strings))


def plant_chamber_columns(monkeypatch, planted):
    """Make ``_packed_column``, which the certificate and ``formula_vectors``
    share, give ``planted(members, n)``, a RootVector, packed as the column
    of each chamber set ``members``."""

    def planted_column(table, members):
        return cone.pack(planted(strings_of(members), table.n).values, table.width)

    monkeypatch.setattr(spanning, "_packed_column", planted_column)


def corrupt(monkeypatch, target):
    """Make the column of the chamber set of the partial quiver ``target``
    one too large at its first entry, where verify_theorem computes it."""
    good, target_set = spanning._packed_column, chamber_set_of(target)

    def bad(members, n):
        table = spanning.rank_table(n)
        v = table.vector(good(table, mask_of(members)))
        if members != target_set:
            return v
        return RootVector(v.n, (v.values[0] + 1,) + v.values[1:])

    plant_chamber_columns(monkeypatch, bad)


def plain_walk(n):
    """The reference walker: every reduced word of w0, in the order of
    ``enumerate_reduced_words``, with whether the prefix tree certifies it:
    (word, certified).  It visits every node of the tree and certifies with
    one step per letter, from the root of ``spanning.rank_table(n)`` (which
    ``with_root`` may plant), without a memo: the word-level reference of
    ``spanning._failing_triples`` and ``spanning._lane_sums``.  Unlike
    ``_lane_sums``, which adds a chamber's column as the chamber opens, it
    adds the column as the chamber closes: ``opened`` holds, per level, the
    lane of its open region's left crossing and the (lane, 1) terms of the
    crossings met one level up or down since."""
    table = spanning.rank_table(n)
    k, width, mask = table.k, table.width, table.mask
    unit = [1 << width * j for j in range(k)]
    lane = [[0] * (n + 2) for _ in range(n + 2)]
    for i, (p, q) in enumerate(words.all_positive_roots(n)):
        lane[p][q] = i
    acc, weight = list(table.acc), list(table.weight)
    faults = sum(x != u for x, u in zip(acc, unit)) + sum(w > 7 for w in weight) + table.faults
    columns = {}
    state = list(range(1, n + 2))
    below = [sum(1 << s for s in state[i:]) for i in range(n + 1)]
    opened = [None] * (n + 2)
    prefix, frames, i = [], [], 1
    while True:
        if i == 1 and len(prefix) == k:  # arrived at a leaf
            yield words._reduced_by_construction(n, tuple(prefix)), not faults
        while i <= n and state[i - 1] > state[i]:
            i += 1
        if i <= n:
            a, b = state[i - 1], state[i]
            r, up, left, down = lane[a][b], opened[i - 1], opened[i], opened[i + 1]
            changes = []
            frames.append((faults, up, left, down, changes))
            if left is not None:
                members = below[i]
                if members not in columns:
                    try:
                        columns[members] = spanning._packed_column(table, members)
                    except Exception:
                        columns[members] = None
                column = columns[members]
                if column is None or column & ~mask:
                    faults += 1
                    column = 0
                for j, c in ((left[0], -1), (r, -1)) + left[1]:
                    x, w = acc[j], weight[j]
                    changes.append((j, x, w))
                    acc[j] = y = x + c * column
                    weight[j] = w + 1
                    faults += (x == unit[j]) - (y == unit[j]) + (w == 7)
            if up is not None:
                opened[i - 1] = (up[0], up[1] + ((r, 1),))
            if down is not None:
                opened[i + 1] = (down[0], down[1] + ((r, 1),))
            opened[i] = (r, ())
            state[i - 1], state[i] = b, a
            below[i] ^= 1 << a | 1 << b
            prefix.append(i)
            i = 1
        elif prefix:
            i = prefix.pop()
            faults, opened[i - 1], opened[i], opened[i + 1], changes = frames.pop()
            for j, x, w in reversed(changes):
                acc[j], weight[j] = x, w
            a, b = state[i - 1], state[i]
            state[i - 1], state[i] = b, a
            below[i] ^= 1 << a | 1 << b
            i += 1
        else:
            return


def meeting_failing_triples(n):
    """The reduced words of rank n, in order, with a crossing whose
    configuration (``crossing_triples``) is in ``spanning._failing_triples(n)``:
    by the lemma of ``spanning``, the words that are not certified."""
    failing = set(spanning._failing_triples(n))
    return [
        word for word in enumerate_reduced_words(n)
        if any(t in failing for _, t in crossing_triples(word))
    ]


def witnesses(n):
    """The witness words of the failing configurations of rank n
    (``spanning._witness``), each once, in the order of the first
    configuration that gives it: the words a failing exhaustive run checks."""
    return list(dict.fromkeys(spanning._witness(n, *t) for t in spanning._failing_triples(n)))


def check_each(words_):
    """The mismatch records of ``words_``, each word checked on its own
    (``spanning._check_word``), in order; an error on a word raises the
    ValueError that names it."""
    return [record for word in words_ for record in spanning._check_word(word)]


# (n, mode, count, words checked) of runs that certify every word by the
# certificate: by each crossing configuration, and along each sampled word
PASSING_RUNS = [(4, "exhaustive", 1, 768), (4, "sample", 50, 50), (7, "sample", 40, 40)]


def every_triple(n):
    """Every crossing configuration (x, y, X) of rank n, in the order of
    ``spanning._failing_triples``: strings x < y, then X, a bit mask of
    other strings, increasing."""
    full = (1 << n + 2) - 2
    for x, y in itertools.combinations(range(1, n + 2), 2):
        rest = full ^ (1 << x | 1 << y)
        yield from ((x, y, below) for below in range(full + 1) if below & ~rest == 0)


def certify_no_leaf(monkeypatch):
    """Make the crossing check and the single-word certificate certify no
    word, so that ``verify_all`` checks words on its own (``_verdicts``),
    through the per-word layers that a defect may be planted in: a sampled
    run checks every word, and an exhaustive run, where every configuration
    fails, checks the witness of each (``witnesses``).  A harness that needs
    every word of a rank checked calls ``check_each`` on them."""
    monkeypatch.setattr(spanning, "_failing_triples", lambda n: list(every_triple(n)))
    monkeypatch.setattr(spanning, "_certified", lambda word: False)


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

    def test_exhaustive_above_the_rank_cap_raises_before_any_check(self, monkeypatch):
        # the crossing check's column table has 2^(n+2) entries: the cap
        # is n = 20, and a run above it builds no table
        def check(n):
            raise AssertionError("the check started")

        monkeypatch.setattr(spanning, "_failing_triples", check)
        with pytest.raises(ValueError, match=r"^exhaustive verify takes rank at most 20, got 21:"):
            verify_all(21, mode="exhaustive", jobs=2)
        with pytest.raises(AssertionError, match="the check started"):
            verify_all(20, mode="exhaustive")

    def test_each_chamber_checked_once_without_partial_quivers(self, monkeypatch):
        # the columns are read off the chamber sets' bit masks: one
        # _packed_column call per distinct chamber set, no boundary list, no
        # component and no PartialQuiver
        calls, scans = Counter(), Counter()
        real_column, real_init = spanning._packed_column, PartialQuiver.__post_init__

        def column(table, members):
            calls["_packed_column"] += 1
            scans[strings_of(members)] += 1
            return real_column(table, members)

        def boundary(members, n):
            calls["chamber_boundary"] += 1
            raise AssertionError("a legal chamber set needs no boundary list")

        def components(members, n):
            calls["chamber_components"] += 1
            raise AssertionError("the verify path reads no components")

        def init(self):
            calls["PartialQuiver"] += 1
            real_init(self)

        monkeypatch.setattr(spanning, "_packed_column", column)
        monkeypatch.setattr(wiring, "chamber_boundary", boundary)
        monkeypatch.setattr(pquiver, "chamber_components", components)
        monkeypatch.setattr(PartialQuiver, "__post_init__", init)
        report = verify_all(4)
        assert (report.checked, report.mismatches) == (768, [])
        monkeypatch.undo()
        every_set = {
            c.chamber_set
            for w in enumerate_reduced_words(4)
            for c in wiring.chambers(wiring.build_wiring(w))
        }
        assert set(scans) == every_set and set(scans.values()) == {1}
        assert calls == {"_packed_column": len(every_set)}

    def test_past_byte_lanes(self):
        # at n = 40, 8-bit lanes would no longer admit n // 2 = 20
        assert spanning.rank_table(40).width > 8
        report = verify_all(40, mode="sample", count=2)
        assert (report.checked, report.mismatches) == (2, [])

    def test_passing_words_build_nothing_per_label(self, monkeypatch):
        # neither mode traces a passing word into a diagram, nor builds a
        # vector, label or verdict for it
        calls = Counter()

        def counted(cls):
            real = cls.__init__

            def init(self, *args, **kwargs):
                calls[cls.__name__] += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        for cls in (RootVector, spanning.LabelVerdict, ChamberLabel, wiring.WiringDiagram):
            counted(cls)
        monkeypatch.setattr(cone, "unpack", lambda *args: calls.update(["unpack"]))
        for module in (wiring, cone):
            monkeypatch.setattr(module, "build_wiring", lambda word: calls.update(["build_wiring"]))
        for n, mode, count, checked in PASSING_RUNS:
            report = verify_all(n, mode=mode, count=count, seed=5)
            assert (report.checked, report.mismatches) == (checked, [])
            assert calls == {}, mode

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
        certify_no_leaf(monkeypatch)
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
        # share 0 is the parent's, share 1 a child's: word 0 and word 1 of
        # the sample, which differ; two cores are reported, so that jobs=2
        # starts a child on any machine
        words_drawn = random_words(3, 2, 1)
        assert words_drawn[0] != words_drawn[1]
        target = words_drawn[share]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        certify_no_leaf(monkeypatch)
        real = wiring.build_wiring

        def fail_on_target(word):
            if word == target:
                raise ArithmeticError("planted failure")
            return real(word)

        monkeypatch.setattr(wiring, "build_wiring", fail_on_target)
        with pytest.raises(ValueError) as info:
            verify_all(3, mode="sample", count=2, seed=1, jobs=2)
        assert str(target.letters) in str(info.value)
        assert "ArithmeticError: planted failure" in str(info.value)
        assert multiprocessing.active_children() == []

    def test_jobs_leave_no_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        report = verify_all(3, mode="sample", count=16, jobs=2)
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
                verify_all(3, mode="sample", count=4, jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_jobs_capped_at_the_cores(self, monkeypatch, mode):
        # at most os.cpu_count() processes, whatever jobs asks for: with
        # three cores a sampled run starts no more than two children, an
        # exhaustive run none, and the report, planted mismatches included,
        # is the same for every jobs
        corrupt(monkeypatch, PartialQuiver.from_string("-R", 3))
        started = []
        real = multiprocessing.Process.start

        def start(self):
            started.append(self)
            real(self)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = verify_all(3, mode=mode, count=40, seed=2).to_json()
        assert serial["mismatches"]
        for jobs, children in [(1, 0), (2, 1), (3, 2), (4, 2), (5000, 2)]:
            started.clear()
            assert verify_all(3, mode=mode, count=40, seed=2, jobs=jobs).to_json() == serial
            assert len(started) == (children if mode == "sample" else 0)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
        started.clear()
        assert verify_all(3, mode=mode, count=40, seed=2, jobs=5000).to_json() == serial
        assert started == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "n, mode, count, checked", [(3, "sample", 3, 3), (5, "sample", 2, 2)]
    )
    def test_jobs_start_no_process_for_an_empty_share(self, monkeypatch, n, mode, count, checked):
        # four cores are reported, so that only count limits the processes
        started = []
        real = multiprocessing.Process.start

        def start(self):
            started.append(self)
            real(self)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        report = verify_all(n, mode=mode, count=count, jobs=4)
        assert (report.checked, report.mismatches) == (checked, [])
        assert len(started) == count - 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count, jobs", [(2, 2), (3, 2), (4, 2), (4, 3), (4, 5)])
    def test_jobs_shares_partition_the_indices(self, monkeypatch, count, jobs):
        # share i of s draws the words i, i+s, ...: every index once, and
        # no share empty
        drawn, real = [], spanning.random_word

        def draw(n, seed, t):
            drawn.append(t)
            return real(n, seed, t)

        monkeypatch.setattr(spanning, "random_word", draw)
        shares = min(jobs, count)
        parts = []
        for share in range(shares):
            drawn.clear()
            checked, mismatches = spanning._check_sample(3, count, 0, share, shares)
            assert (checked, mismatches) == (len(drawn), [])
            parts.append(list(drawn))
        assert all(parts)
        assert sorted(itertools.chain.from_iterable(parts)) == list(range(count))


class TestWalk:
    """The reference walker ``plain_walk``, which certifies every word of
    the prefix tree letter by letter, against the crossing check and the
    words a failing run checks on their own."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_yields_every_word_in_order_certified(self, n):
        walked = list(plain_walk(n))
        assert [w for w, _ in walked] == list(enumerate_reduced_words(n))
        assert all(certified for _, certified in walked)
        assert spanning._failing_triples(n) == [] and witnesses(n) == []

    def test_certifies_every_word_from_few_states(self):
        # up to n = 6, where the plain walk expands 802402 nodes at n = 5,
        # the crossing check passes having read one column per bounded
        # chamber set, each set with at least two boundary points, once
        real, reads = spanning._packed_column, Counter()

        def column(table, members):
            reads[members] += 1
            return real(table, members)

        for n in range(1, 7):
            reads.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(spanning, "_packed_column", column)
                assert spanning._failing_triples(n) == [], n
            bounded = [
                members for members in range(2, 2 << n + 1, 2)
                if is_chamber_set(strings_of(members), n)
            ]
            assert sorted(reads) == bounded and set(reads.values()) <= {1}, n

    def test_passing_run_checks_no_word_on_its_own(self, monkeypatch):
        calls = []
        real = spanning._verdicts

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spanning, "_verdicts", spy)
        for n, mode, count, checked in PASSING_RUNS:
            report = verify_all(n, mode=mode, count=count, seed=5)
            assert (report.checked, report.mismatches, calls) == (checked, [], []), mode

    def test_certify_no_leaf_checks_every_word_on_its_own(self, monkeypatch):
        # every word of a sample, and every word of a rank through
        # ``check_each``; an exhaustive run checks the witness of each of
        # the 80 configurations of n = 4, 46 distinct words, each once
        checked = []
        real = spanning._verdicts

        def spy(word):
            checked.append(word)
            return real(word)

        monkeypatch.setattr(spanning, "_verdicts", spy)
        certify_no_leaf(monkeypatch)
        report = verify_all(4)
        assert (report.checked, report.mismatches) == (768, [])
        assert checked == witnesses(4) and len(set(checked)) == 46
        checked.clear()
        assert check_each(enumerate_reduced_words(4)) == []
        assert checked == list(enumerate_reduced_words(4))
        checked.clear()
        report = verify_all(7, mode="sample", count=30, seed=2)
        assert (report.checked, report.mismatches) == (30, [])
        assert checked == random_words(7, 30, 2)

    @pytest.mark.parametrize("held, missing", [(2, 4), (4, 2), (1, 3)])
    def test_agrees_with_certify_inverse_under_a_planted_defect(self, monkeypatch, held, missing):
        # +1 in lane 0 of the columns of the sets that hold one string but
        # not another: the words meeting a failing configuration, the
        # reference walker and the per-word certificate reject the same words
        real = spanning._packed_column

        def planted(table, members):
            strings = strings_of(members)
            return real(table, members) + (held in strings and missing not in strings)

        monkeypatch.setattr(spanning, "_packed_column", planted)
        for n in range(1, 5):
            width, rejected = spanning.rank_table(n).width, []
            for word, certified in plain_walk(n):
                chamber_list = wiring.chambers(wiring.build_wiring(word))
                rows = cone.root_rows(n, chamber_list)
                packed = spanning.formula_vectors(n, chamber_list)
                assert certified == cone.certify_inverse(rows, packed, width), word.letters
                if not certified:
                    rejected.append(word)
            assert meeting_failing_triples(n) == rejected, n
        assert 0 < len(rejected) < 768

    def test_raising_column_names_the_first_word_below(self, monkeypatch):
        # a chamber set whose column raises leaves the words below it
        # uncertified; the witness of the first failing configuration,
        # checked on its own, names the error
        real, bad = spanning._packed_column, frozenset({1, 3, 4})

        def column(table, members):
            if strings_of(members) == bad:
                raise ValueError("planted failure")
            return real(table, members)

        monkeypatch.setattr(spanning, "_packed_column", column)
        holds = [
            w for w in enumerate_reduced_words(3)
            if bad in {c.chamber_set for c in wiring.chambers(wiring.build_wiring(w))}
        ]
        uncertified = [w for w, certified in plain_walk(3) if not certified]
        assert meeting_failing_triples(3) == holds == uncertified
        first = witnesses(3)[0]
        assert first in holds
        message = rf"^word {re.escape(str(first.letters))}: ValueError: chamber \(\d+, \d+\): "
        with pytest.raises(ValueError, match=message + "planted failure"):
            verify_all(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_and_columns_are_constant_on_a_commutation_class(self, n):
        # the multiset of (root row, packed column) pairs of a word depends
        # only on its commutation class
        def pairs(word):
            chamber_list = wiring.chambers(wiring.build_wiring(word))
            rows = (tuple(sorted(row)) for row in cone.root_rows(n, chamber_list))
            return Counter(zip(rows, spanning.formula_vectors(n, chamber_list)))

        seen = set()
        for word in enumerate_reduced_words(n):
            if word not in seen:
                commutation_class = words.commutation_class(word)
                seen |= commutation_class
                assert all(pairs(other) == pairs(word) for other in commutation_class)
        assert seen == set(enumerate_reduced_words(n))


def crossing_triples(word):
    """(lane, (x, y, X)) of each crossing of ``word``, in order: the strings
    x < y that cross and the bit mask of the strings below them."""
    table, state = spanning.rank_table(word.n), list(range(1, word.n + 2))
    lane, below = table.lane, list(table.below)  # level -> the strings under it
    for i in word.letters:
        x, y = state[i - 1], state[i]
        yield lane[x][y], (x, y, below[i + 1])
        state[i - 1], state[i] = y, x
        below[i] ^= 1 << x | 1 << y


def faulty_columns(n):
    """The bit masks of the legal chamber sets of rank n (``is_chamber_set``,
    the definition) whose column raises or fails the lane mask."""
    table, faulty = spanning.rank_table(n), set()
    for members in range(2, 2 << n + 1, 2):
        if is_chamber_set(strings_of(members), n):
            try:
                column = spanning._packed_column(table, members)
            except Exception:
                column = None
            if column is None or column & ~table.mask:
                faulty.add(members)
    return faulty


def failing_lanes(word, faulty):
    """The configurations (x, y, X) of the crossings of ``word`` whose lane
    fails: its acc_j or w_j of ``_lane_sums`` is off, or one of the four
    sets around the crossing is in ``faulty`` (``faulty_columns``)."""
    table = spanning.rank_table(word.n)
    acc, weight, _ = spanning._lane_sums(word)
    failing = set()
    for r, (x, y, below) in crossing_triples(word):
        sets = {below, below | 1 << x, below | 1 << y, below | 1 << x | 1 << y}
        if acc[r] != table.unit[r] or weight[r] > 7 or sets & faulty:
            failing.add((x, y, below))
    return failing


def plant(monkeypatch, defect):
    """Plant a ``_packed_column`` defect: ("held", h, m) adds 1 to lane 0 of
    the sets that hold string h and not m, ("set", S) adds 1 to lane 0 of
    the set S alone, ("raise", S) makes S's column raise, and ("negative",
    S) gives S a column of -1 in lane 0."""
    real = spanning._packed_column
    kind, *args = defect

    def column(table, members):
        strings = strings_of(members)
        if kind == "held":
            return real(table, members) + (args[0] in strings and args[1] not in strings)
        if strings != args[0]:
            return real(table, members)
        if kind == "raise":
            raise ValueError("planted failure")
        return real(table, members) + 1 if kind == "set" else -1

    monkeypatch.setattr(spanning, "_packed_column", column)


@functools.lru_cache(maxsize=None)
def walked_uncertified(defect, n):
    """The words of rank n that ``plain_walk`` does not certify with
    ``defect`` planted (``plant``), in order; kept for the tests that share
    a defect, as the walk takes seconds at n = 5."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        plant(monkeypatch, defect)
        return [word for word, certified in plain_walk(n) if not certified]


HELD = [("held", 2, 4), ("held", 4, 2), ("held", 1, 3)]
RAISE, NEGATIVE = ("raise", frozenset({1, 3, 4})), ("negative", frozenset({2, 4}))


def defect_id(defect):
    """A test id: the defect's kind and its strings."""
    kind, *args = defect
    strings = (str(a) if isinstance(a, int) else "".join(map(str, sorted(a))) for a in args)
    return "-".join([kind, *strings])


class TestCrossings:
    """The exhaustive check (``spanning._failing_triples``): each crossing
    configuration (x, y, X) once, against the reference walker, which checks
    each word; the witness word of a configuration (``spanning._witness``);
    and the records of a failing run, one check per distinct witness."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_witness_crosses_x_and_y_above_the_set(self, n):
        triples = list(every_triple(n))
        assert len(triples) == words.longest_word_length(n) << n - 1
        for x, y, below in triples:
            word = spanning._witness(n, x, y, below)
            assert is_reduced_word_for_w0(word.letters, n)
            assert (x, y, below) in {t for _, t in crossing_triples(word)}

    @pytest.mark.parametrize("defect", HELD + [RAISE, NEGATIVE], ids=defect_id)
    def test_verdict_equals_the_walk_verdict(self, monkeypatch, defect):
        # the reference walker's verdict up to n = 4; up to n = 6, the
        # witness of every failing configuration fails the single-word
        # certificate (realisation)
        plant(monkeypatch, defect)
        for n in range(1, 7):
            failing = spanning._failing_triples(n)
            if n <= 4:
                assert (not failing) == (not walked_uncertified(defect, n)), n
            for triple in failing:
                assert not spanning._certified(spanning._witness(n, *triple)), (n, triple)
        assert failing

    @pytest.mark.parametrize(
        "defect, ranks",
        [(d, 4) for d in HELD + [RAISE, NEGATIVE]] + [(("set", frozenset({1, 6})), 5)],
        ids=lambda x: defect_id(x) if isinstance(x, tuple) else f"to-n{x}",
    )
    def test_failing_triples_are_the_failing_lanes_of_the_walk(self, monkeypatch, defect, ranks):
        plant(monkeypatch, defect)
        for n in range(1, ranks + 1):
            failing, faulty = set(), faulty_columns(n)
            for word in walked_uncertified(defect, n):
                failing |= failing_lanes(word, faulty)
            found = spanning._failing_triples(n)
            assert found == [t for t in every_triple(n) if t in failing], n
        assert found

    @pytest.mark.parametrize(
        "defect, ranks",
        [(d, 4) for d in HELD + [RAISE, NEGATIVE]]
        + [(("set", frozenset({1, 6})), 5), (("weight", 1, 3), 4)],
        ids=lambda x: defect_id(x) if isinstance(x, tuple) else f"to-n{x}",
    )
    def test_failing_words_are_the_uncertified_words_of_the_walk(self, monkeypatch, defect, ranks):
        # the lemma's "iff", word for word and in order: the words with a
        # crossing whose configuration fails (``meeting_failing_triples``)
        # are those the reference walker does not certify; ("weight", x, y)
        # starts lane (x, y) at weight 4 in the root of rank 4 alone
        # (``with_root``), so that its column weighs 8 where all four sets
        # around it are bounded
        if defect[0] == "weight":
            n, (_, x, y) = ranks, defect
            with_root(monkeypatch, n, weight=[(spanning.rank_table(n).lane[x][y], 4)])
            expected = {n: [w for w, certified in plain_walk(n) if not certified]}
        else:
            plant(monkeypatch, defect)
            expected = {n: walked_uncertified(defect, n) for n in range(1, ranks + 1)}
        for n, uncertified in expected.items():
            assert meeting_failing_triples(n) == uncertified, n
        assert uncertified

    @pytest.mark.parametrize("planted", [False, True])
    def test_lane_sums_are_the_configuration_sums_on_uniform_words(self, monkeypatch, planted):
        # the lemma, lane by lane: acc_j and w_j of ``_lane_sums`` are the
        # simple root's plus the four sets around the lane's crossing, each
        # counted iff it is a chamber set, also where a planted column is
        # wrong
        if planted:
            plant(monkeypatch, ("set", frozenset({1, 2, 4})))
        for n, count in [(4, 100), (7, 100), (12, 40), (20, 10)]:
            table = spanning.rank_table(n)
            for word in random_words(n, count, 17):
                acc, weight, _ = spanning._lane_sums(word)
                for r, (x, y, below) in crossing_triples(word):
                    terms = [(below | 1 << x | 1 << y, 1), (below, 1),
                             (below | 1 << x, -1), (below | 1 << y, -1)]
                    terms = [(m, a) for m, a in terms if is_chamber_set(strings_of(m), n)]
                    assert acc[r] == table.acc[r] + sum(
                        a * spanning._packed_column(table, m) for m, a in terms
                    ), (word.letters, r)
                    assert weight[r] == table.weight[r] + len(terms), (word.letters, r)

    def test_weight_past_seven_fails_where_all_four_sets_are_bounded(self, monkeypatch):
        # lane (1, 3) starts at weight 4: its column weighs 8 wherever all
        # four sets around the crossing are chamber sets, and at most 7
        # elsewhere, whatever acc says
        n = 4
        table = with_root(monkeypatch, n, weight=[(spanning.rank_table(n).lane[1][3], 4)])
        bounded = [
            (x, y, below)
            for x, y, below in every_triple(n)
            if (x, y) == (1, 3)
            and all(is_chamber_set(strings_of(below | extra), n) for extra in (0, 2, 8, 10))
        ]
        assert 0 < len(bounded) < 8 and table.weight[table.lane[1][3]] == 4
        assert spanning._failing_triples(n) == bounded

    def test_clean_run_builds_no_word(self, monkeypatch):
        # neither a witness nor a per-word check runs, and checked is the
        # hook length count
        def called(name):
            def spy(*args):
                raise AssertionError(f"{name} was called")

            return spy

        for name in ("_witness", "_check_word", "_verdicts"):
            monkeypatch.setattr(spanning, name, called(name))
        for n in range(1, 10):
            report = verify_all(n)
            assert (report.checked, report.mismatches) == (staircase_tableaux_count(n), []), n

    def test_records_up_to_rank_7_give_one_witness_per_distinct_word(self, monkeypatch):
        # the records of each distinct witness, once, in the order of the
        # configurations: 10 configurations of the planted set at n = 4
        # give 8 words, all among those the walker does not certify; with
        # every configuration failing, 80 give 46
        defect = ("set", frozenset({1, 2, 4}))
        plant(monkeypatch, defect)
        failing, distinct = spanning._failing_triples(4), witnesses(4)
        assert (len(failing), len(distinct)) == (10, 8)
        assert set(distinct) <= set(walked_uncertified(defect, 4))
        report = verify_all(4)
        assert report.checked == 768
        assert report.mismatches == check_each(distinct)
        assert [r[0] for r in report.mismatches] == distinct
        monkeypatch.setattr(spanning, "_failing_triples", lambda n: list(every_triple(n)))
        distinct = witnesses(4)
        assert len(distinct) == 46
        assert verify_all(4).mismatches == check_each(distinct)

    def test_failing_run_at_rank_7_checks_each_witness_once(self, monkeypatch):
        # 28 failing configurations of the planted set give 27 distinct
        # witnesses: one check each, not one per failing word
        plant(monkeypatch, ("set", frozenset({1, 2, 4})))
        failing, distinct = spanning._failing_triples(7), witnesses(7)
        assert (len(failing), len(distinct)) == (28, 27)
        checked, real = [], spanning._check_word

        def count(word):
            checked.append(word)
            return real(word)

        monkeypatch.setattr(spanning, "_check_word", count)
        report = verify_all(7)
        assert report.checked == 48608795688960 and not report.ok
        assert checked == distinct
        assert [r[0] for r in report.mismatches] == distinct
        assert all(r[4]["chamber_set"] == [1, 2, 4] for r in report.mismatches)

    def test_records_above_rank_7_give_one_witness_per_failing_triple(self, monkeypatch):
        # 36 failing configurations share 35 witnesses: each word is
        # checked and named once
        plant(monkeypatch, ("set", frozenset({1, 2, 4})))
        failing = spanning._failing_triples(8)
        assert len(failing) == 36
        distinct = witnesses(8)
        assert len(distinct) == 35 and set(distinct) == {spanning._witness(8, *t) for t in failing}
        report = verify_all(8)
        assert report.checked == 29258366996258488320
        assert report.mismatches == check_each(distinct)
        assert [r[0] for r in report.mismatches] == distinct
        assert all(r[4]["chamber_set"] == [1, 2, 4] for r in report.mismatches)

    def test_raising_column_names_a_witness_above_rank_7(self, monkeypatch):
        plant(monkeypatch, ("raise", frozenset({1, 2, 4})))
        first = spanning._witness(8, *spanning._failing_triples(8)[0])
        message = rf"^word {re.escape(str(first.letters))}: ValueError: chamber \(\d+, \d+\): "
        with pytest.raises(ValueError, match=message + "planted failure"):
            verify_all(8)



def merge(row, extra):
    """Sparse row plus the (index, coefficient) pairs of ``extra``."""
    total = dict(row)
    for i, a in extra:
        total[i] = total.get(i, 0) + a
    return tuple((i, a) for i, a in total.items() if a)


def column_sums(word):
    """(acc, weight, faults) of ``word`` from its root rows
    (``cone.root_rows``) and packed columns V (``formula_vectors``): acc_j
    sums a·V_i over the entries (j, a) of row i, from a column that fails
    the lane mask 0, and w_j counts those entries; the faults are the lanes
    whose sum is not the unit, those that weigh more than 7, and the columns
    that fail the mask."""
    table = spanning.rank_table(word.n)
    chamber_list = wiring.chambers(wiring.build_wiring(word))
    rows = cone.root_rows(word.n, chamber_list)
    acc, weight, faults = [0] * table.k, [0] * table.k, 0
    for row, column in zip(rows, spanning.formula_vectors(word.n, chamber_list)):
        if column & ~table.mask:
            faults, column = faults + 1, 0
        for j, a in row:
            acc[j] += a * column
            weight[j] += 1
    faults += sum(x != u for x, u in zip(acc, table.unit)) + sum(w > 7 for w in weight)
    return acc, weight, faults


def certified_by_certify_inverse(word):
    """Whether the per-word certificate accepts the word's closed-form
    columns: ``cone.certify_inverse`` on its root rows."""
    chamber_list = wiring.chambers(wiring.build_wiring(word))
    rows = cone.root_rows(word.n, chamber_list)
    packed = spanning.formula_vectors(word.n, chamber_list)
    return cone.certify_inverse(rows, packed, spanning.rank_table(word.n).width)


def with_root(monkeypatch, n, acc=(), weight=()):
    """Make ``rank_table(n)`` a copy of the rank-n table whose certificate
    starts from a root with the given (lane, value) changes to acc_j and w_j: the
    simple rows of a planted matrix."""
    real = spanning.rank_table
    table = copy.copy(real(n))
    table.acc, table.weight = list(table.acc), list(table.weight)
    for j, x in acc:
        table.acc[j] += x
    for j, w in weight:
        table.weight[j] += w
    monkeypatch.setattr(spanning, "rank_table", lambda m: table if m == n else real(m))
    return table


class TestSweep:
    """The certificate of a single word, read off the four regions around
    each crossing (``spanning._lane_sums``, ``_certified``), against the
    per-word certificate, the reference walker and the column sums of
    V·M.  CI runs these, ``TestWalk`` and ``TestCrossings`` under
    ``python -O``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sweep_agrees_with_certify_inverse_and_the_walk_on_every_word(self, n):
        walked = list(plain_walk(n))
        assert [w for w, _ in walked] == list(enumerate_reduced_words(n))
        for word, certified in walked:
            assert spanning._certified(word) is certified is certified_by_certify_inverse(word)
            assert certified

    @pytest.mark.parametrize("n, count", [(7, 200), (12, 60), (24, 10)])
    def test_sweep_agrees_with_certify_inverse_on_uniform_words(self, n, count):
        for word in random_words(n, count, 11):
            assert spanning._certified(word) is certified_by_certify_inverse(word) is True

    @pytest.mark.parametrize(
        "defect, faulty_words", [(None, 0), (("held", 2, 4), 560), (NEGATIVE, 171)],
        ids=["clean", defect_id(("held", 2, 4)), defect_id(NEGATIVE)],
    )
    def test_sweep_lane_sums_equal_the_column_sums_of_v_times_m(
        self, monkeypatch, defect, faulty_words
    ):
        # not only the verdict: every acc_j, every w_j and the fault count
        # read off the four regions around each crossing equal those summed
        # over the entries of the root rows (``column_sums``), also where a
        # planted column is wrong or fails the mask; a chamber whose column
        # fails the mask still weighs 1
        if defect:
            plant(monkeypatch, defect)
        sample = itertools.chain.from_iterable(map(enumerate_reduced_words, range(1, 5)))
        faulty = 0
        for word in itertools.chain(sample, random_words(7, 50, 13)):
            acc, weight, faults = spanning._lane_sums(word)
            assert (acc, weight, faults) == column_sums(word), word.letters
            faulty += faults > 0
        assert faulty == faulty_words

    @pytest.mark.parametrize("n, count", [(4, 100), (7, 100), (12, 40)])
    def test_sweep_reads_each_chamber_column_once(self, monkeypatch, n, count):
        # one column per bounded region, k - n in all, read as the region
        # opens: the sets read are the word's chamber sets, so no unbounded
        # set is ever read
        real, read = spanning._packed_column, []

        def column(table, members):
            read.append(members)
            return real(table, members)

        monkeypatch.setattr(spanning, "_packed_column", column)
        for word in random_words(n, count, 19):
            read.clear()
            assert spanning._certified(word)
            chamber_list = wiring.chambers(wiring.build_wiring(word))
            assert len(read) == word.k - n, word.letters
            assert sorted(read) == sorted(c.mask for c in chamber_list), word.letters

    @pytest.mark.parametrize("held, missing", [(2, 4), (4, 2), (1, 3)])
    def test_sweep_agrees_under_a_planted_defect(self, monkeypatch, held, missing):
        # the planted columns of TestWalk: the single-word certificate, the
        # per-word certificate and the reference walker accept the same words
        real = spanning._packed_column

        def planted(table, members):
            strings = strings_of(members)
            return real(table, members) + (held in strings and missing not in strings)

        monkeypatch.setattr(spanning, "_packed_column", planted)
        for n in range(1, 5):
            rejected = 0
            for word, certified in plain_walk(n):
                assert spanning._certified(word) is certified, word.letters
                assert certified_by_certify_inverse(word) is certified, word.letters
                rejected += not certified
        assert 0 < rejected < 768

    def test_sweep_refuses_a_negative_column_whose_sums_are_the_unit(self, monkeypatch):
        # M' adds the last chamber row to the row of simple root 1 (the
        # certificate starts from the planted sums), and the last chamber's
        # column is that of M'^-1, V_c - V_1, which is -1 at (1, 2).
        # V'·M' = I, with every weight at most 7: a certificate whose mask let
        # every bit through certifies the word, and only the mask rejects it
        n, word = 3, FIG_WORD
        chamber_list = wiring.chambers(wiring.build_wiring(word))
        rows = cone.root_rows(n, chamber_list)
        columns = spanning.formula_vectors(n, chamber_list)
        negative = columns[-1] - columns[0]
        planted = {mask_of(c.chamber_set): x for c, x in zip(chamber_list, columns[n:])}
        planted[mask_of(chamber_list[-1].chamber_set)] = negative
        planted_rows = (merge(rows[0], rows[-1]),) + rows[1:]
        dense = [[dict(row).get(j, 0) for j in range(6)] for row in planted_rows]
        _, inverse = cone.exact_inverse(dense)
        assert sum(row[-1] << 8 * i for i, row in enumerate(inverse)) == negative
        assert inverse[0][-1] == -1  # at (1, 2)
        table = with_root(monkeypatch, n, acc=[(j, a * columns[0]) for j, a in rows[-1]],
                          weight=[(j, 1) for j, _ in rows[-1]])
        monkeypatch.setattr(spanning, "_packed_column", lambda t, m: planted[m])
        assert not spanning._certified(word)
        table.mask = -1
        acc, weight, faults = spanning._lane_sums(word)
        assert acc == list(table.unit) and max(weight) <= 7 and faults == 0

    def test_sweep_refuses_a_column_weight_past_seven(self, monkeypatch):
        # M' gives simple root 1 the coefficient -255 at (1, 2), lane 0, and
        # simple root 2 a +1 there.  At n = 2, 256·v_simple(1) and
        # v_simple(2) pack to the same int, so lane 0's packed sum of V·M'
        # is still the unit, but V·M' is not I: the digits carry.  Only the
        # weight cap rejects it
        n, word = 2, ReducedWord(2, (1, 2, 1))
        chamber_list = wiring.chambers(wiring.build_wiring(word))
        rows = list(cone.root_rows(n, chamber_list))
        columns = spanning.formula_vectors(n, chamber_list)
        assert -256 * columns[0] + columns[1] == 0
        rows[0], rows[1] = merge(rows[0], [(0, -256)]), merge(rows[1], [(0, 1)])
        real = spanning.rank_table(n)
        assert not cone.certify_inverse(rows, columns, real.width)
        vectors = [real.vector(x).values for x in columns]
        digits = [sum(v[i] * a for v, row in zip(vectors, rows) for j, a in row if j == 0)
                  for i in range(3)]
        assert digits == [-255, -255, 1]  # column 0 of V·M', not e_0
        table = with_root(monkeypatch, n, weight=[(0, 255)])
        acc, weight, faults = spanning._lane_sums(word)
        assert acc == list(table.unit) and weight[0] == 257
        assert faults == 1  # lane 0's weight, and nothing else
        assert not spanning._certified(word)

def kill_children(monkeypatch):
    """Make every process but this one exit with code 3 when it starts its
    share, before its first word, without sending a result.  Two cores are
    reported, so that ``jobs=2`` starts a child on any machine."""
    parent, real = os.getpid(), spanning._check_sample
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def check_sample(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(spanning, "_check_sample", check_sample)


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
