"""Planted defects that the checks must catch.  Each test plants one wrong
piece, by monkeypatch or as a stand-in, and asserts that the check meant
to guard against it fails, with enough in its report to reproduce it."""

import dataclasses
import functools
import os
import random
import re

import pytest
from references import weight_vector
from test_cone import ALIASING_COLUMNS, ALIASING_ROWS, TOP_BIT_COLUMNS, TOP_BIT_ROWS, packed
from test_spanning import certify_no_leaf, chi_square, merge, plant_chamber_columns
from test_wiring import legality_disagreements

from lusztig_cones import cone, spanning, wiring
from lusztig_cones.cone import ChamberLabel, RootVector, spanning_set
from lusztig_cones.pquiver import partial_quiver_of
from lusztig_cones.words import (
    all_positive_roots,
    braid_neighbors,
    enumerate_reduced_words,
    staircase_word,
)


def reference_walk(n, count, seed):
    """The former sampler: successive states of a walk from the staircase
    word, 4k braid moves apart, each drawn uniformly among those that
    apply.  Every braid move is an odd permutation of the root ordering
    and 4k is even, so it reaches only half the words."""
    rng = random.Random(seed)
    word = staircase_word(n)
    out = []
    for _ in range(count):
        for _ in range(4 * word.k):
            word = rng.choice(list(braid_neighbors(word)))
        out.append(word)
    return out


def test_chi_square_rejects_the_braid_walk():
    sample = reference_walk(3, 320, 0)
    assert len({w.letters for w in sample}) == 8
    statistic, bound = chi_square(sample, 3)
    assert statistic > bound


def sets_of(word):
    """Chamber label -> chamber set of the word."""
    return {
        ChamberLabel(c.left_pos, c.right_pos): c.chamber_set
        for c in wiring.chambers(wiring.build_wiring(word))
    }


def assert_every_word_reported(monkeypatch, planted):
    """Plant ``planted`` as each chamber's column: exhaustive verify at n=4
    must report every word, each record with its label, the planted column
    as expected, the Bareiss column as got, and the chamber set, its
    boundary and its partial quiver."""
    plant_chamber_columns(monkeypatch, planted)
    report = spanning.verify_all(4)
    assert report.checked == 768 and report.mismatches
    by_word = {}
    for word, label, expected, got, _ in report.mismatches:
        by_word.setdefault(word, []).append((label, expected, got))
    for word, records in by_word.items():
        span, sets = spanning_set(word), sets_of(word)
        for label, expected, got in records:
            assert expected == planted(sets[label], 4)
            assert got == span.vector(label) != expected
    assert len(by_word) == 768
    for (word, label, expected, got, _), record in zip(
        report.mismatches, report.to_json()["mismatches"]
    ):
        members = sets_of(word)[label]
        assert record == {
            "word": list(word.letters),
            "label": label.to_json(),
            "expected": list(expected.values),
            "got": list(got.values),
            "chamber_set": sorted(members),
            "boundary": wiring.chamber_boundary(members, 4),
            "partial_quiver": str(partial_quiver_of(members, 4)),
        }


def half_down(members, n):
    """The component weight halved rounding down, not up."""
    weight = weight_vector(partial_quiver_of(members, n))
    return RootVector(n, tuple(x // 2 for x in weight.values))


def test_rounding_half_down_is_reported(monkeypatch):
    assert_every_word_reported(monkeypatch, half_down)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 4, "mode": "sample", "count": 40, "seed": 3},
        {"n": 5, "mode": "sample", "count": 60, "seed": 7},
    ],
)
def test_fan_out_reports_the_same_mismatches(monkeypatch, kwargs):
    # every process reports the planted defect, merged in word order; three
    # cores are reported, so that jobs=3 merges three shares on any machine
    plant_chamber_columns(monkeypatch, functools.lru_cache(maxsize=None)(half_down))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = spanning.verify_all(**kwargs).to_json()
    assert serial["mismatches"]
    for jobs in (2, 3):
        assert spanning.verify_all(**kwargs, jobs=jobs).to_json() == serial


def test_boundary_sum_rounded_up_is_reported(monkeypatch):
    # the sum of v_simple(t) over the boundary points, rounded up
    def boundary_half_up(members, n):
        total = [0] * len(all_positive_roots(n))
        for t in wiring.chamber_boundary(members, n):
            total = [x + y for x, y in zip(total, spanning.v_simple(t, n).values)]
        return RootVector(n, tuple(-(-x // 2) for x in total))

    assert_every_word_reported(monkeypatch, boundary_half_up)


def test_single_boundary_point_accepted_is_caught(monkeypatch):
    # a legality check that lets an initial or final interval through
    def lenient(members, n):
        s = frozenset(members)
        boundary = [t for t in range(1, n + 1) if (t in s) != (t + 1 in s)]
        if not boundary or not s.issubset(range(1, n + 2)):
            raise ValueError(f"{sorted(s)} is not a chamber set for n={n}")
        return boundary

    monkeypatch.setattr(wiring, "chamber_boundary", lenient)
    wrong = legality_disagreements(3)
    assert {frozenset(S) for S in wrong} == {
        frozenset(range(1, m + 1)) for m in range(1, 4)
    } | {frozenset(range(m, 5)) for m in range(2, 5)}


def test_shifted_chamber_set_is_reported_or_raises(monkeypatch):
    # every string of every chamber set moved one down, n+1 back to 1,
    # planted through the chamber's mask, string s at bit s
    real = wiring.chambers

    def shifted(diagram):
        m = diagram.word.n + 1
        return [
            dataclasses.replace(c, mask=sum(1 << s % m + 1 for s in c.chamber_set))
            for c in real(diagram)
        ]

    monkeypatch.setattr(wiring, "chambers", shifted)
    raised = reported = 0
    for word in enumerate_reduced_words(4):
        try:
            report = spanning.verify_theorem(word)
        except ValueError as exc:
            assert re.match(r"chamber \(\d+, \d+\): \[.*\] is not a chamber set", str(exc))
            raised += 1
        else:
            wrong = [v for v in report.verdicts if not v.equal]
            assert wrong and all(isinstance(v.label, ChamberLabel) for v in wrong)
            reported += 1
    assert raised and reported and raised + reported == 768
    certify_no_leaf(monkeypatch)
    with pytest.raises(ValueError, match=r"^word \(1, 2, 1, 3, 2, 1, 4, 3, 2, 1\): .*chamber"):
        spanning.verify_all(4)


def test_rows_without_above_crossings_are_reported_or_raise(monkeypatch):
    # every chamber row keeps -1 at its left and right crossings and +1 at
    # the crossings below it, but loses the +1 at those above it
    real = cone.root_rows

    def no_above(n, chamber_list):
        return real(n, [dataclasses.replace(c, above=()) for c in chamber_list])

    changed = []
    for word in enumerate_reduced_words(4):
        chamber_list = wiring.chambers(wiring.build_wiring(word))
        if no_above(4, chamber_list) != real(4, chamber_list):
            changed.append(word)
    monkeypatch.setattr(cone, "root_rows", no_above)
    raised, reported = [], []
    for word in changed:
        try:
            report = spanning.verify_theorem(word)
        except cone.UnimodularityError:
            raised.append(word)
        else:
            wrong = [v for v in report.verdicts if not v.equal]
            assert wrong, f"word {word.letters}: rows without above crossings accepted"
            assert report.word == word
            reported.append(word)
    assert raised and reported and len(raised) + len(reported) == len(changed)
    certify_no_leaf(monkeypatch)
    with pytest.raises(ValueError, match=rf"^word {re.escape(str(raised[0].letters))}: "):
        spanning.verify_all(4)


# Certificate defects.  A wrong certificate cannot make verify report a
# right formula, so each guard below plants wrong columns, or a wrong
# matrix with its own inverse, that only a sound certificate rejects.
# Every guard passes on the package's certificate and fails on the
# planted one, naming the word (and the label where verify reports one).
# Each planted certificate takes packed columns, as the package's does.
# The guards plant in the per-word layers, so the prefix tree certifies
# no word while they run (``certify_no_leaf``).


def sums(rows, packed, width):
    """The column sums acc_j of V·M, the low b bits that the column
    weights allow, and one lane of ``width`` bits repeated k times."""
    k = len(rows)
    acc, weight = [0] * k, [0] * k
    for row, col in zip(rows, packed):
        for j, a in row:
            acc[j] += a * col
            weight[j] += abs(a)
    b = max(width - 1 - max(weight).bit_length(), 0)
    return acc, b, ((1 << width * k) - 1) // ((1 << width) - 1)


def diagonal_only(rows, packed, width):
    """The lane mask, then only the diagonal of V·M = I, from lane j of
    each column: nothing off it."""
    _, b, lanes = sums(rows, packed, width)
    if any(col & ~(((1 << b) - 1) * lanes) for col in packed):
        return False
    diagonal = [0] * len(rows)
    for row, col in zip(rows, packed):
        for j, a in row:
            diagonal[j] += a * (col >> width * j & (1 << width) - 1)
    return all(x == 1 for x in diagonal)


def no_nonnegativity_test(rows, packed, width):
    """Every acc_j, with no mask: a negative entry's borrow goes unseen."""
    acc, _, _ = sums(rows, packed, width)
    return all(x == 1 << width * j for j, x in enumerate(acc))


def unguarded_lanes(rows, packed, width):
    """A mask that keeps each lane's top bit clear but ignores the column
    weights, so the sums may carry from one lane into the next."""
    acc, _, lanes = sums(rows, packed, width)
    if any(col & ~(((1 << width - 1) - 1) * lanes) for col in packed):
        return False
    return all(x == 1 << width * j for j, x in enumerate(acc))


def top_bit_through(rows, packed, width):
    """The weight-bounded mask, with each lane's top bit let through."""
    acc, b, lanes = sums(rows, packed, width)
    if any(col & ~(((1 << b) - 1 | 1 << width - 1) * lanes) for col in packed):
        return False
    return all(x == 1 << width * j for j, x in enumerate(acc))


def guard_off_diagonal(monkeypatch, n):
    """Raise the last chamber column of every word by one at a root
    outside that chamber's row, so that M·V - I is nonzero only off the
    diagonal; verify must report every word, with the label, the planted
    column and the true one."""
    real = spanning.formula_vectors

    def raised(n, chamber_list):
        columns = real(n, chamber_list)
        ch = chamber_list[-1]
        touched = {c.strings for c in (ch.left, ch.right) + ch.above + ch.below}
        i = next(i for i, root in enumerate(all_positive_roots(n)) if root not in touched)
        columns[-1] += 1 << spanning.rank_table(n).width * i
        return columns

    monkeypatch.setattr(spanning, "formula_vectors", raised)
    certify_no_leaf(monkeypatch)
    report = spanning.verify_all(n)
    monkeypatch.undo()
    found = {word: (label, expected, got) for word, label, expected, got, _ in report.mismatches}
    for word in enumerate_reduced_words(n):
        assert word in found, f"word {word.letters}: off-diagonal error not reported"
        label, expected, got = found[word]
        last = wiring.chambers(wiring.build_wiring(word))[-1]
        assert label == ChamberLabel(last.left_pos, last.right_pos)
        assert got == spanning_set(word).vector(label) != expected
    assert len(report.mismatches) == report.checked


def assert_raises_naming_the_word(monkeypatch, n, message):
    """verify_all(n), each word checked on its own, must raise on the first
    word, with ``message``."""
    certify_no_leaf(monkeypatch)
    try:
        report = spanning.verify_all(n)
    except ValueError as exc:
        first = next(enumerate_reduced_words(n))
        assert str(exc).startswith(f"word {first.letters}: UnimodularityError")
        assert message in str(exc)
    else:
        raise AssertionError(f"planted columns accepted: {report.to_json()}")


def guard_negative_inverse(monkeypatch, n):
    """Add the last chamber row to the row of simple root 1 and give the
    formula columns the exact inverse of that matrix: its last column is
    V_c - V_1, which is -1 at the root (1, 2), a borrow into the top bits
    of lane 0.  M·V = I holds, so only the mask rejects it; verify must
    then raise, naming the word and the label."""
    real_rows, real_formulas = cone.root_rows, spanning.formula_vectors

    def rows(n, chamber_list):
        rs = real_rows(n, chamber_list)
        return (merge(rs[0], rs[-1]),) + rs[1:]

    def formulas(n, chamber_list):
        columns = real_formulas(n, chamber_list)
        columns[-1] -= columns[0]
        return columns

    monkeypatch.setattr(cone, "root_rows", rows)
    monkeypatch.setattr(spanning, "formula_vectors", formulas)
    try:
        assert_raises_naming_the_word(monkeypatch, n, "inverse column of ChamberLabel")
    finally:
        monkeypatch.undo()


def guard_aliasing(monkeypatch, n):
    """Change column j = k-1 of every word's matrix to M' = M + M·N, where
    N is 256 at (0, j) and -1 at (1, j): V·M' = I + N, whose column j reads
    as the unit column in 8-bit lanes.  verify must raise, naming the word
    and the label, because the exact inverse of M' is negative."""
    real_rows = cone.root_rows

    def rows(n, chamber_list):
        rs = real_rows(n, chamber_list)
        j = len(rs) - 1
        bent = []
        for row in rs:
            a = dict(row)
            bent.append(merge(row, [(j, 256 * a.get(0, 0) - a.get(1, 0))]))
        return tuple(bent)

    monkeypatch.setattr(cone, "root_rows", rows)
    try:
        assert_raises_naming_the_word(monkeypatch, n, "inverse column of")
    finally:
        monkeypatch.undo()


def guard_top_bit(monkeypatch, n):
    """Double column j = k-1 of every word's matrix, M' = M·D, and take
    V'_c = V_c - V[j][c]·2^(width·j - 1) as its columns: V'·M' packs to I,
    but where V[j][c] is odd (v_simple(n) has 1 at (n, n+1)) lane j-1 of
    V'_c gets its top bit, and M' has determinant +-2, so its inverse is
    not integral.  verify must raise, naming the word."""
    real_rows, real_formulas = cone.root_rows, spanning.formula_vectors

    def rows(n, chamber_list):
        rs = real_rows(n, chamber_list)
        j = len(rs) - 1
        return tuple(tuple((i, 2 * a if i == j else a) for i, a in row) for row in rs)

    def formulas(n, chamber_list):
        width, j = spanning.rank_table(n).width, len(chamber_list) + n - 1
        lane = (1 << width) - 1
        return [x - ((x >> width * j & lane) << width * j - 1) for x in real_formulas(n, chamber_list)]

    monkeypatch.setattr(cone, "root_rows", rows)
    monkeypatch.setattr(spanning, "formula_vectors", formulas)
    try:
        assert_raises_naming_the_word(monkeypatch, n, "inverse is not integral")
    finally:
        monkeypatch.undo()


CERTIFICATE_DEFECTS = [
    ("certify_inverse", diagonal_only, guard_off_diagonal),
    ("certify_inverse", no_nonnegativity_test, guard_negative_inverse),
    ("certify_inverse", unguarded_lanes, guard_aliasing),
    ("certify_inverse", top_bit_through, guard_top_bit),
]


@pytest.mark.parametrize(
    "name, defect, guard", CERTIFICATE_DEFECTS, ids=lambda x: getattr(x, "__name__", x)
)
@pytest.mark.parametrize("n", [3, 4])
def test_certificate_guard_passes(monkeypatch, name, defect, guard, n):
    guard(monkeypatch, n)


@pytest.mark.parametrize(
    "name, defect, guard", CERTIFICATE_DEFECTS, ids=lambda x: getattr(x, "__name__", x)
)
def test_planted_certificate_defect_fails_its_guard(monkeypatch, name, defect, guard):
    real = getattr(cone, name)
    with pytest.raises(AssertionError, match=r"\(1, 2, 1, 3, 2, 1|accepted"):
        with monkeypatch.context() as m:
            m.setattr(cone, name, defect)
            guard(m, 4)
    assert getattr(cone, name) is real


def test_unguarded_lanes_accept_an_aliasing_non_inverse():
    columns = packed(ALIASING_COLUMNS, 8)
    assert not cone.certify_inverse(ALIASING_ROWS, columns, 8)
    assert unguarded_lanes(ALIASING_ROWS, columns, 8)


def test_top_bit_through_accepts_a_non_inverse():
    columns = packed(TOP_BIT_COLUMNS, 8)
    assert not cone.certify_inverse(TOP_BIT_ROWS, columns, 8)
    assert top_bit_through(TOP_BIT_ROWS, columns, 8)
