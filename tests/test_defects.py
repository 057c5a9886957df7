"""Planted defects that the checks must catch.  Each test plants one wrong
piece, by monkeypatch or as a stand-in, and asserts that the check meant
to guard against it fails, with enough in its report to reproduce it."""

import dataclasses
import random
import re

import pytest
from test_cone import ALIASING_COLUMNS, ALIASING_ROWS, reference_certify
from test_spanning import chi_square
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


def assert_every_word_reported(monkeypatch, planted):
    """Plant ``planted`` as ``chamber_column``: exhaustive verify at n=4
    must report every word, each record with its label, the planted column
    as expected and the Bareiss column as got."""
    monkeypatch.setattr(spanning, "chamber_column", planted)
    report = spanning.verify_all(4)
    assert report.checked == 768 and report.mismatches
    by_word = {}
    for word, label, expected, got in report.mismatches:
        by_word.setdefault(word, []).append((label, expected, got))
    for word, records in by_word.items():
        span = spanning_set(word)
        sets = {
            ChamberLabel(c.left_pos, c.right_pos): c.chamber_set
            for c in wiring.chambers(wiring.build_wiring(word))
        }
        for label, expected, got in records:
            assert expected == planted(sets[label], 4)
            assert got == span.vector(label) != expected
    assert len(by_word) == 768
    record = report.to_json()["mismatches"][0]
    assert set(record) == {"word", "label", "expected", "got"}
    assert record["expected"] != record["got"]


def test_rounding_half_down_is_reported(monkeypatch):
    def half_down(members, n):
        weight = spanning.weight_vector(partial_quiver_of(members, n))
        return RootVector(n, tuple(x // 2 for x in weight.values))

    assert_every_word_reported(monkeypatch, half_down)


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
    # every string of every chamber set moved one down, n+1 back to 1
    real = wiring.chambers

    def shifted(diagram):
        m = diagram.word.n + 1
        return [
            dataclasses.replace(c, chamber_set=frozenset(s % m + 1 for s in c.chamber_set))
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
    with pytest.raises(ValueError, match=rf"^word {re.escape(str(raised[0].letters))}: "):
        spanning.verify_all(4)


# Certificate defects.  A wrong certificate cannot make verify report a
# right formula, so each guard below plants wrong columns, or a wrong
# matrix with its own inverse, that only a sound certificate rejects.
# Every guard passes on the package's certificate and fails on the
# planted one, naming the word (and the label where verify reports one).


def diagonal_only(rows, columns):
    """Nonnegativity and the diagonal of M·V = I, but nothing off it."""
    if any(min(col) < 0 for col in columns):
        return False
    return all(
        sum(a * columns[r][i] for i, a in row) == 1 for r, row in enumerate(rows)
    )


def no_nonnegativity_test(rows, columns):
    """Every entry of M·V = I, with the nonnegativity test skipped."""
    return all(
        sum(a * columns[c][i] for i, a in row) == (r == c)
        for r, row in enumerate(rows)
        for c in range(len(columns))
    )


def unguarded_lanes(bound):
    return 8


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
        v = columns[-1].values
        columns[-1] = RootVector(n, v[:i] + (v[i] + 1,) + v[i + 1 :])
        return columns

    monkeypatch.setattr(spanning, "formula_vectors", raised)
    report = spanning.verify_all(n)
    monkeypatch.undo()
    found = {word: (label, expected, got) for word, label, expected, got in report.mismatches}
    for word in enumerate_reduced_words(n):
        assert word in found, f"word {word.letters}: off-diagonal error not reported"
        label, expected, got = found[word]
        last = wiring.chambers(wiring.build_wiring(word))[-1]
        assert label == ChamberLabel(last.left_pos, last.right_pos)
        assert got == spanning_set(word).vector(label) != expected
    assert len(report.mismatches) == report.checked


def merge(row, extra):
    """Sparse row plus the (index, coefficient) pairs of ``extra``."""
    total = dict(row)
    for i, a in extra:
        total[i] = total.get(i, 0) + a
    return tuple((i, a) for i, a in total.items() if a)


def guard_negative_inverse(monkeypatch, n):
    """Add the last chamber row to the row of simple root 1 and give the
    formula columns the exact inverse of that matrix: its last column is
    V_c - V_1, which is -1 at the root (1, 2).  M·V = I holds, so only the
    nonnegativity test rejects it; verify must then raise, naming the word
    and the label."""
    real_rows, real_formulas = cone.root_rows, spanning.formula_vectors

    def rows(n, chamber_list):
        labels, rs = real_rows(n, chamber_list)
        return labels, (merge(rs[0], rs[-1]),) + rs[1:]

    def formulas(n, chamber_list):
        columns = real_formulas(n, chamber_list)
        v1, vc = columns[0].values, columns[-1].values
        columns[-1] = RootVector(n, tuple(x - y for x, y in zip(vc, v1)))
        return columns

    monkeypatch.setattr(cone, "root_rows", rows)
    monkeypatch.setattr(spanning, "formula_vectors", formulas)
    try:
        report = spanning.verify_all(n)
    except ValueError as exc:
        first = next(enumerate_reduced_words(n))
        assert str(exc).startswith(f"word {first.letters}: UnimodularityError")
        assert "inverse column of ChamberLabel" in str(exc)
    else:
        raise AssertionError(f"negative inverse columns accepted: {report.to_json()}")
    finally:
        monkeypatch.undo()


def guard_aliasing(monkeypatch, n):
    """Change column j = k-1 of every word's matrix to M' = M + M·N, where
    N is 256 at (0, j) and -1 at (1, j): V·M' = I + N, whose column j reads
    as the unit column in 8-bit lanes.  verify must raise, naming the word
    and the label, because the exact inverse of M' is negative."""
    real_rows = cone.root_rows

    def rows(n, chamber_list):
        labels, rs = real_rows(n, chamber_list)
        j = len(rs) - 1
        bent = []
        for row in rs:
            a = dict(row)
            bent.append(merge(row, [(j, 256 * a.get(0, 0) - a.get(1, 0))]))
        return labels, tuple(bent)

    monkeypatch.setattr(cone, "root_rows", rows)
    try:
        report = spanning.verify_all(n)
    except ValueError as exc:
        first = next(enumerate_reduced_words(n))
        assert str(exc).startswith(f"word {first.letters}: UnimodularityError")
        assert "inverse column of" in str(exc)
    else:
        raise AssertionError(f"aliased columns accepted: {report.to_json()}")
    finally:
        monkeypatch.undo()


CERTIFICATE_DEFECTS = [
    ("certify_inverse", diagonal_only, guard_off_diagonal),
    ("certify_inverse", no_nonnegativity_test, guard_negative_inverse),
    ("lane_width", unguarded_lanes, guard_aliasing),
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


def test_unguarded_lanes_accept_an_aliasing_non_inverse(monkeypatch):
    assert not cone.certify_inverse(ALIASING_ROWS, ALIASING_COLUMNS)
    monkeypatch.setattr(cone, "lane_width", unguarded_lanes)
    assert cone.certify_inverse(ALIASING_ROWS, ALIASING_COLUMNS)
