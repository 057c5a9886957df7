"""Planted defects that the checks must catch.  Each test plants one wrong
piece, by monkeypatch or as a stand-in, and asserts that the check meant
to guard against it fails, with enough in its report to reproduce it."""

import random

from test_spanning import chi_square

from lusztig_cones import spanning, wiring
from lusztig_cones.cone import ChamberLabel, RootVector, spanning_set
from lusztig_cones.pquiver import partial_quiver_of
from lusztig_cones.words import (
    apply_braid_move,
    long_move_positions,
    short_move_positions,
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
            moves = [(p, "short") for p in short_move_positions(word)]
            moves += [(p, "long") for p in long_move_positions(word)]
            pos, kind = rng.choice(moves)
            word = apply_braid_move(word, pos, kind)
        out.append(word)
    return out


def test_chi_square_rejects_the_braid_walk():
    sample = reference_walk(3, 320, 0)
    assert len({w.letters for w in sample}) == 8
    statistic, bound = chi_square(sample, 3)
    assert statistic > bound


def test_rounding_half_down_is_reported(monkeypatch):
    def half_down(P):
        return RootVector(P.n, tuple(x // 2 for x in spanning.weight_vector(P).values))

    monkeypatch.setattr(spanning, "v_partial_quiver", half_down)
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
            assert expected == half_down(partial_quiver_of(sets[label], 4))
            assert got == span.vector(label) != expected
    assert len(by_word) == 768
    record = report.to_json()["mismatches"][0]
    assert set(record) == {"word", "label", "expected", "got"}
    assert record["expected"] != record["got"]
