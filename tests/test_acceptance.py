"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import itertools
import time

import numpy as np
import pytest
from references import is_chamber_set, root_as_simple_coords
from test_words import staircase_tableaux_count

from lusztig_cones import cone, pquiver, spanning, wiring
from lusztig_cones.cone import ChamberLabel, RootVector, spanning_set
from lusztig_cones.words import (
    ReducedWord,
    commutation_class,
    enumerate_reduced_words,
    root_ordering,
)

SAMPLE_SIZE = 1000
SAMPLE_SEED = 1


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"criterion {num:2d} ({name}): PASS [{elapsed:.1f}s]")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def sampled_words():
    return {
        n: spanning.random_words(n, SAMPLE_SIZE, seed=SAMPLE_SEED)
        for n in (5, 6, 7)
    }


@criterion(1, "figure-1 chamber sets")
def test_figure_one_reproduction():
    start = time.monotonic()
    d = wiring.build_wiring(ReducedWord(3, (1, 3, 2, 1, 3, 2)))
    got = {frozenset(c.chamber_set) for c in wiring.chambers(d)}
    assert got == {frozenset({1, 3, 4}), frozenset({3}), frozenset({1, 3})}
    assert time.monotonic() - start < 1.0


@criterion(2, "main theorem, exhaustive n<=4")
def test_main_theorem_exhaustive():
    start = time.monotonic()
    expected_counts = {1: 1, 2: 2, 3: 16, 4: 768}
    for n, count in expected_counts.items():
        assert staircase_tableaux_count(n) == count
        report = spanning.verify_all(n, mode="exhaustive")
        assert report.checked == count
        assert report.mismatches == []
    assert time.monotonic() - start < 30.0


@criterion(3, "main theorem, sampled n=5,6,7")
def test_main_theorem_sampled(sampled_words):
    start = time.monotonic()
    for n in (5, 6, 7):
        words = sampled_words[n]
        assert len(words) == SAMPLE_SIZE
        mismatches = []
        for w in words:
            report = spanning.verify_theorem(w)
            if not report.overall:
                mismatches.append(w)
        assert mismatches == []
    assert time.monotonic() - start < 300.0


@criterion(4, "unimodularity of every defining matrix")
def test_unimodularity(sampled_words):
    pool = [w for n in (1, 2, 3, 4) for w in enumerate_reduced_words(n)]
    pool += [w for n in (5, 6, 7) for w in sampled_words[n]]
    for w in pool:
        span = spanning_set(w)  # raises unless exact integer inverse exists
        assert span.det in (1, -1)
        assert all(x >= 0 for col in span.columns for x in col)


@criterion(5, "chamber set / partial quiver bijection n<=6")
def test_bijection():
    for n in range(2, 7):
        legal = [
            frozenset(s)
            for m in range(1, n + 2)
            for s in itertools.combinations(range(1, n + 2), m)
            if is_chamber_set(s, n)
        ]
        assert len(legal) == 2 ** (n + 1) - 2 * (n + 1)
        for S in legal:
            assert pquiver.chamber_set_of(pquiver.partial_quiver_of(S, n)) == S
        pqs = list(pquiver.all_partial_quivers(n))
        assert len(pqs) == len(legal)
        for P in pqs:
            assert pquiver.partial_quiver_of(pquiver.chamber_set_of(P), n) == P


# chamber sets of the arrangement with left-edge set {2, 4} at n = 5
ARR_24_CHAMBER_SETS = {
    frozenset(s)
    for s in [
        {1, 2, 3, 4, 6}, {1, 2, 4}, {1, 2, 4, 5, 6}, {1, 2, 4, 6},
        {2}, {2, 4}, {2, 4, 5, 6}, {2, 4, 6}, {4}, {4, 6},
    ]
}


@criterion(6, "quiver-compatible words and their chamber sets n<=5")
def test_bfz_compatibility():
    for n in range(2, 6):
        quivers = list(pquiver.all_quivers(n))
        assert len(quivers) == 2 ** (n - 1)
        for Q in quivers:
            d = wiring.build_wiring(pquiver.bfz_word(Q))
            chs = wiring.chambers(d)
            labels = {pquiver.partial_quiver_of(c.chamber_set, n) for c in chs}
            assert labels == set(pquiver.sub_partial_quivers(Q))
            assert len(chs) == n * (n - 1) // 2
            for c in chs:
                if c.above:
                    (above,) = c.above
                    i, j = above.strings
                    assert pquiver.quiver_chamber_set(Q, i, j) == c.chamber_set
    Q = pquiver.Quiver.from_string("RLRL", 5)
    assert sorted(Q.left_edges()) == [2, 4]
    d = wiring.build_wiring(pquiver.bfz_word(Q))
    assert {c.chamber_set for c in wiring.chambers(d)} == ARR_24_CHAMBER_SETS


@criterion(7, "boundary crossing formula n<=5")
def test_chamber_crossings():
    for n in range(2, 6):
        for Q in pquiver.all_quivers(n):
            d = wiring.build_wiring(pquiver.bfz_word(Q))
            by_set = {c.chamber_set: c for c in wiring.chambers(d)}
            for P in pquiver.sub_partial_quivers(Q):
                c = by_set[pquiver.chamber_set_of(P)]
                p, q, r, s = pquiver.chamber_crossings(Q, P)
                assert set(c.left.strings) == {q, s}
                assert set(c.right.strings) == {p, r}
                above = [set(x.strings) for x in c.above]
                below = [set(x.strings) for x in c.below]
                assert above == ([{p, q}] if p != q else [])
                assert below == ([{r, s}] if r != s else [])


@criterion(8, "superadditivity on spanning vectors and conic points")
def test_superadditivity():
    combos_per_word = 10_000
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5, 6):
        words = spanning.random_words(n, 20, seed=n)
        triples = [
            (i, j, k)
            for i in range(1, n)
            for j in range(i + 1, n + 1)
            for k in range(j + 1, n + 2)
        ]
        for w in words:
            span = spanning_set(w)
            for label in span.matrix.labels:
                assert cone.superadditivity(w, span.vector(label))
            pos = {root: idx for idx, root in enumerate(root_ordering(w))}
            vectors = np.array(span.columns, dtype=np.int64)
            coeffs = rng.integers(0, 10, size=(combos_per_word, w.k))
            points = coeffs @ vectors  # position coordinates
            for i, j, k in triples:
                lhs = points[:, pos[(i, k)]]
                rhs = points[:, pos[(i, j)]] + points[:, pos[(j, k)]]
                assert np.all(lhs >= rhs)


@criterion(9, "chamber roots identity n<=4")
def test_chamber_roots_identity():
    for n in (2, 3, 4):
        for w in enumerate_reduced_words(n):
            for c in wiring.chambers(wiring.build_wiring(w)):
                ends = (c.left.strings, c.right.strings)
                others = [x.strings for x in c.above + c.below]
                lhs = [
                    sum(v) for v in zip(*(root_as_simple_coords(r, n) for r in ends))
                ]
                rhs = [
                    sum(v)
                    for v in zip(*(root_as_simple_coords(r, n) for r in others))
                ]
                assert lhs == rhs


@criterion(10, "chamber sets constant on commutation classes n<=4")
def test_commutation_class_invariance():
    from collections import Counter

    for n in (2, 3, 4):
        remaining = set(enumerate_reduced_words(n))
        while remaining:
            w = next(iter(remaining))
            cls = commutation_class(w)
            ref = Counter(
                c.chamber_set for c in wiring.chambers(wiring.build_wiring(w))
            )
            for v in cls:
                got = Counter(
                    c.chamber_set for c in wiring.chambers(wiring.build_wiring(v))
                )
                assert got == ref
            remaining -= cls
