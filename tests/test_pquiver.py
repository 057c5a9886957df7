import itertools

import pytest
from references import is_chamber_set

from lusztig_cones import wiring
from lusztig_cones.pquiver import (
    Component,
    PartialQuiver,
    Quiver,
    all_partial_quivers,
    all_quivers,
    bfz_word,
    chamber_components,
    chamber_crossings,
    chamber_set_of,
    components,
    leq,
    partial_quiver_of,
    quiver_chamber_set,
    sub_partial_quivers,
)
from lusztig_cones.words import ReducedWord, commutation_class


class TestPartialQuiver:
    def test_round_trip_string(self):
        P = PartialQuiver.from_string("---LRLL-")
        assert P.n == 9
        assert str(P) == "---LRLL-"

    def test_edge_numbering_from_right(self):
        P = PartialQuiver.from_string("L-", 3)
        assert P.edge(3) == "L"
        assert P.edge(2) == "-"

    def test_needs_directed_edge(self):
        with pytest.raises(ValueError):
            PartialQuiver.from_string("--", 3)

    def test_directed_part_must_be_contiguous(self):
        with pytest.raises(ValueError):
            PartialQuiver.from_string("L-L", 4)

    def test_quiver_must_be_full(self):
        with pytest.raises(ValueError):
            Quiver.from_string("L-", 3)

    def test_counts(self):
        for n in range(2, 7):
            assert len(list(all_quivers(n))) == 2 ** (n - 1)
            pqs = list(all_partial_quivers(n))
            assert len(pqs) == len(set(pqs)) == 2 ** (n + 1) - 2 * (n + 1)


class TestLeq:
    def test_example(self):
        assert leq(
            PartialQuiver.from_string("---LRLL-"),
            PartialQuiver.from_string("RLRLRLLL"),
        )

    def test_reflexive(self):
        for P in all_partial_quivers(4):
            assert leq(P, P)

    def test_orientation_conflict(self):
        assert not leq(
            PartialQuiver.from_string("-R", 3),
            PartialQuiver.from_string("LL", 3),
        )

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            leq(PartialQuiver.from_string("L-", 3), PartialQuiver.from_string("L", 2))


def reference_components(P):
    """Maximal same-orientation runs of P, left to right, read off its
    display string: the definition, independent of chamber sets."""
    result = []
    b = P.leftmost
    for sym, run in itertools.groupby(str(P).strip("-")):
        a = b + 1 - len(list(run))
        result.append(Component(sym, a, b))
        b = a - 1
    return result


class TestComponents:
    def test_long_example(self):
        got = components(PartialQuiver.from_string("RLRLRLLL"))
        assert got == [
            Component("R", 9, 9),
            Component("L", 8, 8),
            Component("R", 7, 7),
            Component("L", 6, 6),
            Component("R", 5, 5),
            Component("L", 2, 4),
        ]

    def test_two_singletons(self):
        got = components(PartialQuiver.from_string("LR", 3))
        assert got == [Component("L", 3, 3), Component("R", 2, 2)]

    def test_single_run(self):
        assert components(PartialQuiver.from_string("LL", 3)) == [Component("L", 2, 3)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chamber_components_of_every_subset(self, n):
        # raises iff the set is illegal; otherwise the set's partial quiver
        # maps back to it, and its components are the reference runs
        strings = range(1, n + 2)
        for m in range(len(strings) + 1):
            for S in itertools.combinations(strings, m):
                if not is_chamber_set(S, n):
                    with pytest.raises(ValueError, match="is not a chamber set"):
                        chamber_components(S, n)
                    continue
                P = partial_quiver_of(S, n)
                assert chamber_set_of(P) == frozenset(S)
                assert chamber_components(S, n) == reference_components(P)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_reference(self, n):
        for P in all_partial_quivers(n):
            assert components(P) == reference_components(P)


class TestBijection:
    def test_single_r_examples(self):
        assert chamber_set_of(PartialQuiver.from_string("-R", 3)) == {1, 3, 4}
        assert chamber_set_of(PartialQuiver.from_string("L-", 3)) == {3}

    def test_single_r_is_punctured_interval(self):
        for n in range(2, 6):
            for i in range(2, n + 1):
                symbols = ["R" if e == i else "-" for e in range(n, 1, -1)]
                P = PartialQuiver(n, tuple(symbols))
                assert chamber_set_of(P) == set(range(1, n + 2)) - {i}

    def test_inverse_examples(self):
        assert str(partial_quiver_of({1, 3}, 3)) == "LR"
        assert str(partial_quiver_of({3}, 3)) == "L-"
        assert str(partial_quiver_of({1, 3}, 2)) == "R"

    def test_rejects_illegal_chamber_set(self):
        for reader in (partial_quiver_of, chamber_components):
            with pytest.raises(ValueError, match=r"^\[1, 2\] is not a chamber set for n=3$"):
                reader([2, 1, 2], 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_mutually_inverse(self, n):
        legal = {
            frozenset(s)
            for m in range(1, n + 2)
            for s in itertools.combinations(range(1, n + 2), m)
            if is_chamber_set(s, n)
        }
        for S in legal:
            assert chamber_set_of(partial_quiver_of(S, n)) == S
        for P in all_partial_quivers(n):
            assert partial_quiver_of(chamber_set_of(P), n) == P


class TestQuiverChamberSet:
    def test_example(self):
        Q = Quiver.from_string("LR", 3)  # X = {3}
        assert quiver_chamber_set(Q, 2, 4) == {1, 3}

    def test_endpoint_conventions(self):
        Q = Quiver.from_string("RR", 3)
        # i = 1 contributes no initial interval, j = n+1 no final one
        assert quiver_chamber_set(Q, 1, 4) == set()
        assert quiver_chamber_set(Q, 1, 2) == {3, 4}

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            quiver_chamber_set(Quiver.from_string("LR", 3), 3, 3)


class TestChamberCrossings:
    def test_case_one_example(self):
        Q = Quiver.from_string("LL", 3)
        P = PartialQuiver.from_string("L-", 3)
        assert chamber_crossings(Q, P) == (2, 4, 3, 3)

    def test_requires_sub_partial_quiver(self):
        with pytest.raises(ValueError):
            chamber_crossings(Quiver.from_string("LL", 3), PartialQuiver.from_string("-R", 3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_wiring_boundary(self, n):
        for Q in all_quivers(n):
            d = wiring.build_wiring(bfz_word(Q))
            by_set = {c.chamber_set: c for c in wiring.chambers(d)}
            for P in sub_partial_quivers(Q):
                c = by_set[chamber_set_of(P)]
                p, q, r, s = chamber_crossings(Q, P)
                assert set(c.left.strings) == {q, s}
                assert set(c.right.strings) == {p, r}
                above = [set(x.strings) for x in c.above]
                below = [set(x.strings) for x in c.below]
                assert above == ([{p, q}] if p != q else [])
                assert below == ([{r, s}] if r != s else [])
                if p != q:
                    assert quiver_chamber_set(Q, min(p, q), max(p, q)) == c.chamber_set


# chamber sets of the arrangement of left-edge set {2, 4} at n = 5,
# frozen from the bijection applied to the 10 sub partial quivers of RLRL
ARR_24_CHAMBER_SETS = [
    {1, 2, 3, 4, 6},
    {1, 2, 4},
    {1, 2, 4, 5, 6},
    {1, 2, 4, 6},
    {2},
    {2, 4},
    {2, 4, 5, 6},
    {2, 4, 6},
    {4},
    {4, 6},
]


class TestBfzWord:
    def test_rank_two_examples(self):
        cls_r = {w.letters for w in commutation_class(ReducedWord(2, (1, 2, 1)))}
        cls_l = {w.letters for w in commutation_class(ReducedWord(2, (2, 1, 2)))}
        assert bfz_word(Quiver.from_string("R", 2)).letters in cls_r
        assert bfz_word(Quiver.from_string("L", 2)).letters in cls_l

    def test_arrangement_2_4(self):
        Q = Quiver.from_string("RLRL", 5)
        assert sorted(Q.left_edges()) == [2, 4]
        d = wiring.build_wiring(bfz_word(Q))
        got = sorted(sorted(c.chamber_set) for c in wiring.chambers(d))
        assert got == sorted(sorted(s) for s in ARR_24_CHAMBER_SETS)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_chamber_labels_are_sub_partial_quivers(self, n):
        for Q in all_quivers(n):
            d = wiring.build_wiring(bfz_word(Q))
            labels = [
                partial_quiver_of(c.chamber_set, n) for c in wiring.chambers(d)
            ]
            assert len(labels) == len(set(labels)) == n * (n - 1) // 2
            assert set(labels) == set(sub_partial_quivers(Q))

    def test_equal_chamber_sets_iff_equal_labels(self):
        # across braid-move neighbours: chambers agree on sets iff on labels
        for P in all_partial_quivers(4):
            for P2 in all_partial_quivers(4):
                same_set = chamber_set_of(P) == chamber_set_of(P2)
                assert same_set == (P == P2)
