import itertools
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
import references
from references import is_chamber_set, root_as_simple_coords

from lusztig_cones import cone, spanning, wiring
from lusztig_cones.spanning import random_words
from lusztig_cones.wiring import (
    build_wiring,
    chambers,
    diagram_json,
    render,
)
from lusztig_cones.words import (
    ReducedWord,
    _root_index,
    commutation_class,
    enumerate_reduced_words,
    root_ordering,
)

FIG_WORD = ReducedWord(3, (1, 3, 2, 1, 3, 2))
GOLDEN_RENDER = Path(__file__).parent / "golden_render"


class TestBuildWiring:
    def test_figure_word_crossings(self):
        d = build_wiring(FIG_WORD)
        assert [c.strings for c in d.crossings] == [
            (1, 2), (3, 4), (1, 4), (2, 4), (1, 3), (2, 3),
        ]

    def test_rank_two(self):
        d = build_wiring(ReducedWord(2, (1, 2, 1)))
        assert [c.strings for c in d.crossings] == [(1, 2), (1, 3), (2, 3)]

    def test_rank_one(self):
        d = build_wiring(ReducedWord(1, (1,)))
        assert [c.strings for c in d.crossings] == [(1, 2)]

    def test_final_profile_reversed(self):
        d = build_wiring(FIG_WORD)
        assert d.profiles[-1] == (4, 3, 2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_crossings_equal_root_ordering(self, n):
        for w in enumerate_reduced_words(n):
            d = build_wiring(w)
            assert tuple(c.strings for c in d.crossings) == root_ordering(w)


class TestChambers:
    def test_figure_word_chamber_sets(self):
        d = build_wiring(FIG_WORD)
        by_pair = {
            (c.left_pos, c.right_pos): set(c.chamber_set) for c in chambers(d)
        }
        assert by_pair == {(1, 4): {1, 3, 4}, (2, 5): {3}, (3, 6): {1, 3}}

    def test_rank_two(self):
        d = build_wiring(ReducedWord(2, (1, 2, 1)))
        (c,) = chambers(d)
        assert set(c.chamber_set) == {1, 3}

    def test_rank_one_no_chambers(self):
        assert chambers(build_wiring(ReducedWord(1, (1,)))) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chamber_count(self, n):
        for w in enumerate_reduced_words(n):
            assert len(chambers(build_wiring(w))) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chamber_set_multiset_commutation_invariant(self, n):
        for w in enumerate_reduced_words(n):
            ref = Counter(c.chamber_set for c in chambers(build_wiring(w)))
            for v in commutation_class(w):
                got = Counter(c.chamber_set for c in chambers(build_wiring(v)))
                assert got == ref

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chamber_roots_identity(self, n):
        # left + right crossing roots = sum of above + below roots
        for w in enumerate_reduced_words(n):
            for c in chambers(build_wiring(w)):
                ends = [c.left.strings, c.right.strings]
                others = [x.strings for x in c.above + c.below]
                lhs = [
                    sum(v)
                    for v in zip(*(root_as_simple_coords(r, n) for r in ends))
                ]
                rhs = [
                    sum(v)
                    for v in zip(*(root_as_simple_coords(r, n) for r in others))
                ]
                assert lhs == rhs

    @pytest.mark.parametrize(
        "n, words",
        [(n, None) for n in (2, 3, 4)] + [(5, 2000), (12, 100)],
        ids=["2", "3", "4", "5-sampled", "12-sampled"],
    )
    def test_chambers_match_profile_scan(self, n, words):
        # the strings below a chamber are constant across its x-range, and
        # its above/below crossings are the letters in between one level up
        # or down; what the trace records for the per-word layers (masks,
        # root indices) gives the columns and rows of the sets and strings.
        # Every word up to n = 4; at n = 5 (292864 words, over a minute under
        # pytest on a 2-core VM) and n = 12, uniform samples
        words = enumerate_reduced_words(n) if words is None else random_words(n, words, 918273)
        table = spanning.rank_table(n)
        for w in words:
            d = build_wiring(w)
            profiles = d.profiles
            chamber_list = chambers(d)
            for c in chamber_list:
                members = c.chamber_set
                assert all(
                    frozenset(profiles[x][c.level :]) == members
                    for x in range(c.left_pos, c.right_pos)
                )
                assert c.mask == sum(1 << s for s in members)
                assert c.left == d.crossings[c.left_pos - 1]
                assert c.right == d.crossings[c.right_pos - 1]
                between = d.crossings[c.left_pos : c.right_pos - 1]
                assert c.above == tuple(x for x in between if x.level == c.level - 1)
                assert c.below == tuple(x for x in between if x.level == c.level + 1)
                assert w.letters[c.left_pos - 1] == w.letters[c.right_pos - 1] == c.level
                assert c.level not in {x.level for x in between}
            assert [c.left_pos for c in chamber_list] == sorted(
                j for j, i in enumerate(w.letters, 1) if i in w.letters[j:]
            )
            assert [c.root_index for c in d.crossings] == [
                _root_index(n, c.strings) for c in d.crossings
            ]
            assert spanning.formula_vectors(n, chamber_list) == list(table.simple) + [
                spanning._packed_column(table, spanning._strings_mask(c.chamber_set, n))
                for c in chamber_list
            ]
            assert cone.root_rows(n, chamber_list) == references.root_rows(n, chamber_list)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_legal_chamber_sets_occur(self, n):
        legal = {
            frozenset(s)
            for m in range(1, n + 2)
            for s in itertools.combinations(range(1, n + 2), m)
            if is_chamber_set(s, n)
        }
        assert len(legal) == 2 ** (n + 1) - 2 * (n + 1)
        occurring = set()
        for w in enumerate_reduced_words(n):
            for c in chambers(build_wiring(w)):
                assert is_chamber_set(c.chamber_set, n)
                occurring.add(c.chamber_set)
        assert occurring == legal


def legality_disagreements(n):
    """The subsets of [1, n+1] whose legality ``wiring.chamber_boundary``
    decides differently from the definition, ``is_chamber_set``."""
    wrong = []
    for m in range(n + 2):
        for S in itertools.combinations(range(1, n + 2), m):
            try:
                wiring.chamber_boundary(S, n)
                legal = True
            except ValueError:
                legal = False
            if legal != is_chamber_set(S, n):
                wrong.append(S)
    return wrong


class TestChamberSetLegality:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_boundary_decides_legality(self, n):
        assert legality_disagreements(n) == []

    def test_boundary(self):
        assert wiring.chamber_boundary({1, 3, 4}, 3) == [1, 2]
        assert wiring.chamber_boundary({2}, 3) == [1, 2]
        assert wiring.chamber_boundary({1, 3, 5, 6}, 6) == [1, 2, 3, 4, 6]

    @pytest.mark.parametrize("members", [[2, 1, 2], [0, 2], [2, 5], [1.5, 3]])
    def test_boundary_rejects(self, members):
        text = rf"^{re.escape(str(sorted(set(members))))} is not a chamber set for n=3$"
        with pytest.raises(ValueError, match=text):
            wiring.chamber_boundary(members, 3)

    def test_intervals_rejected(self):
        assert not is_chamber_set({1, 2}, 3)
        assert not is_chamber_set({3, 4}, 3)
        assert not is_chamber_set({1, 2, 3, 4}, 3)
        assert not is_chamber_set(set(), 3)

    def test_legal(self):
        assert is_chamber_set({1, 3, 4}, 3)
        assert is_chamber_set({2}, 3)


class TestRender:
    def test_ascii_annotations(self):
        text = render(build_wiring(FIG_WORD), "ascii")
        assert "134" in text
        assert "13" in text.replace("134", "")
        stripped = text.replace("134", "").replace("13", "")
        assert "3" in stripped

    def test_ascii_rank_one(self):
        text = render(build_wiring(ReducedWord(1, (1,))), "ascii")
        assert "\\/" in text and "/\\" in text

    def test_svg_is_valid_xml(self):
        svg = render(build_wiring(FIG_WORD), "svg")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_svg_rank_one_no_chamber_labels(self):
        svg = render(build_wiring(ReducedWord(1, (1,))), "svg")
        root = ET.fromstring(svg)
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        # only string and letter labels
        assert texts == ["1", "2", "1"]

    def test_deterministic(self):
        d1 = build_wiring(FIG_WORD)
        d2 = build_wiring(ReducedWord(3, (1, 3, 2, 1, 3, 2)))
        for fmt in ("ascii", "svg"):
            assert render(d1, fmt) == render(d2, fmt)

    @pytest.mark.parametrize(
        "name, word", [("figure", FIG_WORD), ("rank_one", ReducedWord(1, (1,)))]
    )
    @pytest.mark.parametrize("fmt, suffix", [("ascii", "txt"), ("svg", "svg")])
    def test_golden(self, name, word, fmt, suffix):
        # the rendering, byte for byte, as committed in tests/golden_render
        assert render(build_wiring(word), fmt) == (GOLDEN_RENDER / f"{name}.{suffix}").read_text()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(build_wiring(FIG_WORD), "png")


class TestJson:
    def test_schema(self):
        payload = diagram_json(build_wiring(FIG_WORD))
        assert payload["word"] == [1, 3, 2, 1, 3, 2]
        assert payload["crossings"][0] == {"pos": 1, "strings": [1, 2]}
        assert {"pair": [1, 4], "set": [1, 3, 4]} in payload["chambers"]
