import math
import random
from collections import deque
from itertools import zip_longest

import pytest

from lusztig_cones import words
from lusztig_cones.words import (
    ReducedWord,
    braid_neighbors,
    commutation_class,
    edelman_greene,
    enumerate_reduced_words,
    hook_walk_tableau,
    is_reduced_word_for_w0,
    root_ordering,
    staircase_word,
)

import golden_words


def staircase_tableaux_count(n):
    """Number of standard Young tableaux of staircase shape (n, ..., 1),
    by the hook length formula; equals the number of reduced words of w0."""
    rows = list(range(n, 0, -1))
    hooks = 1
    for r, row_len in enumerate(rows):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for rr in range(r + 1, n) if rows[rr] > c)
            hooks *= arm + leg + 1
    return math.factorial(n * (n + 1) // 2) // hooks


def closure(seed, moves):
    """Breadth-first closure of ``seed`` under ``moves`` (the oracle)."""
    seen = {seed}
    queue = deque([seed])
    while queue:
        for nb in moves(queue.popleft()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen


def moves(word):
    """(0-based position, kind, neighbour) of every braid move from ``word``:
    a short move keeps the multiset of letters and a long move changes it;
    the position is the first letter that differs."""
    out = []
    for nb in braid_neighbors(word):
        p = next(i for i, (a, b) in enumerate(zip(word.letters, nb.letters)) if a != b)
        kind = "short" if sorted(nb.letters) == sorted(word.letters) else "long"
        out.append((p, kind, nb))
    return out


def short_neighbors(word):
    return [nb for _, kind, nb in moves(word) if kind == "short"]


class TestValidation:
    def test_figure_word(self):
        assert is_reduced_word_for_w0((1, 3, 2, 1, 3, 2), 3)

    def test_rank_two(self):
        assert is_reduced_word_for_w0((1, 2, 1), 2)
        assert is_reduced_word_for_w0((2, 1, 2), 2)

    def test_repeated_letter_not_reduced(self):
        assert not is_reduced_word_for_w0((1, 2, 2, 1, 3, 2), 3)

    def test_wrong_length(self):
        assert not is_reduced_word_for_w0((1,), 2)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            is_reduced_word_for_w0((1, 4, 2, 1, 3, 2), 3)

    def test_empty(self):
        with pytest.raises(ValueError):
            is_reduced_word_for_w0((), 3)

    def test_constructor_rejects_bad_word(self):
        with pytest.raises(ValueError):
            ReducedWord(3, (1, 2, 3, 1, 2, 3))

    def test_length_of_w0(self):
        for n in range(1, 6):
            assert staircase_word(n).k == n * (n + 1) // 2


class TestBraidMoves:
    def test_short(self):
        w = ReducedWord(3, (1, 3, 2, 1, 3, 2))
        assert [(p, v.letters) for p, _, v in moves(w)] == [
            (0, (3, 1, 2, 1, 3, 2)),
            (3, (1, 3, 2, 3, 1, 2)),
        ]
        assert [kind for _, kind, _ in moves(w)] == ["short", "short"]

    def test_long(self):
        w = ReducedWord(2, (1, 2, 1))
        assert [(p, kind, v.letters) for p, kind, v in moves(w)] == [(0, "long", (2, 1, 2))]

    def test_moves_preserve_validity(self):
        # neighbours are reduced by construction and not validated again
        for n in range(1, 5):
            for w in enumerate_reduced_words(n):
                kinds = [kind for _, kind, _ in moves(w)]
                assert kinds == sorted(kinds, reverse=True)  # short moves first
                for nb in braid_neighbors(w):
                    assert nb.n == n and is_reduced_word_for_w0(nb.letters, n)


class TestCommutationClass:
    def test_singleton(self):
        w = ReducedWord(2, (1, 2, 1))
        assert commutation_class(w) == {w}

    def test_figure_word_class(self):
        w = ReducedWord(3, (1, 3, 2, 1, 3, 2))
        got = {v.letters for v in commutation_class(w)}
        assert got == {
            (1, 3, 2, 1, 3, 2),
            (3, 1, 2, 1, 3, 2),
            (1, 3, 2, 3, 1, 2),
            (3, 1, 2, 3, 1, 2),
        }

    def test_contains_self(self):
        for w in enumerate_reduced_words(3):
            assert w in commutation_class(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_short_move_closure(self, n):
        for w in enumerate_reduced_words(n):
            assert commutation_class(w) == closure(w, short_neighbors)

    def test_walk_validates_no_word(self, monkeypatch):
        # linear extensions of a reduced word's heap are reduced by
        # construction; only the input word is validated, when it is built
        w = staircase_word(5)
        calls = []
        real = words.is_reduced_word_for_w0
        monkeypatch.setattr(
            words, "is_reduced_word_for_w0", lambda *a: calls.append(a) or real(*a)
        )
        assert len(commutation_class(w)) == 286
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_word_of_the_walk_is_reduced(self, n):
        for w in enumerate_reduced_words(n):
            for v in commutation_class(w):
                assert v.n == n and is_reduced_word_for_w0(v.letters, n)


def recursive_reduced_words(n):
    """The former enumeration, the reference of the flat one: the same
    depth-first search, one nested generator per letter, yielding letters."""
    k = n * (n + 1) // 2

    def extend(prefix, perm):
        if len(prefix) == k:
            yield prefix
        for i in range(1, n + 1):
            if perm[i - 1] < perm[i]:
                swapped = perm[: i - 1] + (perm[i], perm[i - 1]) + perm[i + 1 :]
                yield from extend(prefix + (i,), swapped)

    return extend((), tuple(range(1, n + 2)))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_recursive_reference(self, n):
        pairs = zip_longest(enumerate_reduced_words(n), recursive_reduced_words(n))
        assert all(w is not None and w.letters == ref for w, ref in pairs)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 16), (4, 768)])
    def test_counts_match_hook_formula(self, n, count):
        assert staircase_tableaux_count(n) == count
        ws = list(enumerate_reduced_words(n))
        assert len(ws) == count
        assert all(a.letters < b.letters for a, b in zip(ws, ws[1:]))
        assert ws[0] == staircase_word(n)

    def test_reduced_word_count(self):
        # the package's count, by diagonals of the staircase, against the
        # cell-by-cell hook length oracle, and against the enumeration
        for n in range(1, 9):
            assert words.reduced_word_count(n) == staircase_tableaux_count(n), n
        for n in range(1, 6):
            assert words.reduced_word_count(n) == sum(1 for _ in enumerate_reduced_words(n)), n
        assert words.reduced_word_count(12) == (
            9079590132732747656880081324531330222983622187548672000
        )
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
            words.reduced_word_count(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_word_is_reduced(self, n):
        # enumeration builds its words without validating them again
        for w in enumerate_reduced_words(n):
            assert isinstance(w.letters, tuple) and w.n == n
            assert is_reduced_word_for_w0(w.letters, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_braid_move_closure(self, n):
        ws = set(enumerate_reduced_words(n))
        assert ws == closure(staircase_word(n), braid_neighbors)

    @pytest.mark.parametrize("n", [0, -2])
    def test_rank_below_one(self, n):
        with pytest.raises(ValueError):
            list(enumerate_reduced_words(n))

    def test_partitions_into_commutation_classes(self):
        all_words = set(enumerate_reduced_words(3))
        seen = set()
        while all_words - seen:
            w = min(all_words - seen, key=lambda x: x.letters)
            cls = commutation_class(w)
            assert cls <= all_words
            assert not (cls & seen)
            seen |= cls
        assert seen == all_words


class TestRootOrdering:
    def test_rank_one(self):
        assert root_ordering(ReducedWord(1, (1,))) == ((1, 2),)

    def test_rank_two(self):
        assert root_ordering(ReducedWord(2, (1, 2, 1))) == ((1, 2), (1, 3), (2, 3))

    def test_figure_word(self):
        w = ReducedWord(3, (1, 3, 2, 1, 3, 2))
        assert root_ordering(w) == ((1, 2), (3, 4), (1, 4), (2, 4), (1, 3), (2, 3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_roots_no_repeats(self, n):
        expected = set(words.all_positive_roots(n))
        for w in enumerate_reduced_words(n):
            ro = root_ordering(w)
            assert len(ro) == w.k
            assert set(ro) == expected

    def test_short_move_swaps_two_roots(self):
        for w in enumerate_reduced_words(3):
            ro = root_ordering(w)
            for p, kind, nb in moves(w):
                if kind == "short":
                    ro2 = list(root_ordering(nb))
                    ro2[p], ro2[p + 1] = ro2[p + 1], ro2[p]
                    assert tuple(ro2) == ro

    def test_long_move_swaps_outer_roots(self):
        for w in enumerate_reduced_words(3):
            ro = root_ordering(w)
            for p, kind, nb in moves(w):
                if kind == "long":
                    ro2 = list(root_ordering(nb))
                    ro2[p], ro2[p + 2] = ro2[p + 2], ro2[p]
                    assert tuple(ro2) == ro


def staircase_tableaux(n):
    """Every standard Young tableau of shape (n, n-1, ..., 1), as rows."""
    shape = list(range(n, 0, -1))
    rows = [[] for _ in shape]

    def fill(m):
        if m > len(shape) * (n + 1) // 2:
            yield [list(row) for row in rows]
        for r, row in enumerate(rows):
            if len(row) < shape[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                row.append(m)
                yield from fill(m + 1)
                row.pop()

    return fill(1)


def textbook_promotion(tableau):
    """Edelman–Greene as first stated: read the column of the largest
    entry's cell, slide the hole to the top left cell, fill it with 0 and
    add 1 to every entry (the oracle)."""
    t = [list(row) for row in tableau]
    n = len(t)
    k = n * (n + 1) // 2
    letters = []
    for _ in range(k):
        r, c = next((r, c) for r, row in enumerate(t) for c, x in enumerate(row) if x == k)
        letters.append(c + 1)
        while (r, c) != (0, 0):
            up = t[r - 1][c] if r else -1
            left = t[r][c - 1] if c else -1
            if up > left:
                t[r][c], r = up, r - 1
            else:
                t[r][c], c = left, c - 1
        t[0][0] = 0
        t = [[x + 1 for x in row] for row in t]
    return tuple(letters)


def randrange_hook_walk(n, rng):
    """The hook walk with one ``rng.randrange`` call per draw (the
    reference): ``hook_walk_tableau`` must give the same tableau and leave
    the generator in the same state."""
    rows = list(range(n, 0, -1))
    cols = list(rows)
    tableau = [[0] * length for length in rows]
    for m in range(n * (n + 1) // 2, 0, -1):
        x, r = rng.randrange(m), 0
        while x >= rows[r]:
            x -= rows[r]
            r += 1
        c = x
        while True:
            arm, leg = rows[r] - c - 1, cols[c] - r - 1
            if not arm + leg:
                break
            x = rng.randrange(arm + leg)
            if x < arm:
                c += 1 + x
            else:
                r += 1 + x - arm
        tableau[r][c] = m
        rows[r] -= 1
        cols[c] -= 1
    return tableau


def is_standard(tableau, n):
    entries = sorted(x for row in tableau for x in row)
    columns = [[row[c] for row in tableau if c < len(row)] for c in range(n)]
    return (
        [len(row) for row in tableau] == list(range(n, 0, -1))
        and entries == list(range(1, n * (n + 1) // 2 + 1))
        and all(line == sorted(line) for line in tableau + columns)
    )


class TestSampler:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edelman_greene_is_a_bijection(self, n):
        tableaux = list(staircase_tableaux(n))
        assert len(tableaux) == staircase_tableaux_count(n)
        got = [edelman_greene(t) for t in tableaux]
        assert sorted(got) == [w.letters for w in enumerate_reduced_words(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_offsets_match_textbook_promotion(self, n):
        for t in staircase_tableaux(n):
            assert edelman_greene(t) == textbook_promotion(t)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 16])
    def test_hook_walk_gives_standard_tableaux(self, n):
        rng = random.Random(n)
        for _ in range(5):
            t = hook_walk_tableau(n, rng)
            assert is_standard(t, n)
            rows = [list(row) for row in t]
            assert edelman_greene(t) == textbook_promotion(t)
            assert t == rows  # promotion leaves its argument alone

    def test_rank_one(self):
        assert hook_walk_tableau(1, random.Random(0)) == [[1]]
        assert edelman_greene([[1]]) == (1,)

    @pytest.mark.parametrize("n", [0, -1, -2, -5])
    def test_rank_below_one_raises(self, n):
        with pytest.raises(ValueError, match=rf"^rank must be >= 1, got {n}$"):
            hook_walk_tableau(n, random.Random(0))

    def test_promotion_finds_each_entry_in_a_corner(self):
        # entries leave in decreasing order, each looked up among the
        # corners; a largest entry off the corners is no standard tableau
        assert edelman_greene([[1, 3], [2]]) == textbook_promotion([[1, 3], [2]])
        with pytest.raises(ValueError):
            edelman_greene([[3, 1], [2]])

    @pytest.mark.parametrize("n", range(1, 17))
    def test_hook_walk_draws_as_randrange(self, n):
        # each seed on its own generator, then one generator shared by all
        # draws: equal tableaux and equal generator states after each draw
        shared, reference = random.Random(n), random.Random(n)
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            assert hook_walk_tableau(n, rng) == randrange_hook_walk(n, ref), seed
            assert rng.getstate() == ref.getstate(), seed
            assert hook_walk_tableau(n, shared) == randrange_hook_walk(n, reference), seed
            assert shared.getstate() == reference.getstate(), seed

    @pytest.mark.parametrize("key", sorted(golden_words.GOLDEN))
    def test_sampled_words_match_their_golden_digest(self, key):
        # the t-th word of each seed is fixed (README); the digests are
        # also checked without pytest on every supported Python
        assert golden_words.digest(*key) == golden_words.GOLDEN[key]
