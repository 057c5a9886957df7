"""Reduced expressions for the longest element of the symmetric group.

A word is a tuple of letters in ``[1, n]``; the letter ``i`` stands for the
adjacent transposition ``s_i`` of ``S_{n+1}``.  A word is reduced for the
longest element ``w0`` iff it has length ``n(n+1)/2`` and its product is the
order-reversing permutation of ``[1, n+1]``.  All operations return new
values; nothing is mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


def longest_word_length(n: int) -> int:
    """Length of every reduced expression for w0 in type A_n."""
    return n * (n + 1) // 2


def reduced_word_count(n: int) -> int:
    """Number of reduced words of w0 in type A_n: the standard Young tableaux
    of staircase shape (n, n-1, ..., 1) (Stanley 1984), by the hook length
    formula.  The n+1-d cells on the d-th diagonal from the corner have
    hook 2d-1, so the count is k! / prod (2d-1)^(n+1-d), d = 1..n."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    hooks = 1
    for d in range(1, n + 1):
        hooks *= (2 * d - 1) ** (n + 1 - d)
    return math.factorial(longest_word_length(n)) // hooks


def all_positive_roots(n: int) -> list[tuple[int, int]]:
    """All positive roots (p, q), 1 <= p < q <= n+1, in lexicographic order.

    The pair (p, q) stands for alpha_p + alpha_{p+1} + ... + alpha_{q-1}.
    """
    return [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 2)]


def _root_index(n: int, root) -> int:
    """The place of the root (p, q) in ``all_positive_roots(n)``."""
    p, q = root
    if not 1 <= p < q <= n + 1:
        raise KeyError(f"({p},{q}) is not a positive root of A_{n}")
    # roots with first entry < p, then offset within block p
    return (p - 1) * (2 * n + 2 - p) // 2 + (q - p - 1)


def permutation_of(letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    """One-line notation of the product s_{i_1} s_{i_2} ... in S_{n+1}."""
    perm = list(range(1, n + 2))
    for i in letters:
        if not 1 <= i <= n:
            raise ValueError(f"letter {i} out of range [1, {n}]")
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def is_reduced_word_for_w0(letters, n: int) -> bool:
    """True iff ``letters`` is a reduced expression for w0 in S_{n+1}."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty letter sequence")
    perm = permutation_of(letters, n)  # validates letter range
    if len(letters) != longest_word_length(n):
        return False
    return perm == tuple(range(n + 1, 0, -1))


@dataclass(frozen=True)
class ReducedWord:
    """A reduced expression for w0, as an immutable value object."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not is_reduced_word_for_w0(self.letters, self.n):
            raise ValueError(
                f"{self.letters} is not a reduced word for w0 in A_{self.n}"
            )

    @property
    def k(self) -> int:
        return len(self.letters)

    def to_json(self) -> dict:
        return {"n": self.n, "word": list(self.letters)}


def _reduced_by_construction(n: int, letters: tuple[int, ...]) -> ReducedWord:
    """A ``ReducedWord`` built the way unpickling builds one, without
    ``__post_init__``: only for letters that are reduced by construction."""
    word = object.__new__(ReducedWord)
    word.__dict__.update(n=n, letters=letters)
    return word


def staircase_word(n: int) -> ReducedWord:
    """The seed word (1, 2,1, 3,2,1, ..., n,...,1)."""
    letters = []
    for m in range(1, n + 1):
        letters.extend(range(m, 0, -1))
    return ReducedWord(n, tuple(letters))


def braid_neighbors(word: ReducedWord) -> Iterator[ReducedWord]:
    """All words one braid move away, left to right: first every short move
    (i, j) -> (j, i) with |i - j| >= 2, then every long move
    (i, j, i) -> (j, i, j) with |i - j| = 1.  A braid move keeps a reduced
    word reduced, so the neighbours are not validated again."""
    n, w = word.n, word.letters
    for p, (a, b) in enumerate(zip(w, w[1:])):
        if abs(a - b) >= 2:
            yield _reduced_by_construction(n, w[:p] + (b, a) + w[p + 2 :])
    for p, (a, b, c) in enumerate(zip(w, w[1:], w[2:])):
        if a == c and abs(a - b) == 1:
            yield _reduced_by_construction(n, w[:p] + (b, a, b) + w[p + 3 :])


def commutation_class(word: ReducedWord) -> set[ReducedWord]:
    """Closure of ``word`` under short braid moves: the linear extensions of
    its heap (Viennot 1986).  Depth first, the next letter may be any
    remaining letter that commutes with every remaining letter before it;
    equal letters never commute, so no word is reached twice.  Each linear
    extension of a reduced word's heap is reduced: none is validated."""

    def extend(prefix, rest):
        if not rest:
            yield _reduced_by_construction(word.n, prefix)
        for p, i in enumerate(rest):
            if all(abs(i - j) >= 2 for j in rest[:p]):
                yield from extend(prefix + (i,), rest[:p] + rest[p + 1 :])

    return set(extend((), word.letters))


def enumerate_reduced_words(n: int) -> Iterator[ReducedWord]:
    """Yield every reduced word for w0 exactly once, in lexicographic order.

    A word of length n(n+1)/2 is reduced for w0 iff each letter i lengthens
    the product before it (``perm[i-1] < perm[i]``).  Depth first over those
    letters, smallest first, in one loop, so the staircase word comes first.
    The words are reduced by construction and are not validated again.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    k, perm, prefix, i = longest_word_length(n), list(range(1, n + 2)), [], 1
    while True:
        if len(prefix) == k:
            yield _reduced_by_construction(n, tuple(prefix))
        while i <= n and perm[i - 1] > perm[i]:
            i += 1
        if i <= n:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            prefix.append(i)
            i = 1
        elif prefix:
            i = prefix.pop()
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            i += 1
        else:
            return


def hook_walk_tableau(n: int, rng) -> list[list[int]]:
    """A uniformly random standard Young tableau of staircase shape
    (n, n-1, ..., 1), as rows, by the hook walk of Greene, Nijenhuis and
    Wilf (1979).

    Each entry m = k, k-1, ..., 1 goes into the corner where a walk ends:
    it starts at a uniform cell of the shape still empty and moves to a
    uniform cell of its hook (the cells to its right or below) until it
    reaches a corner.  Only ``rng.getrandbits`` is called: a draw below h
    takes b = h.bit_length() bits until they give a number below h, which
    is what ``Random.randrange(h)`` does on CPython (3.10 to 3.13), so the
    tableau and the generator's state afterwards are those of ``randrange``
    draws.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    getrandbits = rng.getrandbits
    rows = list(range(n, 0, -1))  # row and column lengths of the empty part
    cols = list(rows)
    tableau = [[0] * length for length in rows]
    for m in range(longest_word_length(n), 0, -1):
        b = m.bit_length()
        x = getrandbits(b)
        while x >= m:
            x = getrandbits(b)
        r = 0
        while x >= rows[r]:
            x -= rows[r]
            r += 1
        c = x
        while True:
            arm, leg = rows[r] - c - 1, cols[c] - r - 1
            h = arm + leg
            if not h:
                break
            b = h.bit_length()
            x = getrandbits(b)
            while x >= h:
                x = getrandbits(b)
            if x < arm:
                c += 1 + x
            else:
                r += 1 + x - arm
        tableau[r][c] = m
        rows[r] -= 1
        cols[c] -= 1
    return tableau


def edelman_greene(tableau: list[list[int]]) -> tuple[int, ...]:
    """The reduced word of w0 that Edelman–Greene (1987) promotion reads off
    a standard tableau of staircase shape, in O(k·n).

    At each step the column of the corner holding the largest entry is the
    next letter; that entry is removed, and the hole slides back to the top
    left cell, each time taking the larger of the entries to its left and
    above.  Instead of refilling with 0 and adding 1 to every entry, the top
    left cell gets a decreasing offset, which keeps the order of the
    entries; so the entries k, k-1, ..., 1 leave in turn, and each is
    looked up among the corners by its value (ValueError if it is not in
    one).  The promotion runs on a flat copy of ``tableau`` with stride
    n+1 (cell (r, c) at (r+1)·(n+1) + c+1), framed by a row above and a
    column to the left that hold -k-1, below every entry and every offset,
    so the slide needs no test for the top row or the left column.
    """
    n = len(tableau)
    k, stride = longest_word_length(n), n + 1
    cells = [-k - 1] * (stride * stride)
    for r, row in enumerate(tableau, 1):
        cells[r * stride + 1 : r * stride + 1 + len(row)] = row
    origin = stride + 1
    spots = [(r + 1) * stride + n - r for r in range(n)]  # the corner (r, n-1-r) of each row
    corners = [cells[p] for p in spots]
    letters = []
    for m in range(k, 0, -1):  # the largest entry left, always in a corner
        start = corners.index(m)
        letters.append(n - start)
        p = spots[start]
        while p != origin:
            up, left = cells[p - stride], cells[p - 1]
            if up > left:
                cells[p] = up
                p -= stride
            else:
                cells[p] = left
                p -= 1
        cells[origin] = m - k
        corners[start] = cells[spots[start]]
    return tuple(letters)


def root_ordering(word: ReducedWord) -> tuple[tuple[int, int], ...]:
    """The ordering of positive roots induced by the word.

    Position j carries s_{i_1}...s_{i_{j-1}}(alpha_{i_j}), written as the
    pair (p, q).  Equivalently (p, q) are the two strings crossing at
    position j in the wiring diagram.
    """
    perm = list(range(1, word.n + 2))
    roots = []
    for i in word.letters:
        p, q = perm[i - 1], perm[i]
        roots.append((p, q))
        perm[i - 1], perm[i] = q, p
    return tuple(roots)
