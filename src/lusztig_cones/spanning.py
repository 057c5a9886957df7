"""Closed-form spanning vectors and the verifier of the theorem.

Every Lusztig cone has n spanning vectors common to all words, one per
simple root, plus one per bounded chamber; the latter depend only on the
chamber set, and equal the rounded-up half of the sum of the indicator
vectors of the components of its partial quiver.
``verify_theorem`` checks this in root coordinates by certificate: the
closed-form columns V pass iff V·M = I exactly for the defining matrix M,
which proves V = M^-1.  Only when the certificate fails is M inverted
(Bareiss), so that each mismatch carries the true inverse column.

The columns are computed on packed integers, one lane of bits per
positive root (``cone.pack``); ``rank_table(n)``, built once per rank,
holds the packed simple-root columns and, for each run of 8 of them,
the sum of every subset of the run (``RankTable.pieces``).  A component
[a, b] counts at the root (p, q) iff its points a-1 and b of the chamber
set's boundary ∂S (``wiring.chamber_boundary``) both lie in [p, q-1].
With N points of ∂S there, the weight is max(N-1, 0), whose rounded-up
half is ⌊N/2⌋; so a chamber's column is the sum of v_simple(t) over t in
∂S, then one shift and one mask, in every lane at once
(``_packed_column``, which reads ∂S off the bit mask of S and adds one
piece per 8 points of [1, n]).

``verify_all`` certifies with the column sums acc_j of V·M.  In root
coordinates a chamber's row is -1 at its left and right crossings and +1
at the crossings one level above and below it in between.  Lane j is
crossed once, so acc_j has at most four chamber terms besides its simple
root's: the chambers left and right of its crossing and the ones open one
level above and below it, each counted if it is bounded.  A word is
certified when every acc_j is the unit 1 << width·j, every chamber column
passes ``RankTable.mask`` (each entry below 2^b, b = width - 4) and no
column of M weighs more than 7.  Then every digit of V·M - I is below
2^(width-1) in absolute value, and acc_j = unit for every j proves
V·M = I, as in ``cone.certify_inverse``.  A sampled word is read in two
passes, one over its letters that fixes each chamber's column and the
four regions around each crossing, one over its crossings that sums them
(``_certified``).  A certified word builds no diagram, vector, label or
verdict.

An exhaustive run checks each crossing configuration once, not each word
(``_failing_triples``).  Lemma: let strings x < y cross at level i of a
word, x at position i and y at i+1, and let X be the strings below
position i+1 then.  The four regions around the crossing are open at
their levels while it happens, and a region's chamber set is the set of
strings under its level while it is open, so the sets are

    left, at level i:       X ∪ {y}
    right, at level i:      X ∪ {x}
    above, at level i-1:    X ∪ {x, y}
    below, at level i+1:    X

(a level 0 or n+1 has no region; its set, all strings or none, counts as
unbounded).  Each crossing at level l replaces the string that leaves the
set under l by a smaller one, so the sets of one level's regions are
distinct, from the first, {l+1, ..., n+1}, to the last, {1, ..., n+1-l}.
So a region is bounded iff its set S is neither, iff ∂S has at least two
points (``wiring.chamber_boundary``).  Hence the acc_j and w_j of lane
(x, y), and whether the columns around its crossing are faulty, are
functions of (x, y, X) alone: acc_j is ``RankTable.acc`` plus the mixed
second difference col(X ∪ {x, y}) - col(X ∪ {x}) - col(X ∪ {y}) +
col(X) of the column map, over bounded sets; these are the chamber sets
around a crossing of Berenstein, Fomin and Zelevinsky (1996).  A word's
faults are its lanes that fail and its bounded regions whose column is
faulty, and each such region is the left region of the crossing that
closes it; so a word whose configurations all pass is certified, by the
soundness argument of ``_lane_sums``.  Conversely a failing configuration
at one of its crossings makes that crossing's lane fail or one of its
bounded regions faulty, so a word is certified iff none of its crossings
has a failing configuration.

Realisation: every permutation of the strings has a reduced word that
extends to one of w0, since w0 is the top of the weak order (Björner and
Brenti, *Combinatorics of Coxeter Groups*, ch. 3).  For x < y and any set
X of the other n-1 strings, list the other strings, then x and y, then X;
cross x and y; complete to w0 (``_witness``).  That word meets (x, y, X)
at a crossing.  So every reduced word of w0 is certified iff all
k·2^(n-1) configurations pass, and each failing one is met by a word
whose certificate fails.

When one fails, ranks up to ``_LISTED_MAX_RANK`` list every word that
meets a failing configuration, and so every word that is not certified
(``_failing_words``); above it each failing configuration gives its
witness.  A word that is not certified, in any mode, is checked on its
own (``_verdicts``), which names the failing labels or raises.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from dataclasses import dataclass

from . import cone, pquiver, wiring
from .cone import RootVector
from .pquiver import PartialQuiver
from .words import (
    ReducedWord,
    _reduced_by_construction,
    all_positive_roots,
    edelman_greene,
    hook_walk_tableau,
    reduced_word_count,
)


class RankTable:
    """Packed integer vectors of rank n: one lane of ``width`` bits per
    positive root, in the order of ``all_positive_roots(n)``
    (``cone.pack``), and the start of the certificate's column sums
    (``_lane_sums``, ``_failing_triples``).

    ``simple[j - 1]`` is the indicator of the roots (p, q) with
    p <= j < q, ``pieces`` holds its sums 8 boundary points at a time (the
    lookups of ``_packed_column``, filled on first use by
    ``fill_pieces``), and ``mask`` holds 2^(width-4) - 1 in every lane.
    Entries reach ⌊n/2⌋ and a column of M weighs at most 5 (a simple row,
    two chambers ending at its crossing, two around it), so with
    ⌊n/2⌋·2^3 < 2^(width-1) the mask of ``cone.certify_inverse`` passes
    every column, and so does ``mask``, the mask of the column-sum
    certificate, whose column weights stop at 7.

    ``lane[p][q]`` is the lane of the root (p, q) and ``unit[j]`` is
    1 << width·j.  Before the first letter the simple rows and columns are
    in: ``acc`` and ``weight`` hold the column sums and weights of V·M,
    ``faults`` the simple columns that fail ``mask``, and ``below[i]`` the
    strings under level i, as a bit mask.
    """

    def __init__(self, n: int):
        roots = all_positive_roots(n)
        k = len(roots)
        self.n, self.k = n, k
        self.width = width = cone.lane_width(n // 2 << 3)
        self.mask = mask = cone.pack([(1 << width - 4) - 1] * k, width)
        self.simple = tuple(
            cone.pack([int(p <= j < q) for p, q in roots], width) for j in range(1, n + 1)
        )
        lane = [[0] * (n + 2) for _ in range(n + 2)]
        for j, (p, q) in enumerate(roots):
            lane[p][q] = j
        self.lane = tuple(map(tuple, lane))
        self.unit = tuple(1 << width * j for j in range(k))
        acc, weight = [0] * k, [0] * k
        for j, column in enumerate(self.simple, 1):
            acc[lane[j][j + 1]] += column
            weight[lane[j][j + 1]] += 1
        self.acc, self.weight = tuple(acc), tuple(weight)
        self.faults = sum(c & ~mask != 0 for c in self.simple)
        self.below = tuple((1 << n + 2) - (2 << i) for i in range(n + 1))
        self.pieces = None  # filled by the rank's first column (``fill_pieces``)

    def fill_pieces(self) -> tuple:
        """Build, store and return ``pieces``, the sums of simple columns 8
        boundary points at a time: ``pieces[g][x]`` is the sum of
        ``simple[8g + t]`` over the set bits t of x, one tuple of 256
        entries per 8 points (2^(n mod 8) in the last when 8 does not
        divide n), each entry one addition from the entry without its
        lowest bit.

        Filled on first use, so a rank whose columns are never read builds
        none (at n = 69 they would take about 10 MB).  ``pieces`` is an
        attribute that ``__init__`` assigns, not a
        ``functools.cached_property``: that one writes through the
        instance ``__dict__``, after which CPython 3.11 and 3.12 read every
        attribute of the table, as ``_packed_column`` does for each column,
        several times more slowly."""
        pieces = []
        for start in range(0, self.n, 8):
            simple = self.simple[start : start + 8]
            piece = [0] * (1 << len(simple))
            for x in range(1, len(piece)):
                piece[x] = piece[x & x - 1] + simple[(x & -x).bit_length() - 1]
            pieces.append(tuple(piece))
        self.pieces = tuple(pieces)
        return self.pieces

    def vector(self, x: int) -> RootVector:
        """The root vector whose lanes ``x`` packs."""
        return RootVector(self.n, cone.unpack(x, self.k, self.width))


@functools.lru_cache(maxsize=None)
def rank_table(n: int) -> RankTable:
    """The ``RankTable`` of rank n, built once."""
    return RankTable(n)


def v_simple(j: int, n: int) -> RootVector:
    """Indicator of the roots (p, q) with p <= j < j+1 <= q."""
    if not 1 <= j <= n:
        raise ValueError(f"simple root index {j} out of range [1, {n}]")
    table = rank_table(n)
    return table.vector(table.simple[j - 1])


def _strings_mask(members, n: int) -> int:
    """A set of strings as a bit mask, string s at bit s.  A string outside
    [1, n+1] raises the ValueError of ``wiring.chamber_boundary``."""
    s = frozenset(members)
    if not s.issubset(range(1, n + 2)):
        wiring.chamber_boundary(s, n)
    return sum(1 << x for x in s)


def _packed_column(table: RankTable, members: int) -> int:
    """The column of the chamber set whose strings are the set bits of
    ``members``: the sum of v_simple(t) over its boundary points t, the set
    bits of members ^ members >> 1 in [1, n], shifted right by one bit, and
    the bit each lane got from the next cleared.  The sum is read 8 points
    at a time from ``RankTable.pieces``.  A set that is not a chamber set
    raises the ValueError of ``wiring.chamber_boundary``."""
    n = table.n
    points = (members ^ members >> 1) & (2 << n) - 2
    if points & points - 1 == 0 or members & 1 or members >> n + 2:
        wiring.chamber_boundary({s for s in range(members.bit_length()) if members >> s & 1}, n)
    points >>= 1
    total = 0
    for piece in table.pieces or table.fill_pieces():
        total += piece[points & 255]
        points >>= 8
    return total >> 1 & table.mask


def chamber_column(members, n: int) -> RootVector:
    """Entrywise ceiling of half the weight vector of the components of a
    chamber set, as the floor of half the sum of v_simple(t) over its
    boundary points t (``_packed_column``)."""
    table = rank_table(n)
    return table.vector(_packed_column(table, _strings_mask(members, n)))


def v_partial_quiver(P: PartialQuiver) -> RootVector:
    """The column of P's chamber set, ``chamber_column``."""
    return chamber_column(pquiver.chamber_set_of(P), P.n)


def formula_vectors(n: int, chamber_list) -> list[int]:
    """The closed-form columns packed as in ``rank_table(n)``, in the order
    of ``cone.row_labels``: ``v_simple(j)``, then each ``chamber_column``,
    read off the chamber's mask.  An illegal chamber set raises ValueError
    naming the chamber's pair."""
    table = rank_table(n)
    columns = list(table.simple)
    for c in chamber_list:
        try:
            columns.append(_packed_column(table, c.mask))
        except ValueError as exc:
            raise ValueError(f"chamber ({c.left_pos}, {c.right_pos}): {exc}") from exc
    return columns


@dataclass(frozen=True)
class LabelVerdict:
    label: object
    formula: RootVector
    inverse: RootVector

    @property
    def equal(self) -> bool:
        return self.formula == self.inverse


@dataclass(frozen=True)
class TheoremReport:
    word: ReducedWord
    verdicts: tuple[LabelVerdict, ...]

    @property
    def overall(self) -> bool:
        return all(v.equal for v in self.verdicts)


def _verdicts(word: ReducedWord):
    """(verdicts, chambers) of the word, traced once.  A certified V is
    M^-1, and its own columns are the inverses.  Otherwise the rows are
    inverted exactly (``cone.checked_inverse``); if that gives V after all,
    the certificate is at fault: CertificateError."""
    n, table = word.n, rank_table(word.n)
    chamber_list = wiring.chambers(wiring.build_wiring(word))
    rows, packed = cone.root_rows(n, chamber_list), formula_vectors(n, chamber_list)
    labels = cone.row_labels(n, chamber_list)
    formulas = inverses = [table.vector(x) for x in packed]
    if not cone.certify_inverse(rows, packed, table.width):
        _, columns = cone.checked_inverse(labels, rows)
        inverses = [RootVector(n, col) for col in columns]
        if inverses == formulas:
            msg = "the certificate rejects the closed-form columns, but they equal the inverse"
            raise cone.CertificateError(f"{word.letters}: {msg}")
    return tuple(map(LabelVerdict, labels, formulas, inverses)), chamber_list


def verify_theorem(word: ReducedWord) -> TheoremReport:
    """Closed-form vector against inverse column, per row label (``_verdicts``)."""
    return TheoremReport(word=word, verdicts=_verdicts(word)[0])


def random_word(n: int, seed: int, t: int) -> ReducedWord:
    """The t-th word of the sample of seed ``seed``, drawn uniformly: the
    Edelman–Greene word of a hook-walk tableau (``words.edelman_greene``,
    ``words.hook_walk_tableau``), as in Angel, Holroyd, Romik and Virág,
    "Random sorting networks" (2007).  Integers only; the walk's generator
    is seeded from (seed, t) alone, so each process of ``verify_all`` draws
    its own words.  The word is validated once, on construction."""
    rng = random.Random(f"{seed}/{t}")
    return ReducedWord(n, edelman_greene(hook_walk_tableau(n, rng)))


def random_words(n: int, count: int, seed: int) -> list[ReducedWord]:
    """``count`` reduced words drawn uniformly and independently, with
    replacement: ``random_word(n, seed, t)`` for t = 0, ..., count-1."""
    return [random_word(n, seed, t) for t in range(count)]


@dataclass
class VerifyReport:
    n: int
    checked: int
    mismatches: list  # (word, label, formula, inverse, chamber fields)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "checked": self.checked,
            "mismatches": [
                {
                    "word": list(word.letters),
                    "label": label.to_json(),
                    "expected": list(formula.values),
                    "got": list(inverse.values),
                    **chamber,
                }
                for word, label, formula, inverse, chamber in self.mismatches
            ],
        }


def _chamber_fields(members, n: int) -> dict:
    """A chamber label's chamber set, its boundary and its partial quiver."""
    return {
        "chamber_set": sorted(members),
        "boundary": wiring.chamber_boundary(members, n),
        "partial_quiver": str(pquiver.partial_quiver_of(members, n)),
    }


# exhaustive verify: the largest rank where a failing configuration sends
# the run on to list every failing word (``_failing_words``), whose number
# grows with the number of all words, and the largest rank of all: the
# column table of ``_failing_triples`` peaked at 570 MB at n = 20 (49 s on
# a 2-core VM) and doubles with each rank
_LISTED_MAX_RANK = 7
_EXHAUSTIVE_MAX_RANK = 20


def _lane_sums(word: ReducedWord) -> tuple[list, list, int]:
    """(acc, weight, faults) of the certificate of ``word``, lane by lane:
    the column sums acc_j of V·M, the column weights w_j, and the faults:
    the lanes j with acc_j != ``RankTable.unit[j]``, those with w_j > 7,
    the chambers whose column raises or fails ``RankTable.mask``, and the
    simple columns that fail it (``RankTable.faults``).  The word is
    certified iff there are none.

    Two passes.  Over the letters, each level keeps its open region, with
    id 0 for its first, unbounded one.  Crossing t opens region t at its
    level, its right region, and closes the region open there before, its
    left region, if that one is bounded (id not 0): the chamber's column,
    ``_packed_column`` of the strings under the level, is then fixed, or
    is 0 and a fault if it raises or fails ``RankTable.mask``.  Each
    crossing records its lane, its left region and the regions open one
    level up and one level down.  Over the crossings, lane r of crossing t
    then gets the four chamber terms of its column of V·M, col[up] +
    col[down] - col[left] - col[t], and one weight for each of the four
    that was closed; a region that nothing closed, the first or the last
    of a level, is no chamber and adds 0 to both.  Every lane is crossed
    once, so acc and weight are complete.

    Soundness, as in ``cone.certify_inverse`` with b = width - 4:
    ``RankTable.mask`` keeps only entries in [0, 2^b), and w_j <= 7, so
    each digit (V·M)[i][j] of acc_j is at most 7·(2^b - 1) < 2^(width-1)
    in absolute value.  If acc_j is the unit, the digits of V·M - I, each
    below 2^width in absolute value, sum to zero with the weights
    2^(width·i); the lowest nonzero one would be a multiple of 2^width, so
    none is and V·M = I, which proves V = M^-1 for the square integer M.
    The weights are counted, one per chamber term, not read off the shape
    of the rows, so the proof holds whatever the rows are.
    """
    table = rank_table(word.n)
    lane, below, mask = table.lane, list(table.below), table.mask
    state = list(range(1, word.n + 2))
    opened = [0] * (word.n + 2)  # level -> its open region
    columns = [0] * (table.k + 1)  # region -> its column
    closed = bytearray(table.k + 1)  # region -> 1 once closed
    crossings, faults = [], table.faults
    for t, i in enumerate(word.letters, 1):
        a, b = state[i - 1], state[i]
        left = opened[i]
        if left:
            try:
                column = _packed_column(table, below[i])
            except Exception:  # raised again, naming the word, by its own check
                column = None
            if column is None or column & ~mask:
                faults += 1
                column = 0
            columns[left], closed[left] = column, 1
        crossings.append((lane[a][b], left, opened[i - 1], opened[i + 1]))
        opened[i] = t
        state[i - 1], state[i] = b, a
        below[i] ^= 1 << a | 1 << b
    acc, weight = list(table.acc), list(table.weight)
    for t, (r, left, up, down) in enumerate(crossings, 1):
        acc[r] += columns[up] + columns[down] - columns[left] - columns[t]
        weight[r] += closed[up] + closed[down] + closed[left] + closed[t]
    faults += sum(map(int.__ne__, acc, table.unit)) + sum(map((7).__lt__, weight))
    return acc, weight, faults


def _certified(word: ReducedWord) -> bool:
    """Whether the certificate of ``word``, read off the four regions
    around each crossing (``_lane_sums``), holds: no diagram, chamber,
    row, vector or verdict is built."""
    return not _lane_sums(word)[2]


def _failing_triples(n: int) -> list[tuple[int, int, int]]:
    """The crossing configurations (x, y, X) of rank n whose lane fails the
    certificate, in the order of x, then y, then X: each pair of strings
    x < y and each set X of other strings, as a bit mask (string s at bit
    s), k·2^(n-1) triples in all.  An empty list proves V·M = I for every
    reduced word of w0 (the module docstring has the proof).

    Lane r = ``RankTable.lane[x][y]`` of the triple has acc = ``acc[r]`` +
    col(X ∪ {x, y}) + col(X) - col(X ∪ {x}) - col(X ∪ {y}) and w =
    ``weight[r]`` + the number of those four sets that are bounded; an
    unbounded set, one whose boundary ∂S has at most one point (S is
    empty, full, {1..m} or {n+2-m..n+1}), adds 0 to both.  As in
    ``_lane_sums``, the triple fails if acc is not ``unit[r]``, if w > 7,
    or if a bounded set's column raises or fails ``RankTable.mask`` (it
    then adds 0 to acc); a simple column that fails the mask fails every
    triple.  The columns come from ``_packed_column``, once per bounded
    set, in a table of 2^(n+2) entries that lives for the call; its size
    sets ``_EXHAUSTIVE_MAX_RANK``."""
    table = rank_table(n)
    full, boundary = (1 << n + 2) - 2, (2 << n) - 2  # every string; the points [1, n]
    columns = [0] * (full + 1)  # bit mask of a set -> its column; 0 if unbounded or faulty
    bounded = bytearray(full + 1)
    faulty = set()  # bounded sets whose column raised or failed the mask
    for members in range(2, full, 2):
        points = (members ^ members >> 1) & boundary  # ∂S, as in _packed_column
        if points & points - 1:
            bounded[members] = 1
            try:
                column = _packed_column(table, members)
            except Exception:  # raised again, naming a word, by that word's own check
                column = None
            if column is None or column & ~table.mask:
                faulty.add(members)
            else:
                columns[members] = column
    unit, acc, weight, lane = table.unit, table.acc, table.weight, table.lane
    # a weight can pass 7 only if its lane starts above 3; then, or with a
    # faulty column, every triple takes the whole fault rule
    slow = table.faults or faulty or max(weight) > 3
    failing = []
    for x in range(1, n + 1):
        for y in range(x + 1, n + 2):
            r, bx, by = lane[x][y], 1 << x, 1 << y
            bxy, target = bx | by, unit[r] - acc[r]
            rest = full ^ bxy
            below = 0
            while True:  # every subset of rest, in increasing order
                up, left, right = below | bxy, below | by, below | bx
                if columns[up] + columns[below] - columns[left] - columns[right] != target or (
                    slow and (
                        table.faults
                        or weight[r] + bounded[up] + bounded[below] + bounded[left]
                        + bounded[right] > 7
                        or not faulty.isdisjoint((up, below, left, right))
                    )
                ):
                    failing.append((x, y, below))
                below = below - rest & rest
                if not below:
                    break
    return failing


def _witness(n: int, x: int, y: int, below: int) -> ReducedWord:
    """A reduced word of w0 whose crossing of strings x < y has exactly the
    strings of ``below`` (a bit mask, string s at bit s) under it: a reduced
    word of the permutation that lists the other strings, then x and y,
    then those of ``below``, top to bottom; the letter that crosses x and
    y; then a reduced word from there to w0.  Both words move the strings
    into their order top down, each up to its place past the strings not
    yet placed.  Those are smaller: in the first, they stay in increasing
    order; in the second, the largest string is placed first.  So every
    letter lengthens the product and the word is reduced; it is validated
    once, on construction."""
    strings = range(1, n + 2)
    state, letters = list(strings), []

    def place(order):
        for p, s in enumerate(order, 1):
            for i in range(state.index(s), p - 1, -1):
                letters.append(i)
                state[i - 1], state[i] = state[i], state[i - 1]

    others = [s for s in strings if s not in (x, y) and not below >> s & 1]
    place(others + [x, y] + [s for s in strings if below >> s & 1])
    i = len(others) + 1
    letters.append(i)
    state[i - 1], state[i] = y, x
    place(strings[::-1])
    return ReducedWord(n, tuple(letters))


def _failing_words(n: int, failing: set):
    """Yield the reduced words of w0 that meet a crossing configuration in
    ``failing``, a set of triples (x, y, X) as ``_failing_triples`` lists
    them, in the order of ``enumerate_reduced_words``.  Given every failing
    configuration of rank n, these are the words that are not certified
    (module docstring).

    A depth-first search of the weak order from the identity, letters
    smallest first.  A lengthening letter i crosses the strings a =
    state[i-1] < b = state[i] above the strings state[i+1:], so its
    configuration is (a, b, their bit mask), fixed by the permutation
    before it.  Once a prefix meets a failing configuration, every
    completion of it is listed.  Otherwise whether some completion meets
    one depends on the prefix's permutation alone.  A memo of the clean
    permutations, as bytes, those below which no completion meets one,
    each stored once all its children are done, prunes every clean subtree
    after its first visit; it holds at most (n+1)! keys.  The words come
    one at a time, so the first can be checked before the rest are found.
    The recursion is k + 1 generator frames deep."""
    k = n * (n + 1) // 2
    state, letters, clean = list(range(1, n + 2)), [], set()

    def visit(hit: bool):
        # yield the listed words through ``letters``; return whether any are
        if len(letters) == k:
            if hit:
                yield _reduced_by_construction(n, tuple(letters))
            return hit
        if not hit:
            key = bytes(state)
            if key in clean:
                return False
        found = False
        for i in range(1, n + 1):
            a, b = state[i - 1], state[i]
            if a < b:
                below = sum(1 << s for s in state[i + 1 :])
                state[i - 1], state[i] = b, a
                letters.append(i)
                found |= yield from visit(hit or (a, b, below) in failing)
                letters.pop()
                state[i - 1], state[i] = a, b
        if not (hit or found):
            clean.add(key)
        return found

    try:
        yield from visit(False)
    finally:
        visit = None  # it holds itself, and with it the memo, in a cycle: free both now


def _check_word(word: ReducedWord) -> list:
    """Check ``word`` on its own: its mismatch record for each label it
    fails, in label order.  An error raised on it is raised again as a
    ValueError naming its letters."""
    try:
        verdicts, chamber_list = _verdicts(word)
    except Exception as exc:
        raise ValueError(f"word {word.letters}: {type(exc).__name__}: {exc}") from exc
    return [
        (word, v.label, v.formula, v.inverse, _chamber_fields(ch.chamber_set, word.n) if ch else {})
        for v, ch in zip(verdicts, [None] * word.n + chamber_list)
        if not v.equal
    ]


def _check_sample(n: int, count: int, seed: int, share: int, shares: int):
    """Check one share of a sampled run: (words checked, [(index, mismatch
    record), ...]).  The share is the words share, share+shares, ..., each
    drawn here (``random_word``) and certified from the four regions
    around each of its crossings (``_certified``).  Only a word that is not
    certified is checked on its own (``_check_word``)."""
    mismatches = []
    indices = range(share, count, shares)
    for t in indices:
        word = random_word(n, seed, t)
        if not _certified(word):
            mismatches += [(t, record) for record in _check_word(word)]
    return len(indices), mismatches


def _send_share(conn, *args) -> None:
    """A child's share: its result, or its error's message, on ``conn``."""
    try:
        result = _check_sample(*args)
    except Exception as exc:
        result = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
    conn.send(result)
    conn.close()


def _receive_share(process, conn, share: int):
    """The result that ``process`` sent for ``share``; its error, or its
    death before sending, raises ValueError."""
    try:
        result = conn.recv()
    except EOFError:
        process.join()
        raise ValueError(
            f"share {share}: its process exited with code {process.exitcode} "
            "before sending its result"
        ) from None
    if isinstance(result, str):
        raise ValueError(result)
    return result


def verify_all(
    n: int,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> VerifyReport:
    """Check the theorem on every reduced word of w0 (``mode`` "exhaustive")
    or on ``count`` words drawn uniformly (``mode`` "sample"), and
    aggregate the mismatches.  A sampled word is certified by its column
    sums of V·M, read off the four regions around each crossing
    (``_certified``).  An exhaustive run checks each crossing configuration
    once instead (``_failing_triples``); when all pass, every word is
    certified, ``checked`` is their number (``words.reduced_word_count``)
    and no word is built.  A word that is not certified is checked on its
    own, as in ``verify_theorem``, and an error raised on it is re-raised as
    a ValueError naming its letters.

    When a configuration fails, an exhaustive run up to
    ``_LISTED_MAX_RANK`` checks every word that meets a failing
    configuration (``_failing_words``), in the order of their letters, as
    each is found; above it, it checks one word per failing configuration
    (``_witness``), in the order of the configurations.  An exhaustive run
    takes n <= ``_EXHAUSTIVE_MAX_RANK`` and runs in this process, whatever
    ``jobs`` says.  A sampled run is split into min(jobs, cores, count)
    shares, one per process: share i of s holds the words i, i+s, i+2s, ...
    (``_check_sample``).  The parent checks share 0 and starts one process
    per other share, which sends back only its count and mismatch records;
    the records are merged by index, so the report does not depend on
    ``jobs``.  A process that dies or raises ends the run with a
    ValueError, and no process outlives the call.  A rank below 1, or a
    run that would check no word, raises ValueError before any process
    starts."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    if mode == "exhaustive":
        if n > _EXHAUSTIVE_MAX_RANK:
            raise ValueError(
                f"exhaustive verify takes rank at most {_EXHAUSTIVE_MAX_RANK}, got {n}: "
                "its table of chamber columns would pass 1 GB"
            )
        failing = _failing_triples(n)
        if failing and n <= _LISTED_MAX_RANK:
            listed = _failing_words(n, set(failing))
        else:
            listed = (_witness(n, *triple) for triple in failing)
        mismatches = [record for word in listed for record in _check_word(word)]
        return VerifyReport(n=n, checked=reduced_word_count(n), mismatches=mismatches)
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1 in sample mode, got {count}")
    shares = min(jobs, os.cpu_count() or 1, count)
    args = (n, count, seed)
    children = []
    try:
        if shares > 1:
            import multiprocessing

            for share in range(1, shares):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(
                    target=_send_share, args=(sender, *args, share, shares), daemon=True
                )
                with sender:
                    process.start()
                children.append((process, receiver))
        results = [_check_sample(*args, 0, shares)]
        results += [_receive_share(p, conn, i) for i, (p, conn) in enumerate(children, 1)]
    except BaseException:
        for process, _ in children:
            process.terminate()
        raise
    finally:
        for process, conn in children:
            process.join()
            conn.close()
    records = sorted(itertools.chain.from_iterable(r for _, r in results), key=lambda r: r[0])
    return VerifyReport(n=n, checked=sum(c for c, _ in results),
                        mismatches=[record for _, record in records])
