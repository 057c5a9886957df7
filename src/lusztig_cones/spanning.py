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
soundness argument of ``_Sweep``, which holds as it stands.

Realisation: every permutation of the strings has a reduced word that
extends to one of w0, since w0 is the top of the weak order (Björner and
Brenti, *Combinatorics of Coxeter Groups*, ch. 3).  For x < y and any set
X of the other n-1 strings, list the other strings, then x and y, then X;
cross x and y; complete to w0 (``_witness``).  That word meets (x, y, X)
at a crossing.  So every reduced word of w0 is certified iff all
k·2^(n-1) configurations pass, and each failing one is met by a word
whose certificate fails.

When one fails, ranks up to ``_LISTED_MAX_RANK`` walk the prefix tree of
reduced words (``_walk``) to list every word that is not certified, one
step of the sweep per letter (``_Sweep``), each child stepped on a copy
of its parent's sweep, every word below a node sharing the chambers
closed above it.  Equal frontiers share one subtree.  Below a node the
walk reads only the strings, the lanes of the chamber open at each level,
their acc_j and w_j, and whether every other crossed lane is clean and
every closed chamber's column passed: a lane that no open chamber names
never changes again once crossed, and an uncrossed lane's sums are fixed
by the strings.  So the subtree of a clean node is a function of those
bytes (``_frontier``), and a per-call memo from them to the number of
words below, all certified, walks each clean subtree once.  An open
chamber's lanes are kept on two sides, the crossings one level up and one
level down, each in the order of its crossings; that order is the same in
every word of a commutation class, so commuting prefixes reach one key and
share one subtree: 76709 states for all 1100742656 words at n = 6.  Above
``_LISTED_MAX_RANK`` each failing configuration gives its witness.  A word
that is not certified, in any mode, is checked on its own (``_verdicts``),
which names the failing labels or raises.
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
    (``_Sweep``, ``_lane_sums``).

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
        attribute of the table, as the sweep does at each letter, several
        times more slowly."""
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


# the largest rank with at most 255 positive roots: every lane of a
# frontier key is then one byte below the separator 255 (``_frontier``)
_WALK_MAX_RANK = 22

# exhaustive verify: the largest rank where a failing configuration sends
# the run on to the walk, which lists every failing word (the clean walk
# takes about a minute and 620 MB at n = 7), and the largest rank of all:
# the column table of ``_failing_triples`` peaked at 570 MB at n = 20 (49 s
# on a 2-core VM) and doubles with each rank
_LISTED_MAX_RANK = 7
_EXHAUSTIVE_MAX_RANK = 20


def _frontier(state, opened, lower, acc, weight, unit, size: int) -> tuple[bytes, int]:
    """(key, dirty) of a node of ``_walk``: its frontier as bytes, and how
    many faults the lanes that ``opened`` and ``lower`` name hold (acc_j !=
    unit and w_j > 7 count one each).

    The key holds the strings, then the entries of ``opened`` and then of
    ``lower`` joined by the byte 255, which no lane takes, then the named
    lanes' w_j, one byte each, and their acc_j, ``size`` signed bytes each,
    in the order of each lane's first appearance.  The strings and entries
    fix how many lanes follow and every value has a fixed width, so equal
    keys are equal frontiers; a value too large for its bytes raises.  The
    lanes are ``_Sweep.lanes``, one byte each, so n <= ``_WALK_MAX_RANK``."""
    sides = b"\xff".join(opened + lower)
    lanes = dict.fromkeys(sides)
    del lanes[255]
    parts = [bytes(state), sides, bytes(map(weight.__getitem__, lanes))]
    dirty = 0
    for j in lanes:
        x = acc[j]
        dirty += (x != unit[j]) + (weight[j] > 7)
        parts.append(x.to_bytes(size, "little", signed=True))
    return b"".join(parts), dirty


class _Sweep:
    """A word's wiring trace, letter by letter, with the counters of the
    certificate: the step that ``_walk`` takes at each node of the prefix
    tree, where every prefix needs its acc_j for the frontier key.

    ``push(i)`` swaps the strings at levels i and i+1, whose crossing is
    the root of lane r, and closes the chamber open at level i, if one is:
    its row (-1 at its left and right crossings, +1 at the crossings one
    level up or down in between, as in ``cone.root_rows``) and its column
    (``_packed_column`` of ``below[i]``, the strings under level i, as in
    ``formula_vectors``, memoised per chamber set) are fixed there.  For
    each (j, a) of the row it adds a·column to acc_j, the running column j
    of V·M, and |a| = 1 to the column weight w_j.  The lanes of the chamber
    open at level i are kept on two sides, each in the order of its
    crossings: ``opened[i]`` holds its left crossing, then the crossings at
    level i-1 since, and ``lower[i]`` the crossings at level i+1 since.
    ``faults`` counts the crossed lanes j with acc_j != 1 << width·j,
    those with w_j > 7, and the closed chambers whose column is illegal or
    fails ``RankTable.mask``.  The simple rows and columns are in from the
    root (``RankTable``).  ``lanes[j]`` is lane j as one byte below the
    keys' separator 255 (``_frontier``), so n <= ``_WALK_MAX_RANK``.
    ``push`` works in place and is never undone: ``_walk`` pushes each
    child on a ``copy()`` of its parent.

    The two sides make every prefix of one commutation class reach the
    same sweep.  Two letters at one level never commute, nor do letters at
    adjacent levels; so the letters i-1 between two letters i are the same,
    in the same order, in every word of the class, and each side's time
    order is canonical.  Letters i-1 and i+1 commute, and one list of both
    would record the order in which a word happens to interleave them.
    The lanes of a row are distinct, and the row adds to each on its own:
    acc_j, w_j and the change in ``faults`` do not depend on the order in
    which its lanes are taken.

    Once every letter of a reduced word of w0 is in, every lane is crossed
    and every chamber closed, so the rows and columns are the word's, and
    the word is certified iff ``faults`` is 0.  A chamber whose
    ``_packed_column`` raises leaves the word uncertified: its per-word
    check raises the error.

    Soundness, as in ``cone.certify_inverse`` with b = width - 4:
    ``RankTable.mask`` admits only entries in [0, 2^b), and w_j <= 7, so
    each digit (V·M)[i][j] of acc_j is at most 7·(2^b - 1) < 2^(width-1)
    in absolute value.  If acc_j is the unit, the digits of V·M - I, each
    below 2^width in absolute value, sum to zero with the weights
    2^(width·i); the lowest nonzero one would be a multiple of 2^width, so
    none is and V·M = I, which proves V = M^-1 for the square integer M.
    The weights are counted, not read off the shape of the rows, so the
    proof holds whatever the rows are.
    """

    __slots__ = (
        "table", "lanes", "state", "below", "opened", "lower", "acc", "weight", "faults",
        "columns",
    )

    def __init__(self, table: RankTable):
        if table.n > _WALK_MAX_RANK:
            raise ValueError(f"the sweep takes rank at most {_WALK_MAX_RANK}, got {table.n}")
        self.table = table
        self.lanes = tuple(bytes((j,)) for j in range(table.k))  # lane j as one byte
        self.state = list(range(1, table.n + 2))  # the strings, top to bottom
        self.below = list(table.below)
        self.opened = [b""] * (table.n + 2)  # level i -> left crossing, crossings at i-1
        self.lower = [b""] * (table.n + 2)  # level i -> crossings at i+1
        self.acc, self.weight, self.faults = list(table.acc), list(table.weight), table.faults
        self.columns = {}  # chamber set, as a bit mask of strings -> its column, None if it raised

    def copy(self) -> _Sweep:
        """A sweep in the same state, whose pushes leave this one as it is:
        its own six lists, and this one's table, lanes and column memo (the
        memo only gains columns, which hold in every sweep of the rank)."""
        other = _Sweep.__new__(_Sweep)
        other.table, other.lanes, other.columns = self.table, self.lanes, self.columns
        other.state, other.below = self.state.copy(), self.below.copy()
        other.opened, other.lower = self.opened.copy(), self.lower.copy()
        other.acc, other.weight, other.faults = self.acc.copy(), self.weight.copy(), self.faults
        return other

    def push(self, i: int) -> None:
        table, state, opened, lower = self.table, self.state, self.opened, self.lower
        acc, weight, unit = self.acc, self.weight, table.unit
        a, b = state[i - 1], state[i]
        r, left, under, down = table.lane[a][b], opened[i], lower[i], opened[i + 1]
        crossing = self.lanes[r]
        faults = self.faults + (acc[r] != unit[r]) + (weight[r] > 7)  # r is crossed now
        if left:
            members, columns = self.below[i], self.columns
            if members not in columns:
                try:
                    columns[members] = _packed_column(table, members)
                except Exception:  # raised again, naming the word, by its own check
                    columns[members] = None
            column = columns[members]
            if column is None or column & ~table.mask:
                faults += 1
                column = 0
            # -column to the left and right crossings, +column to both sides
            for lanes, d in ((left[:1] + crossing, -column), (left[1:] + under, column)):
                for j in lanes:
                    x, w = acc[j], weight[j]
                    acc[j] = y = x + d
                    weight[j] = w + 1
                    faults += (x == unit[j]) - (y == unit[j]) + (w == 7)
        if opened[i - 1]:
            lower[i - 1] += crossing
        if down:
            opened[i + 1] = down + crossing
        opened[i], lower[i] = crossing, b""
        state[i - 1], state[i] = b, a
        self.below[i] ^= 1 << a | 1 << b
        self.faults = faults


def _lane_sums(word: ReducedWord) -> tuple[list, list, int]:
    """(acc, weight, faults) of the certificate of ``word``, lane by lane:
    the column sums acc_j of V·M, the column weights w_j, and the faults,
    all as ``_Sweep`` has them once every letter is in.

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
    once, so acc and weight are complete.  The faults count as in
    ``_Sweep``, whose soundness argument holds as it stands: the weights
    are counted, one per chamber term.
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


def _walk(n: int, uncertified):
    """Certify the reduced words of w0 along their prefix tree, and call
    ``uncertified`` on each word it does not certify, in the order of
    ``enumerate_reduced_words``: (words, internal nodes expanded).

    A recursion over reduced prefixes, letters smallest first, with one
    step of the sweep per node (``_Sweep``), taken on a copy of the
    parent's: a chamber's row and column are fixed where it closes, and
    every word below shares them.  At a leaf the word is certified iff
    ``faults`` is 0.  The recursion is k + 1 <= 254 frames deep for
    n <= ``_WALK_MAX_RANK``, below Python's default limit of 1000.

    Equal frontiers share one subtree: the transfer-matrix method
    (Stanley, *Enumerative Combinatorics I*, §4.7) on the frontier of the
    sweep, as in frontier-based ZDD search (Knuth, *TAOCP* 7.1.4).  A row
    touches its own crossing and lanes that ``opened`` and ``lower`` name,
    and nothing else, so a crossed lane that no entry names never changes
    again, and a lane not yet crossed still holds its value from the root,
    which the strings fix.  A node is clean when ``faults`` equals the
    faults of the named lanes (``_frontier``): no closed chamber failed and
    every crossed lane that no entry names is clean.  The key of a clean
    node then fixes everything the walk reads below it, ``faults``
    included, and a column depends on its chamber set alone; so clean
    nodes with equal keys have the same number of words below them, and
    the same words certified.  The key holds each open chamber's two sides
    apart, each in the order of its crossings, which is the same in every
    word of the prefix's commutation class (``_Sweep``); so the prefixes of
    one class, one pseudoline arrangement (heaps: Viennot 1986;
    Cartier–Foata), write one key, and their subtrees are walked once.  No
    order between the sides is needed: a row adds to each of its lanes on
    its own, in whatever order the lanes are taken.
    The memo maps the key of a clean node whose words were all certified
    to their number, and a node whose key it holds is not expanded.  Faults
    never clear below a dirty node, so it certifies no word; it is
    expanded node by node, as is a clean node with an uncertified word
    below it, and no uncertified word is skipped.  The memo lives for one
    call, which runs in one process: split between processes, each share
    would meet almost every frontier of the whole walk again.  The keys
    hold lanes as bytes, so n <= ``_WALK_MAX_RANK``.
    """
    table = rank_table(n)
    k, unit = table.k, table.unit
    # an acc_j sums at most k + 1 values below 2^(k·width), so with its sign
    # it fits k·width + 9 bits
    size = (k * table.width + 16) // 8
    memo = {}  # key of a clean node -> its words, all certified
    expanded = 0

    def visit(node: _Sweep, prefix: tuple) -> tuple[int, bool]:
        # (words below the node that prefix reaches, whether all certified)
        nonlocal expanded
        if len(prefix) == k:
            if node.faults:
                uncertified(_reduced_by_construction(n, prefix))
            return 1, not node.faults
        key, dirty = _frontier(
            node.state, node.opened, node.lower, node.acc, node.weight, unit, size
        )
        clean = dirty == node.faults
        if clean and key in memo:
            return memo[key], True
        expanded += 1
        words, certified = 0, True
        state = node.state
        for i in range(1, n + 1):
            if state[i - 1] < state[i]:
                child = node.copy()
                child.push(i)
                below, passed = visit(child, prefix + (i,))
                words += below
                certified = certified and passed
        if clean and certified:
            memo[key] = words
        return words, certified

    words = visit(_Sweep(table), ())[0]
    visit = None  # it holds itself and the memo in a cycle: free the memo now
    return words, expanded


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
    ``_LISTED_MAX_RANK`` walks the prefix tree (``_walk``) and checks every
    word that the walk does not certify, in the order of their letters;
    above it, it checks one word per failing configuration
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
        failing, mismatches = _failing_triples(n), []
        if failing and n <= _LISTED_MAX_RANK:
            checked, _ = _walk(n, lambda word: mismatches.extend(_check_word(word)))
            return VerifyReport(n=n, checked=checked, mismatches=mismatches)
        for triple in failing:
            mismatches += _check_word(_witness(n, *triple))
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
