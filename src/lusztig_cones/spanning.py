"""Closed-form spanning vectors and the verifier of the theorem.

Every Lusztig cone has n spanning vectors common to all words, one per
simple root, plus one per bounded chamber; the latter depend only on the
chamber set, and equal the rounded-up half of the sum of the indicator
vectors of the components read off it (``pquiver.chamber_components``).
``verify_theorem`` checks this in root coordinates by certificate: the
closed-form columns V pass iff V·M = I exactly for the defining matrix M,
which proves V = M^-1.  Only when the certificate fails is M inverted
(Bareiss), so that each mismatch carries the true inverse column.

The columns are computed on packed integers, one lane of bits per
positive root (``cone.pack``).  ``rank_table(n)``, built once per rank,
holds the packed indicator of every component and simple root, so a
chamber's column is one sum of table entries, then one add, one shift
and one mask: the rounded-up half of the weight, in every lane at once.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import cone, pquiver, wiring
from .cone import RootVector
from .pquiver import Component, PartialQuiver
from .words import (
    ReducedWord,
    all_positive_roots,
    edelman_greene,
    enumerate_reduced_words,
    hook_walk_tableau,
)


class RankTable:
    """Packed integer vectors of rank n: one lane of ``width`` bits per
    positive root, in the order of ``all_positive_roots(n)``
    (``cone.pack``).

    ``component[a, b]`` is the indicator of the roots (p, q) with
    p < a <= b < q, for 2 <= a <= b <= n; ``simple[j - 1]`` is the
    indicator of the roots with p <= j < q.  Each is the lanes of the roots
    with p < a, a prefix of the lanes, ANDed with the lanes of the roots
    with q > b.  ``ones`` holds 1 in every lane and ``mask``
    2^(width-1) - 1 in every lane.  A lane holds up to n, the largest
    weight plus one, without a carry into the next.
    """

    def __init__(self, n: int):
        roots = all_positive_roots(n)
        self.n, self.k = n, len(roots)
        self.width = width = cone.lane_width(n)
        self.ones = ones = cone.pack([1] * self.k, width)
        self.mask = ones * ((1 << width - 1) - 1)
        # the roots with p < a are the first (a-1)(2n+2-a)/2 lanes
        before = {
            a: ones & ((1 << width * ((a - 1) * (2 * n + 2 - a) // 2)) - 1)
            for a in range(2, n + 2)
        }
        after = {b: cone.pack([int(q > b) for _, q in roots], width) for b in range(1, n + 1)}
        self.component = {
            (a, b): before[a] & after[b] for a in range(2, n + 1) for b in range(a, n + 1)
        }
        self.simple = tuple(before[j + 1] & after[j] for j in range(1, n + 1))

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


def v_component(Y: Component, n: int) -> RootVector:
    """Indicator of the roots (p, q) with p < a(Y) <= b(Y) < q."""
    if not 2 <= Y.a <= Y.b <= n:
        raise ValueError(f"component edges [{Y.a}, {Y.b}] out of range [2, {n}]")
    table = rank_table(n)
    return table.vector(table.component[Y.a, Y.b])


def weight_vector(P: PartialQuiver) -> RootVector:
    """Sum of the component indicator vectors of P."""
    table = rank_table(P.n)
    return table.vector(sum(table.component[Y.a, Y.b] for Y in pquiver.components(P)))


def chamber_column(members, n: int) -> RootVector:
    """Entrywise ceiling of half the weight vector of the components of a
    chamber set: add 1 to every lane of the packed weight, shift the whole
    int right by one bit and clear the bit each lane got from the next."""
    table = rank_table(n)
    weight = sum(table.component[Y.a, Y.b] for Y in pquiver.chamber_components(members, n))
    return table.vector((weight + table.ones) >> 1 & table.mask)


def v_partial_quiver(P: PartialQuiver) -> RootVector:
    """The column of P's chamber set, ``chamber_column``."""
    return chamber_column(pquiver.chamber_set_of(P), P.n)


def formula_vectors(n: int, chamber_list) -> list[RootVector]:
    """The closed-form columns, in the label order of ``cone.root_rows``:
    ``v_simple(j)`` for j = 1..n, then ``chamber_column`` of each chamber's
    set, with no partial quiver built.  An illegal chamber set raises
    ValueError naming the chamber's pair of positions."""
    columns = [v_simple(j, n) for j in range(1, n + 1)]
    for c in chamber_list:
        try:
            columns.append(chamber_column(c.chamber_set, n))
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


def verify_theorem(word: ReducedWord) -> TheoremReport:
    """Compare the closed-form vectors with the columns of the inverse
    defining matrix, one verdict per row label.

    The word is traced once; its chambers give both the sparse rows of M
    and the closed-form columns V.  When ``cone.certify_inverse`` accepts V,
    V is M^-1 and each verdict's inverse is its certified column.  Otherwise
    the same sparse rows are inverted exactly (``cone.checked_inverse``),
    and the verdicts carry the true inverse columns, in root coordinates;
    if those equal V after all, the certificate is at fault and
    ``cone.CertificateError`` is raised.
    """
    n = word.n
    chamber_list = wiring.chambers(wiring.build_wiring(word))
    labels, rows = cone.root_rows(n, chamber_list)
    formulas = formula_vectors(n, chamber_list)
    if cone.certify_inverse(rows, [v.values for v in formulas]):
        inverses = formulas
    else:
        _, columns = cone.checked_inverse(labels, rows)
        inverses = [RootVector(n, col) for col in columns]
        if inverses == formulas:
            raise cone.CertificateError(
                f"{word.letters}: the certificate rejects the closed-form "
                "columns, but they equal the exact inverse"
            )
    verdicts = tuple(
        LabelVerdict(label=label, formula=f, inverse=v)
        for label, f, v in zip(labels, formulas, inverses)
    )
    return TheoremReport(word=word, verdicts=verdicts)


def random_words(n: int, count: int, seed: int) -> list[ReducedWord]:
    """``count`` reduced words drawn uniformly, with replacement: each is
    the Edelman–Greene word of a hook-walk tableau (``words.edelman_greene``,
    ``words.hook_walk_tableau``), as in Angel, Holroyd, Romik and Virág,
    "Random sorting networks" (2007).  Integers only, deterministic given
    (n, count, seed); each word is validated once, on construction."""
    rng = random.Random(seed)
    return [
        ReducedWord(n, edelman_greene(hook_walk_tableau(n, rng)))
        for _ in range(count)
    ]


@dataclass
class VerifyReport:
    n: int
    checked: int
    mismatches: list  # (word, label, formula, inverse)

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
                }
                for word, label, formula, inverse in self.mismatches
            ],
        }


def _check_words(words) -> list:
    mismatches = []
    for word in words:
        try:
            report = verify_theorem(word)
        except Exception as exc:
            raise ValueError(
                f"word {word.letters}: {type(exc).__name__}: {exc}"
            ) from exc
        for v in report.verdicts:
            if not v.equal:
                mismatches.append((report.word, v.label, v.formula, v.inverse))
    return mismatches


def verify_all(
    n: int,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> VerifyReport:
    """Run verify_theorem over many words and aggregate mismatches.  An
    error raised on a word is re-raised as a ValueError naming its letters.

    The words enumeration or sampling built are checked as they are, and
    pickled to the ``jobs`` workers; unpickling does not validate them
    again.  A run that would check no word raises ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if mode == "exhaustive":
        words = list(enumerate_reduced_words(n))
    elif mode == "sample":
        if count < 1:
            raise ValueError(f"count must be at least 1 in sample mode, got {count}")
        words = random_words(n, count, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if jobs > 1 and len(words) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [words[i::jobs] for i in range(jobs) if words[i::jobs]]
        mismatches = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_check_words, chunks):
                mismatches.extend(part)
    else:
        mismatches = _check_words(words)
    return VerifyReport(n=n, checked=len(words), mismatches=mismatches)
