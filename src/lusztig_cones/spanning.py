"""Closed-form spanning vectors and the verifier of the theorem.

Every Lusztig cone has n spanning vectors common to all words, one per
simple root, plus one per bounded chamber; the latter depend only on the
chamber's partial quiver P and equal the rounded-up half of the sum of
the component indicator vectors of P.  ``verify_theorem`` checks this in
root coordinates by certificate: the closed-form columns V pass iff
M·V = I exactly for the defining matrix M, which proves V = M^-1.  Only
when the certificate fails is M inverted (Bareiss), so that each mismatch
carries the true inverse column.
"""

from __future__ import annotations

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


def v_simple(j: int, n: int) -> RootVector:
    """Indicator of the roots (p, q) with p <= j < j+1 <= q."""
    if not 1 <= j <= n:
        raise ValueError(f"simple root index {j} out of range [1, {n}]")
    return RootVector(n, tuple(int(p <= j < q) for p, q in all_positive_roots(n)))


def v_component(Y: Component, n: int) -> RootVector:
    """Indicator of the roots (p, q) with p < a(Y) <= b(Y) < q."""
    return RootVector(n, tuple(int(p < Y.a and Y.b < q) for p, q in all_positive_roots(n)))


def weight_vector(P: PartialQuiver) -> RootVector:
    """Sum of the component indicator vectors of P."""
    n = P.n
    total = [0] * len(all_positive_roots(n))
    for Y in pquiver.components(P):
        for idx, v in enumerate(v_component(Y, n).values):
            total[idx] += v
    return RootVector(n, tuple(total))


def v_partial_quiver(P: PartialQuiver) -> RootVector:
    """Entrywise ceiling of half the weight vector (1/2 rounds up).

    Built row by row of roots (p, .): the weight at (p, q) counts the
    components Y with p < a(Y) and b(Y) < q.  The components are disjoint
    runs, so those with p < a(Y) are a suffix of them ordered by a(Y), and
    along q the weight rises by one just after each of their b(Y).
    """
    n = P.n
    runs = pquiver.components(P)[::-1]  # right to left: a(Y) and b(Y) ascend
    values: list[int] = []
    first = 0
    for p in range(1, n + 1):
        while first < len(runs) and runs[first].a <= p:
            first += 1
        q = p + 1
        for weight, Y in enumerate(runs[first:]):
            values += [(weight + 1) // 2] * (Y.b + 1 - q)
            q = Y.b + 1
        values += [(len(runs) - first + 1) // 2] * (n + 2 - q)
    return RootVector(n, tuple(values))


def formula_vectors(n: int, chamber_list) -> list[RootVector]:
    """The closed-form columns, in the label order of ``cone.root_rows``:
    ``v_simple(j)`` for j = 1..n, then ``v_partial_quiver`` of each chamber's
    partial quiver.  An illegal chamber set raises ValueError."""
    return [v_simple(j, n) for j in range(1, n + 1)] + [
        v_partial_quiver(pquiver.partial_quiver_of(c.chamber_set, n))
        for c in chamber_list
    ]


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
    M is inverted exactly, and the verdicts carry the true inverse columns;
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
        by_label = cone.spanning_set(word).root_vectors()
        inverses = [by_label[label] for label in labels]
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
    again."""
    if mode == "exhaustive":
        words = list(enumerate_reduced_words(n))
    elif mode == "sample":
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
