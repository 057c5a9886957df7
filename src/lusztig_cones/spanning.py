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
holds the packed simple-root columns.  A component [a, b] counts at the
root (p, q) iff its points a-1 and b of the chamber set's boundary ∂S
(``wiring.chamber_boundary``) both lie in [p, q-1].  With N points of ∂S
there, the weight is max(N-1, 0), whose rounded-up half is ⌊N/2⌋; so a
chamber's column is the sum of v_simple(t) over t in ∂S, then one shift
and one mask, in every lane at once.  The certificate takes them packed:
a word that passes in ``verify_all`` builds no vector, label or verdict.
"""

from __future__ import annotations

import functools
import itertools
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

    ``simple[j - 1]`` is the indicator of the roots (p, q) with
    p <= j < q, and ``mask`` holds 2^(width-1) - 1 in every lane.  Entries
    reach ⌊n/2⌋ and a column of M weighs at most 5 (a simple row, two
    chambers ending at its crossing, two around it), so with ⌊n/2⌋·2^3 <
    2^(width-1) the mask of ``cone.certify_inverse`` passes every column.
    """

    def __init__(self, n: int):
        roots = all_positive_roots(n)
        self.n, self.k = n, len(roots)
        self.width = width = cone.lane_width(n // 2 << 3)
        self.mask = cone.pack([(1 << width - 1) - 1] * self.k, width)
        self.simple = tuple(
            cone.pack([int(p <= j < q) for p, q in roots], width) for j in range(1, n + 1)
        )

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
    """Indicator of the roots (p, q) with p < a(Y) <= b(Y) < q: those that
    contain both α_{a-1} and α_b."""
    if not 2 <= Y.a <= Y.b <= n:
        raise ValueError(f"component edges [{Y.a}, {Y.b}] out of range [2, {n}]")
    table = rank_table(n)
    return table.vector(table.simple[Y.a - 2] & table.simple[Y.b - 1])


def weight_vector(P: PartialQuiver) -> RootVector:
    """Sum of the component indicator vectors of P."""
    table = rank_table(P.n)
    simple = table.simple
    return table.vector(sum(simple[Y.a - 2] & simple[Y.b - 1] for Y in pquiver.components(P)))


def _packed_column(table: RankTable, members) -> int:
    total = sum(table.simple[t - 1] for t in wiring.chamber_boundary(members, table.n))
    return total >> 1 & table.mask


def chamber_column(members, n: int) -> RootVector:
    """Entrywise ceiling of half the weight vector of the components of a
    chamber set, as the floor of half the sum of v_simple(t) over its
    boundary points t: shift the packed sum right by one bit and clear the
    bit each lane got from the next."""
    table = rank_table(n)
    return table.vector(_packed_column(table, members))


def v_partial_quiver(P: PartialQuiver) -> RootVector:
    """The column of P's chamber set, ``chamber_column``."""
    return chamber_column(pquiver.chamber_set_of(P), P.n)


def formula_vectors(n: int, chamber_list) -> list[int]:
    """The closed-form columns packed as in ``rank_table(n)``, in the order
    of ``cone.row_labels``: ``v_simple(j)``, then each ``chamber_column``.
    An illegal chamber set raises ValueError naming the chamber's pair."""
    table = rank_table(n)
    columns = list(table.simple)
    for c in chamber_list:
        try:
            columns.append(_packed_column(table, c.chamber_set))
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


def _verdicts(word: ReducedWord, passing: bool):
    """(verdicts, chambers) of the word, traced once.  A certified V is
    M^-1: None, or with ``passing`` its own columns as the inverses.
    Otherwise the rows are inverted exactly (``cone.checked_inverse``); if
    that gives V after all, the certificate is at fault: CertificateError."""
    n, table = word.n, rank_table(word.n)
    chamber_list = wiring.chambers(wiring.build_wiring(word))
    rows, packed = cone.root_rows(n, chamber_list), formula_vectors(n, chamber_list)
    passed = cone.certify_inverse(rows, packed, table.width)
    if passed and not passing:
        return None
    labels = cone.row_labels(n, chamber_list)
    formulas = inverses = [table.vector(x) for x in packed]
    if not passed:
        _, columns = cone.checked_inverse(labels, rows)
        inverses = [RootVector(n, col) for col in columns]
        if inverses == formulas:
            msg = "the certificate rejects the closed-form columns, but they equal the inverse"
            raise cone.CertificateError(f"{word.letters}: {msg}")
    return tuple(map(LabelVerdict, labels, formulas, inverses)), chamber_list


def verify_theorem(word: ReducedWord) -> TheoremReport:
    """Closed-form vector against inverse column, per row label (``_verdicts``)."""
    return TheoremReport(word=word, verdicts=_verdicts(word, True)[0])


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


def _check_share(n: int, mode: str, count: int, seed: int, share: int, jobs: int):
    """Check the words share, share+jobs, share+2·jobs, ... of the run,
    enumerated or drawn here: (words checked, [(word index, mismatch
    record), ...]).  A certified word builds nothing."""
    if mode == "exhaustive":
        words = itertools.islice(enumerate_reduced_words(n), share, None, jobs)
    else:
        words = (random_word(n, seed, t) for t in range(share, count, jobs))
    checked, mismatches = 0, []
    for checked, word in enumerate(words, 1):
        try:
            failing = _verdicts(word, False)
        except Exception as exc:
            raise ValueError(f"word {word.letters}: {type(exc).__name__}: {exc}") from exc
        if failing:  # (verdicts, chambers)
            index = share + (checked - 1) * jobs
            for v, ch in zip(failing[0], [None] * word.n + failing[1]):
                if not v.equal:
                    fields = _chamber_fields(ch.chamber_set, word.n) if ch else {}
                    mismatches.append((index, (word, v.label, v.formula, v.inverse, fields)))
    return checked, mismatches


def _send_share(conn, *args) -> None:
    """A child's share: its result, or its error's message, on ``conn``."""
    try:
        result = _check_share(*args)
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
    """Run verify_theorem over many words and aggregate mismatches.  An
    error raised on a word is re-raised as a ValueError naming its letters.

    The run is split into J = min(jobs, words) shares by stride: share i
    holds the words i, i+J, i+2J, ...  The parent checks share 0 and
    starts one process per other share, which enumerates or draws
    (``random_word``) and checks its own words and sends back only its
    count and mismatch records; the records are merged in word order, so
    the report does not depend on ``jobs``.  A process that dies or
    raises ends the run with a ValueError, and no process outlives the
    call.  A run that would check no word raises ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if mode == "exhaustive":
        shares = sum(1 for _ in itertools.islice(enumerate_reduced_words(n), jobs))
    elif mode == "sample":
        if count < 1:
            raise ValueError(f"count must be at least 1 in sample mode, got {count}")
        shares = min(jobs, count)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    args = (n, mode, count, seed)
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
        results = [_check_share(*args, 0, shares)]
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
