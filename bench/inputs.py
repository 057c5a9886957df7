"""The workloads and their seeded inputs.

Walked words are plain letter tuples and query sessions plain
specifications, so the program receives only what the seed determines.
This module and ``lusztig_cones.cli`` are all a set-up probe imports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from lusztig_cones.words import ReducedWord, enumerate_reduced_words


def staircase(n: int) -> tuple[int, ...]:
    return tuple(i for m in range(1, n + 1) for i in range(m, 0, -1))


def braid_moves(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    """(0-based position, length) of every applicable braid move."""
    k = len(letters)
    moves = [(p, 2) for p in range(k - 1) if abs(letters[p] - letters[p + 1]) >= 2]
    moves += [
        (p, 3)
        for p in range(k - 2)
        if letters[p] == letters[p + 2] and abs(letters[p] - letters[p + 1]) == 1
    ]
    return moves


def apply_move(letters: tuple[int, ...], move: tuple[int, int]) -> tuple[int, ...]:
    p, length = move
    w = list(letters)
    if length == 2:
        w[p], w[p + 1] = w[p + 1], w[p]
    else:
        w[p : p + 3] = [w[p + 1], w[p], w[p + 1]]
    return tuple(w)


def walk_words(n: int, count: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Successive states of a braid-move walk from the staircase word,
    k moves apart.  The inputs only need variety, not uniformity."""
    word = staircase(n)
    out = []
    for _ in range(count):
        for _ in range(len(word)):
            word = apply_move(word, rng.choice(braid_moves(word)))
        out.append(word)
    return out


def word_count(n: int) -> int:
    """Number of reduced words of w0: standard tableaux of staircase shape
    (hook length formula)."""
    rows = list(range(n, 0, -1))
    hooks = 1
    for r, row_len in enumerate(rows):
        for c in range(row_len):
            below = sum(1 for rr in range(r + 1, n) if rows[rr] > c)
            hooks *= row_len - c + below
    return math.factorial(n * (n + 1) // 2) // hooks


def session_specs(n: int, count: int, rng: random.Random) -> list[dict]:
    """Query sessions: a quiver and planted coefficients.

    Coefficients are keyed ("simple", j) for the simple-root vectors and
    ("pq", (a, b)) for the partial quiver of Q on edges a..b.  The inside
    point has every coefficient >= 0; the outside point sets one to -1.
    """
    specs = []
    for _ in range(count):
        symbols = "".join(rng.choice("LR") for _ in range(n - 1))
        coeffs = {("simple", j): rng.randrange(4) for j in range(1, n + 1)}
        for a in range(2, n + 1):
            for b in range(a, n + 1):
                coeffs[("pq", (a, b))] = rng.randrange(4)
        outside = rng.choice(sorted(coeffs))
        specs.append({"quiver": symbols, "coeffs": coeffs, "outside": outside})
    return specs


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    mode: str  # verify mode
    count: int  # words per verify call
    jobs: int  # verify --jobs, capped by nproc
    pool: int  # distinct words of the per-word loop
    trace_words: int  # words replayed layer by layer in the traced run
    trace_sessions: int  # query sessions in the traced run
    pool_count: int  # words verified at --jobs 1 and --jobs 2 when traced

    @property
    def k(self) -> int:
        return self.n * (self.n + 1) // 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exhaustive-n4", 4, "exhaustive", word_count(4), 1, 768, 128, 8, 0),
        Workload("sample-n12", 12, "sample", 6, 1, 48, 6, 3, 6),
        Workload("sample-n7-jobs2", 7, "sample", 150, 2, 256, 48, 8, 100),
    )
}


@dataclass
class State:
    """A workload's inputs, built from the seed during set-up."""

    workload: Workload
    seed: int
    words: list  # ReducedWord pool for the per-word loop
    call_seeds: random.Random  # seeds of successive verify calls
    failures: list  # checks of the set-up itself


def prepare(w: Workload, seed: int) -> State:
    """The exhaustive pool is every reduced word, in seeded order; its
    size is checked against the hook length formula."""
    rng = random.Random(f"{w.name}/{seed}")
    failures = []
    if w.mode == "exhaustive":
        words = sorted(enumerate_reduced_words(w.n), key=lambda x: x.letters)
        if len(words) != word_count(w.n):
            failures.append(f"enumerated {len(words)} reduced words, {word_count(w.n)} expected")
        rng.shuffle(words)
    else:
        words = [ReducedWord(w.n, x) for x in walk_words(w.n, w.pool, rng)]
    return State(w, seed, words, random.Random(f"{w.name}/{seed}/calls"), failures)
