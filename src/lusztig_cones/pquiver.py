"""Quivers and partial quivers of type A_n.

Edges of the Dynkin graph are numbered 2..n starting at the *right* end.
A partial quiver directs a nonempty contiguous interval of edges, each L
(leftward) or R (rightward); display strings list edges left to right,
i.e. from edge n down to edge 2, as in ``---LRLL-``.

The map ``chamber_set_of`` is a bijection between partial quivers and
legal chamber sets.  Chamber sets are canonical and a partial quiver is a
view: the components are the runs of strings between consecutive points
of the set's boundary (``wiring.chamber_boundary``).
``bfz_word`` builds a reduced word compatible with a full quiver from its
sinks, each found after reflecting the quiver at the sinks before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import wiring
from .words import ReducedWord

SYMBOLS = ("L", "R", "-")


@dataclass(frozen=True)
class PartialQuiver:
    """Orientation symbols for edges n..2, left to right."""

    n: int
    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.n < 2:
            raise ValueError(f"partial quivers need n >= 2, got n={self.n}")
        if len(self.symbols) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} edge symbols, got {len(self.symbols)}"
            )
        if any(s not in SYMBOLS for s in self.symbols):
            raise ValueError(f"bad edge symbols in {self.symbols}")
        directed = str(self).strip("-")
        if not directed:
            raise ValueError("a partial quiver needs at least one directed edge")
        if "-" in directed:
            raise ValueError("directed edges must form a contiguous interval")

    @classmethod
    def from_string(cls, s: str, n: int | None = None) -> "PartialQuiver":
        return cls(len(s) + 1 if n is None else n, tuple(s))

    def __str__(self) -> str:
        return "".join(self.symbols)

    def edge(self, e: int) -> str:
        """Symbol of edge e, 2 <= e <= n."""
        if not 2 <= e <= self.n:
            raise ValueError(f"edge {e} out of range [2, {self.n}]")
        return self.symbols[self.n - e]

    def directed_edges(self) -> list[int]:
        return list(range(self.rightmost, self.leftmost + 1))

    @property
    def rightmost(self) -> int:
        """Edge index a of the rightmost directed edge (smallest index)."""
        return self.n + 1 - len(str(self).rstrip("-"))

    @property
    def leftmost(self) -> int:
        """Edge index b of the leftmost directed edge (largest index)."""
        return len(str(self).lstrip("-")) + 1

    @property
    def is_full(self) -> bool:
        return "-" not in self.symbols


@dataclass(frozen=True)
class Quiver(PartialQuiver):
    """A partial quiver with every edge directed."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_full:
            raise ValueError(f"quiver {''.join(self.symbols)} has undirected edges")

    def left_edges(self) -> set[int]:
        """The set Lambda of edges pointing left."""
        return {e for e in range(2, self.n + 1) if self.edge(e) == "L"}


@dataclass(frozen=True)
class Component:
    """A maximal run of equally oriented edges, spanning edges [a, b]."""

    type: str  # "L" or "R"
    a: int  # rightmost edge index of the run
    b: int  # leftmost edge index of the run


def leq(P: PartialQuiver, P2: PartialQuiver) -> bool:
    """True iff every directed edge of P is directed the same way in P2."""
    if P.n != P2.n:
        raise ValueError(f"rank mismatch: {P.n} vs {P2.n}")
    return all(P2.edge(e) == P.edge(e) for e in P.directed_edges())


def components(P: PartialQuiver) -> list[Component]:
    """Maximal same-orientation runs, left to right."""
    return chamber_components(chamber_set_of(P), P.n)


def chamber_set_of(P: PartialQuiver) -> frozenset[int]:
    """The chamber set labelled by P (the bijection, forward direction)."""
    directed = "".join(P.symbols).lstrip("-")
    b = len(directed) + 1  # the leftmost directed edge; directed[i] is edge b - i
    directed = directed.rstrip("-")
    below = range(1, b + 1 - len(directed)) if directed[-1] == "R" else ()
    above = range(b + 1, P.n + 2) if directed[0] == "R" else ()
    return frozenset([*below, *(b - i for i, s in enumerate(directed) if s == "L"), *above])


def chamber_components(members, n: int) -> list[Component]:
    """The components of the chamber set's partial quiver, left to right.

    Edge e points left iff string e is in the set, so each component is a
    run of equal membership: the strings c+1..c' between consecutive
    boundary points c < c' (``wiring.chamber_boundary``), type L iff c' is
    in the set.
    """
    s = frozenset(members)
    top = wiring.chamber_boundary(s, n)[::-1]
    return [Component("L" if c in s else "R", below + 1, c) for c, below in zip(top, top[1:])]


def partial_quiver_of(members, n: int) -> PartialQuiver:
    """The partial quiver labelling a chamber set (inverse bijection)."""
    symbols = ["-"] * (n - 1)
    for Y in chamber_components(members, n):
        symbols[n - Y.b : n + 1 - Y.a] = Y.type * (Y.b - Y.a + 1)
    return PartialQuiver(n, tuple(symbols))


def all_quivers(n: int) -> Iterator[Quiver]:
    """All 2^{n-1} quivers of type A_n."""
    for symbols in itertools.product("LR", repeat=n - 1):
        yield Quiver(n, symbols)


def all_partial_quivers(n: int) -> Iterator[PartialQuiver]:
    """All 2^{n+1} - 2(n+1) partial quivers of type A_n."""
    for a in range(2, n + 1):
        for b in range(a, n + 1):
            for interval in itertools.product("LR", repeat=b - a + 1):
                yield PartialQuiver(n, ("-",) * (n - b) + interval + ("-",) * (a - 2))


def sub_partial_quivers(Q: Quiver) -> Iterator[PartialQuiver]:
    """All n(n-1)/2 partial quivers P <= Q."""
    for a in range(2, Q.n + 1):
        for b in range(a, Q.n + 1):
            symbols = [
                Q.edge(e) if a <= e <= b else "-" for e in range(Q.n, 1, -1)
            ]
            yield PartialQuiver(Q.n, tuple(symbols))


def quiver_chamber_set(Q: Quiver, i: int, j: int) -> frozenset[int]:
    """Chamber set below the chamber where strings i < j cross above it,
    in the wiring diagram of any word compatible with Q."""
    if not 1 <= i < j <= Q.n + 1:
        raise ValueError(f"need 1 <= i < j <= {Q.n + 1}, got ({i}, {j})")
    x = Q.left_edges()
    y1 = set(range(i + 1, j)) & x
    y2 = set(range(1, i)) if 2 <= i <= Q.n and i not in x else set()
    y3 = set(range(j + 1, Q.n + 2)) if 2 <= j <= Q.n and j not in x else set()
    return frozenset(y1 | y2 | y3)


def chamber_crossings(Q: Quiver, P: PartialQuiver) -> tuple[int, int, int, int]:
    """String numbers (p, q, r, s) bounding the P-labelled chamber.

    In the wiring diagram of any Q-compatible word, strings (p, q) cross
    immediately above the chamber, (q, s) to its left, (p, r) to its right
    and (r, s) below it; two equal strings mean that crossing is absent.

    Searching Q rightward from P's rightmost edge a (and leftward from its
    leftmost edge b) for the nearest edge with the same orientation; a
    virtual edge at position 1 (resp. n+1) with that orientation makes the
    search always succeed.
    """
    if not leq(P, Q):
        raise ValueError(f"{P} is not a sub partial quiver of {Q}")
    n = Q.n
    a, b = P.rightmost, P.leftmost
    sym_a, sym_b = P.edge(a), P.edge(b)
    right = next((e for e in range(a - 1, 1, -1) if Q.edge(e) == sym_a), 1)
    left = next((e for e in range(b + 1, n + 1) if Q.edge(e) == sym_b), n + 1)
    if sym_a == "L":
        s, p = a, right
    else:
        p, s = a, right
    if sym_b == "L":
        r, q = b, left
    else:
        q, r = b, left
    return p, q, r, s


def bfz_word(Q: Quiver) -> ReducedWord:
    """A reduced word compatible with Q: its chamber sets are exactly those
    labelled by the sub partial quivers of Q.

    The word is adapted to Q (Bédard 1999): each letter i is a sink of Q
    reflected at the letters before it, and lengthens the word.  Among such
    letters the smallest is taken; reflecting at i reverses the edges i and
    i+1 that meet node i.
    """
    n = Q.n
    perm = list(range(1, n + 2))
    lam = Q.left_edges()  # edges e pointing from node e-1 to node e
    letters = []
    while True:
        for i in range(1, n + 1):
            is_sink = (i == 1 or i in lam) and (i == n or i + 1 not in lam)
            if is_sink and perm[i - 1] < perm[i]:
                break
        else:
            return ReducedWord(n, tuple(letters))
        letters.append(i)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        lam ^= {e for e in (i, i + 1) if 2 <= e <= n}
