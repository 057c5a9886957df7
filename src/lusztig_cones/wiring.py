"""Wiring diagrams of reduced words: crossings, chambers, chamber sets.

``n+1`` strings run left to right, numbered top to bottom by their left
endpoints.  Above the j-th letter ``i_j`` the strings currently at levels
``i_j`` and ``i_j + 1`` (from the top) cross.  Bounded chambers correspond
to minimal pairs of equal letters; each is labelled by its chamber set,
the set of strings passing below it.

``build_wiring`` traces a word once, in one pass over its letters, and
records all that the per-word layers read: each crossing with its root
index, and each bounded chamber where it closes, with its crossings one
level up and one level down and its chamber set as a bit mask, string s
at bit s (the convention of ``spanning._packed_column``).  ``chambers``,
the cone's rows and the closed-form columns read these records.  Sets of
strings and the diagram's profiles are derived from them only where they
are printed or compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .words import ReducedWord, _root_index


@dataclass(frozen=True)
class Crossing:
    pos: int  # 1-based position in the word
    level: int  # the letter: crossing of levels (level, level+1)
    strings: tuple[int, int]  # the two strings, (p, q) with p < q
    root_index: int  # the place of the root (p, q) in ``all_positive_roots(n)``


@dataclass(frozen=True)
class Chamber:
    """A bounded chamber, i.e. a minimal pair of equal letters."""

    left_pos: int
    right_pos: int
    level: int
    mask: int  # the chamber set: the strings below the chamber, string s at bit s
    left: Crossing
    right: Crossing
    above: tuple[Crossing, ...]  # crossings at level-1 strictly between
    below: tuple[Crossing, ...]  # crossings at level+1 strictly between

    @property
    def chamber_set(self) -> frozenset[int]:
        """The strings passing below the chamber: the set bits of ``mask``."""
        mask = self.mask
        return frozenset(s for s in range(mask.bit_length()) if mask >> s & 1)


@dataclass(frozen=True)
class WiringDiagram:
    word: ReducedWord
    crossings: tuple[Crossing, ...]
    chambers: tuple[Chamber, ...]  # the bounded chambers, by left position

    @cached_property
    def profiles(self) -> tuple[tuple[int, ...], ...]:
        """profiles[j] = strings top-to-bottom after the first j crossings,
        replayed from the crossings."""
        state = list(range(1, self.word.n + 2))
        profiles = [tuple(state)]
        for c in self.crossings:
            i = c.level
            state[i - 1], state[i] = state[i], state[i - 1]
            profiles.append(tuple(state))
        return tuple(profiles)


def chamber_boundary(members, n: int) -> list[int]:
    """The boundary of a chamber set: the t in [1, n] with exactly one of
    t, t+1 in it, in order.  The one legality check: a subset of [1, n+1]
    is a chamber set iff its boundary has two points or more."""
    s = frozenset(members)
    boundary = [t for t in range(1, n + 1) if (t in s) != (t + 1 in s)]
    if len(boundary) < 2 or not s.issubset(range(1, n + 2)):
        raise ValueError(f"{sorted(s)} is not a chamber set for n={n}")
    return boundary


def build_wiring(word: ReducedWord) -> WiringDiagram:
    """Trace the strings of the word's wiring diagram, in one pass over its
    letters.

    This is the one trace of a word: the root ordering of its crossings,
    its chambers, the cone's defining rows and the closed-form columns all
    read what it records.  Each level keeps its last crossing, the
    crossings one level up and one level down since then, and the strings
    under it as a bit mask.  A crossing at level i closes the chamber that
    the last crossing there opened, if there was one: its chamber set is
    the mask of level i, which no crossing in between has changed.  The
    crossing then swaps the strings at levels i and i+1, which changes the
    mask of level i alone.  Legality of the chamber sets is not checked
    here; ``chamber_boundary`` rejects an illegal one.
    """
    n = word.n
    state = list(range(1, n + 2))
    under = [(1 << n + 2) - (2 << i) for i in range(n + 1)]  # level -> strings under it
    last = [None] * (n + 2)  # level -> its last crossing
    above = [[] for _ in range(n + 2)]  # level -> crossings one level up since its last
    below = [[] for _ in range(n + 2)]  # level -> crossings one level down since its last
    crossings = []
    by_left = [None] * (word.k + 1)  # left position -> the chamber it opens
    for j, i in enumerate(word.letters, start=1):
        a, b = state[i - 1], state[i]
        strings = (a, b) if a < b else (b, a)
        c = Crossing(j, i, strings, _root_index(n, strings))
        crossings.append(c)
        left = last[i]
        if left is not None:
            by_left[left.pos] = Chamber(
                left.pos, j, i, under[i], left, c, tuple(above[i]), tuple(below[i])
            )
        last[i], above[i], below[i] = c, [], []
        above[i + 1].append(c)
        below[i - 1].append(c)
        state[i - 1], state[i] = b, a
        under[i] ^= 1 << a | 1 << b
    return WiringDiagram(
        word=word,
        crossings=tuple(crossings),
        chambers=tuple(ch for ch in by_left if ch is not None),
    )


def chambers(diagram: WiringDiagram) -> list[Chamber]:
    """All bounded chambers, ordered by left position: the records of
    ``build_wiring``, read without a second pass over the crossings."""
    return list(diagram.chambers)


def diagram_json(diagram: WiringDiagram) -> dict:
    return {
        "word": list(diagram.word.letters),
        "n": diagram.word.n,
        "crossings": [
            {"pos": c.pos, "strings": list(c.strings)} for c in diagram.crossings
        ],
        "chambers": [
            {"pair": [c.left_pos, c.right_pos], "set": sorted(c.chamber_set)}
            for c in chambers(diagram)
        ],
    }


def format_chamber_set(members, n: int) -> str:
    """Chamber-set label: concatenated digits for n+1 <= 9, else commas."""
    parts = [str(m) for m in sorted(members)]
    return "".join(parts) if n + 1 <= 9 else ",".join(parts)


def render(diagram: WiringDiagram, format: str = "ascii") -> str:
    if format == "ascii":
        return _render_ascii(diagram)
    if format == "svg":
        return _render_svg(diagram)
    raise ValueError(f"unknown render format {format!r}")


def _render_ascii(diagram: WiringDiagram) -> str:
    word = diagram.word
    n, k = word.n, word.k
    margin = len(str(n + 1)) + 1
    width = margin + 4 * k
    grid = []
    for r in range(n + 1):
        label = str(r + 1).rjust(margin - 1) + " "
        grid.append(list(label + "-" * (width - margin)))
    for c in diagram.crossings:
        col = margin + 4 * (c.pos - 1)
        grid[c.level - 1][col] = "\\"
        grid[c.level - 1][col + 1] = "/"
        grid[c.level][col] = "/"
        grid[c.level][col + 1] = "\\"
    for ch in chambers(diagram):
        label = format_chamber_set(ch.chamber_set, n)
        lo = margin + 4 * (ch.left_pos - 1) + 2
        hi = margin + 4 * (ch.right_pos - 1)
        start = max(lo, (lo + hi - len(label)) // 2)
        row = grid[ch.level - 1]
        for idx, chchar in enumerate(label):
            if start + idx < width:
                row[start + idx] = chchar
    letters_row = " " * margin
    for i in word.letters:
        letters_row += str(i).ljust(4)
    lines = ["".join(r) for r in grid] + [letters_row.rstrip()]
    return "\n".join(lines) + "\n"


_SVG_UNIT = 40


def _render_svg(diagram: WiringDiagram) -> str:
    """Deterministic SVG 1.1: unit column per position, unit row per level."""
    word = diagram.word
    n, k, u = word.n, word.k, _SVG_UNIT
    width, height = (k + 2) * u, (n + 2) * u
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    # level of each string after j crossings, from the profiles
    profiles = diagram.profiles
    for s in range(1, n + 2):
        points = []
        for j in range(k + 1):
            level = profiles[j].index(s) + 1
            points.append(f"{(j + 1) * u},{level * u}")
        out.append(
            f'<polyline points="{" ".join(points)}" '
            f'fill="none" stroke="black" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{u // 2}" y="{s * u + 5}" '
            f'font-family="monospace" font-size="16">{s}</text>'
        )
    for j, i in enumerate(word.letters, start=1):
        out.append(
            f'<text x="{j * u + u // 2}" y="{height - u // 2}" '
            f'font-family="monospace" font-size="16" '
            f'text-anchor="middle">{i}</text>'
        )
    for ch in chambers(diagram):
        label = format_chamber_set(ch.chamber_set, n)
        x = (ch.left_pos + ch.right_pos + 2) * u // 2
        y = (2 * ch.level + 1) * u // 2 + 5
        out.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="14" '
            f'text-anchor="middle">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
