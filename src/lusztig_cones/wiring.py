"""Wiring diagrams of reduced words: crossings, chambers, chamber sets.

``n+1`` strings run left to right, numbered top to bottom by their left
endpoints.  Above the j-th letter ``i_j`` the strings currently at levels
``i_j`` and ``i_j + 1`` (from the top) cross.  Bounded chambers correspond
to minimal pairs of equal letters; each is labelled by its chamber set,
the set of strings passing below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import ReducedWord


@dataclass(frozen=True)
class Crossing:
    pos: int  # 1-based position in the word
    level: int  # the letter: crossing of levels (level, level+1)
    strings: tuple[int, int]  # the two strings, (p, q) with p < q


@dataclass(frozen=True)
class Chamber:
    """A bounded chamber, i.e. a minimal pair of equal letters."""

    left_pos: int
    right_pos: int
    level: int
    chamber_set: frozenset[int]
    left: Crossing
    right: Crossing
    above: tuple[Crossing, ...]  # crossings at level-1 strictly between
    below: tuple[Crossing, ...]  # crossings at level+1 strictly between


@dataclass(frozen=True)
class WiringDiagram:
    word: ReducedWord
    crossings: tuple[Crossing, ...]
    # profiles[j] = strings top-to-bottom after the first j crossings
    profiles: tuple[tuple[int, ...], ...]


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
    """Trace the strings of the word's wiring diagram.

    This is the one trace of a word: crossings (labelled by the induced
    root ordering), chambers and the cone's defining rows all derive from
    it.
    """
    state = list(range(1, word.n + 2))
    profiles = [tuple(state)]
    crossings = []
    for j, i in enumerate(word.letters, start=1):
        a, b = state[i - 1], state[i]
        crossings.append(Crossing(pos=j, level=i, strings=(a, b) if a < b else (b, a)))
        state[i - 1], state[i] = b, a
        profiles.append(tuple(state))
    return WiringDiagram(word=word, crossings=tuple(crossings), profiles=tuple(profiles))


def chambers(diagram: WiringDiagram) -> list[Chamber]:
    """All bounded chambers, ordered by left position.

    One pass over the crossings: the last crossing seen at each level opens
    a chamber there, which the next crossing at that level closes.  The
    crossings one level up or down in between are its ``above`` and
    ``below``.  Legality of the chamber sets is not re-checked here;
    ``chamber_boundary`` rejects an illegal one.
    """
    open_at: dict[int, tuple[Crossing, list, list]] = {}
    result = []
    for c in diagram.crossings:
        if c.level + 1 in open_at:
            open_at[c.level + 1][1].append(c)
        if c.level - 1 in open_at:
            open_at[c.level - 1][2].append(c)
        if c.level in open_at:
            left, above, below = open_at[c.level]
            result.append(
                Chamber(
                    left_pos=left.pos,
                    right_pos=c.pos,
                    level=c.level,
                    chamber_set=frozenset(diagram.profiles[left.pos][c.level :]),
                    left=left,
                    right=c,
                    above=tuple(above),
                    below=tuple(below),
                )
            )
        open_at[c.level] = (c, [], [])
    result.sort(key=lambda ch: ch.left_pos)
    return result


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
    for s in range(1, n + 2):
        points = []
        for j in range(k + 1):
            level = diagram.profiles[j].index(s) + 1
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
