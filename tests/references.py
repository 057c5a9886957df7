"""Definitions that only the tests use, as references for the package's
own forms: a root in simple-root coordinates, the legality of a chamber
set, the sparse rows of the defining matrix, and the component indicator
and weight vectors of the paper."""

from lusztig_cones import pquiver, spanning
from lusztig_cones.cone import RootVector
from lusztig_cones.words import _root_index


def root_as_simple_coords(root: tuple[int, int], n: int) -> tuple[int, ...]:
    """Expand (p, q) in the basis of simple roots alpha_1..alpha_n."""
    p, q = root
    return tuple(1 if p <= i < q else 0 for i in range(1, n + 1))


def is_chamber_set(members, n: int) -> bool:
    """A legal chamber set: nonempty, not an initial or final interval."""
    s = set(members)
    m = len(s)  # the empty set is the initial interval [1, 0]
    initial, final = set(range(1, m + 1)), set(range(n + 2 - m, n + 2))
    return s <= set(range(1, n + 2)) and s != initial and s != final


def root_rows(n: int, chamber_list) -> tuple:
    """The rows of ``cone.root_rows``, with the root index of every entry
    computed from its crossing's strings."""
    rows = [((_root_index(n, (j, j + 1)), 1),) for j in range(1, n + 1)]
    for ch in chamber_list:
        rows.append(
            ((_root_index(n, ch.left.strings), -1), (_root_index(n, ch.right.strings), -1))
            + tuple((_root_index(n, c.strings), 1) for c in ch.above + ch.below)
        )
    return tuple(rows)


def v_component(Y: pquiver.Component, n: int) -> RootVector:
    """Indicator of the roots (p, q) with p < a(Y) <= b(Y) < q: those that
    contain both α_{a-1} and α_b."""
    if not 2 <= Y.a <= Y.b <= n:
        raise ValueError(f"component edges [{Y.a}, {Y.b}] out of range [2, {n}]")
    table = spanning.rank_table(n)
    return table.vector(table.simple[Y.a - 2] & table.simple[Y.b - 1])


def weight_vector(P: pquiver.PartialQuiver) -> RootVector:
    """Sum of the component indicator vectors of P."""
    table = spanning.rank_table(P.n)
    simple = table.simple
    return table.vector(sum(simple[Y.a - 2] & simple[Y.b - 1] for Y in pquiver.components(P)))
