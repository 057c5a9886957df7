"""The Lusztig cone of a reduced word, as an exact integer simplicial cone.

The defining matrix has one unit row per simple root and one row per
bounded chamber of the wiring diagram, i.e. per minimal pair of equal
letters: -1 at the chamber's left and right crossings, +1 at the
crossings directly above and below it (the letters in between that are
adjacent in the Dynkin diagram).  The rows come from the word's one
wiring trace; in root coordinates a chamber row has at most six nonzeros.

The theorem is verified by certificate: for integer columns V,
``certify_inverse`` checks V·M = I, which for square integer matrices
proves V = M^-1 and det M = +-1.  Each column of V is one Python int, one
lane of bits per positive root (``pack``), so column j of V·M is a signed
sum of the at most five columns whose rows touch root j: O(k·nnz) big-int
operations, done in C.  One AND per column with a lane mask proves every
entry nonnegative and small enough for the sums not to carry between
lanes, so the packed comparison is exact and no column is unpacked.
Fraction-free (Bareiss) inversion, ``exact_inverse``, stays as the
independent oracle of the tests (``invert_unimodular``, in position
coordinates) and as the fallback that finds the true inverse column, on
the sparse root rows, when a certificate fails (``checked_inverse``).

Vectors live in two coordinate systems: *position* coordinates, aligned
with the letters of the word, and *root* coordinates, indexed by the
positive roots (p, q).  Root coordinates are canonical; position
coordinates are a view through the word's root ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .wiring import build_wiring, chambers
from .words import ReducedWord, _root_index, all_positive_roots, root_ordering


@dataclass(frozen=True)
class SimpleRootLabel:
    j: int

    def to_json(self):
        return {"kind": "simple", "j": self.j}


@dataclass(frozen=True)
class ChamberLabel:
    left: int  # 1-based positions of the minimal pair
    right: int

    def to_json(self):
        return {"kind": "chamber", "pair": [self.left, self.right]}


RowLabel = Union[SimpleRootLabel, ChamberLabel]


@dataclass(frozen=True)
class RootVector:
    """Integer vector indexed by the positive roots of A_n."""

    n: int
    values: tuple[int, ...]  # aligned with all_positive_roots(n)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        k = self.n * (self.n + 1) // 2
        if len(self.values) != k:
            raise ValueError(f"expected {k} entries, got {len(self.values)}")

    def __getitem__(self, root: tuple[int, int]) -> int:
        return self.values[_root_index(self.n, root)]

    @classmethod
    def from_positions(cls, word: ReducedWord, coords) -> "RootVector":
        coords = tuple(coords)
        if len(coords) != word.k:
            raise ValueError(f"expected {word.k} coordinates, got {len(coords)}")
        values = [0] * word.k
        for root, x in zip(root_ordering(word), coords):
            values[_root_index(word.n, root)] = x
        return cls(word.n, tuple(values))

    def to_positions(self, word: ReducedWord) -> tuple[int, ...]:
        if word.n != self.n:
            raise ValueError(f"rank mismatch: {word.n} vs {self.n}")
        return tuple(self[r] for r in root_ordering(word))

    def to_dict(self) -> dict:
        return dict(zip(all_positive_roots(self.n), self.values))

    def to_json(self) -> dict:
        return {f"({p},{q})": v for (p, q), v in self.to_dict().items()}


@dataclass(frozen=True)
class ConeMatrix:
    """Labeled k x k matrix of defining inequalities, position coordinates."""

    word: ReducedWord
    labels: tuple[RowLabel, ...]
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict:
        """Row label -> row number."""
        return {lab: i for i, lab in enumerate(self.labels)}

    def row(self, label: RowLabel) -> tuple[int, ...]:
        return self.rows[self.index[label]]


def row_labels(n: int, chamber_list) -> tuple[RowLabel, ...]:
    """The labels of the rows of ``root_rows``, in its order."""
    simple = tuple(map(SimpleRootLabel, range(1, n + 1)))
    return simple + tuple(ChamberLabel(c.left_pos, c.right_pos) for c in chamber_list)


def root_rows(n: int, chamber_list) -> tuple:
    """Sparse rows of the defining matrix in root coordinates.

    ``chamber_list`` is ``wiring.chambers`` of the word.  Each row is a
    tuple of (index into ``RootVector.values``, coefficient) pairs: the unit
    row of each simple root (j, j+1), then one row per chamber in the given
    order, -1 at its left and right crossings and +1 at the crossings above
    and below it, each at the root index its crossing recorded in the
    trace.  ``row_labels`` names them.
    """
    rows = [((_root_index(n, (j, j + 1)), 1),) for j in range(1, n + 1)]
    for ch in chamber_list:
        rows.append(
            ((ch.left.root_index, -1), (ch.right.root_index, -1))
            + tuple([(c.root_index, 1) for c in ch.above + ch.below])
        )
    return tuple(rows)


def cone_matrix(word: ReducedWord) -> ConeMatrix:
    """Rows: simple roots 1..n (unit vectors), then chamber rows by left
    position of the minimal pair, in position coordinates."""
    diagram = build_wiring(word)
    chamber_list = chambers(diagram)
    position = {c.root_index: c.pos - 1 for c in diagram.crossings}
    dense = []
    for row in root_rows(word.n, chamber_list):
        values = [0] * word.k
        for i, a in row:
            values[position[i]] = a
        dense.append(tuple(values))
    return ConeMatrix(word=word, labels=row_labels(word.n, chamber_list), rows=tuple(dense))


def lane_width(bound: int) -> int:
    """Bits per lane of a packed integer vector whose lanes may hold any
    value in [-bound, bound]: the least multiple of 8 with
    bound < 2^(width-1)."""
    return 8 * (bound.bit_length() // 8 + 1)


def pack(values, width: int) -> int:
    """The nonnegative ``values``, each below 2^width, as one int: entry i
    in bits [width·i, width·(i+1))."""
    size = width // 8
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in values), "little")


def unpack(x: int, k: int, width: int) -> tuple[int, ...]:
    """The k nonnegative lanes of ``x``; inverse of ``pack``."""
    if width == 8:
        return tuple(x.to_bytes(k, "little"))
    size = width // 8
    data = x.to_bytes(k * size, "little")
    return tuple(int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))


def certify_inverse(rows, packed, width: int) -> bool:
    """Whether the packed columns are exactly the inverse of the square
    matrix with the given sparse ``rows``, with no negative entry.

    ``rows[r]`` lists the (column, coefficient) pairs of row r's nonzeros;
    ``packed[c]`` is column c of the candidate V, entry i in the
    ``width``-bit lane i (``pack``).  One pass over the rows sums
    acc_j = sum of a·packed[c] over a = M[c][j] != 0, column j of V·M, and
    w_j = sum of |a|.  For the largest b with 2^b·max(w_j) < 2^(width-1),
    one AND per column refuses any bit outside the low b bits of its k
    lanes: nonnegativity, lane bound and shape at once.  Then each acc_j
    must be the unit ``1 << width·j``.

    Exactness: with V's entries in [0, 2^b), acc_j is the sum of
    (V·M)[i][j]·2^(width·i), |(V·M)[i][j]| <= w_j·(2^b - 1) < 2^(width-1).
    If acc_j is the unit, the digits of V·M - I, each below 2^width in
    absolute value, sum to zero with the weights 2^(width·i); the lowest
    nonzero one would be a multiple of 2^width, so none is and V·M = I.
    For square integer matrices that proves V = M^-1 and det M = +-1.
    """
    k = len(rows)
    if len(packed) != k:
        return False
    acc, weight = [0] * k, [0] * k
    for row, col in zip(rows, packed):
        for j, a in row:
            acc[j] += a * col
            weight[j] += abs(a)
    b = max(width - 1 - max(weight, default=0).bit_length(), 0)
    allowed = ((1 << b) - 1) * ((1 << width * k) - 1) // ((1 << width) - 1)
    if any(col & ~allowed for col in packed):
        return False
    return all(x == 1 << width * j for j, x in enumerate(acc))


class UnimodularityError(ArithmeticError):
    """The defining matrix failed to invert to a nonnegative integer matrix
    of determinant +-1 (signals an implementation bug)."""


class CertificateError(ArithmeticError):
    """The closed-form columns failed a check that the exact inverse says
    they pass (signals an implementation bug)."""


def exact_inverse(rows) -> tuple[int, list[list[int]]]:
    """Determinant and exact integer inverse of an integer matrix.

    Fraction-free (Bareiss) elimination on the identity-augmented matrix,
    then integer back substitution; every division is checked exact.
    """
    k = len(rows)
    m = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for c in range(k):
        piv = next((r for r in range(c, k) if m[r][c] != 0), None)
        if piv is None:
            raise UnimodularityError("singular matrix")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, k):
            mrc = m[r][c]
            for cc in range(c + 1, 2 * k):
                m[r][cc] = (m[r][cc] * m[c][c] - mrc * m[c][cc]) // prev
            m[r][c] = 0
        prev = m[c][c]
    det = sign * m[k - 1][k - 1]
    inv = [[0] * k for _ in range(k)]
    for col in range(k):
        for r in range(k - 1, -1, -1):
            s = m[r][k + col] - sum(m[r][cc] * inv[cc][col] for cc in range(r + 1, k))
            q, rem = divmod(s, m[r][r])
            if rem != 0:
                raise UnimodularityError("inverse is not integral")
            inv[r][col] = q
    return det, inv


@dataclass(frozen=True)
class SpanningSet:
    """Columns of the inverse defining matrix, one spanning vector per row
    label, in position coordinates."""

    matrix: ConeMatrix
    det: int
    columns: tuple[tuple[int, ...], ...]  # columns[l] spans label labels[l]

    def vector(self, label: RowLabel) -> RootVector:
        idx = self.matrix.index[label]
        return RootVector.from_positions(self.matrix.word, self.columns[idx])


def checked_inverse(labels, rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and columns of the exact inverse of the square matrix
    with the given sparse ``rows`` (as in ``certify_inverse``), one column
    per row label, with the unimodularity and nonnegativity guarantees
    checked, never assumed, and certified in lanes that the mask admits."""
    k = len(rows)
    det, inv = exact_inverse([[row.get(j, 0) for j in range(k)] for row in map(dict, rows)])
    if det not in (1, -1):
        raise UnimodularityError(f"determinant {det} is not +-1")
    columns = tuple(zip(*inv))
    for label, col in zip(labels, columns):
        if min(col) < 0:
            raise UnimodularityError(f"the inverse column of {label} has a negative entry")
    top = max(map(max, columns), default=0)
    width = lane_width(top << sum(abs(a) for row in rows for _, a in row).bit_length())
    if not certify_inverse(rows, [pack(col, width) for col in columns], width):
        raise UnimodularityError("inverse check failed")
    return det, columns


def invert_unimodular(M: ConeMatrix) -> SpanningSet:
    """Exact inverse of the defining matrix, in position coordinates
    (``checked_inverse``)."""
    sparse = [tuple((c, a) for c, a in enumerate(row) if a) for row in M.rows]
    det, columns = checked_inverse(M.labels, sparse)
    return SpanningSet(matrix=M, det=det, columns=columns)


def spanning_set(word: ReducedWord) -> SpanningSet:
    return invert_unimodular(cone_matrix(word))


def _check_rank(word: ReducedWord, a: RootVector) -> None:
    if word.n != a.n:
        raise ValueError(f"rank mismatch: {word.n} vs {a.n}")


def _rows_at(n: int, chamber_list, a: RootVector) -> dict:
    labels, rows = row_labels(n, chamber_list), root_rows(n, chamber_list)
    return {lab: sum(c * a.values[i] for i, c in row) for lab, row in zip(labels, rows)}


def evaluate_rows(word: ReducedWord, a: RootVector) -> dict:
    """Value of each defining inequality at the point a."""
    _check_rank(word, a)
    return _rows_at(word.n, chambers(build_wiring(word)), a)


def violated_rows(word: ReducedWord, a: RootVector) -> list[RowLabel]:
    """Labels of the defining inequality rows that fail at a."""
    return [lab for lab, v in evaluate_rows(word, a).items() if v < 0]


def contains(word: ReducedWord, a: RootVector) -> bool:
    """Membership in the cone: all k defining rows *and* all k coordinate
    nonnegativity constraints (the latter are redundant, but that is a
    theorem to test, not to assume)."""
    _check_rank(word, a)
    if any(x < 0 for x in a.values):
        return False
    return all(v >= 0 for v in evaluate_rows(word, a).values())


class NotInConeError(ValueError):
    pass


def decompose(word: ReducedWord, a: RootVector) -> dict:
    """Coefficients of a over the spanning vectors: label -> coefficient.

    The coefficients are the defining rows evaluated at a.  Recombined over
    the closed-form columns they must give a back; this check needs no
    inverse and raises ``CertificateError`` when it fails.
    """
    from .spanning import formula_vectors, rank_table  # spanning imports this module

    _check_rank(word, a)
    chamber_list = chambers(build_wiring(word))
    coeffs = _rows_at(word.n, chamber_list, a)
    if any(x < 0 for x in a.values) or any(c < 0 for c in coeffs.values()):
        raise NotInConeError(f"{a.to_positions(word)} is not in the cone")
    recombined = [0] * word.k
    for c, v in zip(coeffs.values(), formula_vectors(word.n, chamber_list)):
        if c:
            for i, x in enumerate(rank_table(word.n).vector(v).values):
                recombined[i] += c * x
    if tuple(recombined) != a.values:
        raise CertificateError(
            f"{word.letters}: coefficients {list(coeffs.values())} recombine to "
            f"{recombined}, not {list(a.values)}"
        )
    return coeffs


def superadditivity(word: ReducedWord, a: RootVector) -> bool:
    """Whether a_{ik} >= a_{ij} + a_{jk} for all i < j < k."""
    _check_rank(word, a)
    n = a.n
    return all(
        a[(i, k)] >= a[(i, j)] + a[(j, k)]
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 2)
    )


def matrix_json(M: ConeMatrix) -> dict:
    return {
        "word": list(M.word.letters),
        "n": M.word.n,
        "rows": [
            {"label": lab.to_json(), "row": list(row)}
            for lab, row in zip(M.labels, M.rows)
        ],
    }
