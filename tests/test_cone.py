import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusztig_cones import cone, spanning
from lusztig_cones.cone import (
    CertificateError,
    ChamberLabel,
    NotInConeError,
    RootVector,
    SimpleRootLabel,
    UnimodularityError,
    certify_inverse,
    cone_matrix,
    contains,
    decompose,
    exact_inverse,
    invert_unimodular,
    spanning_set,
    superadditivity,
    violated_rows,
)
from lusztig_cones.words import ReducedWord, enumerate_reduced_words

FIG_WORD = ReducedWord(3, (1, 3, 2, 1, 3, 2))


def fraction_inverse(rows):
    """Independent oracle: Gauss-Jordan over exact rationals."""
    k = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(rows)]
    for c in range(k):
        piv = next(r for r in range(c, k) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv_p = 1 / m[c][c]
        m[c] = [x * inv_p for x in m[c]]
        for r in range(k):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[k:] for row in m]


def minimal_pair_rows(word):
    """The defining rows read off the letters: a unit row at the position
    of root (j, j+1), then per minimal pair of equal letters -1 at both
    ends and +1 at the letters in between adjacent to them."""
    from lusztig_cones.words import root_ordering

    k, letters = word.k, word.letters
    roots = root_ordering(word)
    rows = []
    for j in range(1, word.n + 1):
        pos = roots.index((j, j + 1))
        rows.append(tuple(int(idx == pos) for idx in range(k)))
    pairs = []
    for i in set(letters):
        positions = [p for p in range(k) if letters[p] == i]
        pairs += zip(positions, positions[1:])
    for s, s2 in sorted(pairs):
        row = [0] * k
        row[s] = row[s2] = -1
        for p in range(s + 1, s2):
            if abs(letters[p] - letters[s]) == 1:
                row[p] = 1
        rows.append(tuple(row))
    return tuple(rows)


def sparse(rows):
    return [tuple((c, a) for c, a in enumerate(row) if a) for row in rows]


def packed(columns, width):
    """Each column as one int, entry i times 2^(width·i): a negative entry
    borrows from the lanes above it."""
    return [sum(x << width * i for i, x in enumerate(col)) for col in columns]


def certify(rows, columns):
    """``certify_inverse`` on unpacked columns, packed at the least width
    whose lane mask admits their largest entry, as ``checked_inverse``
    chooses it."""
    top = max((abs(x) for col in columns for x in col), default=0)
    total = sum(abs(a) for row in rows for _, a in row)
    width = cone.lane_width(top << total.bit_length())
    return certify_inverse(rows, packed(columns, width), width)


def reference_certify(rows, columns):
    """The entrywise certificate, oracle of the packed one: nonnegative
    columns, and every entry of M·V compared with the identity using only
    each row's nonzeros, at O(k^2·nnz) small-integer operations."""
    k = len(rows)
    if len(columns) != k or any(len(col) != k for col in columns):
        return False
    if any(min(col) < 0 for col in columns):
        return False
    v_rows = list(zip(*columns))  # v_rows[i][c] = columns[c][i]
    for r, row in enumerate(rows):
        acc = [0] * k
        for i, a in row:
            for c, x in enumerate(v_rows[i]):
                acc[c] += a * x
        acc[r] -= 1
        if any(acc):
            return False
    return True


# the non-inverse V = I of the matrix M = (257 0; -1 1): V·M has the
# column (257, -1), which in 8-bit lanes reads 257 - 256 = 1, as the unit
# column would
ALIASING_ROWS = [((0, 257),), ((0, -1), (1, 1))]
ALIASING_COLUMNS = [(1, 0), (0, 1)]

# the non-inverse V = (1 128; 0 0) of M = (1 0; 0 2): V·M has the column
# (256, 0), which in 8-bit lanes reads as the unit column (0, 1); only the
# top bit of lane 0 of V's column 1 tells it apart
TOP_BIT_ROWS = [((0, 1),), ((1, 2),)]
TOP_BIT_COLUMNS = [(1, 0), (128, 0)]


class TestConeMatrix:
    def test_rank_two(self):
        M = cone_matrix(ReducedWord(2, (1, 2, 1)))
        rows = dict(zip(M.labels, M.rows))
        assert rows[SimpleRootLabel(1)] == (1, 0, 0)
        assert rows[SimpleRootLabel(2)] == (0, 0, 1)
        assert rows[ChamberLabel(1, 3)] == (-1, 1, -1)

    def test_figure_word(self):
        M = cone_matrix(FIG_WORD)
        rows = dict(zip(M.labels, M.rows))
        assert rows[SimpleRootLabel(1)] == (1, 0, 0, 0, 0, 0)
        assert rows[SimpleRootLabel(2)] == (0, 0, 0, 0, 0, 1)
        assert rows[SimpleRootLabel(3)] == (0, 1, 0, 0, 0, 0)
        assert rows[ChamberLabel(1, 4)] == (-1, 0, 1, -1, 0, 0)
        assert rows[ChamberLabel(2, 5)] == (0, -1, 1, 0, -1, 0)
        assert rows[ChamberLabel(3, 6)] == (0, 0, -1, 1, 1, -1)

    def test_rank_one(self):
        M = cone_matrix(ReducedWord(1, (1,)))
        assert M.rows == ((1,),)
        assert M.labels == (SimpleRootLabel(1),)

    def test_row_order(self):
        M = cone_matrix(FIG_WORD)
        assert M.labels == (
            SimpleRootLabel(1),
            SimpleRootLabel(2),
            SimpleRootLabel(3),
            ChamberLabel(1, 4),
            ChamberLabel(2, 5),
            ChamberLabel(3, 6),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_minimal_pair_definition(self, n):
        for w in enumerate_reduced_words(n):
            assert cone_matrix(w).rows == minimal_pair_rows(w)

    def test_row_lookup(self):
        M = cone_matrix(FIG_WORD)
        assert M.row(ChamberLabel(2, 5)) == (0, -1, 1, 0, -1, 0)


class TestCertificate:
    def test_accepts_exact_inverse(self):
        M = cone_matrix(FIG_WORD)
        _, inv = exact_inverse(M.rows)
        assert certify(sparse(M.rows), list(zip(*inv)))

    def test_rejects_every_single_entry_change(self):
        M = cone_matrix(FIG_WORD)
        _, inv = exact_inverse(M.rows)
        columns = [list(col) for col in zip(*inv)]
        for c in range(FIG_WORD.k):
            for r in range(FIG_WORD.k):
                columns[c][r] += 1
                assert not certify(sparse(M.rows), columns)
                columns[c][r] -= 1

    def test_rejects_negative_entry(self):
        # the inverse of (1 1; 0 1) has a -1, a borrow into lane 0's top bits
        assert certify([((0, 1), (1, 1)), ((1, 1),)], [(1, 0), (-1, 1)]) is False

    def test_rejects_wrong_shape(self):
        # a missing column, and a column with a bit beyond lane k
        assert not certify([((0, 1),), ((1, 1),)], [(1, 0)])
        assert not certify([((0, 1),), ((1, 1),)], [(1, 0, 1), (0, 1)])
        assert not certify_inverse([((0, 1),), ((1, 1),)], [1, 1 << 8 | 1 << 16], 8)

    def test_lane_guard_rejects_aliasing(self):
        assert not reference_certify(ALIASING_ROWS, ALIASING_COLUMNS)
        assert not certify(ALIASING_ROWS, ALIASING_COLUMNS)
        assert not certify_inverse(ALIASING_ROWS, packed(ALIASING_COLUMNS, 8), 8)

    def test_mask_rejects_a_lane_top_bit(self):
        assert not reference_certify(TOP_BIT_ROWS, TOP_BIT_COLUMNS)
        assert not certify_inverse(TOP_BIT_ROWS, packed(TOP_BIT_COLUMNS, 8), 8)

    @pytest.mark.parametrize("t, width, expected", [(7, 8, True), (8, 8, False), (8, 16, True)])
    def test_edge_of_the_mask(self, t, width, expected):
        # (1 -t; 0 1) has the inverse (1 t; 0 1) and the column weights 1
        # and t + 1; in 8-bit lanes b = 3 for t = 7 and 8, so the entry t
        # passes at 7 and is refused at 8, correct as it is
        rows = [((0, 1), (1, -t)), ((1, 1),)]
        assert certify_inverse(rows, packed([(1, 0), (t, 1)], width), width) is expected

    @pytest.mark.parametrize("bound, width", [(0, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 24)])
    def test_lane_width(self, bound, width):
        assert cone.lane_width(bound) == width

    @pytest.mark.parametrize("width", [8, 16, 24])
    def test_pack_round_trip(self, width):
        values = (0, 1, 2 ** (width - 1), 2**width - 1, 5)
        assert cone.unpack(cone.pack(values, width), 5, width) == values

    @pytest.mark.parametrize("t", [0, 1, 41, 42, 127, 128, 300, 70000])
    def test_accepts_wide_inverse(self, t):
        # (1 -t; 0 1) has the inverse (1 t; 0 1), whose entry t and column
        # weight t + 1 need lanes wider than a byte from t = 8 on
        rows = [((0, 1), (1, -t)), ((1, 1),)]
        assert certify(rows, [(1, 0), (t, 1)])
        assert not certify(rows, [(1, 0), (t + 1, 1)])
        assert not certify(rows, [(1, 0), (t, 2)])
        # checked_inverse chooses lanes that its own certificate admits
        assert cone.checked_inverse("ab", rows) == (1, ((1, 0), (t, 1)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        cell=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
        change=st.one_of(
            st.none(),
            st.tuples(st.just("add"), st.sampled_from([1, -1, 128, -128])),
            st.tuples(
                st.just("set"),
                st.sampled_from([0, 126, 127, 128, 129, 254, 255, 256, 257, 2**15, 2**16]),
            ),
            st.tuples(st.just("row"), st.integers(0, 300)),
        ),
    )
    def test_packed_agrees_with_reference_and_bareiss(self, n, seed, cell, change):
        # a word's own matrix and inverse, then one single-entry change of
        # the columns, or an entry near a lane limit, or a row operation
        # M' = M - t·(row c) at row r whose exact inverse has the column
        # V_c + t·V_r, with entries past 8-bit lanes
        (w,) = spanning.random_words(n, 1, seed)
        k = w.k
        dense = [list(row) for row in cone_matrix(w).rows]
        c, r = cell[0] % k, cell[1] % k
        if change and change[0] == "row" and r != c:
            dense[r] = [x - change[1] * y for x, y in zip(dense[r], dense[c])]
        det, inv = exact_inverse(dense)
        exact = [list(col) for col in zip(*inv)]
        columns = [list(col) for col in exact]
        if change and change[0] == "add":
            columns[c][r] += change[1]
        elif change and change[0] == "set":
            columns[c][r] = change[1]
        expected = det in (1, -1) and columns == exact and min(map(min, columns)) >= 0
        rows = sparse(dense)
        assert certify(rows, columns) == reference_certify(rows, columns) == expected

    def test_general_coefficients(self):
        # (2 1; 1 1) has the inverse (1 -1; -1 2), rejected for its negative
        # entries; (3 -2; -1 1) has the nonnegative inverse (1 2; 1 3)
        rows = [((0, 2), (1, 1)), ((0, 1), (1, 1))]
        assert not certify(rows, [(1, -1), (-1, 2)])
        rows = [((0, 3), (1, -2)), ((0, -1), (1, 1))]
        assert certify(rows, [(1, 1), (2, 3)])


class TestInversion:
    def test_rank_two_columns(self):
        span = spanning_set(ReducedWord(2, (1, 2, 1)))
        w = span.matrix.word
        assert span.vector(ChamberLabel(1, 3)).to_positions(w) == (0, 1, 0)
        assert span.vector(SimpleRootLabel(1)).to_positions(w) == (1, 1, 0)
        assert span.vector(SimpleRootLabel(2)).to_positions(w) == (0, 1, 1)

    def test_rank_one(self):
        span = spanning_set(ReducedWord(1, (1,)))
        assert span.columns == ((1,),)

    def test_figure_word_chamber_columns(self):
        span = spanning_set(FIG_WORD)
        w = span.matrix.word
        assert span.vector(ChamberLabel(1, 4)).to_positions(w) == (0, 0, 1, 0, 1, 0)
        assert span.vector(ChamberLabel(2, 5)).to_positions(w) == (0, 0, 1, 1, 0, 0)
        assert span.vector(ChamberLabel(3, 6)).to_positions(w) == (0, 0, 1, 1, 1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_rational_oracle(self, n):
        for w in enumerate_reduced_words(n):
            M = cone_matrix(w)
            det, inv = exact_inverse(M.rows)
            oracle = fraction_inverse(M.rows)
            assert [[Fraction(x) for x in row] for row in inv] == oracle

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unimodular_and_nonnegative(self, n):
        for w in enumerate_reduced_words(n):
            span = invert_unimodular(cone_matrix(w))
            assert span.det in (1, -1)
            assert all(x >= 0 for col in span.columns for x in col)

    def test_wrong_inverse_rejected(self, monkeypatch):
        M = cone_matrix(FIG_WORD)
        det, inv = exact_inverse(M.rows)
        inv[2][4] += 1
        monkeypatch.setattr(cone, "exact_inverse", lambda rows: (det, inv))
        with pytest.raises(UnimodularityError, match="inverse check failed"):
            invert_unimodular(M)


class TestCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_positions_round_trip(self, n, seed, t, data):
        # position coordinates are root coordinates read in the word's
        # root order, and back, for any integers
        w = spanning.random_word(n, seed, t)
        values = data.draw(st.lists(st.integers(-(2**70), 2**70), min_size=w.k, max_size=w.k))
        v = RootVector(n, values)
        assert RootVector.from_positions(w, v.to_positions(w)) == v
        assert RootVector.from_positions(w, values).to_positions(w) == tuple(values)


class TestMembership:
    def test_zero_vector(self):
        zero = RootVector.from_positions(FIG_WORD, (0,) * 6)
        assert contains(FIG_WORD, zero)

    def test_unit_at_long_root_outside(self):
        a = RootVector.from_positions(FIG_WORD, (0, 0, 1, 0, 0, 0))
        assert not contains(FIG_WORD, a)
        assert ChamberLabel(3, 6) in violated_rows(FIG_WORD, a)

    def test_spanning_vector_inside(self):
        a = RootVector.from_positions(FIG_WORD, (0, 0, 1, 1, 1, 1))
        assert contains(FIG_WORD, a)

    def test_negative_coordinate_outside(self):
        a = RootVector.from_positions(FIG_WORD, (-1, 0, 0, 0, 0, 0))
        assert not contains(FIG_WORD, a)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            contains(FIG_WORD, RootVector(2, (0, 0, 0)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_redundancy_of_nonnegativity(self, n):
        # every nonnegative combination of spanning vectors is >= 0
        # componentwise, so the k extra constraints never bind
        rng = random.Random(7)
        for w in enumerate_reduced_words(n):
            span = spanning_set(w)
            for _ in range(20):
                coeffs = [rng.randrange(4) for _ in range(w.k)]
                point = [
                    sum(c * col[r] for c, col in zip(coeffs, span.columns))
                    for r in range(w.k)
                ]
                assert all(x >= 0 for x in point)
                assert contains(w, RootVector.from_positions(w, point))


class TestDecompose:
    def test_indicator_on_spanning_vectors(self):
        span = spanning_set(FIG_WORD)
        for label in span.matrix.labels:
            coeffs = decompose(FIG_WORD, span.vector(label))
            assert coeffs == {
                lab: int(lab == label) for lab in span.matrix.labels
            }

    def test_sum_of_all_spanning_vectors(self):
        span = spanning_set(FIG_WORD)
        total = [sum(col[r] for col in span.columns) for r in range(FIG_WORD.k)]
        coeffs = decompose(FIG_WORD, RootVector.from_positions(FIG_WORD, total))
        assert all(c == 1 for c in coeffs.values())

    def test_rank_two_example(self):
        w = ReducedWord(2, (1, 2, 1))
        coeffs = decompose(w, RootVector.from_positions(w, (2, 3, 0)))
        assert coeffs == {
            SimpleRootLabel(1): 2,
            SimpleRootLabel(2): 0,
            ChamberLabel(1, 3): 1,
        }

    def test_outside_point_rejected(self):
        a = RootVector.from_positions(FIG_WORD, (0, 0, 1, 0, 0, 0))
        with pytest.raises(NotInConeError):
            decompose(FIG_WORD, a)

    def test_recombination_failure_is_an_error(self, monkeypatch):
        good = spanning.formula_vectors

        def bad(n, chamber_list):
            columns = good(n, chamber_list)
            return [columns[0] + 1] + columns[1:]

        monkeypatch.setattr(spanning, "formula_vectors", bad)
        span = spanning_set(FIG_WORD)
        with pytest.raises(CertificateError):
            decompose(FIG_WORD, span.vector(SimpleRootLabel(1)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_trip_on_random_cone_points(self, n):
        rng = random.Random(11)
        for w in enumerate_reduced_words(n):
            span = spanning_set(w)
            coeffs = {lab: rng.randrange(5) for lab in span.matrix.labels}
            point = [
                sum(coeffs[lab] * span.columns[i][r]
                    for i, lab in enumerate(span.matrix.labels))
                for r in range(w.k)
            ]
            assert decompose(w, RootVector.from_positions(w, point)) == coeffs


class TestSuperadditivity:
    def test_zero_vector(self):
        assert superadditivity(FIG_WORD, RootVector.from_positions(FIG_WORD, (0,) * 6))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spanning_vectors(self, n):
        for w in enumerate_reduced_words(n):
            span = spanning_set(w)
            for label in span.matrix.labels:
                assert superadditivity(w, span.vector(label))

    def test_random_conic_combinations(self):
        rng = random.Random(5)
        for w in list(enumerate_reduced_words(3))[:6]:
            span = spanning_set(w)
            for _ in range(50):
                coeffs = [rng.randrange(6) for _ in range(w.k)]
                point = [
                    sum(c * col[r] for c, col in zip(coeffs, span.columns))
                    for r in range(w.k)
                ]
                assert superadditivity(w, RootVector.from_positions(w, point))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_triangle_inequality_is_a_chamber_row_sum(self, n):
        # for each i < j < k some subset of chamber rows sums to the row of
        # a_{ik} - a_{ij} - a_{jk}; the chamber rows are independent, so
        # solve the exact linear system and check 0/1 coefficients
        for w in enumerate_reduced_words(n):
            M = cone_matrix(w)
            chamber_rows = [
                row for lab, row in zip(M.labels, M.rows)
                if isinstance(lab, ChamberLabel)
            ]
            from lusztig_cones.words import root_ordering

            pos = {r: i for i, r in enumerate(root_ordering(w))}
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for k in range(j + 1, n + 2):
                        target = [0] * w.k
                        target[pos[(i, k)]] += 1
                        target[pos[(i, j)]] -= 1
                        target[pos[(j, k)]] -= 1
                        sol = solve_exact(chamber_rows, target)
                        assert sol is not None
                        assert set(sol) <= {0, 1}


def solve_exact(rows, target):
    """Solve sum_i c_i rows[i] = target over the rationals, or None."""
    m = len(rows)
    k = len(target)
    # k equations in m unknowns: A c = target with A[e][i] = rows[i][e]
    aug = [[Fraction(rows[i][e]) for i in range(m)] + [Fraction(target[e])]
           for e in range(k)]
    piv_rows = []
    r = 0
    for c in range(m):
        piv = next((rr for rr in range(r, k) if aug[rr][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = 1 / aug[r][c]
        aug[r] = [x * inv_p for x in aug[r]]
        for rr in range(k):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[r])]
        piv_rows.append((r, c))
        r += 1
    if any(row[m] != 0 for row in aug[r:]):
        return None
    sol = [Fraction(0)] * m
    for rr, c in piv_rows:
        sol[c] = aug[rr][m]
    return sol
