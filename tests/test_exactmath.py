import random
from fractions import Fraction

import pytest

import betabound.exactmath
from betabound import integer_root, smith_normal_form
from betabound.exactmath import PfaffianCache, _leading_minors, _pfaffian
from util import (
    IntMatrix,
    determinantal_divisors,
    diagonal,
    exact_det,
    is_positive_definite,
    matmul,
    pfaffian,
    random_alternating,
    reference_pfaffian,
    skew_normal_form,
    transpose,
)


def padded(m: IntMatrix) -> IntMatrix:
    """m with zero rows or columns appended to make it square: the Smith
    diagonal gains only zeros, and the determinantal divisors are unchanged."""
    n = max(m.rows, m.cols)
    rows = [row + [0] * (n - m.cols) for row in m.to_rows()] + [[0] * n] * (n - m.rows)
    return IntMatrix.from_rows(rows)


def snf_checks(m: IntMatrix):
    """Verify the library's Smith diagonal of a square matrix against its
    determinantal divisors and return it."""
    diag = smith_normal_form(m.to_rows())
    assert len(diag) == min(m.rows, m.cols)
    assert all(x >= 0 for x in diag)
    for prev, nxt in zip(diag, diag[1:]):
        if prev == 0:
            assert nxt == 0
        else:
            assert nxt % prev == 0
    prefix = 1
    for x, divisor in zip(diag, determinantal_divisors(m)):
        prefix *= x
        assert prefix == divisor
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(diagonal((1, 1, 1, 1)).to_rows()) == (1, 1, 1, 1)

    def test_diag_2_3(self):
        # By hand: gcd(2, 3) = 1 and lcm(2, 3) = 6.
        diag = snf_checks(diagonal((2, 3)))
        assert diag == (1, 6)

    def test_rectangular(self):
        # the kernel is square: a 2 x 3 matrix goes in with a zero row
        diag = snf_checks(padded(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])))
        assert diag == (2, 6, 0)

    def test_zero_matrix(self):
        diag = snf_checks(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert diag == (0, 0)

    @pytest.mark.parametrize("rows, diag", [
        # n = 2: the whole matrix is the closing block
        ([[0, 5], [7, 0]], (1, 35)),
        ([[4, 6], [6, 4]], (2, 10)),  # gcd 2, det -20
        # negative entries: the determinant's sign is dropped
        ([[-4, -6], [-6, -4]], (2, 10)),
        ([[-3, 5], [7, -2]], (1, 29)),
        # a trailing block of determinant 0 after a unit pivot
        ([[1, 0, 0], [0, 2, 4], [0, 3, 6]], (1, 1, 0)),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], (1, 3, 0)),
        # a trailing block with gcd > 1 under a pivot that divides it
        ([[6, 0, 0], [0, 12, 18], [0, 24, 6]], (6, 6, 60)),
        ([[2, 4, 4, 8], [4, 2, 6, 2], [0, 6, 12, 6], [8, 0, 4, 2]], (2, 2, 2, 30)),
        # a zero trailing block, and zero matrices of each small size
        ([[5, 0, 0], [0, 0, 0], [0, 0, 0]], (5, 0, 0)),
        ([[0]], (0,)),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (0, 0, 0)),
        ([], ()),
    ])
    def test_closing_block(self, rows, diag):
        # snf_checks also compares the diagonal with the determinantal divisors
        assert (snf_checks(IntMatrix.from_rows(rows)) if rows else smith_normal_form(rows)) == diag

    def test_closing_block_takes_one_step(self, monkeypatch):
        # n - 2 pivot scans before the last 2 x 2 block closes
        scans = []
        real = betabound.exactmath._pivot

        def spy(a, t):
            scans.append(t)
            return real(a, t)

        monkeypatch.setattr(betabound.exactmath, "_pivot", spy)
        assert smith_normal_form([[4, 6], [6, 4]]) == (2, 10)
        assert scans == []
        assert smith_normal_form([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 6, 4], [0, 0, 4, 6]]) == (1, 1, 2, 10)
        assert scans == [0, 1]

    def test_random_properties(self):
        rng = random.Random(2024)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix(
                rows, cols, tuple(rng.randint(-50, 50) for _ in range(rows * cols))
            )
            diag = snf_checks(padded(m))
            assert diag[min(rows, cols) :] == (0,) * abs(rows - cols)
            if rows == cols:
                det = exact_det(m)
                prod = 1
                for x in diag:
                    prod *= x
                assert prod == abs(det)

    def test_random_alternating_pairs_up(self):
        rng = random.Random(99)
        for _ in range(60):
            dim = rng.choice((2, 4, 6))
            m = random_alternating(rng, dim, 30)
            diag = snf_checks(m)
            for i in range(0, dim, 2):
                assert diag[i] == diag[i + 1]
            assert diag == skew_normal_form(m.to_rows())

    def test_deterministic(self):
        rows = [[12, 8, -7], [3, 0, 14], [5, 5, 5]]
        assert smith_normal_form(rows) == smith_normal_form(rows) == (1, 1, 505)  # det = -505
        assert rows == [[12, 8, -7], [3, 0, 14], [5, 5, 5]]  # copied, not consumed

    def test_rejects_non_alternating_input(self):
        # the kernel takes any square integer matrix and rejects the rest;
        # the skew oracle also rejects a square one that is not alternating
        for rows in ([[0, 1, 2], [-1, 0, 3]], [[0, 1], [-1]], [[0, 1.0], [-1.0, 0]], [[0, "1"], [-1, 0]]):
            for kernel in (smith_normal_form, skew_normal_form):
                with pytest.raises(ValueError):
                    kernel(rows)
        for rows, diag in (([[0, 1], [1, 0]], (1, 1)), ([[1, 1], [-1, 0]], (1, 1)), ([[1]], (1,))):
            assert smith_normal_form(rows) == diag
            with pytest.raises(ValueError):
                skew_normal_form(rows)


class TestPfaffian:
    def test_standard_block(self):
        assert pfaffian(IntMatrix.from_rows([[0, 1], [-1, 0]])) == 1

    def test_block_diagonal_multiplicative(self):
        m = IntMatrix.from_rows(
            [
                [0, 2, 0, 0],
                [-2, 0, 0, 0],
                [0, 0, 0, 3],
                [0, 0, -3, 0],
            ]
        )
        assert pfaffian(m) == 6

    def test_four_by_four_sign(self):
        # Pf = a12*a34 - a13*a24 + a14*a23
        m = IntMatrix.from_rows(
            [
                [0, 1, 2, 3],
                [-1, 0, 4, 5],
                [-2, -4, 0, 6],
                [-3, -5, -6, 0],
            ]
        )
        assert pfaffian(m) == 1 * 6 - 2 * 5 + 3 * 4

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            pfaffian(IntMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]))
        with pytest.raises(ValueError):
            pfaffian(IntMatrix.from_rows([[0]]))

    def test_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            pfaffian(IntMatrix.from_rows([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            pfaffian(IntMatrix.from_rows([[1, 1], [-1, 0]]))

    def test_pivots_are_leading_pfaffians(self):
        # Pf = a12*a34 - a13*a24 + a14*a23 = 6 - 10 + 12; leading block a12 = 1
        rows = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
        assert _pfaffian([row[:2] for row in rows[:2]]) == 1
        assert _pfaffian(rows) == 8
        # the bipartite form of the block [[1, 2], [-2, 4]] has the same
        # leading Pfaffians, and they are the block's leading minors
        rows = [[0, 1, 0, 2], [-1, 0, 2, 0], [0, -2, 0, 4], [-2, 0, -4, 0]]
        assert _pfaffian([row[:2] for row in rows[:2]]) == 1
        assert _pfaffian(rows) == 8
        assert _leading_minors([[1, 2], [-2, 4]]) == [1, 8]

    def test_zero_leading_pfaffian_is_a_zero_pivot(self):
        # b_01 = 0: index 2 is swapped in (Pf = -1)
        rows = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        assert _pfaffian(rows) == -1
        # row 0 is zero
        rows = [[0, 0, 0, 0], [0, 0, 2, 3], [0, -2, 0, 4], [0, -3, -4, 0]]
        assert _pfaffian(rows) == 0
        # a zero or negative leading minor is the last pivot: [[0, 1], [1, 0]]
        # has determinant -1, and [[1, 2, 0], [3, 6, 1], [0, 1, 1]] is 1 after a 0
        assert _leading_minors([[0, 1], [1, 0]]) == [0]
        assert _leading_minors([[1, 2, 0], [3, 6, 1], [0, 1, 1]]) == [1, 0]
        assert _leading_minors([[1, 2, 0], [2, 1, 0], [0, 0, 1]]) == [1, -3]

    def test_one_memo_entry_per_index_set(self):
        cache = PfaffianCache(random_alternating(random.Random(3), 8).to_rows())
        cache.pfaffian_of([0, 1, 2, 3])
        cache.pfaffian_of([3, 2, 1, 0, 2])
        cache.pfaffian_of(range(8))
        assert len(cache._memo) == 2

    def test_full_set_copies_the_form_once(self, monkeypatch):
        # the cache keeps the rows as given, and pfaffian_of builds the one
        # list-of-lists copy that the elimination consumes
        m = random_alternating(random.Random(5), 6)
        rows = tuple(map(tuple, m.to_rows()))
        consumed = []

        def spy(b):
            consumed.append(b)
            return _pfaffian(b)

        monkeypatch.setattr(betabound.exactmath, "_pfaffian", spy)
        cache = PfaffianCache(rows)
        assert cache._rows is rows
        assert cache.pfaffian_of(range(6)) == reference_pfaffian(m, range(6))
        assert len(consumed) == 1
        assert type(consumed[0]) is list and all(type(row) is list for row in consumed[0])
        assert cache.pfaffian_of([5, 4, 3, 2, 1, 0]) == cache.pfaffian_of(range(6))
        assert len(consumed) == 1  # memoized
        assert rows == tuple(map(tuple, m.to_rows()))

    def test_square_equals_determinant(self):
        rng = random.Random(7)
        for _ in range(200):
            dim = rng.choice((2, 4, 6, 8, 10))
            m = random_alternating(rng, dim)
            assert Fraction(pfaffian(m)) ** 2 == exact_det(m)


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite([[1, 0], [0, 1]])

    def test_indefinite_diagonal(self):
        assert not is_positive_definite([[1, 0], [0, -1]])

    def test_semidefinite(self):
        assert not is_positive_definite([[1, 1], [1, 1]])

    def test_fractional(self):
        assert is_positive_definite(
            [[Fraction(3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]
        )
        assert not is_positive_definite(
            [[Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_positive_definite([[1, 2], [3, 4]])

    def test_matches_minor_oracle(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 5)
            b = IntMatrix(n, n, tuple(rng.randint(-4, 4) for _ in range(n * n)))
            gram = matmul(b, transpose(b))  # positive semidefinite, definite iff b invertible
            expected = exact_det(b) != 0
            assert is_positive_definite(gram.to_rows()) == expected


class TestIntegerRoot:
    @pytest.mark.parametrize(
        "n, g, expected",
        [(27, 3, 3), (26, 3, 2), (40, 3, 3), (1, 5, 1), (9, 2, 3), (8, 2, 2), (10**12, 4, 1000)],
    )
    def test_examples(self, n, g, expected):
        assert integer_root(n, g) == expected

    @pytest.mark.parametrize(
        "n, g, expected",
        [(1, 1, 1), (3, 2, 1), (4, 2, 2), (7, 3, 1), (8, 3, 2), (2**63, 64, 1), (2**64 - 1, 64, 1),
         (2**64, 64, 2), (5, 10**5, 1), (10**100, 333, 1), (10**100, 332, 2)],
    )
    def test_dimension_at_or_above_bit_length(self, n, g, expected):
        # g >= n.bit_length() means n < 2^g, so the root is 1 with no power of 2^g taken
        assert integer_root(n, g) == expected
        assert expected**g <= n < (expected + 1) ** g

    def test_bracketing_property(self):
        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(1, 10**9)
            g = rng.randint(1, 8)
            m = integer_root(n, g)
            assert m**g <= n < (m + 1) ** g

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            integer_root(0, 2)
        with pytest.raises(ValueError):
            integer_root(5, 0)
