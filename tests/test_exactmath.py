import random
from fractions import Fraction

import pytest

from betabound import integer_root, smith_normal_form
from betabound.exactmath import PfaffianCache, _pfaffian
from util import (
    IntMatrix,
    determinantal_divisors,
    diagonal,
    exact_det,
    generic_smith_normal_form,
    is_positive_definite,
    matmul,
    pfaffian,
    random_alternating,
    transpose,
)


def snf_checks(m: IntMatrix, snf=lambda m: smith_normal_form(m.to_rows())):
    """Verify a Smith diagonal against the determinantal divisors and return it.

    The library kernel takes alternating matrices only; any other matrix
    goes through the generic oracle ``snf``."""
    diag = snf(m)
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
        assert generic_smith_normal_form(diagonal((1, 1, 1, 1))) == (1, 1, 1, 1)

    def test_diag_2_3(self):
        # By hand: gcd(2, 3) = 1 and lcm(2, 3) = 6.
        diag = snf_checks(diagonal((2, 3)), generic_smith_normal_form)
        assert diag == (1, 6)

    def test_rectangular(self):
        diag = snf_checks(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]]), generic_smith_normal_form)
        assert diag == (2, 6)

    def test_zero_matrix(self):
        diag = snf_checks(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert diag == (0, 0)

    def test_random_properties(self):
        rng = random.Random(2024)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix(
                rows, cols, tuple(rng.randint(-50, 50) for _ in range(rows * cols))
            )
            diag = snf_checks(m, generic_smith_normal_form)
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
            assert diag == generic_smith_normal_form(m)

    def test_deterministic(self):
        m = IntMatrix.from_rows([[12, 8, -7], [3, 0, 14], [5, 5, 5]])
        assert generic_smith_normal_form(m) == generic_smith_normal_form(m)

    def test_rejects_non_alternating_input(self):
        for rows in ([[0, 1, 2], [-1, 0, 3]], [[0, 1], [1, 0]], [[1, 1], [-1, 0]], [[1]]):
            with pytest.raises(ValueError):
                smith_normal_form(rows)


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
        assert _pfaffian(rows) == (8, [1, 8])

    def test_zero_leading_pfaffian_is_a_zero_pivot(self):
        # b_01 = 0: the 0 is recorded, then index 2 is swapped in (Pf = -1)
        rows = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        assert _pfaffian(rows) == (-1, [0, 1])
        # row 0 is zero: the pivot list stops at its 0
        rows = [[0, 0, 0, 0], [0, 0, 2, 3], [0, -2, 0, 4], [0, -3, -4, 0]]
        assert _pfaffian(rows) == (0, [0])

    def test_one_memo_entry_per_index_set(self):
        cache = PfaffianCache(random_alternating(random.Random(3), 8).to_rows())
        cache.pfaffian_of([0, 1, 2, 3])
        cache.pfaffian_of([3, 2, 1, 0, 2])
        cache.pfaffian_of(range(8))
        assert len(cache._memo) == 2

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
