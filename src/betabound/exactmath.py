"""Exact integer linear-algebra kernel.

Everything in this module is exact: a matrix is a square sequence of
rows of Python's arbitrary-precision ints, elimination is fraction-free,
and integer roots come from integer Newton iteration.  No floating point
anywhere.

The matrices handled here are small (g x g blocks of classes, g <=
torusmodel.MAX_DIMENSION), so the algorithms favour simplicity and
determinism over asymptotics; none is exponential in g.  Three
eliminations of O(n^3) integer operations: the Smith diagonal by row and
column operations and the leading principal minors by Bareiss
elimination run on the block of a form and share no arithmetic, so the
determinant (the last minor) checks the Smith form's product; the
Pfaffian by fraction-free skew elimination is the tests' reference.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of a square integer matrix.

    The entries are nonnegative, each divides the next and zeros come
    last; the product of the first k is the gcd of the k x k minors, so
    the diagonal is unique (M. Newman, *Integral Matrices*, 1972).  Each
    step takes the smallest nonzero |m_ij| of the trailing block (ties to
    the lowest i, then j), found by one scan that stops at the first unit
    entry (``_pivot``), moves it to (t, t) by row and column swaps,
    makes it positive and reduces column t, then row t, by integer
    multiples of the pivot row and column.  A nonzero remainder is a
    smaller pivot for the next step; once both are clear, a row whose
    entries the pivot p does not all divide is added into row t, and
    otherwise p is d_t.  A unit pivot clears both exactly and divides
    everything, so it is d_t at once.  Rows above t are never read again,
    so the column swaps skip them.  Anything but a square integer matrix
    raises ``ValueError``; the input is copied, not consumed.

    The last 2 x 2 block [[w, x], [y, z]] closes in one step: its
    diagonal is h = gcd(w, x, y, z) and |wz - xy| / h, its determinantal
    divisors (Newman, as above), or two zeros when h = 0.  Each earlier
    d_t divides every entry of the block it leaves, so it divides h, and
    h^2 divides wz - xy, so h divides the last entry: the chain holds.
    That determinant is taken on the block left by the row and column
    operations above, not by the Bareiss elimination of ``_leading_minors``,
    so the two still share no arithmetic and the check of the type's
    product against chi stays an independent oracle.  The elimination
    itself is ``_smith_diagonal``, which runs on a copy of the input.
    """
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a) or not all(isinstance(x, int) for row in a for x in row):
        raise ValueError("expected a square integer matrix")
    return _smith_diagonal(a)


def _smith_diagonal(a: list[list[int]]) -> tuple[int, ...]:
    """``smith_normal_form`` of a square integer matrix given as a list of
    int lists, unchecked; the input is consumed.  The package calls it on
    the block of a class (``torusmodel.block_type``), which is square and
    integer by construction."""
    n = len(a)
    diag, t = [], 0
    while t < n:
        if t == n - 2:
            (w, x), (y, z) = a[t][t:], a[t + 1][t:]
            h = gcd(w, x, y, z)
            if h:
                diag += [h, abs(w * z - x * y) // h]
            break
        p, i, j = _pivot(a, t)
        if not p:
            break
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
        row_t = a[t]
        if row_t[t] < 0:
            a[t] = row_t = [-x for x in row_t]
        for i in range(t + 1, n):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], row_t)]
        if p == 1:
            diag.append(1)
            t += 1
            continue
        if any(a[i][t] for i in range(t + 1, n)):
            continue
        # column t is clear below p, so a column operation changes row t only
        row_t[t + 1 :] = [x % p for x in row_t[t + 1 :]]
        if any(row_t[t + 1 :]):
            continue
        bad = next((i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1 :])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(row_t, a[bad])]
            continue
        diag.append(p)
        t += 1
    return tuple(diag + [0] * (n - len(diag)))


def _pivot(a: list[list[int]], t: int) -> tuple[int, int, int]:
    """(p, i, j) for the smallest nonzero p = |a_ij| with i, j >= t, ties to
    the lowest i, then j; p = 0 if that trailing block is zero.  One scan,
    row by row, which stops at the first unit entry: nothing is smaller,
    and every later entry loses the tie."""
    n, p, i, j = len(a), 0, 0, 0
    for r in range(t, n):
        row = a[r]
        for s in range(t, n):
            x = row[s]
            if x:
                x = abs(x)
                if x < p or not p:
                    if x == 1:
                        return 1, r, s
                    p, i, j = x, r, s
    return p, i, j


def _pfaffian(b: list[list[int]]) -> int:
    """Pfaffian of an alternating matrix by fraction-free skew elimination.

    Step t pivots on (x, y) = (2t, 2t + 1), p = b_xy, and sets each later
    b_ik to (p * b_ik - b_xi * b_yk + b_xk * b_yi) / prev, a division by the
    previous pivot that is exact and leaves the Pfaffian of {0, ..., 2t + 1,
    i, k} (Galbiati and Maffioli, "On the computation of Pfaffians", 1994),
    so the last pivot is the Pfaffian.  A zero pivot swaps in the first
    later j with b_xj != 0, flipping the sign; with none, row x is zero and
    so is the Pfaffian.  The input is consumed.
    """
    n = len(b)
    sign, prev = 1, 1
    for x in range(0, n, 2):
        y = x + 1
        row_x = b[x]
        if row_x[y] == 0:
            j = next((j for j in range(y + 1, n) if row_x[j]), None)
            if j is None:
                return 0
            b[y], b[j] = b[j], b[y]
            for row in b:
                row[y], row[j] = row[j], row[y]
            sign = -sign
        p, row_y = row_x[y], b[y]
        for i in range(y + 1, n):
            row_i, xi, yi = b[i], row_x[i], row_y[i]
            for k in range(i + 1, n):
                v = (p * row_i[k] - xi * row_y[k] + row_x[k] * yi) // prev
                row_i[k] = v
                b[k][i] = -v
        prev = p
    return sign * prev


class PfaffianCache:
    """Pfaffians of principal submatrices of one alternating matrix.

    The matrix is checked once and kept as given, not copied, so it must
    not change afterwards; each index set asked for is copied once into
    the elimination (``_pfaffian``) that consumes it, and its value kept.
    Nothing in the package calls it (chi is det M, ``torusmodel.chi_pfaffian``):
    it is the tests' reference for det M, on the form written out from M,
    and the benchmark traces its method.  Anything but a square alternating
    integer matrix of even dimension raises ``ValueError``; column i of an
    alternating matrix is minus row i, zero diagonal included.
    """

    def __init__(self, a: Sequence[Sequence[int]]):
        n = len(a)
        if (
            n % 2
            or any(len(row) != n for row in a)
            or not all(isinstance(x, int) for row in a for x in row)
            or any(list(col) != [-x for x in row] for row, col in zip(a, zip(*a)))
        ):
            raise ValueError("expected a square alternating integer matrix of even dimension")
        self._rows = a
        self._memo: dict[tuple[int, ...], int] = {}

    def pfaffian_of(self, indices: Sequence[int]) -> int:
        """Pfaffian of the principal submatrix on ``indices``, taken in
        increasing order with duplicates collapsed; the empty set gives 1."""
        key = tuple(sorted(set(indices)))
        if len(key) % 2 != 0:
            raise ValueError("index set must have even size")
        value = self._memo.get(key)
        if value is None:
            rows = self._rows
            value = self._memo[key] = _pfaffian([[rows[i][j] for j in key] for i in key])
        return value


def _leading_minors(rows: list[list[int]]) -> list[int]:
    """Leading principal minors of a square integer matrix, up to and
    including the first one <= 0.

    Fraction-free Bareiss elimination without row exchanges (E. H. Bareiss,
    Math. Comp. 22, 1968): step k sets each later r_ij to (p * r_ij -
    r_ik * r_kj) / prev, p = r_kk, a division by the previous pivot that is
    exact, and the pivot of step k is then the determinant of the leading
    (k + 1) x (k + 1) block.  A zero pivot would make the next division
    fail, so the list stops at the first nonpositive one.  The input is
    consumed.
    """
    n = len(rows)
    prev, minors = 1, []
    for k in range(n):
        row_k = rows[k]
        p = row_k[k]
        minors.append(p)
        if p <= 0:
            break
        for i in range(k + 1, n):
            row_i = rows[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (p * row_i[j] - aik * row_k[j]) // prev
        prev = p
    return minors


def leading_minors_all_positive(rows: list[list[int]]) -> bool:
    """Whether every leading principal minor of an integer matrix is positive
    (``_leading_minors``).  The input is consumed."""
    minors = _leading_minors(rows)
    return len(minors) == len(rows) and all(p > 0 for p in minors)


def integer_root(n: int, g: int) -> int:
    """Largest m with m**g <= n, by integer Newton iteration."""
    if n < 1 or g < 1:
        raise ValueError("integer_root requires n >= 1 and g >= 1")
    if g >= n.bit_length():
        return 1  # n < 2**g
    if g == 1:
        return n
    # Start from a power of two guaranteed to be >= n**(1/g).
    x = 1 << -(-n.bit_length() // g)
    while True:
        y = ((g - 1) * x + n // x ** (g - 1)) // g
        if y >= x:
            break
        x = y
    return x
