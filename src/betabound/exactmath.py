"""Exact integer linear-algebra kernel.

Everything in this module is exact: matrices hold Python's
arbitrary-precision ints, elimination is fraction-free, and integer
roots come from integer Newton iteration.  No floating point anywhere.

The matrices handled here are small (2g x 2g, g <= torusmodel.MAX_DIMENSION),
so the algorithms favour simplicity and determinism over asymptotics; none
is exponential in g.  The Pfaffian and the leading-minor test are
fraction-free eliminations of O(n^3) integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(int(x) for r in rows for x in r))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def principal_submatrix(self, indices: Sequence[int]) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix(len(idx), len(idx), tuple(self.at(i, j) for i in idx for j in idx))

    def is_alternating(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        return all(self.at(i, i) == 0 for i in range(n)) and all(
            self.at(i, j) == -self.at(j, i) for i in range(n) for j in range(i + 1, n)
        )


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of ``m``.

    The min(rows, cols) entries are nonnegative, each dividing the next;
    they are the invariant factors, so the product of the first k is the
    gcd of the k x k minors.  Only the diagonal is kept: the unimodular
    row and column transforms are never materialized.  Pivot choice:
    smallest nonzero absolute value, ties broken by lowest row then
    column index, so the elimination path is deterministic.
    """
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols

    def add_row(src, dst, factor):
        # row_dst += factor * row_src
        arow, srow = a[dst], a[src]
        for jj in range(ncols):
            arow[jj] += factor * srow[jj]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0:
                    key = (abs(a[i][j]), i, j)
                    if pivot is None or key < pivot:
                        pivot = key
        if pivot is None:
            break
        _, pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        piv = a[t][t]
        dirty = False
        for i in range(nrows):
            if i != t and a[i][t] != 0:
                add_row(t, i, -(a[i][t] // piv))
                if a[i][t] != 0:
                    dirty = True
        for j in range(ncols):
            if j != t and a[t][j] != 0:
                add_col(t, j, -(a[t][j] // piv))
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # Ensure the pivot divides every remaining entry before locking it in.
        absorbed = False
        for i in range(t + 1, nrows):
            if any(a[i][j] % piv for j in range(t + 1, ncols)):
                add_row(i, t, 1)
                absorbed = True
                break
        if absorbed:
            continue
        t += 1

    return tuple(a[i][i] for i in range(limit))


def _pfaffian(b: list[list[int]]) -> tuple[int, list[int]]:
    """Pfaffian of an alternating matrix by fraction-free skew elimination,
    with the pivot of every step taken.

    Step t pivots on (x, y) = (2t, 2t + 1), p = b_xy, and sets each later
    b_ik to (p * b_ik - b_xi * b_yk + b_xk * b_yi) / prev, a division by the
    previous pivot that is exact and leaves the Pfaffian of {0, ..., 2t + 1,
    i, k} (Galbiati and Maffioli, "On the computation of Pfaffians", 1994),
    so the last pivot is the Pfaffian.  Each pivot is recorded before any
    swap: while no step has swapped, pivot t is the Pfaffian of the leading
    2t + 2 block, and a zero leading Pfaffian shows up as a 0.  A zero pivot
    swaps in the first later j with b_xj != 0, flipping the sign; with none,
    row x is zero and so is the Pfaffian, and the pivot list stops at that
    0.  Returns (Pfaffian, pivots).  The input is consumed.
    """
    n = len(b)
    sign, prev, pivots = 1, 1, []
    for x in range(0, n, 2):
        y = x + 1
        row_x = b[x]
        pivots.append(row_x[y])
        if row_x[y] == 0:
            j = next((j for j in range(y + 1, n) if row_x[j]), None)
            if j is None:
                return 0, pivots
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
    return sign * prev, pivots


class PfaffianCache:
    """Pfaffians of principal submatrices of one alternating matrix.

    Each index set asked for is eliminated once (``_pfaffian``) and its
    value kept, so the memo holds one entry per distinct set asked.  In
    the package only ``torusmodel.chi_pfaffian`` asks, always for the
    full set; the class stays because the benchmark traces its method.
    """

    def __init__(self, a: IntMatrix):
        if a.rows != a.cols or a.rows % 2 != 0 or not a.is_alternating():
            raise ValueError("expected an alternating matrix of even dimension")
        self._flat = a.to_rows()
        self._memo: dict[tuple[int, ...], int] = {}

    def pfaffian_of(self, indices: Sequence[int]) -> int:
        """Pfaffian of the principal submatrix on ``indices``, taken in
        increasing order with duplicates collapsed; the empty set gives 1."""
        key = tuple(sorted(set(indices)))
        if len(key) % 2 != 0:
            raise ValueError("index set must have even size")
        value = self._memo.get(key)
        if value is None:
            flat = self._flat
            value = self._memo[key] = _pfaffian([[flat[i][j] for j in key] for i in key])[0]
        return value


def leading_minors_all_positive(rows: list[list[int]]) -> bool:
    """Whether every leading principal minor of an integer matrix is positive.

    Fraction-free Bareiss elimination: after step k the pivot equals the
    k-th leading principal minor, so the check can stop at the first
    nonpositive pivot.  The input is consumed.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        piv = rows[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            row_i, row_k = rows[i], rows[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (piv * row_i[j] - aik * row_k[j]) // prev
        prev = piv
    return True


def integer_root(n: int, g: int) -> int:
    """Largest m with m**g <= n, by integer Newton iteration."""
    if n < 1 or g < 1:
        raise ValueError("integer_root requires n >= 1 and g >= 1")
    if g == 1 or n == 1:
        return n
    # Start from a power of two guaranteed to be >= n**(1/g).
    x = 1 << -(-n.bit_length() // g)
    while True:
        y = ((g - 1) * x + n // x ** (g - 1)) // g
        if y >= x:
            break
        x = y
    return x
