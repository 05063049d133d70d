"""Exact integer linear-algebra kernel.

Everything in this module is exact: a matrix is a square sequence of
rows of Python's arbitrary-precision ints, elimination is fraction-free,
and integer roots come from integer Newton iteration.  No floating point
anywhere.

The matrices handled here are the small alternating forms of classes
(2g x 2g, g <= torusmodel.MAX_DIMENSION), so the algorithms favour
simplicity and determinism over asymptotics; none is exponential in g.
The Smith form and the Pfaffian check their input in one place
(``_alternating_rows``) and eliminate the copy it returns.  The Pfaffian
and the leading-minor test are fraction-free eliminations of O(n^3)
integer operations; the Smith form of an alternating matrix is a
congruence reduction that shares no arithmetic with the Pfaffian, so
each checks the other.
"""

from __future__ import annotations

from typing import Sequence


def _alternating_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """A fresh list-of-lists copy of a square alternating integer matrix,
    for an elimination to consume; any other input raises ``ValueError``.
    Column i of an alternating matrix is minus row i, zero diagonal included."""
    a = [list(row) for row in m]
    if (
        any(len(row) != len(a) for row in a)
        or not all(isinstance(x, int) for row in a for x in row)
        or any(list(col) != [-x for x in row] for row, col in zip(a, zip(*a)))
    ):
        raise ValueError("expected a square alternating integer matrix")
    return a


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of a square alternating matrix.

    An alternating integer matrix is congruent, m -> P^T m P with P
    unimodular, to a direct sum of blocks d_i * [[0, 1], [-1, 0]] and
    zeros with d_1 | d_2 | ... (the skew normal form; M. Newman, *Integral
    Matrices*, 1972).  A congruence is a row-and-column equivalence
    and the Smith diagonal is unique, so it is (d_1, d_1, d_2, d_2, ...,
    0, ...): the elementary divisors come in pairs by construction.  Each
    step takes the smallest nonzero |m_ij| with i < j (ties to the lowest
    i, then j), moves it to (t, t + 1) by symmetric swaps, makes it
    positive and clears rows t and t + 1 with e_k += r * e_t - q * e_(t+1).
    A nonzero remainder is a smaller pivot for the next step; once the
    rows are clear, an entry the pivot p does not divide has its basis
    vector added into e_t, and otherwise the block p * J splits off.
    Anything but a square alternating integer matrix raises ``ValueError``.
    """
    a = _alternating_rows(m)
    n = len(a)

    def swap(u, v):
        a[u], a[v] = a[v], a[u]
        for row in a:
            row[u], row[v] = row[v], row[u]

    def add(k, r, u, q, v):
        # e_k += r * e_u + q * e_v: row k, then column k as minus row k
        row = a[k] = [x + r * y + q * z for x, y, z in zip(a[k], a[u], a[v])]
        row[k] = 0
        for i, x in enumerate(row):
            a[i][k] = -x

    diag, t = [], 0
    while t + 1 < n:
        nonzero = ((abs(x), i, j) for i in range(t, n) for j in range(i + 1, n) if (x := a[i][j]))
        pivot = min(nonzero, default=None)
        if pivot is None:
            break
        _, i, j = pivot
        swap(t, i)
        swap(t + 1, j)
        if a[t][t + 1] < 0:
            swap(t, t + 1)
        p, row_t, row_u = a[t][t + 1], a[t], a[t + 1]
        for k in range(t + 2, n):
            q, r = row_t[k] // p, row_u[k] // p
            if q or r:
                add(k, r, t, -q, t + 1)
        if any(row_t[t + 2 :]) or any(row_u[t + 2 :]):
            continue
        rest = range(t + 2, n) if p > 1 else ()  # a unit pivot divides everything
        bad = next((i for i in rest for j in range(i + 1, n) if a[i][j] % p), None)
        if bad is not None:
            add(t, 1, bad, 0, t + 1)
            continue
        diag += (p, p)
        t += 2
    return tuple(diag + [0] * (n - len(diag)))


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

    def __init__(self, a: Sequence[Sequence[int]]):
        self._rows = _alternating_rows(a)
        if len(self._rows) % 2:
            raise ValueError("expected an alternating matrix of even dimension")
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
            value = self._memo[key] = _pfaffian([[rows[i][j] for j in key] for i in key])[0]
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
