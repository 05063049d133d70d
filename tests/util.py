"""Independent oracles shared by the test modules.

``IntMatrix``, a general (also rectangular) integer matrix, is a test
type: the library's kernels take square matrices as integer rows, and
only the generic oracles below work on rectangular ones.
The determinant here is intentionally computed by plain fraction
Gaussian elimination so that Pfaffian and Smith-form assertions are
checked against a path that shares no code with the library kernel.
The skew normal form by congruence is the reference for the library's
row-and-column Smith form: it works on the 2g x 2g alternating form where
the library reduces the g x g block, and the library's diagonal is also
checked through the gcds of minors built on exact_det, and on the block
of a class through the gcds of its minors read off the class by
recurrences (``type_by_minor_gcds``).  The leading
minors by exact_det are the reference for the library's Bareiss
elimination.
The 2g x 2g alternating form E, which the library never writes, is
written here from a form's block, with its integer pairing E(x, Jy)
rescaled by the multipliers; the Pfaffian of E is the reference for the
library's chi (the determinant of the block) and the minor test on the
rescaled pairing the reference for its ampleness test (on M * diag(k)).
Likewise the Fraction pairing and its positive-definiteness test are
the reference the integer ampleness test is compared with, and the full
enumeration with chi by Pfaffian the reference for the search; the plain
loop over every multiplier tuple, with chi by the (P, Q) recurrence, is
the reference for the order in which the search certifies its candidates.
The dynamic program over integer chains is the flag floor, the least
bound any flag of a degree-d class can certify.  The
upward scans over m and p are the references for the closed-form
inverses of the (N_p) threshold; they take about d^(1/g) steps.  The
recursive cofactor expansion is the signed reference for the library's
elimination Pfaffian (the determinant pins down only its square); it is
exponential in the matrix size.  The closed-form flag bound of a
standard class is the reference for the bound of the identity flag, and
the dynamic program over all 2^g subsets of factors the reference for
the greedy flag optimum.  ``containers`` lists a JSON tree's dicts and
lists, for the tests of which parts an output shares.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
import importlib.util
from itertools import combinations, product
from math import gcd
from pathlib import Path
import random
from typing import Sequence

from betabound import (
    AltForm,
    BetaInterval,
    Bound,
    Certificate,
    ConstructionParams,
    ConstructionSpace,
    DivisorClass,
    NoRecipeError,
    SearchBox,
    alt_form,
    certify_class,
    chi_pfaffian,
    flag_profile,
    np_threshold,
)
from betabound.constructor import CASE_RECIPE_STRICT
from betabound.exactmath import PfaffianCache
from betabound.torusmodel import LatticeInvariantError, restriction_scan


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
        n, a = self.rows, self.to_rows()
        return self.cols == n and all(a[i][j] == -a[j][i] for i in range(n) for j in range(i, n))


def pfaffian(m: IntMatrix) -> int:
    """Pfaffian of a whole alternating matrix, through the library's cache."""
    return PfaffianCache(m.to_rows()).pfaffian_of(range(m.rows))


def _pfaffian_mask(flat: list[list[int]], mask: int, memo: dict[int, int]) -> int:
    if mask == 0:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached
    idx = [i for i in range(len(flat)) if mask >> i & 1]
    i0 = idx[0]
    row = flat[i0]
    total = 0
    sign = 1
    for pos in range(1, len(idx)):
        j = idx[pos]
        entry = row[j]
        if entry:
            total += sign * entry * _pfaffian_mask(flat, mask & ~(1 << i0) & ~(1 << j), memo)
        sign = -sign
    memo[mask] = total
    return total


def reference_pfaffian(m: IntMatrix, indices: Sequence[int]) -> int:
    """Pfaffian of the principal submatrix on an even set of distinct indices,
    by cofactor expansion along the first row, memoized over index bitmasks."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return _pfaffian_mask(m.to_rows(), mask, {})


def diagonal(values: Sequence[int]) -> IntMatrix:
    n = len(values)
    return IntMatrix(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    rows = a.to_rows()
    cols = transpose(b).to_rows()
    return IntMatrix(a.rows, b.cols, tuple(sum(x * y for x, y in zip(r, c)) for r in rows for c in cols))


def exact_det(m: IntMatrix) -> Fraction:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.to_rows()]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return det


def determinantal_divisors(m: IntMatrix) -> tuple[int, ...]:
    """For k = 1, ..., min(rows, cols), the gcd of all k x k minors of m.

    The k-th entry equals the product of the first k Smith invariant
    factors, so this pins down the Smith diagonal through exact_det
    alone, sharing no code with the library's elimination.
    """
    divisors = []
    for k in range(1, min(m.rows, m.cols) + 1):
        d = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                minor = exact_det(IntMatrix(k, k, tuple(m.at(i, j) for i in rows for j in cols)))
                d = gcd(d, minor.numerator)
        divisors.append(d)
    return tuple(divisors)


def skew_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of a square alternating matrix,
    by congruence.

    An alternating integer matrix is congruent, m -> P^T m P with P
    unimodular, to a direct sum of blocks d_i * [[0, 1], [-1, 0]] and
    zeros with d_1 | d_2 | ... (the skew normal form; M. Newman, *Integral
    Matrices*, 1972).  A congruence is a row-and-column equivalence
    and the Smith diagonal is unique, so it is (d_1, d_1, d_2, d_2, ...,
    0, ...).  Each step takes the smallest nonzero |m_ij| with i < j (ties
    to the lowest i, then j), moves it to (t, t + 1) by symmetric swaps,
    makes it positive and clears rows t and t + 1 with e_k += r * e_t -
    q * e_(t+1).  A nonzero remainder is a smaller pivot for the next step;
    once the rows are clear, an entry the pivot p does not divide has its
    basis vector added into e_t, and otherwise the block p * J splits off.
    Anything but a square alternating integer matrix raises ``ValueError``.
    """
    a = [list(row) for row in m]
    if (
        any(len(row) != len(a) for row in a)
        or not all(isinstance(x, int) for row in a for x in row)
        or any(list(col) != [-x for x in row] for row, col in zip(a, zip(*a)))
    ):
        raise ValueError("expected a square alternating integer matrix")
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


def bipartite(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """The alternating matrix [[0, m], [-m^T, 0]] of a square matrix m."""
    n = len(m)
    top = [[0] * n + list(row) for row in m]
    return top + [[-m[i][j] for i in range(n)] + [0] * n for j in range(n)]


def leading_minors(m: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors of a square matrix by exact_det, up to and
    including the first one <= 0."""
    minors = []
    for k in range(1, len(m) + 1):
        minors.append(int(exact_det(IntMatrix.from_rows([row[:k] for row in m[:k]]))))
        if minors[-1] <= 0:
            break
    return minors


def random_alternating(rng: random.Random, dim: int, max_entry: int = 100) -> IntMatrix:
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            x = rng.randint(-max_entry, max_entry)
            rows[i][j] = x
            rows[j][i] = -x
    return IntMatrix.from_rows(rows)


def form_e(form: AltForm) -> tuple[tuple[int, ...], ...]:
    """The 2g x 2g alternating matrix E of a form, as integer rows, written
    from its block M: E[2i][2j+1] = M[i][j] = -E[2j+1][2i], every other
    entry 0."""
    n = 2 * form.g
    e = [[0] * n for _ in range(n)]
    for i, row in enumerate(form.block):
        for j, x in enumerate(row):
            e[2 * i][2 * j + 1], e[2 * j + 1][2 * i] = x, -x
    return tuple(map(tuple, e))


def scaled_pairing(e: Sequence[Sequence[int]], factor_k: Sequence[int]) -> list[list[int]]:
    """Integer matrix congruent to the pairing E(x, Jy).

    Rescaling the odd basis vector of factor i by k_i clears the
    denominators; a diagonal congruence preserves symmetry and
    definiteness.
    """
    rows = []
    for u, row_e in enumerate(e):
        du = 1 if u % 2 == 0 else factor_k[u // 2]
        row = []
        for i, k in enumerate(factor_k):
            row.append(du * k * row_e[2 * i + 1])
            row.append(-du * row_e[2 * i])
        rows.append(row)
    return rows


def hermitian_pairing(form: AltForm) -> tuple[tuple[Fraction, ...], ...]:
    """The pairing S(x, y) = E(x, Jy), as the matrix product E * J.

    J has two nonzero entries per factor block, so column 2i of S is
    k_i * (column 2i+1 of E) and column 2i+1 is -(column 2i of E) / k_i.
    """
    rows = []
    for row_e in form_e(form):
        row = []
        for i, k in enumerate(form.factor_k):
            row.append(Fraction(k * row_e[2 * i + 1]))
            row.append(Fraction(-row_e[2 * i], k))
        rows.append(tuple(row))
    return tuple(rows)


def is_positive_definite(s: Sequence[Sequence[Fraction | int]]) -> bool:
    """Exact positive-definiteness test via leading principal minors.

    The input must be symmetric (checked; asymmetry raises, since in
    this artifact it signals a pairing that is not compatible with the
    complex structure).  Gaussian elimination without row exchanges
    yields the pivots, whose running products are the leading minors;
    the matrix is positive definite iff every pivot is positive.
    """
    n = len(s)
    a = [[Fraction(x) for x in row] for row in s]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] / piv
                row_i, row_k = a[i], a[k]
                for j in range(k, n):
                    row_i[j] -= factor * row_k[j]
    return True


def reference_search(g: int, d: int, box: SearchBox, generalized: bool) -> list[Certificate]:
    """brute_search by enumerating every multiplier in [1, max_k]^(g-1).

    A candidate is kept when the Pfaffian of its form is d, which shares
    no code with the library's affine chi formula; d >= 1, so no kept
    candidate is degenerate.  Each is certified on its own by
    ``certify_class``, sharing nothing with any other, and gets its params
    attached afterwards.
    """
    if generalized:
        shapes = [
            (coeffs, c)
            for coeffs in product(*[range(box.max_a + 1)] * (g - 1), range(box.max_b + 1))
            for c in range(box.max_c + 1)
            if any(coeffs) or c
        ]
    else:
        shapes = [
            ((a,) + (1,) * (g - 2) + (b,), 1)
            for a in range(box.max_a + 1)
            for b in range(box.max_b + 1)
            if a or b
        ]
    target = (1,) * (g - 1) + (d,)
    results = []
    for coeffs, c in shapes:
        for k in product(range(1, box.max_k + 1), repeat=g - 1):
            if chi_pfaffian(alt_form(DivisorClass(ConstructionSpace(g, k), coeffs, c))) != d:
                continue
            middle = coeffs[1:-1] if generalized else None
            params = ConstructionParams(g=g, k=k, a=coeffs[0], b=coeffs[-1], middle=middle, c=c)
            cert = replace(certify_class(params.divisor_class()), params=params)
            if cert.ptype == target:
                results.append(cert)
    return sorted(results, key=Certificate.sort_key)


def enumerated_params(g: int, d: int, box: SearchBox, generalized: bool) -> list[ConstructionParams]:
    """The candidates ``brute_search`` certifies, in its order, by a plain
    loop: every coefficient shape (coefficients, then c, as the search
    sweeps them), and for each every k in [1, max_k]^(g-1), k_2..k_(g-1)
    lexicographic and k_1 innermost, kept when the class has chi = d.

    chi is P + c * Q over all factors, by the recurrence (P, Q) of S + i =
    (a_i * P, a_i * Q + k_i * P) (``subset_chis``): no affine solve.
    """
    k_range = range(1, box.max_k + 1)
    if generalized:
        shapes = product(*[range(box.max_a + 1)] * (g - 1), range(box.max_b + 1), range(box.max_c + 1))
    else:
        shapes = ((a,) + (1,) * (g - 2) + (b, 1) for a in range(box.max_a + 1) for b in range(box.max_b + 1))
    found = []
    for *coeffs, c in shapes:
        for rest in product(k_range, repeat=g - 2):
            for k1 in k_range:
                k, p, q = (k1,) + rest, 1, 0
                for a_i, k_i in zip(coeffs, k + (1,)):
                    p, q = p * a_i, q * a_i + k_i * p
                if p + c * q == d:
                    found.append(ConstructionParams(g, k, coeffs[0], coeffs[-1], middle=tuple(coeffs[1:-1]), c=c))
    return found


def flag_floors(g: int, top: int) -> list[Fraction | None]:
    """F(g, d) for d = 0, ..., top (entry 0 is None): the least bound of a
    chain of g positive integers chi_1, ..., chi_g = d, the bound being
    max(1/chi_1, chi_(t-1)/chi_t), as a flag of a degree-d class reads its
    chi chain upwards (the lemma in the ``syzygy`` docstring).  So no flag
    certificate of degree d has a bound below F(g, d).

    A dynamic program over chain lengths: with one entry F = 1/x, and a
    chain of length t ending at x extends one of length t - 1 ending at y,
    at bound max(y/x, F(t - 1, y)).  y > x costs a ratio above 1, and the
    constant chain (x, ..., x) costs 1 at most, so y runs over 1..x only;
    O(g * top^2) steps.  Bounds are (num, den) pairs compared by
    cross-multiplication.
    """
    best = [None] + [(1, x) for x in range(1, top + 1)]
    for _ in range(g - 1):
        nxt = [None]
        for x in range(1, top + 1):
            least = None
            for y in range(1, x + 1):
                num, den = best[y]
                if y * den > num * x:
                    num, den = y, x
                if least is None or num * least[1] < least[0] * den:
                    least = (num, den)
            nxt.append(least)
        best = nxt
    return [None] + [Fraction(num, den) for num, den in best[1:]]


def flag_floor(g: int, d: int) -> Fraction:
    """F(g, d) of ``flag_floors``."""
    return flag_floors(g, d)[d]


def flag_upper_bound(cls: DivisorClass, order: Sequence[int]) -> Fraction:
    """Upper bound for beta of this construction along one coordinate flag:
    the largest of 1/chi_last and the successive ratios chi_next/chi_prev
    of the ``flag_profile`` chain."""
    chis = flag_profile(alt_form(cls), order)
    return max([Fraction(1, chis[-1])] + [Fraction(chis[i], chis[i - 1]) for i in range(1, len(chis))])


def tail_sum(space: ConstructionSpace, i: int) -> int:
    """Sum of the multipliers of factors i+1, ..., g-1 (0 for i = g-1)."""
    return sum(space.k_full[i + 1 :])


def closed_form_bound(space: ConstructionSpace, a: int, b: int) -> Fraction:
    """Closed form of the identity-order flag bound for a standard class.

    With N_i the sum of the multipliers of the factors after the i-th,
    the restriction dropping the first i factors has chi = 1 + b*N_i, so
    the bound is max of the successive ratios and (1 + b*N_1)/d where
    d = a + a*b*N_1 + b*k_1.
    """
    if space.g < 2:
        raise ValueError("closed-form bound needs g >= 2")
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("need a, b >= 0 and not both zero")
    n1 = tail_sum(space, 0)
    d = a + a * b * n1 + b * space.k_full[0]
    terms = [Fraction(1 + b * tail_sum(space, i), 1 + b * tail_sum(space, i - 1)) for i in range(1, space.g)]
    terms.append(Fraction(1 + b * n1, d))
    return max(terms)


def scan_max_np_arithmetic(g: int, d: int) -> int | None:
    """Largest p >= -1 with d >= np_threshold(g, p), by scanning p upwards."""
    if g < 1 or d < 1:
        raise ValueError("g and d must be >= 1")
    if d < np_threshold(g, -1):
        return None
    p = -1
    while d >= np_threshold(g, p + 1):
        p += 1
    return p


def _certifies(upper: Bound, p: int) -> bool:
    return upper < Bound.rational(Fraction(1, p + 2))


def scan_np_from_beta(interval: BetaInterval) -> int | None:
    """Largest p whose requirement beta < 1/(p+2) the interval certifies,
    by scanning p upwards."""
    if not _certifies(interval.upper, -1):
        return None
    p = -1
    while _certifies(interval.upper, p + 1):
        p += 1
    return p


def _head_sum(m: int, g: int) -> int:
    # 1 + m + ... + m^(g-2)
    return sum(m**j for j in range(g - 1))


def scan_recipe_strict(g: int, d: int) -> ConstructionParams:
    """The strict recipe with m found by scanning m upwards."""
    if g < 2 or d < 1:
        raise ValueError("need g >= 2 and d >= 1")
    if d < g + 1:
        raise NoRecipeError(f"no valid m >= 1 for g={g}, d={d}: requires d >= g+1")
    m = 1
    while sum((m + 1) ** i for i in range(g + 1)) <= d:
        m += 1
    r = (d - 1) % m + 1
    s = (d - r) // m
    k1 = s - _head_sum(m, g) * r
    if k1 < 1:
        raise NoRecipeError(f"degenerate multiplier k1 = {k1} for g={g}, d={d}")
    k = (k1,) + tuple(m ** (g - i) for i in range(2, g))
    return ConstructionParams(g=g, k=k, a=r, b=m, case=CASE_RECIPE_STRICT, m=m, r=r, s=s)


def restriction_chi(cls: DivisorClass, keep: Sequence[int]) -> int:
    """Euler characteristic of the restriction to the kept factors, the
    head of the library's ``restriction_scan`` of them."""
    return restriction_scan(cls.a, cls.space.k_full, cls.c, keep)[0]


def subset_chis(cls: DivisorClass) -> list[int]:
    """Euler characteristic of the restriction to every subset of factors.

    Entry S, a bitmask of kept factors, is ``chi_affine`` on those
    factors: chi(S) = P(S) + c * Q(S) with P(S) = prod_{i in S} a_i and
    Q(S) = sum_{i in S} k_i * prod_{j in S - i} a_j (k_{g-1} = 1 whatever
    S keeps).  Adding factor j gives P(S + j) = P(S) * a_j and
    Q(S + j) = Q(S) * a_j + k_j * P(S), so all 2^g entries take O(2^g).
    Entry 0 (nothing kept) is the empty product 1.
    """
    p, q = [1], [0]
    for a, k in zip(cls.a, cls.space.k_full):
        # the appended half keeps this factor: its indices have its bit set
        p, q = p + [x * a for x in p], q + [y * a + k * x for x, y in zip(p, q)]
    return [x + cls.c * y for x, y in zip(p, q)]


def subset_flag_bound(cls: DivisorClass) -> tuple[Fraction, tuple[int, ...], tuple[int, ...]]:
    """Minimum flag bound over all drop orders: (bound, witness order, chi chain).

    A dynamic program over subsets of factors, 2^g * g steps where the
    drop orders number g!.  With chi(S) the formula chi of the
    restriction to the kept factors S (``subset_chis``), the best bound
    of the chains that start at S is f({j}) = 1/chi({j}) and

        f(S) = min over i in S of max(chi(S - i)/chi(S), f(S - i)).

    The witness walks down from the full set, each time dropping the
    smallest i whose two terms are both <= f(all): ties go to the
    lexicographically smallest optimal order.  The chain is the formula
    chain of the witness order.
    """
    chi = subset_chis(cls)
    if any(x <= 0 for x in chi):
        raise LatticeInvariantError("ample restriction with nonpositive chi")
    g, full = cls.space.g, len(chi) - 1
    bits = [1 << i for i in range(g)]
    # f(S) = num[S]/den[S], compared by cross-multiplication (denominators
    # are positive): Fraction arithmetic would cost a gcd per step, 10x the time.
    num, den = [1] * len(chi), list(chi)  # already f(S) for singletons
    for s in range(1, full + 1):
        if s & (s - 1) == 0:
            continue
        fn, fd = 0, 0  # no drop tried yet
        for bit in bits:
            if s & bit:
                t = s ^ bit
                n, d = (num[t], den[t]) if num[t] * chi[s] > chi[t] * den[t] else (chi[t], chi[s])
                if not fd or n * fd < fn * d:
                    fn, fd = n, d
        num[s], den[s] = fn, fd
    bound, order, formula_chain, s = Fraction(num[full], den[full]), [], [chi[full]], full
    while s & (s - 1):
        drop = next(
            i for i in range(g)
            if s & bits[i]
            and Fraction(chi[s ^ bits[i]], chi[s]) <= bound
            and Fraction(num[s ^ bits[i]], den[s ^ bits[i]]) <= bound
        )
        order.append(drop)
        s ^= bits[drop]
        formula_chain.append(chi[s])
    order.append(s.bit_length() - 1)
    return bound, tuple(order), tuple(formula_chain)



def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(d, s, t) with d = gcd(x, y) = s * x + t * y and d >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


def _lattice_add(basis: tuple[int, int, int], w: tuple[int, int]) -> tuple[int, int, int]:
    """The lattice of Z^2 with Hermite basis (e, f), (0, h), written
    (e, f, h) with f = 0 when e = 0, enlarged by the vector w."""
    e, f, h = basis
    w1, w2 = w
    d, s, t = _xgcd(e, w1)
    if d == 0:  # both first coordinates are 0
        return 0, 0, gcd(h, w2)
    # [[s, t], [w1/d, -e/d]] has determinant -1, so the two new vectors span
    # what (e, f) and w span; the second has first coordinate 0
    return d, s * f + t * w2, gcd(h, (w1 * f - e * w2) // d)


def type_by_minor_gcds(cls: DivisorClass) -> tuple[int, ...]:
    """The Smith diagonal of a class's block M = diag(a) + c * x * y^T
    (``AltForm.block``), from the gcds of its minors, in O(g^2) gcd steps
    and no elimination.

    A k x k minor on rows R and columns C with two or more rows outside C
    is 0: diag(a)[R, C] has two zero rows, and a rank-one term restores at
    most one.  The others are the principal minors, chi(S) for S = R = C
    (``restriction_chi``), and those with R = T + r and C = T + s for r, s
    outside T and r != s, which are +-c * x_r * y_s * prod_{j in T} a_j,
    |x_r| = k_r (k_{g-1} = 1) and |y_s| = 1: subtract multiples of row r,
    which is c * x_r * y_C^T, from the others.  So D_k, the gcd of the
    k x k minors, is the gcd of chi(S) over |S| = k and, for k <= g - 1
    (s needs room), of c * H_k, H_k the gcd of k_r * prod_T a over
    |T| = k - 1 and r outside T.  The Smith diagonal is D_k / D_(k-1)
    (M. Newman, *Integral Matrices*, 1972), 0 once D_k is.

    The gcds follow recurrences as factor n, with (a_n, k_n), joins the
    factors before it, j from high to low so that each reads the values
    without n:

    - the Z-span L_j of the vectors (P(S), Q(S)) over |S| = j, a lattice
      in Z^2 held by a Hermite basis, gains B_n * L_(j-1) with
      B_n = [[a_n, 0], [k_n, a_n]], since (P, Q) of S + n is
      (a_n * P, a_n * Q + k_n * P); chi = P + c * Q is linear, so the gcd
      of chi(S) over |S| = j is that of chi on the basis;
    - G_j, the gcd of prod_T a over |T| = j, becomes gcd(G_j, a_n * G_(j-1));
    - H_j becomes gcd(H_j, k_n * G_(j-1), a_n * H_(j-1)): r = n, or n in T.
    """
    g, c = cls.space.g, cls.c
    lattices = [(1, 0, 0)] + [(0, 0, 0)] * g  # L_0 holds (P, Q) of nothing kept
    big_g, big_h = [1] + [0] * g, [0] * (g + 1)
    for a, k in zip(cls.a, cls.space.k_full):
        for j in range(g, 0, -1):
            e, f, h = lattices[j - 1]
            for p, q in ((e, f), (0, h)):
                lattices[j] = _lattice_add(lattices[j], (a * p, a * q + k * p))
            big_h[j] = gcd(big_h[j], k * big_g[j - 1], a * big_h[j - 1])
            big_g[j] = gcd(big_g[j], a * big_g[j - 1])
    divisors = [1]
    for j in range(1, g + 1):
        e, f, h = lattices[j]
        divisors.append(gcd(e + c * f, c * h, c * big_h[j] if j < g else 0))
    return tuple(d // prev if prev else 0 for prev, d in zip(divisors, divisors[1:]))


def containers(tree) -> list:
    """Every nonempty dict and list of a JSON tree, once per place the tree
    holds it, so a shared node appears as often as it is held."""
    stack, found = [tree], []
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)) and node:
            found.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return found


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded by path (perfbench is not a package).

    Its ``checks`` module is the benchmark's outside checker: it imports
    nothing from betabound and re-derives what it can of an envelope from
    the argv alone.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
