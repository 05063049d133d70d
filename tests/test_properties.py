"""Property tests: library results against independent reference oracles."""

import dataclasses
import json
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import betabound.exactmath
from betabound import (
    AltForm,
    BetaInterval,
    Bound,
    Certificate,
    ConstructionParams,
    ConstructionSpace,
    DegenerateFormError,
    DivisorClass,
    NoRecipeError,
    Scope,
    SearchBox,
    alt_form,
    best_flag_bound,
    brute_search,
    certify,
    certify_class,
    chi_multilinear,
    chi_pfaffian,
    flag_lower_bound,
    flag_profile,
    integer_root,
    is_ample,
    max_np_arithmetic,
    np_from_beta,
    np_report,
    np_threshold,
    polarization_type,
    recipe_strict,
    restrict,
    smith_normal_form,
    standard_class,
    surface_beta,
)
from betabound.cli import _json_text, run
from betabound.exactmath import (
    PfaffianCache,
    _leading_minors,
    _pfaffian,
    _pivot,
    _smith_diagonal,
    leading_minors_all_positive,
)
from betabound.surfacetable import MAX_TABLE_DEGREE
from betabound.syzygy import SOURCE_BETA
from betabound.torusmodel import chi_affine, restriction_scan
from util import (
    IntMatrix,
    bipartite,
    exact_det,
    form_e,
    hermitian_pairing,
    is_positive_definite,
    leading_minors,
    reference_pfaffian,
    reference_search,
    restriction_chi,
    scan_max_np_arithmetic,
    scan_np_from_beta,
    scan_recipe_strict,
    scaled_pairing,
    skew_normal_form,
    subset_chis,
    subset_flag_bound,
    type_by_minor_gcds,
)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def classes(draw, max_g=5):
    g = draw(st.integers(1, max_g))
    k = tuple(draw(st.lists(st.integers(1, 6), min_size=g - 1, max_size=g - 1)))
    a = tuple(draw(st.lists(st.integers(0, 4), min_size=g, max_size=g)))
    c = draw(st.integers(0, 2))
    if not any(a) and c == 0:
        a = (1,) + a[1:]
    return DivisorClass(ConstructionSpace(g, k), a, c)


@st.composite
def ample_classes(draw, max_g):
    """An ample class: positive a_i with small or huge entries (small ones
    make ties), c = 0 drawn, and with c > 0 at most one a_i set to 0."""
    g = draw(st.integers(1, max_g))
    entry = st.one_of(st.integers(1, 4), st.integers(1, 10**6))
    k = tuple(draw(st.lists(entry, min_size=g - 1, max_size=g - 1)))
    a = draw(st.lists(entry, min_size=g, max_size=g))
    c = draw(st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 10**6)))
    zero = draw(st.none() | st.integers(0, g - 1))
    if c and zero is not None:
        a[zero] = 0
    return DivisorClass(ConstructionSpace(g, k), tuple(a), c)


@st.composite
def alternating_with_indices(draw):
    """An alternating matrix of even size 2..10 with mostly zero entries, so that
    zero pivots, swaps and vanishing Pfaffians are common, and an index
    list in any order with repeats."""
    n = 2 * draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(10**12), 10**12))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    indices = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return IntMatrix.from_rows(rows), indices


# 150 cheap examples: enough that random draws alone catch a pivot search
# that skips a column, which needs one lone nonzero right after the pivot
@settings(max_examples=150, deadline=None)
@given(alternating_with_indices())
# b_01 = 0: the first pivot swaps index 1 with 2 and the sign flips (Pf = -1)
@example((IntMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]), [3, 2, 1, 0, 0]))
# a zero row: no pivot at step 0, or none at step 1 after an update
@example((IntMatrix.from_rows([[0, 0, 0, 0], [0, 0, 2, 3], [0, -2, 0, 4], [0, -3, -4, 0]]), [0, 1, 2, 3]))
@example((IntMatrix.from_rows(
    [[0, 1, 0, 2, 3, 4], [-1, 0, 0, 5, 6, 7], [0, 0, 0, 0, 0, 0],
     [-2, -5, 0, 0, 8, 9], [-3, -6, 0, -8, 0, 1], [-4, -7, 0, -9, -1, 0]]), list(range(6))))
def test_pfaffian_matches_cofactor_expansion(case):
    m, indices = case
    cache = PfaffianCache(m.to_rows())
    distinct = sorted(set(indices))
    if len(distinct) % 2:
        with pytest.raises(ValueError):
            cache.pfaffian_of(indices)
    else:
        assert cache.pfaffian_of(indices) == reference_pfaffian(m, distinct)
    assert cache.pfaffian_of(range(m.rows - 1, -1, -1)) == reference_pfaffian(m, range(m.rows))


@st.composite
def alternating_matrices(draw, odd=False):
    """An alternating matrix of even size 2..12, or odd size 1..11, with
    small or huge entries."""
    n = 2 * draw(st.integers(1, 6)) - int(odd)
    entry = st.one_of(st.integers(-5, 5), st.integers(-(10**12), 10**12))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    return IntMatrix.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(alternating_matrices())
def test_pfaffian_pivots_are_leading_pfaffians(m):
    leading = [reference_pfaffian(m, range(2 * t)) for t in range(1, m.rows // 2 + 1)]
    assume(all(leading))
    rows = m.to_rows()
    assert [_pfaffian([row[: 2 * t] for row in rows[: 2 * t]]) for t in range(1, m.rows // 2 + 1)] == leading


@st.composite
def square_matrices(draw, max_n=8):
    """A square integer matrix of size 1..max_n with zero, small, negative
    or huge entries (singular ones common), or a Gram matrix B^T B, whose
    leading minors are all >= 0 and mostly positive."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**12), 10**12))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[sum(rows[k][i] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return rows


@settings(max_examples=100, deadline=None)
@given(square_matrices())
# a zero leading minor after a positive one stops the list, and a negative one
@example([[1, 2, 0], [3, 6, 1], [0, 1, 1]])
@example([[1, 2], [2, 1]])
@example([[0]])
def test_leading_minors_match_reference(m):
    assert _leading_minors([list(row) for row in m]) == leading_minors(m)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    alternating_with_indices().map(lambda case: case[0]), alternating_matrices(), alternating_matrices(odd=True)
))
# the pivot 2 does not divide the 3 it leaves behind: e_2 is added into e_0
@example(IntMatrix.from_rows([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]))
def test_skew_normal_form_matches_generic_smith_form(m):
    assert smith_normal_form(m.to_rows()) == skew_normal_form(m.to_rows())


@settings(max_examples=100, deadline=None)
@given(square_matrices())
@example([[0]])
@example([[-3]])
@example([[2, 4], [3, 6]])  # singular, with a pivot that divides nothing else
@example([[2, 0], [0, 3]])
def test_smith_diagonal_doubled_is_skew_form_of_bipartite(m):
    # [[0, M], [-M^T, 0]] is equivalent to diag(M, M^T), so its elementary
    # divisors are those of M, each twice
    diag = smith_normal_form(m)
    assert tuple(d for d in diag for _ in (0, 1)) == skew_normal_form(bipartite(m))


@settings(max_examples=100, deadline=None)
@given(square_matrices())
@example([[0]])
@example([[2, 4], [3, 6]])
def test_smith_kernel_is_the_public_form_unchecked(m):
    # smith_normal_form checks and copies its input, then runs the kernel
    # that AltForm.snf_diagonal runs on a copy of its block
    assert _smith_diagonal([list(row) for row in m]) == smith_normal_form(m)


@st.composite
def kernel_inputs(draw):
    """Rows for the form kernels, as lists or tuples: (rows, None) for an
    alternating integer matrix of even size, else (rows, fault) with one
    fault of the kinds ``PfaffianCache`` refuses; the Smith kernel refuses
    the STRUCTURAL_FAULTS and accepts the asymmetric and diagonal ones."""
    n = 2 * draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-5, 5))
            rows[j][i] = -rows[i][j]
    fault = draw(st.sampled_from([None, "long", "short", "wide", "tall", "asymmetric", "diagonal", "float", "string"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "long":
        rows[i].append(0)
    elif fault == "short":
        rows[i].pop()
    elif fault == "wide":
        rows = [row + [0] for row in rows]
    elif fault == "tall":
        rows.append([0] * n)
    elif fault == "asymmetric":
        j = (i + 1 + j % (n - 1)) % n  # j != i
        rows[i][j] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif fault == "diagonal":
        rows[i][i] = draw(st.sampled_from([-2, -1, 1, 2]))
    elif fault == "float":
        rows[i][j] = float(rows[i][j])  # still alternating as numbers
    elif fault == "string":
        rows[i][j] = str(rows[i][j])
    container = draw(st.sampled_from([list, tuple]))
    return container(container(row) for row in rows), fault


STRUCTURAL_FAULTS = ("long", "short", "wide", "tall", "float", "string")


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
@example(([[0, 1], [-1]], "short"))
def test_smith_kernel_input_check(case):
    # any square integer matrix is accepted, alternating or not
    rows, fault = case
    if fault in STRUCTURAL_FAULTS:
        with pytest.raises(ValueError):
            smith_normal_form(rows)
        return
    m = IntMatrix.from_rows(rows)
    diag = smith_normal_form(rows)
    assert tuple(d for d in diag for _ in (0, 1)) == skew_normal_form(bipartite(rows))
    if fault is None:
        assert diag == skew_normal_form(rows)
    assert IntMatrix.from_rows(rows) == m  # the input is copied, not consumed


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
# a short last row is the one fault a column-against-row comparison misses
@example(([[0, 1], [-1]], "short"))
def test_pfaffian_cache_input_check(case):
    rows, fault = case
    if fault is not None:
        with pytest.raises(ValueError):
            PfaffianCache(rows)
        return
    m, n = IntMatrix.from_rows(rows), len(rows)
    assert PfaffianCache(rows).pfaffian_of(range(n)) == reference_pfaffian(m, range(n))
    assert IntMatrix.from_rows(rows) == m  # the input is kept, not consumed


@settings(max_examples=100, deadline=None)
@given(square_matrices(), st.integers(0, 7))
@example([[2, -1], [1, 3]], 0)  # -1 and 1 tie on size: the lower row wins
@example([[0, 0], [0, 0]], 0)
def test_pivot_is_the_least_nonzero_entry_of_the_trailing_block(m, t):
    # ties to the lowest i, then j: the least (|m_ij|, i, j)
    t %= len(m)
    entries = [(abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if i >= t and j >= t and x]
    assert _pivot(m, t) == min(entries, default=(0, 0, 0))


@st.composite
def minor_law_classes(draw):
    """A class with g <= 12, a_i <= 35 and often 0, c = 0..6 and k_i <= 30."""
    g = draw(st.integers(1, 12))
    k = tuple(draw(st.lists(st.integers(1, 30), min_size=g - 1, max_size=g - 1)))
    a = tuple(draw(st.lists(st.one_of(st.just(0), st.integers(0, 35)), min_size=g, max_size=g)))
    c = draw(st.integers(0, 6))
    return DivisorClass(ConstructionSpace(g, k), a, c if any(a) else max(c, 1))


@settings(max_examples=100, deadline=None)
@given(minor_law_classes())
@example(DivisorClass(ConstructionSpace(4, (2, 4, 6)), (6, 6, 6, 6), 3))  # type (3, 6, 6, 90)
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 5), 1))  # chi = 0
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (4, 6, 0), 0))  # rank 2, no rank-one term
def test_type_is_the_gcd_law_of_the_minors(cls):
    # the Smith kernel's pivot scan against the determinantal divisors of
    # diag(a) + c * x * y^T, read off the class by recurrences
    form = alt_form(cls)
    law = type_by_minor_gcds(cls)
    assert smith_normal_form(form.block) == law
    if chi_pfaffian(form) > 0:
        assert polarization_type(form) == law


@SETTINGS
@given(st.integers(2, 12).flatmap(lambda g: st.lists(st.integers(1, 30), min_size=g - 1, max_size=g - 1)),
       st.integers(0, 35), st.integers(0, 35))
@example([9, 3], 1, 3)
@example([1], 0, 1)
def test_standard_classes_are_cyclic(k, a, b):
    # with r the last factor and T the middle ones, c * k_r * prod_T a_j = 1
    # is a (g - 1) x (g - 1) minor, so D_(g-1) = 1 (type_by_minor_gcds)
    assume(a or b)
    cls = standard_class(ConstructionSpace(len(k) + 1, tuple(k)), a, b)
    expected = (1,) * len(k) + (chi_multilinear(cls),)
    assert polarization_type(alt_form(cls)) == expected == type_by_minor_gcds(cls)


@SETTINGS
@given(classes(max_g=12), st.integers(1, 2**12 - 1))
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 1), 0), 0b101)
def test_class_form_is_alternating_integer_rows(cls, mask):
    # the block is a tuple of int rows, and so is a restriction's; E written
    # from them is alternating and restricts to its principal submatrix
    form = alt_form(cls)
    keep = [i for i in range(form.g) if mask >> i & 1] or [form.g - 1]
    sub = restrict(form, keep)
    for f in (form, sub):
        assert isinstance(f.block, tuple) and all(isinstance(row, tuple) for row in f.block)
        assert all(type(x) is int for row in f.block for x in row)
        assert len(f.block) == f.g and all(len(row) == f.g for row in f.block)
    m = IntMatrix.from_rows(form_e(form))
    assert m.is_alternating()
    coords = [c for i in keep for c in (2 * i, 2 * i + 1)]
    assert form_e(sub) == tuple(map(tuple, m.principal_submatrix(coords).to_rows()))


@st.composite
def bounds(draw):
    """A positive rational, or an inverse root R^(-1/n) (a rational when R
    is a perfect n-th power)."""
    if draw(st.booleans()):
        return Bound.rational(Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))))
    return Bound.inverse_root(draw(st.integers(1, 10**6)), draw(st.integers(1, 6)))


def bound_power(b: Bound, n: int) -> Fraction:
    """b^n as a Fraction, for n a multiple of b's root degree."""
    return Fraction(b.p, b.q) ** (n // b.n)


@SETTINGS
@given(bounds(), bounds())
@example(Bound.rational(Fraction(1, 3)), Bound.inverse_root(27, 3))
@example(Bound.rational(Fraction(13, 40)), Bound.rational(Fraction(26, 80)))
@example(Bound.inverse_root(8, 6), Bound.inverse_root(2, 2))
@example(Bound.rational(Fraction(1, 2)), Bound.inverse_root(5, 2))
def test_bound_order_matches_fraction(x, y):
    # x -> x^n is increasing on positive numbers, so comparing the powers
    # as Fractions decides the order
    n = lcm(x.n, y.n)
    fx, fy = bound_power(x, n), bound_power(y, n)
    assert (x == y, x != y, x < y, x > y, x <= y, x >= y) == (fx == fy, fx != fy, fx < fy, fx > fy, fx <= fy, fx >= fy)


@SETTINGS
@given(st.integers(1, 50), st.integers(1, 6), st.integers(1, 4))
@example(2, 2, 3)
def test_equal_inverse_roots_hash_alike(s, n, k):
    a, b = Bound.inverse_root(s**k, n * k), Bound.inverse_root(s, n)
    assert a == b
    assert hash(a) == hash(b)


@SETTINGS
@given(classes(max_g=12))
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 1), 1))
def test_class_form_smith_diagonal_matches_generic(cls):
    # the block's diagonal doubled, the kernel on the whole form, and the
    # skew oracle on the whole form
    form = alt_form(cls)
    e = form_e(form)
    doubled = tuple(d for d in form.snf_diagonal for _ in (0, 1))
    assert doubled == smith_normal_form(e) == skew_normal_form(e)


@SETTINGS
@given(classes(max_g=12), st.integers(1, 2**12 - 1))
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 1), 0), 0b101)
@example(DivisorClass(ConstructionSpace(1, ()), (2,), 1), 1)
def test_class_form_is_its_block(cls, mask):
    # E from its definition, sum_i a_i * E_{F_i} + c * f^* E_std with f the
    # defining map of G (columns (x_i, 0) at 2i and (0, y_i) at 2i + 1), is
    # the matrix written from the block, and the block is diag(a) + c * x * y^T
    form, g = alt_form(cls), cls.space.g
    m = form.block
    x = [-k for k in cls.space.k] + [1]
    y = [-1] * (g - 1) + [1]
    f = [col for i in range(g) for col in ((x[i], 0), (0, y[i]))]
    e = [[cls.c * (fu[0] * fv[1] - fu[1] * fv[0]) for fv in f] for fu in f]
    for i, a in enumerate(cls.a):
        e[2 * i][2 * i + 1] += a
        e[2 * i + 1][2 * i] -= a
    assert form_e(form) == tuple(map(tuple, e))
    assert all(e[u][v] == 0 for u in range(2 * g) for v in range(u % 2, 2 * g, 2))
    for i in range(g):
        for j in range(g):
            assert m[i][j] == cls.a[i] * (i == j) + cls.c * x[i] * y[j] == e[2 * i][2 * j + 1] == -e[2 * j + 1][2 * i]
    keep = [i for i in range(g) if mask >> i & 1] or [g - 1]
    assert restrict(form, keep).block == tuple(tuple(m[i][j] for j in keep) for i in keep)


@SETTINGS
@given(classes(max_g=6))
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 1), 1))
@example(DivisorClass(ConstructionSpace(4, (3, 2, 1)), (1, 1, 1, 2), 1))
def test_principal_block_minors_are_restriction_chis(cls):
    m, g = alt_form(cls).block, cls.space.g
    for size in range(1, g + 1):
        for keep in combinations(range(g), size):
            minor = exact_det(IntMatrix.from_rows([[m[i][j] for j in keep] for i in keep]))
            assert minor == restriction_chi(cls, keep)


@SETTINGS
@given(classes(max_g=12), st.integers(1, 2**12 - 1))
def test_restriction_scan_matches_restriction_pfaffians(cls, mask):
    form, g = alt_form(cls), cls.space.g
    keep = [i for i in range(g) if mask >> i & 1] or [0]

    def det(kept):  # the Bareiss determinant of the principal block; 1 on nothing kept
        return chi_pfaffian(restrict(form, kept)) if kept else 1

    def scan_by_det(kept):
        return det(kept), [det([j for j in kept if j != i]) for i in kept]

    head, drops = restriction_scan(cls.a, cls.space.k_full, cls.c, keep)
    assert (head, drops) == scan_by_det(keep)
    # a form reads the same scan by position, in its own factor order
    chi, full_drops = scan_by_det(range(g))
    assert form.scan(keep) == (head, drops) and form.full_scan == (chi, tuple(full_drops))
    view = AltForm(cls, keep[::-1])
    assert view.scan(range(len(keep))) == (head, drops[::-1])
    assert view.full_scan == (head, tuple(drops[::-1]))


@SETTINGS
@given(st.data())
def test_chi_affine_matches_block_determinant(data):
    g = data.draw(st.integers(1, 12))
    a = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, 35)), min_size=g, max_size=g))
    c = data.draw(st.integers(0, 6))
    k = data.draw(st.lists(st.integers(1, 30), min_size=g - 1, max_size=g - 1))
    assume(any(a) or c)
    constant, weights = chi_affine(a, c)
    assert len(weights) == g - 1
    cls = DivisorClass(ConstructionSpace(g, k), a, c)
    assert constant + sum(ki * w for ki, w in zip(k, weights)) == chi_pfaffian(alt_form(cls))


@SETTINGS
@given(classes(max_g=12))
@example(DivisorClass(ConstructionSpace(4, (3, 2, 1)), (0, 2, 0, 1), 0))
@example(DivisorClass(ConstructionSpace(3, (5, 4)), (0, 0, 0), 2))
def test_pairing_is_symmetric(cls):
    # and pairs even coordinates only with even ones, odd only with odd,
    # each half being M * diag(k), the matrix ``is_ample`` runs on
    form, k = alt_form(cls), cls.space.k_full
    s = scaled_pairing(form_e(form), k)
    assert all(s[u][v] == s[v][u] for u in range(len(s)) for v in range(u))
    for i, row in enumerate(form.block):
        for j, m in enumerate(row):
            assert s[2 * i][2 * j] == s[2 * i + 1][2 * j + 1] == m * k[j]
            assert s[2 * i][2 * j + 1] == s[2 * i + 1][2 * j] == 0


# the zero-pivot path: the block's second leading minor is 0 (rows 0 and 1
# are proportional), so the elimination stops and det M = 0
DEGENERATE_ZERO_PIVOT = DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 5), 1)


@SETTINGS
@given(classes(max_g=12))
@example(DEGENERATE_ZERO_PIVOT)
@example(DivisorClass(ConstructionSpace(4, (3, 2, 1)), (0, 2, 0, 1), 0))
def test_block_determinant_is_the_pfaffian(cls):
    # det M of the block, Pf(E) of the 2g x 2g form and the intersection
    # formula, degenerate classes included
    form = alt_form(cls)
    pf = PfaffianCache(form_e(form)).pfaffian_of(range(2 * form.g))
    assert chi_pfaffian(form) == pf == chi_multilinear(cls)


@st.composite
def views(draw):
    """A class and a nonempty tuple of its factor indices, in any order,
    with repeats or without."""
    cls = draw(classes(max_g=12))
    g = cls.space.g
    return cls, tuple(draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=g + 2, unique=draw(st.booleans()))))


THREEFOLD_40 = DivisorClass(ConstructionSpace(3, (9, 3)), (1, 1, 3), 1)


@SETTINGS
@given(views())
@example((DEGENERATE_ZERO_PIVOT, (0, 1, 2)))
@example((THREEFOLD_40, (2, 0, 2)))
@example((THREEFOLD_40, (2, 1)))
def test_view_determinant_is_the_block_determinant(view):
    # the zero-pivot rule of chi_pfaffian holds for every form that can be
    # built: its block is M[keep, keep] for the class's M, in any order; a
    # keep with a repeated index builds no form
    cls, keep = view
    if len(set(keep)) < len(keep):
        with pytest.raises(ValueError):
            AltForm(cls, keep)
        return
    form, m = AltForm(cls, keep), alt_form(cls).block
    assert form.block == tuple(tuple(m[i][j] for j in keep) for i in keep)
    assert chi_pfaffian(form) == exact_det(IntMatrix.from_rows(form.block))
    assert chi_pfaffian(form) == restriction_chi(cls, keep)


@SETTINGS
@given(classes(max_g=12), st.integers(0, 2**11 - 1), st.integers(1, 2**12 - 1))
@example(THREEFOLD_40, 0b01, 0b10)
# not ample, with an ample restriction on {1, 2}
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 1), 1), 0b10, 0b11)
def test_restriction_is_the_class_on_its_factors(cls, mask, sub_mask):
    # the flag search on a restriction holding the last factor is the one on
    # the class those factors carry, and restrictions compose
    g = cls.space.g
    keep = tuple(i for i in range(g - 1) if mask >> i & 1) + (g - 1,)
    a = tuple(cls.a[i] for i in keep)
    assume(any(a) or cls.c)
    sub = DivisorClass(ConstructionSpace(len(keep), tuple(cls.space.k[i] for i in keep[:-1])), a, cls.c)
    view = restrict(alt_form(cls), keep)
    if chi_multilinear(sub) > 0:
        assert best_flag_bound(view) == best_flag_bound(alt_form(sub))
        assert flag_lower_bound(view) == flag_lower_bound(alt_form(sub))
    else:
        with pytest.raises(ValueError):
            best_flag_bound(view)
    kept = [t for t in range(len(keep)) if sub_mask >> t & 1] or [0]
    assert restrict(view, kept).keep == tuple(keep[t] for t in kept)


@SETTINGS
@given(classes(max_g=12), st.integers(1, 2**12 - 1))
@example(DEGENERATE_ZERO_PIVOT, 0b111)
def test_is_ample_matches_scaled_pairing(cls, mask):
    # the minor test on M * diag(k) decides as the one on the whole 2g x 2g
    # rescaled pairing, for the form and a restriction of it
    form = alt_form(cls)
    keep = [i for i in range(form.g) if mask >> i & 1] or [form.g - 1]
    for f in (form, restrict(form, keep)):
        assert is_ample(f) == leading_minors_all_positive(scaled_pairing(form_e(f), f.factor_k))


@SETTINGS
@given(classes(max_g=12))
@example(DEGENERATE_ZERO_PIVOT)
def test_runtime_never_runs_the_skew_pfaffian(cls):
    # the certificate and the form commands read chi off the block; the
    # skew elimination of the 2g x 2g form is a test oracle only
    calls, real = [], betabound.exactmath._pfaffian
    argv = ["--g", str(cls.space.g), "--k", ",".join(map(str, cls.space.k)),
            "--a", ",".join(map(str, cls.a)), "--c", str(cls.c)]
    chi = chi_multilinear(cls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betabound.exactmath, "_pfaffian", lambda b: calls.append(len(b)) or real(b))
        for command in ("chi", "ample", "type", "kgroup"):
            try:
                run([command] + argv)
            except DegenerateFormError:
                assert chi == 0 and command in ("type", "kgroup")
        if chi:
            certify_class(cls)
    assert calls == []


@SETTINGS
@given(classes(max_g=6))
@example(DEGENERATE_ZERO_PIVOT)
@example(THREEFOLD_40)
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 5, 2), 1))
def test_certificate_chi_is_the_natural_order_determinant(cls):
    # certify's chi is the formula's, checked against the flag chain's
    # elimination in drop order; the block's elimination in its own order
    # and the skew Pfaffian of E agree with it, and a zero refuses the class
    form = alt_form(cls)
    pf = PfaffianCache(form_e(form)).pfaffian_of(range(2 * form.g))
    assert chi_pfaffian(form) == pf
    if pf == 0:
        with pytest.raises(DegenerateFormError):
            certify_class(cls)
    else:
        assert certify_class(cls).chi == chi_pfaffian(form) == pf


def permutation_flag_oracle(form):
    """Best flag bound by walking every drop order over explicit restrictions.

    Every restriction along every flag is tested for ampleness on its
    own, and its chi is the Pfaffian of the restricted form.
    """
    best = None
    for order in permutations(range(form.g)):
        kept = list(range(form.g))
        chis = []
        for dropped in order:
            sub = restrict(form, kept)
            assert is_ample(sub)
            chis.append(chi_pfaffian(sub))
            kept.remove(dropped)
        bound = max([Fraction(1, chis[-1])] + [Fraction(chis[i], chis[i - 1]) for i in range(1, len(chis))])
        if best is None or bound < best[0]:
            best = (bound, order, tuple(chis))
    return best


@SETTINGS
@given(classes())
def test_best_flag_bound_matches_permutation_oracle(cls):
    form = alt_form(cls)
    assume(is_ample(form))
    bound, order, chis = permutation_flag_oracle(form)
    assert best_flag_bound(form) == (bound, order, chis)
    assert flag_profile(form, order) == chis


@settings(max_examples=60, deadline=None)
@given(ample_classes(max_g=10))
# g = 1, and c = 0 with ties everywhere
@example(DivisorClass(ConstructionSpace(1, ()), (3,), 0))
@example(DivisorClass(ConstructionSpace(4, (1, 1, 1)), (2, 2, 2, 2), 0))
# one zero a_i, at the front and at the back
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 1, 1), 1))
@example(DivisorClass(ConstructionSpace(4, (3, 2, 1)), (1, 1, 2, 0), 2))
def test_best_flag_bound_matches_subset_dp(cls):
    assert best_flag_bound(alt_form(cls)) == subset_flag_bound(cls)


@SETTINGS
@given(ample_classes(max_g=6))
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 1, 1), 1))
def test_drop_costs_never_fall_as_sets_grow(cls):
    # the lemma the greedy flag optimum rests on: f_i(S) = chi(S - i)/chi(S)
    # <= f_i(S') for every i in S, S a subset of S' (all 3^g pairs)
    chi = subset_chis(cls)
    g = cls.space.g
    for big in range(1, 2**g):
        small = big
        while small:  # every nonempty subset of big
            for i in range(g):
                bit = 1 << i
                if small & bit:
                    assert chi[small ^ bit] * chi[big] <= chi[big ^ bit] * chi[small]
            small = (small - 1) & big


def assert_under_flag_ceiling(cert):
    """The lemma of ``syzygy``: an upper bound below 1/m = 1/(p_beta + 2)
    makes each chain chi, read upwards from chi_0 = 1, at least m times the
    one below it plus 1, so p_beta never exceeds p_arithmetic."""
    p_beta = np_from_beta(cert.interval)
    if p_beta is None:
        return
    m, below = p_beta + 2, 1
    for chi in reversed(cert.flag_chis):
        assert chi >= m * below + 1
        below = chi
    p_arithmetic = max_np_arithmetic(len(cert.flag_chis), cert.chi)
    assert p_arithmetic is not None and p_beta <= p_arithmetic


@SETTINGS
@given(classes())
# chain (40, 13, 4) under 1/3: every step of the lemma is tight
@example(DivisorClass(ConstructionSpace(3, (9, 3)), (1, 1, 3), 1))
# chain (6, 2), bound exactly 1/2: it certifies only p = -1
@example(DivisorClass(ConstructionSpace(2, (2,)), (2, 1), 1))
def test_flag_bound_never_beats_the_threshold(cls):
    assume(is_ample(alt_form(cls)))
    assert_under_flag_ceiling(certify_class(cls))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(1, 30), st.booleans())
@example(3, 7, False)
def test_search_results_never_beat_the_threshold(g, d, generalized):
    box = SearchBox(3, 3, min(d, 9), 2) if generalized else None
    for cert in brute_search(g, d, box, generalized):
        assert_under_flag_ceiling(cert)


def test_surface_rows_never_beat_the_threshold():
    for d in range(1, MAX_TABLE_DEGREE + 1):
        np_cert = np_report(2, d, surface_beta(d).interval)
        assert np_cert.p_beta == np_cert.p_arithmetic
        assert np_cert.source != SOURCE_BETA


@SETTINGS
@given(classes(max_g=6))
# degenerate (so not ample) with nondegenerate restrictions, then ample
@example(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 1), 1))
@example(DivisorClass(ConstructionSpace(4, (3, 2, 1)), (1, 1, 1, 2), 1))
def test_subset_chis_match_restriction_pfaffians(cls):
    form = alt_form(cls)
    chis = subset_chis(cls)
    g = cls.space.g
    assert len(chis) == 2**g
    for s in range(1, 2**g):
        assert chis[s] == chi_pfaffian(restrict(form, [i for i in range(g) if s >> i & 1]))


@SETTINGS
@given(classes(max_g=6))
@example(DivisorClass(ConstructionSpace(4, (3, 2, 1)), (1, 1, 1, 2), 1))
@example(DEGENERATE_ZERO_PIVOT)
def test_restriction_chi_matches_restriction_pfaffians(cls):
    form = alt_form(cls)
    g = cls.space.g
    assert restriction_chi(cls, []) == 1
    for s in range(1, 2**g):
        keep = [i for i in range(g) if s >> i & 1]
        chi = chi_pfaffian(restrict(form, keep))
        assert restriction_chi(cls, keep) == restriction_chi(cls, keep[::-1]) == chi


@SETTINGS
@given(classes(), st.data())
def test_is_ample_matches_fraction_pairing(cls, data):
    form = alt_form(cls)
    keep = data.draw(st.sets(st.integers(0, form.g - 1), min_size=1))
    for f in (form, restrict(form, keep)):
        assert is_ample(f) == is_positive_definite(hermitian_pairing(f))
        assert is_ample(f) == (chi_pfaffian(f) > 0)


@SETTINGS
@given(
    st.integers(2, 5).flatmap(lambda g: st.lists(st.integers(1, 6), min_size=g - 1, max_size=g - 1)),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_explicit_beta_matches_certify(k, a, b):
    assume(a or b)
    params = ConstructionParams(g=len(k) + 1, k=k, a=a, b=b)
    cert = certify(params).to_json()
    argv = ["beta", "--g", str(params.g), "--k", ",".join(map(str, k)),
            "--a", ",".join(map(str, params.coefficients())), "--c", "1"]
    results = run(argv)["results"]
    for key in ("chi", "type", "flag_bound"):
        assert results[key] == cert[key]


@SETTINGS
@given(
    st.integers(2, 3),
    # chi stays below 250 in these boxes, so large d is out of every shape's range
    st.one_of(st.integers(1, 12), st.integers(1, 300)),
    st.builds(SearchBox, st.integers(0, 3), st.integers(0, 3), st.integers(0, 5), st.integers(0, 2)),
    st.booleans(),
)
# b = 0 or a = 0 leave chi independent of some k_i (zero weights): at g = 2 with
# b = 0, chi = a for every k_1; d = 10^6 is out of range for every shape
@example(2, 2, SearchBox(3, 0, 5), False)
@example(3, 2, SearchBox(3, 0, 4), True)
@example(3, 3, SearchBox(0, 3, 4), True)
@example(3, 10**6, SearchBox(3, 3, 5), True)
def test_brute_search_matches_full_enumeration(g, d, box, generalized):
    expected = [c.params for c in reference_search(g, d, box, generalized)]
    assert [c.params for c in brute_search(g, d, box, generalized)] == expected


@st.composite
def small_searches(draw):
    """(g, d, box, generalized) with g <= 4, in boxes the full enumeration
    of ``reference_search`` covers quickly."""
    g = draw(st.integers(2, 4))
    top_a, top_k = {2: (4, 8), 3: (3, 5), 4: (2, 3)}[g]
    box = draw(st.builds(SearchBox, st.integers(0, top_a), st.integers(0, top_a), st.integers(1, top_k), st.integers(0, 2)))
    return g, draw(st.integers(1, 40)), box, draw(st.booleans())


@SETTINGS
@given(small_searches())
# many certificates with repeated flag bounds, some of them with different curve bounds
@example((3, 12, SearchBox(3, 3, 5), False))
@example((2, 12, SearchBox(4, 4, 8, 2), True))
@example((4, 9, SearchBox(2, 2, 3, 2), True))
def test_shared_certificates_equal_their_own(search):
    # a search hands one interval and N_p report to every certificate with
    # its key; each must still equal the certificate of its class alone
    expected = reference_search(*search)
    results = brute_search(*search)
    assert len(results) == len(expected)
    for cert, own in zip(results, expected):
        for field in dataclasses.fields(Certificate):
            assert getattr(cert, field.name) == getattr(own, field.name), field.name
        assert cert.interval.to_json() == own.interval.to_json()
        assert cert.np.to_json() == own.np.to_json()
    # and through one memo, as in a search envelope, each certificate's JSON
    # equals that of its own, written alone
    memo = {}
    assert [cert.to_json(memo) for cert in results] == [own.to_json() for own in expected]


@SETTINGS
# small boxes, and standard searches in their default boxes (None)
@given(st.one_of(small_searches(), st.tuples(st.integers(2, 3), st.integers(1, 48), st.none(), st.just(False))))
# many candidates per Smith diagonal, with more than one diagonal of chi = d
@example((3, 12, SearchBox(3, 3, 5), False))
@example((2, 12, SearchBox(4, 4, 8, 2), True))
@example((3, 36, None, False))
@example((4, 16, None, False))
def test_search_certificates_equal_fresh_certify(search):
    # a search shares the type and K(l) per Smith diagonal and the interval
    # per key; each certificate must equal that of its params certified alone
    for cert in brute_search(*search):
        own = certify(cert.params)
        for field in dataclasses.fields(Certificate):
            assert getattr(cert, field.name) == getattr(own, field.name), field.name


@SETTINGS
@given(small_searches())
# ties in bound, broken by the chi chain and then by the params
@example((3, 12, SearchBox(3, 3, 5), False))
@example((2, 12, SearchBox(4, 4, 8, 2), True))
@example((4, 9, SearchBox(2, 2, 3, 2), True))
def test_search_order_is_the_certificate_sort_key(search):
    # brute_search sorts on each bound's rank among the distinct bounds,
    # Certificate.sort_key on the bound itself: the orders must be one
    results = brute_search(*search)
    expected = sorted(results[::-1], key=Certificate.sort_key)
    assert [id(cert) for cert in results] == [id(cert) for cert in expected]


@st.composite
def degrees(draw):
    """(g, d) with d anywhere up to 10^9 (10^5 at g = 1, where the scans
    are linear in d) or within 2 of an (N_p) threshold."""
    g = draw(st.integers(1, 12))
    top = 10**5 if g == 1 else 10**9
    if draw(st.booleans()):
        return g, draw(st.integers(1, top))
    # np_threshold(g, p) >= (p+2)^g, so larger p overshoot top
    p = draw(st.integers(-1, integer_root(top, g) - 2))
    return g, max(1, min(top, np_threshold(g, p) + draw(st.integers(-2, 2))))


@SETTINGS
@given(degrees())
# d = 1 and d = g meet no threshold; p = -1 at g = 1 and 2; one below N_0 at g = 12
@example((1, 1))
@example((1, 2))
@example((2, 2))
@example((2, 3))
@example((12, 4094))
def test_threshold_inverse_matches_scans(gd):
    g, d = gd
    assert max_np_arithmetic(g, d) == scan_max_np_arithmetic(g, d)
    if g >= 2:
        try:
            expected = scan_recipe_strict(g, d)
        except NoRecipeError:
            with pytest.raises(NoRecipeError):
                recipe_strict(g, d)
        else:
            assert recipe_strict(g, d) == expected


@st.composite
def upper_bounds(draw):
    """A rational upper bound in [10^-4, 1] or an inverse root R^(-1/n)
    with R^(1/n) <= 10^4, so the reference scan stays short."""
    if draw(st.booleans()):
        den = draw(st.integers(1, 10**4))
        return Bound.rational(Fraction(draw(st.integers(1, den)), den))
    n = draw(st.integers(1, 6))
    return Bound.inverse_root(draw(st.integers(1, 10 ** (4 * n))), n)


@SETTINGS
@given(upper_bounds())
# 1/2 certifies only p = -1, 1 nothing and 1/3 only p = 0 (the bounds are
# non-strict); 13/40 lies strictly between 1/4 and 1/3, 15^(-1/3) between
# 1/3 and 1/2
@example(Bound.rational(Fraction(1, 2)))
@example(Bound.rational(1))
@example(Bound.rational(Fraction(1, 3)))
@example(Bound.rational(Fraction(13, 40)))
@example(Bound.inverse_root(15, 3))
def test_np_from_beta_matches_scan(upper):
    interval = BetaInterval(Bound.rational(Fraction(1, 10**5)), upper, Scope.GENERAL)
    assert np_from_beta(interval) == scan_np_from_beta(interval)


class _Text(str):
    pass


class _Int(int):
    pass


# str and int subclasses (bool among them) miss the writer's exact-type fast path
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | st.text()
    | st.text().map(_Text) | st.integers().map(_Int),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@SETTINGS
@given(json_values)
# non-ASCII (BMP and astral), quotes, backslashes and control characters
@example({"\u00e9\U0001f600": ["\"\\", "\x00\x1f\n\t\x7f"], "": [[], {}, ()], "b": (2**64 + 1, -3)})
def test_json_writer_matches_stdlib(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def trees_with_shared_nodes(draw):
    """JSON trees in which some dict and list objects appear several times,
    at one depth and at different depths."""
    shared = draw(st.lists(st.dictionaries(st.text(), json_values, max_size=3) | st.lists(json_values, max_size=3), min_size=1, max_size=3))
    return draw(st.recursive(
        st.none() | st.integers() | st.text() | st.sampled_from(shared),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
        max_leaves=20,
    ))


_node = {"lower": {"kind": "rational", "value": "1/4"}, "exact": False}
_items = [1, "x", _node]


@SETTINGS
@given(trees_with_shared_nodes())
@example({"a": _node, "b": [_node, {"c": _node}], "d": [_node, _node], "e": _items, "f": [_items, [_items]]})
@example([_node, _node, _node, [_node, _node], {"x": [_node, _node]}])
# one node met at two indents in turn
@example([_node, {"x": _node}, _node, {"x": _node}, _node, {"x": _node}])
def test_json_writer_matches_stdlib_on_shared_nodes(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def repeated_shapes(draw):
    """A list of dicts on one key set, inserted in two orders, holding any
    JSON values (bool, None, int and str subclasses, containers), sometimes
    a list of that shape one level further down, itself at depth 0..3."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    orders = (keys, keys[::-1])
    records = [{key: draw(json_values) for key in draw(st.sampled_from(orders))} for _ in range(draw(st.integers(2, 8)))]
    if draw(st.booleans()):
        records[0][keys[0]] = [{key: draw(json_values) for key in order} for order in orders]
    value = records
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from(([value], {"x": value}, [value, 0, value], ({"x": value},))))
    return value


_shape = {"k": [1, 2], "s": "x", "b": True}
_hand_shapes = [
    dict(_shape),
    {"b": False, "s": _Text("y"), "k": []},  # reversed insertion order
    {"k": {"nested": [dict(_shape)]}, "s": None, "b": _Int(7)},
    {"k": (3,), "s": "", "b": 0},
]


@SETTINGS
@given(repeated_shapes())
@example(_hand_shapes)
@example({"rows": _hand_shapes * 20, "deeper": [[{"z": [_hand_shapes]}]]})
@example([[{"a": 1, "b": 2}, {"b": 2, "a": 1}], {"a": [{"a": 1, "b": 2}]}])
def test_json_writer_matches_stdlib_on_repeated_shapes(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_types():
    assert _json_text([True, 1, False, 0, None]) == "[\n  true,\n  1,\n  false,\n  0,\n  null\n]"
    for value in (1.0, {"x": [0.5]}, {1: 2}, {1, 2}):
        with pytest.raises(TypeError):
            _json_text(value)
