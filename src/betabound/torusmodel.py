"""Lattice model of polarizations on products of elliptic curves.

The product X = E_0 x ... x E_{g-1} is modelled through its period
lattice.  Factor i carries the lattice basis (1, tau/k_i) where tau is
the imaginary unit and k_i is the factor's isogeny multiplier; the last
factor always has k_{g-1} = 1, giving the basis (1, tau).  Factor i
occupies lattice coordinates 2i and 2i+1.

A class is a nonnegative integer combination of the point divisors
F_0, ..., F_{g-1} (one per factor) and the correspondence divisor G,
the zero locus of (p_0, ..., p_{g-1}) |-> p_{g-1} - sum_{i<g-1} f_i(p_i)
with f_i : E_i -> E_{g-1} the degree-k_i isogeny acting as z |-> k_i z
on the universal cover.  Its first Chern class is the alternating matrix

    E = sum_i a_i * E_{F_i} + c * S^T E_std S,

where E_{F_i} is the standard symplectic block on factor i with sign
convention E(e_{2i}, e_{2i+1}) = +1, E_std is that block on the last
factor, and S is the 2 x 2g lattice matrix of the defining map of G.
E pairs even coordinates only with odd ones, so it is fixed by a g x g
block M (``AltForm.block``), and chi, the type and ampleness are read off
M; only the tests write E, as the oracle those readings are checked
against.  A form (``AltForm``) is a view of its class: the class and the
indices of the factors it keeps, all of them (``alt_form``) or some
(``restrict``), so a form and its class cannot be paired wrongly.

The choice tau = i makes the complex structure J rational (blocks
[[0, -1/k_i], [k_i, 0]]), so every invariant below (Euler characteristic,
type, the finite group K(l), ampleness) is computed by exact integer
linear algebra.  A class is ample exactly when chi > 0 (``is_ample``).
chi also has an intersection formula in the coefficients, whose one
implementation is ``restriction_scan``, checked against det M.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import index
from typing import Sequence

from .exactmath import _leading_minors, _smith_diagonal, leading_minors_all_positive


# Largest accepted g, for classes, `beta --general`, `np` and `search` alike.
# Every kernel is polynomial, the flag search included (O(g^2) closed-form
# ratios and one elimination), and interpreter start-up dominates a request:
# with the limit lifted, explicit `beta` on the all-ones class and
# `beta --general g 2^(g+1)+5` each take 0.12-0.17 s as a process at g = 12,
# 14, 16 and 20 (best of 3; 2 cores, Python 3.11.7).  The limit stays because
# the search's certificate_cost bound is measured up to g = 12 only.
MAX_DIMENSION = 12


class DegenerateFormError(ValueError):
    """Raised when an operation needs a nondegenerate alternating form."""


class LatticeInvariantError(AssertionError):
    """Internal invariant violation in the lattice model (a bug, never user input)."""


class OracleDisagreement(RuntimeError):
    """Two independent oracles disagreed; indicates a bug, never swallowed."""


@dataclass(frozen=True)
class ConstructionSpace:
    """The product X = E_0 x ... x E_{g-1} with isogeny multipliers k.

    ``k`` lists the multipliers of the first g-1 factors; the last factor
    implicitly has multiplier 1.  ``k_full``, set once here, lists those
    of all g factors, the last one being 1.
    """

    g: int
    k: tuple[int, ...]

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("dimension g must be >= 1")
        if self.g > MAX_DIMENSION:
            raise ValueError(f"dimension g must be <= {MAX_DIMENSION}")
        object.__setattr__(self, "k", tuple(map(index, self.k)))
        if len(self.k) != self.g - 1:
            raise ValueError("need exactly g-1 isogeny multipliers")
        if min(self.k, default=1) < 1:
            raise ValueError("isogeny multipliers must be >= 1")
        object.__setattr__(self, "k_full", self.k + (1,))


@dataclass(frozen=True)
class DivisorClass:
    """Class a_0*F_0 + ... + a_{g-1}*F_{g-1} + c*G with nonnegative coefficients."""

    space: ConstructionSpace
    a: tuple[int, ...]
    c: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(index, self.a)))
        object.__setattr__(self, "c", index(self.c))
        if len(self.a) != self.space.g:
            raise ValueError("need one coefficient per factor")
        if min(self.a) < 0 or self.c < 0:
            raise ValueError("coefficients must be nonnegative")
        if not any(self.a) and not self.c:
            raise ValueError("the zero class is not allowed")


def standard_class(space: ConstructionSpace, a: int, b: int) -> DivisorClass:
    """The distinguished family a*F_0 + F_1 + ... + F_{g-2} + b*F_{g-1} + G."""
    if space.g < 2:
        raise ValueError("standard classes need g >= 2")
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("need a, b >= 0 and not both zero")
    return DivisorClass(space, (a,) + (1,) * (space.g - 2) + (b,), 1)


class _memo:
    """``functools.cached_property`` without its lock (taken on every first
    read up to Python 3.11): the first read stores the value in the
    instance ``__dict__``, which shadows this non-data descriptor after."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class AltForm:
    """Alternating lattice form of a class on some of its factors, as a view
    of the class.

    ``cls`` is the class and ``keep`` the indices of the kept factors, in
    any order, stored as a tuple of ints (TypeError for a non-integer
    index, ValueError if it is empty, repeats an index or holds one that
    is not the class's): ``alt_form`` keeps every factor and
    ``restrict`` a subset of a form's.  The rest is derived from the two:
    the g x g block M[keep, keep] of the class's block M (``block``), the
    basis denominator k_i of each kept factor, which fixes the complex
    structure J (``factor_k``), and g = len(keep).  So every form is the
    block of a class, by construction.  The block, the Smith diagonal and
    ``full_scan`` are computed at most once per form and kept in its
    ``__dict__`` (``_memo``), so two forms of one class share none of them.
    """

    cls: DivisorClass
    keep: tuple[int, ...]

    def __post_init__(self):
        keep = tuple(map(index, self.keep))
        object.__setattr__(self, "keep", keep)
        if not keep or min(keep) < 0 or max(keep) >= self.cls.space.g or len(set(keep)) < len(keep):
            raise ValueError("keep must list one or more distinct factor indices of the class")

    @property
    def g(self) -> int:
        return len(self.keep)

    @property
    def factor_k(self) -> tuple[int, ...]:
        return tuple(map(self.cls.space.k_full.__getitem__, self.keep))

    @_memo
    def full_scan(self) -> tuple[int, tuple[int, ...]]:
        """``scan`` of every position, with the drops as a tuple: every reader shares it."""
        cls = self.cls
        chi, drops = restriction_scan(cls.a, cls.space.k_full, cls.c, self.keep)
        return chi, tuple(drops)

    def scan(self, positions: Sequence[int]) -> tuple[int, list[int]]:
        """``restriction_scan`` of the class on the factors at these positions (0..g-1)."""
        cls, keep = self.cls, self.keep
        return restriction_scan(cls.a, cls.space.k_full, cls.c, [keep[s] for s in positions])

    @_memo
    def block(self) -> tuple[tuple[int, ...], ...]:
        """M[keep, keep] as a tuple of integer rows, M the block of the class:
        row s, column t is M[keep[s]][keep[t]].

        E pairs even coordinates only with odd ones: each F_i pairs
        coordinate 2i with 2i + 1, and G = f^* of the point class of the
        last curve, for f the defining map with columns (x_i, 0) at 2i and
        (0, y_i) at 2i + 1, pairs u and v by
        c * (f_u[0] * f_v[1] - f_u[1] * f_v[0]), which vanishes unless one
        is even and the other odd.  With x = (-k_0, ..., -k_{g-2}, 1) and
        y = (-1, ..., -1, 1), E is then fixed by its g x g block

            M = diag(a) + c * x * y^T,   E[2i][2j+1] = M[i][j] = -E[2j+1][2i],

        and every other entry of E is 0; only M[keep, keep] is built, one
        entry at a time, as M[i][j] = a_i * [i = j] + c * x_i * y_j.  The
        pairing E(x, Jy) is symmetric with no check needed: every summand
        of E is f^* E_std for a C-linear map f onto one curve (the
        projection for F_i; for G the defining homomorphism, z |-> -k_i z
        on factor i < g-1 and the identity on the last), so E(x, Jy) =
        sum E_std(fx, J fy), and E_std(u, Jv) is symmetric on the curve.
        Both E and J restrict to the principal submatrix on the kept
        factors' lattice coordinates, so a restriction's block is M[S, S].
        The property tests check all of this against E written out from M.
        """
        cls, keep = self.cls, self.keep
        a, x = cls.a, [-k for k in cls.space.k] + [1]
        cy = [-cls.c] * len(cls.space.k) + [cls.c]  # c * y
        return tuple([tuple([x[i] * cy[j] + (a[i] if i == j else 0) for j in keep]) for i in keep])

    @_memo
    def snf_diagonal(self) -> tuple[int, ...]:
        """The Smith diagonal of the block M, g entries: E's elementary
        divisors are these, each twice.

        Listing the even coordinates first turns E into [[0, M], [-M^T, 0]];
        right-multiplying by the unimodular [[0, -I], [I, 0]] gives
        diag(M, M^T), and M^T has the Smith diagonal of M.  So the
        elementary divisors of E pair up, and the Smith form runs on g x g
        entries instead of 2g x 2g.  The block is square and integer by
        construction, so the kernel runs unchecked on a copy of it."""
        return _smith_diagonal([list(row) for row in self.block])


def alt_form(cls: DivisorClass) -> AltForm:
    """Alternating matrix of a class on the period lattice: the view that
    keeps every factor, in order, so its block is M (``AltForm.block``)."""
    return AltForm(cls, range(cls.space.g))


def restriction_scan(a: Sequence[int], k: Sequence[int], c: int, keep: Sequence[int]) -> tuple[int, list[int]]:
    """(chi(S), [chi(S - i) for i in S]) by the intersection formula in
    O(|S|), for S the kept factors, factor i with coefficient a[i] and
    multiplier k[i], and the class's c: the formula's one implementation.

    F_i and G are abelian subvarieties of codimension one, so their
    self-intersections vanish and chi(S) = P(S) + c * Q(S), with P(S) the
    product of the a_i over S and Q(S) = sum_{i in S} k_i * P(S - i)
    (k_{g-1} = 1); nothing kept is the empty product, chi 1.  The pair
    (P, Q) of a union of disjoint sets is (P1 * P2, P1 * Q2 + Q1 * P2),
    that of factor i alone (a_i, k_i), so chi(S + i) = a_i * chi(S) +
    c * k_i * P(S).  A backward pass gives the pair of the factors after
    each i and a forward one composes it with those before i.
    """
    after, p, q = [], 1, 0
    for i in reversed(keep):
        after.append((p, q))
        p, q = p * a[i], q * a[i] + k[i] * p
    head, chis, p, q = p + c * q, [], 1, 0  # (p, q): the factors before i
    for i, (p2, q2) in zip(keep, reversed(after)):
        chis.append(p * p2 + c * (p * q2 + q * p2))
        p, q = p * a[i], q * a[i] + k[i] * p
    return head, chis


def chi_affine(a: Sequence[int], c: int) -> tuple[int, tuple[int, ...]]:
    """chi of the class (a, c) as an affine function of k, (constant,
    weights) with chi = constant + sum_{i < g-1} k_i * weights[i], so a
    search can solve for a multiplier: chi = P + c * sum_i k_i * P(S - i),
    and one ``restriction_scan`` with c = 0 gives P and every P(S - i)."""
    p, drops = restriction_scan(a, a, 0, range(len(a)))  # any k: c = 0 ignores it
    return p + c * drops[-1], tuple(c * x for x in drops[:-1])


def chi_multilinear(cls: DivisorClass) -> int:
    """Euler characteristic from the intersection numbers of the basis: the
    head of the ``restriction_scan`` of every factor."""
    return restriction_scan(cls.a, cls.space.k_full, cls.c, range(cls.space.g))[0]


def chi_pfaffian(form: AltForm) -> int:
    """Euler characteristic as the Pfaffian of the alternating form, which
    is det M for M its block.

    In interleaved order Pf(E) = det M (the sign argument is in the
    ``threshold.flag_profile`` docstring), and det M is the last pivot of
    one fraction-free Bareiss elimination of M (``_leading_minors``),
    which stops at the first pivot <= 0.  Proof that a stop means
    det M = 0: y * k = x entrywise, so M * diag(k) = diag(a_i * k_i) +
    c * x * x^T is positive semidefinite (a_i, k_i, c >= 0), and each
    leading minor of M is that of M * diag(k) divided by a positive
    product of the k_i.  A positive semidefinite matrix with a singular
    leading block is singular (v^T A v = 0 forces A v = 0), so a zero
    pivot means det M = 0, and a negative one cannot occur; it raises
    LatticeInvariantError.  This holds for every form that can be built:
    its block is M[keep, keep] for the block M of a class, in any order,
    and M[keep, keep] * diag(k_keep) =
    P^T (M * diag(k)) P, for P the 0/1 matrix that picks the columns
    keep, is positive semidefinite because M * diag(k) is.
    """
    minors = _leading_minors([list(row) for row in form.block])
    if minors[-1] < 0:
        raise LatticeInvariantError("negative leading minor of a semidefinite block")
    return minors[-1] if len(minors) == form.g else 0


def polarization_type(form: AltForm) -> tuple[int, ...]:
    """Type (d_1, ..., d_g) of the class: the Smith diagonal of the block
    (``AltForm.snf_diagonal``), with no entry 0 (DegenerateFormError) and
    the formula chi as its product (LatticeInvariantError), so the Smith
    form is checked against an independent oracle.  The chain d_1 | d_2 |
    ... holds by the Smith form itself."""
    diag = form.snf_diagonal
    if 0 in diag:
        raise DegenerateFormError("form is degenerate")
    if prod(diag) != form.full_scan[0]:
        raise LatticeInvariantError("type product does not match chi")
    return diag


def k_group(ptype: tuple[int, ...], full: bool = False) -> tuple[int, ...]:
    """Elementary divisors of the finite group K(l), the cokernel of E on
    the lattice, from the type: each entry of the type twice.

    By default the trivial divisors are dropped; ``full=True`` returns the
    complete doubled list (whose product is chi squared).
    """
    return tuple(x for x in ptype for _ in (0, 1) if full or x > 1)


def is_ample(form: AltForm) -> bool:
    """Ampleness as exact positive definiteness of the pairing E(x, Jy):
    fraction-free leading minors of M * diag(k), M the form's block.

    Rescaling the odd basis vector of factor i by k_i clears the
    denominators of E(x, Jy), and that diagonal congruence preserves
    symmetry and definiteness.  The rescaled pairing pairs even
    coordinates only with even ones and odd only with odd, and both g x g
    halves are M * diag(k) = diag(a_i * k_i) + c * x * x^T
    (``AltForm.block``, with y * k = x entrywise), so the pairing is
    definite iff M * diag(k) is, and the minor test runs on that one
    g x g matrix.

    On every class accepted here this is chi > 0, which the ``ample``
    command checks it against.  Proof: F_i and G are pullbacks of a point
    on one curve (by a projection, and by the homomorphism X -> E_{g-1}
    defining G), so each pairs positive semidefinitely, and so does their
    sum with coefficients a_i, c >= 0, zeros included.  Such a form is
    definite iff nondegenerate, and its matrix E J (det J = 1) has
    determinant chi^2.  Every term of chi = prod_i a_i + c * sum_i k_i
    prod_{j != i} a_j is >= 0, so ample iff chi > 0, that is iff no a_i
    is 0, or c > 0 and exactly one is.  A restriction pairs by a principal
    block of this pairing, definite if this one is, so its chi is nonzero;
    and by the recurrence chi(S + i) = a_i * chi(S) + c * k_i * P(S) of
    ``restriction_scan``, from chi = 1 on nothing kept, it is a sum of
    terms >= 0: every restriction of an ample class has chi > 0.
    """
    return leading_minors_all_positive([[m * kj for m, kj in zip(row, form.factor_k)] for row in form.block])


def restrict(form: AltForm, keep: Sequence[int]) -> AltForm:
    """Restriction to the subtorus spanned by the kept factors.

    ``keep`` holds positions in the form (0..g-1), checked here (an empty
    set is refused by ``AltForm``); the restriction is the view of the
    same class on the factors at those positions, in increasing position
    order, so its block is the principal block M[S, S]
    (``AltForm.block``) and needs no check of its own.
    """
    kept = sorted(set(keep))
    if kept and (kept[0] < 0 or kept[-1] >= form.g):
        raise ValueError("factor index out of range")
    return AltForm(form.cls, tuple(form.keep[i] for i in kept))  # AltForm refuses an empty keep


def curve_degrees(form: AltForm) -> tuple[int, ...]:
    """Degrees of the restrictions to the coordinate elliptic curves, the diagonal of M."""
    return tuple(row[i] for i, row in enumerate(form.block))
