"""Exact bounds for the basepoint-freeness threshold beta.

beta itself is never computed, only bounded.  Lower bounds come from the
degree-root inequality beta >= chi^(-1/g) and from restriction to
coordinate elliptic curves, where beta equals the inverse degree.  Upper
bounds come from flags of coordinate subtori: dropping one factor at a
time and comparing the Euler characteristics along the chain gives a
certified upper bound for the specific construction.  The best flag is
found greedily on closed-form restriction chis: the cost of dropping a
factor never falls as more factors are kept, so the min-max order is a
single-machine scheduling problem that an exchange argument solves in
O(g^2) ratios, not g! orders.  Its witness chain is then read off the
Bareiss minors of the g x g block of the form, and the two must agree.
The flag functions take the form alone, a view of its class
(``torusmodel.AltForm``), and read the class's formula through its
``scan``, so the two sides of every cross-check describe the same form;
this module defines no formula.

Scope bookkeeping keeps the logic auditable: a bound either holds for
the one construction it was computed on ("specific-construction"), for
the general member of the family of that type ("general-member"), or for
every member ("all-members").  The only bridge between scopes is the
semicontinuity rule: an upper bound certified at one construction also
holds for the general member.  Lower bounds never cross scopes.

Every bound is non-strict: an interval states lower <= beta <= upper,
and it is exact when the two meet.  The paper's strict criterion
beta < 1/(p+2) is decided against that upper bound (``syzygy``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence

from .exactmath import _leading_minors, integer_root
from .torusmodel import (
    AltForm,
    LatticeInvariantError,
    OracleDisagreement,
    curve_degrees,
)

class InconsistentBoundsError(ValueError):
    """Lower bound exceeds upper bound; signals a bug upstream."""


class Scope(enum.Enum):
    SPECIFIC = "specific-construction"
    GENERAL = "general-member"
    ALL = "all-members"


@total_ordering
class Bound:
    """A bound value (p/q)^(1/n): an exact rational p/q in lowest terms is
    (p, q, 1), an inverse root q^(-1/n) is (1, q, n).

    Inverse roots with perfect-power radicand are normalized to
    rationals, so 9^(-1/2) compares equal to 1/3 structurally.  All
    remaining comparisons are decided exactly by integer power
    comparison, never by radicals.
    """

    __slots__ = ("p", "q", "n")

    def __init__(self, p: int, q: int, n: int):
        self.p, self.q, self.n = p, q, n

    @classmethod
    def rational(cls, value: Fraction | int) -> "Bound":
        value = Fraction(value)
        if value <= 0:
            raise ValueError("bounds must be positive")
        return cls(value.numerator, value.denominator, 1)

    @classmethod
    def inverse_root(cls, radicand: int, degree: int) -> "Bound":
        if radicand < 1 or degree < 1:
            raise ValueError("need radicand >= 1 and degree >= 1")
        root = integer_root(radicand, degree)
        if root**degree == radicand:
            return cls(1, root, 1)
        return cls(1, radicand, degree)

    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def _cmp(self, other: "Bound") -> int:
        # raised to the power n1 * n2 the two compare as p1^n2 * q2^n1 vs p2^n1 * q1^n2
        lhs, rhs = self.p**other.n * other.q**self.n, other.p**self.n * self.q**other.n
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        if not isinstance(other, Bound):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        if not isinstance(other, Bound):
            return NotImplemented
        return self._cmp(other) < 0

    def __gt__(self, other):
        # defined directly: total_ordering would call __lt__ and then __eq__
        if not isinstance(other, Bound):
            return NotImplemented
        return self._cmp(other) > 0

    def __hash__(self):
        # Hash p and x = q^(1/n) in lowest terms, so equal bounds hash alike:
        # the least m with x^m an integer s divides n and depends on x alone;
        # m = n always qualifies.
        for m in range(1, self.n + 1):
            if self.n % m == 0:
                s = integer_root(self.q, self.n // m)
                if s ** (self.n // m) == self.q:
                    return hash(("bound", self.p, s, m))

    def __repr__(self):
        return f"Bound({self})"

    def __str__(self):
        if self.n > 1:
            return f"{self.q}^(-1/{self.n})"
        return f"{self.p}/{self.q}" if self.q > 1 else str(self.p)

    def to_json(self) -> dict:
        if self.n == 1:
            return {"kind": "rational", "value": str(self)}
        return {
            "kind": "inverse-root",
            "radicand": self.q,
            "degree": self.n,
            "display": str(self),
        }


UNIT = Bound.rational(1)


@dataclass(frozen=True)
class TaggedBound:
    """A one-sided non-strict bound with validity scope and provenance."""

    value: Bound
    scope: Scope
    reason: str


@dataclass(frozen=True)
class BetaInterval:
    """Certified bounds lower <= beta <= upper, with a single validity scope."""

    lower: Bound
    upper: Bound
    scope: Scope
    lower_reason: str = ""
    upper_reason: str = ""

    def __post_init__(self):
        if self.upper > UNIT:
            raise InconsistentBoundsError("upper bound exceeds 1")
        if self.lower > self.upper:
            raise InconsistentBoundsError(
                f"lower bound {self.lower} ({self.lower_reason}) exceeds "
                f"upper bound {self.upper} ({self.upper_reason})"
            )

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json(self) -> dict:
        # Schema 1 keeps the strictness keys; no bound is ever strict.
        return {
            "lower": self.lower.to_json(),
            "lower_strict": False,
            "lower_by": self.lower_reason,
            "upper": self.upper.to_json(),
            "upper_strict": False,
            "upper_by": self.upper_reason,
            "exact": self.exact,
            "scope": self.scope.value,
        }


def exact_interval(value: Fraction | int, scope: Scope, reason: str = "") -> BetaInterval:
    b = Bound.rational(value)
    return BetaInterval(b, b, scope, reason, reason)


def beta_lower_chi(chi: int, g: int) -> Bound:
    """The lower bound chi^(-1/g), valid for every polarization with that chi."""
    if chi < 1:
        raise ValueError("chi must be positive")
    return Bound.inverse_root(chi, g)


def _check_ample(form: AltForm) -> None:
    """Refuse a form whose formula chi (``form.full_scan``, which the flag
    search reads anyway) is not positive: for these forms that is
    ampleness, and every restriction then has chi > 0 too
    (``torusmodel.is_ample``), so no minor test runs here.  No elimination
    runs either: the flag chain's Bareiss minors check the formula chi
    after (``best_flag_bound``)."""
    if form.full_scan[0] <= 0:
        raise ValueError("flag bounds require an ample class")


def flag_profile(form: AltForm, order: Sequence[int]) -> tuple[int, ...]:
    """The chain of restriction Euler characteristics along one flag.

    Factors are indexed by position in the form (0..g-1) and dropped in
    the given order, so entry t is chi of the restriction to the factors
    left after t drops.  The chi of a restriction to factors S is the
    Pfaffian of its form in interleaved order, which is det M[S, S] for M
    the form's block (``AltForm.block``): reordering to even coordinates
    first gives [[0, B], [-B^T, 0]], whose Pfaffian is
    (-1)^(t(t-1)/2) det B, and the reordering has that sign too.  So one
    fraction-free Bareiss elimination (``_leading_minors``) runs on the
    block with its factors in reverse drop order: its leading t x t minor
    is the chi of the restriction to the t factors dropped last, and the
    minors read backwards are the chain.  On an ample form every
    restriction has positive chi; a zero, negative or missing minor raises
    LatticeInvariantError.
    """
    _check_ample(form)
    order = tuple(order)
    if sorted(order) != list(range(form.g)):
        raise ValueError("order must be a permutation of the factor indices")
    return _flag_chain(form, order)


def _flag_chain(form: AltForm, order: Sequence[int]) -> tuple[int, ...]:
    """``flag_profile`` of an ample form along an order already known to be
    a permutation of its positions, without checking either."""
    m, rev = form.block, order[::-1]
    minors = _leading_minors([[m[u][v] for v in rev] for u in rev])
    if len(minors) != form.g or any(p <= 0 for p in minors):
        raise LatticeInvariantError("ample restriction with nonpositive chi")
    return tuple(reversed(minors))


def best_flag_bound(form: AltForm) -> tuple[Fraction, tuple[int, ...], tuple[int, ...]]:
    """Minimum flag bound over all drop orders: (bound, witness order, chi chain).

    Factors are indexed by position in the form (0..g-1).  The formula
    side reads the a_i and k_i of the factor at each position, and the
    class's c, through ``form.keep``, so a restriction's flag search runs
    the same code as a class's.

    Dropping factor i from the kept factors S costs f_i(S) = chi(S - i)/chi(S),
    with chi(S) the formula chi of that restriction and chi = 1 on nothing
    kept, so the last drop, of j, costs 1/chi({j}).  A flag's bound is the
    largest cost along it.  Where the drop orders number g!, two greedy
    passes find the minimum, each from one ``form.scan`` per set (O(|S|),
    ``torusmodel.restriction_scan``), O(g^2) in all; both start from
    ``form.full_scan``, a one-factor set, whose only drop leaves chi 1,
    needs no scan, and the witness pass reuses the value pass's scans for
    as long as the two have dropped the same factors, since they then
    stand on the same set:

    - value: from the full set, repeatedly drop an i of least f_i(S); the
      bound B is the largest cost paid;
    - witness: from the full set, repeatedly drop the smallest i with
      f_i(S) <= B.

    Proof.  With P(T) the product of the a_j over T and T = S - i, the
    recurrence chi(S) = a_i * chi(T) + c * k_i * P(T) gives f_i(S) =
    1/(a_i + c * k_i * rho(T)), rho(T) = P(T)/chi(T).  If no a_j in T is 0,
    then rho(T) = 1/(1 + c * sum_{j in T} k_j/a_j); once T holds a zero a_j
    (an ample class has at most one, and then c > 0), P(T) = 0 and
    rho(T) = 0.  Either way rho never grows as T grows, so f_i(S) <= f_i(S')
    for every i in S, S a subset of S' (every chi here is positive, see
    ``torusmodel.is_ample``).  Exchange: if S can be emptied with every cost
    <= B and f_i(S) <= B, then dropping i first, and the rest in their old
    order, keeps every cost <= B, since each other factor now leaves a
    subset of the set it left before.  Value: on each set the pass reaches,
    an optimal order (of cost B*) drops some j first with f_j(S) <= B*, so
    the pass's i has f_i(S) <= f_j(S) <= B*, and by exchange S - i can
    again be emptied within B*; so B <= B*, and B = B* as B is the cost of
    an order.  Witness: by exchange each
    drop keeps the rest within B, with no look-ahead, and the first drop of
    any optimal order qualifies, so the walk yields the lexicographically
    smallest optimal order.  This is Lawler's rule for the single-machine
    f_max problem (E. L. Lawler, Management Science 19(5), 1973).

    The chi chain is the ``flag_profile`` of the witness order, the Bareiss
    minors of the form's block, a second oracle independent of the formula:
    the chain must equal the formula chain and its bound the greedy's, else
    OracleDisagreement.  It runs through ``_flag_chain``, since the form was
    checked above and the witness is a permutation by construction.
    """
    _check_ample(form)
    # Costs are num/den pairs compared by cross-multiplication (denominators
    # are positive): Fraction arithmetic would cost a gcd per step.  The costs
    # at one set share its chi as denominator, so the least leaves the least chi.
    keep, (chi_s, drops), num, den = list(range(form.g)), form.full_scan, 0, 1
    walk = []  # the value pass's steps: (factor dropped, drops of the set left)
    while keep:
        chi_t, i = min(zip(drops, keep))
        if chi_t * den > num * chi_s:
            num, den = chi_t, chi_s
        keep.remove(i)
        chi_s, drops = form.scan(keep) if keep[1:] else (chi_t, [1])
        walk.append((i, drops))
    order, keep, formula_chain, drops = [], list(range(form.g)), [form.full_scan[0]], form.full_scan[1]
    same = True  # whether both passes have dropped the same factors so far
    while keep:
        # Exchange guarantees a drop within the bound; were there none, the
        # last factor goes, and its cost above the bound fails the check below.
        for i, chi_t in zip(keep, drops):
            if chi_t * den <= num * formula_chain[-1]:
                break
        step, drops = walk[len(order)]
        same = same and i == step
        order.append(i)
        keep.remove(i)
        formula_chain.append(chi_t)
        if not same:
            drops = form.scan(keep)[1] if keep[1:] else [1]
    formula_chain.pop()  # chi = 1 on nothing kept
    chis = _flag_chain(form, order)
    pf_num, pf_den = 1, chis[-1]
    for prev, nxt in zip(chis, chis[1:]):
        if nxt * pf_den > pf_num * prev:
            pf_num, pf_den = nxt, prev
    if chis != tuple(formula_chain) or pf_num * den != num * pf_den:
        raise OracleDisagreement(
            f"flag chain oracles disagree on {form} along order {order}: "
            f"formula {formula_chain} (bound {Fraction(num, den)}), "
            f"pfaffian {list(chis)} (bound {Fraction(pf_num, pf_den)})"
        )
    return Fraction(num, den), tuple(order), chis


def flag_lower_bound(form: AltForm) -> Fraction:
    """Largest inverse degree over the coordinate elliptic curves of the
    form's factors, that is one over the least degree, the least diagonal
    entry of its block (every degree of an ample form is positive).

    Restriction can only decrease beta, and beta of a degree-e bundle on
    an elliptic curve is exactly 1/e, so this is a lower bound for the
    specific construction (not for the general member).
    """
    _check_ample(form)
    return Fraction(1, min(curve_degrees(form)))


def combine_interval(
    g: int,
    chi: int,
    uppers: Iterable[TaggedBound] = (),
    lowers: Iterable[TaggedBound] = (),
    scope: Scope = Scope.GENERAL,
) -> BetaInterval:
    """Tightest interval from tagged bounds, restricted to one scope.

    A bound participates if its own scope is at least as wide as the
    requested one ("all-members" bounds apply everywhere).  In addition,
    when targeting the general member, upper bounds certified at a
    specific construction are admitted through the semicontinuity rule.
    The baseline bounds chi^(-1/g) <= beta <= 1 are always present; ties
    go to the first bound in the pool.
    """
    lower_pool = [TaggedBound(beta_lower_chi(chi, g), Scope.ALL, "degree-root")]
    upper_pool = [TaggedBound(UNIT, Scope.ALL, "threshold-range")]
    for tb in lowers:
        if tb.scope is Scope.ALL or tb.scope is scope:
            lower_pool.append(tb)
    for tb in uppers:
        if tb.scope is Scope.ALL or tb.scope is scope:
            upper_pool.append(tb)
        elif scope is Scope.GENERAL and tb.scope is Scope.SPECIFIC:
            upper_pool.append(TaggedBound(tb.value, Scope.GENERAL, tb.reason + "+semicontinuity"))
    best_low = max(lower_pool, key=lambda t: t.value)
    best_up = min(upper_pool, key=lambda t: t.value)
    return BetaInterval(best_low.value, best_up.value, scope, best_low.reason, best_up.reason)
