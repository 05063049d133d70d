"""Property (N_p) guarantees from threshold bounds and degree arithmetic.

The syzygy properties form an increasing chain: N_{-1} is basepoint
freeness, N_0 is projective normality, N_1 additionally means the
homogeneous ideal is generated by quadrics.  Only p >= -1 is modelled.

Two sources of guarantees are kept apart: a certified upper bound
strictly below 1/(p+2) forces N_p (beta < 1/(p+2)) for the member it was
certified on, while the degree threshold d >= sum_{i=0}^{g} (p+2)^i
guarantees N_p for the general member of type (1, ..., 1, d).  Both are
inverted in closed form from an integer root; the strict recipe's m is
p + 2 of the same inverse.  The necessary conditions are non-strict
lower bounds, given as ``TaggedBound``s.

The threshold is also the flag method's ceiling.  Lemma: if a flag of a
degree-chi class has a bound below 1/m for an integer m >= 1, then
chi >= sum_{i=0}^{g} m^i.  Proof: read the flag's chain upwards, chi_1
for the last factor kept up to chi_g = chi, all positive integers.  The
bound is the largest of 1/chi_1 and the ratios chi_(t-1)/chi_t, so
1/chi_1 < 1/m gives chi_1 >= m + 1, and chi_(t-1)/chi_t < 1/m gives
chi_t > m * chi_(t-1), so chi_t >= m * chi_(t-1) + 1.  By induction
chi_t >= sum_{i=0}^{t} m^i, and at t = g that is np_threshold(g, m - 2).
So a certificate whose upper bound is a flag bound never has p_beta
above p_arithmetic: ``np_from_beta`` certifies p = m - 2 only for a bound
below 1/m, and then d = chi meets the threshold of that p.  The strict
recipe attains equality.  The type-(1, d) surface intervals obey the same
ceiling: with m the integer square root of d, their upper bound is 1,
1/2 (d = 5, 6), 1/m (d >= m^2) or (m + 1)/d (d >= m^2 + m + 1), which
certify p + 2 = 0, 1, m - 1 and at most m.  So no output reports
SOURCE_BETA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import integer_root
from .threshold import UNIT, BetaInterval, Bound, Scope, TaggedBound

SOURCE_BETA = "beta-bound"
SOURCE_ARITHMETIC = "arithmetic"


def np_threshold(g: int, p: int) -> int:
    """The degree threshold sum_{i=0}^{g} (p+2)^i guaranteeing N_p.

    For p = -1 every summand is 1, so the threshold degenerates to g+1,
    the basepoint-freeness cutoff.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if p < -1:
        raise ValueError("p must be >= -1")
    base = p + 2
    return sum(base**i for i in range(g + 1))


def max_np_arithmetic(g: int, d: int) -> int | None:
    """Largest p >= -1 with d >= np_threshold(g, p); None if even p = -1 fails."""
    if g < 1 or d < 1:
        raise ValueError("g and d must be >= 1")
    # The threshold is at least (p+2)^g, so m = p + 2 starts at the integer
    # g-th root of d and steps down at most once.  At g = 1 the threshold is
    # p + 3, one above the root d.  At g >= 2 and a root m >= 3, the sum of
    # (m-1)^i over i <= g is below (m-1)^(g+1) / (m-2) <= m^g <= d.  A root
    # m = 2 steps to p = -1 (g + 1 <= 2^g <= d), a root m = 1 to None (d <= g).
    m = integer_root(d, g)
    while m > 0 and np_threshold(g, m - 2) > d:
        m -= 1
    return m - 2 if m > 0 else None


def np_from_beta(interval: BetaInterval) -> int | None:
    """Largest p whose requirement beta < 1/(p+2) the interval certifies.

    The upper bound (p'/q)^(1/n) is non-strict, so it certifies p when it
    lies below 1/(p+2), that is when (p+2)^n * p' < q, or
    (p+2)^n <= (q - 1) // p': the largest such p + 2 is the integer n-th
    root of (q - 1) // p', and none exists when that quotient is 0.  An
    upper bound of exactly 1/2 certifies only p = -1, and 1 nothing.
    """
    upper = interval.upper
    top = (upper.q - 1) // upper.p
    m = integer_root(top, upper.n) if top else 0
    return m - 2 if m >= 1 else None


def necessary_lower_bounds(g: int, d: int) -> list[TaggedBound]:
    """Lower bounds for beta of type-(1, ..., 1, d) classes by contraposition.

    If d <= g the general member is not basepoint free, so its beta is 1.
    If the section count fails the projective-normality necessary
    condition dim Sym^2 H^0 >= dim H^0(2L), i.e. d(d+1)/2 < 2^g * d, no
    member is projectively normal, so beta >= 1/2 for all of them.
    Returned in decreasing order of the bound.
    """
    if g < 1 or d < 1:
        raise ValueError("g and d must be >= 1")
    rules = []
    if d <= g:
        rules.append(TaggedBound(UNIT, Scope.GENERAL, "not-basepoint-free"))
    if d * (d + 1) // 2 < 2**g * d:
        rules.append(TaggedBound(Bound.rational(Fraction(1, 2)), Scope.ALL, "projective-normality-count"))
    return rules


@dataclass(frozen=True)
class NpCertificate:
    """N_p guarantees for a (g, d) target, and necessary-condition verdicts.

    ``p_beta`` comes from a certified interval (None when no interval was
    supplied or it certifies nothing), ``p_arithmetic`` from the degree
    threshold.  The verdicts on the general member read off p_arithmetic:
    basepoint free iff N_-1 (d >= g+1), projectively normal iff N_0.
    """

    g: int
    d: int
    p_beta: int | None
    p_arithmetic: int | None

    @property
    def basepoint_free(self) -> bool:
        return self.p_arithmetic is not None

    @property
    def projectively_normal(self) -> bool:
        return self.p_arithmetic is not None and self.p_arithmetic >= 0

    @property
    def guaranteed_p(self) -> int | None:
        candidates = [p for p in (self.p_beta, self.p_arithmetic) if p is not None]
        return max(candidates) if candidates else None

    @property
    def source(self) -> str | None:
        # the p that attains the guarantee; ties go to the arithmetic threshold
        best = self.guaranteed_p
        if best is None:
            return None
        return SOURCE_ARITHMETIC if best == self.p_arithmetic else SOURCE_BETA

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "d": self.d,
            "guaranteed_p": self.guaranteed_p,
            "source": self.source,
            "p_beta": self.p_beta,
            "p_arithmetic": self.p_arithmetic,
            "basepoint_free_general": self.basepoint_free,
            "projectively_normal_general": self.projectively_normal,
        }


def np_report(g: int, d: int, interval: BetaInterval | None = None) -> NpCertificate:
    """Bundle the N_p guarantees for a dimension-g, degree-d target."""
    return NpCertificate(
        g=g,
        d=d,
        p_beta=np_from_beta(interval) if interval is not None else None,
        p_arithmetic=max_np_arithmetic(g, d),
    )
