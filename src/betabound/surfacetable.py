"""Exact values and bounds of beta for general type-(1, d) abelian surfaces.

For surfaces the generic upper bound 1/m (m the integer square root of
d) is sharp in several regimes, and for small d the projective-normality
obstruction pinches the interval to an exact value.  One rule fires per
degree, chosen by a fixed priority:

  1. d <= 2                                  -> beta = 1 (not basepoint free)
  2. d = m^2                                 -> beta = 1/m (root lower bound meets generic upper)
  3. d = m^2 + m, m odd                      -> beta = 1/m
  4. d = (m+1)^2 - 1 or (m+1)^2 - 2, m odd   -> beta = (m+1)/d
  5. d in {5, 6}                             -> beta = 1/2 (projective-normality pinch)
  6. otherwise  [d^(-1/2), (m+1)/d] if d >= m^2+m+1, else [d^(-1/2), 1/m]

In case 6 with d >= m^2 + m + 1 the upper bound (m+1)/d is itself
strictly below 1/m; the result records that threshold.  The lower bounds
of rules 3 and 4 hold for every surface of the type (odd m only); the
exactness statements are about the general member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import integer_root
from .threshold import BetaInterval, Bound, Scope, exact_interval

RULE_NOT_BPF = "not-basepoint-free"
RULE_PERFECT_SQUARE = "perfect-square"
RULE_ODD_SQUARE_PLUS_M = "odd-m-square-plus-m"
RULE_ODD_NEAR_SQUARE = "odd-m-near-next-square"
RULE_PROJ_NORMALITY = "projective-normality-pinch"
RULE_GENERIC = "generic-bounds"

# A table to 10^4 takes about 1 s and prints 6.1 MB of JSON, to 10^5 8.2 s
# and 62 MB (2 cores, Python 3.11.7); the output grows linearly past that.
MAX_TABLE_DEGREE = 10**4


@dataclass(frozen=True)
class SurfaceRuleResult:
    """Interval for one degree, the rule that produced it, and an optional
    strict threshold the upper bound is known to stay below."""

    d: int
    interval: BetaInterval
    rule: str
    strictly_below: Fraction | None = None

    @property
    def exact(self) -> bool:
        return self.interval.exact

    def display(self) -> str:
        """Table cell: the exact value, or '<= U' for interval entries."""
        if self.exact:
            return str(self.interval.upper)
        return f"<= {self.interval.upper}"

    def to_json(self) -> dict:
        payload = {
            "d": self.d,
            "interval": self.interval.to_json(),
            "rule": self.rule,
            "display": self.display(),
        }
        if self.strictly_below is not None:
            payload["strictly_below"] = str(self.strictly_below)
        return payload


def _exact(d: int, value: Fraction, rule: str) -> SurfaceRuleResult:
    return SurfaceRuleResult(d=d, interval=exact_interval(value, Scope.GENERAL, rule), rule=rule)


def surface_beta(d: int) -> SurfaceRuleResult:
    """Beta of the general type-(1, d) abelian surface, by the rule table."""
    if d < 1:
        raise ValueError("d must be >= 1")
    m = integer_root(d, 2)
    if d <= 2:
        return _exact(d, Fraction(1), RULE_NOT_BPF)
    if d == m * m:
        return _exact(d, Fraction(1, m), RULE_PERFECT_SQUARE)
    if d == m * m + m and m % 2 == 1:
        return _exact(d, Fraction(1, m), RULE_ODD_SQUARE_PLUS_M)
    if d in ((m + 1) ** 2 - 1, (m + 1) ** 2 - 2) and m % 2 == 1:
        return _exact(d, Fraction(m + 1, d), RULE_ODD_NEAR_SQUARE)
    if d in (5, 6):
        return _exact(d, Fraction(1, 2), RULE_PROJ_NORMALITY)
    strictly_below = None
    if d >= m * m + m + 1:
        upper = Fraction(m + 1, d)
        strictly_below = Fraction(1, m)
    else:
        upper = Fraction(1, m)
    interval = BetaInterval(
        lower=Bound.inverse_root(d, 2),
        upper=Bound.rational(upper),
        scope=Scope.GENERAL,
        lower_reason="degree-root",
        upper_reason=RULE_GENERIC,
    )
    return SurfaceRuleResult(d=d, interval=interval, rule=RULE_GENERIC, strictly_below=strictly_below)


def generate_table(d_max: int) -> list[SurfaceRuleResult]:
    """Rows for d = 1 .. d_max <= MAX_TABLE_DEGREE of the general-surface beta table."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max > MAX_TABLE_DEGREE:
        raise ValueError(f"d_max must be <= {MAX_TABLE_DEGREE}")
    return [surface_beta(d) for d in range(1, d_max + 1)]
