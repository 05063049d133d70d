"""Recipes and searches producing certified constructions of type (1, ..., 1, d).

Two explicit recipes share one step: write d = ns + r with 1 <= r <= n
and take the standard class with a = r, b = n and multipliers
k_1 = s - (m^(g-2) + ... + m + 1)r, k_i = m^(g-i).  The "weak" recipe
takes m the integer g-th root of d and n = m - 1; it needs m >= 2 and
certifies a flag bound of at most 1/m.  The "strict" recipe takes n = m,
the largest integer with m^g + ... + m + 1 <= d; that m is p + 2 for the
largest p whose (N_p) degree threshold d meets, so it exists once
d >= g + 1, and the bound it certifies is strictly below 1/m.

The brute-force search runs the standard sweep (interior coefficients
and c equal to 1) and the generalized one through one loop over
coefficient shapes and k_2, ..., k_(g-1); chi is affine in k_1, which is
solved from chi = d instead of enumerated.

Every construction is certified before it is reported: both Euler
characteristic oracles must agree and chi must be nonzero (for these
classes that is ampleness, see ``torusmodel.is_ample``), the type is
recomputed from the elementary divisors of the lattice form and its
product checked against the Pfaffian, and the flag bound is minimized
over all drop orders.  A disagreement between oracles is a bug and is
never swallowed.

A certificate's beta interval and N_p report read nothing of its class
but g, chi, the flag bound, the curve bound and the extra lower-bound
rules.  Every candidate of one search has the same g and chi = d, and
many share a (flag bound, curve bound) pair: the 25 searches of one
seed-1 perfbench pass certify 4,729 candidates with 877 distinct pairs.
So ``brute_search`` builds each interval and report once per distinct
key and hands the same (frozen) objects to every certificate with that
key.  Every per-class oracle still runs on every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import index
from typing import Callable, Iterable

from .exactmath import integer_root
from .surfacetable import SurfaceRuleResult, surface_beta
from .syzygy import NpCertificate, max_np_arithmetic, necessary_lower_bounds, np_report
from .threshold import (
    BetaInterval,
    Bound,
    Scope,
    TaggedBound,
    best_flag_bound,
    combine_interval,
    exact_interval,
    flag_lower_bound,
)
from .torusmodel import (
    MAX_DIMENSION,
    AltForm,
    ConstructionSpace,
    DegenerateFormError,
    DivisorClass,
    FiniteGroupShape,
    OracleDisagreement,
    alt_form,
    chi_affine,
    chi_multilinear,
    chi_pfaffian,
    k_group,
    polarization_type,
)

CASE_RECIPE_WEAK = "recipe-weak"
CASE_RECIPE_STRICT = "recipe-strict"
CASE_EXPLICIT = "explicit"

# Search limits, checked before the work they bound.  Enumeration visits every
# coefficient shape and every (shape, k_2..k_(g-1)) pair once.  A pair costs
# 2.4-3.3 us, the most at g = 12, and a shape about four pairs more (chi_affine
# and the loop set-up: 7-9 us a shape with its one pair at g = 3 and max_k = 1,
# 16 us at g = 12).  So a box counts pairs + SHAPE_STEPS * shapes steps; boxes
# at the 5 * 10^5 limit enumerate in 0.8-1.6 s, where 10^6 pairs alone took
# 3.0 s at g = 12 and 10^6 shapes 8.4 s at g = 3.  The candidate limit is 10^4
# certificates at g <= 4, where one costs about 0.1 ms, so 1 s of
# certifying.  Above g = 4 it is divided by certificate_cost(g), an upper
# bound on the cost of one certificate in g = 4 certificates.  The median
# certify time over random standard classes (k_i in [1, 9], a and b in [1, 4],
# best of 3 each; median of 24 runs of 21 classes; median of four such
# measurements) is 0.10 / 0.12 / 0.15 / 0.17 / 0.19 / 0.22 / 0.26 / 0.30 /
# 0.34 ms at g = 4..12, that is 1.2 / 1.4 / 1.7 / 1.9 / 2.2 / 2.5 / 2.9 / 3.3
# certificates of g = 4 at g = 5..12 (2 cores, Python 3.11.7; the largest of
# the four on the shared host were 1.4 / 1.5 / 1.9 / 2.1 / 2.3 / 2.8 / 3.2 /
# 3.6), against costs of 2 / 3 / 4 / 4 / 6 / 7 / 8 / 9.
# Both limits stay above the largest known requests (search --g 4 --d 40:
# 40,100 steps, 5,764 candidates).
MAX_SEARCH_STEPS = 5 * 10**5
SHAPE_STEPS = 4
MAX_SEARCH_CANDIDATES = 10**4


def certificate_cost(g: int) -> int:
    """ceil(g^2 / 16): the cost of one certificate at g in g = 4 certificates,
    bounded above (see the search limits)."""
    return -(-g * g // 16)


# Largest degree general_beta accepts, checked before any construction, and
# the largest class entry the CLI accepts.  The recipes' multipliers grow with
# d, and so does the cost of certifying them (Smith form, Bareiss minors, flag
# search), but start-up dominates: with the limit lifted, `np --g 12` takes
# 0.07 s as a process at d = 10^100 and 10^200 and 0.09 s at 10^1000, and at
# g = 12 with every entry just under 10^100 explicit `ample` takes 0.09 s,
# `beta` 0.08 s and `type` 0.07 s, against 0.07 s for `chi` (best of 3,
# bytecode cache warm; 0.02 s more each without it; 2 cores, Python 3.11.7).
MAX_DEGREE = 10**100


class NoRecipeError(ValueError):
    """No recipe parameter choice exists for the requested degree."""


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of one construction: multipliers and coefficients.

    ``middle`` overrides the interior coefficients (default all ones) and
    ``c`` the coefficient of the correspondence divisor (default 1); both
    only differ from the defaults in generalized searches.
    """

    g: int
    k: tuple[int, ...]
    a: int
    b: int
    case: str = CASE_EXPLICIT
    m: int | None = None
    r: int | None = None
    s: int | None = None
    middle: tuple[int, ...] | None = None
    c: int = 1

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("constructions need g >= 2")
        object.__setattr__(self, "k", tuple(map(index, self.k)))
        if len(self.k) != self.g - 1:
            raise ValueError("need exactly g-1 multipliers")
        if self.middle is not None:
            object.__setattr__(self, "middle", tuple(map(index, self.middle)))
            if len(self.middle) != self.g - 2:
                raise ValueError("need exactly g-2 interior coefficients")

    def space(self) -> ConstructionSpace:
        return ConstructionSpace(self.g, self.k)

    def coefficients(self) -> tuple[int, ...]:
        middle = self.middle if self.middle is not None else (1,) * (self.g - 2)
        return (self.a,) + middle + (self.b,)

    def divisor_class(self) -> DivisorClass:
        return DivisorClass(self.space(), self.coefficients(), self.c)

    def sort_key(self) -> tuple:
        return (self.a, self.b, self.middle or (), self.c, self.k)

    def to_json(self) -> dict:
        payload = {
            "g": self.g,
            "k": list(self.k),
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "coefficients": list(self.coefficients()),
            "case": self.case,
        }
        if self.m is not None:
            payload.update({"m": self.m, "r": self.r, "s": self.s})
        return payload


@dataclass(frozen=True)
class Certificate:
    """A construction with all its independently verified invariants."""

    params: ConstructionParams | None
    chi: int
    ptype: tuple[int, ...]
    kgroup: FiniteGroupShape
    bound: Fraction
    witness_order: tuple[int, ...]
    flag_chis: tuple[int, ...]
    curve_lower: Fraction
    interval: BetaInterval
    np: NpCertificate

    def sort_key(self) -> tuple:
        return (self.bound, self.flag_chis) + self.params.sort_key()

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json() if self.params is not None else None,
            "chi": {"value": self.chi, "by": "multilinear=pfaffian"},
            "type": {"value": list(self.ptype), "by": "smith-normal-form"},
            "k_group": {"value": list(self.kgroup.divisors), "order": self.kgroup.order, "by": "smith-normal-form"},
            "flag_bound": {"value": str(self.bound), "order": list(self.witness_order), "chis": list(self.flag_chis), "by": "flag-restriction"},
            "curve_lower": {"value": str(self.curve_lower), "by": "curve-degree"},
            "interval": self.interval.to_json(),
            "np": self.np.to_json(),
        }


def _recipe(g: int, d: int, m: int, n: int, case: str) -> ConstructionParams:
    """The common step of both recipes: d = n*s + r with 1 <= r <= n, a = r,
    b = n, k_1 = s - (1 + m + ... + m^(g-2))*r and k_i = m^(g-i)."""
    r = (d - 1) % n + 1
    s = (d - r) // n
    k1 = s - sum(m**j for j in range(g - 1)) * r
    if k1 < 1:
        raise NoRecipeError(f"degenerate multiplier k1 = {k1} for g={g}, d={d}")
    k = (k1,) + tuple(m ** (g - i) for i in range(2, g))
    return ConstructionParams(g=g, k=k, a=r, b=n, case=case, m=m, r=r, s=s)


def recipe_weak(g: int, d: int) -> ConstructionParams:
    """Recipe certifying a bound of at most 1/m, with b = m - 1.

    m is the integer g-th root of d; m = 1 (d < 2^g) is a NoRecipeError.
    """
    if g < 2 or d < 1:
        raise ValueError("need g >= 2 and d >= 1")
    m = integer_root(d, g)
    if m == 1:
        raise NoRecipeError(f"no weak recipe for g={g}, d={d}: requires d >= 2^g")
    return _recipe(g, d, m, m - 1, CASE_RECIPE_WEAK)


def recipe_strict(g: int, d: int) -> ConstructionParams:
    """Recipe certifying a bound strictly below 1/m, with b = m.

    m is the largest integer with m^g + ... + m + 1 <= d, that is p + 2
    for p = max_np_arithmetic(g, d); d <= g is a NoRecipeError.
    """
    if g < 2 or d < 1:
        raise ValueError("need g >= 2 and d >= 1")
    p = max_np_arithmetic(g, d)
    if p is None:
        raise NoRecipeError(f"no valid m >= 1 for g={g}, d={d}: requires d >= g+1")
    return _recipe(g, d, p + 2, p + 2, CASE_RECIPE_STRICT)


def checked_chi(form: AltForm) -> int:
    """chi of the form's class, computed by both oracles, which must agree:
    the intersection formula of ``form.cls`` and the determinant of the
    form's block.

    Package-internal, and called only on ``alt_form`` forms, which keep
    every factor of their class, so both oracles read the whole class."""
    chi_formula = chi_multilinear(form.cls)
    chi_pf = chi_pfaffian(form)
    if chi_formula != chi_pf:
        raise OracleDisagreement(
            f"chi oracles disagree on {form.cls}: formula {chi_formula}, pfaffian {chi_pf}"
        )
    return chi_pf


def certify_class(
    cls: DivisorClass,
    lowers: Iterable[Callable[[int, int], Iterable[TaggedBound]]] = (),
) -> Certificate:
    """Run every oracle on a class and bundle the results.

    Each entry of ``lowers`` maps (g, chi) to extra ``TaggedBound`` lower
    bounds for the interval (e.g. ``necessary_lower_bounds``); they are
    built only once chi is known to be nonzero.  The certificate carries
    no params.

    Raises OracleDisagreement if the chi oracles disagree and
    DegenerateFormError if chi = 0.  Every other accepted class is ample
    (``torusmodel.is_ample``), so no ampleness test runs here.
    """
    return _certify(cls, None, tuple(lowers), {})


def certify(params: ConstructionParams, shared: dict | None = None) -> Certificate:
    """``certify_class`` on the class of the construction, with its params
    attached.

    ``shared``, when given, maps each (g, chi, flag bound, curve bound,
    lowers) key to the interval and N_p report built for it, which read
    nothing else, so certificates certified with one dict share those
    objects wherever their keys are equal.  By default nothing is shared.
    """
    return _certify(params.divisor_class(), params, (), {} if shared is None else shared)


def _certify(cls: DivisorClass, params: ConstructionParams | None, lowers: tuple, shared: dict) -> Certificate:
    form = alt_form(cls)
    chi = checked_chi(form)
    if chi == 0:
        raise DegenerateFormError(f"class {cls} is degenerate")
    g = cls.space.g
    ptype = polarization_type(form)
    kgroup = k_group(form)
    bound, order, chis = best_flag_bound(form)
    curve_lower = flag_lower_bound(form)
    # the Fractions as int pairs: hashing a Fraction costs a modular inverse
    key = (g, chi, bound.numerator, bound.denominator, curve_lower.numerator, curve_lower.denominator, lowers)
    bounds = shared.get(key)
    if bounds is None:
        interval = combine_interval(
            g,
            chi,
            uppers=[TaggedBound(Bound.rational(bound), Scope.SPECIFIC, "flag-bound")],
            lowers=[TaggedBound(Bound.rational(curve_lower), Scope.SPECIFIC, "curve-degree")]
            + [rule for rules in lowers for rule in rules(g, chi)],
            scope=Scope.SPECIFIC,
        )
        bounds = shared[key] = interval, np_report(g, chi, interval)
    return Certificate(params, chi, ptype.d, kgroup, bound, order, chis, curve_lower, *bounds)


def _box_too_large(size: str, limit: int) -> ValueError:
    return ValueError(
        f"search box has {size}, above the limit of {limit}; "
        "shrink it with --max-a, --max-b, --max-k or --max-c"
    )


@dataclass(frozen=True)
class SearchBox:
    """Coefficient and multiplier limits for the brute-force search."""

    max_a: int
    max_b: int
    max_k: int
    max_c: int = 2


def default_box(g: int, d: int) -> SearchBox:
    if g < 2 or d < 1:
        raise ValueError("need g >= 2 and d >= 1")
    limit = 2 * max(integer_root(d, g), 1)
    return SearchBox(max_a=limit, max_b=limit, max_k=d)


def brute_search(
    g: int,
    d: int,
    box: SearchBox | None = None,
    generalized: bool = False,
) -> list[Certificate]:
    """All certified constructions of type (1, ..., 1, d) inside the box.

    The default search sweeps standard classes (interior coefficients 1,
    correspondence coefficient 1); ``generalized=True`` also varies the
    interior coefficients and c.  Both run one loop over coefficient
    shapes and k_2, ..., k_(g-1), solving k_1 from chi = d; a shape whose
    chi cannot reach d with multipliers in the box is skipped.  Results
    are ranked by flag bound, ties by the chi chain along the witness
    flag, then by parameters, so the output order is deterministic.

    Every candidate is certified on its own, but with one ``shared`` dict
    for the call (``certify``): all candidates have this g and
    chi = d, so certificates with equal (flag bound, curve bound) hold
    the same interval and N_p report objects.  That is exact, since the
    key holds everything the two are built from, chi included although
    the search solved chi = d; and the dict lives only as long as the
    call, so no two searches share anything.  g above
    torusmodel.MAX_DIMENSION, boxes above MAX_SEARCH_STEPS and boxes with
    more than MAX_SEARCH_CANDIDATES // certificate_cost(g) candidates are
    refused before anything is certified.
    """
    if g < 2 or d < 1:
        raise ValueError("need g >= 2 and d >= 1")
    if g > MAX_DIMENSION:
        raise ValueError(f"dimension g must be <= {MAX_DIMENSION}")
    box = box if box is not None else default_box(g, d)
    if box.max_k < 1:
        # No multiplier fits, so no candidate can: nothing to enumerate.
        return []
    a_range, b_range, k_range = range(box.max_a + 1), range(box.max_b + 1), range(1, box.max_k + 1)
    if generalized:
        coeff_ranges, c_range = [a_range] * (g - 1) + [b_range], range(box.max_c + 1)
    else:
        coeff_ranges, c_range = [a_range] + [range(1, 2)] * (g - 2) + [b_range], range(1, 2)
    # Sizes from the range ends: len() overflows past sys.maxsize elements.
    shapes = prod(max(r.stop - r.start, 0) for r in coeff_ranges + [c_range])
    steps = shapes * (SHAPE_STEPS + box.max_k ** (g - 2))
    if steps > MAX_SEARCH_STEPS:
        raise _box_too_large(f"{steps} enumeration steps", MAX_SEARCH_STEPS)
    max_candidates = MAX_SEARCH_CANDIDATES // certificate_cost(g)
    candidates: list[ConstructionParams] = []
    # The zero class (all coefficients 0) has chi = 0 < d, so it never fits.
    for coeffs, c in product(product(*coeff_ranges), c_range):
        constant, weights = chi_affine(coeffs, c)
        # weights are >= 0 and every k_i lies in [1, max_k], so chi stays in this range
        total = sum(weights)
        if not constant + total <= d <= constant + box.max_k * total:
            continue
        middle = coeffs[1:-1] if generalized else None
        for rest in product(k_range, repeat=g - 2):
            free = d - constant - sum(k * w for k, w in zip(rest, weights[1:]))
            if weights[0] == 0:
                # chi does not depend on k_1: every k_1 fits or none does
                k1s, fits = (k_range, box.max_k) if free == 0 else ((), 0)
            else:
                k1, rem = divmod(free, weights[0])
                k1s = (k1,) if rem == 0 and k1 in k_range else ()
                fits = len(k1s)
            n = len(candidates) + fits
            if n > max_candidates:
                raise _box_too_large(f"at least {n} candidates", max_candidates)
            candidates.extend(
                ConstructionParams(g, (k1,) + rest, coeffs[0], coeffs[-1], middle=middle, c=c)
                for k1 in k1s
            )
    # every candidate has chi = d >= 1, so certify never finds it degenerate
    target, shared = (1,) * (g - 1) + (d,), {}
    results = [cert for cert in (certify(p, shared) for p in candidates) if cert.ptype == target]
    results.sort(key=Certificate.sort_key)
    return results


@dataclass(frozen=True)
class GeneralBetaReport:
    """Certified interval for the general member of type (1, ..., 1, d).

    ``strictly_below`` records a threshold the upper bound is verified to
    stay strictly under (the strict recipe certifies its bound < 1/m).
    """

    g: int
    d: int
    interval: BetaInterval
    witness: Certificate | None
    surface_rule: SurfaceRuleResult | None = None
    strictly_below: Fraction | None = None

    def to_json(self) -> dict:
        payload = {
            "g": self.g,
            "d": self.d,
            "interval": self.interval.to_json(),
            "witness": self.witness.to_json() if self.witness is not None else None,
        }
        if self.surface_rule is not None:
            payload["surface_rule"] = self.surface_rule.rule
        if self.strictly_below is not None:
            payload["strictly_below"] = str(self.strictly_below)
        return payload


def general_beta(g: int, d: int) -> GeneralBetaReport:
    """Bound beta for the general member of type (1, ..., 1, d).

    Upper bounds come from the recipe constructions (lifted to the
    general member by semicontinuity), lower bounds from the degree root
    and the necessary conditions; for surfaces the rule table supplies
    the sharper published values.  g above torusmodel.MAX_DIMENSION and d
    above MAX_DEGREE are refused before any construction is built.
    """
    if g < 1 or d < 1:
        raise ValueError("need g >= 1 and d >= 1")
    if g > MAX_DIMENSION:
        raise ValueError(f"dimension g must be <= {MAX_DIMENSION}")
    if d > MAX_DEGREE:
        raise ValueError("degree d must be <= 10^100")
    if g == 1:
        return GeneralBetaReport(
            g=1,
            d=d,
            interval=exact_interval(Fraction(1, d), Scope.ALL, "elliptic-degree"),
            witness=None,
        )
    certs: list[Certificate] = []
    for recipe in (recipe_weak, recipe_strict):
        try:
            certs.append(certify(recipe(g, d)))
        except NoRecipeError:
            pass
    if not certs:
        # Any degree admits the product-like class (a = d, b = 0), whose
        # flag bound is the trivial 1; it keeps the witness constructive.
        certs.append(certify(ConstructionParams(g=g, k=(1,) * (g - 1), a=d, b=0)))
    surface_rule = None
    if g == 2:
        surface_rule = surface_beta(d)
        interval = surface_rule.interval
        strictly_below = surface_rule.strictly_below
    else:
        uppers = [TaggedBound(Bound.rational(c.bound), Scope.SPECIFIC, f"flag-bound:{c.params.case}") for c in certs]
        interval = combine_interval(g, d, uppers, necessary_lower_bounds(g, d), scope=Scope.GENERAL)
        strictly_below = None
        for cert in certs:
            if cert.params.case == CASE_RECIPE_STRICT:
                threshold = Fraction(1, cert.params.m)
                if cert.bound < threshold:
                    strictly_below = threshold
    matching = [c for c in certs if Bound.rational(c.bound) == interval.upper]
    witness = min(matching, key=Certificate.sort_key) if matching else None
    return GeneralBetaReport(
        g=g,
        d=d,
        interval=interval,
        witness=witness,
        surface_rule=surface_rule,
        strictly_below=strictly_below,
    )
