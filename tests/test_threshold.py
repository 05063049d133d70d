import random
from fractions import Fraction
from itertools import product

import pytest

import betabound.threshold
import betabound.torusmodel
from betabound import (
    BetaInterval,
    Bound,
    ConstructionSpace,
    DivisorClass,
    Scope,
    TaggedBound,
    alt_form,
    best_flag_bound,
    beta_lower_chi,
    combine_interval,
    flag_lower_bound,
    flag_profile,
    standard_class,
)
from betabound.exactmath import PfaffianCache, _leading_minors
from betabound.threshold import InconsistentBoundsError
from betabound.torusmodel import LatticeInvariantError, chi_multilinear
from util import closed_form_bound, flag_upper_bound, form_e, subset_flag_bound

THREEFOLD_40 = standard_class(ConstructionSpace(3, (9, 3)), 1, 3)


class TestBound:
    def test_rational_ordering(self):
        assert Bound.rational(Fraction(1, 3)) < Bound.rational(Fraction(1, 2))
        assert Bound.rational(Fraction(2, 6)) == Bound.rational(Fraction(1, 3))

    def test_perfect_power_normalizes(self):
        b = Bound.inverse_root(9, 2)
        assert b.is_rational and (b.p, b.q) == (1, 3)
        assert Bound.inverse_root(1, 5) == Bound.rational(1)
        assert Bound.inverse_root(27, 3) == Bound.rational(Fraction(1, 3))

    def test_root_vs_rational(self):
        # 40 > 27 so 40^(-1/3) < 1/3
        root = Bound.inverse_root(40, 3)
        assert not root.is_rational
        assert root < Bound.rational(Fraction(1, 3))
        assert root < Bound.rational(Fraction(13, 40))  # 13^3 * 40 > 40^3
        assert Bound.rational(Fraction(1, 4)) < root  # 1/4 < 40^(-1/3) since 40 < 64

    def test_root_vs_root(self):
        # 8^(-1/6) = 2^(-1/2): compare against 2^(-1/2) via different representation
        assert Bound.inverse_root(8, 6) == Bound.inverse_root(2, 2)
        assert Bound.inverse_root(5, 2) < Bound.inverse_root(3, 2)
        assert Bound.inverse_root(7, 3) > Bound.inverse_root(7, 2)

    def test_equal_roots_hash_alike(self):
        # 8^(-1/6) = 4^(-1/4) = 2^(-1/2): a set holds one of them, each keeps its display
        roots = [Bound.inverse_root(8, 6), Bound.inverse_root(2, 2), Bound.inverse_root(4, 4)]
        assert roots[0] == roots[1] == roots[2]
        assert len({hash(b) for b in roots}) == 1
        assert len(set(roots)) == 1
        assert [str(b) for b in roots] == ["8^(-1/6)", "2^(-1/2)", "4^(-1/4)"]
        assert hash(Bound.inverse_root(8, 6)) != hash(Bound.inverse_root(8, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Bound.rational(0)
        with pytest.raises(ValueError):
            Bound.inverse_root(0, 2)

    def test_display(self):
        assert str(Bound.rational(Fraction(13, 40))) == "13/40"
        assert str(Bound.inverse_root(40, 3)) == "40^(-1/3)"

    def test_lower_chi(self):
        assert beta_lower_chi(1, 4) == Bound.rational(1)
        assert beta_lower_chi(40, 3) == Bound.inverse_root(40, 3)


class TestFlagBounds:
    def test_threefold_identity_order(self):
        assert flag_upper_bound(THREEFOLD_40, (0, 1, 2)) == Fraction(13, 40)
        assert flag_profile(alt_form(THREEFOLD_40), (0, 1, 2)) == (40, 13, 4)

    def test_threefold_other_orders(self):
        # dropping the last factor first still passes through chi = 13,
        # dropping the middle factor first goes through chi = 31
        assert flag_upper_bound(THREEFOLD_40, (2, 0, 1)) == Fraction(13, 40)
        assert flag_upper_bound(THREEFOLD_40, (1, 0, 2)) == Fraction(31, 40)
        assert flag_upper_bound(THREEFOLD_40, (2, 1, 0)) == Fraction(10, 13)

    def test_small_threefold(self):
        cls = standard_class(ConstructionSpace(3, (3, 2)), 1, 1)
        assert flag_upper_bound(cls, (0, 1, 2)) == Fraction(4, 7)

    def test_principal_class(self):
        cls = DivisorClass(ConstructionSpace(3, (2, 2)), (1, 1, 1), 0)
        for order in ((0, 1, 2), (2, 1, 0)):
            assert flag_upper_bound(cls, order) == 1

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            flag_profile(alt_form(THREEFOLD_40), (0, 1))
        with pytest.raises(ValueError):
            flag_profile(alt_form(THREEFOLD_40), (0, 0, 1))

    def test_not_ample_rejected(self):
        cls = DivisorClass(ConstructionSpace(2, (3,)), (0, 0), 1)
        with pytest.raises(ValueError):
            best_flag_bound(alt_form(cls))
        with pytest.raises(ValueError):
            flag_profile(alt_form(cls), (0, 1))

    def test_one_elimination_per_chain(self, monkeypatch):
        calls = []

        def counted(b):
            calls.append(len(b))
            return _leading_minors(b)

        # one elimination of the g x g block, not of the 2g x 2g form
        monkeypatch.setattr(betabound.threshold, "_leading_minors", counted)
        form = alt_form(DivisorClass(ConstructionSpace(5, (3, 2, 7, 1)), (1, 2, 1, 3, 2), 1))
        assert len(flag_profile(form, (3, 0, 4, 1, 2))) == 5
        assert calls == [5]
        best_flag_bound(form)
        assert calls == [5, 5]

    def test_zero_leading_pfaffian_in_chain_raises(self, monkeypatch):
        # c*G alone: chi is k_i on factor i but 0 on every pair, so the
        # second leading minor of the block in reversed order is 0 (minors
        # [1, 0], where the elimination stops); only a formula chi > 0 guard
        # that is fooled lets such a class reach the chain
        monkeypatch.setattr(betabound.torusmodel, "restriction_scan", lambda a, k, c, keep: (1, [1] * len(keep)))
        cls = DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 0), 1)
        with pytest.raises(LatticeInvariantError, match="nonpositive chi"):
            flag_profile(alt_form(cls), (0, 1, 2))

    def test_short_pivot_list_raises(self, monkeypatch):
        # a kernel that stops early must not yield a shorter chain
        monkeypatch.setattr(betabound.threshold, "_leading_minors", lambda b: _leading_minors(b)[:-1])
        with pytest.raises(LatticeInvariantError, match="nonpositive chi"):
            flag_profile(alt_form(THREEFOLD_40), (0, 1, 2))

    def test_best_flag_threefold(self):
        assert best_flag_bound(alt_form(THREEFOLD_40)) == (Fraction(13, 40), (0, 1, 2), (40, 13, 4))

    def test_best_flag_surface_by_hand(self):
        # class 2F_0 + F_1 + G with k = 2: curve degrees 4 and 2, chi = 6;
        # order (0, 1) gives max(1/2, 2/6) = 1/2, order (1, 0) gives
        # max(1/4, 4/6) = 2/3, so the minimum is 1/2 with witness (0, 1)
        # and chi chain (6, 2).
        cls = standard_class(ConstructionSpace(2, (2,)), 2, 1)
        assert best_flag_bound(alt_form(cls)) == (Fraction(1, 2), (0, 1), (6, 2))

    def test_best_flag_principal(self):
        cls = DivisorClass(ConstructionSpace(2, (1,)), (1, 1), 0)
        assert best_flag_bound(alt_form(cls))[0] == 1

    def test_dimension_one(self):
        cls = DivisorClass(ConstructionSpace(1, ()), (5,), 0)
        assert flag_upper_bound(cls, (0,)) == Fraction(1, 5)
        assert best_flag_bound(alt_form(cls)) == (Fraction(1, 5), (0,), (5,))

    def test_greedy_matches_subset_dp_on_threefold_box(self):
        # every ample class with a in [0, 4]^3, k in [1, 4]^2 and c in [0, 3]:
        # small entries make many ties, so the witness tie rule is exercised
        ample = 0
        for k in product(range(1, 5), repeat=2):
            space = ConstructionSpace(3, k)
            for a in product(range(5), repeat=3):
                for c in range(4):
                    if not any(a) and not c:
                        continue
                    cls = DivisorClass(space, a, c)
                    if chi_multilinear(cls) > 0:
                        ample += 1
                        assert best_flag_bound(alt_form(cls)) == subset_flag_bound(cls)
        assert ample == 6400


class TestClosedFormBound:
    def test_threefold_forty(self):
        assert closed_form_bound(ConstructionSpace(3, (9, 3)), 1, 3) == Fraction(13, 40)

    def test_small_threefolds(self):
        assert closed_form_bound(ConstructionSpace(3, (1, 1)), 1, 1) == Fraction(3, 4)
        assert closed_form_bound(ConstructionSpace(3, (2, 1)), 1, 1) == Fraction(2, 3)

    def test_matches_identity_flag_on_grid(self):
        for g in (2, 3, 4):
            for k in product(range(1, 7), repeat=g - 1):
                space = ConstructionSpace(g, k)
                for a in range(6):
                    for b in range(6):
                        if a == 0 and b == 0:
                            continue
                        cls = standard_class(space, a, b)
                        assert closed_form_bound(space, a, b) == flag_upper_bound(cls, tuple(range(g)))


class TestFlagLowerBound:
    def test_threefold(self):
        assert flag_lower_bound(alt_form(THREEFOLD_40)) == Fraction(1, 4)

    def test_principal(self):
        cls = DivisorClass(ConstructionSpace(2, (1,)), (1, 1), 0)
        assert flag_lower_bound(alt_form(cls)) == 1

    def test_graph_with_one_fiber(self):
        # degrees 0 + 1*3 = 3 and 1 + 1*1 = 2 on the two coordinate
        # curves (the correspondence divisor meets both), so the best
        # curve lower bound is 1/2
        cls = DivisorClass(ConstructionSpace(2, (3,)), (0, 1), 1)
        assert flag_lower_bound(alt_form(cls)) == Fraction(1, 2)

    def test_not_ample_rejected(self):
        cls = DivisorClass(ConstructionSpace(2, (3,)), (0, 0), 1)
        with pytest.raises(ValueError):
            flag_lower_bound(alt_form(cls))

    def test_restriction_chis_match_submatrix_pfaffians(self):
        # a restriction's chi, det of the principal block, must agree with
        # the sub-Pfaffian of the whole 2g x 2g form on the kept coordinates
        from betabound import chi_pfaffian, restrict

        rng = random.Random(1618)
        for _ in range(60):
            g = rng.randint(2, 4)
            k = tuple(rng.randint(1, 6) for _ in range(g - 1))
            a = tuple(rng.randint(0, 4) for _ in range(g))
            c = rng.randint(0, 2)
            if not any(a) and c == 0:
                continue
            form = alt_form(DivisorClass(ConstructionSpace(g, k), a, c))
            keep = sorted(rng.sample(range(g), rng.randint(1, g)))
            coords = [x for i in keep for x in (2 * i, 2 * i + 1)]
            assert chi_pfaffian(restrict(form, keep)) == PfaffianCache(form_e(form)).pfaffian_of(coords)

    def test_lower_never_exceeds_best_flag(self):
        rng = random.Random(31)
        for _ in range(80):
            g = rng.randint(2, 4)
            k = tuple(rng.randint(1, 5) for _ in range(g - 1))
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            if a == 0 and b == 0:
                continue
            form = alt_form(standard_class(ConstructionSpace(g, k), a, b))
            assert flag_lower_bound(form) <= best_flag_bound(form)[0]


class TestCombineInterval:
    def test_threefold_interval(self):
        interval = combine_interval(
            3,
            40,
            uppers=[TaggedBound(Bound.rational(Fraction(13, 40)), Scope.SPECIFIC, "flag")],
        )
        assert interval.lower == Bound.inverse_root(40, 3)
        assert interval.upper == Bound.rational(Fraction(13, 40))
        assert interval.to_json()["upper_strict"] is False
        assert interval.scope is Scope.GENERAL
        assert "semicontinuity" in interval.upper_reason

    def test_perfect_square_meets(self):
        interval = combine_interval(
            2,
            9,
            uppers=[TaggedBound(Bound.rational(Fraction(1, 3)), Scope.SPECIFIC, "flag")],
        )
        assert interval.exact
        assert interval.lower == interval.upper == Bound.rational(Fraction(1, 3))

    def test_degree_one_is_exactly_one(self):
        interval = combine_interval(4, 1)
        assert interval.exact
        assert interval.upper == Bound.rational(1)

    def test_upper_above_one_is_capped(self):
        interval = combine_interval(
            2,
            2,
            uppers=[TaggedBound(Bound.rational(Fraction(3, 2)), Scope.SPECIFIC, "flag")],
        )
        assert interval.upper == Bound.rational(1)
        assert interval.upper_reason == "threshold-range"

    def test_scope_filtering(self):
        general_only = TaggedBound(Bound.rational(Fraction(2, 3)), Scope.GENERAL, "rule")
        specific = combine_interval(2, 4, uppers=[general_only], scope=Scope.SPECIFIC)
        assert specific.upper == Bound.rational(1)  # general rule must not leak
        general = combine_interval(2, 4, uppers=[general_only], scope=Scope.GENERAL)
        assert general.upper == Bound.rational(Fraction(2, 3))

    def test_lower_bounds_do_not_lift(self):
        lower = TaggedBound(Bound.rational(Fraction(1, 2)), Scope.SPECIFIC, "curve")
        general = combine_interval(3, 8, lowers=[lower], scope=Scope.GENERAL)
        assert general.lower == Bound.inverse_root(8, 3)
        specific = combine_interval(3, 8, lowers=[lower], scope=Scope.SPECIFIC)
        assert specific.lower == Bound.rational(Fraction(1, 2))

    def test_inconsistent_bounds_raise(self):
        with pytest.raises(InconsistentBoundsError):
            combine_interval(
                2,
                9,
                uppers=[TaggedBound(Bound.rational(Fraction(1, 4)), Scope.ALL, "bad")],
            )

    def test_interval_validation(self):
        third = Bound.rational(Fraction(1, 3))
        half = Bound.rational(Fraction(1, 2))
        with pytest.raises(InconsistentBoundsError):
            BetaInterval(half, third, Scope.GENERAL)
        with pytest.raises(InconsistentBoundsError):
            BetaInterval(half, Bound.rational(Fraction(3, 2)), Scope.GENERAL)
