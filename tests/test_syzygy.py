from fractions import Fraction

import pytest

from betabound import (
    BetaInterval,
    Bound,
    NpCertificate,
    Scope,
    max_np_arithmetic,
    necessary_lower_bounds,
    np_from_beta,
    np_report,
    np_threshold,
)


def interval_with_upper(value):
    upper = Bound.rational(value)
    lower = Bound.rational(Fraction(1, 10**6))
    return BetaInterval(lower, upper, Scope.GENERAL)


class TestNpThreshold:
    @pytest.mark.parametrize(
        "g, p, expected",
        [(2, 0, 7), (2, 1, 13), (3, 0, 15), (2, -1, 3), (3, 1, 40), (4, 2, 341)],
    )
    def test_values(self, g, p, expected):
        assert np_threshold(g, p) == expected

    def test_projective_normality_is_geometric_series(self):
        for g in range(1, 9):
            assert np_threshold(g, 0) == 2 ** (g + 1) - 1

    def test_basepoint_freeness_branch(self):
        for g in range(1, 9):
            assert np_threshold(g, -1) == g + 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            np_threshold(0, 0)
        with pytest.raises(ValueError):
            np_threshold(2, -2)


class TestMaxNpArithmetic:
    @pytest.mark.parametrize(
        "g, d, expected",
        [(3, 40, 1), (2, 7, 0), (2, 2, None), (2, 13, 1), (2, 12, 0), (3, 39, 0), (4, 5, -1)],
    )
    def test_values(self, g, d, expected):
        assert max_np_arithmetic(g, d) == expected

    def test_threshold_is_tight(self):
        for g in (1, 2, 3, 4):
            for p in (-1, 0, 1, 2):
                t = np_threshold(g, p)
                assert max_np_arithmetic(g, t) >= p
                if t > g + 1:
                    assert (max_np_arithmetic(g, t - 1) or -2) < p


class TestNpFromBeta:
    def test_thirteen_fortieths_gives_one(self):
        # 13/40 < 1/3 but 13/40 >= 1/4
        assert np_from_beta(interval_with_upper(Fraction(13, 40))) == 1

    def test_half_non_strict_gives_minus_one(self):
        assert np_from_beta(interval_with_upper(Fraction(1, 2))) == -1

    def test_seven_fifteenths_gives_zero(self):
        assert np_from_beta(interval_with_upper(Fraction(7, 15))) == 0

    def test_unit_upper_gives_none(self):
        assert np_from_beta(interval_with_upper(Fraction(1))) is None

    def test_irrational_upper_bound(self):
        # 5^(-1/2) < 1/2 (since 5 > 4) but >= 1/3 (since 5 < 9)
        interval = BetaInterval(Bound.rational(Fraction(1, 10)), Bound.inverse_root(5, 2), Scope.GENERAL)
        assert np_from_beta(interval) == 0

    def test_monotone_in_upper_bound(self):
        values = [Fraction(n, 24) for n in range(1, 25)]
        last_p = None
        for value in reversed(values):  # decreasing upper bounds
            p = np_from_beta(interval_with_upper(value))
            if last_p is not None and p is not None:
                assert last_p is None or p >= last_p
            last_p = p if p is not None else last_p


class TestNecessaryLowerBounds:
    def test_small_surface_degrees(self):
        rules = necessary_lower_bounds(2, 5)
        assert [(r.value, r.reason) for r in rules] == [
            (Bound.rational(Fraction(1, 2)), "projective-normality-count")
        ]

    def test_not_basepoint_free(self):
        rules = necessary_lower_bounds(2, 2)
        assert rules[0].value == Bound.rational(1)
        assert rules[0].reason == "not-basepoint-free"
        assert rules[0].scope is Scope.GENERAL
        assert rules[1].value == Bound.rational(Fraction(1, 2))

    def test_threefold_degree_three(self):
        rules = necessary_lower_bounds(3, 3)
        assert rules[0].value == Bound.rational(1)

    def test_boundary_has_no_rules(self):
        # d = 2^(g+1) - 1 satisfies the section count exactly
        assert necessary_lower_bounds(2, 7) == []
        assert necessary_lower_bounds(3, 15) == []

    def test_projective_normality_scope_is_all_members(self):
        rules = necessary_lower_bounds(2, 6)
        assert rules[0].scope is Scope.ALL


class TestNpReport:
    def test_verdicts(self):
        cert = np_report(2, 7)
        assert cert.basepoint_free and cert.projectively_normal
        assert cert.p_arithmetic == 0
        assert cert.p_beta is None
        assert cert.guaranteed_p == 0
        assert cert.source == "arithmetic"
        # a tie goes to the degree threshold
        assert NpCertificate(3, 40, p_beta=1, p_arithmetic=1).source == "arithmetic"

    def test_beta_source_wins_when_stronger(self):
        cert = np_report(2, 6, interval_with_upper(Fraction(2, 5)))
        # arithmetic: 6 < 7 fails p = 0, but 2/5 < 1/2 certifies it
        assert cert.p_arithmetic == -1
        assert cert.p_beta == 0
        assert cert.guaranteed_p == 0
        assert cert.source == "beta-bound"

    def test_nothing_guaranteed(self):
        cert = np_report(3, 2)
        assert cert.guaranteed_p is None
        assert cert.source is None
        assert not cert.basepoint_free
