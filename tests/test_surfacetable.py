from fractions import Fraction

import pytest

from betabound import (
    Bound,
    Scope,
    certify,
    generate_table,
    recipe_strict,
    recipe_weak,
    surface_beta,
)
from betabound.constructor import ConstructionParams, NoRecipeError
from betabound.exactmath import integer_root
from betabound.surfacetable import (
    RULE_GENERIC,
    RULE_NOT_BPF,
    RULE_ODD_NEAR_SQUARE,
    RULE_ODD_SQUARE_PLUS_M,
    RULE_PERFECT_SQUARE,
    RULE_PROJ_NORMALITY,
)

TABLE_16 = [
    "1", "1", "2/3", "1/2", "1/2", "1/2", "<= 3/7", "<= 3/8",
    "1/3", "<= 1/3", "<= 1/3", "1/3", "<= 4/13", "2/7", "4/15", "1/4",
]


class TestSurfaceBeta:
    def test_first_sixteen_degrees(self):
        rows = generate_table(16)
        assert [row.display() for row in rows] == TABLE_16

    def test_twelve_is_exactly_one_third(self):
        row = surface_beta(12)
        assert row.exact and row.interval.upper == Bound.rational(Fraction(1, 3))
        assert row.rule == RULE_ODD_SQUARE_PLUS_M

    def test_fourteen_is_exactly_two_sevenths(self):
        row = surface_beta(14)
        assert row.exact and row.interval.upper == Bound.rational(Fraction(2, 7))
        assert row.rule == RULE_ODD_NEAR_SQUARE

    def test_seven_is_an_interval(self):
        row = surface_beta(7)
        assert not row.exact
        assert row.interval.lower == Bound.inverse_root(7, 2)
        assert row.interval.upper == Bound.rational(Fraction(3, 7))
        assert row.strictly_below == Fraction(1, 2)
        assert row.rule == RULE_GENERIC

    def test_rule_assignments(self):
        assert surface_beta(1).rule == RULE_NOT_BPF
        assert surface_beta(2).rule == RULE_NOT_BPF
        assert surface_beta(3).rule == RULE_ODD_NEAR_SQUARE
        assert surface_beta(4).rule == RULE_PERFECT_SQUARE
        assert surface_beta(5).rule == RULE_PROJ_NORMALITY
        assert surface_beta(6).rule == RULE_PROJ_NORMALITY
        assert surface_beta(8).rule == RULE_GENERIC
        assert surface_beta(9).rule == RULE_PERFECT_SQUARE

    def test_parity_guard(self):
        # 6 = 2^2 + 2 and 8 = 3^2 - 1 and 23 = 5^2 - 2 all have even m,
        # so the odd-m exactness rules must not fire
        assert surface_beta(6).rule == RULE_PROJ_NORMALITY
        assert surface_beta(8).rule == RULE_GENERIC
        assert surface_beta(23).rule == RULE_GENERIC
        # odd-m counterparts do fire
        assert surface_beta(12).rule == RULE_ODD_SQUARE_PLUS_M  # m = 3
        assert surface_beta(15).rule == RULE_ODD_NEAR_SQUARE  # m = 3
        assert surface_beta(35).rule == RULE_ODD_NEAR_SQUARE  # 35 = 6^2 - 1, m = 5
        # 24 = 5^2 - 1 has even m = 4, so it stays generic
        assert surface_beta(24).rule == RULE_GENERIC

    def test_scope_is_general_member(self):
        for d in range(1, 20):
            assert surface_beta(d).interval.scope is Scope.GENERAL

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            surface_beta(0)

    def test_exact_rules_agree_with_generic_upper(self):
        # wherever a rule declares exactness, its value coincides with
        # the generic upper bound for that degree
        for d in range(1, 101):
            row = surface_beta(d)
            if not row.exact:
                continue
            m = integer_root(d, 2)
            generic = Fraction(m + 1, d) if d >= m * m + m + 1 else Fraction(1, m)
            assert row.interval.upper == Bound.rational(generic)

    def test_strictness_note_only_past_threshold(self):
        for d in range(3, 60):
            row = surface_beta(d)
            m = integer_root(d, 2)
            if row.rule == RULE_GENERIC and d >= m * m + m + 1:
                assert row.strictly_below == Fraction(1, m)
                assert row.interval.upper < Bound.rational(Fraction(1, m))
            elif row.rule == RULE_GENERIC:
                assert row.strictly_below is None
                assert row.interval.upper == Bound.rational(Fraction(1, m))


class TestTableFromConstructions:
    def test_upper_halves_are_achieved_by_certificates(self):
        # the table's upper bounds must be reproducible from certified
        # constructions, not just from the rule set
        for d in range(1, 31):
            row = surface_beta(d)
            m = integer_root(d, 2)
            if d >= m * m + m + 1:
                params = recipe_strict(2, d)
            else:
                try:
                    params = recipe_weak(2, d)
                except NoRecipeError:
                    params = ConstructionParams(g=2, k=(1,), a=d, b=0)
            cert = certify(params)
            assert cert.ptype == (1, d)
            assert Bound.rational(cert.bound) == row.interval.upper

    def test_generate_table_rejects_bad_max(self):
        with pytest.raises(ValueError):
            generate_table(0)
