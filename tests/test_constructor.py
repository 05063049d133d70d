from fractions import Fraction

import pytest

import betabound.constructor
import betabound.exactmath
import betabound.threshold
import betabound.torusmodel
from betabound import (
    Bound,
    ConstructionParams,
    DegenerateFormError,
    NoRecipeError,
    OracleDisagreement,
    Scope,
    SearchBox,
    ConstructionSpace,
    DivisorClass,
    brute_search,
    certify,
    certify_class,
    necessary_lower_bounds,
    standard_class,
    default_box,
    general_beta,
    recipe_strict,
    recipe_weak,
)
from betabound.constructor import CASE_RECIPE_STRICT, CASE_RECIPE_WEAK, _certify
from util import containers


class TestRecipeWeak:
    def test_threefold_eight(self):
        params = recipe_weak(3, 8)
        assert (params.m, params.s, params.r) == (2, 7, 1)
        assert params.k == (4, 2)
        assert (params.a, params.b) == (1, 1)
        cert = certify(params)
        assert cert.ptype == (1, 1, 8)
        assert cert.bound == Fraction(1, 2)

    def test_surface_nine(self):
        params = recipe_weak(2, 9)
        assert params.k == (3,)
        assert (params.a, params.b) == (1, 2)
        cert = certify(params)
        assert cert.ptype == (1, 9)
        assert cert.bound == Fraction(1, 3)

    def test_threefold_twentyseven(self):
        cert = certify(recipe_weak(3, 27))
        assert cert.ptype == (1, 1, 27)
        assert cert.bound == Fraction(1, 3)

    def test_no_recipe_below_first_power(self):
        # d < 2^g: the integer root is 1 and b = m - 1 would be 0
        for g, d in ((3, 7), (2, 1), (2, 3), (12, 4095)):
            with pytest.raises(NoRecipeError):
                recipe_weak(g, d)

    def test_case_tag(self):
        assert recipe_weak(2, 9).case == CASE_RECIPE_WEAK


class TestRecipeStrict:
    def test_threefold_fifteen(self):
        params = recipe_strict(3, 15)
        assert (params.m, params.s, params.r) == (2, 7, 1)
        assert params.k == (4, 2)
        assert (params.a, params.b) == (1, 2)
        cert = certify(params)
        assert cert.ptype == (1, 1, 15)
        assert cert.flag_chis == (15, 7, 3)
        assert cert.bound == Fraction(7, 15)
        assert cert.bound < Fraction(1, 2)

    def test_surface_seven(self):
        params = recipe_strict(2, 7)
        assert params.k == (2,)
        assert (params.a, params.b) == (1, 2)
        cert = certify(params)
        assert cert.ptype == (1, 7)
        assert cert.bound == Fraction(3, 7)

    def test_surface_three(self):
        params = recipe_strict(2, 3)
        assert (params.m, params.s, params.r) == (1, 2, 1)
        assert params.k == (1,)
        cert = certify(params)
        assert cert.ptype == (1, 3)
        assert cert.bound == Fraction(2, 3)

    def test_forty_is_the_example_construction(self):
        params = recipe_strict(3, 40)
        assert params.k == (9, 3)
        assert (params.a, params.b) == (1, 3)
        assert certify(params).bound == Fraction(13, 40)

    def test_too_small_degree_raises(self):
        with pytest.raises(NoRecipeError):
            recipe_strict(3, 3)

    def test_case_tag(self):
        assert recipe_strict(2, 7).case == CASE_RECIPE_STRICT


class TestCertify:
    def test_certificate_is_internally_consistent(self):
        cert = certify(recipe_strict(3, 40))
        assert cert.chi == 40
        prod = 1
        for x in cert.ptype:
            prod *= x
        assert prod == cert.chi
        assert cert.to_json()["k_group"]["order"] == cert.chi**2
        assert cert.witness_order == (0, 1, 2)
        assert cert.flag_chis == (40, 13, 4)
        assert cert.curve_lower == Fraction(1, 4)
        assert cert.interval.scope is Scope.SPECIFIC
        assert cert.np.p_beta == 1

    def test_principal_like_certificate(self):
        cert = certify(ConstructionParams(g=3, k=(1, 1), a=1, b=0))
        assert cert.ptype == (1, 1, 1)
        assert cert.bound == 1

    def test_degenerate_rejected(self):
        # nonnegative combinations are nef, so chi > 0 is ampleness here
        # and the degenerate case is the only rejection
        with pytest.raises(DegenerateFormError):
            certify(ConstructionParams(g=2, k=(2,), a=0, b=0, middle=(), c=1))

    def test_oracle_disagreement_is_raised(self, monkeypatch):
        real = betabound.torusmodel.restriction_scan
        monkeypatch.setattr(betabound.torusmodel, "restriction_scan", lambda *args: (41, real(*args)[1]))
        with pytest.raises(OracleDisagreement):
            certify(recipe_strict(3, 40))

    def test_certify_evaluates_the_full_set_formula_once(self, monkeypatch):
        # the chi check and both flag walks read one scan of the full set
        real, full = betabound.torusmodel.restriction_scan, []

        def spy(a, k, c, keep):
            if len(keep) == 3:
                full.append(tuple(keep))
            return real(a, k, c, keep)

        monkeypatch.setattr(betabound.torusmodel, "restriction_scan", spy)
        certify(recipe_strict(3, 40))
        assert full == [(0, 1, 2)]

    @staticmethod
    def spy_on_eliminations(monkeypatch) -> list:
        # every module that runs a Bareiss elimination, each by its own name
        calls = []
        for module in (betabound.exactmath, betabound.threshold, betabound.torusmodel):
            def spy(rows, _name=module.__name__, _real=module._leading_minors):
                calls.append(_name)
                return _real(rows)
            monkeypatch.setattr(module, "_leading_minors", spy)
        return calls

    def test_ample_certify_eliminates_its_block_once(self, monkeypatch):
        # the witness order's elimination in the flag search gives det M: the
        # chi check, the type's product and the degenerate test read it
        calls = self.spy_on_eliminations(monkeypatch)
        for params in (recipe_strict(3, 40), recipe_weak(4, 81), ConstructionParams(g=3, k=(1, 1), a=1, b=0),
                       ConstructionParams(g=3, k=(2, 3), a=0, b=2, middle=(5,), c=1)):
            calls.clear()
            cert = certify(params)
            assert calls == ["betabound.threshold"]
            assert cert.chi == cert.flag_chis[0] == betabound.torusmodel.chi_multilinear(params.divisor_class())
        calls.clear()
        certify_class(DivisorClass(ConstructionSpace(1, ()), (5,), 0))
        assert calls == ["betabound.threshold"]

    def test_degenerate_class_runs_the_natural_order_elimination(self, monkeypatch):
        # with formula chi 0 no flag search runs, so the block is eliminated
        # in its own order and the two chis are compared before the refusal
        calls = self.spy_on_eliminations(monkeypatch)
        for cls in (DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 5), 1), DivisorClass(ConstructionSpace(2, (2,)), (0, 0), 1)):
            calls.clear()
            with pytest.raises(DegenerateFormError):
                certify_class(cls)
            assert calls == ["betabound.torusmodel"]

    def test_each_chi_oracle_still_checks_the_other(self, monkeypatch):
        # a wrong determinant is caught on either path: by the flag chain on
        # an ample class, by the natural-order check on a degenerate one
        monkeypatch.setattr(betabound.threshold, "_leading_minors", lambda rows: [41, 13, 4][: len(rows)])
        with pytest.raises(OracleDisagreement):
            certify(recipe_strict(3, 40))
        monkeypatch.setattr(betabound.torusmodel, "_leading_minors", lambda rows: [1, 1, 7][: len(rows)])
        with pytest.raises(OracleDisagreement):
            certify_class(DivisorClass(ConstructionSpace(3, (2, 3)), (0, 0, 5), 1))

    def test_explicit_class_has_no_params(self):
        cert = certify_class(DivisorClass(ConstructionSpace(1, ()), (5,), 0))
        assert cert.params is None
        assert cert.to_json()["params"] is None
        assert (cert.chi, cert.bound, cert.flag_chis) == (5, Fraction(1, 5), (5,))

    def test_lower_rules_enter_the_interval(self):
        # chi = 11 < 2^4 - 1, so no member is projectively normal: beta >= 1/2,
        # which beats both 11^(-1/3) and the curve bound
        cls = standard_class(ConstructionSpace(3, (2, 2)), 1, 2)
        plain = certify_class(cls)
        ruled = certify_class(cls, lowers=(necessary_lower_bounds,))
        assert plain.interval.lower_reason == "degree-root"
        assert ruled.interval.lower == Bound.rational(Fraction(1, 2))
        assert ruled.interval.lower_reason == "projective-normality-count"

    def test_shared_intervals_are_keyed_by_every_input(self):
        # two classes of chi 14 with one flag bound and one curve bound below
        # 1/2, the lower bound of the projective-normality count at chi < 15
        found = brute_search(3, 14)
        first, second = next(
            (a, b) for a in found for b in found
            if a.params != b.params and (a.bound, a.curve_lower) == (b.bound, b.curve_lower)
            and a.curve_lower < Fraction(1, 2)
        )
        shared = {}
        plain = [_certify(c.params.divisor_class(), None, (), shared) for c in (first, second)]
        ruled = [
            _certify(c.params.divisor_class(), None, (necessary_lower_bounds,), shared)
            for c in (first, second)
        ]
        assert [key[0] for key in shared] == ["interval", "interval"]
        assert plain[0].interval is plain[1].interval and ruled[0].interval is ruled[1].interval
        assert plain[0].ptype == plain[1].ptype == (1, 1, 14)
        assert ruled[0].interval == certify_class(first.params.divisor_class(), lowers=(necessary_lower_bounds,)).interval
        assert plain[0].interval == certify_class(first.params.divisor_class()).interval != ruled[0].interval
        # certify_class shares nothing
        assert certify_class(first.params.divisor_class()).interval is not plain[0].interval

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ConstructionParams(g=1, k=(), a=1, b=1)
        with pytest.raises(ValueError):
            ConstructionParams(g=3, k=(2,), a=1, b=1)
        with pytest.raises(ValueError):
            ConstructionParams(g=3, k=(2, 2), a=1, b=1, middle=(1, 1))
        with pytest.raises(TypeError):
            ConstructionParams(g=3, k=(9.7, 3), a=1, b=3)
        with pytest.raises(TypeError):
            ConstructionParams(g=3, k=(9, 3), a=1, b=3, middle=(Fraction(1),))

    def test_non_integer_entries_are_refused_not_truncated(self):
        # int() would certify a = (1, 1, 3), c = 1, k = (9, 3), with chi 40
        with pytest.raises(TypeError):
            certify_class(DivisorClass(ConstructionSpace(3, (9.7, 3)), (1.9, 1, 3.5), 1.2))


class TestRecipeGuarantees:
    def test_weak_recipe_across_small_grid(self):
        for g in (2, 3):
            for m in (2, 3):
                for d in range(m**g, (m + 1) ** g):
                    cert = certify(recipe_weak(g, d))
                    assert cert.ptype == (1,) * (g - 1) + (d,)
                    assert cert.bound <= Fraction(1, m)

    def test_strict_recipe_across_small_grid(self):
        for g in (2, 3):
            for m in (2, 3):
                start = sum(m**i for i in range(g + 1))
                for d in range(start, (m + 1) ** g):
                    cert = certify(recipe_strict(g, d))
                    assert cert.ptype == (1,) * (g - 1) + (d,)
                    assert cert.bound < Fraction(1, m)


class TestBruteSearch:
    def test_degree_five(self):
        results = brute_search(3, 5)
        assert results, "search box should contain constructions"
        best = results[0].bound
        assert best == Fraction(2, 3)
        winners = {
            (c.params.a, c.params.b, c.params.k) for c in results if c.bound == best
        }
        assert (1, 1, (2, 1)) in winners

    def test_degree_six_has_two_quoted_witnesses(self):
        results = brute_search(3, 6)
        best = results[0].bound
        assert best == Fraction(2, 3)
        winners = {
            (c.params.a, c.params.b, c.params.k) for c in results if c.bound == best
        }
        assert {(1, 1, (3, 1)), (1, 1, (2, 2))} <= winners

    def test_degree_four(self):
        results = brute_search(3, 4)
        assert results[0].bound == Fraction(3, 4)
        winners = {
            (c.params.a, c.params.b, c.params.k)
            for c in results
            if c.bound == results[0].bound
        }
        assert (1, 1, (1, 1)) in winners

    def test_only_requested_type_is_returned(self):
        for cert in brute_search(3, 6):
            assert cert.ptype == (1, 1, 6)
            assert cert.chi == 6

    def test_deterministic_ranking(self):
        first = brute_search(3, 6)
        second = brute_search(3, 6)
        assert [c.params for c in first] == [c.params for c in second]
        keys = [c.sort_key() for c in first]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("g, d, box, generalized", [
        (3, 12, SearchBox(3, 3, 5), False),
        (2, 12, SearchBox(4, 4, 8, 2), True),
        (4, 9, SearchBox(2, 2, 3, 2), True),
    ])
    def test_ranking_breaks_bound_ties_by_chain_then_params(self, g, d, box, generalized):
        results = brute_search(g, d, box, generalized)
        keys = [c.sort_key() for c in results]
        assert keys == sorted(keys)
        # ties in bound, and in bound and chain, which the params break
        assert len({c.bound for c in results}) < len({(c.bound, c.flag_chis) for c in results}) < len(results)

    def test_certificates_of_one_search_share_intervals(self):
        # keyed by (flag bound, curve bound): g and chi = d are fixed
        first = brute_search(3, 40)
        owners = {}
        for cert in first:
            owner = owners.setdefault((cert.bound, cert.curve_lower), cert)
            assert cert.interval is owner.interval and cert.np is owner.np
            assert cert.to_json()["interval"] == owner.to_json()["interval"]
        assert len(owners) < len(first)
        # the shared objects are frozen, and each JSON dict is built fresh,
        # so a caller that edits one changes no other certificate
        assert first[0].to_json()["interval"] is not first[0].to_json()["interval"]
        assert first[0].np.to_json() is not first[0].np.to_json()
        assert len({id(cert.interval) for cert in first}) == len(owners)
        # the sharing lives for one call: a second search shares nothing with it
        second = brute_search(3, 40)
        assert [c.interval for c in second] == [c.interval for c in first]
        assert not {id(c.interval) for c in first} & {id(c.interval) for c in second}
        assert not {id(c.np) for c in first} & {id(c.np) for c in second}

    def test_to_json_memo_shares_parts_and_changes_no_value(self):
        certs = brute_search(3, 40)
        memo = {}
        shared = [cert.to_json(memo) for cert in certs]
        fresh = [cert.to_json() for cert in certs]
        assert shared == fresh
        ids = [id(node) for tree in shared for node in containers(tree)]
        assert len(set(ids)) < len(ids)
        # without a memo every dict and list is its own, across certificates
        # and across calls on one certificate
        fresh.append(certs[0].to_json())
        ids = [id(node) for tree in fresh for node in containers(tree)]
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("g, d, box, generalized", [
        (3, 40, None, False),
        (2, 24, None, True),
        (3, 12, SearchBox(3, 3, 12, 2), True),
    ])
    def test_one_interval_per_distinct_key(self, monkeypatch, g, d, box, generalized):
        certified, calls = [], {"combine_interval": 0, "np_report": 0, "polarization_type": 0, "k_group": 0}
        for name in calls:
            def spy(*args, _name=name, _original=getattr(betabound.constructor, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(betabound.constructor, name, spy)
        original_certify = betabound.constructor.certify

        def certify_spy(*args, **kwargs):
            certified.append(original_certify(*args, **kwargs))
            return certified[-1]

        monkeypatch.setattr(betabound.constructor, "certify", certify_spy)
        results = brute_search(g, d, box=box, generalized=generalized)
        # every candidate is certified, wrong types included
        keys = {(c.chi, c.bound, c.curve_lower) for c in certified}
        assert len(certified) > len(keys) and len(results) <= len(certified)
        # the type, checked against chi, once per candidate; K(l) only
        # when a certificate is written, which the search does not do
        assert calls == {"combine_interval": len(keys), "np_report": len(keys),
                         "polarization_type": len(certified), "k_group": 0}

    def test_never_worse_than_recipe_inside_box(self):
        for g, d in ((2, 9), (3, 8), (3, 15)):
            recipe = recipe_weak(g, d)
            recipe_bound = certify(recipe).bound
            box = default_box(g, d)
            if max(recipe.k) <= box.max_k and recipe.a <= box.max_a and recipe.b <= box.max_b:
                results = brute_search(g, d, box=box)
                assert results[0].bound <= recipe_bound

    def test_empty_result_is_not_an_error(self):
        assert brute_search(2, 7, box=SearchBox(max_a=1, max_b=1, max_k=1)) == []

    def test_generalized_search_varies_middle_and_c(self):
        results = brute_search(2, 4, box=SearchBox(max_a=4, max_b=4, max_k=4, max_c=1), generalized=True)
        assert all(c.ptype == (1, 4) for c in results)
        # the product class F_0 + 4 F_1 (c = 0) is of type (1, 4) and only
        # the generalized sweep can find it
        assert any(c.params.c == 0 for c in results)
        standard = brute_search(2, 4, box=SearchBox(max_a=4, max_b=4, max_k=4))
        assert all(c.params.c == 1 for c in standard)


class TestGeneralBeta:
    def test_dimension_one_is_inverse_degree(self):
        report = general_beta(1, 5)
        assert report.interval.exact
        assert report.interval.upper == Bound.rational(Fraction(1, 5))
        assert report.interval.scope is Scope.ALL

    def test_threefold_fifteen(self):
        report = general_beta(3, 15)
        assert report.interval.upper == Bound.rational(Fraction(7, 15))
        assert report.interval.lower == Bound.inverse_root(15, 3)
        assert report.strictly_below == Fraction(1, 2)
        assert report.witness is not None
        assert report.witness.params.case == CASE_RECIPE_STRICT

    def test_surface_twelve_exact(self):
        report = general_beta(2, 12)
        assert report.interval.exact
        assert report.interval.upper == Bound.rational(Fraction(1, 3))
        assert report.witness is not None
        assert report.witness.bound == Fraction(1, 3)

    def test_degree_below_dimension_is_exactly_one(self):
        report = general_beta(3, 2)
        assert report.interval.exact
        assert report.interval.upper == Bound.rational(1)
        assert report.interval.lower_reason == "not-basepoint-free"

    def test_forty_uses_the_best_recipe(self):
        report = general_beta(3, 40)
        assert report.interval.upper == Bound.rational(Fraction(13, 40))
        assert report.strictly_below == Fraction(1, 3)

    def test_interval_scope_is_general(self):
        assert general_beta(3, 9).interval.scope is Scope.GENERAL

    def test_degree_limit_is_inclusive(self):
        assert general_beta(3, 10**100).witness.chi == 10**100
        with pytest.raises(ValueError, match=r"10\^100"):
            general_beta(1, 10**100 + 1)

    def test_grid_consistency_with_arithmetic_guarantees(self):
        # across the grid: the interval always merges cleanly with the
        # necessary lower bounds, and whenever both the degree-threshold
        # and the certified interval guarantee some p, the construction
        # route is at least as strong
        from betabound import max_np_arithmetic, np_from_beta

        for g in (1, 2, 3, 4):
            for d in range(1, 101):
                report = general_beta(g, d)
                p_arith = max_np_arithmetic(g, d)
                p_beta = np_from_beta(report.interval)
                if p_arith is not None and p_beta is not None:
                    assert p_arith <= p_beta, (g, d, p_arith, p_beta)
