import collections
import dataclasses
import inspect
import random
from fractions import Fraction
from math import prod

import pytest

import betabound
import betabound.torusmodel
from betabound import (
    AltForm,
    ConstructionSpace,
    DegenerateFormError,
    DivisorClass,
    alt_form,
    chi_multilinear,
    chi_pfaffian,
    curve_degrees,
    is_ample,
    k_group,
    polarization_type,
    restrict,
    smith_normal_form,
    standard_class,
)
from betabound.exactmath import _leading_minors
from betabound.torusmodel import LatticeInvariantError
from util import IntMatrix, form_e, hermitian_pairing, is_positive_definite, pfaffian, tail_sum

THREEFOLD_40 = standard_class(ConstructionSpace(3, (9, 3)), 1, 3)


def principal_class(g, k=None):
    space = ConstructionSpace(g, tuple(k) if k is not None else (1,) * (g - 1))
    return DivisorClass(space, (1,) * g, 0)


class TestSpacesAndClasses:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            ConstructionSpace(0, ())
        with pytest.raises(ValueError):
            ConstructionSpace(3, (2,))
        with pytest.raises(ValueError):
            ConstructionSpace(2, (0,))

    def test_tail_sums(self):
        space = ConstructionSpace(3, (9, 3))
        assert space.k_full == (9, 3, 1)
        assert tail_sum(space, 0) == 4
        assert tail_sum(space, 1) == 1
        assert tail_sum(space, 2) == 0

    def test_class_validation(self):
        space = ConstructionSpace(2, (3,))
        with pytest.raises(ValueError):
            DivisorClass(space, (1,), 0)
        with pytest.raises(ValueError):
            DivisorClass(space, (0, 0), 0)
        with pytest.raises(ValueError):
            DivisorClass(space, (-1, 2), 1)

    def test_entries_must_be_integers(self):
        # a float, Fraction or str is refused, not truncated: int(9.7) would
        # certify the class with k = (9, 3) instead
        for k in ((9.7, 3), (Fraction(9), 3), ("9", 3)):
            with pytest.raises(TypeError):
                ConstructionSpace(3, k)
        space = ConstructionSpace(3, (9, 3))
        for a, c in (((1.9, 1, 3.5), 1), ((1, 1, 3), 1.2), ((1, Fraction(1), 3), 1), ((1, 1, 3), "1")):
            with pytest.raises(TypeError):
                DivisorClass(space, a, c)
        # ints and bools are taken as before
        assert DivisorClass(ConstructionSpace(3, [True, 3]), [True, 1, 3], True) == DivisorClass(
            ConstructionSpace(3, (1, 3)), (1, 1, 3), 1
        )

    def test_standard_class_layout(self):
        cls = standard_class(ConstructionSpace(4, (4, 2, 2)), 3, 5)
        assert cls.a == (3, 1, 1, 5)
        assert cls.c == 1


class TestAltForm:
    def test_form_is_a_view_of_its_class(self):
        form = alt_form(THREEFOLD_40)
        assert [f.name for f in dataclasses.fields(AltForm)] == ["cls", "keep"]
        assert form == AltForm(THREEFOLD_40, (0, 1, 2))
        assert (form.g, form.factor_k) == (3, (9, 3, 1))
        # rows are taken from the class's block in the order of keep
        view = AltForm(THREEFOLD_40, (2, 0))
        assert view.block == ((4, -1), (-9, 10)) and view.factor_k == (1, 9)
        assert chi_pfaffian(view) == 31 == chi_pfaffian(restrict(form, (0, 2)))

    def test_a_form_cannot_be_built_from_rows(self):
        # det of this block is -1, which no class's block can give; the
        # zero-pivot rule would read chi 0 from it
        with pytest.raises(TypeError):
            AltForm(block=((0, 1), (1, 0)), factor_k=(1, 1))

    def test_keep_must_index_the_class(self):
        for keep in ((), (3,), (-1,), (0, 3, 1)):
            with pytest.raises(ValueError, match="factor indices of the class"):
                AltForm(THREEFOLD_40, keep)

    def test_keep_is_a_tuple_of_ints(self):
        form = AltForm(THREEFOLD_40, [0, 1, 2])
        assert form.keep == (0, 1, 2)
        assert form == alt_form(THREEFOLD_40) and hash(form) == hash(alt_form(THREEFOLD_40))
        assert AltForm(THREEFOLD_40, range(1, 3)) == restrict(alt_form(THREEFOLD_40), (1, 2))
        with pytest.raises(TypeError):
            AltForm(THREEFOLD_40, (0.0, 1, 2))
        # a repeated index would give a singular block of a class with formula chi 22
        with pytest.raises(ValueError):
            AltForm(THREEFOLD_40, (0, 0, 1))

    def test_readings_are_computed_once_per_form(self, monkeypatch):
        # block and full scan: one computation each per form, kept on that
        # form alone, so an equal form of the same class computes its own;
        # neither eliminates nor runs the Smith kernel
        calls = collections.Counter()
        for name in ("_leading_minors", "_smith_diagonal", "restriction_scan", "class_block"):
            def spy(*args, _name=name, _real=getattr(betabound.torusmodel, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(betabound.torusmodel, name, spy)
        readings = ("block", "full_scan")
        first, second = alt_form(THREEFOLD_40), alt_form(THREEFOLD_40)
        assert first == second and first is not second
        values = [getattr(first, name) for name in readings * 3]
        assert values == [getattr(second, name) for name in readings * 3]
        assert calls == {"class_block": 2, "restriction_scan": 2}
        for name in readings:
            assert first.__dict__[name] == second.__dict__[name]
            assert isinstance(getattr(AltForm, name).__doc__, str)
            assert first.__dict__[name] is not second.__dict__[name]
        assert values[0] == ((10, 9, -9), (3, 4, -3), (-1, -1, 4)) and values[1] == (40, (13, 31, 13))

    def test_no_public_function_takes_a_class_and_a_form(self):
        for name in betabound.__all__:
            obj = getattr(betabound, name)
            if inspect.isfunction(obj):
                annotations = " ".join(str(p.annotation) for p in inspect.signature(obj).parameters.values())
                assert not ("DivisorClass" in annotations and "AltForm" in annotations), name

    def test_principal_product_is_standard_symplectic(self):
        form = alt_form(principal_class(3, (5, 2)))
        expected = [[0] * 6 for _ in range(6)]
        for i in range(3):
            expected[2 * i][2 * i + 1] = 1
            expected[2 * i + 1][2 * i] = -1
        assert [list(row) for row in form_e(form)] == expected
        assert form.block == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_surface_pfaffian_six(self):
        cls = standard_class(ConstructionSpace(2, (2,)), 2, 1)
        assert pfaffian(IntMatrix.from_rows(form_e(alt_form(cls)))) == 6

    def test_threefold_pfaffian_forty(self):
        assert pfaffian(IntMatrix.from_rows(form_e(alt_form(THREEFOLD_40)))) == 40

    def test_pairing_symmetric_and_matches_blocks(self):
        form = alt_form(principal_class(2, (3,)))
        s = hermitian_pairing(form)
        assert s == tuple(zip(*s))  # symmetric
        assert s[0][0] == 3 and s[1][1] == Fraction(1, 3)
        assert s[2][2] == 1 and s[3][3] == 1
        assert is_positive_definite(s)


class TestChiOracles:
    def test_principal(self):
        cls = principal_class(4)
        assert chi_multilinear(cls) == 1
        assert chi_pfaffian(alt_form(cls)) == 1

    def test_threefold_forty(self):
        assert chi_multilinear(THREEFOLD_40) == 40
        assert chi_pfaffian(alt_form(THREEFOLD_40)) == 40

    def test_surface_formula(self):
        cls = standard_class(ConstructionSpace(2, (2,)), 2, 1)
        assert chi_multilinear(cls) == 2 + 2 * 1 + 1 * 2

    def test_graph_with_one_fiber(self):
        cls = DivisorClass(ConstructionSpace(2, (3,)), (0, 1), 1)
        assert chi_multilinear(cls) == 3
        assert chi_pfaffian(alt_form(cls)) == 3

    def test_mixed_intersection_numbers(self):
        # dropping the i-th coefficient isolates the intersection number k_i
        space = ConstructionSpace(3, (4, 2))
        for i, expected in enumerate((4, 2, 1)):
            a = [1, 1, 1]
            a[i] = 0
            cls = DivisorClass(space, tuple(a), 1)
            assert chi_multilinear(cls) == expected
            assert chi_pfaffian(alt_form(cls)) == expected

    def test_negative_block_pivot_raises(self, monkeypatch):
        # the block times diag(k) is positive semidefinite, so a negative
        # pivot is a bug, not a value of chi
        monkeypatch.setattr(betabound.torusmodel, "_leading_minors", lambda b: _leading_minors(b)[:-1] + [-1])
        with pytest.raises(LatticeInvariantError):
            chi_pfaffian(alt_form(THREEFOLD_40))

    def test_dual_oracle_random_family(self):
        rng = random.Random(20240)
        checked = 0
        while checked < 300:
            g = rng.randint(1, 4)
            k = tuple(rng.randint(1, 6) for _ in range(g - 1))
            a = tuple(rng.randint(0, 4) for _ in range(g))
            c = rng.randint(0, 2)
            if not any(a) and c == 0:
                continue
            cls = DivisorClass(ConstructionSpace(g, k), a, c)
            assert chi_multilinear(cls) == chi_pfaffian(alt_form(cls))
            checked += 1


class TestTypeAndKGroup:
    def test_principal_type(self):
        assert polarization_type(alt_form(principal_class(3))) == (1, 1, 1)

    def test_threefold_type_40(self):
        form = alt_form(THREEFOLD_40)
        assert smith_normal_form(form_e(form)) == (1, 1, 1, 1, 40, 40)
        assert polarization_type(form) == (1, 1, 40)

    def test_surface_type_examples(self):
        cls = DivisorClass(ConstructionSpace(2, (3,)), (0, 1), 1)
        assert polarization_type(alt_form(cls)) == (1, 3)
        cls = standard_class(ConstructionSpace(2, (2,)), 2, 1)
        assert polarization_type(alt_form(cls)) == (1, 6)

    def test_degenerate_raises(self):
        graph_only = DivisorClass(ConstructionSpace(2, (3,)), (0, 0), 1)
        with pytest.raises(DegenerateFormError):
            polarization_type(alt_form(graph_only))

    def test_k_group_shapes(self):
        assert k_group(polarization_type(alt_form(principal_class(2, (4,))))) == ()
        assert k_group(polarization_type(alt_form(THREEFOLD_40))) == (40, 40)
        cls = DivisorClass(ConstructionSpace(2, (3,)), (0, 1), 1)
        assert k_group(polarization_type(alt_form(cls))) == (3, 3)
        assert k_group(polarization_type(alt_form(cls)), full=True) == (1, 1, 3, 3)

    def test_k_group_order_is_chi_squared(self):
        form = alt_form(THREEFOLD_40)
        assert prod(k_group(polarization_type(form), full=True)) == 40**2

    def test_surface_type_law(self):
        # type (1, a + ab + bk) for the standard surface family
        for a in range(6):
            for b in range(6):
                if a == 0 and b == 0:
                    continue
                for k in range(1, 8):
                    cls = standard_class(ConstructionSpace(2, (k,)), a, b)
                    d = a + a * b + b * k
                    assert polarization_type(alt_form(cls)) == (1, d)

    def test_general_type_law_samples(self):
        # type (1, ..., 1, a + a*b*N_1 + b*k_1) for standard classes
        rng = random.Random(77)
        for _ in range(60):
            g = rng.randint(2, 4)
            k = tuple(rng.randint(1, 6) for _ in range(g - 1))
            a = rng.randint(0, 5)
            b = rng.randint(0, 5)
            if a == 0 and b == 0:
                continue
            space = ConstructionSpace(g, k)
            cls = standard_class(space, a, b)
            d = a + a * b * tail_sum(space, 0) + b * space.k_full[0]
            assert polarization_type(alt_form(cls)) == (1,) * (g - 1) + (d,)


class TestAmpleness:
    def test_principal_is_ample(self):
        assert is_ample(alt_form(principal_class(3, (7, 2))))

    def test_graph_alone_is_not(self):
        graph_only = DivisorClass(ConstructionSpace(2, (3,)), (0, 0), 1)
        assert not is_ample(alt_form(graph_only))

    def test_missing_fiber_direction_is_not(self):
        cls = DivisorClass(ConstructionSpace(2, (3,)), (1, 0), 0)
        assert not is_ample(alt_form(cls))

    def test_standard_surface_family_is_ample(self):
        for a in range(4):
            for b in range(4):
                if a == 0 and b == 0:
                    continue
                for k in (1, 2, 5):
                    cls = standard_class(ConstructionSpace(2, (k,)), a, b)
                    assert is_ample(alt_form(cls))


class TestRestrict:
    def test_threefold_restriction_chis(self):
        form = alt_form(THREEFOLD_40)
        assert chi_pfaffian(restrict(form, (1, 2))) == 13
        assert chi_pfaffian(restrict(form, (2,))) == 4

    def test_keep_all_is_identity(self):
        form = alt_form(THREEFOLD_40)
        again = restrict(form, (0, 1, 2))
        assert again == form
        assert again.block == form.block
        assert again.factor_k == form.factor_k

    def test_empty_keep_raises(self):
        with pytest.raises(ValueError):
            restrict(alt_form(THREEFOLD_40), ())

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            restrict(alt_form(THREEFOLD_40), (3,))

    def test_restriction_of_ample_is_ample(self):
        form = alt_form(THREEFOLD_40)
        for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            assert is_ample(restrict(form, keep))

    def test_curve_degrees(self):
        assert curve_degrees(alt_form(THREEFOLD_40)) == (10, 4, 4)


class TestSnfPairing:
    def test_elementary_divisors_pair_up(self):
        rng = random.Random(5150)
        for _ in range(60):
            g = rng.randint(1, 4)
            k = tuple(rng.randint(1, 6) for _ in range(g - 1))
            a = tuple(rng.randint(0, 4) for _ in range(g))
            c = rng.randint(0, 2)
            if not any(a) and c == 0:
                continue
            form = alt_form(DivisorClass(ConstructionSpace(g, k), a, c))
            diag = smith_normal_form(form_e(form))
            for i in range(0, len(diag), 2):
                assert diag[i] == diag[i + 1]
