"""Acceptance suite: every criterion at its stated tolerance.

All arithmetic is exact, so "tolerance" means bit-equality of reduced
rationals throughout.  Each test prints one PASS line on success (shown
with `pytest -v -s tests/test_acceptance.py`).
"""

import random
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from betabound import (
    ConstructionSpace,
    DivisorClass,
    alt_form,
    brute_search,
    certify,
    chi_multilinear,
    chi_pfaffian,
    general_beta,
    k_group,
    necessary_lower_bounds,
    np_report,
    np_threshold,
    polarization_type,
    recipe_strict,
    recipe_weak,
    smith_normal_form,
    standard_class,
    surface_beta,
)
from betabound.cli import run
from betabound.threshold import Bound
from util import exact_det, form_e, pfaffian, random_alternating, skew_normal_form

TABLE_16_EXPECTED = [
    ("1", True), ("1", True), ("2/3", True), ("1/2", True),
    ("1/2", True), ("1/2", True), ("3/7", False), ("3/8", False),
    ("1/3", True), ("1/3", False), ("1/3", False), ("1/3", True),
    ("4/13", False), ("2/7", True), ("4/15", True), ("1/4", True),
]


def test_criterion_1_table_reproduction():
    env = run(["table", "--max", "16"])
    rows = env["results"]["rows"]
    got = [(row["interval"]["upper"]["value"], row["interval"]["exact"]) for row in rows]
    assert got == TABLE_16_EXPECTED
    displays = [row["display"] for row in rows]
    assert displays == [
        "1", "1", "2/3", "1/2", "1/2", "1/2", "<= 3/7", "<= 3/8",
        "1/3", "<= 1/3", "<= 1/3", "1/3", "<= 4/13", "2/7", "4/15", "1/4",
    ]
    print("ACCEPTANCE 1 PASS: surface table d=1..16 matches, including exact vs <= entries")


def test_criterion_2_threefold_type_40_construction():
    cls = standard_class(ConstructionSpace(3, (9, 3)), 1, 3)
    form = alt_form(cls)
    assert smith_normal_form(form_e(form)) == (1, 1, 1, 1, 40, 40)
    assert polarization_type(form) == (1, 1, 40)
    cert = certify(recipe_strict(3, 40))
    assert cert.params.k == (9, 3)
    assert (cert.params.a, cert.params.b) == (1, 3)
    assert cert.bound == Fraction(13, 40)
    assert cert.flag_chis == (40, 13, 4)
    print("ACCEPTANCE 2 PASS: (g=3, k=(9,3), a=1, b=3) certifies type (1,1,40), flag bound 13/40")


def test_criterion_3_small_threefold_search():
    expected = {
        4: (Fraction(3, 4), [(1, 1)]),
        5: (Fraction(2, 3), [(2, 1)]),
        6: (Fraction(2, 3), [(3, 1), (2, 2)]),
        7: (Fraction(4, 7), [(3, 2)]),
    }
    for d, (best_bound, quoted_ks) in expected.items():
        results = brute_search(3, d)
        assert results, f"empty search for d={d}"
        assert results[0].bound == best_bound
        minimizers = {
            (cert.params.a, cert.params.b, cert.params.k)
            for cert in results
            if cert.bound == best_bound
        }
        for k_pair in quoted_ks:
            assert (1, 1, k_pair) in minimizers, f"missing witness {k_pair} for d={d}"
    print("ACCEPTANCE 3 PASS: g=3 search best bounds 3/4, 2/3, 2/3, 4/7 for d=4..7 with quoted witnesses")


def test_criterion_4_recipe_bounds_across_root_ranges():
    weak_count = 0
    strict_count = 0
    for g in (2, 3, 4):
        for m in (2, 3, 4):
            strict_from = sum(m**i for i in range(g + 1))
            for d in range(m**g, (m + 1) ** g):
                cert = certify(recipe_weak(g, d))
                assert cert.ptype == (1,) * (g - 1) + (d,)
                assert cert.bound <= Fraction(1, m)
                weak_count += 1
                if d >= strict_from:
                    cert = certify(recipe_strict(g, d))
                    assert cert.ptype == (1,) * (g - 1) + (d,)
                    assert cert.bound < Fraction(1, m)
                    strict_count += 1
    assert weak_count == 747
    assert strict_count >= 500
    print(
        f"ACCEPTANCE 4 PASS: recipes certified on {weak_count} weak + {strict_count} strict "
        "instances (2<=g<=4, 2<=m<=4), bounds <= 1/m resp. < 1/m"
    )


def test_criterion_5_np_thresholds():
    assert np_threshold(2, 0) == 7
    assert np_threshold(2, 1) == 13
    assert np_threshold(3, 0) == 15
    for g in range(1, 9):
        assert np_threshold(g, 0) == 2 ** (g + 1) - 1
    print("ACCEPTANCE 5 PASS: degree thresholds 7, 13, 15 and 2^(g+1)-1 for g<=8")


def test_criterion_6_dual_oracle_family():
    rng = random.Random(16180339)
    samples = 0
    nondegenerate = 0
    while samples < 1000:
        g = rng.randint(1, 4)
        k = tuple(rng.randint(1, 6) for _ in range(g - 1))
        a = tuple(rng.randint(0, 4) for _ in range(g))
        c = rng.randint(0, 2)
        if not any(a) and c == 0:
            continue
        cls = DivisorClass(ConstructionSpace(g, k), a, c)
        form = alt_form(cls)
        chi = chi_multilinear(cls)
        assert chi == chi_pfaffian(form)
        if chi > 0:
            assert prod(polarization_type(form)) == chi
            assert prod(k_group(polarization_type(form), full=True)) == chi * chi
            nondegenerate += 1
        samples += 1
    assert samples >= 1000
    assert nondegenerate >= 500
    print(
        f"ACCEPTANCE 6 PASS: chi oracles, type product and K-group order agree on "
        f"{samples} random classes ({nondegenerate} nondegenerate)"
    )


def test_criterion_7_kernel_properties():
    rng = random.Random(2718281)
    checked = 0
    for _ in range(500):
        dim = rng.choice((2, 4, 6, 8, 10))
        m = random_alternating(rng, dim, 100)
        assert Fraction(pfaffian(m)) ** 2 == exact_det(m)
        diag = smith_normal_form(m.to_rows())
        for i in range(0, dim, 2):
            assert diag[i] == diag[i + 1]
        assert diag == skew_normal_form(m.to_rows())
        checked += 1
    assert checked == 500
    print(
        "ACCEPTANCE 7 PASS: Pf^2 = det, and paired elementary divisors equal to the skew normal form,"
        " on 500 random alternating matrices"
    )


def test_criterion_8_boundary_coherence():
    cert = certify(recipe_strict(3, 15))
    assert cert.bound == Fraction(7, 15)
    assert cert.bound < Fraction(1, 2)
    assert cert.np.p_beta == 0
    assert 2**4 - 1 == 15  # the projective-normality boundary for g = 3
    assert cert.np.projectively_normal

    rules = necessary_lower_bounds(2, 6)
    assert rules and rules[0].value == Bound.rational(Fraction(1, 2))
    row = surface_beta(6)
    assert row.exact
    assert row.interval.upper == Bound.rational(Fraction(1, 2))
    print("ACCEPTANCE 8 PASS: (3,15) certifies p=0 via 7/15 < 1/2 at the 2^4-1 boundary; (2,6) pinches to 1/2")


def test_criterion_9_np_theorem():
    # The paper's theorem: a general (X, L) of type (1, ..., 1, d) satisfies
    # (N_p) once d >= np_threshold(g, p), certified here through a recipe
    # witness of flag bound < 1/(p+2), for every p >= 0 with threshold
    # <= 10^7 (3,490 (g, p), 3,160 of them at g = 2).  One degree below the
    # threshold, for p <= 9, neither the arithmetic nor the certificate
    # reaches p, and at d = 10^30 the two agree.
    checked = 0
    for g in range(2, 13):
        p = 0
        while (d := np_threshold(g, p)) <= 10**7:
            report = general_beta(g, d)
            assert np_report(g, d, report.interval).p_beta >= p
            assert report.witness.ptype == (1,) * (g - 1) + (d,)
            assert report.witness.bound < Fraction(1, p + 2)
            if p <= 9:
                below = np_report(g, d - 1, general_beta(g, d - 1).interval)
                assert below.p_beta == below.p_arithmetic == p - 1
            checked += 1
            p += 1
        # sharpness at p = 0: below 2^(g+1) - 1 no certificate can claim (N_0)
        for d in (1, g, g + 1, 2 ** (g + 1) - 2):
            assert general_beta(g, d).interval.lower >= Bound.rational(Fraction(1, 2))
    for g in range(2, 11):
        far = np_report(g, 10**30, general_beta(g, 10**30).interval)
        assert far.p_beta == far.p_arithmetic
    assert checked == 3490
    print(f"ACCEPTANCE 9 PASS: (N_p) certified at the threshold degree for {checked} (g, p), 2<=g<=12, threshold<=10^7")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 12),
    st.one_of(st.integers(1, 500), st.integers(1, 10**6), st.integers(1, 10**15)),
)
def test_criterion_9_np_theorem_between_thresholds(g, d):
    # The same theorem at degrees between thresholds: the certified interval
    # gives exactly the arithmetic p (a larger p_beta would mean the flag
    # method beats the paper's threshold), through a witness of type
    # (1, ..., 1, d) whose bound lies below 1/(p+2).
    report = general_beta(g, d)
    np_cert = np_report(g, d, report.interval)
    assert np_cert.p_beta == np_cert.p_arithmetic
    assert report.witness.ptype == (1,) * (g - 1) + (d,)
    if np_cert.p_arithmetic is not None and np_cert.p_arithmetic >= 0:
        assert report.witness.bound < Fraction(1, np_cert.p_arithmetic + 2)
