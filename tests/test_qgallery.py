"""Braiding-family specs, recorded claims, and reproduction reports."""

from fractions import Fraction

import pytest

from b3image.errors import OutOfRange
from b3image.exactfield import RootOfUnity
from b3image.grouporacle import COMPLETED, EXCEEDED, ClosureResult
from b3image.qgallery import (
    FAMILIES,
    _closure_matches,
    expectation,
    get_family,
    qg_spec,
    reproduce,
)
from b3image.verdict import (
    FINITE,
    INFINITE,
    UNDECIDABLE,
    projective_order_of_spec,
)


def exponents(spec):
    return [r.exponent for r in spec.eigenvalues]


# -- template realization -----------------------------------------------------


def test_family_registry():
    assert sorted(FAMILIES) == ["F4", "G2", "SO7spin", "SO9spin"]
    assert FAMILIES["G2"].dim == 4 and FAMILIES["F4"].dim == 5
    assert not FAMILIES["G2"].has_builder and not FAMILIES["F4"].has_builder
    assert FAMILIES["SO7spin"].has_builder and FAMILIES["SO9spin"].has_builder
    with pytest.raises(OutOfRange):
        get_family("E8")


def test_g2_exponents_frozen():
    # q^-12, q^2, -q^-6, -1 at ell=14 over conductor 28
    spec = qg_spec("G2", 14)
    assert exponents(spec) == [
        Fraction(4, 7),
        Fraction(1, 14),
        Fraction(2, 7),
        Fraction(1, 2),
    ]
    assert spec.d_sign is None


def test_g2_at_24_has_distinct_eigenvalues():
    # the template collapses nowhere at ell=24: all four stay distinct
    spec = qg_spec("G2", 24)
    assert exponents(spec) == [
        Fraction(3, 4),
        Fraction(1, 24),
        Fraction(3, 8),
        Fraction(1, 2),
    ]
    assert spec.is_distinct()


def test_f4_exponents_frozen():
    spec = qg_spec("F4", 22)
    assert exponents(spec) == [
        Fraction(5, 11),
        Fraction(8, 11),
        Fraction(1, 22),
        Fraction(1, 2),
        Fraction(4, 11),
    ]


def test_so7_exponents_and_sign():
    spec = qg_spec("SO7spin", 14)
    assert exponents(spec) == [
        Fraction(0),
        Fraction(3, 7),
        Fraction(5, 7),
        Fraction(6, 7),
    ]
    assert spec.d_sign == 1
    # the attached sign realizes gamma^2 = -q^14
    assert spec.gamma_squared() == RootOfUnity.of(14 + 14, 28)


def test_so7_sign_realizes_gamma_squared_at_every_level():
    for ell in range(14, 31, 2):
        spec = qg_spec("SO7spin", ell)
        assert spec.gamma_squared() == RootOfUnity.of(14 + ell, 2 * ell)


def test_so9_gamma_attached():
    spec = qg_spec("SO9spin", 22)
    assert spec.gamma == RootOfUnity.of(12, 44)
    assert spec.gamma**5 == spec.determinant()


def test_so9_at_18_has_repeated_eigenvalues():
    spec = qg_spec("SO9spin", 18)
    assert not spec.is_distinct()
    assert exponents(spec).count(Fraction(0)) == 2


# every level in 1..60 at which each family is defined
VALID_LEVELS = {
    "G2": set(range(10, 61)) - {12, 15},
    "F4": {15, 17, 19, 21} | set(range(22, 61)),
    "SO7spin": set(range(14, 61, 2)),
    "SO9spin": set(range(18, 61, 2)),
}


def test_validity_ranges():
    valid = [("G2", 10), ("G2", 18), ("G2", 11), ("F4", 22), ("F4", 15),
             ("SO7spin", 14), ("SO9spin", 18)]
    invalid = [("G2", 12), ("G2", 15), ("G2", 9), ("F4", 20), ("F4", 13),
               ("SO7spin", 12), ("SO7spin", 15), ("SO9spin", 16), ("SO9spin", 19)]
    for name, ell in valid:
        qg_spec(name, ell)
    for name, ell in invalid:
        with pytest.raises(OutOfRange):
            qg_spec(name, ell)
    with pytest.raises(OutOfRange):
        expectation("SO7spin", 13)
    assert set(VALID_LEVELS) == set(FAMILIES)
    for name, levels in VALID_LEVELS.items():
        for ell in range(1, 61):
            assert FAMILIES[name].valid(ell) == (ell in levels), (name, ell)
            if ell in levels:
                assert qg_spec(name, ell).dim == FAMILIES[name].dim
            else:
                with pytest.raises(OutOfRange):
                    qg_spec(name, ell)


def test_projective_orders_by_level():
    # G2 and F4: the generator has projective order ell (even) or 2*ell (odd)
    for ell in (10, 14, 16, 20, 22, 26, 28):
        assert projective_order_of_spec(qg_spec("G2", ell)) == ell
    for ell in (11, 13, 17, 25):
        assert projective_order_of_spec(qg_spec("G2", ell)) == 2 * ell
    for ell in (22, 24, 26):
        assert projective_order_of_spec(qg_spec("F4", ell)) == ell
    for ell in (15, 17, 21):
        assert projective_order_of_spec(qg_spec("F4", ell)) == 2 * ell
    # spin families: ell/2 exactly when ell = 2 mod 4, else ell
    for name, lo in (("SO7spin", 14), ("SO9spin", 18)):
        for ell in range(lo, 31, 2):
            expected = ell // 2 if ell % 4 == 2 else ell
            assert projective_order_of_spec(qg_spec(name, ell)) == expected


# -- recorded claims ------------------------------------------------------------


def test_expectation_kinds():
    assert expectation("G2", 14).kind == INFINITE
    assert expectation("G2", 24).kind == INFINITE
    assert expectation("G2", 10).kind == UNDECIDABLE
    assert expectation("G2", 20).kind == UNDECIDABLE
    assert expectation("F4", 22).kind == INFINITE
    assert expectation("F4", 15).kind == INFINITE
    # SO7spin: ell/2 in the quoted exemption list leaves the row undecided
    for ell in range(14, 81, 2):
        if ell == 14:
            want = None
        elif ell == 18:
            want = FINITE
        elif ell in (16, 20, 24, 30, 40, 48):
            want = UNDECIDABLE
        else:
            want = INFINITE
        assert expectation("SO7spin", ell).kind == want, ell
    assert expectation("SO9spin", 18).kind == INFINITE
    assert expectation("SO9spin", 22).kind is None
    assert expectation("SO9spin", 20).kind == INFINITE
    assert expectation("SO9spin", 26).kind == INFINITE


def test_expectation_closure_clauses():
    assert expectation("SO7spin", 14).closure == ("exact", 168)
    assert expectation("SO9spin", 22).closure == ("exact", 660)
    assert expectation("SO9spin", 18).closure == ("divides", 324)
    assert expectation("SO9spin", 20).closure == ("exceeded", None)
    assert expectation("G2", 14).closure is None
    assert expectation("SO7spin", 18).closure is None
    for name, ell in (("G2", 10), ("F4", 22), ("SO7spin", 14), ("SO9spin", 26)):
        assert expectation(name, ell).quote.startswith('"')


def test_closure_matches():
    done = ClosureResult(COMPLETED, 168, 1000, {})
    over = ClosureResult(EXCEEDED, None, 1000, {})
    assert _closure_matches(None, None)
    assert _closure_matches(None, done)
    assert not _closure_matches(("exact", 168), None)
    assert _closure_matches(("exact", 168), done)
    assert not _closure_matches(("exact", 660), done)
    assert not _closure_matches(("exact", 168), over)
    assert _closure_matches(("divides", 336), done)
    assert not _closure_matches(("divides", 100), done)
    assert _closure_matches(("exceeded", None), over)
    assert not _closure_matches(("exceeded", None), done)


# -- reproduction reports ----------------------------------------------------------


def test_reproduce_g2_infinite_row():
    report = reproduce("G2", 14)
    assert report.verdict.kind == INFINITE
    assert report.closure is None
    assert report.agreement


def test_reproduce_g2_exempt_row():
    report = reproduce("G2", 10)
    assert report.verdict.kind == UNDECIDABLE
    assert report.agreement


def test_reproduce_g2_24_disagrees():
    # the recorded claim says repeated eigenvalues force an infinite image,
    # but the realized spectrum at ell=24 is distinct and lands in the
    # dimension-4 undecidable gap; the report records the mismatch honestly
    report = reproduce("G2", 24)
    assert report.spec.is_distinct()
    assert report.verdict.kind == UNDECIDABLE
    assert report.expectation.kind == INFINITE
    assert not report.agreement


def test_reproduce_f4_odd_row():
    report = reproduce("F4", 15)
    assert report.verdict.kind == INFINITE
    assert report.verdict.po == 30
    assert report.agreement


def test_reproduce_so7_14_runs_closure():
    report = reproduce("SO7spin", 14)
    assert report.verdict.kind == UNDECIDABLE
    assert report.closure.outcome == COMPLETED and report.closure.order == 168
    assert report.agreement


def test_reproduce_so9_18():
    report = reproduce("SO9spin", 18)
    assert report.verdict.kind == INFINITE and report.verdict.rule == "2.1(a)"
    assert report.closure.outcome == COMPLETED
    assert 324 % report.closure.order == 0
    assert report.agreement


def test_report_json_schema():
    report = reproduce("G2", 14)
    data = report.to_json()
    assert set(data) == {
        "family",
        "ell",
        "spec",
        "verdict",
        "closure",
        "expectation_quote",
        "agreement",
    }
    assert data["family"] == "G2" and data["ell"] == 14
    assert data["closure"] is None
    assert isinstance(data["expectation_quote"], str)
    assert data["agreement"] is True

    with_closure = reproduce("SO7spin", 14).to_json()
    assert with_closure["closure"]["order"] == 168
