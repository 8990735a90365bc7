"""Exact cyclotomic arithmetic, checked against sympy and a floating-point
evaluation oracle.  The library itself never goes through floats; only these
tests do."""

import cmath
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from b3image.errors import ConductorMismatch, NotCoprime, OrderNotDividingConductor
from b3image.exactfield import (
    MINUS_ONE,
    ONE,
    CycNumber,
    RootOfUnity,
    _divide_exact,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    roots_sum_to_zero,
    spec_conductor,
)

# -- numeric oracle ----------------------------------------------------------------


def as_complex(x: CycNumber) -> complex:
    zeta = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * zeta**j for j, c in enumerate(x.coords))


def close(a: complex, b: complex) -> bool:
    return abs(a - b) < 1e-9


# -- RootOfUnity -------------------------------------------------------------------


def test_root_normalizes_exponent_mod_1():
    assert RootOfUnity.of(9, 7) == RootOfUnity.of(2, 7)
    assert RootOfUnity.of(-1, 5) == RootOfUnity.of(4, 5)
    assert RootOfUnity.of(4, 2) == ONE


def test_root_parse_and_str():
    r = RootOfUnity.parse("3/8")
    assert r.exponent == Fraction(3, 8)
    assert RootOfUnity.parse(str(r)) == r
    assert RootOfUnity.parse("1") == ONE


def test_root_order():
    assert ONE.order == 1
    assert MINUS_ONE.order == 2
    assert RootOfUnity.of(2, 10).order == 5
    assert RootOfUnity.of(3, 10).order == 10


def test_root_arithmetic_is_exponent_arithmetic():
    a, b = RootOfUnity.of(1, 6), RootOfUnity.of(1, 4)
    assert (a * b).exponent == Fraction(5, 12)
    assert (a / b).exponent == Fraction(11, 12)
    assert (a**7).exponent == Fraction(1, 6)
    assert a.inverse() * a == ONE
    assert (-a) == a * MINUS_ONE


def test_canonical_sqrt_halves_the_reduced_exponent():
    assert MINUS_ONE.canonical_sqrt() == RootOfUnity.of(1, 4)
    assert RootOfUnity.of(2, 3).canonical_sqrt() == RootOfUnity.of(1, 3)
    assert ONE.canonical_sqrt() == ONE
    for k in range(1, 12):
        r = RootOfUnity.of(k, 12)
        assert r.canonical_sqrt() ** 2 == r


@given(st.integers(-40, 40), st.integers(1, 30), st.integers(-40, 40), st.integers(1, 30))
def test_root_mul_matches_complex(p, q, r, s):
    a, b = RootOfUnity.of(p, q), RootOfUnity.of(r, s)
    za = cmath.exp(2j * cmath.pi * float(a.exponent))
    zb = cmath.exp(2j * cmath.pi * float(b.exponent))
    assert close(cmath.exp(2j * cmath.pi * float((a * b).exponent)), za * zb)


# -- vanishing sums of roots of unity ------------------------------------------------


def test_roots_sum_to_zero_agrees_with_exact_embedding():
    # the helper is scoped to the 2- and 3-term sums the validation
    # polynomials produce; cross-check every case against full arithmetic
    cases = [
        [RootOfUnity.of(k, 3) for k in range(3)],
        [ONE, MINUS_ONE],
        [ONE, RootOfUnity.of(1, 4)],
        [ONE, RootOfUnity.of(1, 3)],
        [RootOfUnity.of(1, 6), RootOfUnity.of(5, 6), MINUS_ONE],
        [ONE, ONE, MINUS_ONE],
        [RootOfUnity.of(2, 7), RootOfUnity.of(3, 7), RootOfUnity.of(5, 7)],
    ]
    for roots in cases:
        n = spec_conductor(roots)
        total = CycNumber.zero(n)
        for r in roots:
            total = total + embed(r, n)
        assert roots_sum_to_zero(roots) == total.is_zero()


def test_known_vanishing_sums():
    # every vanishing 3-term sum is a scaled mu_3 coset; here zeta_5 * {1, w, w^2}
    c = RootOfUnity.of(1, 5)
    w = RootOfUnity.of(1, 3)
    assert roots_sum_to_zero([c, c * w, c * w * w])
    assert not roots_sum_to_zero([ONE, RootOfUnity.of(1, 5)])
    with pytest.raises(ValueError):
        roots_sum_to_zero([RootOfUnity.of(k, 5) for k in range(5)])


# -- cyclotomic polynomials ----------------------------------------------------------


def test_cyclotomic_polynomial_against_sympy():
    t = sympy.symbols("t")
    for n in list(range(1, 31)) + [36, 48, 105]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
        assert list(ours) == list(reversed(theirs))


def test_phi_12_frozen():
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi_against_sympy():
    for n in range(1, 200):
        assert euler_phi(n) == sympy.totient(n)


def test_divide_exact():
    # (t - 1) * Phi_6 = (t - 1)(t^2 - t + 1) = t^3 - 2t^2 + 2t - 1
    assert _divide_exact((-1, 2, -2, 1), (-1, 1)) == cyclotomic_polynomial(6)
    with pytest.raises(ValueError, match="remainder"):
        _divide_exact((0, 2, -2, 1), (-1, 1))
    with pytest.raises(ValueError, match="monic"):
        _divide_exact((-1, 2, -2, 1), (-1, 2))


# -- CycNumber ------------------------------------------------------------------------

conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16])


def numbers(n: int):
    phi = euler_phi(n)
    return st.builds(
        lambda coords, den: CycNumber.from_coords(
            [Fraction(c, den) for c in coords], n
        ),
        st.lists(st.integers(-9, 9), min_size=phi, max_size=phi),
        st.integers(1, 9),
    )


@given(conductors.flatmap(lambda n: st.tuples(numbers(n), numbers(n), numbers(n))))
@settings(max_examples=150)
def test_field_axioms_numeric(xyz):
    x, y, z = xyz
    assert close(as_complex(x + y), as_complex(x) + as_complex(y))
    assert close(as_complex(x * y), as_complex(x) * as_complex(y))
    assert close(as_complex(x - z), as_complex(x) - as_complex(z))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x


@given(conductors.flatmap(numbers))
@settings(max_examples=150)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
    else:
        assert x * x.inv() == CycNumber.one(x.conductor)


@given(conductors.flatmap(numbers), st.integers(0, 6))
@settings(max_examples=100)
def test_pow_matches_repeated_product(x, k):
    expected = CycNumber.one(x.conductor)
    for _ in range(k):
        expected = expected * x
    assert x**k == expected


def test_rational_detection():
    x = CycNumber.from_rational(Fraction(3, 7), 12)
    assert x.is_rational() and x.as_rational() == Fraction(3, 7)
    z = embed(RootOfUnity.of(1, 12), 12)
    assert not z.is_rational()
    # zeta_12^3 = i is irrational but zeta_12^6 = -1 is not
    assert (z**6).as_rational() == -1


def test_as_root_of_unity_round_trip():
    for n in (1, 2, 3, 4, 6, 7, 8, 9, 12, 15):
        for k in range(n):
            r = RootOfUnity.of(k, n)
            assert embed(r, n).as_root_of_unity() == r
    assert (embed(ONE, 5) + embed(ONE, 5)).as_root_of_unity() is None
    assert CycNumber.zero(6).as_root_of_unity() is None


def test_minus_root_recognized_at_odd_conductor_after_lift():
    # -zeta_3 is a root of unity of order 6; over conductor 3 the power basis
    # has no such monomial, the lift to 6 recovers it
    x = -embed(RootOfUnity.of(1, 3), 3)
    assert x.lift(6).as_root_of_unity() == RootOfUnity.of(5, 6)


def test_galois_is_ring_automorphism():
    n = 12
    x = embed(RootOfUnity.of(1, 12), n) + 2
    y = embed(RootOfUnity.of(7, 12), n) * Fraction(1, 3)
    for a in (1, 5, 7, 11):
        assert (x * y).galois(a) == x.galois(a) * y.galois(a)
        assert (x + y).galois(a) == x.galois(a) + y.galois(a)
    with pytest.raises(NotCoprime):
        x.galois(3)


def test_galois_permutes_roots():
    z = embed(RootOfUnity.of(1, 7), 7)
    assert z.galois(3) == z**3


def lift_cases():
    """(x over conductor n, m with n | m, a coprime to m)."""
    pairs = [
        (n, m) for m in (4, 6, 12, 15, 20, 24) for n in range(1, m + 1) if m % n == 0
    ]
    return st.sampled_from(pairs).flatmap(
        lambda nm: st.tuples(numbers(nm[0]), st.just(nm[1]), units(nm[1]))
    )


def units(m: int):
    """Exponents in [-m, 2m) coprime to m, so negative and unreduced ones occur."""
    return st.sampled_from([a for a in range(-m, 2 * m) if math.gcd(a, m) == 1])


@given(lift_cases())
@settings(max_examples=150)
def test_lift_commutes_with_galois(case):
    # lift and galois share one substitution loop; check its two entry points
    # against each other
    x, m, a = case
    assert x.lift(m).galois(a) == x.galois(a % x.conductor).lift(m)


# -- field trace ------------------------------------------------------------------------


def test_field_trace_of_one_and_zeta():
    for n in range(1, 61):
        assert CycNumber.one(n).field_trace() == euler_phi(n)
        assert embed(RootOfUnity.of(1, n), n).field_trace() == sympy.mobius(n)


@given(conductors.flatmap(numbers))
@settings(max_examples=150)
def test_field_trace_is_sum_of_galois_conjugates(x):
    n = x.conductor
    total = CycNumber.zero(n)
    for a in range(1, n + 1):
        if math.gcd(a, n) == 1:
            total = total + x.galois(a)
    assert total.is_rational()
    assert x.field_trace() == total.as_rational()


@given(conductors.flatmap(numbers))
@settings(max_examples=150)
def test_field_trace_of_norm_square_is_positive(x):
    # Tr(x * conj(x)) sums |sigma(x)|^2 over the embeddings
    if not x.is_zero():
        assert (x * x.galois(-1)).field_trace() > 0


def test_lift_preserves_value():
    x = embed(RootOfUnity.of(1, 6), 6) + Fraction(1, 2)
    y = x.lift(24)
    assert y.conductor == 24
    assert close(as_complex(x), as_complex(y))
    with pytest.raises(ConductorMismatch):
        x.lift(9)


def test_conductor_mismatch_rejected():
    with pytest.raises(ConductorMismatch):
        CycNumber.one(6) + CycNumber.one(8)


def test_embed_requires_compatible_conductor():
    with pytest.raises(OrderNotDividingConductor):
        embed(RootOfUnity.of(1, 5), 12)


def test_spec_conductor():
    roots = [ONE, RootOfUnity.of(1, 6), RootOfUnity.of(1, 4)]
    assert spec_conductor(roots) == 12
    assert spec_conductor(roots, 5) == 60


@given(st.integers(-30, 30), st.integers(1, 24), st.integers(-30, 30), st.integers(1, 24))
@settings(max_examples=120)
def test_embedding_is_multiplicative(p, q, r, s):
    a, b = RootOfUnity.of(p, q), RootOfUnity.of(r, s)
    n = spec_conductor([a, b])
    assert embed(a, n) * embed(b, n) == embed(a * b, n)
