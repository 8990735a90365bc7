"""Exact matrix algebra over cyclotomic fields, checked against a complex
floating-point oracle and sympy."""

import cmath
import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from b3image.cyclolinalg import CycMatrix, CycPolynomial, _breaks_trace_bound
from b3image.errors import ConductorMismatch, DimensionMismatch, SingularMatrix, ZeroMatrix
from b3image.exactfield import CycNumber, RootOfUnity, embed, euler_phi
from b3image.grouporacle import Word
from b3image.qgallery import build_so7, build_so9
from b3image.repforms import build_d3, build_d4_block


def to_complex(m: CycMatrix):
    zeta = cmath.exp(2j * cmath.pi / m.conductor)
    return [
        [sum(float(c) * zeta**j for j, c in enumerate(v.coords)) for v in row]
        for row in m.rows
    ]


def matclose(a, b) -> bool:
    return all(abs(x - y) < 1e-8 for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def cnum(n: int):
    phi = euler_phi(n)
    return st.builds(
        lambda coords: CycNumber.from_coords([Fraction(c, 2) for c in coords], n),
        st.lists(st.integers(-4, 4), min_size=phi, max_size=phi),
    )


def matrices(dims=(2, 3), conds=(1, 3, 4, 6, 8), entry=cnum):
    return st.sampled_from(conds).flatmap(
        lambda n: st.sampled_from(dims).flatmap(
            lambda d: st.builds(
                lambda entries: CycMatrix(
                    d, n, tuple(tuple(entries[i * d : (i + 1) * d]) for i in range(d))
                ),
                st.lists(entry(n), min_size=d * d, max_size=d * d),
            )
        )
    )


# -- arithmetic ----------------------------------------------------------------------


@given(matrices())
@settings(max_examples=80)
def test_product_matches_complex_oracle(m):
    import numpy as np

    ours = to_complex(m * m)
    theirs = np.array(to_complex(m)) @ np.array(to_complex(m))
    assert matclose(ours, theirs.tolist())


@given(matrices())
@settings(max_examples=80)
def test_det_matches_complex_oracle(m):
    import numpy as np

    zeta = cmath.exp(2j * cmath.pi / m.conductor)
    det = sum(float(c) * zeta**j for j, c in enumerate(m.det().coords))
    assert abs(det - np.linalg.det(np.array(to_complex(m)))) < 1e-7


def _leibniz(m: CycMatrix) -> CycNumber:
    """det by the plain Leibniz expansion: every permutation multiplied out,
    its sign from the inversion count."""
    acc = CycNumber.zero(m.conductor)
    for perm in itertools.permutations(range(m.dim)):
        term = CycNumber.one(m.conductor)
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        acc = acc - term if inversions % 2 else acc + term
    return acc


def sparse_cnum(n: int):
    """Zero about half the time, so det skips many permutations."""
    return st.one_of(st.just(CycNumber.zero(n)), cnum(n))


@given(matrices(dims=(2, 3, 4, 5), entry=sparse_cnum))
@settings(max_examples=60, deadline=None)
def test_det_matches_leibniz_expansion(m):
    assert m.det() == _leibniz(m)


def test_det_of_triangular_matrix_takes_dim_minus_one_products(monkeypatch):
    n = 8
    zeta = embed(RootOfUnity.of(1, n), n)
    rows = [[zeta ** (i + j) + 2 if j >= i else 0 for j in range(5)] for i in range(5)]
    m = CycMatrix.from_rows(rows, n)
    calls = 0
    exact_mul = CycNumber.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return exact_mul(self, other)

    monkeypatch.setattr(CycNumber, "__mul__", counted)
    det = m.det()
    monkeypatch.undo()
    assert calls == 4
    assert det == _leibniz(m)


@given(matrices())
@settings(max_examples=60)
def test_inverse_or_singular(m):
    try:
        inv = m.inv()
    except SingularMatrix:
        assert m.det().is_zero()
        return
    assert m * inv == CycMatrix.identity(m.dim, m.conductor)
    assert inv * m == CycMatrix.identity(m.dim, m.conductor)


def test_dimension_and_conductor_guards():
    a = CycMatrix.identity(2, 4)
    with pytest.raises(DimensionMismatch):
        a * CycMatrix.identity(3, 4)
    with pytest.raises(ConductorMismatch):
        a * CycMatrix.identity(2, 6)
    with pytest.raises(DimensionMismatch):
        CycMatrix.from_rows([[1, 2], [3]], 1)


def test_pow_negative_inverts():
    m = CycMatrix.from_rows([[1, 1], [0, 1]], 1)
    assert m**-2 == CycMatrix.from_rows([[1, -2], [0, 1]], 1)
    assert m**0 == CycMatrix.identity(2, 1)


# -- characteristic polynomial ---------------------------------------------------------


def test_char_poly_against_sympy_rational():
    rows = [[1, 2, 0], [0, 3, 1], [5, 0, 1]]
    ours = CycMatrix.from_rows(rows, 1).char_poly()
    t = sympy.symbols("t")
    theirs = sympy.Poly((sympy.eye(3) * t - sympy.Matrix(rows)).det(), t).all_coeffs()
    assert [c.as_rational() for c in ours.coeffs] == list(reversed(theirs))


@given(matrices(dims=(2, 3)))
@settings(max_examples=60)
def test_char_poly_trace_det_relations(m):
    p = m.char_poly()
    assert p.is_monic() and p.degree == m.dim
    assert p.coeffs[m.dim - 1] == -m.trace()
    sign = 1 if m.dim % 2 == 0 else -1
    assert p.coeffs[0] == sign * m.det()


def test_char_poly_of_diagonal_from_roots():
    roots = [RootOfUnity.of(k, 7) for k in (0, 1, 3)]
    m = CycMatrix.diagonal(roots, 7)
    assert m.char_poly() == CycPolynomial.from_roots(roots, 7)


def test_polynomial_evaluation():
    p = CycPolynomial.from_roots([RootOfUnity.of(1, 4)], 4)
    i = embed(RootOfUnity.of(1, 4), 4)
    assert p(i).is_zero()
    assert not p(CycNumber.one(4)).is_zero()


# -- projective helpers -----------------------------------------------------------------


def test_projective_canonical_removes_scalar():
    m = CycMatrix.from_rows([[0, 2], [3, 1]], 12)
    z = embed(RootOfUnity.of(5, 12), 12) * Fraction(7, 3)
    assert (m.scale(z)).projective_canonical() == m.projective_canonical()
    assert m.projective_canonical().first_nonzero() == CycNumber.one(12)


def test_projective_canonical_zero_matrix():
    with pytest.raises(ZeroMatrix):
        CycMatrix.from_rows([[0, 0], [0, 0]], 1).projective_canonical()


def test_primitive_part_is_projectively_equal_and_integral():
    m = CycMatrix.from_rows(
        [[Fraction(2, 3), Fraction(4, 3)], [2, Fraction(8, 3)]], 1
    )
    p = m.primitive_part()
    assert p == CycMatrix.from_rows([[1, 2], [3, 4]], 1)
    assert p.projective_canonical() == m.projective_canonical()


def test_is_scalar():
    assert CycMatrix.identity(3, 6).scale(embed(RootOfUnity.of(1, 6), 6)).is_scalar()
    assert not CycMatrix.from_rows([[1, 1], [0, 1]], 1).is_scalar()


def test_projective_order_diagonal():
    m = CycMatrix.diagonal([RootOfUnity.of(0, 1), RootOfUnity.of(1, 6)], 6)
    assert m.projective_order(10) == 6
    assert m.projective_order(5) is None
    # scalar matrix has projective order 1
    s = CycMatrix.diagonal([RootOfUnity.of(1, 6)] * 2, 6)
    assert s.projective_order(3) == 1


def test_projective_order_respects_scaling():
    m = CycMatrix.from_rows([[0, 1], [1, 1]], 12)
    z = embed(RootOfUnity.of(1, 12), 12)
    assert m.projective_order(100) == m.scale(z).projective_order(100)


# -- the trace certificate of infinite order ---------------------------------------------


def _certified(m: CycMatrix, bound: int) -> bool:
    return any(_breaks_trace_bound(p, s) for _, p, s in m._scaled_powers(bound))


def test_trace_certificate_needs_a_root_of_unity_determinant():
    # M = diag(2, 2*zeta_6) breaks the trace bound at once, but M^6 = 64*I:
    # det M = 4*zeta_6 is no root of unity, so the certificate must not fire
    m = CycMatrix.diagonal([2, embed(RootOfUnity.of(1, 6), 6) * 2], 6)
    assert _breaks_trace_bound(m, Fraction(1))
    assert m.det().as_root_of_unity() is None
    assert m.projective_order(10) == 6


@pytest.mark.parametrize("n", [1, 3])
def test_trace_certificate_reads_an_odd_conductor_determinant_over_the_lift(
    n, monkeypatch
):
    # det = -1 is a root of unity but no power of zeta_n at odd n; the
    # Fibonacci matrix has infinite order and breaks the bound at its square
    m = CycMatrix.from_rows([[1, 1], [1, 0]], n)
    powers = 0
    exact_is_scalar = CycMatrix.is_scalar

    def counted(self):
        nonlocal powers
        powers += 1
        return exact_is_scalar(self)

    monkeypatch.setattr(CycMatrix, "is_scalar", counted)
    assert m.projective_order(200) is None
    assert powers <= 3


def test_trace_bound_scales_with_the_stripped_content():
    # M has order 3 (char poly t^2 + t + 1).  M^2 has denominator 3, so the
    # loop keeps P = 3*M^2, whose trace -3 passes only against 3^2 times the
    # bound; M^3 = I, so the factor comes off again
    m = CycMatrix.from_rows([[0, Fraction(-1, 3)], [3, -1]], 1)
    assert [s for _, _, s in m._scaled_powers(3)] == [1, 3, 1]
    assert not _certified(m, 3)
    assert m.projective_order(10) == 3


def test_unipotent_never_breaks_the_trace_bound():
    m = CycMatrix.from_rows([[1, 1], [0, 1]], 1)
    assert not _certified(m, 50)
    assert m.projective_order(50) is None


def test_block_elements_of_infinite_order_certified_within_four_powers():
    word = Word.gen(0) * Word.gen(1).inverse()
    for n in (7, 8, 9, 11):
        m = word.evaluate(list(build_d4_block(RootOfUnity.of(1, n), -1)))
        assert m.det().as_root_of_unity() is not None
        assert _certified(m, 4)


def _reduced_word_values(gens: list[CycMatrix], max_len: int):
    """(word, value) for every reduced word in A^+-1, B^+-1 of length <= max_len."""
    letters = [
        ((i, e), g if e == 1 else g.inv()) for i, g in enumerate(gens) for e in (1, -1)
    ]
    ident = CycMatrix.identity(gens[0].dim, gens[0].conductor)
    out = layer = [((), ident)]
    for _ in range(max_len):
        layer = [
            (w + (x,), m * g)
            for w, m in layer
            for x, g in letters
            if not w or w[-1] != (x[0], -x[1])
        ]
        out = out + layer
    return [(Word(w), m) for w, m in out]


FINITE_GROUPS = {
    "so7(14)": (lambda: build_so7(14), 168),
    "so9(22)": (lambda: build_so9(22), 660),
    "d3(1/7, 3/7)": (lambda: build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)), 168),
    "d4block(1/6, +1)": (lambda: build_d4_block(RootOfUnity.of(1, 6), 1), 72),
}


@pytest.mark.parametrize("name", sorted(FINITE_GROUPS))
def test_no_trace_certificate_on_finite_groups(name):
    build, order = FINITE_GROUPS[name]
    seen = set()
    for w, m in _reduced_word_values(list(build()), 4):
        if m in seen:  # e.g. ABA = BAB; equal matrices give equal answers
            continue
        seen.add(m)
        t = m.projective_order(order)
        assert t is not None and (m**t).is_scalar(), str(w)
        assert not _certified(m, t), str(w)


def test_matrix_hashable_with_exact_equality():
    a = CycMatrix.from_rows([[1, 0], [0, 1]], 1)
    b = CycMatrix.identity(2, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_to_json_round_trippable_text():
    m = CycMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]], 4)
    data = m.to_json()
    assert data["dim"] == 2 and data["conductor"] == 4
