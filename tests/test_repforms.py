"""Representation builders: the Tuba-Wenzl pair, braid relation sweeps,
spectra, the dim-4 block characteristic polynomial identity, and the
existence screen."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from b3image.cyclolinalg import CycMatrix
from b3image.errors import InvalidRange, InvalidSpec, MissingParam, NotCoprime
from b3image.exactfield import (
    MINUS_ONE,
    ONE,
    CycNumber,
    RootOfUnity,
    embed,
)
from b3image.repforms import (
    EXISTENCE_FAILS,
    REPEATED,
    UNKNOWN_CONDITIONS,
    VALID,
    EigenSpec,
    block_spec,
    build,
    build_d3,
    build_d4_block,
    galois_image,
    scale_spec,
    validate_spec,
)
from b3image.qgallery import build_so7, build_so9, qg_spec

ROOTS_UP_TO_12 = [
    RootOfUnity(Fraction(k, n))
    for n in range(1, 13)
    for k in range(n)
    if Fraction(k, n).denominator == n
]


def braid_holds(a: CycMatrix, b: CycMatrix) -> bool:
    return a * b * a == b * a * b


def poly_from_roots(roots, conductor: int) -> tuple[CycNumber, ...]:
    """Coefficients of prod (t - root), lowest degree first."""
    coeffs = (CycNumber.one(conductor),)
    for r in roots:
        z = embed(r, conductor)
        coeffs = tuple(hi - z * lo for lo, hi in zip(coeffs + (0,), (0,) + coeffs))
    return coeffs


def spectrum_matches(a: CycMatrix, roots) -> bool:
    return a.char_poly() == poly_from_roots(roots, a.conductor)


# -- EigenSpec basics -------------------------------------------------------------


def test_spec_guards():
    with pytest.raises(InvalidSpec):
        EigenSpec.from_exponents(["0/1"])
    with pytest.raises(InvalidSpec):
        EigenSpec(3, (ONE, MINUS_ONE))
    with pytest.raises(InvalidSpec):
        EigenSpec.from_exponents(["0/1", "1/3", "2/3"], d_sign=1)
    with pytest.raises(InvalidSpec):
        EigenSpec.from_exponents(["0/1", "1/4", "2/4", "3/4"], d_sign=2)
    with pytest.raises(InvalidSpec):
        EigenSpec.from_exponents(["0/1", "1/5", "2/5", "3/5", "4/5"], gamma="1/3")


def test_gamma_squared_sign_convention():
    # stored sign: gamma^2 = d_sign * canonical sqrt of det
    spec = EigenSpec.from_exponents(["0/1", "1/2", "1/5", "7/10"], d_sign=1)
    det = spec.determinant()
    assert spec.gamma_squared() == det.canonical_sqrt()
    flipped = EigenSpec.from_exponents(["0/1", "1/2", "1/5", "7/10"], d_sign=-1)
    assert flipped.gamma_squared() == -det.canonical_sqrt()
    assert spec.gamma_squared() ** 2 == det


def test_block_spec_realizes_block_form_gamma():
    # in the block normal form (1,-1,u,-u) the defining relation is
    # gamma^2 = -D*u, independent of which stored sign realizes it
    for u in (RootOfUnity.of(1, 5), RootOfUnity.of(1, 10), RootOfUnity.of(1, 3)):
        assert block_spec(u, 1).gamma_squared() == -u
        assert block_spec(u, -1).gamma_squared() == u


def test_gamma_squared_absent_without_sign():
    spec = EigenSpec.from_exponents(["0/1", "1/2", "1/10", "3/5"])
    assert spec.gamma_squared() is None


def test_conductor_includes_discrete_choice():
    # det has exponent 3/7 here, so gamma = 3/35 satisfies gamma^5 = det
    bare = EigenSpec.from_exponents(["0/1", "1/7", "2/7", "3/7", "4/7"])
    assert bare.conductor() == 14
    spec = EigenSpec.from_exponents(
        ["0/1", "1/7", "2/7", "3/7", "4/7"], gamma="3/35"
    )
    assert spec.conductor() == 70


# -- validation -------------------------------------------------------------------


def test_validate_d3_zeta6_existence_fails():
    report = validate_spec(EigenSpec.from_exponents(["0/1", "1/6", "1/3"]))
    assert report.status == EXISTENCE_FAILS
    assert report.witnesses


def test_validate_d3_zeta7_valid():
    spec = EigenSpec.from_exponents(["0/1", "1/7", "3/7"])
    assert validate_spec(spec).status == VALID


def test_validate_repeated():
    spec = qg_spec("SO9spin", 18)
    assert validate_spec(spec).status == REPEATED


def test_validate_d4_needs_sign():
    spec = EigenSpec.from_exponents(["0/1", "1/2", "1/10", "3/5"])
    with pytest.raises(MissingParam):
        validate_spec(spec)


def test_validate_dims_2_and_5_unknown():
    assert validate_spec(EigenSpec.from_exponents(["0/1", "1/7"])).status == (
        UNKNOWN_CONDITIONS
    )
    spec = EigenSpec.from_exponents(["0/1", "1/7", "2/7", "3/7", "4/7"])
    assert validate_spec(spec).status == UNKNOWN_CONDITIONS


def test_validate_d4_block_degenerate_sides():
    # {gamma^2, lam1*lam2, lam3*lam4} forms a full mu_3 coset exactly for
    # (order 3, +1) and (order 6, -1); those specs fail the existence screen
    assert validate_spec(block_spec(RootOfUnity.of(1, 3), 1)).status == EXISTENCE_FAILS
    assert validate_spec(block_spec(RootOfUnity.of(1, 6), -1)).status == EXISTENCE_FAILS
    assert validate_spec(block_spec(RootOfUnity.of(1, 3), -1)).status == VALID
    assert validate_spec(block_spec(RootOfUnity.of(1, 6), 1)).status == VALID


# -- the Tuba-Wenzl pair ---------------------------------------------------------


@st.composite
def build_specs(draw):
    """Specs of dims 2..5, repeats allowed, every discrete choice, conductor <= 60."""
    dim = draw(st.integers(2, 5))
    m = draw(st.integers(1, {2: 60, 3: 60, 4: 30, 5: 12}[dim]))
    eigs = tuple(RootOfUnity.of(draw(st.integers(0, m - 1)), m) for _ in range(dim))
    d_sign = draw(st.sampled_from((1, -1))) if dim == 4 else None
    gamma = None
    if dim == 5:
        det = EigenSpec(5, eigs).determinant()
        gamma = RootOfUnity((det.exponent + draw(st.integers(0, 4))) / 5)
    spec = EigenSpec(dim, eigs, d_sign=d_sign, gamma=gamma)
    assume(spec.conductor() <= 60)
    return spec


@given(build_specs())
@settings(max_examples=100, deadline=None)
def test_build_is_a_triangular_braid_pair(spec):
    a, b = build(spec)
    n = spec.conductor()
    assert a.conductor == b.conductor == n
    assert braid_holds(a, b)
    lam = [embed(r, n) for r in spec.eigenvalues]
    d = spec.dim
    for i in range(d):
        assert a.rows[i][i] == lam[i]
        assert b.rows[i][i] == lam[d - 1 - i]
        for j in range(i):
            assert a.rows[i][j].is_zero() and b.rows[j][i].is_zero()
    if d in (4, 5):
        with pytest.raises(MissingParam):
            build(EigenSpec(d, spec.eigenvalues))


# The explicit spin-representation matrices the so7/so9 builders wrote before
# `build` replaced them, with q = zeta_(2*ell); a term "-2q10" is -2*q^10.
SO7_LITERAL = (
    (
        ("+q0", "+q12 +q8 +q4", "-q6 -q2 -q-2", "-q10"),
        ("", "+q12", "-q6 -q2", "-q10"),
        ("", "", "-q6", "-q10"),
        ("", "", "", "-q10"),
    ),
    (
        ("-q10", "", "", ""),
        ("+q6", "-q6", "", ""),
        ("+q16", "-q16 -q12", "+q12", ""),
        ("-q12", "+q12 +q8 +q4", "-q8 -q4 -q0", "+q0"),
    ),
)
SO9_LITERAL = (
    (
        (
            "+q0",
            "+q8 -q6 +q4 -q2",
            "-q14 +q12 -2q10 +q8 -q6",
            "-q16 +q14 -q12 +q10",
            "+q16",
        ),
        ("", "+q8", "-q14 +q12 -q10", "-q16 +q14 -q12", "+q16"),
        ("", "", "-q14", "-q16 +q14", "+q16"),
        ("", "", "", "-q18", "+q18"),
        ("", "", "", "", "+q20"),
    ),
    (
        ("+q20", "", "", "", ""),
        ("+q18", "-q18", "", "", ""),
        ("+q16", "-q16 +q14", "-q14", "", ""),
        ("+q16", "-q16 +q14 -q12", "-q14 +q12 -q10", "+q8", ""),
        (
            "+q16",
            "-q16 +q14 -q12 +q10",
            "-q14 +q12 -2q10 +q8 -q6",
            "+q8 -q6 +q4 -q2",
            "+q0",
        ),
    ),
)


def q_matrix(rows, ell: int) -> CycMatrix:
    n = 2 * ell

    def entry(text: str) -> CycNumber:
        acc = CycNumber.zero(n)
        for sign, coeff, k in re.findall(r"([+-])(\d*)q(-?\d+)", text):
            acc = acc + int(sign + (coeff or "1")) * embed(RootOfUnity.of(int(k), n), n)
        return acc

    return CycMatrix.from_rows([[entry(t) for t in row] for row in rows], n)


@pytest.mark.parametrize(
    "family, ell, literal, e_powers",
    [
        ("SO7spin", 14, SO7_LITERAL, (0, 0, 0, 0)),
        ("SO9spin", 18, SO9_LITERAL, (4, 4, 4, 2, 0)),  # repeated eigenvalue
        ("SO9spin", 22, SO9_LITERAL, (4, 4, 4, 2, 0)),
    ],
)
def test_build_matches_the_literal_spin_matrices(family, ell, literal, e_powers):
    """build lives over Q(zeta_ell); lifted to 2*ell it is E * literal * E^-1,
    E = diag(q^k for k in e_powers)."""
    n = 2 * ell
    e = CycMatrix.diagonal([RootOfUnity.of(k, n) for k in e_powers], n)
    built = build(qg_spec(family, ell))
    assert all(m.conductor == ell for m in built)
    lifted = [
        CycMatrix.from_rows([[v.lift(n) for v in row] for row in m.rows], n)
        for m in built
    ]
    assert lifted == [e * q_matrix(m, ell) * e.inv() for m in literal]


# -- d3 builder -------------------------------------------------------------------


def d3_parameter_sweep():
    for theta in ROOTS_UP_TO_12:
        for phi in ROOTS_UP_TO_12:
            spec = EigenSpec(3, (ONE, theta, phi))
            if validate_spec(spec).status == VALID:
                yield theta, phi


def test_d3_braid_and_spectrum_sweep():
    checked = 0
    for theta, phi in d3_parameter_sweep():
        a, b = build_d3(theta, phi)
        assert braid_holds(a, b)
        assert spectrum_matches(a, [ONE, theta, phi])
        assert spectrum_matches(b, [ONE, theta, phi])
        checked += 1
    assert checked > 100


def test_d3_shape():
    theta, phi = RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)
    a, b = build_d3(theta, phi)
    zero = CycNumber.zero(a.conductor)
    assert a.rows[1][0] == zero and a.rows[2][0] == zero and a.rows[2][1] == zero
    assert b.rows[0][1] == zero and b.rows[0][2] == zero and b.rows[1][2] == zero
    assert [a.rows[i][i] for i in range(3)] == [
        embed(r, a.conductor) for r in (ONE, theta, phi)
    ]
    assert [b.rows[i][i] for i in range(3)] == [
        embed(r, a.conductor) for r in (phi, theta, ONE)
    ]


def test_d3_rejects_invalid_spec():
    with pytest.raises(InvalidSpec):
        build_d3(RootOfUnity.of(1, 6), RootOfUnity.of(1, 3))


def test_d3_finite_po7_case_has_scalar_fourth_power():
    a, b = build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7))
    assert ((a * b.inv()) ** 4).is_scalar()


def test_d3_infinite_po7_case_exceeds():
    a, b = build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(2, 7))
    assert (a * b.inv()).projective_order(24) is None


# -- d4 block builder ---------------------------------------------------------------


def block_u_sweep():
    return [r for r in ROOTS_UP_TO_12 if r.order not in (1, 2, 4)]


def test_d4_block_braid_and_spectrum_sweep():
    for u in block_u_sweep():
        for sign in (1, -1):
            a, b = build_d4_block(u, sign)
            assert braid_holds(a, b)
            expected = [ONE, MINUS_ONE, u, -u]
            assert spectrum_matches(a, expected)
            assert spectrum_matches(b, expected)


def test_d4_block_rejects_fourth_roots():
    for k, n in ((0, 1), (1, 2), (1, 4), (3, 4)):
        with pytest.raises(InvalidSpec):
            build_d4_block(RootOfUnity.of(k, n), 1)


def p1_over_u_squared(u: RootOfUnity, conductor: int) -> tuple[CycNumber, ...]:
    """The quartic coefficient-formula oracle, divided through by u^2."""
    zu = embed(u, conductor)
    u2 = zu * zu
    u3 = u2 * zu
    u4 = u2 * u2
    one = CycNumber.one(conductor)
    coeffs = (
        u2,
        zu + u2 + u3,
        one + 2 * zu + 2 * u2 + 2 * u3 + u4,
        zu + u2 + u3,
        u2,
    )
    inv = u2.inv()
    return tuple(c * inv for c in coeffs)


def test_char_poly_identity_for_block_builder():
    """char_poly(A*B^-1) = p1(u,t)/u^2 for D=-1 and p1(-u,t)/u^2 for D=+1."""
    for u in block_u_sweep():
        a, b = build_d4_block(u, -1)
        m = a * b.inv()
        assert m.char_poly() == p1_over_u_squared(u, m.conductor)
        a, b = build_d4_block(u, 1)
        m = a * b.inv()
        assert m.char_poly() == p1_over_u_squared(-u, m.conductor)


def test_d4_block_order5_power_blocks():
    u = RootOfUnity.of(1, 5)
    a, b = build_d4_block(u, -1)
    n = a.conductor
    m = CycMatrix.from_rows([[1, -1], [0, -1]], n)
    nn = CycMatrix.from_rows([[-1, 0], [-1, 1]], n)
    t = CycMatrix.from_rows([[0, 1], [1, 0]], n)

    def direct_sum(x):
        zero = CycNumber.zero(n)
        rows = [[zero] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = x.rows[i][j]
                rows[i + 2][j + 2] = x.rows[i][j]
        return CycMatrix(4, n, tuple(tuple(r) for r in rows))

    assert a**5 == direct_sum(m)
    assert b**5 == direct_sum(nn)
    assert a * b**5 * a.inv() == direct_sum(t)
    assert b * a**5 * b.inv() == direct_sum(t)


def test_d4_order6_element_orders():
    a, b = build_d4_block(RootOfUnity.of(1, 6), 1)
    assert a.projective_order(12) == 6
    assert (a * b.inv()).projective_order(12) == 6


# -- quantum group builders -----------------------------------------------------------


def test_so7_braid_sweep_and_spectrum():
    for ell in range(14, 26, 2):
        a, b = build_so7(ell)
        assert braid_holds(a, b)
        assert spectrum_matches(a, list(qg_spec("SO7spin", ell).eigenvalues))


def test_so9_braid_sweep_and_spectrum():
    for ell in range(18, 26, 2):
        a, b = build_so9(ell)
        assert braid_holds(a, b)
        assert spectrum_matches(a, list(qg_spec("SO9spin", ell).eigenvalues))


def test_so7_range_and_sign_guards():
    with pytest.raises(InvalidRange):
        build_so7(12)
    with pytest.raises(InvalidRange):
        build_so7(15)


def test_so9_range_guard():
    with pytest.raises(InvalidRange):
        build_so9(16)
    with pytest.raises(InvalidRange):
        build_so9(19)


def test_builders_cap_the_conductor():
    # conductor lcm(2, 257, 3) = 1542, and so9 lives over conductor ell = 514:
    # both over the cap of 512
    with pytest.raises(InvalidRange, match="conductor"):
        build_d3(RootOfUnity.of(1, 257), RootOfUnity.of(1, 3))
    with pytest.raises(InvalidRange, match="conductor"):
        build_so9(514)


def test_so7_14_scalar_powers():
    a, b = build_so7(14)
    assert (a**7).is_scalar()
    assert (b**7).is_scalar()
    assert ((a * b.inv()) ** 4).is_scalar()


# -- Galois and scaling transport -------------------------------------------------------


def test_galois_image_permutes_spec():
    # conductor is even (14 here), so the exponent must be odd and coprime
    spec = EigenSpec.from_exponents(["0/1", "1/7", "3/7"])
    image = galois_image(spec, 3)
    assert {r.exponent for r in image.eigenvalues} == {
        Fraction(0),
        Fraction(3, 7),
        Fraction(2, 7),
    }
    with pytest.raises(NotCoprime):
        galois_image(spec, 7)


def test_galois_transports_d4_sign_consistently():
    # the transported sign must reproduce the conjugated gamma^2
    for u in (RootOfUnity.of(1, 5), RootOfUnity.of(1, 10), RootOfUnity.of(1, 8)):
        for sign in (1, -1):
            spec = block_spec(u, sign)
            n = spec.conductor()
            for a in range(1, n):
                if Fraction(a, n).denominator != n:
                    continue
                image = galois_image(spec, a)
                assert image.gamma_squared() == spec.gamma_squared() ** a


def test_scale_spec_transports_discrete_choice():
    spec = block_spec(RootOfUnity.of(1, 5), -1)
    chi = RootOfUnity.of(1, 3)
    scaled = scale_spec(spec, chi)
    assert scaled.gamma_squared() == spec.gamma_squared() * chi**2
    five = EigenSpec.from_exponents(
        ["0/1", "1/7", "2/7", "3/7", "4/7"], gamma="3/35"
    )
    scaled5 = scale_spec(five, chi)
    assert scaled5.gamma == five.gamma * chi


def test_spec_json_round_trip():
    spec = block_spec(RootOfUnity.of(1, 10), -1)
    data = spec.to_json()
    rebuilt = EigenSpec.from_exponents(
        data["eigenvalues"], d_sign=data["d_sign"], gamma=data["gamma"]
    )
    assert rebuilt == spec
