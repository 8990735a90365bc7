"""Word algebra, projective relation checks, and the closure oracle."""

import json
import os
import subprocess
import sys
from itertools import combinations, count, product
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
import sympy

import b3image
from b3image import _fastclosure, grouporacle
from b3image.cyclolinalg import CycMatrix
from b3image.errors import ConductorMismatch, DimensionMismatch, SingularGenerator
from b3image.exactfield import RootOfUnity, cyclotomic_polynomial, embed
from b3image.grouporacle import (
    COMPLETED,
    EXCEEDED,
    Word,
    check_relation,
    element_projective_order,
    projective_closure,
)
from b3image.qgallery import build_so7, build_so9
from b3image.repforms import build_d3, build_d4_block

A = Word.gen(0)
B = Word.gen(1)


# -- words ------------------------------------------------------------------


def test_word_merges_adjacent_factors():
    assert (A * A * A).factors == ((0, 3),)
    assert (A * B * B).factors == ((0, 1), (1, 2))
    assert (A * A.inverse()).factors == ()


def test_word_pow_and_inverse():
    assert A**0 == Word(())
    assert A**3 == Word(((0, 3),))
    assert (A * B) ** -1 == B.inverse() * A.inverse()
    assert ((A * B) ** 2).factors == ((0, 1), (1, 1), (0, 1), (1, 1))


def test_word_pow_is_binary_powering(monkeypatch):
    ab = A * B
    calls = {"n": 0}
    exact_mul = Word.__mul__

    def counted(self, other):
        calls["n"] += 1
        return exact_mul(self, other)

    monkeypatch.setattr(Word, "__mul__", counted)
    got = ab**1000
    # 1000 = 0b1111101000: 9 squares and 5 other products (999 one at a time)
    assert calls["n"] == 14
    monkeypatch.undo()
    assert got.factors == ((0, 1), (1, 1)) * 1000
    assert (ab**-1000).factors == ((1, -1), (0, -1)) * 1000


def test_word_pow_matches_repeated_products_on_reduced_words():
    words = [A, A * B, A * B**-2 * A**3, B * A.inverse() * B * A**2, A**2 * B * A**-1 * B**-3]
    for w, k in product(words, range(1, 12)):
        want = w
        for _ in range(k - 1):
            want = want * w
        assert w**k == want


def test_word_str():
    assert str(Word(())) == "e"
    assert str(A * B.inverse() * A**4) == "A B^-1 A^4"


def test_word_guards():
    with pytest.raises(ValueError):
        Word(((0, 0),))
    with pytest.raises(ValueError):
        Word(((-1, 1),))


def test_word_evaluate():
    gens = list(build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)))
    assert Word(()).evaluate(gens) == CycMatrix.identity(3, gens[0].conductor)
    assert (A * B).evaluate(gens) == gens[0] * gens[1]
    assert (A**-2).evaluate(gens) == gens[0].inv() ** 2
    with pytest.raises(IndexError):
        Word.gen(2).evaluate(gens)
    with pytest.raises(ValueError):
        A.evaluate([])


def test_word_evaluate_inverts_each_generator_once(monkeypatch):
    gens = list(build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)))
    expected = (gens[0] * gens[1].inv()) ** 3
    inverted = []
    exact_inv = CycMatrix.inv

    def counting_inv(self):
        inverted.append(self)
        return exact_inv(self)

    monkeypatch.setattr(CycMatrix, "inv", counting_inv)
    assert ((A * B.inverse()) ** 3).evaluate(gens) == expected
    assert inverted == [gens[1]]


# -- relation checks ---------------------------------------------------------


def test_check_relation_braid():
    gens = list(build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)))
    assert check_relation(gens, A * B * A, B * A * B)
    assert not check_relation(gens, A * B, B * A)


def test_check_relation_is_projective():
    # (AB^-1)^4 is a scalar but not the identity matrix; projectively trivial
    gens = list(build_so7(14))
    word = (A * B.inverse()) ** 4
    value = word.evaluate(gens)
    assert value.is_scalar()
    assert value != CycMatrix.identity(4, gens[0].conductor)
    assert check_relation(gens, word, Word(()))


@pytest.mark.parametrize(
    "word, products",
    [
        (A**11, 5),
        ((A * B * A) ** 2, 5),
        ((A**4 * (A * B * A) * A**6 * (A * B * A)) ** 2, 20),
    ],
    ids=["S^11", "T^2", "(S^4 T S^6 T)^2"],
)
def test_relation_checks_take_no_product_with_the_identity(word, products, monkeypatch):
    # the PSL(2,11) relations on so9(22), S = A and T = ABA: each word starts
    # from its first factor, each power from its lowest set bit
    gens = list(build_so9(22))
    calls = {"n": 0}
    exact_mul = CycMatrix.__mul__

    def counted(self, other):
        calls["n"] += 1
        return exact_mul(self, other)

    monkeypatch.setattr(CycMatrix, "__mul__", counted)
    assert check_relation(gens, word, Word(()))
    assert calls["n"] == products
    assert Word(()).evaluate(gens) == CycMatrix.identity(5, gens[0].conductor)
    assert calls["n"] == products


def test_element_projective_order():
    gens = list(build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)))
    assert element_projective_order(gens, A) == 7
    assert element_projective_order(gens, A * B.inverse()) == 4
    assert element_projective_order(gens, Word(())) == 1
    assert element_projective_order(gens, A, bound=3) == EXCEEDED


# -- closures ------------------------------------------------------------------

S3_GENS = [
    CycMatrix.from_rows([[1, -1], [0, -1]], 1),
    CycMatrix.from_rows([[-1, 0], [-1, 1]], 1),
    CycMatrix.from_rows([[0, 1], [1, 0]], 1),
]


def test_identity_closure_is_trivial():
    result = projective_closure([CycMatrix.identity(3, 4)], 10)
    assert result.outcome == COMPLETED and result.order == 1


def test_scalar_generator_closure_is_trivial():
    z3 = CycMatrix.diagonal([RootOfUnity.of(1, 3)] * 2, 3)
    result = projective_closure([z3], 10)
    assert result.outcome == COMPLETED and result.order == 1


# "fast" drives the public entry point, which takes the fast engine on these
# generators; "exact" drives the exact engine it falls back to, the reference
CLOSURE_ENGINES = {"fast": projective_closure, "exact": grouporacle._exact_closure}


@pytest.mark.parametrize("engine", ["fast", "exact"])
def test_s3_closure(engine):
    result = CLOSURE_ENGINES[engine](S3_GENS, 100)
    assert result.outcome == COMPLETED and result.order == 6
    assert result.stats["engine"] == engine


@pytest.mark.parametrize("engine", ["fast", "exact"])
def test_d3_third_root_closure(engine):
    gens = list(build_d3(RootOfUnity.of(1, 3), RootOfUnity.of(2, 3)))
    result = CLOSURE_ENGINES[engine](gens, 1000)
    assert result.outcome == COMPLETED and result.order == 12
    assert result.stats["engine"] == engine


@pytest.mark.parametrize("engine", ["fast", "exact"])
@pytest.mark.parametrize(
    "gens, order",
    [
        (build_d3(RootOfUnity.of(1, 7), RootOfUnity.of(3, 7)), 168),
        (build_so7(14), 168),
        # A^-1 = A^10 here: the BFS reaches it only as a long positive word
        (build_so9(22), 660),
    ],
    ids=["d3(1/7,3/7)", "so7(14)", "so9(22)"],
)
def test_positive_words_close_the_group(engine, gens, order):
    result = CLOSURE_ENGINES[engine](list(gens), 1000)
    assert result.outcome == COMPLETED and result.order == order
    assert result.stats["engine"] == engine


def test_exceeded_bound():
    gens = list(build_d4_block(RootOfUnity.of(1, 7), -1))
    for engine, closure in CLOSURE_ENGINES.items():
        result = closure(gens, 50)
        assert result.outcome == EXCEEDED and result.order is None
        assert result.bound == 50
        assert result.stats["engine"] == engine


def test_closure_inverts_nothing_and_takes_one_det_per_generator(monkeypatch):
    # the sheared S3 trips the fast engine's overflow guard, so the exact
    # engine runs too
    shear = CycMatrix.from_rows([[1, 2**20], [0, 1]], 1)
    sheared = [shear * g * shear.inv() for g in S3_GENS]
    calls = {"inv": 0, "det": 0}
    exact_inv, exact_det = CycMatrix.inv, CycMatrix.det

    def counting(name, method):
        def counted(self):
            calls[name] += 1
            return method(self)

        return counted

    monkeypatch.setattr(CycMatrix, "inv", counting("inv", exact_inv))
    monkeypatch.setattr(CycMatrix, "det", counting("det", exact_det))
    for gens, engine in [(list(build_so7(14)), "fast"), (sheared, "exact")]:
        calls.update(inv=0, det=0)
        result = projective_closure(gens, 1000)
        assert result.outcome == COMPLETED and result.stats["engine"] == engine
        assert calls == {"inv": 0, "det": len(gens)}


def test_closure_multiplies_by_one_generator_per_projective_class():
    a, b = build_so7(14)
    zeta = embed(RootOfUnity.of(1, a.conductor), a.conductor)
    want = {"products": 336, "peak_frontier": 32, "engine": "fast"}
    assert projective_closure([a, b], 1000).stats == want
    assert projective_closure([a, b, a.scale(zeta), b], 1000).stats == want


def test_closure_result_json():
    data = projective_closure(S3_GENS, 100).to_json()
    assert set(data) == {"outcome", "order", "bound", "stats"}
    assert data["outcome"] == COMPLETED and data["order"] == 6


def test_generator_validation():
    with pytest.raises(DimensionMismatch):
        projective_closure([], 10)
    with pytest.raises(DimensionMismatch):
        projective_closure([CycMatrix.identity(2, 4), CycMatrix.identity(3, 4)], 10)
    with pytest.raises(ConductorMismatch):
        projective_closure([CycMatrix.identity(2, 4), CycMatrix.identity(2, 6)], 10)
    with pytest.raises(SingularGenerator):
        projective_closure([CycMatrix.from_rows([[1, 1], [1, 1]], 1)], 10)


def test_closure_guards():
    with pytest.raises(ValueError):
        projective_closure(S3_GENS, 0)


# -- fast engine internals -----------------------------------------------------


def test_fast_engine_rejects_non_root_determinant():
    stretch = CycMatrix.from_rows([[2, 0], [0, 1]], 4)
    with pytest.raises(_fastclosure.Unsuitable):
        _fastclosure.run([stretch], [stretch.det()], 10)
    # the exact engine takes over, and runs out of bound honestly on this
    # infinite cyclic image
    result = projective_closure([stretch], 10)
    assert result.outcome == EXCEEDED
    assert result.stats["engine"] == "exact"


def test_fast_engine_overflow_falls_back_to_exact():
    # conjugating by a large shear keeps the group S3 but pushes the guarded
    # products past 2^53; a shear of 2^14 gives entries near 2^28 and
    # products near 2^57, inside int64 but past the float64 carrier's bound
    for shift in (14, 20):
        shear = CycMatrix.from_rows([[1, 2**shift], [0, 1]], 1)
        gens = [shear * g * shear.inv() for g in S3_GENS]
        with pytest.raises(_fastclosure.Unsuitable, match="product would overflow"):
            _fastclosure.run(gens, [g.det() for g in gens], 100)
        result = projective_closure(gens, 100)
        assert result.outcome == COMPLETED and result.order == 6
        assert result.stats["engine"] == "exact"


def test_split_prime_splits_every_conductor_up_to_the_builder_cap():
    for n in range(2, 513, 2):
        coeffs = cyclotomic_polynomial(n)
        phi = len(coeffs) - 1
        p, omega = _fastclosure._split_prime(n, phi)
        assert sympy.isprime(p) and p % n == 1
        assert phi * (p - 1) ** 2 < 2**53
        # the largest such prime: every larger candidate under the bound is composite
        top = isqrt((2**53 - 1) // phi) + 1
        assert not any(sympy.isprime(q) for q in range(p + n, top + 1, n))
        assert len({pow(omega, k, p) for k in range(n)}) == n
        assert sum(c * pow(omega, i, p) for i, c in enumerate(coeffs)) % p == 0


def test_split_prime_refuses_a_bound_no_prime_fits():
    # phi * (p - 1)^2 < 2^53 leaves p <= 3, and p = 1 (mod 14) needs p > 14
    with pytest.raises(_fastclosure.Unsuitable, match="no prime"):
        _fastclosure._split_prime(14, 2**50)


def test_engines_share_the_powers_of_omega_of_a_conductor():
    a, b = _fastclosure._Engine(14, 3), _fastclosure._Engine(14, 4)
    assert a.omega is b.omega and not a.omega.flags.writeable
    p, omega = _fastclosure._split_prime(14, a.phi)
    assert a.omega.tolist() == [pow(omega, k, p) for k in range(14)]


def test_fast_canonical_form_refuses_a_batch_inside_the_kernel():
    # every entry of p * I lies in the prime ker h, so no pivot exists
    eng = _fastclosure._Engine(14, 4)
    batch = np.zeros((2, 4, 4, eng.phi))
    batch[:, range(4), range(4), 0] = 1
    batch[1] *= eng.p
    with pytest.raises(_fastclosure.Unsuitable, match="kernel"):
        eng.canonical_batch(batch)


def _smallest_split_prime(n, phi):
    """The smallest prime p = 1 (mod n) and a root of unity of order n mod p."""
    p = next(q for q in count(n + 1, n) if sympy.isprime(q))
    return p, next(w for w in range(2, p) if sympy.n_order(w, p) == n)


def _brute_orbit(mat, n):
    """The n tensors zeta^k * mat, k = 0 .. n-1, by repeated multiplication
    with the companion matrix of the n-th cyclotomic polynomial."""
    coeffs = cyclotomic_polynomial(n)
    phi = len(coeffs) - 1
    zeta = np.eye(phi, k=1, dtype=np.int64)
    zeta[-1] = [-c for c in coeffs[:-1]]
    orbit = [mat]
    for _ in range(n - 1):
        orbit.append(orbit[-1] @ zeta)
    return orbit


def _h(coords, p, omega):
    """h(v) = (sum of v_i * omega^i) mod p, in Python ints."""
    return sum(int(v) * pow(omega, i, p) for i, v in enumerate(coords)) % p


def _brute_canonical(mat, n, p, omega):
    """Least member of the scalar orbit of mat under h(pivot), where the
    pivot is the first entry whose h is nonzero."""

    def key(m):
        return next(v for v in (_h(e, p, omega) for e in m.reshape(-1, m.shape[-1])) if v)

    orbit = _brute_orbit(mat, n)
    keys = [key(m) for m in orbit]
    assert len(set(keys)) == n
    return orbit[keys.index(min(keys))]


def _tensors_and_products(gens):
    """Tensors of the generators, their inverses and all pairwise products."""
    mats = [h for g in gens for h in (g, g.inv())]
    mats += [x * y for x, y in product(mats, repeat=2)]
    phi = len(cyclotomic_polynomial(gens[0].conductor)) - 1
    return np.stack([_fastclosure._tensor(m, phi) for m in mats])


CANONICAL_CASES = pytest.mark.parametrize(
    "gens",
    [
        build_so7(14),
        build_d3(RootOfUnity.of(1, 9), RootOfUnity.of(4, 9)),
        build_so9(22),
    ],
    ids=["so7(14)", "d3(1/9,4/9)", "so9(22)"],
)


def _zeroed(n, dim, phi):
    """Integer tensors whose leading entries are zero, down to a single
    nonzero entry in the last place."""
    rng = np.random.default_rng(n)
    mats = rng.integers(-3, 4, size=(dim * dim, dim, dim, phi))
    for z, m in enumerate(mats):
        m.reshape(dim * dim, phi)[:z] = 0
        m[-1, -1, 0] = 1
    return mats


def _sheared_into_the_kernel(mats, p, omega):
    """E * m for each m whose (1, 0) entry has h != 0, with E = I + c * E_01
    and the integer c chosen so that the (0, 0) entry of E * m lies in ker h.
    det E = 1, so group elements stay of unit determinant."""
    out = []
    for m in mats:
        below = _h(m[1, 0], p, omega)
        if below:
            m = m.copy()
            m[0] += (-_h(m[0, 0], p, omega) * pow(below, -1, p) % p) * m[1]
            out.append(m)
    return np.stack(out)


def _check_canonical_forms(gens, mats):
    """Every member of each scalar orbit maps to the brute-force minimum."""
    n, dim = gens[0].conductor, gens[0].dim
    eng = _fastclosure._Engine(n, dim)
    p, omega = _fastclosure._split_prime(n, eng.phi)
    for mat in mats:
        orbit = _brute_orbit(mat, n)
        want = _brute_canonical(mat, n, p, omega)
        got = eng.canonical_batch(np.stack(orbit))
        for form in got:
            assert np.array_equal(form, want)


@CANONICAL_CASES
def test_fast_canonical_form_is_the_orbit_minimum(gens):
    n, dim = gens[0].conductor, gens[0].dim
    phi = len(cyclotomic_polynomial(n)) - 1
    mats = _tensors_and_products(gens)
    _check_canonical_forms(gens, np.concatenate([mats, _zeroed(n, dim, phi)]))


@CANONICAL_CASES
def test_fast_canonical_form_under_a_tiny_prime(gens, monkeypatch):
    # with p = 1 (mod n) as small as it goes; group elements of unit
    # determinant always have a pivot, and the shears move it past a first
    # nonzero entry that lies in ker h
    monkeypatch.setattr(_fastclosure, "_split_prime", _smallest_split_prime)
    n = gens[0].conductor
    mats = _tensors_and_products(gens)
    p, omega = _smallest_split_prime(n, mats.shape[-1])
    sheared = _sheared_into_the_kernel(mats, p, omega)
    assert any(m[0, 0].any() for m in sheared)
    _check_canonical_forms(gens, np.concatenate([mats, sheared]))


def test_fast_multiply_matches_exact_product():
    gens = build_so7(14)
    n, dim = gens[0].conductor, gens[0].dim
    eng = _fastclosure._Engine(n, dim)
    assert eng.phi > 1
    mats = [h for g in gens for h in (g, g.inv())]
    for x, y in product(mats, repeat=2):
        tables, table_maxes = eng.tables(_fastclosure._tensor(y, eng.phi)[None])
        got = eng.multiply(_fastclosure._tensor(x, eng.phi)[None], tables, max(table_maxes))
        # integers carried in float64
        assert got.dtype == np.float64
        assert np.array_equal(got[0, 0], _fastclosure._tensor(x * y, eng.phi))


def test_fast_multiply_stacks_generators_in_order():
    # a two-generator stack gives each generator's single products, generator-major
    gens = build_so9(22)
    n, dim = gens[0].conductor, gens[0].dim
    eng = _fastclosure._Engine(n, dim)
    mats = [h for g in gens for h in (g, g.inv())]
    batch = np.stack([_fastclosure._tensor(m, eng.phi) for m in mats])
    stack = np.stack([_fastclosure._tensor(g, eng.phi) for g in gens])
    tables, table_maxes = eng.tables(stack)
    got = eng.multiply(batch, tables, max(table_maxes))
    assert got.shape == (2,) + batch.shape
    for g in range(2):
        single, single_max = eng.tables(stack[g : g + 1])
        assert single_max[0] == table_maxes[g]
        assert np.array_equal(got[g], eng.multiply(batch, single, single_max[0])[0])
        for row, m in zip(got[g], mats):
            assert np.array_equal(row, _fastclosure._tensor(m * gens[g], eng.phi))


def _power_of_two_table():
    """An engine at conductor 4 (phi = 2, zeta = i) and the table of a 2x2
    generator whose coordinates are all 2^10, so every table entry is +-2^10
    and a product's guard value batch_max * 2^10 * d * phi is batch_max * 2^12."""
    eng = _fastclosure._Engine(4, 2)
    tables, table_maxes = eng.tables(np.full((1, 2, 2, eng.phi), 2.0**10))
    table_max = table_maxes[0]
    assert table_max == 2**10 and np.all(np.abs(tables) == 2**10)
    return eng, tables, table_max


def test_fast_multiply_is_exact_just_under_two_to_the_53():
    eng, tables, table_max = _power_of_two_table()
    table = tables[0]
    top = 2**41 - 1  # guard value 2^53 - 2^12
    rng = np.random.default_rng(53)
    batch = rng.integers(-top, top + 1, size=(64, 2, 2, eng.phi)).astype(np.float64)
    # rows signed like a table column reach the guard value in one dot product
    signs = np.sign(table.T[:2]).reshape(2, 2, eng.phi)
    batch[0], batch[1] = top * signs, -top * signs
    got = eng.multiply(batch, tables, table_max)[0]
    rows = batch.astype(np.int64).astype(object).reshape(-1, 4)
    want = rows @ table.astype(np.int64).astype(object)
    assert [int(v) for v in got.ravel()] == want.ravel().tolist()
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert got[0, 0, 0, 0] == top * 2**12 == 2**53 - 2**12


def test_fast_multiply_refuses_a_product_at_two_to_the_53():
    eng, tables, table_max = _power_of_two_table()
    batch = np.zeros((1, 2, 2, eng.phi))
    batch[0, 0, 0, 0] = 2**41  # guard value exactly 2^53
    with pytest.raises(_fastclosure.Unsuitable, match="product would overflow"):
        eng.multiply(batch, tables, table_max)


@CANONICAL_CASES
def test_fast_canonical_form_has_no_negative_zero(gens):
    eng = _fastclosure._Engine(gens[0].conductor, gens[0].dim)
    mats = _tensors_and_products(gens)
    # negating puts -0.0 into every zero coordinate of the input
    for batch in (mats, -mats):
        forms = eng.canonical_batch(batch)
        assert not np.signbit(forms[forms == 0]).any()


@pytest.mark.parametrize(
    "gens, bound, want, split_prime",
    [
        (build_so7(14), 1000, (COMPLETED, 168, 336, 32), None),
        (build_so9(22), 1000, (COMPLETED, 660, 1320, 139), None),
        (build_so7(16), 100, (EXCEEDED, None, 124, 32), None),
        (build_so9(20), 100, (EXCEEDED, None, 124, 32), None),
        (build_d4_block(RootOfUnity.of(1, 7), -1), 100, (EXCEEDED, None, 124, 32), None),
        # the smallest split prime makes many pivots vanish
        (build_so7(14), 1000, (COMPLETED, 168, 336, 32), _smallest_split_prime),
        (build_so9(22), 1000, (COMPLETED, 660, 1320, 139), _smallest_split_prime),
        (build_so9(20), 5000, (EXCEEDED, None, 6374, 1506), _smallest_split_prime),
        (
            build_d4_block(RootOfUnity.of(1, 7), -1),
            100,
            (EXCEEDED, None, 124, 32),
            _smallest_split_prime,
        ),
    ],
    ids=[
        "so7(14)",
        "so9(22)",
        "so7(16)@100",
        "so9(20)@100",
        "d4block(1/7,-1)@100",
        "so7(14),tiny-p",
        "so9(22),tiny-p",
        "so9(20)@5000,tiny-p",
        "d4block(1/7,-1)@100,tiny-p",
    ],
)
def test_fast_closure_does_not_depend_on_the_row_block(
    gens, bound, want, split_prime, monkeypatch
):
    # the bound is checked after each generator's whole batch, so a batch
    # that crosses it in an early block still runs and counts every block
    if split_prime is not None:
        monkeypatch.setattr(_fastclosure, "_split_prime", split_prime)
    for block in (_fastclosure._BLOCK, 7, 1):
        monkeypatch.setattr(_fastclosure, "_BLOCK", block)
        result = projective_closure(list(gens), bound)
        stats = result.stats
        got = (result.outcome, result.order, stats["products"], stats["peak_frontier"])
        assert got == want and stats["engine"] == "fast"


# (first bound, last bound, (outcome, order, products, peak_frontier,
# engine)) for every bound from 1 to 150, frozen from the engine that ran
# each BFS level generator by generator; so7(16) and d4block(1/7,-1) share it
FROZEN_COUNTS = [
    (1, 1, (EXCEEDED, None, 1, 1, "fast")),
    (2, 2, (EXCEEDED, None, 2, 1, "fast")),
    (3, 4, (EXCEEDED, None, 4, 2, "fast")),
    (5, 6, (EXCEEDED, None, 6, 2, "fast")),
    (7, 10, (EXCEEDED, None, 10, 4, "fast")),
    (11, 13, (EXCEEDED, None, 14, 4, "fast")),
    (14, 20, (EXCEEDED, None, 21, 7, "fast")),
    (21, 25, (EXCEEDED, None, 28, 7, "fast")),
    (26, 37, (EXCEEDED, None, 40, 12, "fast")),
    (38, 45, (EXCEEDED, None, 52, 12, "fast")),
    (46, 64, (EXCEEDED, None, 72, 20, "fast")),
    (65, 77, (EXCEEDED, None, 92, 20, "fast")),
    (78, 108, (EXCEEDED, None, 124, 32, "fast")),
    (109, 129, (EXCEEDED, None, 156, 32, "fast")),
    (130, 150, (EXCEEDED, None, 208, 52, "fast")),
]


@pytest.mark.parametrize(
    "gens",
    [build_so7(16), build_d4_block(RootOfUnity.of(1, 7), -1)],
    ids=["so7(16)", "d4block(1/7,-1)"],
)
def test_fast_closure_counts_across_the_level_grouping(gens):
    # a level runs grouped only while it cannot pass the bound; sweeping the
    # bound puts the switch at every level and every generator of it
    for first, last, want in FROZEN_COUNTS:
        for bound in range(first, last + 1):
            result = projective_closure(list(gens), bound)
            stats = result.stats
            got = (result.outcome, result.order, stats["products"], stats["peak_frontier"])
            assert got + (stats["engine"],) == want, bound


def _counting(calls, name, method):
    def counted(*args):
        calls[name] += 1
        return method(*args)

    return counted


def test_fast_closure_forms_one_canonical_batch_per_level(monkeypatch):
    # so7(14) closes in 11 BFS levels, the last finding nothing new; every
    # frontier fits one block, and no level can pass the bound
    calls = {"canonical_batch": 0, "multiply": 0}
    for name in calls:
        method = getattr(_fastclosure._Engine, name)
        monkeypatch.setattr(_fastclosure._Engine, name, _counting(calls, name, method))
    result = projective_closure(list(build_so7(14)), 1000)
    assert (result.outcome, result.order) == (COMPLETED, 168)
    assert calls == {"canonical_batch": 1 + 11, "multiply": 11}


@pytest.mark.parametrize("dtype", [dtype for _, dtype in _fastclosure._KEY_WIDTHS], ids=str)
def test_keys_are_equal_exactly_when_rows_are(dtype):
    top = int(np.iinfo(dtype).max) if dtype.kind == "i" else 2**53 - 1
    rng = np.random.default_rng(top % 1000)
    rows = rng.choice([-top, -1, 0, 1, top], size=(40, 2, 2, 1)).astype(np.float64)
    rows = np.concatenate([rows, rows[::4]])
    keys = _fastclosure._keys(rows, dtype)
    assert {len(key) for key in keys} == {4 * dtype.itemsize}
    for i, j in product(range(len(rows)), repeat=2):
        assert (keys[i] == keys[j]) == np.array_equal(rows[i], rows[j])


def test_rekeying_matches_keying_at_the_wider_type():
    rng = np.random.default_rng(31)
    for old, new in combinations(_fastclosure._KEY_WIDTHS, 2):
        limit, old_type = old
        rows = rng.integers(-(limit - 1), limit, size=(50, 3, 3, 2)).astype(np.float64)
        stored = set(_fastclosure._keys(rows, old_type))
        rekeyed = _fastclosure._rekey(stored, old_type, new[1])
        assert rekeyed == set(_fastclosure._keys(rows, new[1]))
        assert len(rekeyed) == len(stored)


def test_a_coordinate_past_int32_falls_back_to_float64_keys():
    cases = [(2**7 - 1, np.int8), (2**7, np.int16), (2**15, np.int32), (2**31 - 1, np.int32)]
    cases += [(2**31, np.float64), (2**53 - 1, np.float64)]
    for magnitude, dtype in cases:
        assert _fastclosure._key_width(magnitude)[1] == np.dtype(dtype)
    rows = np.zeros((2, 2, 2, 3))
    rows[0, 0, 0, 0], rows[1, 1, 1, 2] = 2**31, -(2**52)
    assert _fastclosure._keys(rows, np.dtype(np.float64)) == [row.tobytes() for row in rows]


@pytest.mark.parametrize(
    "widths, want",
    [
        (None, [(np.int8, np.int16), (np.int16, np.int32)]),
        # widths so narrow that the closure ends on float64 keys
        (
            ((2, np.int8), (4, np.int16), (8, np.int32), (2**53, np.float64)),
            [(np.int8, np.int16), (np.int16, np.float64)],
        ),
    ],
    ids=["int8-int16-int32", "to-float64"],
)
def test_so9_20_widens_its_keys_and_keeps_its_counts(widths, want, monkeypatch):
    if widths is not None:
        widths = tuple((limit, np.dtype(dtype)) for limit, dtype in widths)
        monkeypatch.setattr(_fastclosure, "_KEY_WIDTHS", widths)
    widened = []
    rekey = _fastclosure._rekey

    def logged(keys, old, new):
        widened.append((old, new))
        return rekey(keys, old, new)

    monkeypatch.setattr(_fastclosure, "_rekey", logged)
    result = projective_closure(list(build_so9(20)), 5000)
    stats = result.stats
    assert (result.outcome, stats["products"], stats["peak_frontier"]) == (EXCEEDED, 6374, 1506)
    assert stats["engine"] == "fast"
    assert widened == [(np.dtype(old), np.dtype(new)) for old, new in want]


def test_fast_closure_does_not_depend_on_blas_threads():
    script = (
        "import json\n"
        "from b3image.grouporacle import projective_closure\n"
        "from b3image.qgallery import build_so9\n"
        "print(json.dumps(projective_closure(list(build_so9(20)), 5000).to_json()))\n"
    )
    src = str(Path(b3image.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["outcome"] == EXCEEDED and outputs[0]["stats"]["engine"] == "fast"
