"""Word algebra, projective relation checks, and the closure oracle."""

from itertools import product

import numpy as np
import pytest

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
    # int64 products past their limit
    shear = CycMatrix.from_rows([[1, 2**20], [0, 1]], 1)
    gens = [shear * g * shear.inv() for g in S3_GENS]
    with pytest.raises(_fastclosure.Unsuitable, match="overflow"):
        _fastclosure.run(gens, [g.det() for g in gens], 100)
    result = projective_closure(gens, 100)
    assert result.outcome == COMPLETED and result.order == 6
    assert result.stats["engine"] == "exact"


def test_fast_engine_refuses_a_hash_that_could_overflow(monkeypatch):
    # with a modulus of 2^31, phi * (P - 1)^2 passes 2^62 once phi >= 2
    monkeypatch.setattr(_fastclosure, "_P", 1 << 31)
    gens = list(build_d3(RootOfUnity.of(1, 3), RootOfUnity.of(2, 3)))
    with pytest.raises(_fastclosure.Unsuitable, match="hash"):
        _fastclosure.run(gens, [g.det() for g in gens], 1000)
    result = projective_closure(gens, 1000)
    assert result.outcome == COMPLETED and result.order == 12
    assert result.stats["engine"] == "exact"


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


def _hash(coords):
    """h(v) = (sum of w_i * v_i) mod P with w_i = W**(i+1) mod P, in Python ints."""
    p, w = _fastclosure._P, _fastclosure._W
    return sum(pow(w, i + 1, p) * int(v) for i, v in enumerate(coords)) % p


def _brute_canonical(mat, n):
    """Least member of the scalar orbit of mat under the key (hash of the
    first nonzero entry, flattened coordinates)."""

    def key(m):
        entries = m.reshape(-1, m.shape[-1])
        lead = entries[entries.any(axis=1).argmax()]
        return _hash(lead), entries.ravel().tolist()

    return min(_brute_orbit(mat, n), key=key)


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


def _check_canonical_forms(gens):
    """Every member of each scalar orbit maps to the brute-force minimum."""
    n, dim = gens[0].conductor, gens[0].dim
    eng = _fastclosure._Engine(n, dim)
    mats = _tensors_and_products(gens)
    # integer tensors whose leading entries are zero, down to a single
    # nonzero entry in the last place
    rng = np.random.default_rng(n)
    zeroed = rng.integers(-3, 4, size=(dim * dim, dim, dim, eng.phi))
    for z, m in enumerate(zeroed):
        m.reshape(dim * dim, eng.phi)[:z] = 0
        m[-1, -1, 0] = 1
    for mat in np.concatenate([mats, zeroed]):
        orbit = _brute_orbit(mat, n)
        want = _brute_canonical(mat, n)
        got = eng.canonical_batch(np.stack(orbit))
        for form in got:
            assert np.array_equal(form, want)


@CANONICAL_CASES
def test_fast_canonical_form_is_the_orbit_minimum(gens):
    _check_canonical_forms(gens)


@CANONICAL_CASES
def test_fast_canonical_form_breaks_hash_ties_by_coordinates(gens, monkeypatch):
    # modulo 2 the hash takes two values, so most orbits tie on it and the
    # lexicographic narrowing decides
    monkeypatch.setattr(_fastclosure, "_P", 2)
    _check_canonical_forms(gens)


def test_fast_multiply_matches_exact_product():
    gens = build_so7(14)
    n, dim = gens[0].conductor, gens[0].dim
    eng = _fastclosure._Engine(n, dim)
    assert eng.phi > 1
    mats = [h for g in gens for h in (g, g.inv())]
    for x, y in product(mats, repeat=2):
        table, table_max = eng.table(_fastclosure._tensor(y, eng.phi))
        got = eng.multiply(_fastclosure._tensor(x, eng.phi)[None], table, table_max)
        assert np.array_equal(got[0], _fastclosure._tensor(x * y, eng.phi))
