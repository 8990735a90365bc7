"""The decision cascade: pattern detection, the block-case table, the
dimension-3 order-7 parity rule, and every classification route."""

import hashlib
import itertools
import json
import sys
from fractions import Fraction

import pytest

from b3image import verdict as verdict_module
from b3image.errors import InvalidOrder, InvalidSpec, NotPO7
from b3image.exactfield import MINUS_ONE, ONE, RootOfUnity
from b3image.repforms import EigenSpec, block_spec, validate_spec
from b3image.verdict import (
    C3_COSET_PLUS_ALPHA,
    EVEN,
    FINITE,
    FULL_COSET,
    INFINITE,
    NOT_IRREDUCIBLE,
    ODD,
    PLUS_MINUS_PAIRS,
    PLUS_MINUS_PLUS_ALPHA,
    UNDECIDABLE,
    all_patterns,
    classify,
    classify_block_case,
    d3_po7_parity,
    match_imprimitive_pattern,
    projective_order_of_spec,
)


def spec_of(*exponents, d_sign=None, gamma=None):
    return EigenSpec.from_exponents(list(exponents), d_sign=d_sign, gamma=gamma)


# -- projective order -----------------------------------------------------------


def test_projective_order_of_spec():
    assert projective_order_of_spec(spec_of("0/1", "1/7", "5/7")) == 7
    assert projective_order_of_spec(spec_of("1/3", "1/3", "1/3")) == 1
    # scaling invariance: ratios are what count
    assert projective_order_of_spec(spec_of("1/5", "1/5", "7/10")) == 2


# -- pattern detection ------------------------------------------------------------


def test_full_coset_detected_up_to_scale():
    plain = spec_of("0/1", "1/4", "1/2", "3/4")
    scaled = spec_of("1/3", "7/12", "5/6", "1/12")
    for spec in (plain, scaled):
        pattern = match_imprimitive_pattern(spec)
        assert pattern is not None and pattern.variant == FULL_COSET
        assert pattern.coset_order == 4


def test_plus_minus_plus_alpha():
    pattern = match_imprimitive_pattern(spec_of("0/1", "1/2", "1/7"))
    assert pattern is not None and pattern.variant == PLUS_MINUS_PLUS_ALPHA
    assert pattern.alpha == RootOfUnity.of(1, 7)
    assert match_imprimitive_pattern(spec_of("0/1", "1/7", "3/7")) is None


def test_c3_coset_plus_alpha():
    spec = spec_of("0/1", "1/3", "2/3", "1/7")
    pattern = match_imprimitive_pattern(spec)
    assert pattern is not None and pattern.variant == C3_COSET_PLUS_ALPHA
    assert pattern.alpha == RootOfUnity.of(1, 7)


def test_plus_minus_pairs_canonical_ratio():
    # {1, -1, z10, -z10}: candidates are +-u and +-1/u; the minimum by
    # (order, exponent) is exponent 2/5 of order 5
    pattern = match_imprimitive_pattern(spec_of("0/1", "1/2", "1/10", "3/5"))
    assert pattern is not None and pattern.variant == PLUS_MINUS_PAIRS
    assert pattern.u == RootOfUnity.of(2, 5)
    assert pattern.u.order == 5


def test_plus_minus_pairs_requires_two_pairs():
    assert match_imprimitive_pattern(spec_of("0/1", "1/2", "1/8", "1/4")) is None


def test_pattern_precedence_full_coset_first():
    # {1, i, -1, -i} is simultaneously a full coset and two +- pairs
    variants = [p.variant for p in all_patterns(spec_of("0/1", "1/4", "1/2", "3/4"))]
    assert variants[0] == FULL_COSET
    assert PLUS_MINUS_PAIRS in variants


def _calls_to(func, call, *args):
    """call(*args), and how often it entered func's code, however func is bound."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is func.__code__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def test_classify_makes_no_full_coset_test_past_po_5():
    full_coset = verdict_module._full_coset
    assert _calls_to(full_coset, all_patterns, spec_of("0/1", "1/3", "2/3"))[1] == 1
    past_po_5 = 0
    for dim, d_sign in ((2, None), (3, None), (4, 1), (4, -1), (5, None)):
        for combo in itertools.combinations(range(1, 12), dim - 1):
            spec = spec_of(0, *(Fraction(k, 12) for k in combo), d_sign=d_sign)
            verdict, calls = _calls_to(full_coset, classify, spec)
            if verdict.po is not None and verdict.po >= 6:
                past_po_5 += 1
                assert calls == 0, spec
    assert past_po_5 > 100


def test_pattern_detection_order_independent():
    base = ["0/1", "1/2", "1/10", "3/5"]
    expected = match_imprimitive_pattern(spec_of(*base))
    for perm in itertools.permutations(base):
        assert match_imprimitive_pattern(spec_of(*perm)) == expected


# -- block case table --------------------------------------------------------------


def test_block_case_rejects_fourth_roots():
    for k, n in ((0, 1), (1, 2), (1, 4)):
        with pytest.raises(InvalidOrder):
            classify_block_case(RootOfUnity.of(k, n))


def test_block_case_finite_orders_3_6():
    for k, n in ((1, 3), (2, 3), (1, 6), (5, 6)):
        verdict = classify_block_case(RootOfUnity.of(k, n), 1)
        assert verdict.kind == FINITE
        assert verdict.rule == "2.1(c)(ii)/4.2(d)"


def test_block_case_infinite_other_orders():
    for k, n in ((1, 7), (1, 8), (1, 9), (1, 11), (1, 12), (1, 100)):
        verdict = classify_block_case(RootOfUnity.of(k, n))
        assert verdict.kind == INFINITE
        assert verdict.rule == "2.1(c)(ii)"


def test_block_case_sign_dependent_orders_5_10():
    assert classify_block_case(RootOfUnity.of(1, 5)).kind == UNDECIDABLE
    assert classify_block_case(RootOfUnity.of(1, 10)).kind == UNDECIDABLE
    finite = [(RootOfUnity.of(1, 5), -1), (RootOfUnity.of(1, 10), 1)]
    infinite = [(RootOfUnity.of(1, 5), 1), (RootOfUnity.of(1, 10), -1)]
    for u, sign in finite:
        verdict = classify_block_case(u, sign)
        assert verdict.kind == FINITE and verdict.rule == "2.1(c)(ii)/4.2(e)"
    for u, sign in infinite:
        verdict = classify_block_case(u, sign)
        assert verdict.kind == INFINITE and verdict.rule == "2.1(c)(ii)/4.2(c)"


@pytest.mark.parametrize("d_sign", [2, 0, -2, "+", "-", True, False, 1.0, -1.0, Fraction(1)])
def test_block_case_refuses_a_d_outside_plus_minus_one(d_sign):
    # D = +-1 is the pair parameter of the normal form; any other value is
    # an input error, whatever the order of u
    for k, n in ((1, 5), (1, 3), (1, 7), (1, 4)):
        with pytest.raises(InvalidSpec, match=f"d_sign must be \\+1 or -1, got {d_sign}"):
            classify_block_case(RootOfUnity.of(k, n), d_sign)


# -- parity of dimension-3 order-7 spectra --------------------------------------------


def test_parity_frozen_examples():
    assert d3_po7_parity(spec_of("0/1", "1/7", "3/7")) == ODD
    assert d3_po7_parity(spec_of("0/1", "1/7", "5/7")) == ODD
    assert d3_po7_parity(spec_of("0/1", "1/7", "2/7")) == EVEN
    assert d3_po7_parity(spec_of("0/1", "1/7", "4/7")) == EVEN


def test_parity_guards():
    with pytest.raises(NotPO7):
        d3_po7_parity(spec_of("0/1", "1/3", "2/3"))
    with pytest.raises(NotPO7):
        d3_po7_parity(spec_of("0/1", "1/7", "1/2", "2/7"))


def test_parity_is_affine_invariant_and_counts_are_frozen():
    # parity classes are the two AGL(1,7) orbits on 3-subsets: 14 odd, 21 even
    odd = even = 0
    for triple in itertools.combinations(range(7), 3):
        spec = spec_of(*[f"{k}/7" for k in triple])
        parity = d3_po7_parity(spec)
        if parity == ODD:
            odd += 1
        else:
            even += 1
        for a in range(1, 7):
            for b in range(7):
                moved = sorted((a * t + b) % 7 for t in triple)
                moved_spec = spec_of(*[f"{k}/7" for k in moved])
                assert d3_po7_parity(moved_spec) == parity
    assert odd == 14 and even == 21


def test_parity_scaling_invariant():
    chi = RootOfUnity.of(1, 3)
    base = spec_of("0/1", "1/7", "3/7")
    scaled = EigenSpec(3, tuple(chi * r for r in base.eigenvalues))
    assert d3_po7_parity(scaled) == d3_po7_parity(base) == ODD



def test_repeated_spectra_give_no_degenerate_pair_and_even_parity():
    # rule 2.1(a) settles these before any pattern or parity test; read
    # directly, {1, 1, -1} would be the +- coset {1, -1} with alpha = 1,
    # {1, 1, w, w^2} the C3 coset with alpha = 1, and {a, a, -a, -a} holds
    # one +- coset, not two; and a repeated triple's ratios are not all seven
    # 7th roots of unity
    repeated = [("0/1", "0/1", "1/2"), ("0/1", "0/1", "1/3", "2/3"), ("0/1", "0/1", "1/2", "1/2")]
    for exponents in repeated:
        spec = spec_of(*exponents)
        assert all_patterns(spec) == () and match_imprimitive_pattern(spec) is None
    assert d3_po7_parity(spec_of("0/1", "0/1", "1/7")) == EVEN

# -- the cascade -----------------------------------------------------------------------


def test_rule_a_non_root_flag():
    verdict = classify(spec_of("0/1", "1/7", "3/7"), non_root_flag=True)
    assert verdict.kind == INFINITE and verdict.rule == "2.1(a)"


def test_rule_a_repeated_eigenvalues():
    verdict = classify(spec_of("0/1", "0/1", "1/7"))
    assert verdict.kind == INFINITE and verdict.rule == "2.1(a)"


def test_rule_2_2_not_irreducible():
    verdict = classify(spec_of("0/1", "1/6", "1/3"))
    assert verdict.kind == NOT_IRREDUCIBLE and verdict.rule == "2.2"
    assert verdict.trace


def test_rule_2_2_degenerate_block_side():
    verdict = classify(block_spec(RootOfUnity.of(1, 3), 1))
    assert verdict.kind == NOT_IRREDUCIBLE and verdict.rule == "2.2"
    assert classify(block_spec(RootOfUnity.of(1, 6), -1)).kind == NOT_IRREDUCIBLE


def test_rule_b_small_po():
    for exps in (
        ("0/1", "1/5"),
        ("0/1", "1/3", "2/3"),
        ("0/1", "1/4", "1/2", "3/4"),
        ("0/1", "1/5", "2/5", "3/5", "4/5"),
    ):
        verdict = classify(spec_of(*exps))
        assert verdict.kind == FINITE and verdict.rule == "2.1(b)"
        assert verdict.po <= 5


def test_rule_c_i_plus_minus_plus_alpha():
    verdict = classify(spec_of("0/1", "1/2", "1/7"))
    assert verdict.kind == FINITE and verdict.rule == "2.1(c)(i)"
    assert verdict.pattern.variant == PLUS_MINUS_PLUS_ALPHA


def test_rule_c_i_c3_coset():
    verdict = classify(spec_of("0/1", "1/3", "2/3", "1/7", d_sign=1))
    assert verdict.kind == FINITE and verdict.rule == "2.1(c)(i)"
    assert verdict.pattern.variant == C3_COSET_PLUS_ALPHA


def test_rule_c_ii_block_routes_through_table():
    finite = classify(spec_of("0/1", "1/2", "1/10", "3/5", d_sign=-1))
    assert finite.kind == FINITE and finite.rule == "2.1(c)(ii)/4.2(e)"
    assert finite.o_u == 5 and finite.d_sign == -1

    infinite = classify(spec_of("0/1", "1/2", "1/10", "3/5", d_sign=1))
    assert infinite.kind == INFINITE and infinite.rule == "2.1(c)(ii)/4.2(c)"

    unsigned = classify(spec_of("0/1", "1/2", "1/10", "3/5"))
    assert unsigned.kind == UNDECIDABLE and unsigned.rule == "2.1(c)(ii)"

    seven = classify(spec_of("0/1", "1/2", "1/7", "9/14", d_sign=1))
    assert seven.kind == INFINITE and seven.rule == "2.1(c)(ii)"
    assert seven.o_u == 7


def test_rule_d_i_dimension_2():
    verdict = classify(spec_of("0/1", "1/6"))
    assert verdict.kind == INFINITE and verdict.rule == "2.1(d)(i)"


def test_rule_d_ii_dimension_3():
    assert classify(spec_of("0/1", "1/9", "4/9")).kind == INFINITE
    odd = classify(spec_of("0/1", "1/7", "5/7"))
    assert odd.kind == FINITE and odd.rule == "2.1(d)(ii)-odd"
    assert odd.parity == ODD
    even = classify(spec_of("0/1", "1/7", "2/7"))
    assert even.kind == INFINITE and even.rule == "2.1(d)(ii)"
    assert even.parity == EVEN


def test_d3_po6_is_never_reached():
    # every dimension-3 spectrum of projective order 6 fails the existence
    # screen or is imprimitive, so the cascade settles it before rule (d)
    sixth = [Fraction(k, n) for n in (2, 3, 6) for k in range(1, n) if
             Fraction(k, n).denominator == n]
    outcomes = {"2.2": 0, "2.1(c)(i)": 0}
    for pair in itertools.combinations(sixth, 2):
        spec = EigenSpec(3, (ONE,) + tuple(RootOfUnity(e) for e in pair))
        if projective_order_of_spec(spec) != 6:
            continue
        verdict = classify(spec)
        assert verdict.kind in (NOT_IRREDUCIBLE, FINITE)
        outcomes[verdict.rule] += 1
    assert outcomes == {"2.2": 3, "2.1(c)(i)": 6}


def test_rule_d_iii_dimension_4():
    gap = classify(spec_of("0/1", "3/7", "5/7", "6/7", d_sign=1))
    assert gap.kind == UNDECIDABLE and gap.rule == "2.1(d)(iii)-gap"
    assert gap.po == 7
    off_gap = classify(spec_of("0/1", "1/11", "2/11", "3/11", d_sign=1))
    assert off_gap.kind == INFINITE and off_gap.rule == "2.1(d)(iii)"


def test_rule_d_iv_dimension_5():
    for exps, expected_kind, expected_rule in (
        (("0/1", "1/7", "2/7", "3/7", "4/7"), INFINITE, "2.1(d)(iv)"),
        (("0/1", "1/8", "3/8", "5/8", "7/8"), INFINITE, "2.1(d)(iv)"),
        (("0/1", "1/13", "2/13", "3/13", "4/13"), INFINITE, "2.1(d)(iv)"),
        (("0/1", "1/9", "2/9", "4/9", "8/9"), UNDECIDABLE, "2.1(d)(iv)-gap"),
        (("0/1", "1/11", "3/11", "4/11", "5/11"), UNDECIDABLE, "2.1(d)(iv)-gap"),
        (("0/1", "1/12", "1/6", "5/12", "2/3"), UNDECIDABLE, "2.1(d)(iv)-gap"),
    ):
        verdict = classify(spec_of(*exps))
        assert (verdict.kind, verdict.rule) == (expected_kind, expected_rule)


def test_classify_is_eigenvalue_order_independent():
    base = ("0/1", "1/2", "1/10", "3/5")
    expected = classify(spec_of(*base, d_sign=-1))
    for perm in itertools.permutations(base):
        assert classify(spec_of(*perm, d_sign=-1)) == expected


# -- every witness the cascade reports ---------------------------------------------------

# sha256 prefixes of the JSON of every verdict and every pattern match over a
# sweep (every normalized spectrum of the dimension whose orders divide the
# sweep's order), and of the parity over d3/21; any change to a kind, rule,
# po, trace or witness (chi, alpha, u, pair_reps, coset_order) changes them.
# `choice` is the dim-4 D, or "gamma" for each of the five fifth roots of det.
# The d4 sweeps reach every projective order of the dim-4 gap set and 14
# past it, and the d5 sweeps every order of the dim-5 gap set and 7 and 14
# past it; d3/21 reaches the order-7 parity test.
_WITNESS_DIGESTS = [
    ("d2/60", 2, 60, None, "107860540fe0c4df"),
    ("d3/30", 3, 30, None, "d2f48d3a2896fd2b"),
    ("d3/21", 3, 21, None, "80d4144ba87c92bf"),
    ("d4/24", 4, 24, None, "649c49c09c9e4645"),
    ("d4/24 D=+1", 4, 24, 1, "15284d254acf5a53"),
    ("d4/24 D=-1", 4, 24, -1, "1624b26b03c2afaf"),
    ("d4/9", 4, 9, None, "a2543e700cdc91cd"),
    ("d4/14", 4, 14, None, "3e20e2ffa3105734"),
    ("d4/15", 4, 15, None, "86ea5966e002302d"),
    ("d4/20", 4, 20, None, "dfdead8b3cf1c17f"),
    ("d5/10", 5, 10, None, "4a8c6b9fb734da20"),
    ("d5/10 each gamma", 5, 10, "gamma", "88d55a20af7985e9"),
    ("d5/9", 5, 9, None, "e08cdc11dededd9f"),
    ("d5/11", 5, 11, None, "5151413ec0df48a6"),
    ("d5/12", 5, 12, None, "cd91a02e6bbd2491"),
    ("d5/14", 5, 14, None, "0e488e57d39a1db3"),
]
_PARITY_DIGEST = "e91209b1584b75d5"


def _normalized_specs(dim, max_order, d_sign=None):
    pool = [Fraction(k, max_order) for k in range(1, max_order)]
    for combo in itertools.combinations(pool, dim - 1):
        yield EigenSpec.from_exponents((Fraction(0),) + combo, d_sign=d_sign)


def _sweep_specs(dim, max_order, choice):
    if choice != "gamma":
        yield from _normalized_specs(dim, max_order, choice)
        return
    for spec in _normalized_specs(dim, max_order):
        det = spec.determinant().exponent
        for j in range(5):
            yield EigenSpec(dim, spec.eigenvalues, gamma=RootOfUnity((det + j) / 5))


def _digest(records):
    text = "\n".join(json.dumps(r, sort_keys=True, ensure_ascii=False) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "sweep, dim, max_order, choice, digest",
    _WITNESS_DIGESTS,
    ids=[row[0] for row in _WITNESS_DIGESTS],
)
def test_every_witness_of_the_sweep_is_pinned(sweep, dim, max_order, choice, digest):
    records = [
        [classify(spec).to_json(), [p.to_json() for p in all_patterns(spec)]]
        for spec in _sweep_specs(dim, max_order, choice)
    ]
    assert _digest(records) == digest, sweep


@pytest.mark.parametrize(
    "dim, choice",
    [(3, None), (4, None), (4, 1), (4, -1), (5, None), (5, "gamma")],
    ids=["d3/12", "d4/12", "d4/12 D=+1", "d4/12 D=-1", "d5/12", "d5/12 each gamma"],
)
def test_classify_reads_the_one_screen(dim, choice):
    for spec in _sweep_specs(dim, 12, choice):
        assert classify(spec).trace[0] == ("validation", validate_spec(spec).status), spec


def test_every_parity_of_d3_21_is_pinned():
    records = []
    for spec in _normalized_specs(3, 21):
        try:
            records.append(d3_po7_parity(spec))
        except NotPO7:
            records.append("NotPO7")
    assert _digest(records) == _PARITY_DIGEST
