"""The decision cascade: classify an eigenvalue spec as Finite / Infinite /
Undecidable / NotIrreducible.

The cascade runs, in order: one screen, `repforms.validate_spec`, whose
RepeatedEigenvalues gives rule 2.1(a) and ExistenceFails rule 2.2; the
projective-order shortcut; imprimitive pattern matching (with the block-pair
subtable); and finally the Theorem 2.1(d) table of the projective orders
that finite primitive groups reach in each dimension.  Every step it took is
recorded in the verdict trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from .errors import InternalInconsistency, InvalidOrder, NotPO7
from .exactfield import RootOfUnity, json_form
from .repforms import EXISTENCE_FAILS, REPEATED, EigenSpec, check_sign, sign_of, validate_spec

FINITE = "Finite"
INFINITE = "Infinite"
UNDECIDABLE = "Undecidable"
NOT_IRREDUCIBLE = "NotIrreducible"

ODD = "Odd"
EVEN = "Even"

FULL_COSET = "FullCoset"
PLUS_MINUS_PLUS_ALPHA = "PlusMinusPlusAlpha"
C3_COSET_PLUS_ALPHA = "C3CosetPlusAlpha"
PLUS_MINUS_PAIRS = "PlusMinusPairs"


@dataclass(frozen=True)
class ImprimitivePattern:
    """A matched imprimitive eigenvalue shape with its witnesses."""

    variant: str
    chi: RootOfUnity | None = None
    alpha: RootOfUnity | None = None
    u: RootOfUnity | None = None
    pair_reps: tuple[RootOfUnity, RootOfUnity] | None = None
    coset_order: int | None = None

    def to_json(self) -> dict:
        return json_form(self)


@dataclass(frozen=True)
class Verdict:
    """Classification outcome plus the decision trail that produced it."""

    kind: str
    rule: str
    po: int | None = None
    pattern: ImprimitivePattern | None = None
    o_u: int | None = None
    d_sign: int | None = None
    parity: str | None = None
    trace: tuple[tuple[str, str], ...] = field(default=())

    def to_json(self) -> dict:
        """The fields, with d_sign written as "D"."""
        return {"D" if k == "d_sign" else k: v for k, v in json_form(self).items()}


def projective_order_of_spec(spec: EigenSpec) -> int:
    """Least t with all eigenvalue t-th powers equal: lcm of ratio orders."""
    base = spec.eigenvalues[0]
    po = 1
    for r in spec.eigenvalues:
        po = math.lcm(po, (r / base).order)
    return po


# -- imprimitive pattern detection --------------------------------------------


def _cosets(spec: EigenSpec, k: int) -> list[RootOfUnity]:
    """The cosets r*mu_k of the k-th roots of unity inside the spectrum, each
    named by its member r of least exponent, in increasing order of r."""
    present = {r.exponent for r in spec.eigenvalues}
    steps = [Fraction(j, k) for j in range(1, k)]
    return sorted(
        {
            r
            for r in spec.eigenvalues
            if r.exponent * k < 1 and all(r.exponent + s in present for s in steps)
        },
        key=lambda r: r.exponent,
    )


def _full_coset(spec: EigenSpec) -> ImprimitivePattern | None:
    cosets = _cosets(spec, spec.dim)
    if not cosets:
        return None
    return ImprimitivePattern(FULL_COSET, chi=cosets[0], coset_order=spec.dim)


def _coset_plus_alpha(spec: EigenSpec, k: int, variant: str) -> ImprimitivePattern | None:
    """One coset chi*mu_k at dim k + 1; alpha is the eigenvalue left over."""
    cosets = _cosets(spec, k) if spec.dim == k + 1 else []
    if not cosets:
        return None
    chi = cosets[0]
    rest = list(spec.eigenvalues)
    for j in range(k):
        rest.remove(chi * RootOfUnity(Fraction(j, k)))
    return ImprimitivePattern(variant, chi=chi, alpha=rest[0])


def _plus_minus_pairs(spec: EigenSpec) -> ImprimitivePattern | None:
    cosets = _cosets(spec, 2) if spec.dim == 4 else []
    if len(cosets) != 2:
        return None
    a, b = cosets
    u0 = a / b
    # the four normal forms (r_hat, s_hat) with u = r_hat / s_hat; present the
    # one with minimal (order, exponent) of u
    candidates = [
        (u0, a, b),
        (-u0, -a, b),
        (u0.inverse(), b, a),
        (-(u0.inverse()), -b, a),
    ]
    u_star, r_hat, s_hat = min(candidates, key=lambda c: (c[0].order, c[0].exponent))
    return ImprimitivePattern(PLUS_MINUS_PAIRS, u=u_star, pair_reps=(r_hat, s_hat))


# the pattern tests in precedence order; `classify` runs only the tests past
# FullCoset, the ones that can match past its po <= 5 return
_PATTERNS_PAST_PO_5 = (
    _plus_minus_pairs,
    partial(_coset_plus_alpha, k=3, variant=C3_COSET_PLUS_ALPHA),
    partial(_coset_plus_alpha, k=2, variant=PLUS_MINUS_PLUS_ALPHA),
)
_PATTERN_TESTS = (_full_coset,) + _PATTERNS_PAST_PO_5


def _matches(spec: EigenSpec, tests: tuple) -> tuple[ImprimitivePattern, ...]:
    found = (test(spec) for test in tests)
    return tuple(p for p in found if p is not None)


def all_patterns(spec: EigenSpec) -> tuple[ImprimitivePattern, ...]:
    """Every syntactically matching pattern, in precedence order; none for a
    repeated spectrum, which no pattern describes.

    `classify` runs these tests without FullCoset: it reaches them only at
    projective order po >= 6, and a full coset of the d-th roots of unity
    has po dividing d <= 5, so FullCoset cannot match there.
    """
    return _matches(spec, _PATTERN_TESTS) if spec.is_distinct() else ()


def match_imprimitive_pattern(spec: EigenSpec) -> ImprimitivePattern | None:
    """Highest-precedence pattern match, or None."""
    matches = all_patterns(spec)
    return matches[0] if matches else None


# -- the block-pair subtable ---------------------------------------------------


def classify_block_case(u: RootOfUnity, d_sign: int | None = None) -> Verdict:
    """Decide the two-block case from (o(u), D).

    d_sign here is the pair parameter D = +-1 of the normalized form whose
    spectrum is {1, -1, u, -u}; None means the caller does not know it.
    """
    if d_sign is not None:
        check_sign(d_sign)
    o = u.order
    if o in (1, 2, 4):
        raise InvalidOrder(f"block case requires order(u) not in {{1, 2, 4}}, got {o}")
    if o in (3, 6):
        return Verdict(FINITE, "2.1(c)(ii)/4.2(d)", o_u=o, d_sign=d_sign)
    if o not in (5, 10):
        return Verdict(INFINITE, "2.1(c)(ii)", o_u=o, d_sign=d_sign)
    if d_sign is None:
        return Verdict(UNDECIDABLE, "2.1(c)(ii)", o_u=o)
    if (d_sign, o) in ((1, 5), (-1, 10)):
        return Verdict(INFINITE, "2.1(c)(ii)/4.2(c)", o_u=o, d_sign=d_sign)
    return Verdict(FINITE, "2.1(c)(ii)/4.2(e)", o_u=o, d_sign=d_sign)


def _table_d(spec: EigenSpec, pattern: ImprimitivePattern) -> int | None:
    """Recover the pair parameter D from the stored gamma^2 choice.

    In the normal form (1, -1, u, -u) one has gamma^2 = D*lam_1*lam_4 = -D*u;
    transporting by the normalizing scalar s_hat gives gamma^2 = -D*r_hat*s_hat
    on the original spec.
    """
    g2 = spec.gamma_squared()
    if g2 is None:
        return None
    r_hat, s_hat = pattern.pair_reps
    return sign_of(g2, -(r_hat * s_hat))


# -- dim 3, projective order 7: the parity test --------------------------------


def d3_po7_parity(spec: EigenSpec) -> str:
    """Odd/Even split of dim-3 specs with projective order 7.

    A spectrum is Odd when its ratios r/s are all seven 7th roots of unity,
    that is when the six pairwise differences of its exponents (times 7, mod
    7) are the six nonzero residues.  Those triples are the 14 lines of the
    two cyclic Fano planes on Z_7 (the translates of {0, 1, 3} and of
    {0, 1, 5}), out of 35 3-subsets.  Scaling shifts a triple and Galois
    conjugation scales it; both keep the differences' property, so the Odd
    triples form one affine orbit and the 21 Even triples the other.
    """
    if spec.dim != 3:
        raise NotPO7(f"parity test needs dim 3, got {spec.dim}")
    if projective_order_of_spec(spec) != 7:
        raise NotPO7("parity test needs projective order 7")
    lam = spec.eigenvalues
    ratios = {(r / s).exponent for r in lam for s in lam}
    return ODD if len(ratios) == 7 else EVEN


# -- Theorem 2.1(d): primitive groups by projective order ------------------------


def _gap(spec: EigenSpec, po: int, rule: str, trace: list) -> Verdict:
    """Dims 4 and 5: a reached po leaves the spec in the finite gap."""
    return Verdict(UNDECIDABLE, f"{rule}-gap", po=po, trace=tuple(trace))


def _parity_test(spec: EigenSpec, po: int, rule: str, trace: list) -> Verdict:
    """Dim 3: po 7 is Finite on the Odd spectra alone."""
    if po == 6:
        # provably unreachable: every d=3 po=6 spec is either reducible
        # (existence polynomial vanishes) or carries the +- pattern
        raise InternalInconsistency("d=3 po=6 spec survived validation and pattern matching")
    parity = d3_po7_parity(spec)
    trace.append(("parity", parity))
    kind, rule = (FINITE, f"{rule}-odd") if parity == ODD else (INFINITE, rule)
    return Verdict(kind, rule, po=po, parity=parity, trace=tuple(trace))


# per dim: the rule, the projective orders past 5 that finite primitive
# groups reach, and how a reached po is decided; any other po is Infinite
_THEOREM_2_1_D = {
    2: ("2.1(d)(i)", frozenset(), None),
    3: ("2.1(d)(ii)", frozenset({6, 7}), _parity_test),
    4: ("2.1(d)(iii)", frozenset({6, 7, 8, 9, 10, 12, 15, 20, 24}), _gap),
    5: ("2.1(d)(iv)", frozenset({6, 9, 10, 11, 12}), _gap),
}


# -- the cascade ----------------------------------------------------------------


def classify(spec: EigenSpec, non_root_flag: bool = False) -> Verdict:
    """Run the decision cascade on a spec.

    non_root_flag declares that some eigenvalue is not a root of unity (such
    values have no exact encoding here), which short-circuits to Infinite.
    """
    trace: list[tuple[str, str]] = []
    if non_root_flag:
        trace.append(("non_root", "eigenvalue declared not a root of unity"))
        return Verdict(INFINITE, "2.1(a)", trace=tuple(trace))

    # UnknownConditions (dims 2 and 5, dim 4 without the sign) proceeds on
    # the caller's irreducibility claim
    report = validate_spec(spec)
    trace.append(("validation", report.status))
    if report.status == REPEATED:
        return Verdict(INFINITE, "2.1(a)", trace=tuple(trace))
    if report.status == EXISTENCE_FAILS:
        trace += (("witness", w) for w in report.witnesses)
        return Verdict(NOT_IRREDUCIBLE, "2.2", trace=tuple(trace))

    po = projective_order_of_spec(spec)
    trace.append(("po", str(po)))
    if po <= 5:
        return Verdict(FINITE, "2.1(b)", po=po, trace=tuple(trace))

    # no FullCoset test: a full coset of the d-th roots has po dividing d <= 5
    patterns = _matches(spec, _PATTERNS_PAST_PO_5)
    trace.append(("patterns", ", ".join(p.variant for p in patterns) or "none"))
    pattern = patterns[0] if patterns else None
    if pattern is not None:
        if pattern.variant == PLUS_MINUS_PAIRS:
            table_d = _table_d(spec, pattern)
            trace.append(("o_u", str(pattern.u.order)))
            trace.append(("D", str(table_d) if table_d is not None else "unknown"))
            sub = classify_block_case(pattern.u, table_d)
            return replace(sub, po=po, pattern=pattern, trace=tuple(trace))
        return Verdict(FINITE, "2.1(c)(i)", po=po, pattern=pattern, trace=tuple(trace))

    if spec.gamma is not None:
        # recorded but unused by the table rules; the choice can affect |G|
        trace.append(("gamma", str(spec.gamma)))
    rule, reached, decide = _THEOREM_2_1_D[spec.dim]
    if po not in reached:
        return Verdict(INFINITE, rule, po=po, trace=tuple(trace))
    return decide(spec, po, rule, trace)
