"""The decision cascade: classify an eigenvalue spec as Finite / Infinite /
Undecidable / NotIrreducible.

The cascade runs, in order: the repeated-eigenvalue and existence screens,
the projective-order shortcut, imprimitive pattern matching (with the
block-pair subtable), and finally the per-dimension projective-order tables
for primitive groups.  Every step it took is recorded in the verdict trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalInconsistency, InvalidOrder, NotPO7
from .exactfield import MINUS_ONE, ONE, RootOfUnity
from .repforms import (
    EXISTENCE_FAILS,
    REPEATED,
    UNKNOWN_CONDITIONS,
    EigenSpec,
    validate_spec,
)

FINITE = "Finite"
INFINITE = "Infinite"
UNDECIDABLE = "Undecidable"
NOT_IRREDUCIBLE = "NotIrreducible"

ODD = "Odd"
EVEN = "Even"

# projective orders achievable in finite primitive unimodular groups, per dim
_D4_ACHIEVABLE = frozenset({6, 7, 8, 9, 10, 12, 15, 20, 24})
_D5_GAP = frozenset({6, 9, 10, 11, 12})

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
        return {
            "variant": self.variant,
            "chi": str(self.chi) if self.chi is not None else None,
            "alpha": str(self.alpha) if self.alpha is not None else None,
            "u": str(self.u) if self.u is not None else None,
            "pair_reps": [str(r) for r in self.pair_reps]
            if self.pair_reps is not None
            else None,
            "coset_order": self.coset_order,
        }

    @classmethod
    def from_json(cls, data: dict) -> ImprimitivePattern:
        parse = lambda s: RootOfUnity.parse(s) if s is not None else None
        reps = data.get("pair_reps")
        return cls(
            variant=data["variant"],
            chi=parse(data.get("chi")),
            alpha=parse(data.get("alpha")),
            u=parse(data.get("u")),
            pair_reps=tuple(RootOfUnity.parse(r) for r in reps) if reps else None,
            coset_order=data.get("coset_order"),
        )


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
        return {
            "kind": self.kind,
            "rule": self.rule,
            "po": self.po,
            "pattern": self.pattern.to_json() if self.pattern is not None else None,
            "o_u": self.o_u,
            "D": self.d_sign,
            "parity": self.parity,
            "trace": [list(step) for step in self.trace],
        }

    @classmethod
    def from_json(cls, data: dict) -> Verdict:
        pat = data.get("pattern")
        return cls(
            kind=data["kind"],
            rule=data["rule"],
            po=data.get("po"),
            pattern=ImprimitivePattern.from_json(pat) if pat else None,
            o_u=data.get("o_u"),
            d_sign=data.get("D"),
            parity=data.get("parity"),
            trace=tuple(tuple(step) for step in data.get("trace", ())),
        )


def projective_order_of_spec(spec: EigenSpec) -> int:
    """Least t with all eigenvalue t-th powers equal: lcm of ratio orders."""
    base = spec.eigenvalues[0]
    po = 1
    for r in spec.eigenvalues:
        po = math.lcm(po, (r / base).order)
    return po


# -- imprimitive pattern detection --------------------------------------------


def _full_coset(spec: EigenSpec) -> ImprimitivePattern | None:
    d = spec.dim
    base = min(spec.eigenvalues, key=lambda r: r.exponent)
    ratios = {(r / base).exponent for r in spec.eigenvalues}
    if ratios == {Fraction(i, d) for i in range(d)}:
        return ImprimitivePattern(FULL_COSET, chi=base, coset_order=d)
    return None


def _plus_minus_plus_alpha(spec: EigenSpec) -> ImprimitivePattern | None:
    if spec.dim != 3:
        return None
    lam = spec.eigenvalues
    for i, j in itertools.combinations(range(3), 2):
        if lam[i] == -lam[j]:
            chi = min(lam[i], lam[j], key=lambda r: r.exponent)
            alpha = lam[3 - i - j]
            return ImprimitivePattern(PLUS_MINUS_PLUS_ALPHA, chi=chi, alpha=alpha)
    return None


def _plus_minus_pairs(spec: EigenSpec) -> ImprimitivePattern | None:
    if spec.dim != 4:
        return None
    values = list(spec.eigenvalues)
    used = [False] * 4
    pairs = []
    for i in range(4):
        if used[i]:
            continue
        for j in range(i + 1, 4):
            if not used[j] and values[j] == -values[i]:
                pairs.append((values[i], values[j]))
                used[i] = used[j] = True
                break
        else:
            return None
    rep = lambda pair: min(pair, key=lambda r: r.exponent)
    pairs.sort(key=lambda pair: rep(pair).exponent)
    a, b = rep(pairs[0]), rep(pairs[1])
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


def _c3_coset_plus_alpha(spec: EigenSpec) -> ImprimitivePattern | None:
    if spec.dim != 4:
        return None
    thirds = {Fraction(0), Fraction(1, 3), Fraction(2, 3)}
    for triple in itertools.combinations(range(4), 3):
        lam = [spec.eigenvalues[i] for i in triple]
        base = min(lam, key=lambda r: r.exponent)
        if {(r / base).exponent for r in lam} == thirds:
            rest = ({0, 1, 2, 3} - set(triple)).pop()
            return ImprimitivePattern(
                C3_COSET_PLUS_ALPHA, chi=base, alpha=spec.eigenvalues[rest]
            )
    return None


def all_patterns(spec: EigenSpec) -> tuple[ImprimitivePattern, ...]:
    """Every syntactically matching pattern, in precedence order."""
    found = (
        _full_coset(spec),
        _plus_minus_pairs(spec),
        _c3_coset_plus_alpha(spec),
        _plus_minus_plus_alpha(spec),
    )
    return tuple(p for p in found if p is not None)


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
    val = -(g2 / (r_hat * s_hat))
    if val == ONE:
        return 1
    if val == MINUS_ONE:
        return -1
    raise InternalInconsistency("gamma^2 is incompatible with the pair structure")


# -- dim 3, projective order 7: the parity test --------------------------------


def _affine_orbit(seed: tuple[int, ...]) -> frozenset[frozenset[int]]:
    orbit = set()
    for a in range(1, 7):
        for c in range(7):
            orbit.add(frozenset((a * x + c) % 7 for x in seed))
    return frozenset(orbit)


_ODD_ORBIT = _affine_orbit((0, 1, 3))
_EVEN_ORBIT = _affine_orbit((0, 1, 2))


def d3_po7_parity(spec: EigenSpec) -> str:
    """Odd/Even split of dim-3 specs with projective order 7.

    Scaling shifts the exponent triple (mod 7) and Galois conjugation scales
    it, so the classification is by membership in the two affine orbits of
    3-subsets of Z_7; they partition all 35 subsets into 14 Odd and 21 Even.
    """
    if spec.dim != 3:
        raise NotPO7(f"parity test needs dim 3, got {spec.dim}")
    if projective_order_of_spec(spec) != 7:
        raise NotPO7("parity test needs projective order 7")
    base = spec.eigenvalues[0]
    triple = frozenset(
        int((r / base).exponent * 7) % 7 for r in spec.eigenvalues
    )
    if triple in _ODD_ORBIT:
        return ODD
    if triple in _EVEN_ORBIT:
        return EVEN
    raise InternalInconsistency("po=7 exponent triple outside both parity orbits")


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

    if not spec.is_distinct():
        trace.append(("validation", REPEATED))
        return Verdict(INFINITE, "2.1(a)", trace=tuple(trace))

    if spec.dim == 4 and spec.d_sign is None:
        # the existence polynomial needs gamma^2; proceed on the caller's
        # irreducibility claim
        trace.append(("validation", UNKNOWN_CONDITIONS))
    else:
        report = validate_spec(spec)
        trace.append(("validation", report.status))
        if report.status == EXISTENCE_FAILS:
            for w in report.witnesses:
                trace.append(("witness", w))
            return Verdict(NOT_IRREDUCIBLE, "2.2", trace=tuple(trace))

    po = projective_order_of_spec(spec)
    trace.append(("po", str(po)))
    if po <= 5:
        return Verdict(FINITE, "2.1(b)", po=po, trace=tuple(trace))

    patterns = all_patterns(spec)
    trace.append(("patterns", ", ".join(p.variant for p in patterns) or "none"))
    pattern = patterns[0] if patterns else None
    if pattern is not None:
        if pattern.variant == PLUS_MINUS_PAIRS:
            table_d = _table_d(spec, pattern)
            trace.append(("o_u", str(pattern.u.order)))
            trace.append(("D", str(table_d) if table_d is not None else "unknown"))
            sub = classify_block_case(pattern.u, table_d)
            return Verdict(
                sub.kind,
                sub.rule,
                po=po,
                pattern=pattern,
                o_u=sub.o_u,
                d_sign=sub.d_sign,
                parity=None,
                trace=tuple(trace),
            )
        return Verdict(FINITE, "2.1(c)(i)", po=po, pattern=pattern, trace=tuple(trace))

    if spec.dim == 2:
        return Verdict(INFINITE, "2.1(d)(i)", po=po, trace=tuple(trace))

    if spec.dim == 3:
        if po == 6:
            # provably unreachable: every d=3 po=6 spec is either reducible
            # (existence polynomial vanishes) or carries the +- pattern
            raise InternalInconsistency(
                "d=3 po=6 spec survived validation and pattern matching"
            )
        if po >= 8:
            return Verdict(INFINITE, "2.1(d)(ii)", po=po, trace=tuple(trace))
        parity = d3_po7_parity(spec)
        trace.append(("parity", parity))
        if parity == ODD:
            return Verdict(
                FINITE, "2.1(d)(ii)-odd", po=po, parity=parity, trace=tuple(trace)
            )
        return Verdict(
            INFINITE, "2.1(d)(ii)", po=po, parity=parity, trace=tuple(trace)
        )

    if spec.dim == 4:
        if po in _D4_ACHIEVABLE:
            return Verdict(UNDECIDABLE, "2.1(d)(iii)-gap", po=po, trace=tuple(trace))
        return Verdict(INFINITE, "2.1(d)(iii)", po=po, trace=tuple(trace))

    if spec.gamma is not None:
        # recorded but unused by the table rules; the choice can affect |G|
        trace.append(("gamma", str(spec.gamma)))
    if po in _D5_GAP:
        return Verdict(UNDECIDABLE, "2.1(d)(iv)-gap", po=po, trace=tuple(trace))
    return Verdict(INFINITE, "2.1(d)(iv)", po=po, trace=tuple(trace))
