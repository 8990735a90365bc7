"""Eigenvalue specs for the quantum-group braiding families, plus end-to-end
reproduction reports (classify + closure oracle against recorded claims).

Each family stores its eigenvalue template as exponent formulas in
q = e^(pi*i/ell): the value (+-1)*q^k becomes the exponent
(k/(2*ell) + [1/2 if negative]) mod 1.  Eigenvalue sets are hardcoded (the
Lie-theoretic derivation is out of scope); SO7spin fixes the two-fold
representation choice D = +q^4 and SO9spin fixes gamma = q^12.  For those two
families `repforms.build` turns the spec into matrices (`build_so7`,
`build_so9`); G2 and F4 stay spec-only.  The overall scalar is 1 throughout,
which is harmless because the classification is scaling invariant.  Each
family also carries the claims recorded for it, in order, each at a set of
levels, at every multiple of an integer or at every level; a level's claim
is the first that holds there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclolinalg import CycMatrix
from .errors import OutOfRange
from .exactfield import RootOfUnity, json_form
from .grouporacle import (
    COMPLETED,
    DEFAULT_BOUND,
    EXCEEDED,
    ClosureResult,
    projective_closure,
)
from .repforms import EigenSpec, build, sign_for
from .verdict import FINITE, INFINITE, UNDECIDABLE, Verdict, classify


# closure expectations: ("exact", m) means Completed(m); ("divides", m) means
# Completed with order dividing m; ("exceeded", None) means ExceededBound
@dataclass(frozen=True)
class Expectation:
    """The claim a reproduction row is checked against.

    kind None means the recorded claim is not a cascade-level statement (the
    row is settled by the closure check alone).
    """

    kind: str | None
    closure: tuple[str, int | None] | None
    quote: str


@dataclass(frozen=True)
class QGFamily:
    """One braiding family: template exponents, validity range, the
    representation choice that the reproduction's matrices need, and the
    claims recorded for it."""

    name: str
    dim: int
    # (k, negative) encodes (+-1) * q^k
    template: tuple[tuple[int, bool], ...]
    # defined for ell >= min_divisible when modulus | ell, else for
    # ell >= min_other (None: never)
    modulus: int
    min_divisible: int
    min_other: int | None
    # (levels, claim) in order; the first whose levels hold ell is the row's
    # claim.  levels: a frozenset of ells, an int m (every multiple of m) or
    # None (every level)
    claims: tuple[tuple[frozenset[int] | int | None, Expectation], ...]
    # dim-4 gamma^2 and dim-5 gamma, in the template's encoding
    gamma_squared: tuple[int, bool] | None = None
    gamma: tuple[int, bool] | None = None

    def valid(self, ell: int) -> bool:
        least = self.min_divisible if ell % self.modulus == 0 else self.min_other
        return least is not None and ell >= least

    @property
    def has_builder(self) -> bool:
        """Whether the reproduction builds matrices: the recorded discrete
        choice (gamma^2 in dim 4, gamma in dim 5) pins them down."""
        return self.gamma_squared is not None or self.gamma is not None


_EXEMPT = " (this ℓ is exempt, no claim made)"
_COMPUTED = " (gap row settled by explicit computation)"
_G2 = '"infinite unless ℓ=10 or 20"'
_SO7 = '"provided ℓ/2∉{7,8,9,10,12,15,15,20,24}, G is infinite" [sic]'
_EXCEEDED = ("exceeded", None)

FAMILIES: dict[str, QGFamily] = {
    f.name: f
    for f in (
        QGFamily(
            "G2",
            4,
            ((-12, False), (2, False), (-6, True), (0, True)),
            modulus=3,
            min_divisible=18,
            min_other=10,
            claims=(
                (frozenset({24}), Expectation(INFINITE, None, '"for ℓ=24 we have repeated '
                 'eigenvalues, which implies the image is infinite"')),
                (3, Expectation(INFINITE, None, '"infinite unless or 24" [sic]')),
                (frozenset({10, 20}), Expectation(UNDECIDABLE, None, _G2 + _EXEMPT)),
                (None, Expectation(INFINITE, None, _G2)),
            ),
        ),
        QGFamily(
            "F4",
            5,
            ((-24, False), (-12, False), (2, False), (0, True), (-6, True)),
            modulus=2,
            min_divisible=22,
            min_other=15,
            claims=(
                (frozenset({24}), Expectation(INFINITE, None, '"infinite for 22≤ℓ" '
                 '("in the case ℓ=24 we have repeated eigenvalues")')),
                (2, Expectation(INFINITE, None, '"infinite for 22≤ℓ"')),
                (None, Expectation(INFINITE, None, '"again always infinite"')),
            ),
        ),
        QGFamily(
            "SO7spin",
            4,
            ((0, False), (12, False), (6, True), (10, True)),
            modulus=2,
            min_divisible=14,
            min_other=None,
            claims=(
                (frozenset({14}), Expectation(None, ("exact", 168),
                 '"|G/Z(G)|=168 so that, projectively, G is PSL(2,7)"' + _COMPUTED)),
                (frozenset({18}), Expectation(FINITE, None,
                 '"G is a finite imprimitive group by Theorem (c)(i)"')),
                # the quoted list itself, at the even levels the family
                # defines: the claim must not move with the cascade's tables
                (frozenset(2 * h for h in (7, 8, 9, 10, 12, 15, 20, 24)),
                 Expectation(UNDECIDABLE, None, _SO7 + _EXEMPT)),
                (None, Expectation(INFINITE, _EXCEEDED, _SO7)),
            ),
            # D = +q^4 in the two-fold representation choice, i.e.
            # gamma^2 = D * lam_1 * lam_4 = q^4 * 1 * (-q^10) = -q^14
            gamma_squared=(14, True),
        ),
        QGFamily(
            "SO9spin",
            5,
            ((0, False), (8, False), (14, True), (18, True), (20, False)),
            modulus=2,
            min_divisible=18,
            min_other=None,
            claims=(
                (frozenset({18}), Expectation(INFINITE, ("divides", 324), '"repeated '
                 'eigenvalues, (namely 1 and -q^18=1)"; relations give "a quotient of '
                 'a group of order 324" and the representation is concluded reducible')),
                (frozenset({22}), Expectation(None, ("exact", 660), '"the PSL(2,11) '
                 'relations S^11=T^2=(S^4TS^6T)^2=I hold (projectively)"' + _COMPUTED)),
                (frozenset({20, 24}), Expectation(INFINITE, _EXCEEDED,
                 '"The cases ℓ=20 and ℓ=24 do not yield finite groups"')),
                (None, Expectation(INFINITE, _EXCEEDED,
                 '"provided ℓ/2∉{10,11,12} G is infinite"')),
            ),
            gamma=(12, False),
        ),
    )
}


def get_family(name: str) -> QGFamily:
    fam = FAMILIES.get(name)
    if fam is None:
        raise OutOfRange(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    return fam


def _level(family: QGFamily | str, ell: int) -> QGFamily:
    """The family, once ell is a level it defines (else OutOfRange)."""
    fam = family if isinstance(family, QGFamily) else get_family(family)
    if not fam.valid(ell):
        raise OutOfRange(f"{fam.name} is not defined at ell={ell}")
    return fam


def qg_spec(family: QGFamily | str, ell: int) -> EigenSpec:
    """The eigenvalue spec of the braiding generator at level ell."""
    fam = _level(family, ell)
    n = 2 * ell

    def root(k: int, negative: bool) -> RootOfUnity:
        return RootOfUnity.of(k + (ell if negative else 0), n)

    eigs = tuple(root(*t) for t in fam.template)
    d_sign = None
    if fam.gamma_squared is not None:
        d_sign = sign_for(eigs, root(*fam.gamma_squared))
    gamma = None if fam.gamma is None else root(*fam.gamma)
    return EigenSpec(fam.dim, eigs, d_sign=d_sign, gamma=gamma)


def build_so7(ell: int) -> tuple[CycMatrix, CycMatrix]:
    """The 4x4 spin-representation pair at even level ell >= 14 (D = +q^4).

    Any other level raises OutOfRange from `qg_spec`.
    """
    return build(qg_spec("SO7spin", ell))


def build_so9(ell: int) -> tuple[CycMatrix, CycMatrix]:
    """The 5x5 spin-representation pair at even level ell >= 18 (gamma = q^12).

    Any other level raises OutOfRange from `qg_spec`.
    """
    return build(qg_spec("SO9spin", ell))


# -- recorded claims ------------------------------------------------------------


def expectation(family: QGFamily | str, ell: int) -> Expectation:
    """The family's first recorded claim whose levels hold ell."""
    return next(
        want
        for levels, want in _level(family, ell).claims
        if levels is None
        or (ell in levels if isinstance(levels, frozenset) else ell % levels == 0)
    )


@dataclass(frozen=True)
class ReproductionReport:
    family: str
    ell: int
    spec: EigenSpec
    verdict: Verdict
    closure: ClosureResult | None
    expectation: Expectation
    agreement: bool

    def to_json(self) -> dict:
        """The fields, with the expectation written as its quote under
        "expectation_quote"."""
        return {
            "expectation_quote" if k == "expectation" else k: v
            for k, v in dict(json_form(self), expectation=self.expectation.quote).items()
        }


def _closure_matches(
    want: tuple[str, int | None] | None, got: ClosureResult | None
) -> bool:
    if want is None:
        return True
    if got is None:
        return False
    op, value = want
    if op == "exact":
        return got.outcome == COMPLETED and got.order == value
    if op == "divides":
        return got.outcome == COMPLETED and value % got.order == 0
    return got.outcome == EXCEEDED


def reproduce(
    family: QGFamily | str, ell: int, bound: int = DEFAULT_BOUND
) -> ReproductionReport:
    """Classify the family's spec at ell, certify with the closure oracle
    when a builder exists, and compare against the recorded claim."""
    fam = _level(family, ell)
    spec = qg_spec(fam, ell)
    verdict = classify(spec)
    closure = None
    if fam.has_builder:
        closure = projective_closure(list(build(spec)), bound)
    want = expectation(fam, ell)
    agreement = (want.kind is None or verdict.kind == want.kind) and _closure_matches(
        want.closure, closure
    )
    return ReproductionReport(fam.name, ell, spec, verdict, closure, want, agreement)
