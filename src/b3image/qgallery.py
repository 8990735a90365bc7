"""Eigenvalue specs for the quantum-group braiding families, plus end-to-end
reproduction reports (classify + closure oracle against recorded claims).

Each family stores its eigenvalue template as exponent formulas in
q = e^(pi*i/ell): the value (+-1)*q^k becomes the exponent
(k/(2*ell) + [1/2 if negative]) mod 1.  Eigenvalue sets are hardcoded (the
Lie-theoretic derivation is out of scope); SO7spin fixes the two-fold
representation choice D = +q^4 and SO9spin fixes gamma = q^12.  For those two
families `repforms.build` turns the spec into matrices (`build_so7`,
`build_so9`); G2 and F4 stay spec-only.  The overall scalar is 1 throughout,
which is harmless because the classification is scaling invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclolinalg import CycMatrix
from .errors import InvalidRange, OutOfRange
from .exactfield import RootOfUnity
from .grouporacle import (
    COMPLETED,
    DEFAULT_BOUND,
    EXCEEDED,
    ClosureResult,
    projective_closure,
)
from .repforms import EigenSpec, _sign_for, build
from .verdict import _D4_ACHIEVABLE, FINITE, INFINITE, UNDECIDABLE, Verdict, classify


@dataclass(frozen=True)
class QGFamily:
    """One braiding family: template exponents, validity range, and the
    representation choice that the reproduction's matrices need."""

    name: str
    dim: int
    # (k, negative) encodes (+-1) * q^k
    template: tuple[tuple[int, bool], ...]
    # defined for ell >= min_divisible when modulus | ell, else for
    # ell >= min_other (None: never)
    modulus: int
    min_divisible: int
    min_other: int | None
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
        ),
        QGFamily(
            "F4",
            5,
            ((-24, False), (-12, False), (2, False), (0, True), (-6, True)),
            modulus=2,
            min_divisible=22,
            min_other=15,
        ),
        QGFamily(
            "SO7spin",
            4,
            ((0, False), (12, False), (6, True), (10, True)),
            modulus=2,
            min_divisible=14,
            min_other=None,
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
            gamma=(12, False),
        ),
    )
}


def get_family(name: str) -> QGFamily:
    fam = FAMILIES.get(name)
    if fam is None:
        raise OutOfRange(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    return fam


def _resolve(family: QGFamily | str) -> QGFamily:
    return family if isinstance(family, QGFamily) else get_family(family)


def qg_spec(family: QGFamily | str, ell: int) -> EigenSpec:
    """The eigenvalue spec of the braiding generator at level ell."""
    fam = _resolve(family)
    if not fam.valid(ell):
        raise OutOfRange(f"{fam.name} is not defined at ell={ell}")
    n = 2 * ell

    def root(k: int, negative: bool) -> RootOfUnity:
        return RootOfUnity.of(k + (ell if negative else 0), n)

    eigs = tuple(root(*t) for t in fam.template)
    d_sign = None
    if fam.gamma_squared is not None:
        d_sign = _sign_for(eigs, root(*fam.gamma_squared))
    gamma = None if fam.gamma is None else root(*fam.gamma)
    return EigenSpec(fam.dim, eigs, d_sign=d_sign, gamma=gamma)


def build_so7(ell: int) -> tuple[CycMatrix, CycMatrix]:
    """The 4x4 spin-representation pair at even level ell >= 14 (D = +q^4)."""
    if not FAMILIES["SO7spin"].valid(ell):
        raise InvalidRange(f"ell must be even and >= 14, got {ell}")
    return build(qg_spec("SO7spin", ell))


def build_so9(ell: int) -> tuple[CycMatrix, CycMatrix]:
    """The 5x5 spin-representation pair at even level ell >= 18 (gamma = q^12)."""
    if not FAMILIES["SO9spin"].valid(ell):
        raise InvalidRange(f"ell must be even and >= 18, got {ell}")
    return build(qg_spec("SO9spin", ell))


# -- recorded claims ------------------------------------------------------------

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


def expectation(family: QGFamily | str, ell: int) -> Expectation:
    fam = _resolve(family)
    if not fam.valid(ell):
        raise OutOfRange(f"{fam.name} is not defined at ell={ell}")
    if fam.name == "G2":
        if ell % 3 == 0:
            if ell == 24:
                return Expectation(
                    INFINITE,
                    None,
                    '"for ℓ=24 we have repeated eigenvalues, which implies '
                    'the image is infinite"',
                )
            return Expectation(INFINITE, None, '"infinite unless or 24" [sic]')
        if ell in (10, 20):
            return Expectation(
                UNDECIDABLE,
                None,
                '"infinite unless ℓ=10 or 20" (this ℓ is exempt, no claim made)',
            )
        return Expectation(INFINITE, None, '"infinite unless ℓ=10 or 20"')
    if fam.name == "F4":
        if ell % 2 == 0:
            note = ' ("in the case ℓ=24 we have repeated eigenvalues")' if ell == 24 else ""
            return Expectation(INFINITE, None, '"infinite for 22≤ℓ"' + note)
        return Expectation(INFINITE, None, '"again always infinite"')
    if fam.name == "SO7spin":
        if ell == 14:
            return Expectation(
                None,
                ("exact", 168),
                '"|G/Z(G)|=168 so that, projectively, G is PSL(2,7)" '
                "(gap row settled by explicit computation)",
            )
        if ell == 18:
            return Expectation(
                FINITE, None, '"G is a finite imprimitive group by Theorem (c)(i)"'
            )
        quote = '"provided ℓ/2∉{7,8,9,10,12,15,15,20,24}, G is infinite" [sic]'
        # the quoted exemption list is the d=4 gap set _D4_ACHIEVABLE minus 6;
        # valid ell is even and >= 14, so ell/2 >= 7 and 6 never arises
        if ell // 2 in _D4_ACHIEVABLE:
            return Expectation(
                UNDECIDABLE, None, quote + " (this ℓ is exempt, no claim made)"
            )
        return Expectation(INFINITE, ("exceeded", None), quote)
    # SO9spin
    if ell == 18:
        return Expectation(
            INFINITE,
            ("divides", 324),
            '"repeated eigenvalues, (namely 1 and -q^18=1)"; relations give '
            '"a quotient of a group of order 324" and the representation is '
            "concluded reducible",
        )
    if ell == 22:
        return Expectation(
            None,
            ("exact", 660),
            '"the PSL(2,11) relations S^11=T^2=(S^4TS^6T)^2=I hold (projectively)" '
            "(gap row settled by explicit computation)",
        )
    if ell in (20, 24):
        return Expectation(
            INFINITE,
            ("exceeded", None),
            '"The cases ℓ=20 and ℓ=24 do not yield finite groups"',
        )
    return Expectation(
        INFINITE, ("exceeded", None), '"provided ℓ/2∉{10,11,12} G is infinite"'
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
        return {
            "family": self.family,
            "ell": self.ell,
            "spec": self.spec.to_json(),
            "verdict": self.verdict.to_json(),
            "closure": self.closure.to_json() if self.closure is not None else None,
            "expectation_quote": self.expectation.quote,
            "agreement": self.agreement,
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
    fam = _resolve(family)
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
