"""Eigenvalue specs, existence validation, and the explicit matrix pairs.

An EigenSpec is the classification input: the eigenvalue set of the first
generator's image plus the discrete choice that pins the representation
(a sign for dim 4, a fifth root of the determinant for dim 5).  `build`
turns a spec into its Tuba-Wenzl triangular matrix pair in exact cyclotomic
arithmetic; `build_d3` and `build_d4_block` are its parametrized entry points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .cyclolinalg import CycMatrix
from .errors import (
    InternalInconsistency,
    InvalidRange,
    InvalidSpec,
    MissingParam,
    NotCoprime,
)
from .exactfield import (
    MINUS_ONE,
    ONE,
    RootOfUnity,
    power_sum,
    root_index,
    roots_sum_to_zero,
    spec_conductor,
)

# validation statuses
VALID = "Valid"
REPEATED = "RepeatedEigenvalues"
EXISTENCE_FAILS = "ExistenceFails"
UNKNOWN_CONDITIONS = "UnknownConditions"


@dataclass(frozen=True)
class EigenSpec:
    """Eigenvalue set of dimension 2..5 with the discrete representation choice.

    The order of `eigenvalues` is presentational; every operation treats the
    set.  For dim 4, `d_sign` selects gamma^2 = d_sign * sqrt(det) with the
    canonical square root (half the reduced exponent of the determinant);
    the two signs enumerate the two inequivalent representations sharing the
    spectrum.  For dim 5, `gamma` is one of the five fifth roots of det.
    """

    dim: int
    eigenvalues: tuple[RootOfUnity, ...]
    d_sign: int | None = None
    gamma: RootOfUnity | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", tuple(self.eigenvalues))
        if not 2 <= self.dim <= 5:
            raise InvalidSpec(f"dim must be in [2, 5], got {self.dim}")
        if len(self.eigenvalues) != self.dim:
            raise InvalidSpec(
                f"expected {self.dim} eigenvalues, got {len(self.eigenvalues)}"
            )
        if self.d_sign is not None:
            if self.dim != 4:
                raise InvalidSpec("d_sign is a dim-4 parameter")
            if self.d_sign not in (1, -1):
                raise InvalidSpec(f"d_sign must be +1 or -1, got {self.d_sign}")
        if self.gamma is not None:
            if self.dim != 5:
                raise InvalidSpec("gamma is a dim-5 parameter")
            if self.gamma**5 != self.determinant():
                raise InvalidSpec("gamma^5 must equal the eigenvalue product")

    @classmethod
    def from_exponents(
        cls,
        exponents,
        d_sign: int | None = None,
        gamma: RootOfUnity | str | None = None,
    ) -> EigenSpec:
        """Build from exponents given as Fractions or "k/n" strings."""
        roots = tuple(
            RootOfUnity.parse(e) if isinstance(e, str) else RootOfUnity(Fraction(e))
            for e in exponents
        )
        if isinstance(gamma, str):
            gamma = RootOfUnity.parse(gamma)
        return cls(len(roots), roots, d_sign=d_sign, gamma=gamma)

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(r.exponent for r in self.eigenvalues)

    def determinant(self) -> RootOfUnity:
        return self._determinant

    @cached_property
    def _determinant(self) -> RootOfUnity:
        return _product(self.eigenvalues)

    def is_distinct(self) -> bool:
        return len(set(self.eigenvalues)) == self.dim

    def gamma_squared(self) -> RootOfUnity | None:
        """The selected gamma^2 for dim 4, None when the sign is absent."""
        if self.dim != 4 or self.d_sign is None:
            return None
        root = self.determinant().canonical_sqrt()
        return root if self.d_sign == 1 else -root

    def conductor(self) -> int:
        extra = []
        g2 = self.gamma_squared()
        if g2 is not None:
            extra.append(g2.order)
        if self.gamma is not None:
            extra.append(self.gamma.order)
        return spec_conductor(self.eigenvalues, *extra)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "eigenvalues": [str(r) for r in self.eigenvalues],
            "d_sign": self.d_sign,
            "gamma": str(self.gamma) if self.gamma is not None else None,
        }


def _product(roots: tuple[RootOfUnity, ...]) -> RootOfUnity:
    return RootOfUnity(sum(r.exponent for r in roots))


def _sign_for(eigenvalues: tuple[RootOfUnity, ...], target: RootOfUnity) -> int:
    """The stored sign under which the spec's gamma_squared() equals `target`."""
    base = _product(eigenvalues).canonical_sqrt()
    if target == base:
        return 1
    if target == -base:
        return -1
    raise InternalInconsistency("gamma^2 candidate is not a square root of det")


def galois_image(spec: EigenSpec, a: int) -> EigenSpec:
    """Apply zeta -> zeta^a to the spec, transporting the discrete choice."""
    n = spec.conductor()
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"exponent {a} not coprime to conductor {n}")
    eigs = tuple(r**a for r in spec.eigenvalues)
    d_sign = None
    if spec.d_sign is not None:
        d_sign = _sign_for(eigs, spec.gamma_squared() ** a)
    gamma = spec.gamma**a if spec.gamma is not None else None
    return EigenSpec(spec.dim, eigs, d_sign=d_sign, gamma=gamma)


def scale_spec(spec: EigenSpec, chi: RootOfUnity) -> EigenSpec:
    """Multiply every eigenvalue by chi, transporting the discrete choice.

    The scaled representation has gamma^2 scaled by chi^2 (dim 4) and gamma
    scaled by chi (dim 5).
    """
    eigs = tuple(chi * r for r in spec.eigenvalues)
    d_sign = None
    if spec.d_sign is not None:
        d_sign = _sign_for(eigs, chi**2 * spec.gamma_squared())
    gamma = chi * spec.gamma if spec.gamma is not None else None
    return EigenSpec(spec.dim, eigs, d_sign=d_sign, gamma=gamma)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the existence screen, with witnesses for each violation."""

    status: str
    witnesses: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        return {"status": self.status, "witnesses": list(self.witnesses)}


_PAIR_PARTITIONS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def validate_spec(spec: EigenSpec) -> ValidationReport:
    """Screen a spec against the irreducible-existence conditions.

    Repeated eigenvalues are reported first.  For dim 3 the conditions are
    lam_r^2 + lam_s*lam_t != 0 over distinct (r,s,t); for dim 4 both factors
    (lam_r^2 + gamma^2) and (gamma^2 + lam_r*lam_s + lam_t*lam_u) must be
    nonzero, which needs the sign parameter.  Dims 2 and 5 have no published
    conditions and return UnknownConditions.
    """
    lam = spec.eigenvalues
    repeats = tuple(
        f"eigenvalue[{i}] == eigenvalue[{j}] == {lam[i]}"
        for i, j in itertools.combinations(range(spec.dim), 2)
        if lam[i] == lam[j]
    )
    if repeats:
        return ValidationReport(REPEATED, repeats)
    if spec.dim == 3:
        bad = []
        for r, s, t in itertools.permutations(range(3)):
            if s > t:
                continue  # lam_s * lam_t is symmetric in (s, t)
            if roots_sum_to_zero((lam[r] * lam[r], lam[s] * lam[t])):
                bad.append(f"(r,s,t)=({r},{s},{t}): lam_r^2 + lam_s*lam_t = 0")
        return (
            ValidationReport(EXISTENCE_FAILS, tuple(bad))
            if bad
            else ValidationReport(VALID)
        )
    if spec.dim == 4:
        g2 = spec.gamma_squared()
        if g2 is None:
            raise MissingParam("dim-4 existence conditions need the sign parameter")
        bad = []
        for r in range(4):
            if roots_sum_to_zero((lam[r] * lam[r], g2)):
                bad.append(f"r={r}: lam_r^2 + gamma^2 = 0")
        for (r, s), (t, u) in _PAIR_PARTITIONS:
            if roots_sum_to_zero((g2, lam[r] * lam[s], lam[t] * lam[u])):
                bad.append(
                    f"(r,s|t,u)=({r},{s}|{t},{u}): "
                    "gamma^2 + lam_r*lam_s + lam_t*lam_u = 0"
                )
        return (
            ValidationReport(EXISTENCE_FAILS, tuple(bad))
            if bad
            else ValidationReport(VALID)
        )
    return ValidationReport(UNKNOWN_CONDITIONS)


# -- matrix builders ----------------------------------------------------------

# largest conductor a builder accepts: the field tables grow with n * phi(n)
# and the closure engine's scalar table with n * phi(n)^2
MAX_CONDUCTOR = 512


def _times(*factors: list[int]) -> list[int]:
    """Expand a product of sums of monomials, each monomial zeta^k given by k."""
    out = [0]
    for f in factors:
        out = [a + b for a in out for b in f]
    return out


def build(spec: EigenSpec) -> tuple[CycMatrix, CycMatrix]:
    """The Tuba-Wenzl ordered triangular pair (A, B) of a dim 2..5 spec.

    A is upper triangular with diagonal lam_1..lam_d, and
    B = (C P) A (C P)^-1 with P the order-reversing permutation and
    C = diag(c_1..c_d), i.e. B[i][j] = (c_i / c_j) * A[d-1-i][d-1-j]: lower
    triangular with the eigenvalues reversed.  ABA = BAB holds identically
    in the eigenvalues and the discrete choice (Tuba-Wenzl, "Representations
    of the braid group B3 and of SL(2,Z)", 2001), so no irreducibility
    screen is made.  Dim 4 reads gamma^2 from the sign, dim 5 reads gamma;
    each raises MissingParam without it.  Every entry is a sum of roots of
    unity, kept as exponents k of zeta^k over n = spec.conductor() until
    the matrices are written.
    """
    n = spec.conductor()
    if n > MAX_CONDUCTOR:
        raise InvalidRange(f"conductor {n} exceeds the builder cap of {MAX_CONDUCTOR}")
    half = n // 2  # zeta^half = -1: a spec's conductor is even
    lam = [root_index(r, n) for r in spec.eigenvalues]
    if spec.dim == 2:
        l1, l2 = lam
        a = [[[l1], [l1]], [[], [l2]]]
        c = (0, half + l2 - l1)
    elif spec.dim == 3:
        l1, l2, l3 = lam
        a = [
            [[l1], [l1 + l3 - l2, l2], [l2]],
            [[], [l2], [l2]],
            [[], [], [l3]],
        ]
        c = (0, half, 0)
    elif spec.dim == 4:
        if spec.d_sign is None:
            raise MissingParam("a dim-4 pair needs the sign parameter")
        l1, l2, l3, l4 = lam
        g2 = root_index(spec.gamma_squared(), n)
        y = l1 + l4 - g2
        s1, s2 = [0, y], [0, y, 2 * y]
        a = [
            [[l1], _times([l2], s2), _times([l3], s2), [l4]],
            [[], [l2], _times([l3], s1), [l4]],
            [[], [], [l3], [l4]],
            [[], [], [], [l4]],
        ]
        c = (
            0,
            half + l3 - l4,
            2 * l2 + l3 - l4 - g2,
            half + 2 * l2 + 2 * l3 - 2 * l4 - g2,
        )
    else:
        if spec.gamma is None:
            raise MissingParam("a dim-5 pair needs gamma")
        l1, l2, l3, l4, l5 = lam
        g = root_index(spec.gamma, n)
        t, s = 2 * g - l2 - l4, g - l3
        ts = t + s
        f, gs = [0, t, ts, t + ts], [0, s, 2 * s]
        a = [
            [[l1], _times([l2], f), _times([l3], gs, [0, ts]), _times([l4], f), [l5]],
            [[], [l2], _times([l3], gs), _times([l4], [0, t, ts]), [l5]],
            [[], [], [l3], _times([l4], [0, t]), [l5]],
            [[], [], [], [l4], [l5]],
            [[], [], [], [], [l5]],
        ]
        c = (
            0,
            half + l4 - l5,
            3 * g - l1 - 2 * l5,
            half + l2 + l3 + g - l1 - 2 * l5,
            l2 + l3 + l4 + g - l1 - 3 * l5,
        )
    d = spec.dim
    b = [[[] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            b[i][j] = [k + c[i] - c[j] for k in a[d - 1 - i][d - 1 - j]]
    return _matrix(a, n), _matrix(b, n)


def _matrix(rows: list[list[list[int]]], n: int) -> CycMatrix:
    entries = tuple(tuple(power_sum(m, n) for m in row) for row in rows)
    return CycMatrix(len(rows), n, entries)


def build_d3(theta: RootOfUnity, phi: RootOfUnity) -> tuple[CycMatrix, CycMatrix]:
    """Triangular pair with diagonals (1, theta, phi) and (phi, theta, 1)."""
    spec = EigenSpec(3, (ONE, theta, phi))
    report = validate_spec(spec)
    if report.status != VALID:
        raise InvalidSpec(f"spec {{1, {theta}, {phi}}} is {report.status}")
    return build(spec)


def build_d4_block(u: RootOfUnity, d_sign: int) -> tuple[CycMatrix, CycMatrix]:
    """The block-imprimitive dim-4 pair with diagonal (1, -1, u, -u).

    d_sign is the literal D = +-1 of the block normal form (see `block_spec`).
    u must not be a 4th root of unity (else the spectrum {1, -1, u, -u}
    degenerates).
    """
    return build(block_spec(u, d_sign))


def block_spec(u: RootOfUnity, d_sign: int) -> EigenSpec:
    """The EigenSpec matching build_d4_block, with the sign stored canonically.

    The representation built with literal D has gamma^2 = D*lam_1*lam_4 = -D*u
    in the builder's eigenvalue order; the stored sign re-encodes that value
    against the canonical square root of the determinant.
    """
    if d_sign not in (1, -1):
        raise InvalidSpec(f"d_sign must be +1 or -1, got {d_sign}")
    if u.order in (1, 2, 4):
        raise InvalidSpec(f"u must not be a 4th root of unity, got order {u.order}")
    eigs = (ONE, MINUS_ONE, u, -u)
    target = -u if d_sign == 1 else u
    return EigenSpec(4, eigs, d_sign=_sign_for(eigs, target))
