"""Small dense matrices over a cyclotomic field.

Dimensions stay at 5 or below, so cofactor-style expansions and plain
Gauss-Jordan elimination are the right tools. All arithmetic is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    ConductorMismatch,
    DimensionMismatch,
    SingularMatrix,
    ZeroMatrix,
)
from .exactfield import CycNumber, RootOfUnity, embed


Entry = CycNumber | int | Fraction


@dataclass(frozen=True, slots=True)
class CycPolynomial:
    """Polynomial with CycNumber coefficients, lowest degree first."""

    conductor: int
    coeffs: tuple[CycNumber, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        while len(c) > 1 and c[-1].is_zero():
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_roots(cls, roots: Sequence[RootOfUnity], conductor: int) -> CycPolynomial:
        """The monic polynomial prod (t - root)."""
        poly = cls(conductor, (CycNumber.one(conductor),))
        for r in roots:
            lin = cls(conductor, (-embed(r, conductor), CycNumber.one(conductor)))
            poly = poly * lin
        return poly

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0].is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.degree >= 0 and self.coeffs[-1] == CycNumber.one(self.conductor)

    def __add__(self, other: CycPolynomial) -> CycPolynomial:
        if self.conductor != other.conductor:
            raise ConductorMismatch("polynomial conductors differ")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        zero = CycNumber.zero(self.conductor)
        out = list(a)
        for i, bi in enumerate(b):
            out[i] = out[i] + bi
        return CycPolynomial(self.conductor, tuple(out) or (zero,))

    def __neg__(self) -> CycPolynomial:
        return CycPolynomial(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other: CycPolynomial) -> CycPolynomial:
        return self + (-other)

    def __mul__(self, other: CycPolynomial) -> CycPolynomial:
        if self.conductor != other.conductor:
            raise ConductorMismatch("polynomial conductors differ")
        zero = CycNumber.zero(self.conductor)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero():
                continue
            for j, bj in enumerate(other.coeffs):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return CycPolynomial(self.conductor, tuple(out))

    def __call__(self, x: Entry) -> CycNumber:
        acc = CycNumber.zero(self.conductor)
        xv = _entry(x, self.conductor)
        for c in reversed(self.coeffs):
            acc = acc * xv + c
        return acc

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero() or self.degree < 0:
                terms.append(f"({c})*t^{i}" if i else f"({c})")
        return " + ".join(terms) if terms else "0"


def _entry(value: Entry, conductor: int) -> CycNumber:
    if isinstance(value, CycNumber):
        if value.conductor != conductor:
            raise ConductorMismatch(
                f"entry conductor {value.conductor} != matrix conductor {conductor}"
            )
        return value
    return CycNumber.from_rational(value, conductor)


@dataclass(frozen=True, slots=True)
class CycMatrix:
    """Immutable dim x dim matrix over Q(zeta_conductor)."""

    dim: int
    conductor: int
    rows: tuple[tuple[CycNumber, ...], ...]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]], conductor: int) -> CycMatrix:
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise DimensionMismatch("matrix must be square")
        ent = tuple(tuple(_entry(v, conductor) for v in r) for r in rows)
        return cls(d, conductor, ent)

    @classmethod
    def identity(cls, dim: int, conductor: int) -> CycMatrix:
        one = CycNumber.one(conductor)
        zero = CycNumber.zero(conductor)
        return cls(
            dim,
            conductor,
            tuple(
                tuple(one if i == j else zero for j in range(dim)) for i in range(dim)
            ),
        )

    @classmethod
    def diagonal(cls, values: Sequence[Entry | RootOfUnity], conductor: int) -> CycMatrix:
        vals = [
            embed(v, conductor) if isinstance(v, RootOfUnity) else _entry(v, conductor)
            for v in values
        ]
        zero = CycNumber.zero(conductor)
        d = len(vals)
        return cls(
            d,
            conductor,
            tuple(
                tuple(vals[i] if i == j else zero for j in range(d)) for i in range(d)
            ),
        )

    # -- ring operations ------------------------------------------------------

    def _check(self, other: CycMatrix) -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor} differ"
            )

    def __mul__(self, other: CycMatrix) -> CycMatrix:
        self._check(other)
        d = self.dim
        cols = tuple(zip(*other.rows))
        out = []
        for i in range(d):
            row = self.rows[i]
            out.append(
                tuple(
                    _dot(row, cols[j], self.conductor) for j in range(d)
                )
            )
        return CycMatrix(d, self.conductor, tuple(out))

    def scale(self, c: Entry) -> CycMatrix:
        cv = _entry(c, self.conductor) if not isinstance(c, (int, Fraction)) else c
        return CycMatrix(
            self.dim,
            self.conductor,
            tuple(tuple(v * cv for v in row) for row in self.rows),
        )

    def __pow__(self, k: int) -> CycMatrix:
        if k < 0:
            return self.inv() ** (-k)
        acc = CycMatrix.identity(self.dim, self.conductor)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inv(self) -> CycMatrix:
        """Inverse by exact Gauss-Jordan elimination."""
        d = self.dim
        zero = CycNumber.zero(self.conductor)
        one = CycNumber.one(self.conductor)
        work = [list(row) for row in self.rows]
        aug = [[one if i == j else zero for j in range(d)] for i in range(d)]
        for col in range(d):
            pivot = next(
                (r for r in range(col, d) if not work[r][col].is_zero()), None
            )
            if pivot is None:
                raise SingularMatrix("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pinv = work[col][col].inv()
            work[col] = [v * pinv for v in work[col]]
            aug[col] = [v * pinv for v in aug[col]]
            for r in range(d):
                if r != col and not work[r][col].is_zero():
                    f = work[r][col]
                    work[r] = [a - f * b for a, b in zip(work[r], work[col])]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return CycMatrix(d, self.conductor, tuple(tuple(r) for r in aug))

    def det(self) -> CycNumber:
        acc = CycNumber.zero(self.conductor)
        for perm in itertools.permutations(range(self.dim)):
            factors = [self.rows[i][j] for i, j in enumerate(perm)]
            if any(f.is_zero() for f in factors):
                continue
            term = functools.reduce(operator.mul, factors)
            acc = acc + term if _perm_sign(perm) > 0 else acc - term
        return acc

    def trace(self) -> CycNumber:
        acc = CycNumber.zero(self.conductor)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    # -- spectra and projective structure --------------------------------------

    def char_poly(self) -> CycPolynomial:
        """det(t*I - X), monic of degree dim, by permanent-style expansion."""
        n = self.conductor
        zero = CycNumber.zero(n)
        one = CycNumber.one(n)
        acc = CycPolynomial(n, (zero,))
        for perm in itertools.permutations(range(self.dim)):
            term = CycPolynomial(n, (one,))
            for i, j in enumerate(perm):
                if i == j:
                    factor = CycPolynomial(n, (-self.rows[i][i], one))
                else:
                    factor = CycPolynomial(n, (-self.rows[i][j],))
                term = term * factor
            acc = acc + term if _perm_sign(perm) > 0 else acc - term
        return acc

    def is_scalar(self) -> bool:
        d0 = self.rows[0][0]
        for i in range(self.dim):
            for j in range(self.dim):
                if i == j:
                    if self.rows[i][j] != d0:
                        return False
                elif not self.rows[i][j].is_zero():
                    return False
        return True

    def first_nonzero(self) -> CycNumber | None:
        for row in self.rows:
            for v in row:
                if not v.is_zero():
                    return v
        return None

    def projective_canonical(self) -> CycMatrix:
        """Scale so the first nonzero entry in row-major order becomes 1."""
        lead = self.first_nonzero()
        if lead is None:
            raise ZeroMatrix("zero matrix has no projective representative")
        return self.scale(lead.inv())

    def _content(self) -> Fraction:
        """The rational f that makes f * self integral with coprime coordinates."""
        dens = set()
        g = 0
        for row in self.rows:
            for v in row:
                dens.add(v.den)
                for c in v.num:
                    if c:
                        g = math.gcd(g, c)
        if g == 0:
            raise ZeroMatrix("zero matrix has no primitive part")
        return Fraction(math.lcm(*dens), g)

    def primitive_part(self) -> CycMatrix:
        """Divide out the rational content; projectively the same element."""
        f = self._content()
        return self.scale(f) if f != 1 else self

    def _scaled_powers(self, bound: int) -> Iterator[tuple[int, CycMatrix, Fraction]]:
        """(t, P, s) for t = 1..bound, where P = s * self**t is primitive."""
        power, scale = self, Fraction(1)
        for t in range(1, bound + 1):
            yield t, power, scale
            if t < bound:
                # content growth is scalar, so stripping it is projectively safe
                power = power * self
                f = power._content()
                if f != 1:
                    power = power.scale(f)
                    scale *= f

    def projective_order(self, bound: int) -> int | None:
        """Least t <= bound with self**t scalar, or None when there is none.

        Each power P = s * self**t (s rational, the content stripped so far)
        is checked for a scalar first, then against a trace bound that
        proves infinite order.  Suppose det(self) is a root of unity and some
        power self**k = c*I.  Then c**dim is a root of unity, so every
        eigenvalue of self is one too.  Every Galois conjugate of tr(P) is
        then s times a sum of dim roots of unity, of absolute value at most
        |s|*dim.  Complex conjugation commutes with the Galois group of
        Q(zeta_n), so the field trace of tr(P) * conj(tr(P)) is the sum of
        the squared absolute values of those conjugates, at most
        phi(n) * dim**2 * s**2.  A power that breaks this bound therefore
        proves that no power of self is scalar, and the answer is None at
        every bound.  The determinant is computed only when the bound first
        breaks; if it is not a root of unity the test is switched off and
        the powers run on to the bound.
        """
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.inv()  # raises SingularMatrix up front
        det_is_root: bool | None = None  # unknown until the bound first breaks
        for t, power, scale in self._scaled_powers(bound):
            if power.is_scalar():
                return t
            if det_is_root is not False and _breaks_trace_bound(power, scale):
                if det_is_root is None:
                    det_is_root = self.det().is_root_of_unity()
                if det_is_root:
                    return None
        return None

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "conductor": self.conductor,
            "entries": [
                [[str(c) for c in v.coords] for v in row] for row in self.rows
            ],
        }

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.rows
        )


def _dot(row: Sequence[CycNumber], col: Sequence[CycNumber], conductor: int) -> CycNumber:
    acc = CycNumber.zero(conductor)
    for a, b in zip(row, col):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


def _breaks_trace_bound(power: CycMatrix, scale: Fraction) -> bool:
    """Tr(x * conj(x)) > phi(n) * dim**2 * scale**2 for x = tr(power).

    See `CycMatrix.projective_order` for why this proves infinite order when
    power = scale * M**t and det(M) is a root of unity.
    """
    x = power.trace()
    phi = len(x.num)
    return (x * x.galois(-1)).field_trace() > phi * power.dim**2 * scale**2


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign

