"""Small dense matrices over a cyclotomic field.

Dimensions stay at 5 or below.  A matrix product takes one fused
`exactfield.dot` per entry: the d products of a row and a column add up
unreduced and are reduced by the minimal polynomial and normalised once.
Powers start from the lowest set bit of the exponent, never from the
identity.  `det`, `inv` and `char_poly` all read one memoised minor
expansion (`_minors`): `det` is the full minor, `inv` the adjugate over the
determinant, and `char_poly` sums principal minors.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import (
    ConductorMismatch,
    DimensionMismatch,
    SingularMatrix,
    ZeroMatrix,
)
from .exactfield import CycNumber, RootOfUnity, dot, embed, positive_power


Entry = CycNumber | int | Fraction


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
        cols = tuple(zip(*other.rows))
        out = tuple(tuple(dot(row, col) for col in cols) for row in self.rows)
        return CycMatrix(self.dim, self.conductor, out)

    def scale(self, c: Entry) -> CycMatrix:
        cv = _entry(c, self.conductor) if not isinstance(c, (int, Fraction)) else c
        return CycMatrix(
            self.dim,
            self.conductor,
            tuple(tuple(v * cv for v in row) for row in self.rows),
        )

    def __pow__(self, k: int) -> CycMatrix:
        """Binary powering by `exactfield.positive_power`: no product with
        the identity and no square past the top bit."""
        if k < 0:
            return self.inv() ** (-k)
        if k == 0:
            return CycMatrix.identity(self.dim, self.conductor)
        return positive_power(self, k)

    def inv(self) -> CycMatrix:
        """The adjugate over the determinant, one field inversion: entry (i, j)
        is (-1)**(i + j) * minor(rows - j, cols - i) / det, with no product
        by zero or one (`_minors`)."""
        d = self.dim
        minor, full = _minors(self), tuple(range(d))
        det = minor(full, full)
        if det.is_zero():
            raise SingularMatrix("matrix is singular")
        dinv = det.inv()

        def entry(i: int, j: int) -> CycNumber:
            v = minor(full[:j] + full[j + 1 :], full[:i] + full[i + 1 :])
            v = v if v.is_zero() else _times(v, dinv)
            return -v if (i + j) % 2 else v

        rows = tuple(tuple(entry(i, j) for j in range(d)) for i in range(d))
        return CycMatrix(d, self.conductor, rows)

    def det(self) -> CycNumber:
        """The full minor of `_minors`, expanded along the rows top to bottom."""
        full = tuple(range(self.dim))
        return _minors(self)(full, full)

    def trace(self) -> CycNumber:
        acc = CycNumber.zero(self.conductor)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    # -- spectra and projective structure --------------------------------------

    def char_poly(self) -> tuple[CycNumber, ...]:
        """The dim + 1 coefficients of det(t*I - X), lowest degree first and
        monic, the layout of `exactfield.cyclotomic_polynomial`: that of
        t**(d - k) is (-1)**k times the sum of the k x k principal minors of
        X, all read from one memo (`_minors`)."""
        d, zero = self.dim, CycNumber.zero(self.conductor)
        minor = _minors(self)
        coeffs = []
        for k in range(d, -1, -1):
            acc = sum((minor(s, s) for s in combinations(range(d), k)), zero)
            coeffs.append(-acc if k % 2 else acc)
        return tuple(coeffs)

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
        every bound.  The determinant is computed once, up front, to reject a
        singular matrix; whether it is a root of unity is asked only when the
        bound first breaks, and if it is not the test is switched off and the
        powers run on to the bound.
        """
        if bound < 1:
            raise ValueError("bound must be at least 1")
        det = self.det()
        if det.is_zero():
            raise SingularMatrix("matrix is singular")
        det_is_root: bool | None = None  # unknown until the bound first breaks
        for t, power, scale in self._scaled_powers(bound):
            if power.is_scalar():
                return t
            if det_is_root is not False and _breaks_trace_bound(power, scale):
                if det_is_root is None:
                    det_is_root = det.is_root_of_unity()
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


def _minors(m: CycMatrix) -> Callable[[tuple[int, ...], tuple[int, ...]], CycNumber]:
    """minor(rows, cols): the determinant of m on a row tuple by a column
    tuple, expanded along its first row and memoised by the pair, so `det`,
    `inv` and `char_poly` each expand a shared minor once.  Zero entries and
    zero minors take no product, nor does a factor one; the empty minor is
    one.  A dense 5 x 5 det takes at most 75 products (Leibniz 480), a
    triangular d x d one at most d - 1.
    """
    memo = {((), ()): CycNumber.one(m.conductor)}
    zero = CycNumber.zero(m.conductor)

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> CycNumber:
        if len(cols) == 1:
            return m.rows[rows[0]][cols[0]]
        value = memo.get((rows, cols))
        if value is not None:
            return value
        row, rest = m.rows[rows[0]], rows[1:]
        acc = None
        for pos, col in enumerate(cols):
            if row[col].is_zero():
                continue
            sub = minor(rest, cols[:pos] + cols[pos + 1 :])
            if not sub.is_zero():
                term = _times(row[col], sub)
                term = -term if pos % 2 else term
                acc = term if acc is None else acc + term
        memo[rows, cols] = value = zero if acc is None else acc
        return value

    return minor


def _times(a: CycNumber, b: CycNumber) -> CycNumber:
    """a * b, with no product formed when a factor is one."""
    return b if _is_one(a) else a if _is_one(b) else a * b


def _is_one(x: CycNumber) -> bool:
    return x.den == 1 and x.num[0] == 1 and not any(x.num[1:])


def _breaks_trace_bound(power: CycMatrix, scale: Fraction) -> bool:
    """Tr(x * conj(x)) > phi(n) * dim**2 * scale**2 for x = tr(power).

    See `CycMatrix.projective_order` for why this proves infinite order when
    power = scale * M**t and det(M) is a root of unity.
    """
    x = power.trace()
    phi = len(x.num)
    return (x * x.galois(-1)).field_trace() > phi * power.dim**2 * scale**2
