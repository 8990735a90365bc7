"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Numbers are stored as integer coordinate vectors over the power basis
{zeta_N^i : 0 <= i < phi(N)} with a single shared denominator, reduced by the
N-th cyclotomic polynomial. Everything is exact; no floats anywhere.

`json_form` is the one JSON writer of the package's records: a record is the
dict of its dataclass fields in field order, a root of unity is written as
its exponent "k/n", a tuple as a list and a missing value as null.  Two
records rename one key in place: `Verdict` writes `d_sign` as "D", and
`ReproductionReport` writes its expectation's quote as "expectation_quote".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    ConductorMismatch,
    InvalidSpec,
    NotCoprime,
    OrderNotDividingConductor,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# roots of unity as abstract exponents


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """The complex number e^{2*pi*i*exponent}, exponent a rational mod 1.

    The exponent is an int or a Fraction; a float is refused, since it holds
    a binary fraction, not the rational that was meant.
    """

    exponent: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.exponent, float):
            raise InvalidSpec(f"exponent {self.exponent!r} is a float, not an exact rational")
        object.__setattr__(self, "exponent", Fraction(self.exponent) % 1)

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> RootOfUnity:
        return cls(Fraction(numerator, denominator))

    @classmethod
    def parse(cls, text: str) -> RootOfUnity:
        """Parse 'k/n' (or 'k') as the exponent k/n of e^{2*pi*i*k/n}."""
        num, slash, den = text.strip().partition("/")
        try:
            return cls(Fraction(int(num), int(den) if slash else 1))
        except (ValueError, ZeroDivisionError):
            raise InvalidSpec(f"malformed exponent {text!r}") from None

    @property
    def order(self) -> int:
        """Least t >= 1 with self**t == 1."""
        return self.exponent.denominator

    def __mul__(self, other: RootOfUnity) -> RootOfUnity:
        return RootOfUnity(self.exponent + other.exponent)

    def __truediv__(self, other: RootOfUnity) -> RootOfUnity:
        return RootOfUnity(self.exponent - other.exponent)

    def __pow__(self, k: int) -> RootOfUnity:
        return RootOfUnity(self.exponent * k)

    def __neg__(self) -> RootOfUnity:
        """The root -z, i.e. a half turn away."""
        return RootOfUnity(self.exponent + HALF)

    def inverse(self) -> RootOfUnity:
        return RootOfUnity(-self.exponent)

    def canonical_sqrt(self) -> RootOfUnity:
        """The square root with exponent/2 in [0, 1/2); the other is its negative."""
        return RootOfUnity(self.exponent / 2)

    def is_one(self) -> bool:
        return self.exponent == 0

    def __str__(self) -> str:
        e = self.exponent
        return f"{e.numerator}/{e.denominator}"

    def __repr__(self) -> str:
        return f"RootOfUnity({self})"


ONE = RootOfUnity(Fraction(0))
MINUS_ONE = RootOfUnity(HALF)


def json_form(record) -> dict:
    """The dataclass record as the JSON dict of its fields, in field order."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)}


def _json_value(value):
    """A nested record through its own to_json(), a root of unity as "k/n",
    a tuple as a list of such values, a dict as a copy, anything else as is."""
    if isinstance(value, RootOfUnity):
        return str(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value.to_json() if hasattr(value, "to_json") else value


# ---------------------------------------------------------------------------
# cyclotomic polynomials as coefficient tuples, lowest degree first


def _divide_exact(num: Sequence[int], divisor: Sequence[int]) -> tuple[int, ...]:
    """Quotient num / divisor, requiring a monic divisor and zero remainder."""
    if not divisor or divisor[-1] != 1:
        raise ValueError("exact division needs a monic divisor")
    rem = list(num)
    dd = len(divisor) - 1
    out = [0] * max(len(rem) - dd, 0)
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            out[top - dd] = c
            for k, dk in enumerate(divisor):
                rem[top - dd + k] -= c * dk
    if any(rem):
        raise ValueError("division left a remainder")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first.

    Computed by dividing x^n - 1 exactly by Phi_d for each proper divisor d.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    quot = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            quot = _divide_exact(quot, cyclotomic_polynomial(d))
    return quot


# ---------------------------------------------------------------------------
# per-conductor reduction tables


class _Context:
    """Precomputed reduction data for one conductor."""

    __slots__ = ("n", "phi", "powrows", "rootmap", "folds")

    def __init__(self, n: int) -> None:
        self.n = n
        coeffs = cyclotomic_polynomial(n)
        phi = len(coeffs) - 1
        self.phi = phi
        # powrows[j] = coordinates of zeta^j, for j up to every index reduction needs
        low = tuple(-c for c in coeffs[:phi])
        rows: list[tuple[int, ...]] = []
        row = [1] + [0] * (phi - 1)
        for _ in range(n + 2 * phi):
            rows.append(tuple(row))
            carry = row[phi - 1]
            row = [0] + row[:-1]
            if carry:
                for i in range(phi):
                    row[i] += carry * low[i]
        self.powrows = tuple(rows)
        # every root of unity of Q(zeta_n), the +-zeta^j, to 2n times its
        # exponent; at odd n, -zeta^j = e^{2*pi*i*(2j + n)/2n} is no power of zeta
        self.rootmap = {rows[j]: 2 * j for j in range(n)}
        if n % 2:
            self.rootmap.update((tuple(-v for v in rows[j]), 2 * j + n) for j in range(n))
        # the nonzero coordinates of zeta^j for phi <= j < 2*phi - 1: a
        # product's high terms fold back along these, and most are sparse
        self.folds = tuple(
            tuple((p, v) for p, v in enumerate(rows[j]) if v)
            for j in range(phi, 2 * phi - 1)
        )


@lru_cache(maxsize=None)
def _ctx(n: int) -> _Context:
    return _Context(n)


@lru_cache(maxsize=None)
def _trace_row(n: int) -> tuple[int, ...]:
    """Tr(zeta^i) over Q for i < phi(n): the sum over units a of zeta^(a*i).

    That sum is rational, so it equals its own first coordinate, and the
    first coordinates of the zeta^(a*i) add up to it.
    """
    ctx = _ctx(n)
    units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
    return tuple(
        sum(ctx.powrows[(a * i) % n][0] for a in units) for i in range(ctx.phi)
    )


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Divide out the common gcd; den is positive at every caller."""
    g = den
    for v in num:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g > 1:
        num = [v // g for v in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


@dataclass(frozen=True, slots=True)
class CycNumber:
    """An element of Q(zeta_conductor): coordinates num[i]/den over the power basis.

    Instances are normalized (gcd of numerators and denominator is 1, denominator
    positive) and immutable, so equality and hashing are plain tuple comparisons.
    Build them with the factory functions below, not the raw constructor.
    """

    conductor: int
    num: tuple[int, ...]
    den: int

    # -- factories ----------------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> CycNumber:
        return cls(conductor, (0,) * _ctx(conductor).phi, 1)

    @classmethod
    def one(cls, conductor: int) -> CycNumber:
        ctx = _ctx(conductor)
        return cls(conductor, (1,) + (0,) * (ctx.phi - 1), 1)

    @classmethod
    def from_rational(cls, value: int | Fraction, conductor: int) -> CycNumber:
        q = Fraction(value)
        ctx = _ctx(conductor)
        num = [q.numerator] + [0] * (ctx.phi - 1)
        n, d = _normalize(num, q.denominator)
        return cls(conductor, n, d)

    @classmethod
    def from_coords(cls, coords: Iterable[int | Fraction], conductor: int) -> CycNumber:
        ctx = _ctx(conductor)
        fracs = [Fraction(c) for c in coords]
        if len(fracs) != ctx.phi:
            raise ValueError(f"need phi({conductor}) = {ctx.phi} coordinates")
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = [int(f * den) for f in fracs]
        n, d = _normalize(num, den)
        return cls(conductor, n, d)

    # -- views ---------------------------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def as_root_of_unity(self) -> RootOfUnity | None:
        """This value as a root of unity, or None if it is none.  At odd
        conductor n the roots of unity in Q(zeta_n) are the +-zeta^k, and
        -zeta^k is no power of zeta_n: its exponent is (2k + n)/2n."""
        k = _ctx(self.conductor).rootmap.get(self.num) if self.den == 1 else None
        return None if k is None else RootOfUnity.of(k, 2 * self.conductor)

    def is_root_of_unity(self) -> bool:
        return self.as_root_of_unity() is not None

    def field_trace(self) -> Fraction:
        """Tr_{Q(zeta)/Q}: the sum of the phi(conductor) Galois conjugates."""
        row = _trace_row(self.conductor)
        return Fraction(sum(v * r for v, r in zip(self.num, row)), self.den)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: CycNumber) -> None:
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors {self.conductor} and {other.conductor} differ; lift first"
            )

    def __add__(self, other: CycNumber | int | Fraction) -> CycNumber:
        other = _coerce(other, self.conductor)
        self._check(other)
        d = math.lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        num = [fa * a + fb * b for a, b in zip(self.num, other.num)]
        n, dd = _normalize(num, d)
        return CycNumber(self.conductor, n, dd)

    def __radd__(self, other: int | Fraction) -> CycNumber:
        return self.__add__(other)

    def __neg__(self) -> CycNumber:
        return CycNumber(self.conductor, tuple(-v for v in self.num), self.den)

    def __sub__(self, other: CycNumber | int | Fraction) -> CycNumber:
        return self.__add__(-_coerce(other, self.conductor))

    def __rsub__(self, other: int | Fraction) -> CycNumber:
        return (-self).__add__(other)

    def __mul__(self, other: CycNumber | int | Fraction) -> CycNumber:
        other = _coerce(other, self.conductor)
        self._check(other)
        return dot((self,), (other,))

    def __rmul__(self, other: int | Fraction) -> CycNumber:
        return self.__mul__(other)

    def inv(self) -> CycNumber:
        """Multiplicative inverse via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CycNumber.from_rational(1 / self.as_rational(), self.conductor)
        n = self.conductor
        if self.den == 1 and self.num in _ctx(n).rootmap:
            return self.galois(-1)  # a root of unity's inverse is its conjugate
        conjugates = (self.galois(a) for a in range(2, n) if math.gcd(a, n) == 1)
        conj = next(conjugates)  # not rational, so n > 2 and n - 1 is a unit
        for g in conjugates:
            conj = conj * g
        norm = self * conj
        if not norm.is_rational():
            raise ArithmeticError("conjugate product failed to land in Q")
        q = norm.as_rational()
        return conj if q == 1 else conj * (1 / q)

    def __truediv__(self, other: CycNumber | int | Fraction) -> CycNumber:
        other = _coerce(other, self.conductor)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return self * other.inv()

    def __pow__(self, k: int) -> CycNumber:
        return power(self, k, CycNumber.one)

    # -- field automorphisms and conductor changes ----------------------------

    def galois(self, a: int) -> CycNumber:
        """Apply the automorphism zeta -> zeta^a; a must be coprime to the conductor."""
        n = self.conductor
        if math.gcd(a, n) != 1:
            raise NotCoprime(f"galois exponent {a} not coprime to conductor {n}")
        return self._substitute(n, a)

    def lift(self, conductor: int) -> CycNumber:
        """Re-express over a larger conductor; the old one must divide the new."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorMismatch(
                f"cannot lift conductor {self.conductor} into {conductor}"
            )
        return self._substitute(conductor, conductor // self.conductor)

    def _substitute(self, conductor: int, k: int) -> CycNumber:
        """Map zeta to zeta_conductor^k, reading powers from the target's powrows."""
        ctx = _ctx(conductor)
        acc = [0] * ctx.phi
        for i, v in enumerate(self.num):
            if v:
                row = ctx.powrows[(k * i) % conductor]
                for p in range(ctx.phi):
                    acc[p] += v * row[p]
        nn, dd = _normalize(acc, self.den)
        return CycNumber(conductor, nn, dd)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, v in enumerate(self.num):
            if not v:
                continue
            c = Fraction(v, self.den)
            term = f"z^{i}" if c == 1 else f"({c})*z^{i}"
            parts.append(term if i else str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CycNumber(N={self.conductor}: {self})"


def _coerce(value: CycNumber | int | Fraction, conductor: int) -> CycNumber:
    if isinstance(value, CycNumber):
        return value
    return CycNumber.from_rational(value, conductor)


def _convolve(buf: list[int], a: tuple[int, ...], b: tuple[int, ...], scale: int) -> None:
    """Add scale * a * b, the unreduced product of coordinate vectors, into buf."""
    bi = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            s = scale * ai
            for j, bj in bi:
                buf[i + j] += s * bj


def _reduce(ctx: _Context, buf: list[int]) -> list[int]:
    """Reduce an unreduced product of length 2*phi - 1 by the minimal polynomial."""
    out = buf[: ctx.phi]
    for c, fold in zip(buf[ctx.phi :], ctx.folds):
        if c:
            for p, v in fold:
                out[p] += c * v
    return out


def dot(xs: Sequence[CycNumber], ys: Sequence[CycNumber]) -> CycNumber:
    """The sum of x * y over the pairs, with one reduction and one normalisation.

    The nonzero terms share one denominator, the lcm of their x.den * y.den;
    their unreduced products add up in one buffer, which is reduced by the
    minimal polynomial once.  Normalised numbers are unique, so this equals
    the sum of the products taken one at a time.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("dot needs two sequences of one nonzero length")
    n = xs[0].conductor
    ctx = _ctx(n)
    terms = [(x, y) for x, y in zip(xs, ys) if any(x.num) and any(y.num)]
    if not terms:
        return CycNumber(n, (0,) * ctx.phi, 1)
    den = math.lcm(*(x.den * y.den for x, y in terms))
    buf = [0] * (2 * ctx.phi - 1)
    for x, y in terms:
        if x.conductor != n or y.conductor != n:
            raise ConductorMismatch(f"dot over conductor {n} met another; lift first")
        _convolve(buf, x.num, y.num, den // (x.den * y.den))
    num, den = _normalize(_reduce(ctx, buf), den)
    return CycNumber(n, num, den)


def power(base, k: int, unit):
    """base**k for any integer k: `positive_power` of base.inv() below zero,
    unit(base.conductor) at zero and `positive_power` of base above."""
    if k < 0:
        return positive_power(base.inv(), -k)
    return positive_power(base, k) if k else unit(base.conductor)


def positive_power(base, k: int):
    """base**k for k >= 1 by binary powering from the lowest set bit: no
    product with one and no square past the top bit, so it takes
    bit_length(k) - 1 squares and popcount(k) - 1 other products."""
    while not k & 1:
        base = base * base
        k >>= 1
    acc = base
    k >>= 1
    while k:
        base = base * base
        if k & 1:
            acc = acc * base
        k >>= 1
    return acc


def root_index(root: RootOfUnity, conductor: int) -> int:
    """The k in [0, conductor) with root = zeta_conductor^k."""
    n = root.order
    if conductor % n != 0:
        raise OrderNotDividingConductor(
            f"order {n} does not divide conductor {conductor}"
        )
    return (root.exponent.numerator * (conductor // n)) % conductor


def embed(root: RootOfUnity, conductor: int) -> CycNumber:
    """The root of unity as an exact element of Q(zeta_conductor)."""
    return CycNumber(conductor, _ctx(conductor).powrows[root_index(root, conductor)], 1)


def power_sum(exponents: Iterable[int], conductor: int) -> CycNumber:
    """The sum of zeta_conductor^k over the integer exponents k, repeats included."""
    ctx = _ctx(conductor)
    rows = [ctx.powrows[k % conductor] for k in exponents]
    num = tuple(map(sum, zip(*rows))) if rows else (0,) * ctx.phi
    return CycNumber(conductor, num, 1)


def spec_conductor(roots: Iterable[RootOfUnity]) -> int:
    """Smallest even conductor containing the given roots."""
    return math.lcm(2, *(r.order for r in roots))
