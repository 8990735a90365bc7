"""Bounded exact closure of projective matrix groups, plus relation checking.

This is the artifact's verification device: finiteness claims made by the
verdict cascade can be certified (closure completes, relations hold) and
infiniteness claims collect counterevidence (bounds get exceeded).  Closure
is breadth-first over right multiplication by the generators alone, with
elements identified by projective canonical form.  No inverse is needed: a
finite subsemigroup of a group is a subgroup, so the positive words give the
whole image when it is finite and infinitely many elements when it is not,
and Completed(order) and ExceededBound come out as for the whole group at
every bound.  A numpy engine accelerates the common case; it produces the
identical element set and the exact engine takes over whenever its
preconditions fail.  That engine, and numpy with it, is imported by the
first closure, so importing this module or deciding from spectra alone
never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclolinalg import CycMatrix
from .exactfield import CycNumber, positive_power
from .errors import DimensionMismatch, ConductorMismatch, SingularGenerator

COMPLETED = "Completed"
EXCEEDED = "ExceededBound"

DEFAULT_BOUND = 100000


@dataclass(frozen=True)
class Word:
    """A product of generator powers, e.g. A^1 B^-1 A^4 as ((0,1),(1,-1),(0,4))."""

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        for idx, exp in self.factors:
            if idx < 0:
                raise ValueError(f"negative generator index {idx}")
            if exp == 0:
                raise ValueError("zero exponent in word")

    @classmethod
    def gen(cls, index: int, exponent: int = 1) -> Word:
        return cls(((index, exponent),))

    def __mul__(self, other: Word) -> Word:
        merged = list(self.factors)
        for factor in other.factors:
            if merged and merged[-1][0] == factor[0]:
                exp = merged[-1][1] + factor[1]
                merged.pop()
                if exp:
                    merged.append((factor[0], exp))
            else:
                merged.append(factor)
        return Word(tuple(merged))

    def __pow__(self, k: int) -> Word:
        """Binary powering (`exactfield.positive_power`).  On reduced words the
        merge in `__mul__` is associative: the factors equal those of k - 1 products."""
        if k == 0:
            return Word(())
        return positive_power(self if k > 0 else self.inverse(), abs(k))

    def inverse(self) -> Word:
        return Word(tuple((idx, -exp) for idx, exp in reversed(self.factors)))

    def evaluate(self, generators: list[CycMatrix]) -> CycMatrix:
        if not generators:
            raise ValueError("need at least one generator to evaluate a word")
        result = None  # the first factor starts the product: no identity product
        inverses: dict[int, CycMatrix] = {}  # each generator is inverted at most once
        for idx, exp in self.factors:
            if idx >= len(generators):
                raise IndexError(f"word uses generator {idx}, only {len(generators)} given")
            g = generators[idx]
            if exp < 0:
                if idx not in inverses:
                    inverses[idx] = g.inv()
                g, exp = inverses[idx], -exp
            power = g**exp
            result = power if result is None else result * power
        if result is None:
            first = generators[0]
            return CycMatrix.identity(first.dim, first.conductor)
        return result

    def __str__(self) -> str:
        if not self.factors:
            return "e"
        names = "ABCDEFGH"
        parts = []
        for idx, exp in self.factors:
            name = names[idx] if idx < len(names) else f"g{idx}"
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


@dataclass(frozen=True)
class ClosureResult:
    outcome: str
    order: int | None
    bound: int
    stats: dict

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "order": self.order,
            "bound": self.bound,
            "stats": dict(self.stats),
        }


def _validate_generators(generators: list[CycMatrix]) -> list[CycNumber]:
    """Check shape, conductor and invertibility; return the determinants."""
    if not generators:
        raise DimensionMismatch("need at least one generator")
    first = generators[0]
    dets = []
    for i, g in enumerate(generators):
        if g.dim != first.dim:
            raise DimensionMismatch("generators must share a dimension")
        if g.conductor != first.conductor:
            raise ConductorMismatch("generators must share a conductor; lift first")
        dets.append(g.det())
        if dets[-1].is_zero():
            raise SingularGenerator(f"generator {i} is singular")
    return dets


def _exact_closure(generators: list[CycMatrix], bound: int) -> ClosureResult:
    gens = list(dict.fromkeys(g.projective_canonical() for g in generators))
    ident = CycMatrix.identity(generators[0].dim, generators[0].conductor)
    visited: set[CycMatrix] = {ident}
    frontier: list[CycMatrix] = [ident]
    stats = {"products": 0, "peak_frontier": 1, "engine": "exact"}
    while frontier:
        fresh: list[CycMatrix] = []
        for m in frontier:
            for g in gens:
                stats["products"] += 1
                c = (m * g).projective_canonical()
                if c not in visited:
                    visited.add(c)
                    if len(visited) > bound:
                        return ClosureResult(EXCEEDED, None, bound, stats)
                    fresh.append(c)
        stats["peak_frontier"] = max(stats["peak_frontier"], len(fresh))
        frontier = fresh
    return ClosureResult(COMPLETED, len(visited), bound, stats)


def projective_closure(
    generators: list[CycMatrix], bound: int = DEFAULT_BOUND
) -> ClosureResult:
    """BFS closure of the projective group the generators span.

    Right multiplication by the generators alone reaches the positive words,
    which exhaust the group when it is finite (see the module docstring).
    Completed(order) when the set stabilizes within the bound, ExceededBound
    otherwise.  The element set (and hence the order) is independent of the
    engine, of generator order, and of traversal order.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    dets = _validate_generators(generators)
    from . import _fastclosure  # here, not at the top: spectrum-only runs never load numpy

    try:
        completed, count, stats = _fastclosure.run(generators, dets, bound)
    except _fastclosure.Unsuitable:
        return _exact_closure(generators, bound)
    outcome = COMPLETED if completed else EXCEEDED
    return ClosureResult(outcome, count if completed else None, bound, stats)


def check_relation(generators: list[CycMatrix], lhs: Word, rhs: Word) -> bool:
    """True iff the two words agree projectively over the generators."""
    left = lhs.evaluate(generators).projective_canonical()
    right = rhs.evaluate(generators).projective_canonical()
    return left == right


def element_projective_order(
    generators: list[CycMatrix], w: Word, bound: int = 1000
) -> int | str:
    """Projective order of the word's value, or EXCEEDED past the bound."""
    m = w.evaluate(generators)
    order = m.projective_order(bound)
    return order if order is not None else EXCEEDED
