"""numpy-accelerated closure engine.

Matrices become integer coordinate tensors over the power basis of Z[zeta_n],
and projective identification minimizes over the finite scalar orbit
{zeta_n^k * M : 0 <= k < n}.  That orbit is a complete set of projective
representatives whenever the generators are integral with root-of-unity
determinants: any scalar c relating two products P = c*Q of such matrices
satisfies c^dim = det(P)/det(Q), a root of unity, so c is itself a root of
unity lying in Q(zeta_n), hence a power of zeta_n once n is even.

The canonical form picks k through the ring map h: Z[zeta_n] -> F_p, zeta ->
omega, where p = 1 (mod n) is prime and omega a primitive n-th root of unity
mod p (_split_prime).  As h is a ring map, h(zeta^k * e) = omega^k * h(e), so
the pivot, the first entry of M with h != 0, sits in the same place for the
whole orbit.  It exists: det M is a root of unity, hence a unit, while a
matrix with every entry in the prime ker h has its determinant there.  The n
values omega^k * h(pivot) mod p are distinct, as omega has order n and
h(pivot) != 0; so exactly one k minimizes them, whichever orbit member M is.
Usually the pivot is the first nonzero entry; only rows where that entry's
image vanishes hash every entry.  p is the largest such prime with
phi * (p - 1)**2 < 2**53, so the int64 hash values (sums of phi products of
residues) and every omega^k * h(pivot) stay below 2**53.

BFS multiplies on the right by one generator per projective class, never an
inverse (see grouporacle for why), each product one matmul against the
generator's table of right multiplication.  The generators, tables, scalar
orbit, frontier, products and canonical forms are float64 arrays that hold
integers, so the products and the canonical scaling run as BLAS GEMMs.  This
is exact under one bound, _EXACT = 2**53: before every such matmul a guard
checks that (largest |left entry|) * (largest |right entry|) * (length of the
dot product) stays below _EXACT, else the engine raises Unsuitable.  Below
the bound every product of two entries and every partial sum of a dot
product is an integer of absolute value under 2**53, which binary64 holds
exactly; so each operation BLAS performs is exact, whatever its summation
order, blocking, FMA use or thread count, and the result is the integer
product.  A GEMM can leave -0.0 where the integer is 0, so the canonical
forms add 0.0 before their bytes become keys: each integer then has one bit
pattern, and the keys stay exact and unique.  So Completed and Exceeded
outcomes are fully trusted.

Each generator's products are formed, put in canonical form and deduped in
row blocks of _BLOCK, in frontier order, so temporaries scale with the block
and not with the frontier; the bound is checked after each generator's whole
batch, which keeps every count independent of _BLOCK.

Everything here is an internal accelerator.  grouporacle falls back to the
exact CycMatrix engine when Unsuitable is raised; completed outcomes always
describe the identical element set.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cyclolinalg import CycMatrix
from .exactfield import CycNumber, _ctx

# every integer a float64 matmul forms stays below this, so binary64 holds it exactly
_EXACT = 1 << 53
# frontier rows multiplied, put in canonical form and deduped together
_BLOCK = 512


class Unsuitable(Exception):
    """Input outside the fast engine's preconditions, or a product that could
    reach 2**53; the exact engine must take over."""


def _lift(mat: CycMatrix, conductor: int) -> CycMatrix:
    rows = [[v.lift(conductor) for v in row] for row in mat.rows]
    return CycMatrix.from_rows(rows, conductor)


def _tensor(mat: CycMatrix, phi: int) -> np.ndarray:
    out = np.zeros((mat.dim, mat.dim, phi))
    for i, row in enumerate(mat.rows):
        for j, v in enumerate(row):
            if v.den != 1:
                raise Unsuitable("non-integral entry")
            if any(abs(c) >= _EXACT for c in v.num):
                raise Unsuitable("entry coordinate reaches 2**53")
            out[i, j, :] = v.num
    return out


def _magnitude(x: np.ndarray) -> int:
    """Largest absolute entry, by two reductions and no full-size temporary."""
    return int(max(x.max(initial=0), -x.min(initial=0)))


@lru_cache(maxsize=None)
def _power_rows(conductor: int) -> np.ndarray:
    """Coordinates of zeta^m for m < conductor + phi - 1, one int64 row each."""
    ctx = _ctx(conductor)
    rows = np.array(ctx.powrows[: conductor + ctx.phi - 1], dtype=np.int64)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _scalar_orbit(conductor: int) -> tuple[np.ndarray, int]:
    """The float64 window scal[k][i] = coords of zeta^(k+i) and its largest
    absolute coordinate."""
    rows = _power_rows(conductor)
    scal = sliding_window_view(rows.astype(np.float64), rows.shape[1], axis=0)
    return scal.transpose(0, 2, 1), _magnitude(rows)


@lru_cache(maxsize=None)
def _split_prime(conductor: int, phi: int) -> tuple[int, int]:
    """The largest prime p = 1 (mod conductor) with phi * (p - 1)**2 < 2**53,
    and the least primitive conductor-th root of unity omega mod p."""
    factors = [q for q in range(2, conductor + 1) if conductor % q == 0 and _is_prime(q)]
    for m in range(isqrt((_EXACT - 1) // phi) // conductor, 0, -1):
        p = m * conductor + 1
        if _is_prime(p):
            for g in range(2, p):
                omega = pow(g, m, p)
                if all(pow(omega, conductor // q, p) != 1 for q in factors):
                    return p, omega
    raise Unsuitable(f"no prime p = 1 mod {conductor} keeps phi * (p - 1)**2 below 2**53")


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % q for q in range(2, isqrt(m) + 1))


class _Engine:
    def __init__(self, conductor: int, dim: int) -> None:
        self.dim = dim
        self.phi = phi = _ctx(conductor).phi
        self.scal, self.scal_max = _scalar_orbit(conductor)
        self.p, omega = _split_prime(conductor, phi)
        # omega^k mod p for k < n; the first phi are the weights of h
        self.omega = np.array([pow(omega, k, self.p) for k in range(conductor)], dtype=np.int64)

    def _hash(self, coords: np.ndarray) -> np.ndarray:
        """h(v) = (sum_i v_i * omega^i) mod p over the last axis, in int64."""
        return (coords.astype(np.int64) % self.p) @ self.omega[: self.phi] % self.p

    def canonical_batch(self, mats: np.ndarray) -> np.ndarray:
        """Orbit-minimal form of each matrix in the batch, with no -0.0."""
        if _magnitude(mats) * self.scal_max * self.phi >= _EXACT:
            raise Unsuitable("scalar orbit would overflow")
        flat = mats.reshape(len(mats), -1, self.phi)
        # the first nonzero coordinate lies in the first nonzero entry
        first = (mats.reshape(len(mats), -1) != 0).argmax(axis=1) // self.phi
        pivot = self._hash(flat[np.arange(len(mats)), first])
        vanish = np.flatnonzero(pivot == 0)
        if len(vanish):
            # that entry lies in ker h: the pivot is the first entry outside it
            hashed = self._hash(flat[vanish])
            if not hashed.any(axis=1).all():
                raise Unsuitable("every entry lies in the kernel of the reduction")
            pivot[vanish] = hashed[np.arange(len(vanish)), (hashed != 0).argmax(axis=1)]
        # the n values omega^k * h(pivot) are distinct: one k is least
        k = (pivot[:, None] * self.omega % self.p).argmin(axis=1)
        out = flat @ self.scal[k]
        out += 0.0  # -0.0 + 0.0 is +0.0: one bit pattern per integer key
        return out.reshape(mats.shape)

    def table(self, gen: np.ndarray) -> tuple[np.ndarray, int]:
        """Right multiplication by gen as one (d*phi) x (d*phi) matrix: the
        entry at row (c, p), column (b, i) is coordinate i of zeta^p * gen[c, b]."""
        d, phi = self.dim, self.phi
        if _magnitude(gen) * self.scal_max * phi >= _EXACT:
            raise Unsuitable("multiplication table would overflow")
        table = np.einsum("cbj,pji->cpbi", gen, self.scal[:phi])
        table = table.reshape(d * phi, d * phi)
        return table, _magnitude(table)

    def multiply(self, batch: np.ndarray, table: np.ndarray, table_max: int) -> np.ndarray:
        d, phi = self.dim, self.phi
        if _magnitude(batch) * table_max * d * phi >= _EXACT:
            raise Unsuitable("product would overflow")
        return (batch.reshape(-1, d * phi) @ table).reshape(batch.shape)


def run(
    generators: list[CycMatrix], dets: list[CycNumber], bound: int
) -> tuple[bool, int, dict]:
    """Closure by BFS over the tensor representation; `dets` are the
    generators' determinants.

    Returns (completed, count, stats); count is the element total when
    completed, else the key count reached when the bound was passed.
    """
    mats = list(generators)
    n = mats[0].conductor
    if n % 2:
        n *= 2
        mats = [_lift(m, n) for m in mats]
    if not all(d.is_root_of_unity() for d in dets):
        raise Unsuitable("generator determinant is not a root of unity")
    eng = _Engine(n, mats[0].dim)

    raw = np.stack([_tensor(m, eng.phi) for m in mats])
    # one generator per projective class, the first of each in given order
    classes: dict[bytes, np.ndarray] = {}
    for form, gen in zip(eng.canonical_batch(raw), raw):
        classes.setdefault(form.tobytes(), gen)
    tables = [eng.table(t) for t in classes.values()]

    ident = np.zeros((1, eng.dim, eng.dim, eng.phi))
    ident[0, :, :, 0] = np.eye(eng.dim)
    frontier = eng.canonical_batch(ident)
    visited: set[bytes] = {frontier.tobytes()}
    stats = {"products": 0, "peak_frontier": 1, "engine": "fast"}
    while len(frontier):
        fresh: list[np.ndarray] = []
        for table, table_max in tables:
            for start in range(0, len(frontier), _BLOCK):
                block = frontier[start : start + _BLOCK]
                canon = eng.canonical_batch(eng.multiply(block, table, table_max))
                keys = canon.tobytes()
                step = len(keys) // len(canon)
                new = []
                for i in range(len(canon)):
                    key = keys[i * step : (i + 1) * step]
                    if key not in visited:
                        visited.add(key)
                        new.append(i)
                fresh.append(canon[new])
            stats["products"] += len(frontier)
            if len(visited) > bound:
                return False, len(visited), stats
        frontier = np.concatenate(fresh)
        stats["peak_frontier"] = max(stats["peak_frontier"], len(frontier))
    return True, len(visited), stats
