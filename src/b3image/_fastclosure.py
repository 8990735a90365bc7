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
generator's table of right multiplication; one GEMM builds every generator's
table.  The generators, tables, scalar orbit, frontier, products and
canonical forms are float64 arrays that hold integers, so the products and
the canonical scaling run as BLAS GEMMs.  This is exact under one bound,
_EXACT = 2**53: before every such matmul a guard checks that (largest |left
entry|) * (largest |right entry|) * (length of the dot product) stays below
_EXACT, else the engine raises Unsuitable.  Below the bound every product of
two entries and every partial sum of a dot product is an integer of absolute
value under 2**53, which binary64 holds exactly; so each operation BLAS
performs is exact, whatever its summation order, blocking, FMA use or thread
count, and the result is the integer product.  So Completed and Exceeded
outcomes are fully trusted.

Each BFS level runs in row blocks of _BLOCK frontier rows, so temporaries
scale with the block and not with the frontier.  A level that cannot pass the
bound, because even G new elements per frontier row (G generators) keep the
count within it, runs as one group: each block is multiplied by every
generator at once, under one guard on the largest table entry, and put in
canonical form and deduped in one round.  Any other level runs generator by
generator, each pass over every block guarded by that generator's own table,
with the bound checked after each generator's whole batch.  No count depends
on this choice or on _BLOCK: what the first g generators add to a level is a
set that no order of frontier rows changes; a grouped level forms every
product, and trips a guard exactly when, the per-generator passes would,
since the largest table entry is the largest of theirs; and a level that
may pass the bound runs the per-generator passes themselves.

The visited set keys each canonical form by its coordinates cast to the
narrowest of int8, int16, int32 and float64 that holds every coordinate seen
so far in the closure.  A block with a coordinate past the current type's
range widens it, and the stored keys are re-keyed at the new type once, so
all keys share one type; three widenings at most.  Within one type the cast
of an integer is injective, so two keys are equal exactly when their forms
are.  A GEMM can leave -0.0 where the integer is 0, so the canonical forms
add 0.0: each integer then has one float64 bit pattern, which keeps the
float64 keys, and the generator classes keyed on float64 bytes, exact too.

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
# key types, narrowest first, each beside the least magnitude it cannot hold
_KEY_WIDTHS = (
    (1 << 7, np.dtype(np.int8)),
    (1 << 15, np.dtype(np.int16)),
    (1 << 31, np.dtype(np.int32)),
    (_EXACT, np.dtype(np.float64)),
)


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


@lru_cache(maxsize=None)
def _omega_powers(conductor: int, p: int, omega: int) -> np.ndarray:
    """omega^k mod p for k < conductor as a read-only int64 array, built once
    per conductor and split prime; the first phi are the weights of h."""
    powers = np.array([pow(omega, k, p) for k in range(conductor)], dtype=np.int64)
    powers.setflags(write=False)
    return powers


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % q for q in range(2, isqrt(m) + 1))


class _Engine:
    def __init__(self, conductor: int, dim: int) -> None:
        self.dim = dim
        self.phi = phi = _ctx(conductor).phi
        self.scal, self.scal_max = _scalar_orbit(conductor)
        self.p, omega = _split_prime(conductor, phi)
        self.omega = _omega_powers(conductor, self.p, omega)

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
        if not pivot.all():
            # that entry lies in ker h: the pivot is the first entry outside it
            vanish = np.flatnonzero(pivot == 0)
            hashed = self._hash(flat[vanish])
            if not hashed.any(axis=1).all():
                raise Unsuitable("every entry lies in the kernel of the reduction")
            pivot[vanish] = hashed[np.arange(len(vanish)), (hashed != 0).argmax(axis=1)]
        # the n values omega^k * h(pivot) are distinct: one k is least
        k = (pivot[:, None] * self.omega % self.p).argmin(axis=1)
        out = flat @ self.scal[k]
        out += 0.0  # -0.0 + 0.0 is +0.0: one bit pattern per integer key
        return out.reshape(mats.shape)

    def tables(self, gens: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Right multiplication by each generator as one (d*phi) x (d*phi)
        matrix, stacked, and each table's largest absolute entry: the entry
        at row (c, p), column (b, i) is coordinate i of zeta^p * gen[c, b]."""
        d, phi = self.dim, self.phi
        if _magnitude(gens) * self.scal_max * phi >= _EXACT:
            raise Unsuitable("multiplication table would overflow")
        # scal[p, j, i] as rows j, columns (p, i): one GEMM for every entry
        window = self.scal[:phi].transpose(1, 0, 2).reshape(phi, phi * phi)
        tables = (gens.reshape(-1, phi) @ window).reshape(len(gens), d, d, phi, phi)
        tables = tables.transpose(0, 1, 3, 2, 4).reshape(len(gens), d * phi, d * phi)
        return tables, [_magnitude(table) for table in tables]

    def multiply(self, batch: np.ndarray, tables: np.ndarray, table_max: int) -> np.ndarray:
        """Products of every batch row with every table, generator-major:
        out[g, r] = batch[r] * gen_g; table_max bounds every table's entries."""
        d, phi = self.dim, self.phi
        if _magnitude(batch) * table_max * d * phi >= _EXACT:
            raise Unsuitable("product would overflow")
        out = np.empty((len(tables),) + batch.shape)
        np.matmul(batch.reshape(-1, d * phi), tables, out=out.reshape(len(tables), -1, d * phi))
        return out


def _key_width(magnitude: int) -> tuple[int, np.dtype]:
    """The narrowest key type that holds every integer of absolute value at
    most magnitude, and the magnitude it first fails to hold."""
    return next((limit, dtype) for limit, dtype in _KEY_WIDTHS if magnitude < limit)


def _keys(rows: np.ndarray, dtype: np.dtype) -> list[bytes]:
    """One key per row: its coordinates cast to dtype, as one byte string."""
    flat = rows.reshape(len(rows), -1).astype(dtype)
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


def _rekey(keys: set[bytes], old: np.dtype, new: np.dtype) -> set[bytes]:
    """The same rows keyed at a wider type."""
    rows = np.frombuffer(b"".join(keys), dtype=old).reshape(len(keys), -1)
    return set(_keys(rows, new))


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

    ident = np.zeros((1, eng.dim, eng.dim, eng.phi))
    ident[0, :, :, 0] = np.eye(eng.dim)
    raw = np.stack([_tensor(m, eng.phi) for m in mats])
    forms = eng.canonical_batch(np.concatenate([ident, raw]))
    # one generator per projective class, the first of each in given order
    classes: dict[bytes, np.ndarray] = {}
    for form, gen in zip(forms[1:], raw):
        classes.setdefault(form.tobytes(), gen)
    tables, table_maxes = eng.tables(np.stack(list(classes.values())))
    # the passes of one level: every generator at once, or one at a time
    grouped = [(tables, max(table_maxes))]
    one_by_one = [(tables[g : g + 1], top) for g, top in enumerate(table_maxes)]

    frontier = forms[:1]
    limit, dtype = _key_width(_magnitude(frontier))
    visited: set[bytes] = set(_keys(frontier, dtype))
    stats = {"products": 0, "peak_frontier": 1, "engine": "fast"}
    while len(frontier):
        fresh: list[np.ndarray] = []
        # grouped only when even len(tables) new keys per row stay within the bound
        passes = grouped if len(visited) + len(tables) * len(frontier) <= bound else one_by_one
        for group_tables, group_max in passes:
            for start in range(0, len(frontier), _BLOCK):
                block = frontier[start : start + _BLOCK]
                prods = eng.multiply(block, group_tables, group_max)
                canon = eng.canonical_batch(prods.reshape(-1, *block.shape[1:]))
                top = _magnitude(canon)
                if top >= limit:
                    # all keys share one type: store them again at the wider one
                    narrow = dtype
                    limit, dtype = _key_width(top)
                    visited = _rekey(visited, narrow, dtype)
                keys = _keys(canon, dtype)
                # set.add returns None: each key is tested, then added
                new = [i for i, key in enumerate(keys) if not (key in visited or visited.add(key))]
                fresh.append(canon[new])
            stats["products"] += len(group_tables) * len(frontier)
            if len(visited) > bound:
                return False, len(visited), stats
        frontier = np.concatenate(fresh)
        stats["peak_frontier"] = max(stats["peak_frontier"], len(frontier))
    return True, len(visited), stats
