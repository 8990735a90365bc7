"""numpy-accelerated closure engine.

Matrices become int64 coordinate tensors over the power basis of Z[zeta_n],
and projective identification minimizes over the finite scalar orbit
{zeta_n^k * M : 0 <= k < n}.  That orbit is a complete set of projective
representatives whenever the generators are integral with root-of-unity
determinants: any scalar c relating two products P = c*Q of such matrices
satisfies c^dim = det(P)/det(Q), a root of unity, so c is itself a root of
unity lying in Q(zeta_n), hence a power of zeta_n once n is even.

Arithmetic is plain int64 with overflow guards, so Completed and Exceeded
outcomes are fully trusted.

Everything here is an internal accelerator.  grouporacle falls back to the
exact CycMatrix engine when Unsuitable is raised; completed outcomes always
describe the identical element set.
"""

from __future__ import annotations

import numpy as np

from .cyclolinalg import CycMatrix
from .exactfield import _ctx

# keep one bit of headroom below the int64 ceiling
_LIMIT = 1 << 62


class Unsuitable(Exception):
    """Input outside the fast engine's preconditions, or a product that could
    exceed int64; the exact engine must take over."""


def _lift(mat: CycMatrix, conductor: int) -> CycMatrix:
    rows = [[v.lift(conductor) for v in row] for row in mat.rows]
    return CycMatrix.from_rows(rows, conductor)


def _tensor(mat: CycMatrix, phi: int) -> np.ndarray:
    out = np.zeros((mat.dim, mat.dim, phi), dtype=np.int64)
    for i, row in enumerate(mat.rows):
        for j, v in enumerate(row):
            if v.den != 1:
                raise Unsuitable("non-integral entry")
            if any(abs(c) >= _LIMIT for c in v.num):
                raise Unsuitable("entry coordinate exceeds int64")
            out[i, j, :] = v.num
    return out


class _Engine:
    def __init__(self, conductor: int, dim: int) -> None:
        ctx = _ctx(conductor)
        self.n = conductor
        self.dim = dim
        self.phi = phi = ctx.phi
        # reduction rows: coords of zeta^m for m = 0 .. 2*phi-2
        self.red = np.array(ctx.powrows[: 2 * phi - 1], dtype=np.int64)
        # scalar orbit: scal[k][i] = coords of zeta^(k+i)
        self.scal = np.array(
            [ctx.powrows[k : k + phi] for k in range(conductor)], dtype=np.int64
        )
        self.red_max = int(np.abs(self.red).max())
        self.scal_max = int(np.abs(self.scal).max())
        # primary lex key of the scalar action, for cheap orbit preselection
        self.scal0 = np.ascontiguousarray(self.scal[:, :, 0])

    def canonical_batch(self, mats: np.ndarray) -> list[tuple[np.ndarray, bytes]]:
        """Orbit-minimal form and hash key for each matrix in the batch.

        The lexicographic minimum is found by comparing only the first
        coordinate of entry (0,0) across the orbit, falling back to full
        orbit rows for the (rare) ties.
        """
        if int(np.abs(mats).max(initial=0)) * self.scal_max * self.phi >= _LIMIT:
            raise Unsuitable("scalar orbit would overflow")
        firsts = mats[:, 0, 0, :] @ self.scal0.T
        out = []
        for f in range(len(mats)):
            row = firsts[f]
            ties = np.flatnonzero(row == row.min())
            if len(ties) == 1:
                k = int(ties[0])
                canon = mats[f] @ self.scal[k]
            else:
                orbit = np.einsum("abe,kei->kabi", mats[f], self.scal[ties])
                flat = orbit.reshape(len(ties), -1)
                canon = orbit[np.lexsort(flat.T[::-1])[0]]
            out.append((canon, canon.tobytes()))
        return out

    def canonical(self, mat: np.ndarray) -> tuple[np.ndarray, bytes]:
        return self.canonical_batch(mat[None])[0]

    def expanded(self, gen: np.ndarray) -> np.ndarray:
        """Pre-spread generator for single-pass convolution contraction."""
        d, phi = self.dim, self.phi
        out = np.zeros((d, phi, d, 2 * phi - 1), dtype=np.int64)
        for p in range(phi):
            out[:, p, :, p : p + phi] = gen
        return out

    def multiply(self, batch: np.ndarray, gen3: np.ndarray, gen_max: int) -> np.ndarray:
        batch_max = int(np.abs(batch).max(initial=0))
        stage1 = batch_max * gen_max * self.dim * self.phi
        if stage1 >= _LIMIT or stage1 * (2 * self.phi - 1) * self.red_max >= _LIMIT:
            raise Unsuitable("product would overflow")
        conv = np.einsum("facp,cpbm->fabm", batch, gen3)
        return np.tensordot(conv, self.red, axes=([3], [0]))


def run(generators: list[CycMatrix], bound: int) -> tuple[bool, int, dict]:
    """Closure by BFS over the tensor representation.

    Returns (completed, count, stats); count is the element total when
    completed, else the key count reached when the bound was passed.
    """
    mats = list(generators)
    n = mats[0].conductor
    if n % 2:
        n *= 2
        mats = [_lift(m, n) for m in mats]
    for m in mats:
        if m.det().as_root_of_unity() is None:
            raise Unsuitable("generator determinant is not a root of unity")
    eng = _Engine(n, mats[0].dim)

    raw = []
    for m in mats:
        raw.append(_tensor(m, eng.phi))
        raw.append(_tensor(m.inv(), eng.phi))
    gens: list[np.ndarray] = []
    seen_gen: set[bytes] = set()
    for t in raw:
        _, key = eng.canonical(t)
        if key not in seen_gen:
            seen_gen.add(key)
            gens.append(t)
    gen3 = [(eng.expanded(g), int(np.abs(g).max(initial=0))) for g in gens]

    ident = np.zeros((eng.dim, eng.dim, eng.phi), dtype=np.int64)
    for a in range(eng.dim):
        ident[a, a, 0] = 1
    start, start_key = eng.canonical(ident)
    visited: set[bytes] = {start_key}
    frontier = [start]
    products = 0
    peak = 1
    while frontier:
        batch = np.stack(frontier)
        fresh: list[np.ndarray] = []
        for g3, gmax in gen3:
            prods = eng.multiply(batch, g3, gmax)
            products += len(frontier)
            for canon, key in eng.canonical_batch(prods):
                if key not in visited:
                    visited.add(key)
                    fresh.append(canon)
            if len(visited) > bound:
                stats = {"products": products, "peak_frontier": peak, "engine": "fast"}
                return False, len(visited), stats
        peak = max(peak, len(fresh))
        frontier = fresh
    stats = {"products": products, "peak_frontier": peak, "engine": "fast"}
    return True, len(visited), stats
