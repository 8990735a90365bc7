"""numpy-accelerated closure engine.

Matrices become int64 coordinate tensors over the power basis of Z[zeta_n],
and projective identification minimizes over the finite scalar orbit
{zeta_n^k * M : 0 <= k < n}.  That orbit is a complete set of projective
representatives whenever the generators are integral with root-of-unity
determinants: any scalar c relating two products P = c*Q of such matrices
satisfies c^dim = det(P)/det(Q), a root of unity, so c is itself a root of
unity lying in Q(zeta_n), hence a power of zeta_n once n is even.

The canonical form is the orbit element least under the key (h(lead),
flattened coordinates), where lead is the first nonzero entry and
h(v) = (sum_i w_i * v_i) mod _P, with w_i = _W**(i+1) mod _P, hashes its
coordinates.  Every orbit element has its first nonzero entry in the same
place, so the flattened coordinates of zeta^k * M compare as those of
zeta^k * lead; and for lead != 0 the n values zeta^k * lead are pairwise
distinct (zeta^j * lead = zeta^k * lead forces zeta^(j-k) = 1).  So exactly
one k minimizes the key, and the form is unique for any choice of w and _P:
the hash orders the orbit cheaply, and the lexicographic narrowing runs only
on the rows whose least hash ties.  h is linear mod _P, so all n hashes of a
batch row come from one integer matmul of (lead mod _P) against the table
h(zeta^(k+c)), each value below phi * _P**2; the engine refuses a conductor
where phi * (_P - 1)**2 reaches the int64 guard.

BFS multiplies on the right by one generator per projective class, never an
inverse (see grouporacle for why), each product one integer matmul against
the generator's table of right multiplication.  Arithmetic is plain int64
with overflow guards, so Completed and Exceeded outcomes are fully trusted.

Everything here is an internal accelerator.  grouporacle falls back to the
exact CycMatrix engine when Unsuitable is raised; completed outcomes always
describe the identical element set.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cyclolinalg import CycMatrix
from .exactfield import CycNumber, _ctx

# keep one bit of headroom below the int64 ceiling
_LIMIT = 1 << 62
# the canonical form's coordinate hash: a prime modulus and the base of its weights
_P = 33_554_393
_W = 19_260_817


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
        self.dim = dim
        self.phi = phi = ctx.phi
        rows = np.array(ctx.powrows[: conductor + phi - 1], dtype=np.int64)
        # window[k, c, i] = coordinate c of zeta^(k+i)
        window = sliding_window_view(rows, phi, axis=0)
        # scalar orbit: scal[k][i] = coords of zeta^(k+i)
        self.scal = window.transpose(0, 2, 1)
        self.scal_max = int(np.abs(rows).max())
        # scal_cols[i][j, k] = coordinate i of zeta^(k+j)
        self.scal_cols = window.transpose(1, 2, 0)
        if phi * (_P - 1) ** 2 >= _LIMIT:
            raise Unsuitable("coordinate hash would overflow")
        weights = np.array([pow(_W, i + 1, _P) for i in range(phi)], dtype=np.int64)
        # hash_table[c, k] = h(zeta^(k+c)), a window over the hashes of zeta^m
        hashes = (rows % _P) @ weights % _P
        self.hash_table = sliding_window_view(hashes, conductor)

    def canonical_batch(self, mats: np.ndarray) -> np.ndarray:
        """Orbit-minimal form of each matrix in the batch."""
        if int(np.abs(mats).max(initial=0)) * self.scal_max * self.phi >= _LIMIT:
            raise Unsuitable("scalar orbit would overflow")
        flat = mats.reshape(len(mats), -1, self.phi)
        lead = flat[np.arange(len(mats)), flat.any(axis=2).argmax(axis=1)]
        # h(zeta^k * lead) for every k at once
        hashed = (lead % _P) @ self.hash_table
        hashed %= _P
        cand = hashed == hashed.min(axis=1, keepdims=True)
        ties = np.flatnonzero(cand.sum(axis=1) > 1)
        if len(ties):
            # narrow the tied k one coordinate of zeta^k * lead at a time;
            # the guard keeps every candidate value below _LIMIT
            tied, tied_lead = cand[ties], lead[ties]
            for cols in self.scal_cols:
                vals = np.where(tied, tied_lead @ cols, _LIMIT)
                tied = vals == vals.min(axis=1, keepdims=True)
                if tied.sum(axis=1).max() == 1:
                    break
            cand[ties] = tied
        return (flat @ self.scal[cand.argmax(axis=1)]).reshape(mats.shape)

    def table(self, gen: np.ndarray) -> tuple[np.ndarray, int]:
        """Right multiplication by gen as one (d*phi) x (d*phi) matrix: the
        entry at row (c, p), column (b, i) is coordinate i of zeta^p * gen[c, b]."""
        d, phi = self.dim, self.phi
        if int(np.abs(gen).max(initial=0)) * self.scal_max * phi >= _LIMIT:
            raise Unsuitable("multiplication table would overflow")
        table = np.einsum("cbj,pji->cpbi", gen, self.scal[:phi])
        table = table.reshape(d * phi, d * phi)
        return table, int(np.abs(table).max(initial=0))

    def multiply(self, batch: np.ndarray, table: np.ndarray, table_max: int) -> np.ndarray:
        d, phi = self.dim, self.phi
        if int(np.abs(batch).max(initial=0)) * table_max * d * phi >= _LIMIT:
            raise Unsuitable("product would overflow")
        return (batch.reshape(-1, d, d * phi) @ table).reshape(batch.shape)


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

    ident = np.zeros((1, eng.dim, eng.dim, eng.phi), dtype=np.int64)
    ident[0, :, :, 0] = np.eye(eng.dim, dtype=np.int64)
    frontier = eng.canonical_batch(ident)
    visited: set[bytes] = {frontier.tobytes()}
    stats = {"products": 0, "peak_frontier": 1, "engine": "fast"}
    while len(frontier):
        fresh: list[np.ndarray] = []
        for table, table_max in tables:
            canon = eng.canonical_batch(eng.multiply(frontier, table, table_max))
            stats["products"] += len(frontier)
            keys = canon.tobytes()
            step = len(keys) // len(canon)
            new = []
            for i in range(len(canon)):
                key = keys[i * step : (i + 1) * step]
                if key not in visited:
                    visited.add(key)
                    new.append(i)
            fresh.append(canon[new])
            if len(visited) > bound:
                return False, len(visited), stats
        frontier = np.concatenate(fresh)
        stats["peak_frontier"] = max(stats["peak_frontier"], len(frontier))
    return True, len(visited), stats
