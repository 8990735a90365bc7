"""Write bench/reference.json: the expected outcome of every case any seed
can draw.

Run from the repository root:

    python3 bench/make_reference.py

The outcomes come from b3image itself, so the file pins the behaviour of the
commit it was made at.  Before writing, the script checks what does not
depend on that commit: a Finite verdict must give a Completed closure and an
Infinite verdict an ExceededBound one, the orders the acceptance gate
certifies (168, 660) must come out, and the gallery rows that contradict
their recorded claim must be exactly the two known ones.  Regenerate only
when a change is meant to alter an outcome, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from b3image import (  # noqa: E402
    COMPLETED,
    EXCEEDED,
    FAMILIES,
    EigenSpec,
    RootOfUnity,
    block_spec,
    build_d3,
    build_d4_block,
    classify,
    projective_closure,
    reproduce,
    validate_spec,
)
from b3image.cli import main as cli_main  # noqa: E402
from b3image.exactfield import ONE, spec_conductor  # noqa: E402
from b3image.repforms import galois_image  # noqa: E402

import workloads as w  # noqa: E402

# the classify pool: orders an eigenvalue may have, orbits per stratum, and
# Galois conjugates kept per orbit
POOL_SEED = 2008
POOL_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 24, 30)
POOL_ORBITS = 35
POOL_CONJUGATES = 4
STRATA = {
    "d2": (2, None, False),
    "d3": (3, None, False),
    "d4+": (4, 1, False),
    "d4-": (4, -1, False),
    "d4none": (4, None, False),
    "d5": (5, None, False),
    "d5gamma": (5, None, True),
}
KNOWN_DISAGREEMENTS = {
    "G2/24": "the claim derives an infinite image from repeated eigenvalues, "
    "but the realised spectrum is distinct and lands in the dim-4 gap "
    "(Undecidable)",
    "SO7spin/16": "the expectation marks ell/2=8 as exempt and encodes it as "
    "Undecidable, but the cascade answers Infinite (po=16)",
}
CLOSURE_COLS = ("key", "orbit", "conductor", "validate", "kind", "rule", "po", "bound", "closure")
CLASSIFY_COLS = (
    "id", "orbit", "conductor", "eigenvalues", "d_sign", "gamma", "validate", "kind", "rule", "po",
)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {message}")


def _verdict_fields(verdict) -> dict:
    return {"kind": verdict.kind, "rule": verdict.rule, "po": verdict.po}


def _units(n: int) -> list[int]:
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def _orbit_key(exponents, n: int) -> tuple:
    """Least sorted exponent tuple over the Galois action x -> a*x mod 1."""
    return min(tuple(sorted((a * e) % 1 for e in exponents)) for a in _units(n) or [1])


def _classify_entry(spec, orbit: str, ident: str) -> dict:
    status = None
    if not (spec.dim == 4 and spec.d_sign is None):
        status = validate_spec(spec).status
    return {
        "id": ident,
        "orbit": orbit,
        "conductor": spec.conductor(),
        "eigenvalues": [str(r) for r in spec.eigenvalues],
        "d_sign": spec.d_sign,
        "gamma": None if spec.gamma is None else str(spec.gamma),
        "validate": status,
        **_verdict_fields(classify(spec)),
    }


def classify_pool() -> list[dict]:
    """Up to POOL_ORBITS random normalized spectra per stratum, each with up to
    POOL_CONJUGATES - 1 Galois conjugates (choices transported)."""
    rng = random.Random(POOL_SEED)
    pool = []
    for name, (dim, d_sign, with_gamma) in STRATA.items():
        seen = set()
        # d2 has only one orbit per eigenvalue order, fewer than POOL_ORBITS
        for _ in range(100 * POOL_ORBITS):
            if len(seen) == POOL_ORBITS:
                break
            exps = set()
            while len(exps) < dim - 1:
                n = rng.choice(POOL_ORDERS)
                exps.add(Fraction(rng.randrange(1, n), n))
            gamma = None
            if with_gamma:
                det = sum(exps, Fraction(0))
                gamma = RootOfUnity((det + rng.randrange(5)) / 5)
            eigs = (ONE,) + tuple(RootOfUnity(e) for e in sorted(exps))
            spec = EigenSpec(dim, eigs, d_sign=d_sign, gamma=gamma)
            key = _orbit_key(spec.exponents(), spec.conductor())
            if key in seen:
                continue
            seen.add(key)
            orbit = f"{name}-{len(seen) - 1:02d}"
            members = {spec.eigenvalues: spec}
            units = _units(spec.conductor())
            rng.shuffle(units)
            for a in units:
                if len(members) == POOL_CONJUGATES:
                    break
                image = galois_image(spec, a)
                members.setdefault(image.eigenvalues, image)
            for i, member in enumerate(members.values()):
                pool.append(_classify_entry(member, orbit, f"{orbit}.{i}"))
    return pool


def sweeps() -> dict:
    out = {}
    for dim, max_order in w.SWEEPS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["sweep", "--dim", str(dim), "--max-order", str(max_order)])
        _require(code == 0, f"sweep d{dim}/{max_order} exited {code}")
        text = buf.getvalue()
        rows = text.splitlines()[1:]
        kinds = Counter(row.rsplit(",", 1)[1] for row in rows)
        out[f"d{dim}/{max_order}"] = {
            "rows": len(rows),
            "kinds": dict(sorted(kinds.items())),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    return out


def _closure_entry(spec, build, conductor: int, orbit: str) -> dict:
    verdict = classify(spec)
    entry = {
        "orbit": orbit,
        "conductor": conductor,
        "validate": validate_spec(spec).status,
        **_verdict_fields(verdict),
        "bound": None,
        "closure": None,
    }
    if verdict.kind in ("Finite", "Infinite"):
        bound = w.CERTIFY_BOUND if verdict.kind == "Finite" else w.REFUTE_BOUND
        result = projective_closure(list(build()), bound)
        want = COMPLETED if verdict.kind == "Finite" else EXCEEDED
        _require(result.outcome == want, f"{spec}: {verdict.kind} but {result.outcome}")
        entry["bound"] = bound
        entry["closure"] = [result.outcome, result.order]
    return entry


def d3_entries() -> dict:
    out = {}
    for t, p in w.d3_pairs():
        n = spec_conductor((t, p))
        orbit = ",".join(str(RootOfUnity(e)) for e in _orbit_key((t.exponent, p.exponent), n))
        spec = EigenSpec(3, (ONE, t, p))
        out[w.d3_key(t, p)] = _closure_entry(spec, lambda: build_d3(t, p), n, orbit)
    return out


def d4_entries() -> dict:
    out = {}
    for u, s in w.d4_blocks():
        n = spec_conductor((u,))
        orbit = w.d4_key(RootOfUnity(_orbit_key((u.exponent,), n)[0]), s)
        spec = block_spec(u, s)
        out[w.d4_key(u, s)] = _closure_entry(spec, lambda: build_d4_block(u, s), n, orbit)
    return out


def _check_orbits(entries: dict, fields: tuple[str, ...]) -> None:
    """Galois conjugates must share every listed outcome."""
    seen: dict[str, tuple] = {}
    for key, e in entries.items():
        outcome = tuple(json.dumps(e[f]) for f in fields)
        _require(seen.setdefault(e["orbit"], outcome) == outcome, f"orbit of {key} splits")


def gallery() -> dict:
    rows = [(f, ell, None) for f, ell in w.CASCADE_GALLERY if FAMILIES[f].valid(ell)]
    rows += [(f, ell, None) for f, ell in w.CERTIFY_GALLERY]
    rows += [(f, ell, w.GALLERY_REFUTE_BOUND) for f, ell in w.REFUTE_GALLERY]
    out = {}
    for family, ell, bound in rows:
        report = reproduce(family, ell, **({} if bound is None else {"bound": bound}))
        closure = report.closure
        key = f"{family}/{ell}"
        out[key] = {
            "row": [family, ell],
            **_verdict_fields(report.verdict),
            "closure": None if closure is None else [closure.outcome, closure.order],
        }
        known = key in KNOWN_DISAGREEMENTS
        _require(report.agreement != known, f"{key}: agreement={report.agreement}")
    _require(out["SO7spin/14"]["closure"] == [COMPLETED, 168], "so7(14) is not 168")
    _require(out["SO9spin/22"]["closure"] == [COMPLETED, 660], "so9(22) is not 660")
    return out


def main() -> None:
    pool = {e["id"]: e for e in classify_pool()}
    d3, d4 = d3_entries(), d4_entries()
    _check_orbits(pool, ("kind", "rule", "po"))
    _check_orbits(d3, ("kind", "rule", "po", "validate", "closure"))
    _check_orbits(d4, ("kind", "rule", "po", "validate", "closure"))
    ref = {
        "note": "expected outcomes for bench/run.py; made by bench/make_reference.py",
        "classify": _columns(CLASSIFY_COLS, pool),
        "sweeps": sweeps(),
        "d3": _columns(CLOSURE_COLS, d3),
        "d4": _columns(CLOSURE_COLS, d4),
        "gallery": gallery(),
        "known_disagreements": {
            f"gallery/{key}": why for key, why in KNOWN_DISAGREEMENTS.items()
        },
    }
    finite = sum(e["kind"] == "Finite" for e in d3.values())
    print(f"d3 spectra: {len(d3)}, Finite: {finite}", file=sys.stderr)
    w.REFERENCE.write_text(_dump(ref), encoding="utf-8")


def _columns(cols: tuple[str, ...], entries: dict) -> dict:
    """A table as column names plus one row per entry, the key first."""
    rows = [[key] + [e[c] for c in cols[1:]] for key, e in entries.items()]
    return {"cols": list(cols), "rows": rows}


def _dump(ref: dict) -> str:
    """JSON with one table row or entry per line, so diffs stay readable."""
    parts = []
    for key, table in ref.items():
        if isinstance(table, dict) and "rows" in table:
            rows = ",\n".join("  " + json.dumps(row) for row in table["rows"])
            body = f'{{"cols": {json.dumps(table["cols"])}, "rows": [\n{rows}\n]}}'
        elif isinstance(table, dict):
            body = "{\n" + ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in table.items()
            ) + "\n}"
        else:
            body = json.dumps(table)
        parts.append(f"{json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
