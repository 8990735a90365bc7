"""The three workloads: case lists made from a seed, and the code that runs
one case and checks its result against reference.json.

Every case goes through b3image's public API only.  A case returns the list
of its mismatches against the reference (empty when it is correct) and adds
its deterministic counts (closure products, verdict kinds, ...) to the pass's
Counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from b3image import (
    COMPLETED,
    EXCEEDED,
    EigenSpec,
    RootOfUnity,
    Word,
    block_spec,
    build_d3,
    build_d4_block,
    build_so9,
    check_relation,
    classify,
    element_projective_order,
    projective_closure,
    reproduce,
    validate_spec,
)
from b3image.cli import main as cli_main
from b3image.errors import InvalidSpec
from b3image.exactfield import ONE

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("cascade", "certify", "refute")

# closure bounds; reference.json was made with these values
CERTIFY_BOUND = 100000
REFUTE_BOUND = 100
GALLERY_REFUTE_BOUND = 5000
ELEMENT_ORDER_BOUND = 1000

SWEEPS = ((3, 30), (4, 24), (5, 18))
# candidate spec-only rows; reference.json keeps those where the family is defined
CASCADE_GALLERY = [("G2", ell) for ell in range(10, 31)] + [
    ("F4", ell) for ell in range(15, 31)
]
CERTIFY_GALLERY = (("SO7spin", 14), ("SO7spin", 18), ("SO9spin", 18), ("SO9spin", 22))
REFUTE_GALLERY = (("SO7spin", 16), ("SO9spin", 20), ("SO9spin", 24))
ELEMENT_ORDER_BLOCKS = (7, 8, 9, 11)

# Galois orbits of d3 spectra whose braid relation certify checks.  With 18
# braid cases certify's median case falls inside a run of equal-cost closures;
# with 30 it fell on the jump between two such runs and moved by a third.
BRAID_VALID, BRAID_REJECTED = 15, 3

_A, _B = Word.gen(0), Word.gen(1)
_S, _T = _A, _A * _B * _A
# the PSL(2,11) presentation S^11 = T^2 = (S^4 T S^6 T)^2 = 1 on so9(22)
RELATIONS = {
    "S^11": _S**11,
    "T^2": _T**2,
    "(S^4 T S^6 T)^2": (_S**4 * _T * _S**6 * _T) ** 2,
}


def roots_up_to(max_order: int) -> list[RootOfUnity]:
    """Every root of unity of order <= max_order, by order then exponent."""
    return [
        RootOfUnity(Fraction(k, n))
        for n in range(1, max_order + 1)
        for k in range(n)
        if Fraction(k, n).denominator == n
    ]


def d3_pairs() -> list[tuple[RootOfUnity, RootOfUnity]]:
    """Normalized d3 spectra {1, theta, phi}, eigenvalue orders <= 12."""
    roots = [r for r in roots_up_to(12) if not r.is_one()]
    return [(t, p) for i, t in enumerate(roots) for p in roots[i + 1 :]]


def d4_blocks() -> list[tuple[RootOfUnity, int]]:
    """Block-builder parameters (u, D): u of order <= 24, not a 4th root of unity."""
    return [
        (u, sign)
        for u in roots_up_to(24)
        if u.order not in (1, 2, 4)
        for sign in (1, -1)
    ]


def d3_key(theta: RootOfUnity, phi: RootOfUnity) -> str:
    return f"{theta},{phi}"


def d4_key(u: RootOfUnity, sign: int) -> str:
    return f"{u},{sign:+d}"


def load_reference() -> dict:
    """reference.json with its column tables turned into {key: entry} dicts."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    for name in ("classify", "d3", "d4"):
        cols = ref[name]["cols"]
        ref[name] = {row[0]: dict(zip(cols, row)) for row in ref[name]["rows"]}
    return ref


# -- cases ----------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    id: str
    kind: str
    args: tuple
    expect: dict


def orbits(entries: dict, keep=lambda e: True) -> list[list[str]]:
    """Member keys of each Galois orbit, orbits ordered by conductor.

    Galois conjugates have the same conductor, verdict and closure order, and
    their closures multiply as many matrices, so a seed that only chooses
    which conjugate represents each orbit changes the inputs but not the
    amount of work.
    """
    groups: dict[str, list[str]] = {}
    for key, e in entries.items():
        if keep(e):
            groups.setdefault(e["orbit"], []).append(key)
    order = sorted(groups, key=lambda o: (entries[groups[o][0]]["conductor"], o))
    return [sorted(groups[o]) for o in order]


def _spread(items: list, k: int) -> list:
    """k items evenly spaced through the list (the same for every seed)."""
    return [items[i * len(items) // k] for i in range(k)]


def build_cases(workload: str, seed: int, ref: dict, draw: int = 0) -> list[Case]:
    """The workload's case list; the same seed and draw always give the same
    list.  Draws of one seed differ only in which conjugate stands for each
    orbit, so their closures multiply as many matrices."""
    rng = random.Random(f"{workload}:{seed}:{draw}")
    if workload == "cascade":
        return _cascade_cases(rng, ref)
    if workload == "certify":
        return _certify_cases(rng, ref)
    if workload == "refute":
        return _refute_cases(rng, ref)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _gallery_case(ref: dict, family: str, ell: int, bound: int | None) -> Case:
    key = f"{family}/{ell}"
    return Case(f"gallery/{key}", "gallery", (family, ell, bound), ref["gallery"][key])


def _cascade_cases(rng: random.Random, ref: dict) -> list[Case]:
    cases = []
    for members in orbits(ref["classify"]):
        e = ref["classify"][rng.choice(members)]
        args = (tuple(e["eigenvalues"]), e["d_sign"], e["gamma"])
        cases.append(Case(f"classify/{e['id']}", "classify", args, e))
    for dim, max_order in SWEEPS:
        key = f"d{dim}/{max_order}"
        cases.append(Case(f"sweep/{key}", "sweep", (dim, max_order), ref["sweeps"][key]))
    cases += [
        Case(f"gallery/{key}", "gallery", tuple(e["row"]) + (None,), e)
        for key, e in ref["gallery"].items()
        if e["row"][0] in ("G2", "F4")
    ]
    return cases


def _certify_cases(rng: random.Random, ref: dict) -> list[Case]:
    finite = lambda e: e["kind"] == "Finite"
    cases = [
        Case(f"closure/d3/{key}", "closure_d3", (key,), ref["d3"][key])
        for members in orbits(ref["d3"], finite)
        for key in members
    ]
    cases += [
        Case(f"closure/d4/{key}", "closure_d4", (key,), ref["d4"][key])
        for members in orbits(ref["d4"], finite)
        for key in members
    ]
    cases += [_gallery_case(ref, f, ell, None) for f, ell in CERTIFY_GALLERY]
    valid = orbits(ref["d3"], lambda e: e["validate"] == "Valid")
    rejected = orbits(ref["d3"], lambda e: e["validate"] != "Valid")
    for members in _spread(valid, BRAID_VALID) + _spread(rejected, BRAID_REJECTED):
        key = rng.choice(members)
        cases.append(Case(f"braid/d3/{key}", "braid", (key,), ref["d3"][key]))
    cases += [
        Case(f"relation/so9-22/{name}", "relation", (name,), {"holds": True})
        for name in RELATIONS
    ]
    return cases


def _refute_cases(rng: random.Random, ref: dict) -> list[Case]:
    infinite = lambda e: e["kind"] == "Infinite"
    cases = []
    for dim in ("d3", "d4"):
        for members in orbits(ref[dim], infinite):
            key = rng.choice(members)
            cases.append(Case(f"closure/{dim}/{key}", f"closure_{dim}", (key,), ref[dim][key]))
    cases += [_gallery_case(ref, f, ell, GALLERY_REFUTE_BOUND) for f, ell in REFUTE_GALLERY]
    cases += [
        Case(f"order/d4/1/{n},-1", "element_order", (n,), {"order": EXCEEDED})
        for n in ELEMENT_ORDER_BLOCKS
    ]
    return cases


# -- running one case -----------------------------------------------------------


@dataclass
class Counts:
    """Deterministic per-pass counts.  With `operands` set (traced passes
    only) it also keeps the eigenvalue pairs and generator pairs that the
    traced run's micro-timings reuse; untraced passes keep nothing that
    grows with the number of passes."""

    operands: bool = False
    # case id -> outcome, order, bound, products, peak frontier, engine, and
    # whether the benchmark called projective_closure itself
    closures: dict[str, dict] = field(default_factory=dict)
    kinds: Counter = field(default_factory=Counter)
    build_rejected: int = 0
    disagreements: int = 0
    sweep_rows: int = 0
    eigenvalue_pairs: list = field(default_factory=list)
    generator_pairs: list = field(default_factory=list)

    def closure(self, case_id: str, result, direct: bool) -> None:
        self.closures[case_id] = {
            "outcome": result.outcome,
            "order": result.order,
            "bound": result.bound,
            "products": result.stats["products"],
            "peak_frontier": result.stats["peak_frontier"],
            "engine": result.stats["engine"],
            "direct": direct,
        }

    def direct_products(self) -> int:
        return sum(c["products"] for c in self.closures.values() if c["direct"])

    def spec(self, spec: EigenSpec) -> None:
        if self.operands:
            lam = spec.eigenvalues
            self.eigenvalue_pairs += [(a, b) for a in lam for b in lam if a is not b]

    def generators(self, gens) -> None:
        if self.operands:
            self.generator_pairs.append(gens)

    def as_dict(self) -> dict:
        closures = self.closures.values()
        # an ExceededBound result proves bound + 1 distinct elements
        visited = (
            c["order"] if c["outcome"] == COMPLETED else c["bound"] + 1 for c in closures
        )
        out = {
            "grouporacle.products": sum(c["products"] for c in closures),
            "grouporacle.visited": sum(visited),
            "grouporacle.peak_frontier_max": max(
                (c["peak_frontier"] for c in closures), default=0
            ),
            "repforms.build_rejected": self.build_rejected,
            "qgallery.disagreements": self.disagreements,
            "cli.sweep_rows": self.sweep_rows,
        }
        engines = Counter(c["engine"] for c in closures)
        for label in ("fast", "fast-modp", "exact"):
            out[f"grouporacle.engine.{label}"] = engines.get(label, 0)
        for kind in ("Finite", "Infinite", "Undecidable", "NotIrreducible"):
            out[f"verdict.kind.{kind}"] = self.kinds.get(kind, 0)
        return out


def _diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, reference {want!r}"]


def _check_verdict(verdict, expect: dict) -> list[str]:
    return (
        _diff("kind", verdict.kind, expect["kind"])
        + _diff("rule", verdict.rule, expect["rule"])
        + _diff("po", verdict.po, expect["po"])
    )


def _spec_and_verdict(spec_fn, case: Case, tr, counts: Counts):
    with tr.span("repforms.spec"):
        spec = spec_fn()
    counts.spec(spec)
    problems = []
    if case.expect["validate"] is not None:
        with tr.span("repforms.validate"):
            status = validate_spec(spec).status
        problems += _diff("validate", status, case.expect["validate"])
    with tr.span("verdict.classify"):
        verdict = classify(spec)
    counts.kinds[verdict.kind] += 1
    return verdict, problems + _check_verdict(verdict, case.expect)


def run_classify(case: Case, tr, counts: Counts) -> list[str]:
    eigs, d_sign, gamma = case.args
    _, problems = _spec_and_verdict(
        lambda: EigenSpec.from_exponents(list(eigs), d_sign=d_sign, gamma=gamma),
        case,
        tr,
        counts,
    )
    return problems


def run_sweep(case: Case, tr, counts: Counts) -> list[str]:
    dim, max_order = case.args
    out = io.StringIO()
    with tr.span("cli.sweep"), contextlib.redirect_stdout(out):
        code = cli_main(["sweep", "--dim", str(dim), "--max-order", str(max_order)])
    text = out.getvalue()
    rows = text.splitlines()[1:]
    counts.sweep_rows += len(rows)
    kinds = Counter(row.rsplit(",", 1)[1] for row in rows)
    counts.kinds.update(kinds)
    want = case.expect
    return (
        _diff("exit code", code, 0)
        + _diff("rows", len(rows), want["rows"])
        + _diff("kinds", dict(sorted(kinds.items())), want["kinds"])
        + _diff("sha256", hashlib.sha256(text.encode()).hexdigest(), want["sha256"])
    )


def _check_closure(result, verdict, want: dict) -> list[str]:
    problems = _diff("closure", [result.outcome, result.order], want["closure"])
    # cross-layer rules: a Finite verdict must complete, an Infinite one must
    # pass the bound
    if verdict.kind == "Finite" and result.outcome != COMPLETED:
        problems.append(f"Finite verdict but closure {result.outcome}")
    if verdict.kind == "Infinite" and result.outcome != EXCEEDED:
        problems.append(f"Infinite verdict but closure {result.outcome}")
    return problems


def _run_closure(case: Case, tr, counts: Counts, spec_fn, build_fn) -> list[str]:
    verdict, problems = _spec_and_verdict(spec_fn, case, tr, counts)
    with tr.span("repforms.build"):
        gens = build_fn()
    counts.generators(gens)
    with tr.span("grouporacle.projective_closure", rss=True):
        result = projective_closure(list(gens), case.expect["bound"])
    counts.closure(case.id, result, direct=True)
    return problems + _check_closure(result, verdict, case.expect)


def _d3_parse(key: str) -> tuple[RootOfUnity, RootOfUnity]:
    theta, phi = key.split(",")
    return RootOfUnity.parse(theta), RootOfUnity.parse(phi)


def run_closure_d3(case: Case, tr, counts: Counts) -> list[str]:
    theta, phi = _d3_parse(case.args[0])
    return _run_closure(
        case,
        tr,
        counts,
        lambda: EigenSpec(3, (ONE, theta, phi)),
        lambda: build_d3(theta, phi),
    )


def run_closure_d4(case: Case, tr, counts: Counts) -> list[str]:
    u_text, sign_text = case.args[0].split(",")
    u, sign = RootOfUnity.parse(u_text), int(sign_text)
    return _run_closure(
        case, tr, counts, lambda: block_spec(u, sign), lambda: build_d4_block(u, sign)
    )


def run_gallery(case: Case, tr, counts: Counts) -> list[str]:
    family, ell, bound = case.args
    kwargs = {} if bound is None else {"bound": bound}
    with tr.span("qgallery.reproduce", rss=True):
        report = reproduce(family, ell, **kwargs)
    counts.spec(report.spec)
    counts.kinds[report.verdict.kind] += 1
    want = case.expect
    problems = _check_verdict(report.verdict, want)
    if report.closure is None:
        problems += _diff("closure", None, want["closure"])
    else:
        counts.closure(case.id, report.closure, direct=False)
        problems += _diff(
            "closure", [report.closure.outcome, report.closure.order], want["closure"]
        )
    if not report.agreement:
        counts.disagreements += 1
        problems.append("agreement: got False, the recorded claim needs True")
    return problems


def run_braid(case: Case, tr, counts: Counts) -> list[str]:
    theta, phi = _d3_parse(case.args[0])
    with tr.span("repforms.spec"):
        spec = EigenSpec(3, (ONE, theta, phi))
    counts.spec(spec)
    with tr.span("repforms.validate"):
        status = validate_spec(spec).status
    problems = _diff("validate", status, case.expect["validate"])
    must_reject = case.expect["validate"] != "Valid"
    try:
        with tr.span("repforms.build"):
            a, b = build_d3(theta, phi)
    except InvalidSpec:
        counts.build_rejected += 1
        return problems + _diff("builder rejected", True, must_reject)
    counts.generators((a, b))
    with tr.span("cyclolinalg.matmul"):
        ab = a * b
    with tr.span("cyclolinalg.matmul"):
        aba = ab * a
    with tr.span("cyclolinalg.matmul"):
        ba = b * a
    with tr.span("cyclolinalg.matmul"):
        bab = ba * b
    return problems + _diff("builder rejected", False, must_reject) + _diff(
        "ABA == BAB", aba == bab, True
    )


def run_relation(case: Case, tr, counts: Counts) -> list[str]:
    with tr.span("repforms.build"):
        gens = build_so9(22)
    counts.generators(gens)
    with tr.span("grouporacle.check_relation"):
        holds = check_relation(list(gens), RELATIONS[case.args[0]], Word(()))
    return _diff("relation holds", holds, case.expect["holds"])


def run_element_order(case: Case, tr, counts: Counts) -> list[str]:
    with tr.span("repforms.build"):
        gens = build_d4_block(RootOfUnity.of(1, case.args[0]), -1)
    counts.generators(gens)
    with tr.span("grouporacle.element_projective_order"):
        order = element_projective_order(list(gens), _A * _B.inverse(), ELEMENT_ORDER_BOUND)
    return _diff("order of AB^-1", order, case.expect["order"])


RUNNERS = {
    "classify": run_classify,
    "sweep": run_sweep,
    "gallery": run_gallery,
    "closure_d3": run_closure_d3,
    "closure_d4": run_closure_d4,
    "braid": run_braid,
    "relation": run_relation,
    "element_order": run_element_order,
}
