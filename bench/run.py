"""Run one workload of the b3image benchmark and print its metrics.

From the repository root:

    python3 bench/run.py --workload cascade --seed 1 --seconds 38 --trace 0

The run is one process and one caller: each case starts when the previous
one has returned its checked result.  Whole passes over the workload's case
list repeat until --seconds is used up (at least one pass), each pass with its
own draw of the seed's inputs.  --trace 0 prints the end-to-end metrics;
--trace 1 alternates traced and untraced passes and prints the per-layer
metrics.  Times are reported in reference seconds (see speed.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A run
record (and, traced, the spans) goes to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from speed import MIN_SLICES, REF_SLICE_S, Speedometer
from tracing import NULL_TRACER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one process, one thread: numpy's BLAS and OpenMP pools stay at one thread
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 7
PROBE_SLICES = 10
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cascade", "certify", "refute"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: import, make the cases, print 'ready'
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_workloads():
    if not (SRC / "b3image" / "__init__.py").is_file():
        raise SetupError(f"no b3image sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import b3image

    if not Path(b3image.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported b3image from {b3image.__file__}, not {SRC}")
    import workloads

    return workloads


# -- set-up time -------------------------------------------------------------------


def _probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its cases being ready,
    raw and in reference seconds.  The probe times calibration slices itself;
    their time is taken out of the raw reading."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SetupError("set-up probe did not finish")
    word, *numbers = line.split() or [""]
    if word != "ready" or len(numbers) != 2 or proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {err.strip()}")
    slice_total, slice_mean = map(float, numbers)
    raw = elapsed - slice_total
    return raw, raw * REF_SLICE_S / slice_mean


# -- passes ----------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    intervals: list[tuple[float, float]]  # raw perf_counter start and end per case
    failures: list[tuple[str, list[str]]]
    cases: list
    counts: object
    elapsed: float  # raw seconds from start to end, calibration slices included
    case_times: list[float] = field(default_factory=list)  # reference seconds
    wall: float = 0.0  # reference seconds, the sum of case_times

    @property
    def raw_wall(self) -> float:
        return sum(c1 - c0 for c0, c1 in self.intervals)


def run_pass(w, cases, tracer, speedo: Speedometer) -> Pass:
    counts = w.Counts(operands=tracer.enabled)
    intervals = []
    failures = []
    start = time.perf_counter()
    for case in cases:
        speedo.tick()
        c0 = time.perf_counter()
        try:
            with tracer.span("case." + case.kind, case=case.id):
                problems = w.RUNNERS[case.kind](case, tracer, counts)
        except Exception as exc:  # a raising case is a failed case; keep going
            problems = [f"raised {type(exc).__name__}: {exc}"]
        intervals.append((c0, time.perf_counter()))
        if problems:
            failures.append((case.id, problems))
    elapsed = time.perf_counter() - start
    return Pass(tracer.enabled, intervals, failures, cases, counts, elapsed)


def run_passes(
    w, draw, seconds: float, trace: bool
) -> tuple[list[Pass], object, Speedometer]:
    """Passes until the time is used up; traced runs alternate traced and
    untraced passes, starting traced, and do at least one of each.  Untraced
    pass k runs the case list draw(k), so the run's percentiles do not rest on
    one choice of conjugates; a traced pass and the untraced pass after it
    share a draw.  Case times are converted to reference seconds once the last
    slices are in."""
    tracer = Tracer() if trace else NULL_TRACER
    speedo = Speedometer()
    deadline = time.perf_counter() + seconds
    speedo.take(PROBE_SLICES)
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 0
        cases = draw(len(passes) // 2 if trace else len(passes))
        passes.append(run_pass(w, cases, tracer if traced else NULL_TRACER, speedo))
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() + passes[-1].elapsed > deadline:
            break
    speedo.take(PROBE_SLICES)
    for p in passes:
        p.case_times = [(c1 - c0) * speedo.scale(c0, c1) for c0, c1 in p.intervals]
        p.wall = sum(p.case_times)
    return passes, tracer, speedo


# -- metrics ---------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def end_to_end(
    setup: list[float], raw_setup: list[float], passes: list[Pass]
) -> tuple[dict, dict]:
    """Times in reference seconds; the samples note the raw reading."""
    untraced = [p for p in passes if not p.traced]
    times = [t for p in untraced for t in p.case_times]
    raw_times = [c1 - c0 for p in untraced for c0, c1 in p.intervals]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in untraced),
        "case_ms_p50": statistics.median(times) * 1e3,
        "case_ms_p90": _percentile(times, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": f"{len(setup)} process starts; raw {statistics.median(raw_setup):.4g} s",
        "wall_s": (
            f"{len(untraced)} passes; "
            f"raw {statistics.median(p.raw_wall for p in untraced):.4g} s"
        ),
        "case_ms_p50": f"{len(times)} cases; raw {statistics.median(raw_times) * 1e3:.4g} ms",
        "case_ms_p90": f"{len(times)} cases; raw {_percentile(raw_times, 0.9) * 1e3:.4g} ms",
        "peak_rss_mb": "1 process",
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, samples


def _per_op_ns(pairs: list, op, speedo: Speedometer) -> float:
    """Median time of one op(a, b) over the pairs, in reference ns (0 with no
    pairs)."""
    if not pairs:
        return 0.0
    speedo.take(MIN_SLICES)
    first = start = time.perf_counter()
    for a, b in pairs:
        op(a, b)
    inner = max(1, int(0.02 / max(time.perf_counter() - start, 1e-9)))
    reps = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(inner):
            for a, b in pairs:
                op(a, b)
        reps.append(time.perf_counter() - start)
    last = time.perf_counter()
    speedo.take(MIN_SLICES)
    scale = speedo.scale(first, last)
    return statistics.median(reps) * scale / (inner * len(pairs)) * 1e9


def _entry_pairs(generator_pairs: list, limit: int = 4000) -> list:
    """Neighbouring nonzero entries of each generator pair (same conductor)."""
    pairs = []
    for mats in generator_pairs:
        entries = [v for m in mats for row in m.rows for v in row if not v.is_zero()]
        pairs += zip(entries, entries[1:] + entries[:1])
    return pairs[:limit]


def per_layer(passes: list[Pass], tracer, speedo: Speedometer) -> tuple[dict, dict]:
    """Times in reference seconds, like the end-to-end metrics."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0].counts
    n = len(traced)

    def durations(name: str) -> list[float]:
        return [(e - s) * speedo.scale(s, e) for s, e in tracer.intervals(name)]

    def median_of(name: str, scale: float) -> float:
        d = durations(name)
        return statistics.median(d) * scale if d else 0.0

    def pct_of(name: str, q: float, scale: float) -> float:
        d = durations(name)
        return _percentile(d, q) * scale if d else 0.0

    closure_s = sum(durations("grouporacle.projective_closure")) / n
    counts = first.as_dict()
    products = counts["grouporacle.products"]
    growth = tracer.rss_growth_kb()
    timed = {
        "verdict.classify_us_p50": (median_of("verdict.classify", 1e6), "us"),
        "verdict.classify_us_p99": (pct_of("verdict.classify", 0.99, 1e6), "us"),
        "repforms.spec_us": (median_of("repforms.spec", 1e6), "us"),
        "repforms.validate_us": (median_of("repforms.validate", 1e6), "us"),
        "exactfield.rootofunity_div_ns": (
            _per_op_ns(first.eigenvalue_pairs, operator.truediv, speedo),
            "ns",
        ),
        "exactfield.cycnumber_mul_ns": (
            _per_op_ns(_entry_pairs(first.generator_pairs), operator.mul, speedo),
            "ns",
        ),
        "cyclolinalg.matmul_us": (median_of("cyclolinalg.matmul", 1e6), "us"),
        "grouporacle.check_relation_ms": (
            median_of("grouporacle.check_relation", 1e3),
            "ms",
        ),
        "grouporacle.element_order_ms": (
            median_of("grouporacle.element_projective_order", 1e3),
            "ms",
        ),
        "repforms.build_ms": (median_of("repforms.build", 1e3), "ms"),
        "grouporacle.closure_s": (closure_s, "s"),
        "grouporacle.products_per_s": (
            first.direct_products() / closure_s if closure_s else 0.0,
            "1/s",
        ),
        "grouporacle.new_per_product": (
            counts["grouporacle.visited"] / products if products else 0.0,
            "ratio",
        ),
        "grouporacle.rss_growth_mb_max": (max(growth, default=0) / 1024, "MB"),
        "qgallery.reproduce_ms": (median_of("qgallery.reproduce", 1e3), "ms"),
        "cli.sweep_s": (sum(durations("cli.sweep")) / n, "s"),
        "trace.overhead_frac": (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in untraced)
            - 1,
            "ratio",
        ),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in timed.items()}
    metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    samples = {
        "traced passes": n,
        "untraced passes": len(untraced),
        "spans": len(tracer.spans),
    }
    return metrics, samples


# -- checks and records --------------------------------------------------------------


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("b3image/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update((BENCH / "reference.json").read_bytes())
    return h.hexdigest()[:16]


def check_counts(passes: list[Pass], workload: str, seed: int) -> list[str]:
    """Counts must repeat in every pass, and in every run of the same code
    with the same seed in this checkout."""
    first = passes[0].counts.as_dict()
    problems = [
        f"pass {i} counts differ from pass 0"
        for i, p in enumerate(passes)
        if p.counts.as_dict() != first
    ]
    path = OUT / f"counts-{workload}-seed{seed}-{_code_digest()}.json"
    if path.is_file():
        try:
            earlier = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            earlier = None
        if earlier is not None and earlier != first:
            changed = sorted(k for k in first if earlier.get(k) != first[k])
            problems.append(f"counts differ from an earlier run with this seed: {changed}")
    else:
        _write_json(path, first)
    return problems


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- main ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        # the probe calibrates itself, on whichever CPU it runs: one warm-up
        # slice, slices before and after the set-up, all reported to the parent
        probe_speedo = Speedometer()
        probe_speedo.take(1 + PROBE_SLICES)
    try:
        w = _import_workloads()
        ref = w.load_reference()
        cases = w.build_cases(args.workload, args.seed, ref)
        if args.setup_probe:
            probe_speedo.take(PROBE_SLICES)
            slices = [d for _, d in probe_speedo.samples]
            print(f"ready {sum(slices)!r} {statistics.fmean(slices[1:])!r}", flush=True)
            return 0
        # set-up is an end-to-end metric, measured only by untraced runs
        probes = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
        raw_setup = [raw for raw, _ in probes]
        setup = [t for _, t in probes]
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def draw(k: int) -> list:
        return cases if k == 0 else w.build_cases(args.workload, args.seed, ref, k)

    passes, tracer, speedo = run_passes(w, draw, args.seconds, bool(args.trace))
    if args.trace:
        metrics, samples = per_layer(passes, tracer, speedo)
    else:
        metrics, samples = end_to_end(setup, raw_setup, passes)

    known = ref["known_disagreements"]
    attempted = sum(len(p.cases) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    unexpected = sorted(
        {
            (cid, "; ".join(problems))
            for p in passes
            for cid, problems in p.failures
            if cid not in known or any(not s.startswith("agreement:") for s in problems)
        }
    )
    count_problems = check_counts(passes, args.workload, args.seed)
    correct = not unexpected and not count_problems

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)}  cases/pass {len(cases)}"
    )
    for name, m in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        print("samples: " + ", ".join(f"{k} {v}" for k, v in samples.items()))
    print(f"failed_frac {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for cid in sorted({cid for p in passes for cid, _ in p.failures if cid in known}):
        print(f"known disagreement {cid}: {known[cid]}")
    for cid, why in unexpected:
        print(f"UNEXPECTED {cid}: {why}")
    for problem in count_problems:
        print(f"COUNTS {problem}")

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "timings": "reference seconds (see speed.py); raw_* are perf_counter seconds",
        "slices": {"count": len(speedo.samples), "median_s": speedo.slice_median()},
        "setup_probes_s": setup,
        "setup_probes_raw_s": raw_setup,
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall,
                "raw_wall_s": p.raw_wall,
                "case_s": {c.id: t for c, t in zip(p.cases, p.case_times)},
                "case_raw_s": {c.id: c1 - c0 for c, (c0, c1) in zip(p.cases, p.intervals)},
            }
            for p in passes
        ],
        "metrics": metrics,
        "samples": samples,
        "counts": passes[0].counts.as_dict(),
        "closures": passes[0].counts.closures,
        "failed_cases": sorted({cid for p in passes for cid, _ in p.failures}),
        "correct": correct,
    }
    _write_json(OUT / f"run-{name}.json", record)
    if args.trace:
        _write_json(
            OUT / f"spans-{name}.json",
            {"self_s": tracer.self_times(), "spans": tracer.spans},
        )
    print(f"record .bench_out/run-{name}.json")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
