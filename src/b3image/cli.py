"""Command-line front end.

Four subcommands: `classify` runs the decision cascade on a spectrum given as
exact exponents, `closure` enumerates the projective group of the Tuba-Wenzl
pair `build(spec)` of a spectrum given the same way, `qg` reproduces a
quantum-group gallery row, and `sweep` classifies every normalized spectrum up
to a given eigenvalue order and writes the table.  `closure` refuses a
spectrum that `validate_spec` finds RepeatedEigenvalues or ExistenceFails.

Exit codes: 0 = result produced, 2 = input error, 3 = a closure exceeded its
bound (the partial result is still printed), 4 = internal error (a case the
decision table proves unreachable was reached).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from itertools import combinations

from .errors import B3ImageError, InternalInconsistency, InvalidSpec, MissingParam
from .grouporacle import COMPLETED, DEFAULT_BOUND, projective_closure
from .qgallery import FAMILIES, reproduce
from .repforms import EXISTENCE_FAILS, REPEATED, EigenSpec, build, validate_spec
from .verdict import classify, projective_order_of_spec

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_EXCEEDED = 3
EXIT_INTERNAL = 4

_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
_SWEEP_COLUMNS = ("dim", "eigenvalues", "po", "pattern", "rule", "kind")
# largest sweep, in rows, that `sweep` enumerates
SWEEP_MAX_ROWS = 100_000
# largest closure bound, in elements, that `closure` and `qg` accept; the
# visited set of a closure that reaches it can take about 2 GB
MAX_BOUND = 1_000_000


def _emit(text: str, path: str | None) -> None:
    if path is None:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # keep the flush at interpreter exit quiet too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise B3ImageError(f"cannot write --output {path}: {exc.strerror}") from None


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def _key_value_table(data: dict) -> str:
    width = max(len(k) for k in data)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in data.items())


# -- classify --------------------------------------------------------------------


def _build_spec(args: argparse.Namespace) -> EigenSpec:
    d_sign = _SIGNS[args.d_sign] if args.d_sign is not None else None
    if args.eig is None:
        if not args.non_root:
            raise MissingParam("--eig is required unless --non-root is given")
        # placeholder spectrum: 2.1(a) short-circuits before it is read
        return EigenSpec.from_exponents([Fraction(0)] * args.dim)
    exponents = [part.strip() for part in args.eig.split(",")]
    if len(exponents) != args.dim:
        raise InvalidSpec(
            f"--dim {args.dim} needs {args.dim} eigenvalues, got {len(exponents)}"
        )
    return EigenSpec.from_exponents(exponents, d_sign=d_sign, gamma=args.gamma)


def cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(_build_spec(args), non_root_flag=args.non_root)
    if args.format == "json":
        text = _json_text(verdict.to_json())
    else:
        data = {"kind": verdict.kind, "rule": verdict.rule}
        for key, value in (
            ("po", verdict.po),
            ("pattern", verdict.pattern.variant if verdict.pattern else None),
            ("o(u)", verdict.o_u),
            ("D", verdict.d_sign),
            ("parity", verdict.parity),
        ):
            if value is not None:
                data[key] = value
        data.update((f"trace:{stage}", note) for stage, note in verdict.trace)
        text = _key_value_table(data)
    _emit(text, args.output)
    return EXIT_OK


# -- closure ---------------------------------------------------------------------


def _bound(args: argparse.Namespace) -> int:
    if args.bound < 1:
        raise InvalidSpec(f"--bound {args.bound} is below 1")
    if args.bound > MAX_BOUND:
        raise InvalidSpec(f"--bound {args.bound} is over the cap of {MAX_BOUND}")
    return args.bound


def cmd_closure(args: argparse.Namespace) -> int:
    bound = _bound(args)
    spec = _build_spec(args)
    if spec.dim == 4 and spec.d_sign is None:
        raise MissingParam("--dim 4 needs --d-sign")
    if spec.dim == 5 and spec.gamma is None:
        raise MissingParam("--dim 5 needs --gamma")
    report = validate_spec(spec)
    if report.status in (REPEATED, EXISTENCE_FAILS):
        raise InvalidSpec(f"spectrum is {report.status}: {'; '.join(report.witnesses)}")
    result = projective_closure(list(build(spec)), bound)
    if args.format == "json":
        text = _json_text(result.to_json())
    else:
        data = {"outcome": result.outcome, "order": result.order, "bound": result.bound}
        data.update(result.stats)
        text = _key_value_table(data)
    _emit(text, args.output)
    return EXIT_OK if result.outcome == COMPLETED else EXIT_EXCEEDED


# -- qg --------------------------------------------------------------------------


def cmd_qg(args: argparse.Namespace) -> int:
    report = reproduce(args.family, args.ell, _bound(args))
    if args.format == "json":
        text = _json_text(report.to_json())
    else:
        closure = "-"
        if report.closure is not None:
            closure = f"{report.closure.outcome}({report.closure.order})"
        text = _key_value_table(
            {
                "family": report.family,
                "ell": report.ell,
                "kind": report.verdict.kind,
                "rule": report.verdict.rule,
                "closure": closure,
                "expected": report.expectation.quote,
                "agreement": report.agreement,
            }
        )
    _emit(text, args.output)
    return EXIT_OK


# -- sweep -----------------------------------------------------------------------


def sweep_rows(dim: int, max_order: int) -> list[dict]:
    """Classify every normalized spectrum (first eigenvalue 1, the rest
    distinct with orders dividing max_order), in enumeration order."""
    pool = [Fraction(k, max_order) for k in range(1, max_order)]
    rows = []
    for combo in combinations(pool, dim - 1):
        spec = EigenSpec.from_exponents((Fraction(0),) + combo)
        verdict = classify(spec)
        rows.append(
            {
                "dim": dim,
                "eigenvalues": ";".join(
                    f"{e.numerator}/{e.denominator}" for e in spec.exponents()
                ),
                "po": projective_order_of_spec(spec),
                "pattern": verdict.pattern.variant if verdict.pattern else "",
                "rule": verdict.rule,
                "kind": verdict.kind,
            }
        )
    return rows


def _rows_text(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_text(rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    cells = [_SWEEP_COLUMNS] + [
        tuple(str(row[c]) for c in _SWEEP_COLUMNS) for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(_SWEEP_COLUMNS))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in cells
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 2 <= args.dim <= 5:
        raise InvalidSpec(f"--dim must be in [2, 5], got {args.dim}")
    if args.max_order < 1:
        raise InvalidSpec(f"--max-order must be >= 1, got {args.max_order}")
    rows = math.comb(args.max_order - 1, args.dim - 1)
    if rows > SWEEP_MAX_ROWS:
        raise InvalidSpec(
            f"sweep would classify {rows} spectra, over the cap of {SWEEP_MAX_ROWS}"
        )
    _emit(_rows_text(sweep_rows(args.dim, args.max_order), args.format), args.output)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _output_options(p: argparse.ArgumentParser, formats: tuple, default: str) -> None:
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")


def _spectrum_options(p: argparse.ArgumentParser, eig_required: bool) -> None:
    p.add_argument("--dim", type=int, required=True, help="dimension, 2 to 5")
    eig_help = "comma separated exponents; k/n denotes e^{2*pi*i*k/n}"
    p.add_argument("--eig", required=eig_required, help=eig_help)
    sign_help = "dim-4 choice: gamma^2 = d_sign * canonical sqrt(det)"
    p.add_argument("--d-sign", dest="d_sign", choices=sorted(_SIGNS), help=sign_help)
    p.add_argument("--gamma", help="dim-5 fifth root of det, as exponent k/n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b3image",
        description="Decide finiteness of 3-strand braid group images "
        "from exact generator eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the decision cascade on a spectrum")
    _spectrum_options(p, eig_required=False)
    p.add_argument(
        "--non-root",
        dest="non_root",
        action="store_true",
        help="declare some eigenvalue is not a root of unity (--eig optional)",
    )
    _output_options(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("closure", help="enumerate the projective group of a spectrum")
    _spectrum_options(p, eig_required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    _output_options(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("qg", help="reproduce one quantum-group gallery row")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    _output_options(p, ("json", "table"), "json")
    p.set_defaults(func=cmd_qg)

    p = sub.add_parser("sweep", help="classify all spectra up to an order bound")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--max-order",
        dest="max_order",
        type=int,
        required=True,
        help="eigenvalue orders divide this",
    )
    _output_options(p, ("csv", "json", "table"), "csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (B3ImageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
