"""Command-line front end.

Four subcommands: `classify` runs the decision cascade on a spectrum given as
exact exponents, `closure` enumerates the projective group of the Tuba-Wenzl
pair `build(spec)` of a spectrum given the same way, `qg` reproduces a
quantum-group gallery row, and `sweep` classifies every normalized spectrum up
to a given eigenvalue order and writes the table.  `closure` refuses a
spectrum that `validate_spec` finds RepeatedEigenvalues or ExistenceFails.

Each `cmd_*` returns its JSON payload, its table rows and its exit code;
`main` renders them in the one `--format` asked for: json, csv or a padded
table.

Exit codes: 0 = result produced, 2 = input error, 3 = `closure` exceeded its
bound (the partial result is still printed; `qg` reports its closure's outcome
and exits 0), 4 = internal error (a case the decision table proves unreachable
was reached).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, combinations

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
# visited keys of a closure that reaches it take about 1 GB (so9(20) at bound
# 100,000 grows by about 950 bytes per class, on int32 keys)
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
            raise _unwritable(path, exc.strerror) from None


def _unwritable(path: str, reason: str) -> B3ImageError:
    return B3ImageError(f"cannot write --output {path}: {reason}")


def _check_output(path: str | None) -> None:
    """Refuse an --output path that is empty or a directory, lacks its parent
    directory, is a file the process cannot write or is a new file in a
    directory the process cannot write, before the command runs; the file is
    neither created nor truncated."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not path:  # open("") fails with ENOENT
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        try:  # stat gives the reason open() would: ENOENT, or ENOTDIR under a file
            os.stat(parent)
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    else:
        # open(path, "w") truncates an existing file in place; a new file
        # needs its directory
        exists = os.path.exists(path)
        target, mode = (path, os.W_OK) if exists else (parent, os.W_OK | os.X_OK)
        if os.access(target, mode):
            return
        code = errno.EACCES
    raise _unwritable(path, os.strerror(code))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def _table(rows) -> str:
    """Pad each column to its widest cell, two spaces apart."""
    cells = [tuple(map(str, row)) for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    )


# -- classify --------------------------------------------------------------------


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= 5:
        raise InvalidSpec(f"--dim must be in [2, 5], got {dim}")


def _build_spec(args: argparse.Namespace) -> EigenSpec:
    d_sign = _SIGNS[args.d_sign] if args.d_sign is not None else None
    if args.eig is None:
        if not args.non_root:
            raise MissingParam("--eig is required unless --non-root is given")
        _check_dim(args.dim)
        # placeholder spectrum, read by no rule past 2.1(a): every exponent
        # is --gamma (gamma**5 is then the determinant) or 0, so EigenSpec
        # holds --d-sign and --gamma to their dimensions as with --eig
        exponents = [args.gamma or "0"] * args.dim
    else:
        exponents = [part.strip() for part in args.eig.split(",")]
        if len(exponents) != args.dim:
            raise InvalidSpec(
                f"--dim {args.dim} needs {args.dim} eigenvalues, got {len(exponents)}"
            )
    return EigenSpec.from_exponents(exponents, d_sign=d_sign, gamma=args.gamma)


def cmd_classify(args: argparse.Namespace) -> tuple:
    verdict = classify(_build_spec(args), non_root_flag=args.non_root)
    rows = [("kind", verdict.kind), ("rule", verdict.rule)]
    for key, value in (
        ("po", verdict.po),
        ("pattern", verdict.pattern.variant if verdict.pattern else None),
        ("o(u)", verdict.o_u),
        ("D", verdict.d_sign),
        ("parity", verdict.parity),
    ):
        if value is not None:
            rows.append((key, value))
    rows += ((f"trace:{stage}", note) for stage, note in verdict.trace)
    return verdict.to_json(), rows, EXIT_OK


# -- closure ---------------------------------------------------------------------


def _bound(args: argparse.Namespace) -> int:
    if args.bound < 1:
        raise InvalidSpec(f"--bound {args.bound} is below 1")
    if args.bound > MAX_BOUND:
        raise InvalidSpec(f"--bound {args.bound} is over the cap of {MAX_BOUND}")
    return args.bound


def cmd_closure(args: argparse.Namespace) -> tuple:
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
    rows = [("outcome", result.outcome), ("order", result.order), ("bound", result.bound)]
    rows += result.stats.items()
    code = EXIT_OK if result.outcome == COMPLETED else EXIT_EXCEEDED
    return result.to_json(), rows, code


# -- qg --------------------------------------------------------------------------


def cmd_qg(args: argparse.Namespace) -> tuple:
    report = reproduce(args.family, args.ell, _bound(args))
    closure = "-"
    if report.closure is not None:
        closure = f"{report.closure.outcome}({report.closure.order})"
    rows = [
        ("family", report.family),
        ("ell", report.ell),
        ("kind", report.verdict.kind),
        ("rule", report.verdict.rule),
        ("closure", closure),
        ("expected", report.expectation.quote),
        ("agreement", report.agreement),
    ]
    return report.to_json(), rows, EXIT_OK


# -- sweep -----------------------------------------------------------------------


def sweep_rows(dim: int, max_order: int) -> list[dict]:
    """Classify every normalized spectrum (first eigenvalue 1, the rest
    distinct with orders dividing max_order), in enumeration order."""
    pool = [Fraction(k, max_order) for k in range(1, max_order)]
    rows = []
    for combo in combinations(pool, dim - 1):
        spec = EigenSpec.from_exponents((Fraction(0),) + combo)
        verdict = classify(spec)
        po = verdict.po
        if po is None:  # rule 2.2 rows stop before the cascade's po step
            po = projective_order_of_spec(spec)
        rows.append(
            {
                "dim": dim,
                "eigenvalues": ";".join(map(str, spec.eigenvalues)),
                "po": po,
                "pattern": verdict.pattern.variant if verdict.pattern else "",
                "rule": verdict.rule,
                "kind": verdict.kind,
            }
        )
    return rows


def cmd_sweep(args: argparse.Namespace) -> tuple:
    _check_dim(args.dim)
    if args.max_order < 1:
        raise InvalidSpec(f"--max-order must be >= 1, got {args.max_order}")
    rows = math.comb(args.max_order - 1, args.dim - 1)
    if rows > SWEEP_MAX_ROWS:
        raise InvalidSpec(
            f"sweep would classify {rows} spectra, over the cap of {SWEEP_MAX_ROWS}"
        )
    payload = sweep_rows(args.dim, args.max_order)
    # cells made row by row as they are written: only a table holds them all
    cells = (tuple(row[c] for c in _SWEEP_COLUMNS) for row in payload)
    return payload, chain([_SWEEP_COLUMNS], cells), EXIT_OK


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
        _check_output(args.output)
        payload, rows, code = args.func(args)
        if args.format == "json":
            text = _json_text(payload)
        elif args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            text = buf.getvalue().rstrip("\n")
        else:
            text = _table(rows)
        _emit(text, args.output)
        return code
    except (B3ImageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
