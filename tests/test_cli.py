"""End-to-end command-line behavior: parsing, exit codes, output formats."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import b3image
from b3image import cli
from b3image.cli import (
    EXIT_EXCEEDED,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
    sweep_rows,
)
from b3image.errors import InternalInconsistency
from b3image.exactfield import RootOfUnity
from b3image.grouporacle import projective_closure
from b3image.repforms import block_spec, build_d4_block
from b3image.verdict import Verdict

GAP_ORDERS = {6, 7, 8, 9, 10, 12, 15, 20, 24}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify ----------------------------------------------------------------


def test_classify_table(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--dim", "3", "--eig", "0/1,1/7,5/7"
    )
    assert code == EXIT_OK
    assert "Finite" in out and "2.1(d)(ii)-odd" in out
    assert "parity" in out and "Odd" in out


def test_classify_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--dim", "4",
        "--eig", "0/1,1/2,1/10,3/5",
        "--d-sign=-1",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    verdict = Verdict.from_json(data)
    assert verdict.kind == "Finite" and verdict.rule == "2.1(c)(ii)/4.2(e)"
    assert verdict.to_json() == data


def test_classify_dim5_with_gamma(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--dim", "5",
        "--eig", "0/1,1/7,2/7,3/7,4/7",
        "--gamma", "3/35",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["rule"] == "2.1(d)(iv)"


def test_classify_non_root_needs_no_eig(capsys):
    code, out, _ = run_cli(capsys, "classify", "--dim", "3", "--non-root")
    assert code == EXIT_OK
    assert "Infinite" in out and "2.1(a)" in out


def test_classify_eig_count_mismatch(capsys):
    code, _, err = run_cli(capsys, "classify", "--dim", "3", "--eig", "0/1,1/7")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", ["3/0", "x", "1/2/3"])
def test_classify_malformed_exponent(capsys, bad):
    code, out, err = run_cli(
        capsys, "classify", "--dim", "3", "--eig", f"0/1,1/7,{bad}"
    )
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == f"error: malformed exponent '{bad}'\n"


def test_classify_requires_eig_or_non_root(capsys):
    code, _, err = run_cli(capsys, "classify", "--dim", "3")
    assert code == EXIT_INPUT_ERROR
    assert "--non-root" in err


def test_classify_output_file(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--dim", "2",
        "--eig", "0/1,1/6",
        "--format", "json",
        "--output", str(target),
    )
    assert code == EXIT_OK and out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "Infinite"


# one cheap run of each subcommand
_RUNS = {
    "classify": ("classify", "--dim", "3", "--eig", "0,1/7,5/7"),
    "closure": ("closure", "--dim", "3", "--eig", "0,1/7,3/7", "--bound", "1000"),
    "qg": ("qg", "--family", "G2", "--ell", "14"),
    "sweep": ("sweep", "--dim", "3", "--max-order", "6"),
}


@pytest.mark.parametrize("command", sorted(_RUNS))
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_output_is_an_input_error(capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "out.txt" if target == "missing-parent" else tmp_path
    code, out, err = run_cli(capsys, *_RUNS[command], "--output", str(path))
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith(f"error: cannot write --output {path}: ")
    assert err.count("\n") == 1


def test_internal_inconsistency_has_its_own_exit_code(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise InternalInconsistency("po=7 exponent triple outside both parity orbits")

    monkeypatch.setattr(cli, "classify", unreachable)
    code, out, err = run_cli(capsys, "classify", "--dim", "3", "--eig", "0/1,1/7,5/7")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("internal error: po=7 exponent triple")
    assert "Traceback" not in err


# -- closure -----------------------------------------------------------------


def test_closure_completed(capsys):
    code, out, _ = run_cli(
        capsys,
        "closure",
        "--dim", "3",
        "--eig", "0,1/7,3/7",
        "--bound", "1000",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["outcome"] == "Completed" and data["order"] == 168


def test_closure_exceeded_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "closure",
        "--dim", "4",
        "--eig", "0,1/2,1/7,9/14",
        "--d-sign=+1",
        "--bound", "50",
        "--format", "json",
    )
    assert code == EXIT_EXCEEDED
    data = json.loads(out)
    assert data["outcome"] == "ExceededBound" and data["order"] is None


def test_readme_closure_example_matches_the_cli(capsys):
    # every console example whose output the README shows in full
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```console\n\$ b3image ([^\n]*)\n(.*?)```", readme, re.S)
    checked = set()
    for command, expected in examples:
        if "..." in expected:
            continue
        code, out, _ = run_cli(capsys, *command.split())
        assert (code, out) == (EXIT_OK, expected), command
        checked.add(command.split()[0])
    assert {"classify", "closure"} <= checked


def _block_pairs(max_order):
    """Block normal-form parameters (u, D): u of order <= max_order, not a
    4th root of unity."""
    return [
        (RootOfUnity.of(k, n), d_sign)
        for n in range(3, max_order + 1)
        if n != 4
        for k in range(1, n)
        if math.gcd(k, n) == 1
        for d_sign in (1, -1)
    ]


def test_closure_and_classify_read_d_sign_the_same_way(capsys):
    bound = 2000
    for u, d_sign in _block_pairs(10):
        spec = block_spec(u, d_sign)
        flags = (
            "--dim", "4",
            "--eig", ",".join(str(e) for e in spec.eigenvalues),
            f"--d-sign={spec.d_sign:+d}",
        )
        code, out, _ = run_cli(capsys, "classify", *flags, "--format", "json")
        assert code == EXIT_OK
        kind = json.loads(out)["kind"]
        code, out, err = run_cli(
            capsys, "closure", *flags, "--bound", str(bound), "--format", "json"
        )
        if kind == "NotIrreducible":
            assert code == EXIT_INPUT_ERROR and "ExistenceFails" in err, (u, d_sign)
            continue
        want = projective_closure(list(build_d4_block(u, d_sign)), bound).to_json()
        assert json.loads(out) == want, (u, d_sign)
        assert (code, want["outcome"]) == {
            "Finite": (EXIT_OK, "Completed"),
            "Infinite": (EXIT_EXCEEDED, "ExceededBound"),
        }[kind], (u, d_sign)
    # the stored sign, not the block parameter: D = -1 here is d_sign = +1
    code, out, _ = run_cli(
        capsys, "closure", "--dim", "4", "--eig", "0,1/2,1/5,7/10", "--d-sign", "+"
    )
    assert code == EXIT_OK
    assert out.splitlines()[:2] == ["outcome        Completed", "order          360"]


def test_closure_refuses_a_reducible_spectrum(capsys):
    for flags in (
        ("--dim", "3", "--eig", "0,1/8,3/8"),
        ("--dim", "4", "--eig", "0,1/2,1/3,5/6", "--d-sign", "-"),
    ):
        code, out, err = run_cli(capsys, "closure", *flags)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: spectrum is ExistenceFails")
    code, out, err = run_cli(capsys, "closure", "--dim", "2", "--eig", "1/3,1/3")
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: spectrum is RepeatedEigenvalues")


def test_closure_missing_param(capsys):
    code, _, err = run_cli(capsys, "closure", "--dim", "4", "--eig", "0,1/2,1/5,7/10")
    assert code == EXIT_INPUT_ERROR
    assert "--d-sign" in err
    code, _, err = run_cli(
        capsys, "closure", "--dim", "5", "--eig", "0,1/5,2/5,3/5,4/7"
    )
    assert code == EXIT_INPUT_ERROR
    assert "--gamma" in err


def test_closure_conductor_cap(capsys):
    code, _, err = run_cli(capsys, "closure", "--dim", "3", "--eig", "0,1/257,1/3")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and "conductor 1542" in err


def test_closure_and_qg_bound_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_BOUND", 200)
    # so7(14) has 168 elements: a bound at the cap completes, one above it is refused
    closure = (
        "closure", "--dim", "4", "--eig", "0,3/7,5/7,6/7", "--d-sign", "+", "--bound"
    )
    code, out, _ = run_cli(capsys, *closure, "200")
    assert code == EXIT_OK and "168" in out
    qg = ("qg", "--family", "SO7spin", "--ell", "14", "--bound")
    code, out, _ = run_cli(capsys, *qg, "200")
    assert code == EXIT_OK and json.loads(out)["closure"]["order"] == 168
    for argv in (closure, qg):
        code, out, err = run_cli(capsys, *argv, "201")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error:") and "--bound 201" in err and "200" in err


def test_bound_over_a_million_is_refused_before_any_closure(capsys):
    # the so9(20) spectrum, whose closure runs past any bound
    closure = (
        "closure", "--dim", "5", "--eig", "0,1/5,17/20,19/20,1/2", "--gamma", "3/10"
    )
    for argv in (closure, ("qg", "--family", "SO9spin", "--ell", "20")):
        code, out, err = run_cli(capsys, *argv, "--bound", "1000001")
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "over the cap of 1000000" in err


def test_bound_below_one_is_refused_before_any_spec(capsys, monkeypatch):
    # a G2 row has no builder, so its closure would never read the bound
    def no_spec(*args, **kwargs):
        raise AssertionError("a spec was built")

    monkeypatch.setattr(cli, "_build_spec", no_spec)
    monkeypatch.setattr(cli, "reproduce", no_spec)
    closure = ("closure", "--dim", "4", "--eig", "0,3/7,5/7,6/7", "--d-sign", "+")
    for argv in (
        ("qg", "--family", "G2", "--ell", "14"),
        ("qg", "--family", "SO7spin", "--ell", "14"),
        closure,
    ):
        for bound in ("0", "-3"):
            code, out, err = run_cli(capsys, *argv, "--bound", bound)
            assert code == EXIT_INPUT_ERROR and out == ""
            assert err == f"error: --bound {bound} is below 1\n"


def test_closure_rejects_a_parameter_of_another_dimension(capsys):
    for flags, message in (
        (("--dim", "3", "--eig", "0,1/7,3/7", "--d-sign", "-"), "d_sign is a dim-4"),
        (("--dim", "4", "--eig", "0,3/7,5/7,6/7", "--d-sign", "+", "--gamma", "1/7"),
         "gamma is a dim-5"),
    ):
        code, out, err = run_cli(capsys, "closure", *flags)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error:") and message in err


# -- qg ------------------------------------------------------------------------


def test_qg_json_schema(capsys):
    code, out, _ = run_cli(capsys, "qg", "--family", "SO7spin", "--ell", "14")
    assert code == EXIT_OK
    data = json.loads(out)
    assert set(data) == {
        "family",
        "ell",
        "spec",
        "verdict",
        "closure",
        "expectation_quote",
        "agreement",
    }
    assert data["agreement"] is True
    assert data["closure"]["order"] == 168


def test_qg_table(capsys):
    code, out, _ = run_cli(
        capsys, "qg", "--family", "G2", "--ell", "14", "--format", "table"
    )
    assert code == EXIT_OK
    assert "agreement" in out and "Infinite" in out


def test_qg_unknown_family_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qg", "--family", "E8", "--ell", "20"])
    assert exc.value.code == 2


# -- sweep -----------------------------------------------------------------------


def test_sweep_csv_header_and_dim2_invariant(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dim", "2", "--max-order", "12")
    assert code == EXIT_OK
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "dim,eigenvalues,po,pattern,rule,kind"
    assert len(lines) == 12
    for line in lines[1:]:
        dim, eig, po, pattern, rule, kind = line.split(",")
        assert (kind == "Finite") == (int(po) <= 5)


def test_sweep_dim3_order7_rows_are_decided():
    rows = sweep_rows(3, 7)
    assert len(rows) == 15
    for row in rows:
        assert row["po"] == 7
        assert row["kind"] in ("Finite", "Infinite")
        assert row["rule"].startswith("2.1(d)(ii)")


def test_sweep_dim4_gap_rows_undecidable():
    for row in sweep_rows(4, 9):
        if row["pattern"] == "" and row["po"] in GAP_ORDERS:
            assert row["kind"] == "Undecidable"
        if row["pattern"] == "" and row["po"] > 5 and row["po"] not in GAP_ORDERS:
            assert row["kind"] == "Infinite"


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--dim", "2", "--max-order", "6", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 5
    assert set(rows[0]) == {"dim", "eigenvalues", "po", "pattern", "rule", "kind"}


def test_sweep_runs_are_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--dim", "3",
            "--max-order", "5",
            "--output", str(path),
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_max_order_guard(capsys):
    code, _, err = run_cli(capsys, "sweep", "--dim", "3", "--max-order", "0")
    assert code == EXIT_INPUT_ERROR
    assert "max-order" in err


@pytest.mark.parametrize("dim", ["1", "6"])
def test_sweep_dim_guard(capsys, dim):
    code, _, err = run_cli(capsys, "sweep", "--dim", dim, "--max-order", "6")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and "--dim" in err


def test_sweep_row_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_MAX_ROWS", 10)
    # C(5, 2) = 10 rows sit at the cap, C(6, 2) = 15 rows exceed it
    code, out, _ = run_cli(capsys, "sweep", "--dim", "3", "--max-order", "6")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 1 + 10
    code, _, err = run_cli(capsys, "sweep", "--dim", "3", "--max-order", "7")
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and "15" in err


# -- parser level ------------------------------------------------------------------


def test_every_exported_name_resolves():
    missing = [name for name in b3image.__all__ if not hasattr(b3image, name)]
    assert missing == []
    assert len(set(b3image.__all__)) == len(b3image.__all__)


def test_missing_subcommand_is_parse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _console_script_command(tmp_path):
    """Command that runs the ``b3image`` console script as its own process.

    Uses the installed script when one is on PATH.  Otherwise it writes the
    launcher an installer generates for the entry declared in
    ``[project.scripts]`` and runs it with this interpreter, importing the
    ``b3image`` package under test.
    """
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["b3image"]
    match = re.fullmatch(r"([\w.]+):(\w+)", entry)
    assert match, f"entry point {entry!r} is not in module:attr form"
    exe = shutil.which("b3image")
    if exe is not None:
        return [exe], None
    module, attr = match.groups()
    launcher = tmp_path / "b3image"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    return [sys.executable, str(launcher)], _package_env()


def _package_env() -> dict:
    """This process's environment with the package under test on PYTHONPATH."""
    package_root = str(Path(b3image.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def test_console_script_installed(tmp_path):
    command, env = _console_script_command(tmp_path)

    def run(*argv):
        return subprocess.run(
            [*command, *argv], capture_output=True, text=True, env=env
        )

    proc = run("classify", "--dim", "2", "--eig", "0/1,1/4")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Finite" in proc.stdout
    # the documented exit-code contract holds at the process boundary
    proc = run("classify", "--dim", "3", "--eig", "0/1,1/7")
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr.startswith("error:")


def test_python_dash_m_runs_the_cli():
    env = _package_env()

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "b3image", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    proc = run("classify", "--dim", "2", "--eig", "0/1,1/4")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Finite" in proc.stdout
    proc = run("classify", "--dim", "3", "--eig", "0/1,1/7")
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr.startswith("error:")


def test_closed_pipe_keeps_the_exit_code_and_a_quiet_stderr():
    # 115 KB of output, past the pipe buffer: writes fail once the reader is gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "b3image", "sweep", "--dim", "5", "--max-order", "18"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_package_env(),
    )
    assert proc.stdout.readline() == b"dim,eigenvalues,po,pattern,rule,kind\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (EXIT_OK, b"")


def test_spectrum_only_commands_never_import_numpy():
    # a fresh interpreter, since this one already holds numpy: numpy comes
    # with the closure engine, which loads on the first closure only
    script = """
import contextlib, io, json, sys
import b3image
from b3image import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["classify", "--dim", "3", "--eig", "0,1/7,5/7"]),
        cli.main(["sweep", "--dim", "3", "--max-order", "6"]),
        cli.main(["qg", "--family", "G2", "--ell", "10"]),
    ]
before = "numpy" in sys.modules
closure = b3image.projective_closure(list(b3image.build_so7(14))).to_json()
print(json.dumps({"codes": codes, "before": before, "after": "numpy" in sys.modules, "closure": closure}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [EXIT_OK] * 3
    assert got["before"] is False
    assert got["after"] is True
    closure = got["closure"]
    assert (closure["outcome"], closure["order"]) == ("Completed", 168)
    assert closure["stats"]["products"] == 336
