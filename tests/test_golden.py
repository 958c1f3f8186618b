"""Byte-for-byte regression of pinned CLI invocations.

Each case runs ``pappuslab.cli.main`` in an empty working directory and
compares its stdout, and the file it writes there, with the copies under
``tests/data/golden/``.  To record them afresh (only when an output is
meant to change), run from the repository root, naming the cases to
record (all of them when none is named):

    PYTHONPATH=src python tests/test_golden.py [case ...]

It prints each JSON field and CSV cell that the recording changed, as
``old -> new``, followed by the relative change of a number.
"""

import contextlib
import csv
import io
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mpf

from pappuslab import cli
from pappuslab import scalars as sc

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
POINT = ["--zt=3/10", "--zb=-2/10"]
DEFORMED = POINT + ["--eps=-0.15", "--delta=0.01"]
EXACT = POINT + ["--u", "9/10", "--v", "1"]

# name -> (argv, file the command writes into its working directory)
CASES = {
    "certify": (["certify", "--maxlen", "6", *DEFORMED], None),
    "limit": (["limit", "--depth", "1", *DEFORMED], "limit.csv"),
    "curve": (["curve", *POINT, "--eps=-0.05"], None),
    "variety": (["variety", "--grid", "2"], None),
    "relations": (["relations", "--trials", "2", "--seed", "3"], None),
    # the negative control: which relations it breaks, per trial and lambda
    "relations_mutate": (["relations", "--trials", "2", "--seed", "3", "--mutate"], None),
    "iterate": (["iterate", "--depth", "3", "--u", "9/10", "--v", "1"], "iterate.svg"),
    # the shapes of the anosov_float benchmark op, in float and exact lambda
    "certify_maxlen10": (["certify", "--maxlen", "10", *DEFORMED], None),
    "limit_depth2": (["limit", "--depth", "2", *DEFORMED], "limit.csv"),
    "certify_exact": (["certify", "--maxlen", "8", *EXACT], None),
    "limit_exact": (["limit", "--depth", "1", *EXACT], "limit.csv"),
    # the shape of the variety_curve benchmark's variety op, and a second curve point
    "variety_grid3": (["variety", "--grid", "3"], None),
    "curve_point2": (["curve", "--zt=-7/10", "--zb=1/2", "--eps=-0.09"], None),
    # limit stopping depths well past the default tol: 50-83 at 128 bits,
    # and 99-164 at 256 bits
    "limit_tol30": (["limit", "--depth", "1", *DEFORMED, "--tol", "1e-30"], "limit.csv"),
    "limit_prec256": (
        ["--precision", "256", "limit", "--depth", "1", *DEFORMED, "--tol", "1e-60"],
        "limit.csv",
    ),
    # the other scalar precisions: the scan at 256 bits (48 words), and a
    # curve point whose rounding-level residuals pin every bit at 64 bits
    "certify_prec256": (["--precision", "256", "certify", "--maxlen", "8", *DEFORMED], None),
    # at 53 bits the gap filter declines every class, so the mpf eigen
    # solver runs on each: 7 solves in certify and 16 in limit
    "certify_prec53": (["--precision", "53", "certify", "--maxlen", "10", *DEFORMED], None),
    "limit_prec53": (["--precision", "53", "limit", "--depth", "2", *DEFORMED], "limit.csv"),
    # a boundary point (lambda = 0) at 53 bits pins ROADMAP item 8's known
    # limit, parabolic words flagged by rounding: a fix re-records it
    "certify_boundary_prec53": (
        ["--precision", "53", "certify", "--maxlen", "8", *POINT, "--eps=0", "--delta=0"],
        None,
    ),
    "curve_prec64": (["--precision", "64", "curve", *POINT, "--eps=-0.05"], None),
    # finite differences that show 64-bit rounding pin det_n and the Jacobian
    # columns; a 256-bit curve point pins the nullspace of the conjugation system
    "variety_prec64": (["--precision", "64", "variety", "--grid", "2"], None),
    "curve_prec256": (["--precision", "256", "curve", *POINT, "--eps=-0.05"], None),
    # float box geometry: theta_basis, transform_sigma and the Pappus
    # steps on mpf points, 63 boxes
    "iterate_float": (["iterate", "--depth", "5", "--eps=-0.1", "--delta=0.02", *POINT], "iterate.svg"),
}


def run_case(name: str, workdir: Path) -> dict:
    """Outputs of one case as {golden file name: bytes}."""
    argv, written = CASES[name]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    outputs = {name + ".stdout": ("exit %d\n" % code + stdout.getvalue()).encode()}
    if written:
        outputs[name + "." + written] = (workdir / written).read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), fname


# the products and determinants of ``scalars``: a Fraction enters float
# mode once, rounded to nearest by ``sc.to_mpf``, so none of them ever
# sees a Fraction beside an mpf (a mixed operator would truncate it)
KERNEL = ("mat_mul", "mat_vec", "det3", "adjugate", "second_symmetric", "dot", "cross")


def _scalar_types(value, out: set) -> set:
    if isinstance(value, (tuple, list)):
        for item in value:
            _scalar_types(item, out)
    else:
        out.add(type(value))
    return out


def test_no_kernel_call_mixes_fraction_and_mpf(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    mixed = Counter()

    def guarded(name, func):
        def call(*args):
            types = _scalar_types(args, set())
            if Fraction in types and mpf in types:
                mixed[name] += 1
            return func(*args)

        return call

    for name in KERNEL:
        monkeypatch.setattr(sc, name, guarded(name, getattr(sc, name)))
    for case in sorted(CASES):
        (tmp_path / case).mkdir()
        run_case(case, tmp_path / case)
    assert not mixed, mixed


def _fields(fname: str, data: bytes) -> dict:
    """{field name: value} of one golden file: the exit line and JSON
    fields of a stdout, the cells of a CSV (a row is named by its first
    cell), or the lines of any other file."""
    text = data.decode()
    if fname.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return {
            "%s %s" % (row[0], col): cell
            for row in rows
            for col, cell in zip(header[1:], row[1:])
        }
    if not fname.endswith(".stdout"):
        return {"line %d" % i: line for i, line in enumerate(text.splitlines(), 1)}
    status, _, body = text.partition("\n")
    out = {"exit": status}

    def walk(path, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk("%s.%s" % (path, key) if path else key, item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk("%s[%d]" % (path, i), item)
        else:
            out[path] = value

    try:
        walk("", json.loads(body))
    except ValueError:
        out["text"] = body
    return out


def _relative_change(old, new) -> str:
    """' (relative change x)' between two numbers, JSON values or CSV
    cells, with x = (new - old) / |old|; empty for anything else."""
    if isinstance(old, bool) or isinstance(new, bool):
        return ""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    return " (relative change %s)" % ("%+.2e" % ((b - a) / abs(a)) if a else "from 0")


def changed_fields(fname: str, old: bytes, new: bytes) -> list:
    """'field: old -> new' for each field of ``_fields`` that differs,
    with the relative change of a number."""
    before, after = _fields(fname, old), _fields(fname, new)

    def show(fields, key):
        return repr(fields[key]) if key in fields else "(absent)"

    return [
        "%s: %s -> %s%s"
        % (key, show(before, key), show(after, key), _relative_change(before.get(key), after.get(key)))
        for key in list(before) + [k for k in after if k not in before]
        if (key in before, before.get(key)) != (key in after, after.get(key))
    ]


def test_changed_fields_show_the_relative_change_of_numbers():
    old_csv = b"word,flag_residual,depth\nR I R I,2e-28,8\n"
    new_csv = b"word,flag_residual,depth\nR I R I,1e-28,10\n"
    assert changed_fields("limit.csv", old_csv, new_csv) == [
        "R I R I flag_residual: '2e-28' -> '1e-28' (relative change -5.00e-01)",
        "R I R I depth: '8' -> '10' (relative change +2.50e-01)",
    ]
    old_out = b'exit 0\n{"pass": true, "gap": 0, "status": "a"}\n'
    new_out = b'exit 1\n{"pass": false, "gap": 0.5, "status": "b"}\n'
    assert changed_fields("certify.stdout", old_out, new_out) == [
        "exit: 'exit 0' -> 'exit 1'",
        "pass: True -> False",
        "gap: 0 -> 0.5 (relative change from 0)",
        "status: 'a' -> 'b'",
    ]


if __name__ == "__main__":
    import tempfile

    os.environ.pop(cli.PRECISION_ENV, None)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, Path(tmp)).items():
                path = GOLDEN / fname
                old = path.read_bytes() if path.exists() else None
                path.write_bytes(data)
                print("wrote", path, file=sys.stderr)
                if old is not None:
                    for line in changed_fields(fname, old, data):
                        print("  %s %s" % (fname, line))
