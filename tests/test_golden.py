"""Byte-for-byte regression of pinned CLI invocations.

Each case runs ``pappuslab.cli.main`` in an empty working directory and
compares its stdout, and the file it writes there, with the copies under
``tests/data/golden/``.  To record them afresh (only when an output is
meant to change), run from the repository root, naming the cases to
record (all of them when none is named):

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import mpmath
import pytest

from pappuslab import cli

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
    "curve_prec64": (["--precision", "64", "curve", *POINT, "--eps=-0.05"], None),
    # finite differences that show 64-bit rounding pin det_n and the Jacobian
    # columns; a 256-bit curve point pins the SVD of the conjugation system
    "variety_prec64": (["--precision", "64", "variety", "--grid", "2"], None),
    "curve_prec256": (["--precision", "256", "curve", *POINT, "--eps=-0.05"], None),
}


def run_case(name: str, workdir: Path) -> dict:
    """Outputs of one case as {golden file name: bytes}."""
    argv, written = CASES[name]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # --precision sets the global precision; later tests expect the default
        with contextlib.redirect_stdout(stdout), mpmath.workprec(mpmath.mp.prec):
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


if __name__ == "__main__":
    import tempfile

    os.environ.pop(cli.PRECISION_ENV, None)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
                print("wrote", GOLDEN / fname, file=sys.stderr)
