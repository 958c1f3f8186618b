"""Workload definitions: seeded op streams and the checks on their output.

An op is a tuple of argv lists passed in turn to ``pappuslab.cli.main``.
Each workload draws its ops from ``random.Random("<workload>:<stream>")``,
so the same seed gives the same ops.  Negative values are passed as
``--flag=value``: argparse would read ``--eps -0.1`` as two options.
See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

LIMIT_WORDS = 16  # limit --depth 2 samples the 4**2 products of W-steps
LIMIT_HEADER = [
    "word", "point_x", "point_y", "dual_1", "dual_2", "dual_3", "flag_residual", "depth",
]
FLAG_RESIDUAL_MAX = 1e-9
VARIETY_GRID = 3


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[random.Random, int], tuple]
    trace_ops: int  # fixed op count of a traced pass, so span counts repeat
    reference_ops: int  # ops of the pinned reference stream, run before timing
    # a short fixed op of the same kind, which the baseline runs after every op
    calibration: tuple
    calibration_ref_s: float  # its median seconds on the reference host (README.md)


def _tenths_moduli(rng: random.Random) -> tuple:
    """(zeta_t, zeta_b) in tenths of [-0.8, 0.8], never the special box (0, 0)."""
    while True:
        zt, zb = rng.randint(-8, 8), rng.randint(-8, 8)
        if (zt, zb) != (0, 0):
            return "--zt=%d/10" % zt, "--zb=%d/10" % zb


def _relations_op(rng: random.Random, i: int) -> tuple:
    argv = ["relations", "--trials", "1", "--pairs", "10", "--seed", str(rng.randrange(2**31))]
    if i % 10 == 9:
        argv.append("--mutate")  # negative control: must exit 1
    return (argv,)


def _anosov_op(rng: random.Random, i: int) -> tuple:
    # (eps, delta) inside the strict interior of the admissible region
    point = _tenths_moduli(rng) + (
        "--eps=%.6f" % rng.uniform(-0.25, -0.05),
        "--delta=%.6f" % rng.uniform(-0.02, 0.02),
    )
    return (["certify", "--maxlen", "10", *point], ["limit", "--depth", "2", *point])


def _variety_curve_op(rng: random.Random, i: int) -> tuple:
    if i % 4 == 3:
        return (["variety", "--grid", str(VARIETY_GRID)],)
    return (["curve", *_tenths_moduli(rng), "--eps=%.6f" % rng.uniform(-0.1, -0.01)],)


_CALIBRATION_POINT = ("--zt=3/10", "--zb=-2/10", "--eps=-0.15", "--delta=0.01")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "relations_exact", _relations_op, trace_ops=10, reference_ops=10,
            calibration=(["relations", "--trials", "1", "--pairs", "3", "--seed", "1"],),
            calibration_ref_s=0.03,
        ),
        Workload(
            "anosov_float", _anosov_op, trace_ops=4, reference_ops=2,
            calibration=(
                ["certify", "--maxlen", "6", *_CALIBRATION_POINT],
                ["limit", "--depth", "1", *_CALIBRATION_POINT],
            ),
            calibration_ref_s=0.135,
        ),
        Workload(
            "variety_curve", _variety_curve_op, trace_ops=12, reference_ops=4,
            calibration=(["curve", "--zt=3/10", "--zb=-2/10", "--eps=-0.05"],),
            calibration_ref_s=0.035,
        ),
    )
}

REPEATABLE = {("variety", "--grid", str(VARIETY_GRID))}


class OpSource:
    """Draws ops of one workload; no argv repeats within one source,
    except the parameterless ``variety`` op."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.seen: set = set()

    def stream(self, key: str):
        rng = random.Random("%s:%s" % (self.workload.name, key))
        i = 0
        while True:
            op = self.workload.make_op(rng, i)
            argvs = tuple(tuple(a) for a in op)
            if argvs in self.seen and not all(a in REPEATABLE for a in argvs):
                continue
            self.seen.add(argvs)
            yield op
            i += 1


# ---------------------------------------------------------------------------
# checks


def _reject_constant(name):
    raise ValueError("non-finite number %s in JSON output" % name)


def parse_report(text: str) -> dict:
    report = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def parse_limit_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != LIMIT_HEADER:
        raise ValueError("limit CSV header is %r" % (rows[:1],))
    return rows[1:]


def _check_relations(argv, code, report, rows):
    mutate = "--mutate" in argv
    seed = int(argv[argv.index("--seed") + 1])
    problems = []
    if (report.get("seed"), report.get("trials"), report.get("pairs")) != (seed, 1, 10):
        problems.append("seed/trials/pairs not echoed")
    if report.get("mutate") is not mutate:
        problems.append("mutate flag not echoed")
    if mutate:
        if code != 1 or report.get("pass") is not False or not report.get("failures"):
            problems.append("mutation control not detected")
    elif code != 0 or report.get("pass") is not True or report.get("failures") != []:
        problems.append("relation suite failed")
    return problems


def _check_certify(argv, code, report, rows):
    if code != 0 or report.get("status") != "anosov-certified" or report.get("pass") is not True:
        return ["not certified: %s" % report.get("status")]
    return []


def _check_limit(argv, code, report, rows):
    problems = []
    if code != 0:
        problems.append("exit %d" % code)
    skipped = report.get("skipped_non_loxodromic", [])
    if report.get("words") != len(rows) or len(rows) + len(skipped) != LIMIT_WORDS:
        problems.append("%d rows + %d skipped words != %d" % (len(rows), len(skipped), LIMIT_WORDS))
    for row in rows:
        residual = float(row[LIMIT_HEADER.index("flag_residual")])
        if not residual <= FLAG_RESIDUAL_MAX:
            problems.append("flag_residual %r of word %r" % (residual, row[0]))
    return problems


def _check_pass(argv, code, report, rows):
    if code != 0 or report.get("pass") is not True:
        return ["%s did not pass" % argv[0]]
    if argv[0] == "variety" and len(report.get("entries", ())) != VARIETY_GRID**2:
        return ["variety reported %d entries" % len(report.get("entries", ()))]
    return []


CHECKS = {
    "relations": _check_relations,
    "certify": _check_certify,
    "limit": _check_limit,
    "curve": _check_pass,
    "variety": _check_pass,
}


def check_invocation(argv, code, report, rows) -> list:
    """Problems with one invocation's exit code and report (empty if none)."""
    if report.get("command") != argv[0]:
        return ["report is for command %r" % report.get("command")]
    return CHECKS[argv[0]](argv, code, report, rows)


# ---------------------------------------------------------------------------
# reference comparison

REL_TOL = 1e-9
# Residual-type fields sit at round-off level, where a relative test is
# meaningless; every such field is gated by the program at 1e-9 or tighter.
ABS_TOL = 1e-12


def _floats_agree(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def compare(ref, got, path="") -> list:
    """Differences of ``got`` from ``ref``.

    Strings, integers, booleans and null must be equal; floats agree to
    REL_TOL relative (ABS_TOL absolute).  Object keys the reference lacks
    are ignored, so additive report fields are not mismatches.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return ["%s: expected an object" % path]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append("%s.%s: missing" % (path, key))
            else:
                out.extend(compare(value, got[key], "%s.%s" % (path, key)))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return ["%s: expected a list of %d" % (path, len(ref))]
        out = []
        for k, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare(r, g, "%s[%d]" % (path, k)))
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _floats_agree(ref, float(got)) else ["%s: %r != %r" % (path, got, ref)]
    if type(ref) is not type(got) or ref != got:
        return ["%s: %r != %r" % (path, got, ref)]
    return []


def compare_rows(ref_rows, rows) -> list:
    """Compare CSV rows cell by cell: integers and words exactly, floats
    as in ``compare``."""
    def cells(table):
        return [[_cell(c) for c in row] for row in table]

    return compare(cells(ref_rows), cells(rows), "csv")
