"""Command-line front end.

Subcommands:

- ``relations``: exact group-relation suite on random rational boxes;
- ``iterate``: SVG rendering of the nested box orbit;
- ``certify``: contraction / loxodromy diagnostics at one parameter;
- ``curve``: the extension locus delta(epsilon) and its intertwiner;
- ``limit``: CSV of limit points for periodic words;
- ``variety``: Jacobian certificates over a moduli grid.

Each ``cmd_*`` returns its report; ``main`` alone adds ``schema`` and
``command``, writes it to stdout or the report's ``--out`` (an error
report always to stdout) and maps it to the exit code.

Exit codes: 0 all checks pass, 1 a check fails or a computation
errors, 2 usage error (including invalid values: a precision below 53
bits, a negative count, a zero grid or ``limit`` depth, a non-finite
float, a ``limit`` or ``curve --tol`` at or below the precision's
rounding floor 2^(8 - precision), or an ``--out`` file that cannot be
written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

import mpmath
from mpmath import mpf

from . import anosov_lab as al
from . import boxes as bx
from . import modular as md
from . import representation as rp
from . import scalars as sc
from . import variety as vy
from .boxes import BoxModuli, Lambda
from .errors import NonLoxodromic, NotConvex, NotNested, PappusLabError, SpecialBox

PRECISION_ENV = "PAPPUSLAB_PRECISION"
SCHEMA = 1


# ---------------------------------------------------------------------------
# plumbing


def _jsonify(value):
    if isinstance(value, mpf):
        return float(value)
    if isinstance(value, (Fraction, md.GroupWord)):
        return str(value)
    raise TypeError("not JSON serializable: %r" % (value,))


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, default=_jsonify)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # ``| head``: see "Note on SIGPIPE" in Python's signal docs
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %s" % text) from exc


def _positive_fraction(text: str) -> Fraction:
    value = _parse_fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive: %s" % text)
    return value


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("not an integer: %s" % text) from exc
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d: %s" % (low, text))
        return value

    return parse


_count = _int_at_least(0)
_positive = _int_at_least(1)
_precision_bits = _int_at_least(53)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a number: %s" % text) from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number: %s" % text)
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive: %s" % text)
    return value


def _moduli_from_args(args) -> BoxModuli:
    return BoxModuli(args.zt, args.zb)


def _lambda_from_args(args) -> Lambda:
    # main has rejected --u without --v and the reverse
    if args.u is not None:
        return Lambda(u=args.u, v=args.v)
    return Lambda(epsilon=mpf(args.eps), delta=mpf(args.delta))


# ---------------------------------------------------------------------------
# relations


def _random_convex_box(rng):
    moduli = BoxModuli(
        Fraction(rng.randint(-8, 8), 10), Fraction(rng.randint(-8, 8), 10)
    )
    box = bx.from_moduli(moduli)
    for _ in range(40):
        m = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(m) != 0:
            return bx.apply_matrix(box, m)
    return box


def _relation_suite(box, lam, mutate=False):
    """Checks of the elementary-transformation relations on one box.

    Returns the list of failed relation names; with mutate=True the
    second generator is deliberately replaced by the first, which must
    break the suite (negative control).
    """

    def op_i(b):
        return bx.i_lambda(b, lam)

    def op_t12(b):
        # (t1 b, t2 b), both children from one Pappus construction
        c1, c2 = bx.pappus_children(b)
        d1 = bx.transform_sigma(c1, lam)
        return d1, d1 if mutate else bx.transform_sigma(c2, lam)

    eq = bx.marked_equal
    # shared subexpressions (each box operation is exact but costly): the
    # seven t-steps act on four boxes
    i_box = op_i(box)
    t1_box, t2_box = op_t12(box)
    i_t1 = op_i(t1_box)
    i_t2 = op_i(t2_box)
    t1_i_t1, t2_i_t1 = op_t12(i_t1)
    t1_i_t2, t2_i_t2 = op_t12(i_t2)
    failures = []
    if not eq(op_i(i_box), box):
        failures.append("i i = 1")
    if not eq(t1_i_t2, i_box):
        failures.append("t1 i t2 = i")
    if not eq(t2_i_t1, i_box):
        failures.append("t2 i t1 = i")
    if not eq(t1_i_t1, t2_box):
        failures.append("t1 i t1 = t2")
    if not eq(t2_i_t2, t1_box):
        failures.append("t2 i t2 = t1")
    # (i t1)^3 applied to the box: continue from i t1 (i t1 (box))
    cube = op_i(bx.tau1_lambda(op_i(t1_i_t1), lam))
    if not eq(cube, box):
        failures.append("(i t1)^3 = 1")
    return failures


def cmd_relations(args) -> dict:
    rng = random.Random(args.seed)
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "pairs": args.pairs,
        "mutate": bool(args.mutate),
        "failures": [],
    }
    if args.trials == 0:
        report["warning"] = "zero trials requested: vacuous pass"
        report["pass"] = True
        return report
    lambdas = [bx.LAMBDA_ZERO] + [
        Lambda(
            u=Fraction(rng.randint(5, 15), 10), v=Fraction(rng.randint(5, 15), 10)
        )
        for _ in range(args.pairs - 1)
    ]
    for trial in range(args.trials):
        box = _random_convex_box(rng)
        for lam in lambdas:
            for name in _relation_suite(box, lam, mutate=args.mutate):
                report["failures"].append(
                    {"trial": trial, "relation": name, "exact_lambda": lam.exact,
                     "u": str(lam.u), "v": str(lam.v)}
                )
    report["pass"] = not report["failures"]
    return report


# ---------------------------------------------------------------------------
# iterate


def _svg_polygon(points, depth, max_depth):
    hue = int(360 * depth / (max_depth + 1))
    coords = " ".join("%.5f,%.5f" % (float(x), float(-y)) for x, y in points)
    return (
        '<polygon points="%s" fill="none" '
        'stroke="hsl(%d,70%%,45%%)" stroke-width="%.4f"/>'
        % (coords, hue, 0.01 / (1 + depth))
    )


def cmd_iterate(args) -> dict:
    moduli = _moduli_from_args(args)
    lam = _lambda_from_args(args)
    box = bx.from_moduli(moduli)
    if not bx.is_convex(box):
        raise NotConvex("iteration is rendered for convex boxes only")
    warning = None
    if not bx.containment_check(box, lam):
        warning = "deformation outside the nesting region: boxes may overlap"
    levels = [[box]]
    for _ in range(args.depth):
        level = []
        for parent in levels[-1]:
            level.extend(bx.transform_sigma(child, lam) for child in bx.pappus_children(parent))
        levels.append(level)
    polygons = []
    count = 0
    for depth, level in enumerate(levels):
        for b in level:
            pts = [bx.chart_coords(v.coords) for v in (b.p, b.q, b.r, b.s)]
            polygons.append(_svg_polygon(pts, depth, args.depth))
            count += 1
    body = "\n".join(polygons)
    note = "<!-- %s -->\n" % warning if warning else ""
    svg = (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 2.2">\n'
        + note
        + body
        + "\n</svg>\n"
    )
    with open(args.artifact, "w") as handle:
        handle.write(svg)
    report = {"boxes": count, "depth": args.depth, "out": args.artifact}
    if warning:
        report["warning"] = warning
    return report


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> dict:
    moduli = _moduli_from_args(args)
    lam = _lambda_from_args(args)
    box = bx.from_moduli(moduli)
    report = {
        "moduli": [moduli.zeta_t, moduli.zeta_b],
        "lambda": [lam.eps_value(), lam.delta_value()],
        "checks": {},
    }
    in_r = bx.in_region(lam)
    in_r_strict = bx.in_region(lam, strict=True)
    report["checks"]["region"] = in_r
    report["checks"]["region_interior"] = in_r_strict
    if not in_r:
        report["status"] = "outside-region"
        report["pass"] = False
        return report
    report["checks"]["nesting"] = bx.containment_check(box, lam)
    rep = rp.Representation(moduli, lam)
    try:
        constant = al.constant_C(rep)
        report["checks"]["constant_C"] = constant
        report["checks"]["contraction"] = constant > 1
    except NotNested:
        report["checks"]["constant_C"] = None
        report["checks"]["contraction"] = False
    scan = al.loxodromy_scan(rep, max_len=args.maxlen)
    report["checks"]["loxodromy_scanned"] = scan["scanned"]
    report["checks"]["loxodromy_min_gap"] = scan["min_gap"]
    report["checks"]["non_loxodromic_words"] = [str(w) for w in scan["non_loxodromic"]]
    if lam.is_zero:
        p, q = rp.non_anosov_witness(moduli)
        normal = sc.mat_mul(q, sc.mat_mul(p, sc.mat_inverse(q)))
        report["status"] = "boundary-schwartz"
        report["boundary"] = (
            "undeformed parameters: non-loxodromic words present; "
            "the square of the translation word is conjugate to a "
            "non-loxodromic normal form"
        )
        report["witness_normal_form"] = sc.mat_to_mpf(normal)
        report["pass"] = True
        return report
    anosov_like = (
        in_r_strict
        and report["checks"]["contraction"]
        and not scan["non_loxodromic"]
        and scan["min_gap"] is not None
        and scan["min_gap"] > 1
    )
    report["status"] = "anosov-certified" if anosov_like else "diagnostics-failed"
    report["pass"] = bool(anosov_like)
    return report


# ---------------------------------------------------------------------------
# curve


# The relative residual max|tA^-1 S - S B| / max|S| of the intertwiner is
# at most 3.7e-12 at the default --tol, over tenths moduli in [-0.9, 0.9]
# and epsilon in {-0.05, -0.1, -0.2}, at 53, 64, 128 and 256 bits alike:
# the bisection leaves h that far from zero, which sets it, not rounding.
# 1e-9 sits more than two decades above it.
INTERTWINER_RESIDUAL_TOL = mpf("1e-9")


def cmd_curve(args) -> dict:
    moduli = _moduli_from_args(args)
    eps = mpf(args.eps)
    # raises SpecialBox at vanishing moduli, where extension_intertwiner
    # would not look at the obstruction
    delta = rp.solve_delta_h(moduli, eps, tol=mpf(args.tol))
    lam = Lambda(epsilon=eps, delta=delta)
    h_residual = abs(rp.curve_h(moduli, lam))
    rep = rp.Representation(moduli, lam)
    obstruction, _ = rp.obstruction(rep)
    # raises NoSolution unless the obstruction vanishes
    s, residual, invertible = rp.extension_intertwiner(rep)
    # reported, but no gate: S[i][j] and S[j][i] are one value, so it is 0
    sym = max(abs(s[i][j] - s[j][i]) for i in range(3) for j in range(3))
    ok = h_residual <= mpf(args.tol) and residual <= INTERTWINER_RESIDUAL_TOL and invertible
    return {
        "moduli": [moduli.zeta_t, moduli.zeta_b],
        "epsilon": eps,
        "delta": delta,
        "h_residual": h_residual,
        "obstruction": abs(obstruction),
        "intertwiner_symmetry_defect": sym,
        "intertwiner_residual": residual,
        "intertwiner_invertible": invertible,
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# limit


def cmd_limit(args) -> dict:
    rep = rp.Representation(_moduli_from_args(args), _lambda_from_args(args))
    words = [md.GroupWord.identity()]
    for _ in range(args.depth):
        words = [w * step for w in words for step in md.W_STEPS]
    rows = []
    skipped = []
    for w in words:
        try:
            sample = al.limit_point(rep, w, tol=mpf(args.tol))
        except NonLoxodromic:
            skipped.append(w)
            continue
        cx, cy = bx.chart_coords(sample.point)
        dual = sample.dual_point
        rows.append(
            [
                str(w),
                float(cx),
                float(cy),
                float(dual[0]),
                float(dual[1]),
                float(dual[2]),
                float(sample.flag_residual),
                sample.depth,
            ]
        )
    with open(args.artifact, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["word", "point_x", "point_y", "dual_1", "dual_2", "dual_3", "flag_residual", "depth"]
        )
        writer.writerows(rows)
    return {"words": len(rows), "skipped_non_loxodromic": skipped, "out": args.artifact}


# ---------------------------------------------------------------------------
# variety


def cmd_variety(args) -> dict:
    n = args.grid
    ticks = [Fraction(2 * k + 1 - n, n + 1) for k in range(n)]
    lam0 = bx.LAMBDA_ZERO
    entries = []
    all_ok = True
    for zt in ticks:
        for zb in ticks:
            moduli = BoxModuli(zt, zb)
            entry = {"zeta_t": zt, "zeta_b": zb}
            psi = vy.jacobian_check_psi(moduli, lam0)
            entry["psi_closed_form"] = psi["closed_form"]
            entry["psi_finite_difference"] = psi["finite_difference"]
            entry["psi_relative_error"] = psi["relative_error"]
            ok = psi["match"]
            try:
                phi = vy.jacobian_check_phi(moduli)
                entry["phi_closed_form"] = phi["closed_form"]
                entry["phi_finite_difference"] = phi["finite_difference"]
                entry["phi_relative_error"] = phi["relative_error"]
                ok = ok and phi["match"]
            except SpecialBox:
                entry["phi_special_box"] = True
            entries.append(entry)
            all_ok = all_ok and ok
    return {"grid": n, "entries": entries, "pass": all_ok}


# ---------------------------------------------------------------------------
# parser


def _add_moduli_flags(sub, zt_default="1/2", zb_default="1/3"):
    sub.add_argument("--zt", type=_parse_fraction, default=Fraction(zt_default))
    sub.add_argument("--zb", type=_parse_fraction, default=Fraction(zb_default))


def _add_lambda_flags(sub):
    sub.add_argument("--eps", type=_finite_float, default=0.0)
    sub.add_argument("--delta", type=_finite_float, default=0.0)
    sub.add_argument("--u", type=_positive_fraction, default=None)
    sub.add_argument("--v", type=_positive_fraction, default=None)


def _add_command(subs, name, func, help):
    """A subcommand parser; it is kept in ``args.subparser``, whose usage
    ``_check_args`` prints.  Its ``--out`` is either the file ``main``
    writes the report to (``args.out``; stdout when None) or, as
    ``args.artifact``, the file the command writes itself, while the report
    goes to stdout."""
    p = subs.add_parser(name, help=help)
    p.set_defaults(func=func, subparser=p, out=None, artifact=None)
    return p


def _unwritable(path: str):
    """Why ``path`` cannot be opened for writing, or None.  Checked
    before any computation, and without creating the file."""
    target = os.path.abspath(path)
    if os.path.isdir(target):
        return "is a directory"
    folder = os.path.dirname(target)
    if not os.path.isdir(folder):
        return "no such directory: %s" % folder
    if not os.access(target if os.path.exists(target) else folder, os.W_OK):
        return "permission denied"
    return None


def _check_args(args) -> None:
    """Usage checks that span flags or touch the file system.  Each
    failure is the subcommand's usage error (SystemExit, exit 2)."""
    if hasattr(args, "u") and (args.u is None) != (args.v is None):
        args.subparser.error("exact mode needs both --u and --v")
    # the floor solve_delta_h and limit_point reject, at --precision
    floor = sc.float_epsilon(args.precision)
    if args.command in ("curve", "limit") and args.tol <= floor:
        args.subparser.error("--tol must exceed 2^(8 - precision) = %s" % mpmath.nstr(floor, 3))
    for path in (args.out, args.artifact):
        problem = path is not None and _unwritable(path)
        if problem:
            args.subparser.error("cannot write --out %s: %s" % (path, problem))


def _env_precision() -> str:
    return os.environ.get(PRECISION_ENV, str(sc.DEFAULT_PRECISION_BITS))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; ``main`` re-reads the environment's precision."""
    parser = argparse.ArgumentParser(
        prog="pappuslab",
        description="marked-box dynamics, deformations and diagnostics",
    )
    # a string default goes through the type check, so a bad environment
    # value is a usage error too
    parser.add_argument(
        "--precision",
        type=_precision_bits,
        default=_env_precision(),
        help="working precision in bits, at least 53 (env %s)" % PRECISION_ENV,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(subs, "relations", cmd_relations, "exact group-relation suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--pairs", type=_positive, default=10)
    p.add_argument("--mutate", action="store_true", help="negative control")
    p.add_argument("--out")

    p = _add_command(subs, "iterate", cmd_iterate, "render the nested box orbit as SVG")
    _add_moduli_flags(p, "0", "0")
    _add_lambda_flags(p)
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("--out", dest="artifact", metavar="OUT", default="iterate.svg")

    p = _add_command(subs, "certify", cmd_certify, "contraction and loxodromy diagnostics")
    _add_moduli_flags(p)
    _add_lambda_flags(p)
    p.add_argument("--maxlen", type=_int_at_least(4), default=4)
    p.add_argument("--out")

    p = _add_command(subs, "curve", cmd_curve, "extension locus delta(epsilon)")
    _add_moduli_flags(p)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--out")

    p = _add_command(subs, "limit", cmd_limit, "CSV of periodic-word limit points")
    _add_moduli_flags(p)
    _add_lambda_flags(p)
    # the identity (depth 0) has no axis, so it would pass vacuously
    p.add_argument(
        "--depth", type=_positive, default=2, help="word length in crossing pairs, at least 1"
    )
    p.add_argument("--tol", type=_positive_float, default=float(al.LIMIT_TOL))
    p.add_argument("--out", dest="artifact", metavar="OUT", default="limit.csv")

    p = _add_command(subs, "variety", cmd_variety, "Jacobian certificates over a moduli grid")
    p.add_argument("--grid", type=_positive, default=4)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    parser.set_defaults(precision=_env_precision())
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # the caller's precision comes back on every return path
    with mpmath.workprec(args.precision):
        try:
            report, out = args.func(args), args.out
        except PappusLabError as exc:
            # an error report goes to stdout, whatever --out names
            report, out = {"error": type(exc).__name__, "message": str(exc)}, None
    # float(mpf) rounds the stored mantissa, so writing after the block
    # reads no precision
    _emit({"schema": SCHEMA, "command": args.command, **report}, out)
    # a report without "pass" passes unless it is an error
    return 0 if report.get("pass", "error" not in report) else 1


if __name__ == "__main__":
    sys.exit(main())
