"""Command-line front end.

Subcommands:

- ``relations``: exact group-relation suite on random rational boxes;
- ``iterate``: SVG rendering of the nested box orbit;
- ``certify``: contraction / loxodromy diagnostics at one parameter;
- ``curve``: the extension locus delta(epsilon) and its intertwiner;
- ``limit``: CSV of limit points for periodic words;
- ``variety``: Jacobian certificates over a moduli grid.

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
from .errors import NonLoxodromic, NotNested, PappusLabError, SpecialBox

PRECISION_ENV = "PAPPUSLAB_PRECISION"
SCHEMA = 1


# ---------------------------------------------------------------------------
# plumbing


def _jsonify(value):
    if isinstance(value, (mpf, mpmath.mpc)):
        return float(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, md.GroupWord):
        return " ".join(value.letters) or "1"
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    raise TypeError("not JSON serializable: %r" % (value,))


def _emit(report: dict, out: str = None) -> None:
    text = json.dumps(report, indent=2, default=_jsonify)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %s" % text) from exc


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
            try:
                return bx.apply_matrix(box, m)
            except PappusLabError:
                continue
    return box


def _relation_suite(box, lam, mutate=False):
    """Checks of the elementary-transformation relations on one box.

    Returns the list of failed relation names; with mutate=True the
    second generator is deliberately replaced by the first, which must
    break the suite (negative control).
    """

    def op_i(b):
        return bx.i_lambda(b, lam)

    def op_t1(b):
        return bx.tau1_lambda(b, lam)

    def op_t2(b):
        return bx.tau1_lambda(b, lam) if mutate else bx.tau2_lambda(b, lam)

    eq = bx.marked_equal
    # shared subexpressions (each box operation is exact but costly)
    i_box = op_i(box)
    t1_box = op_t1(box)
    t2_box = op_t2(box)
    i_t1 = op_i(t1_box)
    i_t2 = op_i(t2_box)
    t1_i_t1 = op_t1(i_t1)
    failures = []
    if not eq(op_i(i_box), box):
        failures.append("i i = 1")
    if not eq(op_t1(i_t2), i_box):
        failures.append("t1 i t2 = i")
    if not eq(op_t2(i_t1), i_box):
        failures.append("t2 i t1 = i")
    if not eq(t1_i_t1, t2_box):
        failures.append("t1 i t1 = t2")
    if not eq(op_t2(i_t2), t1_box):
        failures.append("t2 i t2 = t1")
    # (i t1)^3 applied to the box: continue from i t1 (i t1 (box))
    cube = op_i(op_t1(op_i(t1_i_t1)))
    if not eq(cube, box):
        failures.append("(i t1)^3 = 1")
    return failures


def cmd_relations(args) -> int:
    rng = random.Random(args.seed)
    report = {
        "schema": SCHEMA,
        "command": "relations",
        "seed": args.seed,
        "trials": args.trials,
        "pairs": args.pairs,
        "mutate": bool(args.mutate),
        "failures": [],
    }
    if args.trials == 0:
        report["warning"] = "zero trials requested: vacuous pass"
        report["pass"] = True
        _emit(report, args.out)
        return 0
    lambdas = [bx.LAMBDA_ZERO] + [
        Lambda(
            u=Fraction(rng.randint(5, 15), 10), v=Fraction(rng.randint(5, 15), 10)
        )
        for _ in range(max(args.pairs - 1, 0))
    ]
    for trial in range(args.trials):
        box = _random_convex_box(rng)
        for lam in lambdas:
            for name in _relation_suite(box, lam, mutate=args.mutate):
                report["failures"].append(
                    {"trial": trial, "relation": name, "exact_lambda": lam.exact}
                )
    report["pass"] = not report["failures"]
    _emit(report, args.out)
    return 0 if report["pass"] else 1


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


def cmd_iterate(args) -> int:
    moduli = _moduli_from_args(args)
    lam = _lambda_from_args(args)
    box = bx.from_moduli(moduli)
    if not bx.is_convex(box):
        from .errors import NotConvex

        raise NotConvex("iteration is rendered for convex boxes only")
    warning = None
    if not bx.containment_check(box, lam):
        warning = "deformation outside the nesting region: boxes may overlap"
    levels = [[box]]
    for _ in range(args.depth):
        level = []
        for parent in levels[-1]:
            level.append(bx.tau1_lambda(parent, lam))
            level.append(bx.tau2_lambda(parent, lam))
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
    with open(args.out, "w") as handle:
        handle.write(svg)
    report = {
        "schema": SCHEMA,
        "command": "iterate",
        "boxes": count,
        "depth": args.depth,
        "out": args.out,
    }
    if warning:
        report["warning"] = warning
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    moduli = _moduli_from_args(args)
    lam = _lambda_from_args(args)
    box = bx.from_moduli(moduli)
    report = {
        "schema": SCHEMA,
        "command": "certify",
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
        _emit(report, args.out)
        return 1
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
    report["checks"]["non_loxodromic_words"] = [
        " ".join(w.letters) for w in scan["non_loxodromic"]
    ]
    if lam.is_zero:
        p, q = rp.non_anosov_witness(moduli)
        normal = sc.mat_mul(q, sc.mat_mul(p, sc.mat_inverse(q)))
        report["status"] = "boundary-schwartz"
        report["boundary"] = (
            "undeformed parameters: non-loxodromic words present; "
            "the square of the translation word is conjugate to a "
            "non-loxodromic normal form"
        )
        report["witness_normal_form"] = [
            [sc.to_mpf(x) for x in row] for row in sc.mat_to_mpf(normal)
        ]
        report["pass"] = True
        _emit(report, args.out)
        return 0
    anosov_like = (
        in_r_strict
        and report["checks"]["contraction"]
        and not scan["non_loxodromic"]
        and scan["min_gap"] is not None
        and scan["min_gap"] > 1
    )
    report["status"] = "anosov-certified" if anosov_like else "diagnostics-failed"
    report["pass"] = bool(anosov_like)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# curve


def cmd_curve(args) -> int:
    moduli = _moduli_from_args(args)
    eps = mpf(args.eps)
    delta = rp.solve_delta_h(moduli, eps, tol=mpf(args.tol))
    lam = Lambda(epsilon=eps, delta=delta)
    h_residual = abs(rp.curve_h(moduli, lam))
    rep = rp.Representation(moduli, lam)
    obstruction, ab = rp.obstruction(rep)
    s, residual, invertible = rp.extension_intertwiner(rep)
    sym = max(
        abs(sc.to_mpf(s[i][j]) - sc.to_mpf(s[j][i])) for i in range(3) for j in range(3)
    )
    ok = (
        h_residual <= mpf(args.tol)
        and rp._obstruction_vanishes(obstruction, ab)
        and sym <= mpf("1e-9")
        and residual <= mpf("1e-9")
        and invertible
    )
    report = {
        "schema": SCHEMA,
        "command": "curve",
        "moduli": [moduli.zeta_t, moduli.zeta_b],
        "epsilon": eps,
        "delta": delta,
        "h_residual": h_residual,
        "obstruction": abs(sc.to_mpf(obstruction)),
        "intertwiner_symmetry_defect": sym,
        "intertwiner_residual": residual,
        "intertwiner_invertible": invertible,
        "pass": ok,
    }
    _emit(report, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# limit


def cmd_limit(args) -> int:
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
        cx, cy = bx.chart_coords(sc.vec_to_mpf(sample.point.coords))
        dual = sc.vec_to_mpf(sample.dual_point.coords)
        top = sc.vec_max_abs(dual)
        rows.append(
            [
                " ".join(w.letters),
                float(cx),
                float(cy),
                float(dual[0] / top),
                float(dual[1] / top),
                float(dual[2] / top),
                float(sample.flag_residual),
                sample.depth,
            ]
        )
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "word",
                "point_x",
                "point_y",
                "dual_1",
                "dual_2",
                "dual_3",
                "flag_residual",
                "depth",
            ]
        )
        writer.writerows(rows)
    report = {
        "schema": SCHEMA,
        "command": "limit",
        "words": len(rows),
        "skipped_non_loxodromic": skipped,
        "out": args.out,
    }
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# variety


def cmd_variety(args) -> int:
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
    report = {
        "schema": SCHEMA,
        "command": "variety",
        "grid": n,
        "entries": entries,
        "pass": all_ok,
    }
    _emit(report, args.out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_moduli_flags(sub, zt_default="1/2", zb_default="1/3"):
    sub.add_argument("--zt", type=_parse_fraction, default=Fraction(zt_default))
    sub.add_argument("--zb", type=_parse_fraction, default=Fraction(zb_default))


def _add_lambda_flags(sub):
    sub.add_argument("--eps", type=_finite_float, default=0.0)
    sub.add_argument("--delta", type=_finite_float, default=0.0)
    sub.add_argument("--u", type=_parse_fraction, default=None)
    sub.add_argument("--v", type=_parse_fraction, default=None)


def _add_command(subs, name, func, help):
    """A subcommand parser; it is kept in ``args.subparser``, whose usage
    ``_check_args`` prints."""
    p = subs.add_parser(name, help=help)
    p.set_defaults(func=func, subparser=p)
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
    if args.out is not None:
        problem = _unwritable(args.out)
        if problem:
            args.subparser.error("cannot write --out %s: %s" % (args.out, problem))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pappuslab",
        description="marked-box dynamics, deformations and diagnostics",
    )
    # a string default goes through the type check, so a bad environment
    # value is a usage error too
    parser.add_argument(
        "--precision",
        type=_precision_bits,
        default=os.environ.get(PRECISION_ENV, str(sc.DEFAULT_PRECISION_BITS)),
        help="working precision in bits, at least 53 (env %s)" % PRECISION_ENV,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(subs, "relations", cmd_relations, "exact group-relation suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--pairs", type=_count, default=10)
    p.add_argument("--mutate", action="store_true", help="negative control")
    p.add_argument("--out", default=None)

    p = _add_command(subs, "iterate", cmd_iterate, "render the nested box orbit as SVG")
    _add_moduli_flags(p, "0", "0")
    _add_lambda_flags(p)
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("--out", default="iterate.svg")

    p = _add_command(subs, "certify", cmd_certify, "contraction and loxodromy diagnostics")
    _add_moduli_flags(p)
    _add_lambda_flags(p)
    p.add_argument("--maxlen", type=_count, default=4)
    p.add_argument("--out", default=None)

    p = _add_command(subs, "curve", cmd_curve, "extension locus delta(epsilon)")
    _add_moduli_flags(p)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--out", default=None)

    p = _add_command(subs, "limit", cmd_limit, "CSV of periodic-word limit points")
    _add_moduli_flags(p)
    _add_lambda_flags(p)
    # the identity (depth 0) has no axis, so it would pass vacuously
    p.add_argument(
        "--depth", type=_positive, default=2, help="word length in crossing pairs, at least 1"
    )
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--out", default="limit.csv")

    p = _add_command(subs, "variety", cmd_variety, "Jacobian certificates over a moduli grid")
    p.add_argument("--grid", type=_positive, default=4)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    sc.set_precision(args.precision)
    try:
        return args.func(args)
    except PappusLabError as exc:
        _emit(
            {
                "schema": SCHEMA,
                "command": args.command,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
