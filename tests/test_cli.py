import ast
import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from pappuslab import anosov_lab as al
from pappuslab import boxes as bx
from pappuslab import cli
from pappuslab import errors
from pappuslab import modular as md
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab import variety as vy
from pappuslab.boxes import BoxModuli, Lambda
from test_golden import CASES as GOLDEN_CASES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_usage_error_exit_code(capsys):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--precision", "40", "relations", "--trials", "1"],
        ["--precision", "many", "relations", "--trials", "1"],
        ["certify", "--eps", "nan"],
        ["certify", "--eps", "inf"],
        ["certify", "--delta=-inf"],
        ["limit", "--tol", "nan"],
        ["curve", "--eps", "nan"],
        ["relations", "--trials", "-3"],
        ["relations", "--pairs", "-1"],
        ["variety", "--grid", "0"],
        ["variety", "--grid", "-2"],
        ["limit", "--depth", "-1"],
        ["iterate", "--depth", "-2"],
        ["certify", "--maxlen", "-1"],
        ["limit", "--depth", "0"],
        ["curve", "--eps=-0.05", "--tol=0"],
        ["curve", "--eps=-0.05", "--tol=-1"],
        ["limit", "--depth", "1", "--eps=-0.15", "--tol=-1"],
        ["limit", "--depth", "1", "--eps=-0.15", "--tol=0"],
        # below 2^(8 - precision) the limit diameters are rounding noise
        ["limit", "--tol", "1e-40"],
        # and so is the h residual of curve
        ["curve", "--zt=3/10", "--zb=-2/10", "--eps=-0.05", "--tol", "1e-40"],
        # the shortest scanned word has four letters: a shorter scan is empty
        ["certify", "--maxlen", "0"],
        ["certify", "--maxlen", "3"],
        # lambda = 0 is always checked, so no fewer than one pair
        ["relations", "--pairs", "0"],
    ],
)
def test_invalid_values_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert "NaN" not in out
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_limit_tol_floor_follows_precision(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--precision", "256", "limit", "--depth", "1", *DEFORMED, "--tol", "1e-40"]
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["words"] == 4
    with open(tmp_path / "limit.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert all(float(row["flag_residual"]) < 1e-30 for row in rows)


def test_curve_tol_floor_follows_precision(capsys):
    argv = ["--precision", "256", "curve", "--zt=3/10", "--zb=-2/10", "--eps=-0.05"]
    code, report = run_json(capsys, *argv, "--tol", "1e-40")
    assert code == 0
    assert report["pass"] is True
    assert report["h_residual"] <= 1e-40


def test_precision_is_restored_for_the_caller(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with mpmath.workprec(100):
        code, report = run_json(
            capsys, "--precision", "64", "curve", "--zt=3/10", "--zb=-2/10", "--eps=-0.05"
        )
        assert code == 0 and report["pass"] is True
        assert mpmath.mp.prec == 100
        # a PappusLabError that ends in exit 1
        code, report = run_json(capsys, "--precision", "256", "iterate", "--zt", "2", "--zb", "0")
        assert code == 1 and report["error"] == "NotConvex"
        assert mpmath.mp.prec == 100


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--u", "9/10"],
        ["iterate", "--u", "9/10"],
        ["limit", "--u", "9/10"],
        ["certify", "--v", "1"],
    ],
)
def test_exact_lambda_needs_both_flags(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: pappuslab %s" % argv[0] in captured.err
    assert "needs both --u and --v" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["certify", "iterate", "limit"])
@pytest.mark.parametrize(
    "flags",
    [["--u", "0", "--v", "1"], ["--u=-1", "--v", "1"], ["--u", "1", "--v", "0"]],
    ids=["u0", "u-1", "v0"],
)
def test_nonpositive_u_or_v_is_usage_error(command, flags, tmp_path, monkeypatch, capsys):
    # u = e^epsilon and v = e^delta are positive
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: pappuslab %s" % command in captured.err
    assert "must be positive" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["40", "lots"])
def test_invalid_precision_env_is_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv(cli.PRECISION_ENV, value)
    assert cli.main(["relations", "--trials", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_each_call_reads_the_precision_env(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; the environment is not
    argv = ["limit", "--depth", "1", "--tol", "1e-16", "--eps=-0.15", "--delta=0.01"]
    argv += ["--out", str(tmp_path / "limit.csv")]
    monkeypatch.setenv(cli.PRECISION_ENV, "128")
    assert cli.main(argv) == 0
    # 1e-16 is below the 53-bit floor 2^(8 - 53)
    monkeypatch.setenv(cli.PRECISION_ENV, "53")
    assert cli.main(argv) == 2
    assert "--tol must exceed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--maxlen", "6", "--eps=-0.15"],
        ["limit", "--depth", "1", "--eps=-0.15"],
    ],
)
def test_one_matrix_B_per_invocation(argv, tmp_path, monkeypatch, capsys):
    # the representation is built once per command, not once per word
    calls = []
    matrix_B = rp.matrix_B

    def counting(*args):
        calls.append(args)
        return matrix_B(*args)

    monkeypatch.setattr(rp, "matrix_B", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


DEFORMED = ["--zt=3/10", "--zb=-2/10", "--eps=-0.15", "--delta=0.01"]


EXACT = ["--zt=3/10", "--zb=-2/10", "--u", "9/10", "--v", "1"]


def test_scan_forms_only_the_images_its_classes_read(monkeypatch, capsys):
    # one product per distinct prefix ending in R or RR of the classes'
    # first words, but the shortest (its image is one letter's), and none
    # for any other word; the classes are those of the per-word keys
    in_scan = []
    products = []
    scan, mat_mul = al.loxodromy_scan, sc.mat_mul

    def scanning(*args, **kwargs):
        in_scan.append(True)
        try:
            return scan(*args, **kwargs)
        finally:
            in_scan.pop()

    def counting(a, b):
        if in_scan:
            products.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(al, "loxodromy_scan", scanning)
    monkeypatch.setattr(sc, "mat_mul", counting)
    for maxlen, point, expected in (("10", DEFORMED, 10), ("8", EXACT, 10), ("12", DEFORMED, 30)):
        products.clear()
        assert cli.main(["certify", "--maxlen", maxlen, *point]) == 0
        report = json.loads(capsys.readouterr().out)
        firsts = {}
        for w in md.enumerate_words(int(maxlen)):
            if md.in_subgroup_o(w) and "I" in w.cyclic_reduction()[1].letters:
                firsts.setdefault(md.even_class_key(w), w.letters)
        assert dict(md.scan_plan(int(maxlen))[1]) == firsts
        assert report["checks"]["loxodromy_scanned"] > len(firsts)
        prefixes = {
            letters[:k] for letters in firsts.values() for k in range(1, len(letters) + 1)
            if letters[k - 1] != "I" and any(x != "I" for x in letters[:k - 1])
        }
        assert len(products) == len(prefixes) == expected


def counting_calls(monkeypatch, module, name) -> list:
    """The arguments of every call of module.name, which still runs."""
    calls = []
    func = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return func(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_scan_filters_each_class_once_and_solves_one_spectrum(monkeypatch, capsys):
    # 72 scanned words, 7 classes of {w, w^-1} under even conjugation: the
    # gap filter decides all 7, and only the class of the least gap is
    # solved in mpf
    filtered = counting_calls(monkeypatch, al, "_image_bounds")
    solved = counting_calls(monkeypatch, al, "_spectrum")
    assert cli.main(["certify", "--maxlen", "10", *DEFORMED]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["loxodromy_scanned"] == 72
    assert len(filtered) == 7
    assert len(solved) == 1


def test_scan_filters_exact_images_and_solves_one_spectrum(monkeypatch, capsys):
    # an exact image's entries over their common denominator are an exact
    # integer cubic too: the filter decides all 7 classes here, where each
    # took an mpf solve before it read exact images
    filtered = counting_calls(monkeypatch, al, "_image_bounds")
    solved = counting_calls(monkeypatch, al, "_spectrum")
    assert cli.main(["certify", "--maxlen", "10", *EXACT]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["loxodromy_scanned"] == 72
    assert len(filtered) == 7
    assert len(solved) == 1


def test_limit_solves_no_spectrum_where_the_filter_decides(tmp_path, monkeypatch, capsys):
    # the gap filter decides each of the 16 period products at this point
    monkeypatch.chdir(tmp_path)
    filtered = counting_calls(monkeypatch, al, "_least_gap_bounds")
    solved = counting_calls(monkeypatch, al, "_spectrum")
    assert cli.main(["limit", "--depth", "2", *DEFORMED]) == 0
    assert json.loads(capsys.readouterr().out)["words"] == 16
    assert len(filtered) == 16
    assert solved == []


# the 18 non-loxodromic words of length <= 10 at the exact zero
# deformation, as the exact characteristic polynomial finds them
UNDEFORMED_NON_LOXODROMIC = [
    "I R I R", "I RR I RR", "R I R I", "RR I RR I", "R I RR I R", "RR I R I RR",
    "I R I RR I R I", "I RR I R I RR I", "I R I R I R I R", "I RR I RR I RR I RR",
    "R I R I R I R I", "RR I RR I RR I RR I", "R I R I RR I R I RR",
    "R I RR I R I RR I RR", "R I RR I RR I RR I R", "RR I R I R I R I RR",
    "RR I R I RR I R I R", "RR I RR I R I RR I R",
]


@pytest.mark.parametrize("prec", ["53", "64", "128", "256"])
def test_exact_zero_deformation_verdict_ignores_precision(prec, capsys):
    argv = ["--precision", prec, "certify", "--maxlen", "10", "--zt=3/10", "--zb=-2/10"]
    assert cli.main([*argv, "--u", "1", "--v", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["non_loxodromic_words"] == UNDEFORMED_NON_LOXODROMIC
    assert report["checks"]["loxodromy_min_gap"] == 1.0
    # the parabolic class's first word has no real 53-bit spectrum here:
    # its least gap, 1, comes from the exact cubic
    argv = ["--precision", prec, "certify", "--maxlen", "6", "--zt=7/10", "--zb=-6/10"]
    assert cli.main([*argv, "--u", "1", "--v", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["checks"]["non_loxodromic_words"]) == 6
    assert report["checks"]["loxodromy_min_gap"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--maxlen", "10", *DEFORMED],
        ["limit", "--depth", "2", *DEFORMED],
    ],
)
def test_no_eigenvectors_built(argv, tmp_path, monkeypatch, capsys):
    # certify and limit read spectral gaps only
    def forbidden(*args):
        raise AssertionError("eigenvector built")

    monkeypatch.setattr(sc, "_eigenvector", forbidden)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_limit_searches_its_stopping_depth(tmp_path, monkeypatch, capsys):
    # the walk forms each depth's product once and no product past the
    # stop; every depth it reaches tests the diagonal pair, and only a
    # depth whose diagonal passes tests the six pairs
    tested = []
    six = []
    products = []
    stop_pairs, chart_pairs, scaled_mul = al._stop_pairs, al._chart_pairs, sc.scaled_mul

    def stopping(g, bound):
        tested.append((g, bound))
        return stop_pairs(g, bound)

    def pairing(g):
        six.append(g)
        return chart_pairs(g)

    def multiplying(a, b):
        products.append(1)
        return scaled_mul(a, b)

    monkeypatch.setattr(al, "_stop_pairs", stopping)
    monkeypatch.setattr(al, "_chart_pairs", pairing)
    monkeypatch.setattr(sc, "scaled_mul", multiplying)
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "limit", "--depth", "2", *DEFORMED)
    assert code == 0
    with open(tmp_path / "limit.csv") as handle:
        depths = [int(row["depth"]) for row in csv.DictReader(handle)]
    assert len(depths) == report["words"] == 16
    assert len(products) == sum(depths) == 412
    assert len(tested) == len(products) + len(depths)
    # the diagonal (p, r) is the second of the six pairs, (p, q) the first
    diagonal_passed = [
        g for g, (square, left, right) in tested
        for n, d in chart_pairs(g)[1:2] if n << left < square * d << right
    ]
    assert six == diagonal_passed
    assert len(depths) <= len(six) <= 2 * len(depths)


def test_limit_evaluates_each_step_word_once(tmp_path, monkeypatch, capsys):
    calls = []
    evaluate = rp.evaluate

    def counting(rep, w):
        calls.append(w)
        return evaluate(rep, w)

    monkeypatch.setattr(rp, "evaluate", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["limit", "--depth", "2", *DEFORMED]) == 0
    capsys.readouterr()
    # the step images, each once; the loxodromy checks read the chain
    assert set(calls) <= set(md.W_STEPS)
    for w in md.W_STEPS:
        assert calls.count(w) <= 1


def test_limit_sets_up_its_parameter_point_once(tmp_path, monkeypatch, capsys):
    # the region verdict, the base box and the scaled step images are the
    # point's, not the word's: one of each for the 16 words
    calls = {"from_moduli": 0, "in_region": 0, "step": 0}
    from_moduli, in_region, to_scaled = bx.from_moduli, bx.in_region, sc.to_scaled

    def counting(name, func):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapped

    def scaling(values):
        values = list(values)
        calls["step"] += len(values) == 9
        return to_scaled(values)

    monkeypatch.setattr(bx, "from_moduli", counting("from_moduli", from_moduli))
    monkeypatch.setattr(bx, "in_region", counting("in_region", in_region))
    monkeypatch.setattr(sc, "to_scaled", scaling)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["limit", "--depth", "2", *DEFORMED]) == 0
    assert json.loads(capsys.readouterr().out)["words"] == 16
    assert calls == {"from_moduli": 1, "in_region": 1, "step": len(md.W_STEPS)}


def test_point_used_at_another_precision_raises():
    # a point holds the bits of the precision it was built at: its matrices,
    # step images and limit setup may not be read at another, and it may
    # not be built from a float lambda of another
    moduli = BoxModuli(Fraction(3, 10), Fraction(-1, 5))
    word = md.W_STEPS[0] * md.W_STEPS[1]
    with mpmath.workprec(64):
        lam = Lambda(epsilon=mpf("-0.15"), delta=mpf("0.01"))
        rep, exact_rep = rp.Representation(moduli, lam), rp.Representation(moduli, Lambda(u=Fraction(9, 10), v=1))
        for point in (rep, exact_rep):
            al.limit_point(point, word)
    with mpmath.workprec(256):
        with pytest.raises(errors.PrecisionMismatch):
            rp.Representation(moduli, lam)
        for point in (rep, exact_rep):
            for read in (lambda: point.a, lambda: point.b, lambda: point.step_images, lambda: rp.evaluate(point, word)):
                with pytest.raises(errors.PrecisionMismatch):
                    read()
            with pytest.raises(errors.PrecisionMismatch):
                al.limit_point(point, word)
    with mpmath.workprec(64):
        assert al.limit_point(rep, word) == al.limit_point(rp.Representation(moduli, lam), word)


def test_deformation_values_are_computed_once_per_op(tmp_path, monkeypatch, capsys):
    # cosh eps, sinh eps, e^delta and e^-delta are the Lambda's, built once
    # per command, not once per box or per region test
    calls = {"cosh": 0, "sinh": 0, "exp": 0}

    def counting(name):
        func = getattr(mpmath, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(mpmath, name, counting(name))
    monkeypatch.chdir(tmp_path)
    for argv in (["certify", "--maxlen", "10"], ["limit", "--depth", "2"], ["iterate", "--depth", "6"]):
        for name in calls:
            calls[name] = 0
        assert cli.main([*argv, *DEFORMED]) == 0
        capsys.readouterr()
        assert calls == {"cosh": 1, "sinh": 1, "exp": 2}, argv


def test_default_limit_runs_at_the_lowest_precision(tmp_path, monkeypatch, capsys):
    # LIMIT_TOL, the --tol default, clears the 53-bit floor 2^-45
    assert al.LIMIT_TOL > sc.float_epsilon(53)
    assert cli.build_parser().parse_args(["limit"]).tol == float(al.LIMIT_TOL)
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "--precision", "53", "limit", "--depth", "2")
    assert code == 0 and report["words"] > 0


def test_closed_stdout_exits_quietly(tmp_path):
    # a reader that stops early (``pappuslab limit | head -3``) closes the
    # pipe; the report's write then fails, and no traceback follows
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    env.pop(cli.PRECISION_ENV, None)
    with subprocess.Popen(
        [sys.executable, "-m", "pappuslab.cli", "limit", "--depth", "1"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    assert "Traceback" not in stderr and stderr == ""


COMMANDS = {
    "relations": ["relations", "--trials", "1"],
    "iterate": ["iterate", "--depth", "1"],
    "certify": ["certify", "--maxlen", "4"],
    "curve": ["curve", "--eps=-0.05"],
    "limit": ["limit", "--depth", "1"],
    "variety": ["variety", "--grid", "1"],
}


# name -> argv on which the command raises a PappusLabError, and the library
# function made to raise it where no argument does
FAILING = {
    "relations": (COMMANDS["relations"], (bx, "from_moduli")),
    "iterate": (["iterate", "--zt=2", "--zb=1/3"], None),
    "certify": (["certify", "--zt=2", "--zb=1/3"], None),
    "curve": (["curve", "--zt=0", "--zb=0", "--eps=-0.05"], None),
    "limit": (["limit", "--depth", "1", "--zt=2", "--zb=1/3"], None),
    "variety": (COMMANDS["variety"], (vy, "jacobian_check_psi")),
}


def _raise_special_box(*args):
    raise errors.SpecialBox("made to fail")


@pytest.mark.parametrize(
    "argv, failing",
    [(list(argv), None) for argv, _ in GOLDEN_CASES.values()]
    + [(argv, None) for argv in COMMANDS.values()]
    + [(argv, name) for name, (argv, _) in FAILING.items()],
    ids=["golden-" + name for name in GOLDEN_CASES]
    + ["ok-" + name for name in COMMANDS]
    + ["error-" + name for name in FAILING],
)
def test_main_stamps_every_report_and_maps_it_to_the_exit_code(
    argv, failing, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    if failing:
        if FAILING[failing][1]:
            monkeypatch.setattr(*FAILING[failing][1], _raise_special_box)
        # an error report goes to stdout, and no --out file is made
        argv = argv + ["--out", "report.out"]
    code, report = run_json(capsys, *argv)
    assert list(report)[:2] == ["schema", "command"]
    assert report["schema"] == cli.SCHEMA
    assert report["command"] == next(a for a in argv if a in COMMANDS)
    if failing:
        assert code == 1 and "error" in report
        assert not (tmp_path / "report.out").exists()
    else:
        assert "error" not in report
        assert code == (0 if report.get("pass", True) else 1)


@pytest.mark.parametrize("where", ["missing/out.txt", "."])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_unwritable_out_is_usage_error(name, where, tmp_path, monkeypatch, capsys):
    # the target is checked before any computation starts
    def forbidden(args):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "cmd_" + name, forbidden)
    monkeypatch.chdir(tmp_path)
    assert cli.main(COMMANDS[name] + ["--out", str(tmp_path / where)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: pappuslab %s" % name in captured.err
    assert "cannot write --out" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("lam", [[], ["--u", "9/10", "--v", "1"]], ids=["float", "exact"])
def test_limit_at_nonconvex_moduli_is_not_convex(lam, tmp_path, monkeypatch, capsys):
    # as certify and iterate: the boxes of non-convex moduli have no interior
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "limit", "--depth", "1", "--zt=2", "--zb=1/3", *lam)
    assert code == 1 and report["error"] == "NotConvex"


def test_limit_skipped_words_spelled_as_in_json(tmp_path, monkeypatch, capsys):
    # undeformed special box: the two parabolic step words have no limit
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "limit", "--depth", "1", "--zt", "0", "--zb", "0")
    assert code == 0
    assert report["words"] == 2
    assert report["skipped_non_loxodromic"] == ["R I R I", "RR I RR I"]


def test_relations_default_pass(capsys):
    code, report = run_json(capsys, "relations", "--trials", "10", "--pairs", "3")
    assert code == 0
    assert report["schema"] == 1
    assert report["pass"]
    assert report["failures"] == []


def test_relations_mutation_detected(capsys):
    code, report = run_json(capsys, "relations", "--trials", "3", "--mutate")
    assert code == 1
    assert not report["pass"]
    assert report["failures"]


def test_relations_zero_trials(capsys):
    code, report = run_json(capsys, "relations", "--trials", "0")
    assert code == 0
    assert report["pass"]
    assert "warning" in report


def test_relations_deterministic(capsys):
    _, r1 = run_json(capsys, "relations", "--trials", "5", "--seed", "7")
    _, r2 = run_json(capsys, "relations", "--trials", "5", "--seed", "7")
    assert r1 == r2


def test_iterate_depth_zero(tmp_path, capsys):
    out = tmp_path / "boxes.svg"
    code, report = run_json(
        capsys, "iterate", "--depth", "0", "--out", str(out)
    )
    assert code == 0
    assert report["boxes"] == 1
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 1
    # the base box spans the unit square of the chart
    assert "-1.00000,-1.00000 1.00000,-1.00000 1.00000,1.00000 -1.00000,1.00000" in text


def test_iterate_depth_eight_count(tmp_path, capsys):
    out = tmp_path / "boxes.svg"
    code, report = run_json(
        capsys, "iterate", "--depth", "8", "--out", str(out)
    )
    assert code == 0
    assert report["boxes"] == 2**9 - 1
    assert out.read_text().count("<polygon") == 2**9 - 1


@pytest.mark.parametrize("prec", ["53", "64", "128", "256"])
def test_deformed_float_iterate_reaches_depth_eight(prec, tmp_path, capsys):
    # float coordinates are stored at max |entry| 1; left to drift, they
    # reached 3e8 at depth 4, and at depth 5 a well-conditioned frame was
    # rejected as DegenerateBox
    out = tmp_path / "boxes.svg"
    code, report = run_json(
        capsys, "--precision", prec, "iterate", "--eps=-0.1", "--depth", "8", "--out", str(out)
    )
    assert code == 0
    assert report["boxes"] == 2**9 - 1


def test_iterate_outside_region_warning(tmp_path, capsys):
    out = tmp_path / "boxes.svg"
    code, report = run_json(
        capsys, "iterate", "--depth", "2", "--eps", "0.4", "--out", str(out)
    )
    assert code == 0
    assert "warning" in report
    assert "<!--" in out.read_text()


def test_certify_deformed(capsys):
    code, report = run_json(
        capsys, "certify", "--zt", "1/2", "--zb", "1/3", "--eps", "-0.2"
    )
    assert code == 0
    assert report["status"] == "anosov-certified"
    assert report["checks"]["region"]
    assert report["checks"]["nesting"]
    assert report["checks"]["contraction"]
    assert report["checks"]["non_loxodromic_words"] == []
    assert report["checks"]["loxodromy_min_gap"] > 1


def test_certify_boundary_schwartz(capsys):
    code, report = run_json(capsys, "certify", "--eps", "0", "--delta", "0")
    assert code == 0
    assert report["status"] == "boundary-schwartz"
    assert report["checks"]["non_loxodromic_words"]
    assert "witness_normal_form" in report


def test_certify_outside_region(capsys):
    code, report = run_json(capsys, "certify", "--eps", "0.5")
    assert code == 1
    assert report["status"] == "outside-region"


def test_curve_command(capsys):
    code, report = run_json(
        capsys, "curve", "--zt", "1/2", "--zb", "1/3", "--eps", "-0.05"
    )
    assert code == 0
    assert report["pass"]
    assert abs(report["h_residual"]) <= 1e-12
    assert report["obstruction"] <= 1e-10
    assert report["intertwiner_invertible"]


def test_curve_obstruction_verdict_is_the_library_one(capsys):
    # near the boundary of the moduli square the obstruction is 6.3e-8 in
    # absolute terms but vanishes relative to max|A B|^3, as the
    # intertwiner search already accepted it
    code, report = run_json(capsys, "curve", "--zt=999/1000", "--zb=-998/1000", "--eps=-0.05")
    assert code == 0
    assert report["pass"]
    assert report["obstruction"] > 1e-10
    moduli, eps = BoxModuli(Fraction(999, 1000), Fraction(-998, 1000)), mpf(-0.05)
    rep = rp.Representation(moduli, Lambda(epsilon=eps, delta=rp.solve_delta_h(moduli, eps)))
    obstruction, ab = rp.obstruction(rep)
    assert report["obstruction"] == float(abs(obstruction))
    assert rp._obstruction_vanishes(obstruction, ab)


def test_curve_forms_the_obstruction_product_once(capsys, monkeypatch):
    # the reported obstruction and the intertwiner's gate read one A B^lambda
    moduli, eps = BoxModuli(Fraction(3, 10), Fraction(-1, 5)), mpf(-0.05)
    rep = rp.Representation(moduli, Lambda(epsilon=eps, delta=rp.solve_delta_h(moduli, eps)))
    a, b = rep.a, rep.b
    products = []
    mat_mul = sc.mat_mul
    monkeypatch.setattr(sc, "mat_mul", lambda x, y: products.append((x, y)) or mat_mul(x, y))
    code, report = run_json(capsys, "curve", "--zt=3/10", "--zb=-2/10", "--eps=-0.05")
    assert code == 0 and report["pass"]
    assert sum(x == a and y == b for x, y in products) == 1


def test_curve_special_box_error(capsys):
    code, report = run_json(
        capsys, "curve", "--zt", "0", "--zb", "0", "--eps", "-0.05"
    )
    assert code == 1
    assert report["error"] == "SpecialBox"


def test_limit_csv(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    code, report = run_json(
        capsys,
        "limit",
        "--zt", "0", "--zb", "0",
        "--eps", "-0.1",
        "--depth", "1",
        "--out", str(out),
    )
    assert code == 0
    assert report["words"] == 4
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["word", "point_x", "point_y"]
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[6]) <= 1e-9  # flag residual column


def test_limit_skips_parabolic_at_boundary(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    code, report = run_json(
        capsys,
        "limit",
        "--zt", "0", "--zb", "0",
        "--eps", "0",
        "--depth", "1",
        "--out", str(out),
    )
    assert code == 0
    assert report["skipped_non_loxodromic"]
    assert report["words"] + len(report["skipped_non_loxodromic"]) == 4


def test_variety_grid(capsys):
    code, report = run_json(capsys, "variety", "--grid", "3")
    assert code == 0
    assert report["pass"]
    assert len(report["entries"]) == 9
    specials = [e for e in report["entries"] if e.get("phi_special_box")]
    assert len(specials) == 1  # the grid contains the special moduli


def test_exact_lambda_flags(capsys):
    code, report = run_json(
        capsys, "certify", "--zt", "0", "--zb", "0", "--u", "9/10", "--v", "1"
    )
    assert code == 0
    assert report["status"] == "anosov-certified"


# ---------------------------------------------------------------------------
# cold start: every CLI call imports the package, so it stays on mpmath and
# the standard library

PACKAGE_DIR = Path(cli.__file__).resolve().parent

ALL_SUBCOMMANDS = """
import contextlib, io, sys
from pappuslab import cli
point = ["--zt=3/10", "--zb=-2/10", "--eps=-0.15", "--delta=0.01"]
runs = [
    ["relations", "--trials", "1", "--pairs", "1"],
    ["iterate", "--depth", "1", "--out", "iterate.svg"],
    ["certify", "--maxlen", "4", *point],
    ["curve", "--zt=3/10", "--zb=-2/10", "--eps=-0.05"],
    ["limit", "--depth", "1", "--out", "limit.csv", *point],
    ["variety", "--grid", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, "numpy" in sys.modules)
"""


def test_subcommands_never_import_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    env.pop(cli.PRECISION_ENV, None)
    done = subprocess.run(
        [sys.executable, "-c", ALL_SUBCOMMANDS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


def test_package_imports_only_stdlib_and_mpmath():
    # imports sit at module level: one inside a function hides a cycle
    # or a dependency from this walk's readers
    allowed = set(sys.stdlib_module_names) | {"mpmath", "pappuslab"}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [
                    n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
                assert not inner, (path.name, node.name, inner)
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert set(roots) <= allowed, (path.name, roots)


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _public_names():
    return {
        name: path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in _module_level_names(ast.parse(path.read_text()))
        if not name.startswith("_")
    }


def _names_read(paths):
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


TESTS_DIR = Path(__file__).resolve().parent


def test_every_public_name_is_referenced():
    # a public module-level name of the package that no code or test
    # reads, other than its own definition, is dead
    referenced = _names_read([*PACKAGE_DIR.glob("*.py"), *TESTS_DIR.glob("*.py")])
    unreferenced = sorted((module, name) for name, module in _public_names().items() if name not in referenced)
    assert not unreferenced


def test_no_package_module_calls_the_public_box_constructor():
    # OvermarkedBox(...) validates points from outside; a box the package
    # derives from a valid one is built by OvermarkedBox._trusted
    calls = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "OvermarkedBox" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not calls


# public names that neither the package nor the acceptance suite reads
READ_ONLY_BY_MODULE_TESTS = (
    "psi_eval",  # variety: the defining polynomials, which the certificates cut into halves
    "apply_symmetry",  # projective: the flag action, tested with ProjSymmetry.compose
    "SPECIAL_BOX",  # boxes: the moduli (0, 0) box, a fixture of the module tests
    "T2_WORD",  # modular: the second click generator, beside T1_WORD
    "tau2",  # boxes: the second Pappus child, beside tau1 (the package takes both from pappus_children)
)


def test_package_keeps_only_what_it_or_the_acceptance_suite_reads():
    # a theory cross-check or an unused capability lives in the tests that
    # exercise it, not in the package
    referenced = _names_read([*PACKAGE_DIR.glob("*.py"), TESTS_DIR / "test_acceptance.py"])
    unread = sorted(
        (module, name)
        for name, module in _public_names().items()
        if name not in referenced and name not in READ_ONLY_BY_MODULE_TESTS
    )
    assert not unread
