import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from pappuslab import boxes as bx
from pappuslab import representation as rp
from pappuslab import scalars as sc
from pappuslab import variety as vy
from pappuslab.boxes import BoxModuli, Lambda
from pappuslab.errors import IdentityInput, OutsideRegion, SpecialBox

M_TEST = BoxModuli(Fraction(1, 2), Fraction(1, 3))
LAM_ZERO = Lambda(epsilon=0, delta=0)
IDENTITY = sc.IDENTITY


def random_sl3(rng, steps=6):
    """Random integer matrix of determinant exactly one (a product of
    elementary shears)."""
    m = IDENTITY
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-3, 3)
        shear = tuple(
            tuple(
                1 if r == col else (c if (r, col) == (i, j) else 0)
                for col in range(3)
            )
            for r in range(3)
        )
        m = sc.mat_mul(m, shear)
    return m


def test_psi_identity_pair():
    assert vy.psi_eval(IDENTITY, IDENTITY) == (0, 3, 3, 0, 3, 3)


def test_psi_vanishes_on_generator_family():
    for zt in (Fraction(-1, 2), 0, Fraction(2, 5)):
        for zb in (Fraction(-1, 4), 0, Fraction(1, 3)):
            for eps, delta in ((0, 0), (-0.1, 0.0), (-0.2, 0.05)):
                lam = Lambda(epsilon=eps, delta=delta)
                if not bx.in_region(lam):
                    continue
                p = vy.generator_pair(BoxModuli(zt, zb), lam)
                for value in vy.psi_eval(p.a, p.b):
                    assert abs(sc.to_mpf(value)) < mpf("1e-9")


def test_psi3_is_inverse_trace():
    rng = random.Random(31)
    for _ in range(100):
        m = random_sl3(rng)
        inv = sc.mat_inverse(m)
        tr_inv = inv[0][0] + inv[1][1] + inv[2][2]
        assert vy.psi_eval(m, IDENTITY)[2] == tr_inv


def test_order3_rotation():
    c = mpf(-1) / 2
    s = mpmath.sqrt(3) / 2
    rot = ((1, 0, 0), (0, c, -s), (0, s, c))
    assert vy.order3_trace_check(rot)


def test_order3_generator_image():
    a = sc.normalize_det_one(sc.mat_to_mpf(rp.matrix_A(M_TEST)))
    assert vy.order3_trace_check(a)


def test_order3_negative_and_identity():
    rng = random.Random(5)
    m = random_sl3(rng)
    while m[0][0] + m[1][1] + m[2][2] == 0:
        m = random_sl3(rng)
    assert not vy.order3_trace_check(m)
    with pytest.raises(IdentityInput):
        vy.order3_trace_check(IDENTITY)


def test_jacobian_psi_matches_fd():
    for lam in (LAM_ZERO, Lambda(epsilon=-0.1, delta=0.02)):
        report = vy.jacobian_check_psi(M_TEST, lam)
        assert report["closed_form"] > 0
        assert report["relative_error"] <= mpf("1e-6")
        assert report["match"]


def test_jacobian_psi_origin_value():
    # at the special box with zero deformation the closed form reduces
    # to 9 * 1 * 1 * (2 * 1) / 2 = 9; finite differences agree
    report = vy.jacobian_check_psi(BoxModuli(0, 0), LAM_ZERO)
    assert abs(report["closed_form"] - 9) < mpf("1e-25")
    assert report["match"]


def test_jacobian_psi_outside_region():
    with pytest.raises(OutsideRegion):
        vy.jacobian_check_psi(M_TEST, Lambda(epsilon=0.5, delta=0))


def test_jacobian_psi_sign_stability():
    ticks = [mpf(k) / 5 - mpf("0.4") for k in range(5)]
    for zt in ticks:
        for zb in ticks:
            value = vy.closed_form_psi_jacobian(BoxModuli(zt, zb), LAM_ZERO)
            assert value > 0


def test_jacobian_phi_matches_fd():
    report = vy.jacobian_check_phi(M_TEST)
    assert report["closed_form"] > 0
    assert report["relative_error"] <= mpf("1e-6")
    assert report["match"]


def test_jacobian_phi_special_box():
    with pytest.raises(SpecialBox):
        vy.jacobian_check_phi(BoxModuli(0, 0))
    with pytest.raises(SpecialBox):
        vy.closed_form_phi_jacobian(BoxModuli(0, 0))


def test_jacobian_phi_symmetric_in_moduli():
    a = vy.closed_form_phi_jacobian(BoxModuli(Fraction(1, 2), Fraction(1, 3)))
    b = vy.closed_form_phi_jacobian(BoxModuli(Fraction(1, 3), Fraction(1, 2)))
    assert abs(a - b) < mpf("1e-25") * a


def test_phi_check_builds_each_generator_pair_once(monkeypatch):
    # 26 finite-difference evaluations, 18 of which perturb only the
    # conjugator: 9 distinct (moduli, deformation) points
    calls = []
    matrix_B = rp.matrix_B

    def counting(*args):
        calls.append(args)
        return matrix_B(*args)

    monkeypatch.setattr(rp, "matrix_B", counting)
    assert vy.jacobian_check_phi(M_TEST)["match"]
    assert len(calls) == 9
    keys = {(m.zeta_t, m.zeta_b, lam.epsilon, lam.delta) for m, lam in calls}
    assert len(keys) == 9


def test_psi_check_reuses_the_unmoved_half(monkeypatch):
    # 36 finite-difference evaluations each move one entry of A or of B:
    # the other matrix's half of Ψ is the base one, evaluated once
    calls = []
    half = vy._psi_half

    def counting(m):
        calls.append(m)
        return half(m)

    monkeypatch.setattr(vy, "_psi_half", counting)
    assert vy.jacobian_check_psi(M_TEST, Lambda(epsilon=mpf("-0.1"), delta=mpf("0.01")))["match"]
    assert len(calls) == 2 + 36
