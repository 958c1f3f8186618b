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
from pappuslab.errors import OutsideRegion, SpecialBox

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


# Over tenths moduli in [-0.8, 0.8] and three in-region deformations, the
# det-one generator images have |trace| and |second symmetric function| at
# most 7.1e-15 at 53 bits (6.1e-18 at 64), two decades below TRACE_TOL, and
# |A^3 - Id| at most 3.9e-14, far below the cube test's sqrt(TRACE_TOL).  A
# det-one integer matrix of other order has an integer trace or second
# symmetric function of at least 1 in absolute value.
TRACE_TOL = mpf("1e-12")


def order3_criteria(a, tol=TRACE_TOL):
    """(trace criterion, cube test) of a matrix: whether its trace and
    second symmetric function vanish, and whether its cube is the
    identity.  For a det-one matrix other than the identity the two
    agree."""
    af = sc.mat_to_mpf(a)
    by_trace = abs(af[0][0] + af[1][1] + af[2][2]) <= tol and abs(sc.second_symmetric(af)) <= tol
    cube = sc.mat_mul(af, sc.mat_mul(af, af))
    by_cube = sc.mat_max_abs(sc.mat_sub(cube, IDENTITY)) <= mpmath.sqrt(tol)
    return by_trace, by_cube


def test_order3_rotation():
    c = mpf(-1) / 2
    s = mpmath.sqrt(3) / 2
    rot = ((1, 0, 0), (0, c, -s), (0, s, c))
    assert order3_criteria(rot) == (True, True)


def test_order3_generator_image():
    for m in (M_TEST, BoxModuli(Fraction(-8, 10), Fraction(7, 10))):
        for lam in (LAM_ZERO, bx.LAMBDA_ZERO, Lambda(epsilon=-0.2, delta=0.05)):
            p = vy.generator_pair(m, lam)
            assert order3_criteria(p.a) == (True, True)
            assert order3_criteria(p.b) == (True, True)


def test_order3_negative_and_identity():
    rng = random.Random(5)
    m = random_sl3(rng)
    while m[0][0] + m[1][1] + m[2][2] == 0:
        m = random_sl3(rng)
    assert order3_criteria(m) == (False, False)
    # the identity is the one det-one cube root of Id that the trace
    # criterion misses, which is why the criterion excludes it
    assert order3_criteria(IDENTITY) == (False, True)


def test_jacobian_psi_matches_fd():
    # the float zero, the exact zero the variety command uses, and a deformation
    for lam in (LAM_ZERO, bx.LAMBDA_ZERO, Lambda(epsilon=-0.1, delta=0.02)):
        report = vy.jacobian_check_psi(M_TEST, lam)
        assert report["closed_form"] > 0
        assert report["relative_error"] <= mpf("1e-6")
        assert report["match"]


def test_jacobian_psi_origin_value():
    # at the special box with zero deformation the closed form reduces
    # to 9 * 1 * 1 * (2 * 1) / 2 = 9; finite differences agree
    for lam in (LAM_ZERO, bx.LAMBDA_ZERO):
        report = vy.jacobian_check_psi(BoxModuli(0, 0), lam)
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


def test_phi_check_builds_each_generator_piece_once(monkeypatch):
    # 26 finite-difference evaluations at 9 distinct (moduli, deformation)
    # keys: B0 once per each of the 5 distinct moduli, the Σ-conjugation
    # only at the 4 keys that move the deformation, and the conjugation
    # by g at the 18 evaluations that move the conjugator
    calls = {"matrix_B0": [], "sigma_conjugate": [], "_conjugate": []}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(rp, "matrix_B0")
    counting(rp, "sigma_conjugate")
    counting(vy, "_conjugate")
    assert vy.jacobian_check_phi(M_TEST)["match"]
    assert len(calls["matrix_B0"]) == 5
    assert len({(m.zeta_t, m.zeta_b) for (m,) in calls["matrix_B0"]}) == 5
    assert len(calls["sigma_conjugate"]) == 4
    assert not any(lam.is_zero for _, lam in calls["sigma_conjugate"])
    assert len(calls["_conjugate"]) == 18
    assert not any(g == IDENTITY for g, _, _ in calls["_conjugate"])


@pytest.mark.parametrize("prec", [53, 64, 128, 256])
def test_generator_pairs_have_unit_determinant(prec):
    # normalize_det_one gives det = 1 up to rounding, measured against the
    # scale of sc.is_singular: |det - 1| <= 2^(8 - prec) max(max|m|^3, 1)
    ticks = [Fraction(k, 10) for k in (-8, -5, -2, 0, 3, 6, 8)]
    with mpmath.workprec(prec):
        for lam in (
            LAM_ZERO,
            Lambda(epsilon=Fraction(-1, 10), delta=Fraction(1, 50)),
            Lambda(epsilon=Fraction(-3, 10), delta=Fraction(1, 10)),
        ):
            assert bx.in_region(lam)
            for zt in ticks:
                for zb in ticks:
                    p = vy.generator_pair(BoxModuli(zt, zb), lam)
                    for m in (p.a, p.b):
                        scale = max(sc.mat_max_abs(m) ** 3, 1)
                        assert abs(sc.det3(m) - 1) <= sc.float_epsilon() * scale


# The _mpf_ of finite_difference and relative_error of both certificates,
# below the 53 bits that the goldens print.  psi is the smoothness
# certificate at the exact zero deformation that `variety` uses, and
# psi_deformed at (epsilon, delta) = (-1/10, 1/50).
PINNED_BITS = {
    (53, "-1/2", "1/2", "psi"): (
        (0, 7036874413565707, -48, 53),
        (0, 5773388497771561, -83, 53),
    ),
    (53, "-1/2", "1/2", "psi_deformed"): (
        (0, 5006100355461363, -47, 53),
        (0, 3273420530385859, -82, 52),
    ),
    (53, "-1/2", "1/2", "phi"): (
        (0, 694999942333623, -38, 50),
        (0, 1125945766355927, -82, 51),
    ),
    (53, "0", "1/2", "psi"): (
        (0, 9007199251674333, -49, 53),
        (0, 3066659, -53, 22),
    ),
    (53, "0", "1/2", "psi_deformed"): (
        (0, 3146088350688725, -47, 52),
        (0, 7786816060863397, -84, 53),
    ),
    (53, "0", "1/2", "phi"): (
        (0, 4670399613245835, -43, 53),
        (0, 78003, -50, 17),
    ),
    (53, "3/10", "-7/10", "psi"): (
        (0, 2686730441526997, -46, 52),
        (0, 6948225903941715, -83, 53),
    ),
    (53, "3/10", "-7/10", "psi_deformed"): (
        (0, 7530407162938489, -47, 53),
        (0, 8327687790228919, -83, 53),
    ),
    (53, "3/10", "-7/10", "phi"): (
        (0, 4692521472158361, -39, 53),
        (0, 7535373150979623, -89, 53),
    ),
    (64, "-1/2", "1/2", "psi"): (
        (0, 14411518807588929317, -59, 64),
        (0, 2351805761848218747, -103, 62),
    ),
    (64, "-1/2", "1/2", "psi_deformed"): (
        (0, 10252493534927849293, -58, 64),
        (0, 11016193217230170955, -105, 64),
    ),
    (64, "-1/2", "1/2", "phi"): (
        (0, 11386879057904150169, -52, 64),
        (0, 1635036633433594921, -98, 61),
    ),
    (64, "0", "1/2", "psi"): (
        (0, 9223372036857701067, -59, 64),
        (0, 2925259, -63, 22),
    ),
    (64, "0", "1/2", "psi_deformed"): (
        (0, 12886377889612143547, -59, 64),
        (0, 2731391162476449203, -103, 62),
    ),
    (64, "0", "1/2", "phi"): (
        (0, 597811150539555707, -50, 60),
        (0, 11332261874464232009, -101, 64),
    ),
    (64, "3/10", "-7/10", "psi"): (
        (0, 11004847896405032225, -58, 64),
        (0, 1954720974272910417, -102, 61),
    ),
    (64, "3/10", "-7/10", "psi_deformed"): (
        (0, 7711136941491436933, -57, 63),
        (0, 1743942917758999087, -102, 61),
    ),
    (64, "3/10", "-7/10", "phi"): (
        (0, 9610283975179349183, -50, 64),
        (0, 2704910153816137643, -98, 62),
    ),
    (128, "-1/2", "1/2", "psi"): (
        (0, 8307674973655724205648794126752102577, -118, 123),
        (0, 169553000072334406457927369091710053253, -234, 127),
    ),
    (128, "-1/2", "1/2", "psi_deformed"): (
        (0, 189125124356124435043388368872433214985, -122, 128),
        (0, 268959664890686904292290156218970871805, -235, 128),
    ),
    (128, "-1/2", "1/2", "phi"): (
        (0, 210050843779413716235828484235192325983, -116, 128),
        (0, 235262068505005432239014796153764928553, -165, 128),
    ),
    (128, "0", "1/2", "psi"): (
        (0, 85070591730234615865843651857941576917, -122, 126),
        (0, 475947, -126, 19),
    ),
    (128, "0", "1/2", "psi_deformed"): (
        (0, 237711714966720583196837834852425071969, -123, 128),
        (0, 79527484926936572443373197545248139967, -233, 126),
    ),
    (128, "0", "1/2", "phi"): (
        (0, 88221354387293768612471179790108999823, -117, 127),
        (0, 203458899306932911517645359173698097737, -165, 128),
    ),
    (128, "3/10", "-7/10", "psi"): (
        (0, 203003612715006295756446399887767272253, -122, 128),
        (0, 4594488123830634657941152621628287265, -228, 122),
    ),
    (128, "3/10", "-7/10", "psi_deformed"): (
        (0, 142245369676971038943589389905932997715, -121, 127),
        (0, 42719549421964903546532036466849981913, -231, 126),
    ),
    (128, "3/10", "-7/10", "phi"): (
        (0, 177278448965789749171514767683918298295, -114, 128),
        (0, 12344087970079880730341985712263871163, -160, 124),
    ),
    (256, "-1/2", "1/2", "psi"): (
        (0, 11307821214581659709333104004754678501295896940003961331978279688272766488275, -248, 253),
        (0, 3125, -248, 12),
    ),
    (256, "-1/2", "1/2", "psi_deformed"): (
        (0, 502780820000928521670518663409355997045752904333315754328887168885870374369, -243, 249),
        (0, 11282285596683088215268581573228949164531595036148014496766756539802994677503, -489, 253),
    ),
    (256, "-1/2", "1/2", "phi"): (
        (0, 35738299147499591386489468367042442690719704069849259378558573225688210997537, -243, 255),
        (0, 20013883379399804801362579563782827639411592680819002648298282939963902221353, -291, 254),
    ),
    (256, "0", "1/2", "psi"): (
        (0, 28948022309329048855892746252171976963317496166410141009864396001978282286787, -250, 254),
        (0, 123197, -254, 17),
    ),
    (256, "0", "1/2", "psi_deformed"): (
        (0, 80889105013711152839815144806296922782307729898854859488907950132902724075997, -251, 256),
        (0, 5313372537309568427980164476584279878856943544820933597773236286014332534703, -489, 252),
    ),
    (256, "0", "1/2", "phi"): (
        (0, 15010085641939621237300197808773892261770723849489771192619934207965235377771, -244, 254),
        (0, 69233475827292017440226248846511376201503223283798842128138734379843069748371, -293, 256),
    ),
    (256, "3/10", "-7/10", "psi"): (
        (0, 8634818728520482649521401888038029945381037847696127706803576367870635941021, -247, 253),
        (0, 87243541801964098663435710667144032629740005936635541121580140484924031184815, -492, 256),
    ),
    (256, "3/10", "-7/10", "psi_deformed"): (
        (0, 96807182154447186060584291125927109044526414946327831014162174572373247308287, -250, 256),
        (0, 30414393569185378173696693112753284313746274806906321476985968597710344589761, -491, 255),
    ),
    (256, "3/10", "-7/10", "phi"): (
        (0, 30162365109075865651177133915115149248047837783439376580779769122230398542279, -241, 255),
        (0, 67207607551025030911093734575286070668527092176802363949707923279623014135447, -292, 256),
    ),
}


@pytest.mark.parametrize("prec", [53, 64, 128, 256])
def test_certificate_bits_are_pinned(prec):
    with mpmath.workprec(prec):
        for zt, zb in (("-1/2", "1/2"), ("0", "1/2"), ("3/10", "-7/10")):
            m = BoxModuli(Fraction(zt), Fraction(zb))
            reports = {
                "psi": vy.jacobian_check_psi(m, bx.LAMBDA_ZERO),
                "psi_deformed": vy.jacobian_check_psi(
                    m, Lambda(epsilon=Fraction(-1, 10), delta=Fraction(1, 50))
                ),
                "phi": vy.jacobian_check_phi(m),
            }
            for name, report in reports.items():
                bits = (report["finite_difference"]._mpf_, report["relative_error"]._mpf_)
                assert bits == PINNED_BITS[(prec, zt, zb, name)], name


@pytest.mark.parametrize("prec", [53, 64, 128])
def test_float_and_exact_zero_deformations_agree(prec):
    # B at the float zero is B0 rounded to nearest, as at the exact zero
    # that the variety command uses: the certificate is the same, bit for bit
    m = BoxModuli(Fraction(3, 10), Fraction(-7, 10))
    with mpmath.workprec(prec):
        reports = [vy.jacobian_check_psi(m, lam) for lam in (LAM_ZERO, bx.LAMBDA_ZERO)]
    for key in ("closed_form", "finite_difference", "relative_error"):
        assert reports[0][key]._mpf_ == reports[1][key]._mpf_, key


def test_psi_check_reuses_the_unmoved_half(monkeypatch):
    # 36 finite-difference evaluations each move one entry of A or of B:
    # the other matrix's half of Ψ is the base one, evaluated once
    calls = []
    half = vy._psi_half

    def counting(m):
        calls.append(m)
        return half(m)

    monkeypatch.setattr(vy, "_psi_half", counting)
    # a float deformation, and the exact zero of the variety command
    for lam in (Lambda(epsilon=mpf("-0.1"), delta=mpf("0.01")), bx.LAMBDA_ZERO):
        calls.clear()
        assert vy.jacobian_check_psi(M_TEST, lam)["match"]
        assert len(calls) == 2 + 36
