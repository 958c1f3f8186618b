import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.ctx_mp_python import _mpf
from mpmath.libmp import from_man_exp, from_rational

from pappuslab import scalars as sc
from pappuslab.errors import ComplexSpectrum, SingularMatrix


def rational_matrix(rng, bound=9):
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(3))
            for _ in range(3)
        )
        if sc.det3(m) != 0:
            return m


def test_inverse_identity():
    assert sc.mat_inverse(sc.IDENTITY) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_inverse_diagonal():
    m = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    inv = sc.mat_inverse(m)
    assert inv == ((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1))


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        sc.mat_inverse(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


def test_inverse_float_tolerance():
    m = sc.mat_to_mpf(((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    with pytest.raises(SingularMatrix):
        sc.mat_inverse(m)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_exact_multiply_back(seed):
    rng = random.Random(seed)
    a = rational_matrix(rng)
    b = rational_matrix(rng)
    assert sc.mat_mul(sc.mat_mul(a, b), sc.mat_inverse(b)) == a


def test_eigen_diagonal():
    res = sc.eigen_real(((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    assert max(abs(m - t) for m, t in zip(res.moduli, (1, 2, 3))) < mpf("1e-30")
    assert abs(res.gaps[0] - 2) < mpf("1e-30")
    assert abs(res.gaps[1] - mpf(3) / 2) < mpf("1e-30")
    assert res.loxodromic


def test_eigen_non_loxodromic():
    # a unipotent-up-to-sign matrix: all eigenvalue moduli equal 1
    res = sc.eigen_real(((-1, 1, 0), (0, -1, 0), (0, 0, 1)))
    assert max(abs(m - 1) for m in res.moduli) < mpf("1e-15")
    assert not res.loxodromic


def test_eigen_complex_pair():
    with pytest.raises(ComplexSpectrum):
        sc.eigen_real(((0, -1, 0), (1, 0, 0), (0, 0, 5)))


def test_eigen_residuals():
    rng = random.Random(7)
    for _ in range(25):
        # conjugate a well-separated diagonal by a mild random matrix
        d = ((rng.uniform(1, 2), 0, 0), (0, rng.uniform(3, 4), 0), (0, 0, rng.uniform(6, 8)))
        g = rational_matrix(rng, bound=4)
        m = sc.mat_mul(sc.mat_mul(g, sc.mat_to_mpf(d)), sc.mat_inverse(sc.mat_to_mpf(g)))
        res = sc.eigen_real(m)
        for lam, v in res.pairs:
            r = tuple(a - b for a, b in zip(sc.mat_vec(m, v), sc.vec_scale(v, lam)))
            assert sc.vec_norm(r) <= mpf("1e-9")


def test_normalize_det_one_exact_cube():
    # a perfect rational cube as determinant still gives the float result
    m = ((8, 0, 0), (0, 1, 0), (0, 0, 1))
    out = sc.normalize_det_one(m)
    assert all(type(x) is mpf for row in out for x in row)
    assert out == sc.mat_to_mpf(((4, 0, 0), (0, Fraction(1, 2), 0), (0, 0, Fraction(1, 2))))
    assert sc.det3(out) == 1


@pytest.mark.parametrize("prec", [53, 128])
def test_normalize_det_one_mixed_fraction_and_mpf(prec):
    # Fraction and mpf entries in one matrix: no mpf operator takes a
    # Fraction, so the input is converted to mpf before any arithmetic
    with mpmath.workprec(prec):
        m = ((Fraction(1, 3), mpf(2), 0), (1, mpf("0.5"), Fraction(2, 7)), (0, 0, 3))
        out = sc.normalize_det_one(m)
        assert bits(out) == bits(sc.normalize_det_one(sc.mat_to_mpf(m)))
        assert all(type(x) is mpf for row in out for x in row)
        assert abs(sc.det3(out) - 1) <= 4 * sc.float_epsilon()


def test_normalize_det_one_identity_and_idempotence():
    assert sc.normalize_det_one(sc.IDENTITY) == sc.IDENTITY
    m = ((3, 1, 0), (0, 5, 2), (1, 0, 7))
    once = sc.normalize_det_one(m)
    twice = sc.normalize_det_one(once)
    diff = sc.mat_sub(sc.mat_to_mpf(once), sc.mat_to_mpf(twice))
    assert sc.mat_max_abs(diff) < mpf("1e-30")
    assert abs(sc.det3(sc.mat_to_mpf(once)) - 1) < mpf("1e-30")


def test_normalize_negative_determinant():
    m = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
    out = sc.normalize_det_one(m)
    assert sc.det3(out) == 1


def test_det_n_matches_det3():
    rng = random.Random(3)
    for _ in range(10):
        m = rational_matrix(rng)
        assert abs(sc.det_n(m) - sc.to_mpf(sc.det3(m))) < mpf("1e-25") * (
            1 + abs(sc.to_mpf(sc.det3(m)))
        )


def test_nullspace_exact():
    # exact rows are reduced in mpf, as any others; these pivots and
    # back-substitutions are exact in it
    rows = [
        [1, 2, 3, 0],
        [0, 0, 1, 1],
    ]
    basis = sc.nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert all(type(x) is mpf for x in v)
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) == 0


def test_precision_control():
    sc.set_precision(200)
    assert sc.float_epsilon() == mpf(2) ** (8 - 200)
    sc.set_precision()
    with pytest.raises(ValueError):
        sc.set_precision(10)


# ---------------------------------------------------------------------------
# the float kernel against the operator formulas
#
# The oracle below is the operator-path code of the functions the kernel
# serves: every result of the kernel must carry the oracle's ``_mpf_``.

PRECISIONS = (53, 64, 128, 256)


def o_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def o_mat_vec(m, v):
    return (o_dot(m[0], v), o_dot(m[1], v), o_dot(m[2], v))


def o_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(o_dot(row, col) for col in bt) for row in a)


def o_second_symmetric(m):
    return (
        m[0][0] * m[1][1]
        + m[1][1] * m[2][2]
        + m[2][2] * m[0][0]
        - m[0][1] * m[1][0]
        - m[1][2] * m[2][1]
        - m[0][2] * m[2][0]
    )


def o_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def o_adjugate(m):
    return (
        (
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ),
        (
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ),
        (
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ),
    )


def o_epsilon():
    return mpf(2) ** (8 - mpmath.mp.prec)


def o_unmixed(m):
    """m, converted with mat_to_mpf if it is neither all exact nor all mpf."""
    if sc.mat_is_exact(m) or all(type(x) is mpf for row in m for x in row):
        return m
    return sc.mat_to_mpf(m)


def o_is_singular(m, d):
    if sc.is_exact(d):
        return d == 0
    m = o_unmixed(m)
    big = max(abs(x) for row in m for x in row)
    return abs(sc.to_mpf(d)) <= o_epsilon() * max(sc.to_mpf(big) ** 3, mpf(1))


def o_mat_inverse(m):
    m = o_unmixed(m)
    d = o_det3(m)
    if o_is_singular(m, d):
        raise SingularMatrix("singular")
    if sc.is_exact(d):
        dd = Fraction(d)
        return tuple(tuple(Fraction(x) / dd for x in row) for row in o_adjugate(m))
    c = 1 / sc.to_mpf(d)
    return tuple(tuple(x * c for x in row) for row in o_adjugate(m))


def o_real_cbrt(x):
    x = sc.to_mpf(x)
    return mpmath.cbrt(x) if x >= 0 else -mpmath.cbrt(-x)


def o_normalize_det_one(m):
    if not all(type(x) is mpf for row in m for x in row):
        m = sc.mat_to_mpf(m)
    d = o_det3(m)
    if o_is_singular(m, d):
        raise SingularMatrix("singular")
    c = o_real_cbrt(d)
    return tuple(tuple(x / c for x in row) for row in m)


def o_cubic_real_roots(c2, c1, c0):
    shift = c2 / 3
    p = c1 - c2 * c2 / 3
    q = c0 - c1 * c2 / 3 + 2 * c2**3 / 27
    disc = -4 * p**3 - 27 * q * q
    scale = max(abs(p) ** 3, q * q, mpf(1))
    if disc < -mpf("1e-24") * scale:
        raise ComplexSpectrum("complex")
    if abs(p) <= o_epsilon() * max(abs(q) ** mpf(2) / 3, mpf(1)) and abs(q) <= o_epsilon():
        roots = [mpf(0)] * 3
    elif disc <= 0:
        u = o_real_cbrt(-q / 2)
        roots = [2 * u, -u, -u]
    else:
        r = 2 * mpmath.sqrt(-p / 3)
        theta = mpmath.acos(min(max(3 * q / (p * r), mpf(-1)), mpf(1)))
        roots = [r * mpmath.cos(theta / 3 - 2 * mpmath.pi * k / 3) for k in range(3)]
    return [x - shift for x in roots]


def o_eigen_real(m, newton_steps=2):
    m = sc.mat_to_mpf(m)
    trace = m[0][0] + m[1][1] + m[2][2]
    e2 = o_second_symmetric(m)
    d = o_det3(m)
    roots = o_cubic_real_roots(-trace, e2, -d)

    def poly(x):
        return x**3 - trace * x * x + e2 * x - d

    def dpoly(x):
        return 3 * x * x - 2 * trace * x + e2

    polished = []
    for x in roots:
        for _ in range(newton_steps):
            dp = dpoly(x)
            if abs(dp) > o_epsilon():
                x = x - poly(x) / dp
        polished.append(x)
    moduli = tuple(sorted(abs(lam) for lam in polished))
    floor = max(moduli[2] * o_epsilon(), o_epsilon())
    gaps = (moduli[1] / max(moduli[0], floor), moduli[2] / max(moduli[1], floor))
    return m, tuple(polished), moduli, gaps


def bits(value):
    """Type and exact value of a (nested) result: an mpf by its _mpf_."""
    if isinstance(value, sc.EigenResult):
        return bits((value.matrix, value.roots, value.moduli, value.gaps))
    if isinstance(value, tuple):
        return tuple(bits(x) for x in value)
    if type(value) is mpf:
        return ("mpf", value._mpf_)
    return (type(value).__name__, value)


def outcome(func, *args):
    """bits of func(*args), or the class of the error it raises."""
    try:
        return bits(func(*args))
    except (ComplexSpectrum, SingularMatrix, TypeError, ZeroDivisionError) as exc:
        return type(exc)


KERNEL_PAIRS = {
    "mat_mul": (sc.mat_mul, o_mat_mul, 2),
    "mat_vec": (sc.mat_vec, o_mat_vec, 1),
    "det3": (sc.det3, o_det3, 0),
    "second_symmetric": (sc.second_symmetric, o_second_symmetric, 0),
    "adjugate": (sc.adjugate, o_adjugate, 0),
    "is_singular": (
        lambda m: sc.is_singular(m, sc.det3(m)),
        lambda m: o_is_singular(m, o_det3(m)),
        0,
    ),
    "mat_inverse": (sc.mat_inverse, o_mat_inverse, 0),
    "normalize_det_one": (sc.normalize_det_one, o_normalize_det_one, 0),
    "eigen_real": (sc.eigen_real, o_eigen_real, 0),
}


def exact_mpf(man, exp):
    # made without rounding: it may carry more bits than the precision
    return mpmath.mp.make_mpf(from_man_exp(man, exp))


@st.composite
def mpf_entries(draw, count):
    """count mpfs of magnitude about 2^(base + offset), base in +-200, with
    a mantissa of 1 to 320 random bits and either sign, or now and then
    zero.  In most draws the offsets are small, so that sums and
    differences of products round; in the rest they spread over +-200.
    The bits come from a drawn seed: hypothesis's own integers favour
    mantissas with few bits set, on which re-associating a sum seldom
    changes a bit."""
    base = draw(st.integers(-200, 200))
    spread = draw(st.sampled_from([3, 3, 3, 200]))
    rng = random.Random(draw(st.integers(0, 2**64)))
    out = []
    for _ in range(count):
        size = rng.randint(1, 320)
        man = rng.getrandbits(size) | 1 << (size - 1) | 1 if rng.randrange(8) else 0
        man = -man if rng.randrange(2) else man
        offset = rng.randint(-spread, spread)
        out.append(exact_mpf(man, base + offset - abs(man).bit_length()))
    return out


@st.composite
def mpf_mat(draw):
    if draw(st.booleans()):
        # symmetric: a real spectrum, so eigen_real reaches its roots
        a, b, c, d, e, f = draw(mpf_entries(6))
        return ((a, b, c), (b, d, e), (c, e, f))
    x = draw(mpf_entries(9))
    return (tuple(x[0:3]), tuple(x[3:6]), tuple(x[6:9]))


MPF_ENTRY = mpf_entries(1).map(lambda x: x[0])
MPF_VEC = mpf_entries(3).map(tuple)
MPF_MAT = mpf_mat()


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
@given(m=MPF_MAT, data=st.data())
@settings(max_examples=40, deadline=None)
def test_float_kernel_matches_operator_bits(name, prec, m, data):
    kernel, oracle, kind = KERNEL_PAIRS[name]
    args = (m, data.draw(MPF_MAT)) if kind == 2 else (m, data.draw(MPF_VEC)) if kind else (m,)
    with mpmath.workprec(prec):
        assert outcome(kernel, *args) == outcome(oracle, *args)


# the identity (p = q = 0), a double root (disc = 0 exactly), three real
# roots, a complex pair, a singular matrix and tiny, huge and negative scales
PLANTED = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((2, 0, 0), (0, 2, 0), (0, 0, 5)),
    ((1, 0, 0), (0, 2, 0), (0, 0, 3)),
    ((3, 1, 0), (1, 5, 2), (0, 2, 7)),
    ((0, -1, 0), (1, 0, 0), (0, 0, 5)),
    ((1, 2, 3), (2, 4, 6), (0, 0, 1)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((-2, 0, 0), (0, 2, 0), (0, 0, Fraction(1, 4))),
]


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("planted", PLANTED)
def test_float_kernel_branches_match_operator_bits(planted, prec):
    with mpmath.workprec(prec):
        for scale in (Fraction(1), Fraction(-1, 3), Fraction(1, 2**150), 2**170):
            m = sc.mat_to_mpf(tuple(tuple(scale * x for x in row) for row in planted))
            for name, (kernel, oracle, kind) in KERNEL_PAIRS.items():
                args = (m, m) if kind == 2 else (m, m[0]) if kind else (m,)
                assert outcome(kernel, *args) == outcome(oracle, *args), (name, scale)


EXACT_ENTRY = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
INT_OR_MPF = st.one_of(st.integers(-9, 9), MPF_ENTRY)


def mat_of(entry):
    row = st.tuples(entry, entry, entry)
    return st.tuples(row, row, row)


@pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_and_mixed_inputs_keep_values_and_types(name, data):
    kernel, oracle, kind = KERNEL_PAIRS[name]
    entry = data.draw(st.sampled_from([EXACT_ENTRY, INT_OR_MPF, st.one_of(EXACT_ENTRY, MPF_ENTRY)]))
    m = data.draw(mat_of(entry))
    if kind == 2:
        args = (m, data.draw(st.one_of(mat_of(entry), st.just(sc.IDENTITY), MPF_MAT)))
    elif kind:
        args = (m, data.draw(st.tuples(entry, entry, entry)))
    else:
        args = (m,)
    assert outcome(kernel, *args) == outcome(oracle, *args)


MIXED = ((Fraction(1, 3), mpf(2), 0), (1, mpf("0.5"), Fraction(2, 7)), (0, 0, 3))


@pytest.mark.parametrize("prec", (53, 128))
@given(m=st.one_of(st.just(MIXED), mat_of(st.one_of(EXACT_ENTRY, MPF_ENTRY))))
@settings(max_examples=40, deadline=None)
def test_mixed_input_is_converted_to_mpf(prec, m):
    # Fraction and mpf entries do not compare, and mpmath rounds a
    # Fraction operand of mixed arithmetic down: a mixed matrix is
    # converted to nearest mpfs first, as an all-mpf caller would
    assume(not sc.mat_is_exact(m) and not all(type(x) is mpf for row in m for x in row))
    with mpmath.workprec(prec):
        f = sc.mat_to_mpf(m)
        d = sc.det3(f)
        assert outcome(sc.is_singular, m, d) == outcome(sc.is_singular, f, d)
        assert outcome(sc.mat_inverse, m) == outcome(sc.mat_inverse, f)


@pytest.mark.parametrize("prec", (53, 64, 128, 256))
@given(seed=st.integers(0, 2**64))
@settings(max_examples=100, deadline=None)
def test_fraction_enters_float_mode_rounded_once(prec, seed):
    # each integer wider than the precision, rounded before the division,
    # would round the quotient two or three times
    rng = random.Random(seed)

    def wide():
        bits = rng.randint(prec + 1, prec + 300)
        return rng.getrandbits(bits) | 1 << (bits - 1)

    num, den = wide() * rng.choice((1, -1)), wide()
    with mpmath.workprec(prec):
        assert sc.to_mpf(Fraction(num, den))._mpf_ == from_rational(num, den, prec, "n")


def test_identity_times_mpf_stays_on_the_operator_path():
    m = sc.mat_to_mpf(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
    assert bits(sc.mat_mul(sc.IDENTITY, m)) == bits(o_mat_mul(sc.IDENTITY, m))
    assert bits(sc.mat_mul(m, sc.IDENTITY)) == bits(o_mat_mul(m, sc.IDENTITY))
    assert bits(sc.mat_vec(sc.IDENTITY, m[0])) == bits(o_mat_vec(sc.IDENTITY, m[0]))


# det_n against its operator body


def o_det_n(rows):
    a = [[x if isinstance(x, mpf) else sc.to_mpf(x) for x in row] for row in rows]
    n = len(a)
    det = mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


@st.composite
def det_n_matrix(draw):
    """An n x n all-mpf matrix, 1 <= n <= 18, with now and then a zero
    column, a zero row, or a first column whose largest |entry| is tied
    between rows, of either sign (a tie in a later column is undone by
    the elimination before that column's pivot is chosen)."""
    n = draw(st.integers(1, 18))
    x = draw(mpf_entries(n * n))
    rows = [x[i * n:(i + 1) * n] for i in range(n)]
    col = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["plain", "plain", "zero_column", "tie", "zero_row"]))
    if kind == "zero_column":
        for row in rows:
            row[col] = mpf(0)
    elif kind == "tie" and n > 1:
        top = max(abs(row[0]) for row in rows) or mpf(1)
        for i in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)):
            rows[i][0] = top if draw(st.booleans()) else -top
    elif kind == "zero_row":
        rows[col] = [mpf(0)] * n
    return rows


@pytest.mark.parametrize("prec", PRECISIONS)
@given(rows=det_n_matrix())
@settings(max_examples=60, deadline=None)
def test_det_n_matches_operator_bits(prec, rows):
    with mpmath.workprec(prec):
        assert bits(sc.det_n(rows)) == bits(o_det_n(rows))


@pytest.mark.parametrize("prec", PRECISIONS)
def test_det_n_tied_pivot_takes_the_first_row(prec):
    # rows 1 and 2 tie on |column 0|; the other pivot gives other bits
    third = mpf(1) / 3
    rows = [
        [mpf(1) / 7, mpf(2), mpf(3) / 11],
        [mpf(5), third, mpf(-2) / 9],
        [mpf(-5), mpf(4) / 13, third * 7],
    ]
    with mpmath.workprec(prec):
        assert bits(sc.det_n(rows)) == bits(o_det_n(rows))
        swapped = [rows[0], rows[2], rows[1]]
        assert bits(sc.det_n(swapped)) == bits(o_det_n(swapped))


# ---------------------------------------------------------------------------
# operator-count guard: on all-mpf input the kernel builds no mpf through
# mpf's arithmetic operators (a silent fall-back to them would pass every
# bit test above, only slower)

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__div__", "__rdiv__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__", "__mod__", "__rmod__",
)
ELEMENTARY = ("sqrt", "cbrt", "acos", "cos")


@pytest.fixture
def operator_calls(monkeypatch):
    """Counts mpf operator calls made outside mpmath's elementary functions."""
    calls = []
    inside = [0]

    def counted(name, op):
        def wrapper(*args):
            if not inside[0]:
                calls.append(name)
            return op(*args)

        return wrapper

    def suspended(func):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return func(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    for name in OPERATORS:
        monkeypatch.setattr(_mpf, name, counted(name, getattr(_mpf, name)))
    for name in ELEMENTARY:
        monkeypatch.setattr(mpmath, name, suspended(getattr(mpmath, name)))
    return calls


def test_operator_guard_counts_operators(operator_calls):
    x = mpf(3)
    abs(-x * x + x / 2 - 1)
    assert operator_calls == ["__neg__", "__mul__", "__truediv__", "__add__", "__sub__", "__abs__"]


@pytest.mark.parametrize("prec", [64, 128])
def test_float_kernel_makes_no_operator_calls(prec, operator_calls):
    with mpmath.workprec(prec):
        # three real roots, well separated; and a double root
        m = sc.mat_to_mpf(((3, 1, 0), (1, 5, 2), (0, 2, 7)))
        double = sc.mat_to_mpf(((2, 0, 0), (0, 2, 0), (0, 0, 5)))
        negative = sc.mat_to_mpf(((-3, 1, 0), (1, -5, 2), (0, 2, -7)))
        v = m[1]
        del operator_calls[:]
        sc.mat_mul(m, m)
        sc.mat_vec(m, v)
        sc.det3(m)
        sc.second_symmetric(m)
        sc.adjugate(m)
        sc.is_singular(m, sc.det3(m))
        sc.mat_inverse(m)
        sc.normalize_det_one(m)
        sc.normalize_det_one(negative)
        sc.eigen_real(m)
        sc.eigen_real(double)
        sc.eigen_real(sc.mat_to_mpf(sc.IDENTITY))
        assert operator_calls == []


@pytest.mark.parametrize("prec", [64, 128])
def test_dense_helpers_make_no_operator_calls(prec, operator_calls):
    with mpmath.workprec(prec):
        square = [[mpf(i * j + 1) / (i + j + 1) for j in range(9)] for i in range(9)]
        with_zero_row = square[:3] + [[mpf(0)] * 9] + square[4:]
        system = [row[:6] for row in square]
        del operator_calls[:]
        sc.det_n(square)
        sc.det_n(with_zero_row)
        sc.nullspace(system)
        sc.nullspace(with_zero_row)
        assert operator_calls == []


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9))
@settings(max_examples=50, deadline=None)
def test_to_exact_scaled_is_exact(values):
    # each mpf is its int times 2^e, with e the least exponent: some int is odd
    ints, e = sc.to_exact_scaled(mpf(v) for v in values)
    assert [Fraction(n) * Fraction(2) ** e for n in ints] == [Fraction(v) for v in values]
    assert all(n == 0 for n in ints) or any(n % 2 for n in ints)
