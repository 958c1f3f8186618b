import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pappuslab import modular as md
from pappuslab.errors import NonLoxodromic, NotAFareyEdge
from pappuslab.modular import BASE_EDGE, FareyEdge, GroupWord


def random_word(rng, length):
    letters = []
    for _ in range(length):
        letters.append(rng.choice(["I", "R", "RR"]))
    return GroupWord(tuple(letters))


def test_normalize_relations():
    assert GroupWord(("I", "I")).is_identity
    assert GroupWord(("R", "R", "R")).is_identity
    assert GroupWord(("R", "R")) == GroupWord(("RR",))
    # T1 I T2 = I
    w = md.T1_WORD * md.I_WORD * md.T2_WORD
    assert w == md.I_WORD


def test_from_string():
    assert md.GroupWord.from_string("T1") == GroupWord(("I", "R"))
    assert md.GroupWord.from_string("T2") == GroupWord(("I", "RR"))
    assert md.GroupWord.from_string("I I") == GroupWord.identity()
    assert md.GroupWord.from_string("R Rr") == GroupWord.identity()
    # str spells a word as the command line's reports do, and reads back
    assert str(GroupWord(("R", "I", "RR", "I"))) == "R I RR I"
    assert str(GroupWord.identity()) == "1"
    for w in md.enumerate_words(4)[1:]:
        assert md.GroupWord.from_string(str(w)) == w


def test_inverse_and_power():
    rng = random.Random(0)
    for _ in range(20):
        w = random_word(rng, rng.randint(0, 8))
        assert (w * w.inverse()).is_identity
        assert w ** 2 == w * w


def test_word_matrix_generators():
    assert md.word_matrix(md.R_WORD) == ((-1, 1), (-1, 0))
    assert md.word_matrix(md.I_WORD) == ((0, 1), (-1, 0))
    # T = R I is the translation up to sign
    t = md.word_matrix(GroupWord(("R", "I")))
    assert t in (((1, 1), (0, 1)), ((-1, -1), (0, -1)))


def test_in_subgroup_o():
    assert md.in_subgroup_o(md.R_WORD)
    assert not md.in_subgroup_o(md.I_WORD)
    assert md.in_subgroup_o(GroupWord(("I", "R", "I")))
    assert not md.in_subgroup_o(md.T1_WORD)
    assert md.in_subgroup_o(md.T1_WORD * md.T2_WORD)


def test_subgroup_criteria_consistent():
    # the I parity agrees with the mod-2 reduction of the word matrix
    # lying in the cyclic order-3 part of SL(2, Z/2): odd trace, or the
    # identity mod 2
    for w in md.enumerate_words(12):
        m = md.word_matrix(w)
        by_trace = (m[0][0] + m[1][1]) % 2 == 1 or (m[0][1] % 2 == 0 and m[1][0] % 2 == 0)
        assert md.in_subgroup_o(w) == by_trace, w


def test_farey_edges():
    e = FareyEdge((1, 0), (0, 1))
    assert e.tail == (1, 0) and e.head == (0, 1)
    FareyEdge((1, 2), (1, 3))
    with pytest.raises(NotAFareyEdge):
        FareyEdge((1, 3), (2, 3))
    # normalization of signs and common factors
    e2 = FareyEdge((-2, -4), (-1, -1))
    assert e2.tail == (1, 2) and e2.head == (1, 1)


def test_mobius_action_examples():
    # R sends [inf, 0] to [1, inf]
    e = md.mobius_action(md.R_WORD, BASE_EDGE)
    assert e == FareyEdge((1, 1), (1, 0))
    assert md.mobius_action(GroupWord.identity(), BASE_EDGE) == BASE_EDGE


def test_star_action_examples():
    assert md.star_action(md.I_WORD, BASE_EDGE) == FareyEdge((0, 1), (1, 0))
    assert md.star_action(md.R_WORD, BASE_EDGE) == FareyEdge((1, 1), (1, 0))
    assert md.star_action(md.T1_WORD, BASE_EDGE) == FareyEdge((1, 0), (1, 1))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_star_is_action_and_commutes(seed):
    rng = random.Random(seed)
    g = random_word(rng, rng.randint(0, 6))
    h = random_word(rng, rng.randint(0, 6))
    e = md.star_action(random_word(rng, rng.randint(0, 4)), BASE_EDGE)
    # (g h) * e = g * (h * e)
    assert md.star_action(g * h, e) == md.star_action(g, md.star_action(h, e))
    # the two actions commute
    assert md.mobius_action(g, md.star_action(h, e)) == md.star_action(
        h, md.mobius_action(g, e)
    )


def test_label_word_examples():
    assert md.label_word(BASE_EDGE).is_identity
    assert md.label_word(FareyEdge((0, 1), (1, 0))) == md.I_WORD
    assert md.label_word(FareyEdge((1, 0), (1, 1))) == md.T1_WORD


def test_label_word_inverts_star():
    words = md.enumerate_words(5)
    seen = set()
    for w in words:
        e = md.star_action(w, BASE_EDGE)
        key = (e.tail, e.head)
        # simple transitivity: distinct words give distinct edges
        assert key not in seen
        seen.add(key)
        assert md.label_word(e) == w


def test_farey_predicate_preserved():
    rng = random.Random(13)
    for _ in range(30):
        w = random_word(rng, rng.randint(0, 8))
        e = md.mobius_action(w, BASE_EDGE)
        FareyEdge(e.tail, e.head)  # revalidates


def half_plane_contains(e, inner):
    """Whether the half plane of ``inner`` sits inside that of ``e``.

    The half plane of an edge is bounded by the geodesic and chosen on
    the side swept from head to tail; after moving e back to the base
    edge this is the set of boundary points in [0, +infinity]."""
    (a, b), (c, d) = md.edge_matrix(e)
    inv = ((d, -b), (-c, a))

    def value(endpoint):
        p, q = md._apply_mat_endpoint(inv, endpoint)
        return Fraction(p, q) if q else None  # None is infinity

    va, vb = value(inner.tail), value(inner.head)
    return (va is None or va >= 0) and (vb is None or vb >= 0)


def test_half_plane_nesting():
    # clicking by a positive tau word keeps the half plane weakly inside
    taus = (md.T1_WORD, md.T2_WORD, md.T1_WORD * md.T2_WORD, md.T2_WORD * md.T1_WORD)
    for g in md.enumerate_words(3):
        e = md.star_action(g, BASE_EDGE)
        for tau in taus:
            inner = md.star_action(tau, e)
            assert half_plane_contains(e, inner)
            # nesting of iterated positive clicks
            assert half_plane_contains(e, md.star_action(tau, inner))
    # a negative click leaves the half plane
    assert not half_plane_contains(
        BASE_EDGE, md.star_action(md.T1_WORD.inverse(), BASE_EDGE)
    )
    # orientation reversal keeps the same endpoints 0, inf
    assert half_plane_contains(BASE_EDGE, md.star_action(md.I_WORD, BASE_EDGE))


def crossing_sequence(w, n):
    """The first n crossing steps of w: its one period cycled."""
    period = md.crossing_steps(w)
    return tuple(period[k % len(period)] for k in range(n))


def partial_products(steps):
    out = []
    acc = GroupWord.identity()
    for s in steps:
        acc = acc * s
        out.append(acc)
    return out


def test_crossing_steps_cut_the_crossing_form():
    # one period of four-letter W steps whose concatenation is the form
    checked = 0
    for w in filter(md.in_subgroup_o, md.enumerate_words(10)):
        try:
            form = md.crossing_form(w)
        except NonLoxodromic:
            continue
        steps = md.crossing_steps(w)
        assert all(s in md.W_STEPS for s in steps)
        assert sum((s.letters for s in steps), ()) == form.letters
        checked += 1
    assert checked == 72


def test_crossing_sequence_periodic_letters():
    w = GroupWord(("R", "I", "R", "I"))
    assert all(s == w for s in crossing_sequence(w, 6))
    w2 = GroupWord(("RR", "I", "R", "I"))
    assert all(s == w2 for s in crossing_sequence(w2, 5))


def test_crossing_sequence_alternating():
    w = GroupWord(("R", "I", "R", "I", "RR", "I", "RR", "I"))
    a = GroupWord(("R", "I", "R", "I"))
    b = GroupWord(("RR", "I", "RR", "I"))
    assert crossing_sequence(w, 6) == (a, b, a, b, a, b)


def test_crossing_sequence_partial_products_in_o():
    w = GroupWord(("R", "I", "RR", "I", "R", "I", "R", "I"))
    for g in partial_products(crossing_sequence(w, 8)):
        assert md.in_subgroup_o(g)


def test_crossing_sequence_torsion_rejected():
    with pytest.raises(NonLoxodromic):
        md.crossing_steps(md.R_WORD)
    with pytest.raises(NonLoxodromic):
        md.crossing_steps(GroupWord(("I", "R", "I")))


def test_crossing_sequence_axis_oracle():
    # the partial products trace the axis of genuinely hyperbolic words:
    # the fixed points of the word matrix must lie weakly on opposite
    # sides of each crossed edge image, i.e. every partial product g
    # maps the base edge to an edge separating the two fixed points.
    import math

    w = GroupWord(("R", "I", "RR", "I"))  # trace -3, hyperbolic
    m = md.word_matrix(w)
    tr = m[0][0] + m[1][1]
    assert abs(tr) > 2
    # fixed points of (a z + b) / (c z + d)
    a, b = m[0]
    c, d = m[1]
    disc = math.sqrt(tr * tr - 4)
    roots = sorted([((a - d) + s * disc) / (2 * c) for s in (1, -1)])
    for g in partial_products(crossing_sequence(w, 8)):
        e = md.mobius_action(g, BASE_EDGE)

        def val(end):
            p, q = end
            return p / q if q else math.inf

        lo, hi = sorted([val(e.tail), val(e.head)])
        # one fixed point weakly inside [lo, hi], the other outside
        inside = [lo <= r <= hi for r in roots]
        assert inside.count(True) == 1


def test_enumerate_words_counts():
    # free product Z/2 * Z/3: counts of normal forms by syllable length
    words = md.enumerate_words(2)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), 0)
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0)
    lens = [len(w.letters) for w in words]
    assert lens.count(0) == 1
    assert lens.count(1) == 3
    assert lens.count(2) == 4  # I R, I Rr, R I, Rr I
    # each normal form is reached once, from its one parent
    words = md.enumerate_words(10)
    assert len({w.letters for w in words}) == len(words) == 218
    assert all(md._reduce(w.letters) == w.letters for w in words)
    # in the breadth-first order of reducing every one-letter extension
    frontier = reference = [GroupWord.identity()]
    for _ in range(10):
        frontier = [
            child for w in frontier for let in md.LETTERS
            if len(child := GroupWord(w.letters + (let,))) == len(w) + 1
        ]
        reference = reference + frontier
    assert [w.letters for w in words] == [w.letters for w in reference]


# ---------------------------------------------------------------------------
# classes under even conjugation

letters = st.lists(st.sampled_from(md.LETTERS), max_size=12).map(lambda ls: GroupWord(tuple(ls)))
even_words = letters.filter(md.in_subgroup_o)


@given(letters)
@settings(max_examples=300)
def test_cyclic_reduction_parts_are_normal_forms(w):
    # built unreduced, as slices of w's normal form
    u, core = w.cyclic_reduction()
    assert md._reduce(u.letters) == u.letters and md._reduce(core.letters) == core.letters
    assert u * core * u.inverse() == w
    assert len(core) < 2 or core.cyclic_reduction()[0].is_identity


@given(letters, even_words)
@settings(max_examples=300)
def test_even_class_key_is_a_class_function(w, u):
    key = md.even_class_key(w)
    assert md.even_class_key(u * w * u.inverse()) == key
    assert md.even_class_key(w.inverse()) == key


@given(letters)
@settings(max_examples=300)
def test_even_class_key_is_a_rotation_of_the_class(w):
    # the key is itself a word of the class: an even conjugate of w or w^-1
    key = GroupWord(md.even_class_key(w))
    assert md.even_class_key(key) == md.even_class_key(w)
    assert len(key) <= len(w)


def test_even_class_key_separates_odd_conjugates():
    # rotating by a single I is conjugation by an odd word: I w I
    w = GroupWord.from_string("I R I R I R I RR")
    odd = GroupWord.from_string("R I R I R I RR I")
    assert md.I_WORD * w * md.I_WORD == odd
    assert md.even_class_key(w) != md.even_class_key(odd)
    # torsion: A and its odd conjugate B = I A I differ too
    assert md.even_class_key(md.R_WORD) != md.even_class_key(md.I_WORD * md.R_WORD * md.I_WORD)


def brute_force_classes(words, with_inverse):
    """Partition of words (as sets of letter tuples) by conjugation with
    the even words of length <= 6, and by inversion if asked."""
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    conjugators = [u for u in md.enumerate_words(6) if md.in_subgroup_o(u)]
    for w in words:
        images = [u * w * u.inverse() for u in conjugators]
        if with_inverse:
            images.append(w.inverse())
        for v in images:
            if v in index:
                parent[find(index[v])] = find(index[w])
    classes = {}
    for w in words:
        classes.setdefault(find(index[w]), set()).add(w.letters)
    return sorted(map(sorted, classes.values()))


def test_even_class_key_matches_brute_force_classes():
    # the 72 even words with an axis of length <= 10 fall into 14 classes
    # under even conjugation and 7 once w ~ w^-1; the key draws the latter
    words = [
        w for w in md.enumerate_words(10)
        if md.in_subgroup_o(w) and "I" in w.cyclic_reduction()[1].letters
    ]
    assert len(words) == 72
    assert len(brute_force_classes(words, with_inverse=False)) == 14
    keyed = {}
    for w in words:
        keyed.setdefault(md.even_class_key(w), set()).add(w.letters)
    assert sorted(map(sorted, keyed.values())) == brute_force_classes(words, with_inverse=True)
    assert len(keyed) == 7


def has_axis(w):
    """An even word of infinite order: not the identity, and its matrix not
    elliptic (a finite-order element of PSL(2, Z) has |trace| < 2)."""
    m = md.word_matrix(w)
    return bool(w.letters) and abs(m[0][0] + m[1][1]) >= 2


@pytest.mark.parametrize("max_len", range(4, 13))
def test_scan_plan_is_the_per_word_class_grouping(max_len):
    # the words of the scan in enumeration order, each with its own key, and
    # each class's first word: letters and keys only
    words, firsts = md.scan_plan(max_len)
    expected = [
        (w, md.even_class_key(w)) for w in md.enumerate_words(max_len) if md.in_subgroup_o(w) and has_axis(w)
    ]
    assert list(words) == expected
    grouped = {}
    for w, key in expected:
        grouped.setdefault(key, w.letters)
    assert list(firsts) == list(grouped.items())
    assert all(type(w) is GroupWord for w, _ in words)
    assert all(type(x) is str for key, letters in firsts for x in key + letters)
    assert md.scan_plan(max_len) is md.scan_plan(max_len)
