"""Modular-group words, Farey edges, the two commuting actions and
crossing combinatorics.

Words live in the free product presentation < I, R | I^2 = R^3 = 1 >;
the derived generators are T1 = I R and T2 = I R R, with T = R I the
usual translation z -> z + 1 up to sign.  The index-2 subgroup written
`subgroup_o` consists of the words with an even number of I letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    InternalInconsistency,
    NonLoxodromic,
    NotAFareyEdge,
    NotInSubgroupO,
    PappusLabError,
)

# single letters of the normal form; "RR" is the square of R as one syllable
LETTERS = ("I", "R", "RR")

_R_POWER = {"R": 1, "RR": 2}


def _reduce(letters):
    out = []
    for let in letters:
        if let not in LETTERS:
            raise ValueError("unknown letter %r" % (let,))
        out.append(let)
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            if a == "I" and b == "I":
                out = out[:-2]
            elif a != "I" and b != "I":
                k = (_R_POWER[a] + _R_POWER[b]) % 3
                out = out[:-2]
                if k:
                    out.append("R" if k == 1 else "RR")
            else:
                break
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A modular-group element in normal form.

    letters is a tuple over {"I", "R", "RR"} with no adjacent I pair
    and no adjacent R-power pair (the free product normal form).
    """

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(self.letters))

    @classmethod
    def identity(cls) -> "GroupWord":
        return cls(())

    @classmethod
    def from_string(cls, text: str) -> "GroupWord":
        letters = []
        for tok in text.split():
            if tok == "I":
                letters.append("I")
            elif tok == "R":
                letters.append("R")
            elif tok in ("Rr", "RR"):
                letters.append("RR")
            elif tok == "T1":
                letters.extend(("I", "R"))
            elif tok == "T2":
                letters.extend(("I", "RR"))
            else:
                raise ValueError("unknown token %r" % tok)
        return cls(tuple(letters))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        inv = []
        for let in reversed(self.letters):
            if let == "I":
                inv.append("I")
            else:
                inv.append("RR" if let == "R" else "R")
        return GroupWord(tuple(inv))

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        out = GroupWord.identity()
        for _ in range(n):
            out = out * self
        return out

    def reversed(self) -> "GroupWord":
        return GroupWord(tuple(reversed(self.letters)))

    @property
    def i_count(self) -> int:
        return sum(1 for let in self.letters if let == "I")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join("Rr" if let == "RR" else let for let in self.letters) or "e"

    def cyclic_reduction(self):
        """(conjugator u, core w) with self = u w u^-1, w cyclically reduced."""
        u = []
        letters = list(self.letters)
        while len(letters) >= 2:
            a, b = letters[0], letters[-1]
            cancel = (a == "I" and b == "I") or (
                a != "I" and b != "I" and (_R_POWER[a] + _R_POWER[b]) % 3 == 0
            )
            if not cancel:
                break
            u.append(a)
            letters = letters[1:-1]
        return GroupWord(tuple(u)), GroupWord(tuple(letters))


I_WORD = GroupWord(("I",))
R_WORD = GroupWord(("R",))
T1_WORD = GroupWord(("I", "R"))
T2_WORD = GroupWord(("I", "RR"))


def enumerate_words(max_len: int, subgroup_o_only: bool = False):
    """All normal-form words with at most max_len letters."""
    frontier = [GroupWord.identity()]
    seen = {()}
    out = [GroupWord.identity()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for let in LETTERS:
                cand = GroupWord(w.letters + (let,))
                if len(cand) == len(w) + 1 and cand.letters not in seen:
                    seen.add(cand.letters)
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    if subgroup_o_only:
        out = [w for w in out if w.i_count % 2 == 0]
    return out


# ---------------------------------------------------------------------------
# 2x2 integer matrices

I_MAT = ((0, 1), (-1, 0))
R_MAT = ((-1, 1), (-1, 0))
T_MAT = ((1, 1), (0, 1))

_LETTER_MATS = {
    "I": I_MAT,
    "R": R_MAT,
    "RR": ((0, -1), (1, -1)),
}


def mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat2_det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def word_matrix(w: GroupWord):
    """The integer matrix of a word (well defined up to global sign)."""
    m = ((1, 0), (0, 1))
    for let in w.letters:
        m = mat2_mul(m, _LETTER_MATS[let])
    return m


def in_subgroup_o(w: GroupWord) -> bool:
    """Membership in the index-2 subgroup of even-I words.

    Two independent criteria are evaluated: the parity of the I count,
    and whether the mod-2 reduction of the matrix lies in the cyclic
    order-3 part of SL(2, Z/2) (odd trace, or identity mod 2).  They
    agree for every word; a disagreement indicates a library bug.
    """
    by_parity = w.i_count % 2 == 0
    m = word_matrix(w)
    by_trace = (m[0][0] + m[1][1]) % 2 == 1 or (
        m[0][1] % 2 == 0 and m[1][0] % 2 == 0
    )
    if by_parity != by_trace:
        raise InternalInconsistency(
            "parity and trace criteria disagree on %s" % w
        )
    return by_parity


# ---------------------------------------------------------------------------
# Farey edges


def _normalize_endpoint(p: int, q: int):
    if q == 0:
        if p == 0:
            raise NotAFareyEdge("0/0 is not a boundary point")
        return (1, 0)
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    return (p // g, q // g)


@dataclass(frozen=True)
class FareyEdge:
    """An oriented Farey geodesic with rational (or infinite) endpoints.

    Endpoints are reduced integer pairs (p, q) with q >= 0 and infinity
    stored as (1, 0); the Farey condition is |p q' - p' q| = 1.
    """

    tail: tuple
    head: tuple

    def __post_init__(self):
        t = _normalize_endpoint(*self.tail)
        h = _normalize_endpoint(*self.head)
        object.__setattr__(self, "tail", t)
        object.__setattr__(self, "head", h)
        if abs(t[0] * h[1] - h[0] * t[1]) != 1:
            raise NotAFareyEdge("endpoints %s, %s are not Farey neighbors" % (t, h))

    def reversed(self) -> "FareyEdge":
        return FareyEdge(self.head, self.tail)

    def __str__(self):
        def fmt(e):
            return "inf" if e[1] == 0 else ("%d/%d" % e if e[1] != 1 else str(e[0]))

        return "[%s, %s]" % (fmt(self.tail), fmt(self.head))


BASE_EDGE = FareyEdge((1, 0), (0, 1))


def _apply_mat_endpoint(m, e):
    p, q = e
    return _normalize_endpoint(m[0][0] * p + m[0][1] * q, m[1][0] * p + m[1][1] * q)


def mobius_action(w: GroupWord, e: FareyEdge) -> FareyEdge:
    """Fractional-linear action on both endpoints (exact arithmetic)."""
    m = word_matrix(w)
    return FareyEdge(_apply_mat_endpoint(m, e.tail), _apply_mat_endpoint(m, e.head))


def edge_matrix(e: FareyEdge):
    """The unique determinant-one integer matrix sending the base edge
    to e (columns are the endpoints, sign-fixed)."""
    (p, q), (pp, qq) = e.tail, e.head
    if p * qq - pp * q == 1:
        return ((p, pp), (q, qq))
    return ((-p, pp), (-q, qq))


def matrix_to_word(m) -> GroupWord:
    """Decompose a determinant-one integer matrix into the normal form,
    via the continued-fraction (Euclidean) algorithm on the first
    column, writing T = R I and the inversion as I."""
    if mat2_det(m) != 1:
        raise PappusLabError("matrix must have determinant one")

    def t_power(n: int):
        if n >= 0:
            return ("R", "I") * n
        return ("I", "RR") * (-n)

    letters = []
    a, b = m[0]
    c, d = m[1]
    while c != 0:
        quo = a // c
        letters.extend(t_power(quo))
        letters.append("I")
        # strip T^quo then the inversion: M <- I^-1 T^-quo M
        a, b, c, d = c, d, -(a - quo * c), -(b - quo * d)
    # now the matrix is +-(1, n; 0, 1)
    n = b if a == 1 else -b
    letters.extend(t_power(n))
    word = GroupWord(tuple(letters))
    check = word_matrix(word)
    if check != m and check != tuple(tuple(-x for x in row) for row in m):
        raise InternalInconsistency("matrix decomposition failed to verify")
    return word


def star_action(w: GroupWord, e: FareyEdge) -> FareyEdge:
    """The second simply transitive action, commuting with the Mobius one.

    Identifying an edge e with the unique mu sending the base edge to
    it, the action is right multiplication by the reversed word: the
    generators act by one click about the tail (T1), one click about
    the head (T2) and orientation reversal (I).
    """
    mu = edge_matrix(e)
    g = word_matrix(w.reversed())
    prod = mat2_mul(mu, g)
    return FareyEdge(
        _apply_mat_endpoint(prod, (1, 0)),
        _apply_mat_endpoint(prod, (0, 1)),
    )


def label_word(e: FareyEdge) -> GroupWord:
    """The unique word gamma with e = gamma * base edge (star action)."""
    return matrix_to_word(edge_matrix(e)).reversed()


def half_plane_contains(e: FareyEdge, inner: FareyEdge) -> bool:
    """Whether the half plane of ``inner`` sits inside that of ``e``.

    The half plane of an edge is bounded by the geodesic and chosen on
    the side swept from head to tail; after moving e back to the base
    edge this is the set of boundary points in [0, +infinity]."""
    inv = edge_matrix(e)
    inv = ((inv[1][1], -inv[0][1]), (-inv[1][0], inv[0][0]))

    def value(endpoint):
        p, q = _apply_mat_endpoint(inv, endpoint)
        return Fraction(p, q) if q else None  # None is infinity

    va, vb = value(inner.tail), value(inner.head)
    return (va is None or va >= 0) and (vb is None or vb >= 0)


# ---------------------------------------------------------------------------
# crossing sequences

W_STEPS = (
    GroupWord(("R", "I", "R", "I")),
    GroupWord(("R", "I", "RR", "I")),
    GroupWord(("RR", "I", "RR", "I")),
    GroupWord(("RR", "I", "R", "I")),
)


@dataclass(frozen=True)
class CrossingSequence:
    base: GroupWord
    steps: tuple

    def partial_products(self):
        out = []
        acc = GroupWord.identity()
        for s in self.steps:
            acc = acc * s
            out.append(acc)
        return out


def _blocks(letters):
    """Split a normal-form letter string into (r_exponent, i) blocks."""
    blocks = []
    idx = 0
    while idx < len(letters):
        if letters[idx] == "I":
            raise PappusLabError("word must alternate starting with an R power")
        a = _R_POWER[letters[idx]]
        idx += 1
        if idx >= len(letters) or letters[idx] != "I":
            raise PappusLabError("word must alternate R powers and I")
        idx += 1
        blocks.append(a)
    return blocks


def crossing_form(w: GroupWord) -> GroupWord:
    """Cyclic rotation of the infinite power of w into the block shape
    R^a I R^b I ...; raises for torsion (no axis) or odd-I words."""
    if not in_subgroup_o(w):
        raise NotInSubgroupO("crossing sequences require even-I words")
    _, core = w.cyclic_reduction()
    if core.is_identity:
        raise NonLoxodromic("the identity has no axis")
    letters = list(core.letters)
    if all(let != "I" for let in letters) or all(let == "I" for let in letters):
        raise NonLoxodromic("torsion element has no axis")
    if letters[0] == "I":
        # rotate the cyclic word to start with an R power
        letters = letters[1:] + letters[:1]
    elif letters[-1] != "I":
        # merge the cyclically adjacent R powers at the two ends
        k = (_R_POWER[letters[0]] + _R_POWER[letters[-1]]) % 3
        if k == 0:
            raise InternalInconsistency("cyclic reduction left a cancelling pair")
        letters = ["R" if k == 1 else "RR"] + letters[1:-1]
    if len(letters) % 2 != 0:
        raise PappusLabError("unexpected block structure")
    return GroupWord(tuple(letters))


def crossing_sequence(target: GroupWord, n: int) -> CrossingSequence:
    """First n crossing steps of the axis of a (periodic power of a)
    hyperbolic word across the triangulation; every step is one of the
    four W letters R I R I, R I Rr I, Rr I Rr I, Rr I R I."""
    core = crossing_form(target)
    blocks = _blocks(core.letters)
    if len(blocks) % 2 != 0:
        # odd number of I letters per period is impossible in subgroup_o
        raise InternalInconsistency("odd block count in an even-I word")
    steps = []
    for k in range(n):
        a = blocks[(2 * k) % len(blocks)]
        b = blocks[(2 * k + 1) % len(blocks)]
        step = GroupWord(
            (("R" if a == 1 else "RR"), "I", ("R" if b == 1 else "RR"), "I")
        )
        steps.append(step)
    return CrossingSequence(base=target, steps=tuple(steps))
