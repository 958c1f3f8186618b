"""Modular-group words, Farey edges, the two commuting actions and
crossing combinatorics.

Words live in the free product presentation < I, R | I^2 = R^3 = 1 >;
the derived generators are T1 = I R and T2 = I R R, with T = R I the
usual translation z -> z + 1 up to sign.  The index-2 subgroup written
`subgroup_o` consists of the words with an even number of I letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


def _invert_letters(letters: tuple) -> tuple:
    return tuple("I" if let == "I" else ("RR" if let == "R" else "R") for let in reversed(letters))


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
    def _trusted(cls, letters: tuple) -> "GroupWord":
        """A word whose letters are already a normal form, not reduced again."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

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
        return GroupWord(_invert_letters(self.letters))

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
        return self.letters.count("I")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        """The letters separated by spaces, or 1 for the identity: the
        spelling of words in the command line's reports."""
        return " ".join(self.letters) or "1"

    def cyclic_reduction(self):
        """(conjugator u, core w) with self = u w u^-1, w cyclically reduced;
        both are slices of a normal form, so normal forms."""
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
        return GroupWord._trusted(tuple(u)), GroupWord._trusted(tuple(letters))


def even_class_key(w: GroupWord) -> tuple:
    """Canonical key of the class of {w, w^-1} under conjugation by
    even-I words.

    The images of even words under the deformed representations are
    matrices, so conjugation by an even word conjugates the image and
    inversion inverts it: equal keys give equal spectra up to reversal.
    Conjugation by an odd word swaps which of A and B^lambda the
    rotation letters use and does not preserve the spectrum, so w and
    I w I can have different keys.

    With w = u c u^-1 and c cyclic (``cyclic_reduction``, then the two
    end R powers merged by conjugating with the first, an even letter),
    a rotation of c by its first k letters is the conjugate of w by u
    times those letters, and k runs over two turns because c commutes
    with itself.  Only the rotations whose conjugator has an even
    number of I letters are kept; the key is the least of them over c
    and c^-1.  A c without I letters (a torsion or trivial w) has no
    such rotation when u is odd; its key is then I c I.
    """
    u, core = w.cyclic_reduction()
    letters = core.letters
    if len(letters) >= 2 and letters[0] != "I" and letters[-1] != "I":
        k = (_R_POWER[letters[0]] + _R_POWER[letters[-1]]) % 3
        letters = letters[1:-1] + ("R" if k == 1 else "RR",)
    parity = u.i_count % 2
    if parity and "I" not in letters:
        return ("I",) + min(letters, _invert_letters(letters)) + ("I",)

    def least_even_rotation(c):
        n, odd, rotations = len(c), parity, []
        for k in range(2 * n):
            if not odd:
                rotations.append(c[k % n:] + c[:k % n])
            odd ^= c[k % n] == "I"
        return min(rotations, default=c)

    return min(least_even_rotation(letters), least_even_rotation(_invert_letters(letters)))


I_WORD = GroupWord(("I",))
R_WORD = GroupWord(("R",))
T1_WORD = GroupWord(("I", "R"))
T2_WORD = GroupWord(("I", "RR"))


def enumerate_words(max_len: int):
    """All normal-form words with at most max_len letters, breadth first.

    A normal form has exactly one parent, its prefix one letter shorter,
    so each word is reached once.  A letter extends a nonempty normal
    form exactly when one of it and the last letter is I and the other
    is not, so the children are normal forms as built.
    """
    frontier = [GroupWord.identity()]
    out = list(frontier)
    for _ in range(max_len):
        frontier = [GroupWord._trusted(w.letters + (let,)) for w in frontier for let in LETTERS
                    if not w.letters or (let == "I") != (w.letters[-1] == "I")]
        out.extend(frontier)
    return out


@cache
def scan_plan(max_len: int) -> tuple:
    """(words, firsts) of a loxodromy scan: the even words of
    ``enumerate_words(max_len)`` with an axis (an I in the cyclic core), in
    order, each with its ``even_class_key``; and (key, letters) of each
    class's first word.  Letters and keys only, kept per process: a one-shot
    command builds it once, as before; a process scanning many points, once."""
    words, firsts = [], {}
    for w in enumerate_words(max_len):
        if in_subgroup_o(w) and "I" in w.cyclic_reduction()[1].letters:
            key = even_class_key(w)
            firsts.setdefault(key, w.letters)
            words.append((w, key))
    return tuple(words), tuple(firsts.items())


# ---------------------------------------------------------------------------
# 2x2 integer matrices

_LETTER_MATS = {
    "I": ((0, 1), (-1, 0)),
    "R": ((-1, 1), (-1, 0)),
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
    """Membership in the index-2 subgroup of even-I words."""
    return w.i_count % 2 == 0


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


# ---------------------------------------------------------------------------
# crossing sequences

W_STEPS = (
    GroupWord(("R", "I", "R", "I")),
    GroupWord(("R", "I", "RR", "I")),
    GroupWord(("RR", "I", "RR", "I")),
    GroupWord(("RR", "I", "R", "I")),
)


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


def crossing_steps(w: GroupWord) -> tuple:
    """One period of the crossing steps of the axis of a hyperbolic
    word across the triangulation: ``crossing_form(w)`` cut into
    four-letter words, each one of the ``W_STEPS``."""
    letters = crossing_form(w).letters
    return tuple(GroupWord(letters[k: k + 4]) for k in range(0, len(letters), 4))
