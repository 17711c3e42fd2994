"""Shared fixtures and oracles: small bitrades with hand-checked structure,
and group facts computed from their definitions by brute force."""

import itertools
from array import array

import pytest

from bitrades.core import make_bitrade

# 2x3 bitrade whose mate shifts each row cyclically; separated, not
# homogeneous (rows hold 3 entries, columns 2)
TWO_BY_THREE_CIRC = [
    ("a", "c", "f"), ("a", "d", "g"), ("a", "e", "h"),
    ("b", "c", "g"), ("b", "d", "h"), ("b", "e", "f"),
]
TWO_BY_THREE_STAR = [
    ("a", "c", "g"), ("a", "d", "h"), ("a", "e", "f"),
    ("b", "c", "f"), ("b", "d", "g"), ("b", "e", "h"),
]

# smallest possible bitrade: one 2x2 cell pattern with swapped symbols
INTERCALATE_CIRC = [
    ("r1", "c1", "s1"), ("r1", "c2", "s2"),
    ("r2", "c1", "s2"), ("r2", "c2", "s1"),
]
INTERCALATE_STAR = [
    ("r1", "c1", "s2"), ("r1", "c2", "s1"),
    ("r2", "c1", "s1"), ("r2", "c2", "s2"),
]

# 3x4 bitrade of size 11 in which row "c" splits into two cycles
NONSEP_CIRC = [
    ("a", "d", "h"), ("a", "e", "i"), ("a", "f", "j"), ("a", "g", "k"),
    ("b", "d", "i"), ("b", "e", "l"), ("b", "f", "k"),
    ("c", "d", "k"), ("c", "e", "j"), ("c", "f", "l"), ("c", "g", "h"),
]
NONSEP_STAR = [
    ("a", "d", "i"), ("a", "e", "j"), ("a", "f", "k"), ("a", "g", "h"),
    ("b", "d", "k"), ("b", "e", "i"), ("b", "f", "l"),
    ("c", "d", "h"), ("c", "e", "l"), ("c", "f", "j"), ("c", "g", "k"),
]


def _shift(triples, suffix):
    return [(r + suffix, c + suffix, s + suffix) for (r, c, s) in triples]


@pytest.fixture
def two_by_three():
    return make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR)


@pytest.fixture
def intercalate():
    return make_bitrade(INTERCALATE_CIRC, INTERCALATE_STAR)


@pytest.fixture
def two_intercalates():
    """Disjoint union of two intercalates on disjoint alphabets."""
    circ = INTERCALATE_CIRC + _shift(INTERCALATE_CIRC, "x")
    star = INTERCALATE_STAR + _shift(INTERCALATE_STAR, "x")
    return make_bitrade(circ, star)


@pytest.fixture
def nonseparated():
    return make_bitrade(NONSEP_CIRC, NONSEP_STAR)


# ---------------------------------------------------------------------------
# group oracles, on the group's multiplication alone

def reference_permutations(n, even=False):
    """The permutations of 1..n as image tuples in ascending order, or only
    the even ones: all n! of them, filtered by the parity of their
    inversion count."""
    for p in itertools.permutations(range(1, n + 1)):
        if not even or sum(x > y for x, y in itertools.combinations(p, 2)) % 2 == 0:
            yield p


def reference_closure(G, generators):
    """The closure of the generators, by a BFS from the identity over
    ``G.mul`` on the elements themselves."""
    closed = {G.identity}
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = G.mul(x, g)
                if y not in closed:
                    closed.add(y)
                    new.append(y)
        frontier = new
    return closed


def reference_translation(G, els, g):
    """The right translation x -> xg on the positions of the sorted
    elements ``els``, by ``G.mul``."""
    index = {x: i for i, x in enumerate(els)}
    return array("i", [index[G.mul(x, g)] for x in els])


def cyclic_subgroup(G, g):
    """The powers of g from the identity, by repeated multiplication."""
    powers = [G.identity]
    x = g
    while x != G.identity:
        powers.append(x)
        x = G.mul(x, g)
    return powers


def element_order(G, g):
    """The least n > 0 with g**n = 1."""
    return len(cyclic_subgroup(G, g))


def left_cosets(G, g):
    """The left cosets x<g>, each as its sorted elements, in order of their
    least elements."""
    H = cyclic_subgroup(G, g)
    cosets = {}
    for x in G.elements():
        coset = tuple(sorted(G.mul(x, h) for h in H))
        cosets[coset[0]] = coset
    return [cosets[rep] for rep in sorted(cosets)]


def center(G):
    """The elements commuting with every element (a brute-force scan)."""
    els = G.elements()
    return [g for g in els if all(G.mul(g, h) == G.mul(h, g) for h in els)]


def coset_oracle(G, triple):
    """The coset bitrade computed from its definition: the filled cells are
    the coset pairs (xA, yB) meeting in one element g, with symbol gC in
    the primary square and g a^-1 C in the mate."""
    C = cyclic_subgroup(G, triple.c)
    a_inv = G.inverse(triple.a)
    circ = set()
    star = set()
    for ca in left_cosets(G, triple.a):
        for cb in left_cosets(G, triple.b):
            common = set(ca) & set(cb)
            if len(common) == 1:
                g = common.pop()
                row = f"A:{G.element_str(ca[0])}"
                col = f"B:{G.element_str(cb[0])}"
                for square, h in ((circ, g), (star, G.mul(g, a_inv))):
                    rep = min(G.mul(h, x) for x in C)
                    square.add((row, col, f"C:{G.element_str(rep)}"))
    return circ, star
