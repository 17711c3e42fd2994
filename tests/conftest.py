"""Shared fixtures and oracles: small bitrades with hand-checked structure,
label-level views of a bitrade and the writer's document made on labels,
the label-level validation that named a rejected pair before it was named
on label ranks, group facts computed from their definitions by brute
force, and the label-level minimality search the package used before its
search on label ranks."""

import itertools
from array import array

import pytest

from bitrades.core import (
    _COORD_NAMES,
    _PAIRS,
    PartialLatinSquare,
    _check_distinct,
    _sort_key,
    canonical_sorted,
    make_bitrade,
)
from bitrades.errors import ValidationError

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
# label-level views of a bitrade

def sorted_triples(pls):
    """The triples of a partial latin square, sorted by ``_sort_key``."""
    return sorted(pls.triples, key=lambda t: tuple(map(_sort_key, t)))


def cell_map(pls):
    """(row, col) -> symbol for every filled cell."""
    return {(r, c): s for (r, c, s) in pls.triples}


def oracle_mate_bijections(bitrade):
    """The three bijections from mate triples to primary triples: the r-th
    sends a mate triple to the primary triple agreeing with it outside
    coordinate r."""
    maps = []
    for r in range(3):
        i, j = [k for k in range(3) if k != r]
        index = {(t[i], t[j]): t for t in bitrade.t_circ.triples}
        out = {}
        for t in bitrade.t_star.triples:
            image = index[(t[i], t[j])]
            assert image[r] != t[r]
            out[t] = image
        assert len(set(out.values())) == len(out)
        maps.append(out)
    return tuple(maps)


def bitrade_to_doc(bitrade):
    """The writer's document of a bitrade, made on labels: the alphabets in
    declared order, each square's triples as lists of label strings sorted,
    and the provenance.  ``bitrade_to_json`` writes it with indent 2 and
    sorted keys."""
    def label_str(label):
        return label if isinstance(label, str) else str(label)

    def triples(pls):
        return sorted([label_str(r), label_str(c), label_str(s)] for (r, c, s) in pls.triples)

    return {
        "rows": [label_str(x) for x in bitrade.rows],
        "cols": [label_str(x) for x in bitrade.cols],
        "syms": [label_str(x) for x in bitrade.syms],
        "t_circ": triples(bitrade.t_circ),
        "t_star": triples(bitrade.t_star),
        "provenance": bitrade.provenance,
    }


# ---------------------------------------------------------------------------
# the label-level validation, the reference for naming a rejection on ranks

def _p1_error(triples, i, j):
    """The lexicographically smallest clashing pair, for reproducible messages."""
    by_key = {}
    for t in sorted(triples, key=lambda t: tuple(map(_sort_key, t))):
        by_key.setdefault((t[i], t[j]), []).append(t)
    for key in sorted(by_key, key=lambda k: tuple(map(_sort_key, k))):
        ts = by_key[key]
        if len(ts) > 1:
            return ValidationError(
                "P1",
                f"triples {ts[0]} and {ts[1]} agree in "
                f"{_COORD_NAMES[i]} and {_COORD_NAMES[j]}",
                witness=(ts[0], ts[1]),
            )
    raise AssertionError("no clash found on the failure path")


def _pair_map(triples, i, j):
    """Index triples by the (i, j) coordinate pair; clashes violate P1."""
    out = {}
    for t in triples:
        key = (t[i], t[j])
        if key in out:
            raise _p1_error(triples, i, j)
        out[key] = t
    return out


def make_pls(triples, rows=None, cols=None, syms=None):
    """Validate triples as a partial latin square; alphabets are inferred
    (in canonical order) unless explicitly given.  The triples are walked
    in document order, repeats merged, so the first non-triple and the
    spelling of hash-equal labels do not depend on the hash seed."""
    in_order = list(dict.fromkeys(tuple(t) for t in triples))
    triples = frozenset(in_order)
    if not triples:
        raise ValidationError("P2", "a partial latin square needs at least one triple")
    for t in in_order:
        if len(t) != 3:
            raise ValidationError("P1", f"{t!r} is not a (row, column, symbol) triple")

    used = [set(), set(), set()]
    for t in in_order:
        for i in range(3):
            used[i].add(t[i])

    alphabets = []
    for i, given in enumerate((rows, cols, syms)):
        if given is None:
            alphabets.append(tuple(canonical_sorted(used[i])))
        else:
            given = tuple(given)
            _check_distinct(len(set(given)) == len(given), i)
            extra = used[i] - set(given)
            if extra:
                raise ValidationError(
                    "P2", f"{_COORD_NAMES[i]} label {min(map(str, extra))!r} missing "
                    f"from the declared alphabet")
            unused = set(given) - used[i]
            if unused:
                raise ValidationError(
                    "P2", f"declared {_COORD_NAMES[i]} label "
                    f"{min(map(str, unused))!r} occurs in no triple")
            alphabets.append(given)

    for i in range(3):
        for j in range(i + 1, 3):
            shared = set(alphabets[i]) & set(alphabets[j])
            if shared:
                raise ValidationError(
                    "P2", f"label {min(map(str, shared))!r} appears both as a "
                    f"{_COORD_NAMES[i]} and a {_COORD_NAMES[j]}; alphabets must be disjoint")

    for i, j in _PAIRS:
        _pair_map(triples, i, j)

    return PartialLatinSquare(alphabets[0], alphabets[1], alphabets[2], triples)


def check_bitrade_conditions(circ, star):
    """All R1-R3 violations of a candidate pair, as (condition, witness, message).

    ``circ`` and ``star`` are PartialLatinSquare values sharing alphabets.
    Projection-set comparison is equivalent to the unique-mate conditions
    because each square already has unique coordinate pairs (P1).
    """
    violations = []

    common = circ.triples & star.triples
    if common:
        t = min(common, key=lambda t: tuple(map(_sort_key, t)))
        violations.append(("R1", t, f"triple {t} appears in both squares"))

    for i, j in _PAIRS:
        keys_circ = {(t[i], t[j]) for t in circ.triples}
        keys_star = {(t[i], t[j]) for t in star.triples}
        names = f"{_COORD_NAMES[i]}/{_COORD_NAMES[j]}"
        only_circ = keys_circ - keys_star
        if only_circ:
            key = min(only_circ, key=lambda k: tuple(map(_sort_key, k)))
            violations.append(
                ("R2", key, f"no mate triple shares the {names} pair {key}"))
        only_star = keys_star - keys_circ
        if only_star:
            key = min(only_star, key=lambda k: tuple(map(_sort_key, k)))
            violations.append(
                ("R3", key, f"no primary triple shares the {names} pair {key}"))
    return violations


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


# ---------------------------------------------------------------------------
# minimality oracle on labels, the reference for properties.is_minimal

def _find_proper_subtrade(pls: PartialLatinSquare):
    """First proper nonempty subset of the filled cells admitting any
    disjoint mate, found by backtracking over mate-symbol assignments.

    Assigning symbol m as the mate of cell (r, c) forces the cells holding
    m in row r and column c into the subset, so the search propagates
    quickly.  Seeds are tried in canonical order with all earlier cells
    banned, so each candidate subset is explored from its least cell only.
    """
    cell_sym = {}
    row_sym = {}
    col_sym = {}
    row_syms = {}
    for (r, c, s) in pls.triples:
        cell_sym[(r, c)] = s
        row_sym[(r, s)] = c
        col_sym[(c, s)] = r
        row_syms.setdefault(r, []).append(s)
    for r in row_syms:
        row_syms[r].sort(key=_sort_key)
    cell_list = sorted(cell_sym, key=lambda rc: tuple(map(_sort_key, rc)))
    total = len(cell_list)

    def grow(seed, banned):
        member = {seed}
        mate = {}
        row_used = {}
        col_used = {}

        def dfs():
            unassigned = [cell for cell in member if cell not in mate]
            if not unassigned:
                return len(member) < total
            r, c = min(unassigned, key=lambda rc: tuple(map(_sort_key, rc)))
            orig = cell_sym[(r, c)]
            for m in row_syms[r]:
                if m == orig or m in row_used.get(r, ()) or m in col_used.get(c, ()):
                    continue
                r2 = col_sym.get((c, m))
                if r2 is None:
                    continue
                forced = [(r, row_sym[(r, m)]), (r2, c)]
                if any(f in banned for f in forced):
                    continue
                added = [f for f in forced if f not in member]
                if len(member) + len(added) >= total:
                    continue  # cannot stay proper
                member.update(added)
                mate[(r, c)] = m
                row_used.setdefault(r, set()).add(m)
                col_used.setdefault(c, set()).add(m)
                if dfs():
                    return True
                member.difference_update(added)
                del mate[(r, c)]
                row_used[r].discard(m)
                col_used[c].discard(m)
            return False

        if dfs():
            trade = tuple(sorted(((r, c, cell_sym[(r, c)]) for (r, c) in member),
                                 key=lambda t: tuple(map(_sort_key, t))))
            mates = tuple(sorted(((r, c, m) for (r, c), m in mate.items()),
                                 key=lambda t: tuple(map(_sort_key, t))))
            return trade, mates
        return None

    for pos, seed in enumerate(cell_list):
        found = grow(seed, set(cell_list[:pos]))
        if found:
            return found
    return None
