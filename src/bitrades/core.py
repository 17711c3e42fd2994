"""Partial latin squares, latin bitrades, and their two constructions.

A partial latin square is stored as a set of (row, column, symbol) triples
over three pairwise-disjoint label alphabets, subject to

* P1: two distinct triples agree in at most one coordinate;
* P2: every label of every alphabet occurs in some triple.

A latin bitrade is an ordered pair of partial latin squares on the same
alphabets satisfying

* R1: the triple sets are disjoint;
* R2: each primary triple agrees with exactly one mate triple in each of
  the three coordinate pairs;
* R3: symmetrically, from the mate side.

Bitrades arise here three ways: from explicit triples, from a triple of
fixed-point-free permutations whose cycles pairwise share at most one
moved point and whose product is the identity (Q1-Q3), and from a finite
group with elements a, b, c satisfying abc = 1 whose cyclic subgroups
pairwise intersect trivially (G1-G2).  The group construction is the
permutation construction on the group elements with the right
multiplications x -> xa, x -> xb, x -> xc: their cycles are the left
cosets, so the filled cells are (gA, gB, gC) for g in G and the mate
replaces the symbol coset by g a^-1 C.

Conversely every bitrade has a permutation structure: three permutations
tau1, tau2, tau3 of its primary triples satisfying Q1-Q3, the i-th fixing
coordinate i.  With the alphabets it fixes both squares, so a ``Bitrade``
stores each label once, in its alphabet, and the structure on integer
indices; both squares are views.  The two constructions end in one
builder, which labels the cycles of their permutations from one walk
(``groups.CosetWalk``) and takes tau_i as the i-th permutation, reindexed;
``from_permutations`` checks their Q1-Q3 and ``from_group`` takes them
from G1-G2.  ``make_bitrade`` validates documents and explicit
triples in one integer pass that checks both squares and builds the
structure, whose Q1-Q3 follow from P1 and R1-R3; the reader of the
writer's own layout enters that pass on label ranks directly.  A rejected
pair is named on label ranks as well (``_raise_violations``), reading its
triples in document order.  So every construction proves Q1-Q3, and a
report only walks the cycles.  The property scans read the structure;
labels are looked up from it only for output and witnesses.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from operator import eq, itemgetter, lt

from .errors import ConsistencyError, GroupError, ValidationError
from .groups import CosetWalk, Group, cycle_numbers, cycle_through

_COORD_NAMES = ("row", "column", "symbol")
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _sort_key(label):
    # total order over the label types we produce (str) and accept (int, tuple)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, (int, float)):
        return (0, "", label)
    return (2, str(label))


def canonical_sorted(labels):
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=_sort_key)


def point_str(point):
    if isinstance(point, str):
        return point
    if isinstance(point, tuple):
        return "(" + ",".join(point_str(x) for x in point) + ")"
    return str(point)


# ---------------------------------------------------------------------------
# partial latin squares

@dataclass(frozen=True)
class PartialLatinSquare:
    rows: tuple
    cols: tuple
    syms: tuple
    triples: frozenset

    @property
    def size(self):
        return len(self.triples)

    def __repr__(self):
        return (f"PartialLatinSquare({len(self.rows)}x{len(self.cols)}, "
                f"{len(self.syms)} symbols, size={self.size})")


def _check_distinct(distinct, i):
    if not distinct:
        raise ValidationError(
            "P2", f"duplicate label in the declared {_COORD_NAMES[i]} alphabet")


# ---------------------------------------------------------------------------
# bitrades

@dataclass(frozen=True, eq=False)
class Bitrade:
    """A latin bitrade, stored as its alphabets (declared order) and its
    structure (``triple_permutations``); both squares are built on each access."""

    alphabets: tuple
    permutation_triple: PermutationTriple
    provenance: dict = field(default_factory=dict)

    @property
    def rows(self):
        return self.alphabets[0]

    @property
    def cols(self):
        return self.alphabets[1]

    @property
    def syms(self):
        return self.alphabets[2]

    @property
    def size(self):
        return len(self.permutation_triple.index_perms[0])

    @property
    def t_circ(self):
        """The primary square: its triples are the points of the structure."""
        return PartialLatinSquare(*self.alphabets, frozenset(self.permutation_triple.points))

    @property
    def t_star(self):
        """The mate square: the cell of primary triple x holds tau2(x)'s symbol."""
        pt = self.permutation_triple
        pts = pt.points
        return PartialLatinSquare(*self.alphabets, frozenset(
            (r, c, pts[z][2]) for (r, c, _), z in zip(pts, pt.index_perms[1])))

    def __eq__(self, other):
        # equal alphabets rank alike: equal coords and tau2 are equal squares
        if not isinstance(other, Bitrade):
            return NotImplemented
        mine, theirs = self.permutation_triple, other.permutation_triple
        return (self.alphabets == other.alphabets and mine.coords == theirs.coords
                and mine.index_perms[1] == theirs.index_perms[1])

    def __hash__(self):
        return hash(self.alphabets)

    def __repr__(self):
        return (f"Bitrade(size={self.size}, rows={len(self.rows)}, "
                f"cols={len(self.cols)}, syms={len(self.syms)})")


def make_bitrade(circ_triples, star_triples, rows=None, cols=None, syms=None,
                 provenance=None):
    """Validate a (T, T*) pair as a latin bitrade.

    One pass on label ranks checks both squares and builds the permutation
    structure (``_pair_structure``).  A rejected pair is named on ranks too
    (``_raise_violations``): the ValidationError names the first violated
    condition, carries every R1-R3 violation, and spells each witness as
    the pair wrote it.  Each triple is read once, through ``tuple``.
    Repeated triples merge, as do hash-equal labels.  The shared alphabets
    are taken in canonical order unless given.
    """
    circ_triples = [tuple(t) for t in circ_triples]
    declared = (rows, cols, syms)
    try:
        star_triples = list(star_triples)  # kept if an item is no sequence
        star_triples = [tuple(t) for t in star_triples]
        found = _pair_structure(circ_triples, star_triples, declared)
    except TypeError:  # an unhashable label or a non-sequence: the namer raises it
        found = None
    if found is None:
        _raise_violations(circ_triples, star_triples, declared)
    return Bitrade(*found, dict(provenance or {}))


def _raise_violations(circ, star, declared):
    """Name the rejection of a pair: the first P1/P2 error of the primary
    square, else of the mate square (``_square_alphabets``), else every
    R1-R3 violation, found on rank tuples in ``_sort_key`` order over both
    squares' labels.  A witness is spelled as its square wrote it: an R2
    pair as the primary square, an R3 pair as the mate square, and an R1
    triple as the smaller square, or the mate square on a tie."""
    circ, used = _square_alphabets(circ, declared)
    star, star_used = _square_alphabets(star, declared)
    # a label used by one square only is a missing-mate (R2 or R3) failure
    ranks = [_ranks(a | b) for a, b in zip(used, star_used)]
    mine, theirs = ({tuple(map(dict.__getitem__, ranks, t)): t for t in square}
                    for square in (circ, star))
    violations = []
    common = mine.keys() & theirs.keys()
    if common:
        t = (mine if len(mine) < len(theirs) else theirs)[min(common)]
        violations.append(("R1", t, f"triple {t} appears in both squares"))
    for i, j in _PAIRS:
        names = f"{_COORD_NAMES[i]}/{_COORD_NAMES[j]}"
        pairs = [{(r[i], r[j]): (t[i], t[j]) for r, t in square.items()}
                 for square in (mine, theirs)]
        for cond, side, (own, other) in (("R2", "mate", pairs), ("R3", "primary", pairs[::-1])):
            missing = own.keys() - other.keys()
            if missing:
                key = own[min(missing)]
                violations.append((cond, key, f"no {side} triple shares the {names} pair {key}"))
    if not violations:
        raise ConsistencyError("the integer check rejects a pair the namer accepts")
    cond, witness, message = violations[0]
    raise ValidationError(cond, message, witness=witness, violations=violations)


def _square_alphabets(items, declared):
    """The distinct triples of one square in document order and the labels
    of each coordinate, or the square's first P1/P2 error: no triple, an
    item that is no triple, a declared alphabet repeating a label, missing
    a used one or holding an unused one, a label in two alphabets, then P1.
    The alphabet checks name labels, so they run on label sets, which keep
    each label as the document first spells it; P1 compares rank tuples
    and names the least clashing pair, as written."""
    triples = list(dict.fromkeys(map(tuple, items)))
    if not triples:
        raise ValidationError("P2", "a partial latin square needs at least one triple")
    for t in triples:
        if len(t) != 3:
            raise ValidationError("P1", f"{t!r} is not a (row, column, symbol) triple")
    used = [set(map(itemgetter(i), triples)) for i in range(3)]
    alphabets = []
    for i, (given, labels) in enumerate(zip(declared, used)):
        if given is not None:
            given = tuple(given)
            _check_distinct(len(set(given)) == len(given), i)
            extra = labels - set(given)
            if extra:
                raise ValidationError(
                    "P2", f"{_COORD_NAMES[i]} label {min(map(str, extra))!r} missing "
                    f"from the declared alphabet")
            labels = set(given)
            unused = labels - used[i]
            if unused:
                raise ValidationError(
                    "P2", f"declared {_COORD_NAMES[i]} label "
                    f"{min(map(str, unused))!r} occurs in no triple")
        alphabets.append(labels)
    for i, j in _PAIRS:
        shared = alphabets[i] & alphabets[j]
        if shared:
            raise ValidationError(
                "P2", f"label {min(map(str, shared))!r} appears both as a "
                f"{_COORD_NAMES[i]} and a {_COORD_NAMES[j]}; alphabets must be disjoint")
    ranks = list(map(_ranks, used))
    ranked = {tuple(map(dict.__getitem__, ranks, t)): t for t in triples}
    for i, j in _PAIRS:
        order = sorted(ranked, key=lambda r: (r[i], r[j], r))
        for r, s in zip(order, order[1:]):
            if (r[i], r[j]) == (s[i], s[j]):
                first, second = ranked[r], ranked[s]
                raise ValidationError(
                    "P1", f"triples {first} and {second} agree in "
                    f"{_COORD_NAMES[i]} and {_COORD_NAMES[j]}", witness=(first, second))
    return triples, used


def _ranks(labels):
    """Each label's position among ``labels`` sorted by ``_sort_key``."""
    return dict(zip(sorted(labels, key=_sort_key), count()))


def _pair_structure(circ, star, declared):
    """The declared alphabets and the permutation structure of the pair
    (circ, star) of tuple lists, or None when the pair is not a bitrade.

    This is the label half: repeated triples and hash-equal labels merge,
    and of hash-equal labels an inferred alphabet keeps the first in
    document order.  Each label is replaced by its position in its alphabet
    sorted by ``_sort_key`` (``_ranked_alphabets``), and the integer half
    (``_rank_structure``) checks the pair on those ranks.
    """
    circ = list(dict.fromkeys(circ))
    star = list(dict.fromkeys(star))
    if set(map(len, circ)) != {3} or set(map(len, star)) != {3}:
        return None
    # labels in document order: the label objects lie in memory in that order
    labels = [list(map(itemgetter(i), circ)) for i in range(3)]
    alphabets = tuple(tuple(canonical_sorted(set(col))) if given is None else tuple(given)
                      for given, col in zip(declared, labels))
    ranked = _ranked_alphabets(alphabets)
    if ranked is None:
        return None
    ranks = [dict(zip(alphabet, range(len(alphabet)))) for alphabet in ranked]
    try:  # a KeyError is a label missing from its alphabet
        coords = [list(map(rank.__getitem__, col)) for rank, col in zip(ranks, labels)]
        del circ, labels
        mates = [list(map(rank.__getitem__, map(itemgetter(i), star)))
                 for i, rank in enumerate(ranks)]
    except KeyError:
        return None
    del star
    structure = _rank_structure(ranked, coords, mates)
    return None if structure is None else (alphabets, structure)


def _ranked_alphabets(alphabets):
    """Each alphabet sorted by ``_sort_key``, or None when a label repeats
    within one alphabet or appears in two (P2)."""
    if len(set().union(*alphabets)) != sum(map(len, alphabets)):
        return None
    # str labels alone sort by _sort_key as they sort plainly
    return tuple(tuple(sorted(alphabet) if set(map(type, alphabet)) <= {str}
                       else sorted(alphabet, key=_sort_key)) for alphabet in alphabets)


def _rank_structure(ranked, coords, mates):
    """The permutation structure of a pair of squares given on label ranks,
    or None when the pair is not a bitrade.

    ``ranked`` holds the alphabets in ``_sort_key`` order, and ``coords``
    and ``mates`` the row, column and symbol ranks of the primary and mate
    triples, in document order.  The primary square is checked on its
    distinct ranks (P2: every label is used), and three int-keyed pair maps
    index the primary triples by (row, column), (row, symbol) and (column,
    symbol).  When the primary triples are in strictly increasing cell
    order, so no two share a cell, and the mate triples lie in the same
    cells in the same order, as in the writer's documents, each mate
    triple's cell holds the primary triple of its own index, and the (row,
    column) map is not built.

    The maps drive the mate pass.  Each mate triple m meets three primary
    triples: x in its cell (same row and column), y with its row and symbol
    and z with its column and symbol.  These are the images of m under the
    three mate bijections, and m contributes tau1(y) = x, tau2(x) = z and
    tau3(z) = y.  An unmatched pair or x = y (R1) fails the pass, and so
    does a repeat among the n images of one map: two mate triples on one
    point.  With no repeat the three maps are bijections, so the
    contributions fill each slot of tau1-tau3 exactly once, and they are
    scattered into arrays.  A P1 clash or a repeat of the primary square
    leaves a pair map with fewer than n points, so its images repeat.
    Passing is thus P1/P2 of both squares and R1-R3.

    A passing pair's structure satisfies Q1-Q3, so nothing checks them
    again.  tau_i keeps coordinate i (x and y share a row, x and z a
    column, z and y a symbol), so the cycles of tau_i lie in one label of
    coordinate i and two cycles of different permutations share at most the
    one point of their two labels (Q1, by P1).  Each of y = x, z = x and
    z = y makes the mate triple equal to x, which R1 rules out (Q2).  On
    each mate triple tau3(tau2(tau1(y))) = y, and the mate triples cover
    every y (Q3).
    """
    n = len(coords[0])
    if not n or len(mates[0]) != n:
        return None
    if any(len(set(coord)) != len(alphabet) for coord, alphabet in zip(coords, ranked)):
        return None  # a label used by no primary triple
    rows, cols, syms = coords
    nc, ns = len(ranked[1]), len(ranked[2])
    index = list(range(n))  # one int object per point, shared by the three maps
    at_rs = dict(zip([r * ns + s for r, s in zip(rows, syms)], index))
    at_cs = dict(zip([c * ns + s for c, s in zip(cols, syms)], index))
    cell = [r * nc + c for r, c in zip(rows, cols)]
    increasing = _increasing(cell)
    rows, cols, syms = mates
    try:  # KeyError: a mate pair that no primary triple has
        if increasing and rows == coords[0] and cols == coords[1]:
            xs = index  # the writer's order: mate triple x lies in the cell of point x
        else:
            at_rc = dict(zip(cell, index))
            xs = list(map(at_rc.__getitem__, [r * nc + c for r, c in zip(rows, cols)]))
            del at_rc
        del cell
        ys = list(map(at_rs.__getitem__, [r * ns + s for r, s in zip(rows, syms)]))
        zs = list(map(at_cs.__getitem__, [c * ns + s for c, s in zip(cols, syms)]))
    except KeyError:
        return None
    del at_rs, at_cs  # not held beside tau1-tau3
    if any(map(eq, xs, ys)):
        return None  # a mate triple equal to the primary triple in its cell (R1)
    if len(set(ys)) != n or len(set(zs)) != n or (xs is not index and len(set(xs)) != n):
        return None  # two mate triples on one point of a map
    perms = tau1, tau2, tau3 = tuple(array("i", [0]) * n for _ in range(3))
    for x, y, z in zip(xs, ys, zs):
        tau1[y] = x
        tau2[x] = z
        tau3[z] = y
    if increasing:  # the points are in cell order already
        return PermutationTriple(perms, ranked, tuple(array("i", coord) for coord in coords))
    return _canonical_structure(ranked, coords, perms)


def _increasing(cell):
    """Whether the cell numbers strictly increase: no two points share a
    cell, and the points come in cell order."""
    return all(map(lt, cell, islice(cell, 1, None)))


def _cell_order(rows, cols, nc, q1):
    """The points in cell order, by row rank and then column rank (a cell
    holds one point, P1), each point's position in that order, the row
    and column ranks in it, and tau1 in it: the row permutation ``q1``
    reindexed.  ``nc`` is the number of columns."""
    cell = [r * nc + c for r, c in zip(rows, cols)]
    order = sorted(range(len(cell)), key=cell.__getitem__)
    del cell
    position = [0] * len(order)
    for i, x in enumerate(order):
        position[x] = i
    return (order, position, array("i", [rows[x] for x in order]),
            array("i", [cols[x] for x in order]),
            array("i", [position[q1[x]] for x in order]))


def _canonical_structure(ranked, coords, perms, *, cell_order=None):
    """The permutation structure from the alphabets in ``_sort_key`` order
    and each point's label ranks and tau1-tau3 in builder order, reindexed
    into cell order (``_cell_order``): this is the order of the primary
    triples sorted by ``_sort_key``, in which the JSON writer emits both
    squares.  ``cell_order`` is the ``_cell_order`` of ``coords`` and the
    first permutation, if the caller has it."""
    q1, q2, q3 = perms
    order, position, rows, cols, tau1 = cell_order or _cell_order(coords[0], coords[1],
                                                                  len(ranked[1]), q1)
    syms = coords[2]
    return PermutationTriple(
        (tau1, *(array("i", [position[q[x]] for x in order]) for q in (q2, q3))),
        ranked, (rows, cols, array("i", [syms[x] for x in order])))


# ---------------------------------------------------------------------------
# the permutation structure of a bitrade

class PermutationTriple:
    """The permutation structure of a bitrade: three fixed-point-free
    permutations of its primary triples (the points), one per coordinate.

    The permutations are held as arrays of integer indices into
    ``points``: ``index_perms[i][x]`` is the index of the image of
    point x, and ``reps[i]`` lists the least index of each cycle of the
    i-th permutation, in ascending order.  ``reps`` is found on first
    access by one walk of each permutation (``_walk_cycles``), which checks
    Q2; that is all, because every builder proved Q1-Q3
    (``from_permutations`` on its input, ``from_group`` by the
    construction theorem from G1-G2, ``make_bitrade`` from P1 and R1-R3,
    see ``_pair_structure``).  ``perms`` (dicts over the points, built on
    first access) and ``cycles`` (point tuples, each cycle from its least
    point, built from ``reps`` on each access) are the same permutations
    in terms of the points.

    The points are the primary triples in canonical order, the i-th
    permutation fixes coordinate i, and its cycles partition the
    points by their i-th label.  ``alphabets`` holds the row, column and
    symbol labels in canonical order, and ``coords[i][x]`` is the position
    of the i-th label of point x in ``alphabets[i]``.  ``points`` is built
    from them on first access and kept; ``pt[x]`` reads point x alone.
    """

    def __init__(self, index_perms, alphabets, coords):
        self.index_perms = index_perms
        self.alphabets = alphabets
        self.coords = coords

    @cached_property
    def points(self):
        return tuple(zip(*(map(labels.__getitem__, coord)
                           for labels, coord in zip(self.alphabets, self.coords))))

    def __getitem__(self, x):
        return tuple(labels[coord[x]] for labels, coord in zip(self.alphabets, self.coords))

    @cached_property
    def reps(self):
        return _walk_cycles(self.index_perms, self)[1]  # its construction proved Q1-Q3

    @cached_property
    def perms(self):
        pts = self.points
        return tuple({x: pts[y] for x, y in zip(pts, q)} for q in self.index_perms)

    @property
    def cycles(self):
        return tuple(tuple(self._cycle(i, x) for x in reps) for i, reps in enumerate(self.reps))

    def _cycle(self, i, x):
        """The cycle of the i-th permutation through point x, from it, as points."""
        return tuple(map(self.__getitem__, cycle_through(self.index_perms[i], x)))


def _index_permutations(perms, points):
    """Dict permutations of ``points`` as lists of indices into ``points``."""
    index = {x: i for i, x in enumerate(points)}
    if len(index) != len(points):
        raise ValidationError("input", "the point list repeats a point")
    out = []
    for idx, perm in enumerate(perms, 1):
        if perm.keys() != index.keys() or set(perm.values()) != index.keys():
            raise ValidationError(
                "input", f"permutation {idx} is not a permutation of the point set")
        out.append([index[perm[x]] for x in points])
    return out


def _walk_cycles(perms, points):
    """``cycle_numbers`` of each of three permutations given as index lists
    into ``points`` (named in errors), as a tuple of the three cycle number
    lists and a tuple of the three least index lists, checking Q2 (no fixed
    points) on the way: a fixed point is a cycle of its own, so it is a
    least index x with q[x] == x.
    """
    numbers, reps = [], []
    for idx, q in enumerate(perms, 1):
        number, least = cycle_numbers(q)
        for x in least:
            if q[x] == x:
                raise ValidationError(
                    "Q2", f"permutation {idx} fixes the point {point_str(points[x])}",
                    witness=(idx, points[x]))
        numbers.append(number)
        reps.append(least)
    return tuple(numbers), tuple(reps)


def _check_permutation_triple(perms, points):
    """``_walk_cycles``, then Q1 (cycles of different permutations share at
    most one moved point) and Q3 (the product is the identity)."""
    numbers, reps = _walk_cycles(perms, points)
    for r, s in _PAIRS:
        ns = len(reps[s])
        seen = {}
        for x, (kr, ks) in enumerate(zip(numbers[r], numbers[s])):
            key = kr * ns + ks  # the pair of cycles through x, as one int
            if key in seen:
                cr = tuple(points[i] for i in cycle_through(perms[r], reps[r][kr]))
                cs = tuple(points[i] for i in cycle_through(perms[s], reps[s][ks]))
                raise ValidationError(
                    "Q1",
                    f"cycles {cr} and {cs} of permutations {r + 1} and {s + 1} share "
                    f"the moved points {point_str(points[seen[key]])} and "
                    f"{point_str(points[x])}",
                    witness=(cr, cs, points[seen[key]], points[x]))
            seen[key] = x
    q1, q2, q3 = perms
    for x in range(len(q1)):
        if q3[q2[q1[x]]] != x:
            raise ValidationError(
                "Q3", f"the product moves the point {point_str(points[x])}",
                witness=points[x])


def _bitrade_of_walks(perms, walks, tags, provenance, *, cell_order=None):
    """The bitrade of three index permutations satisfying Q1-Q3 and their
    walks (``CosetWalk``), which both constructions end in; ``cell_order``
    is the ``_cell_order`` of the first two walks' ranks and the first
    permutation, if the caller has it.

    Rows, columns and symbols are the cycles of the three permutations,
    labelled ``tag:`` plus the name of the cycle's least point and declared
    in cycle order.  Each point x is the primary triple of the cycles
    through x; the mate triple in its cell is the row and column of x with
    the symbol of q2(x).  So the permutation structure is q1-q3
    themselves, reindexed into the canonical order of the primary triples.
    Q1-Q3 and distinct cycle labels are the whole validation: the result
    has size |X|, and ``make_bitrade`` is not involved.  Each walk decided
    once whether its labels are distinct (``CosetWalk.distinct``).
    """
    for i, walk in enumerate(walks):
        _check_distinct(walk.distinct, i)  # two points may format alike
    declared, ranked = zip(*(w.labels(tag) for w, tag in zip(walks, tags)))
    return Bitrade(declared, _canonical_structure(ranked, [w.rank for w in walks], perms,
                                                  cell_order=cell_order), provenance)


def triple_permutations(bitrade):
    """The permutation structure of a bitrade.

    Composing the inverse of one mate bijection with another yields three
    permutations of the primary triples; the i-th fixes coordinate i.  The
    result always satisfies Q1-Q3: the construction that stored it as
    ``Bitrade.permutation_triple`` proved them (see ``PermutationTriple``),
    so this only walks its cycles, once per bitrade.
    """
    pt = bitrade.permutation_triple
    pt.reps  # the cycle walk, which checks Q2
    return pt


_CYCLE_TAGS = ("R", "C", "S")


def from_permutations(p1, p2, p3, points=None):
    """Build the bitrade defined by three permutations satisfying Q1-Q3.

    Rows, columns and symbols are the cycles of the three permutations,
    labelled R/C/S plus their minimum point; each point contributes the
    primary triple of the cycles moving it, and the mate triple traced by
    following the three permutations in order.  The result has size |X|.
    """
    points = canonical_sorted(p1.keys() if points is None else points)
    perms = _index_permutations((p1, p2, p3), points)
    _check_permutation_triple(perms, points)
    if not points:  # before the walks, which start at point 0
        raise ValidationError("P2", "a partial latin square needs at least one triple")

    def strs(indices):
        return [point_str(points[i]) for i in indices]

    walks = [CosetWalk(q, strs, 0) for q in perms]
    return _bitrade_of_walks(perms, walks, _CYCLE_TAGS, {"kind": "from-perms"})


# ---------------------------------------------------------------------------
# the group construction

_GROUP_TAGS = ("A", "B", "C")


class GroupTriple:
    """Elements a, b, c of a finite group with abc = 1 and pairwise trivially
    intersecting cyclic subgroups (conditions G1 and G2).  The optional
    generation condition G3 is read off the bitrade (``properties._orbit``).

    Both conditions are decided on element indices (``indices``, those of
    a, b and c), after the one check of the enumeration cap
    (``Group._element_store``); the triple then reads the group through
    its unchecked accessors.  abc = 1 is decided by the right translations
    (``translations``), G2 on the power sets of the three coset walks
    (``Group.coset_walk``), which ``walks`` keeps.  The group keeps the
    last triple admitted, and a triple of the very same a, b and c objects
    (as ``from_group`` makes of a triple ``search.iter_triples`` has just
    admitted) takes its verdict, translations and walks from it after that
    one check.
    """

    def __init__(self, group: Group, a, b, c):
        self.group = group
        self.a = a
        self.b = b
        self.c = c
        store = group._element_store()  # checks the cap
        last = group._last_triple
        if last is not None and last[0] is a and last[1] is b and last[2] is c:
            self.indices, self.translations, self.walks = last[3:]
            return
        self.indices = []
        for x in (a, b, c):
            i = group._locate(store, x)
            if i is None:
                raise GroupError(f"{x!r} is not an element of {group.spec}")
            self.indices.append(i)
        identity = group._identity_index
        for name, i in zip("abc", self.indices):
            if i == identity:
                raise ValidationError(
                    "nontrivial", f"element {name} must not be the identity")
        self.translations = group._right_translations((a, b, c))  # one build for the walks too
        _, rho_b, rho_c = self.translations
        if rho_c[rho_b[self.indices[0]]] != identity:
            raise ValidationError(
                "G1", "abc != identity (a=%s, b=%s, c=%s)" % tuple(
                    group._element_strs(self.indices)))
        self.walks = tuple(map(group._coset_walk, (a, b, c)))
        wa, wb, wc = self.walks
        for name, x, y in (("|A∩B|", wa, wb), ("|A∩C|", wa, wc), ("|B∩C|", wb, wc)):
            size = len(x.members & y.members)
            if size != 1:
                raise ValidationError("G2", f"{name}={size}")
        group._last_triple = (a, b, c, self.indices, self.translations, self.walks)

    @property
    def orders(self):
        return tuple(len(w.powers) for w in self.walks)

    def element_strs(self):
        """The strings of a, b and c, each made once per group."""
        return tuple(self.group._element_strs(self.indices))

    def __repr__(self):
        a, b, c = self.element_strs()
        return f"GroupTriple({self.group.spec}, a={a}, b={b}, c={c})"


def from_group(group, a, b, c, *, provenance=None, cell_order=None):
    """Build the coset bitrade of a group triple satisfying G1 and G2.

    This is the permutation construction on the group elements with the
    right multiplications x -> xa, x -> xb, x -> xc, whose cycles are the
    left cosets of A, B and C.  The filled cells are therefore (gA, gB, gC)
    for g in G with mate symbol g a^-1 C; rows, columns and symbols are
    labelled by canonical (least) coset representatives prefixed with A/B/C
    to keep the alphabets disjoint.  The result has size |G| with |G:A|
    rows of |A| entries each, |G:B| columns of |B| entries, and |G:C|
    symbols occurring |C| times.  The group's enumeration cap bounds it.
    By the construction theorem G1-G2 give Q1-Q3 of the right
    multiplications, so nothing checks them again.  The group keeps the
    right multiplications, their coset walks (ranks and labels) and the
    element strings, so it walks each element's cosets once, and a bitrade
    costs only the reindexing into canonical order
    (``_canonical_structure``).  The ``GroupTriple`` made here takes the
    verdict of one just made on the same a, b and c.  The cell order
    depends on the cosets of <a> and <b> alone, and tau1 in it on a too, so
    ``search`` passes one ``_cell_order`` of the walks of a and b and the
    right multiplication by a (``cell_order``) to every record of one a
    and one <b>.
    """
    triple = GroupTriple(group, a, b, c)
    astr, bstr, cstr = triple.element_strs()
    prov = {"kind": "from-group", "group": group.spec, "a": astr, "b": bstr, "c": cstr}
    if provenance:
        prov.update(provenance)
    return _bitrade_of_walks(triple.translations, triple.walks, _GROUP_TAGS, prov,
                             cell_order=cell_order)


# ---------------------------------------------------------------------------
# separation and the round trip

def separation_witness(bitrade, pt=None):
    """None if every row/column/symbol meets exactly one cycle of the
    corresponding permutation, else (coordinate, label, the label's cycles
    as point tuples, each from its least point)."""
    if pt is None:
        pt = triple_permutations(bitrade)
    for i, reps in enumerate(pt.reps):
        # each cycle keeps its label and every label is used, so a label
        # meets two cycles exactly when there are more cycles than labels
        if len(reps) == len(pt.alphabets[i]):
            continue
        by_label = {}
        for x in reps:
            by_label.setdefault(pt.alphabets[i][pt.coords[i][x]], []).append(x)
        for label in canonical_sorted(by_label):
            starts = by_label[label]
            if len(starts) > 1:
                return (_COORD_NAMES[i], label, tuple(pt._cycle(i, x) for x in starts))
    return None


def roundtrip_check(bitrade):
    """Rebuild a separated bitrade from its permutation structure.

    Returns (ok, label_maps): relabelling each row/column/symbol by the
    unique cycle containing it must reproduce exactly the bitrade built by
    ``from_permutations`` on the derived permutations.  Raises
    ValidationError for non-separated input.
    """
    pt = triple_permutations(bitrade)
    witness = separation_witness(bitrade, pt)
    if witness is not None:
        raise ValidationError(
            "separated", f"{witness[0]} {witness[1]!r} meets {len(witness[2])} cycles",
            witness=witness)
    rebuilt = from_permutations(*pt.perms, points=pt.points)
    f = [{x[i]: f"{tag}:{point_str(cycle[0])}" for cycle in cycles for x in cycle}
         for i, (tag, cycles) in enumerate(zip(_CYCLE_TAGS, pt.cycles))]
    ok = all({tuple(m[x] for m, x in zip(f, t)) for t in mine.triples} == theirs.triples
             for mine, theirs in ((bitrade.t_circ, rebuilt.t_circ),
                                  (bitrade.t_star, rebuilt.t_star)))
    return ok, {"rows": f[0], "cols": f[1], "syms": f[2]}
