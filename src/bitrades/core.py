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
coordinate i.  With the primary square it fixes the mate, so a
``Bitrade`` stores only those two, the structure on integer indices into
the primary triples in canonical order.  The two constructions take the
structure straight from their checked permutations (tau_i is the i-th
permutation, reindexed); ``make_bitrade`` validates documents and
explicit triples, and building the structure there is the validation of
the mate square.  The property scans read it; labels are looked up from
it only for output and witnesses.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConsistencyError, ValidationError
from .groups import Group, Subgroup

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

    def sorted_triples(self):
        return sorted(self.triples, key=lambda t: tuple(map(_sort_key, t)))

    def cell_map(self):
        """(row, col) -> symbol for every filled cell."""
        return {(r, c): s for (r, c, s) in self.triples}

    def __repr__(self):
        return (f"PartialLatinSquare({len(self.rows)}x{len(self.cols)}, "
                f"{len(self.syms)} symbols, size={self.size})")


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


def _check_nonempty(items):
    if not items:
        raise ValidationError("P2", "a partial latin square needs at least one triple")


def _check_distinct(labels, i):
    if len(set(labels)) != len(labels):
        raise ValidationError(
            "P2", f"duplicate label in the declared {_COORD_NAMES[i]} alphabet")


def make_pls(triples, rows=None, cols=None, syms=None):
    """Validate triples as a partial latin square; alphabets are inferred
    (in canonical order) unless explicitly given."""
    triples = frozenset(tuple(t) for t in triples)
    _check_nonempty(triples)
    for t in triples:
        if len(t) != 3:
            raise ValidationError("P1", f"{t!r} is not a (row, column, symbol) triple")

    used = [set(), set(), set()]
    for t in triples:
        for i in range(3):
            used[i].add(t[i])

    alphabets = []
    for i, given in enumerate((rows, cols, syms)):
        if given is None:
            alphabets.append(tuple(canonical_sorted(used[i])))
        else:
            given = tuple(given)
            _check_distinct(given, i)
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


# ---------------------------------------------------------------------------
# bitrades

@dataclass(frozen=True, eq=False)
class Bitrade:
    """A latin bitrade, stored as its primary square and its permutation
    structure (see ``triple_permutations``)."""

    t_circ: PartialLatinSquare
    permutation_triple: PermutationTriple
    provenance: dict = field(default_factory=dict)

    @property
    def rows(self):
        return self.t_circ.rows

    @property
    def cols(self):
        return self.t_circ.cols

    @property
    def syms(self):
        return self.t_circ.syms

    @property
    def size(self):
        return self.t_circ.size

    @property
    def t_star(self):
        """The mate square, built on each access and not kept: the mate
        triple in the cell of primary triple x holds the symbol of tau2(x)."""
        pt = self.permutation_triple
        pts = pt.points
        return PartialLatinSquare(self.rows, self.cols, self.syms, frozenset(
            (r, c, pts[z][2]) for (r, c, _), z in zip(pts, pt.index_perms[1])))

    def __eq__(self, other):
        if not isinstance(other, Bitrade):
            return NotImplemented
        return self.t_circ == other.t_circ and self.t_star == other.t_star

    def __hash__(self):
        return hash(self.t_circ)

    def __repr__(self):
        return (f"Bitrade(size={self.size}, rows={len(self.rows)}, "
                f"cols={len(self.cols)}, syms={len(self.syms)})")


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


def make_bitrade(circ_triples, star_triples, rows=None, cols=None, syms=None,
                 provenance=None):
    """Validate a (T, T*) pair as a latin bitrade.

    Building the permutation structure validates the mate square; a
    rejected pair is checked again on labels, and the ValidationError
    carries every violated condition with a witness.  The shared alphabets
    are taken in canonical order unless given.
    """
    circ = make_pls(circ_triples, rows, cols, syms)
    star_triples = frozenset(tuple(t) for t in star_triples)
    pt = _bitrade_structure(circ, star_triples)
    if pt is None:
        star = make_pls(star_triples, rows, cols, syms)
        # a label used by one square only is a missing-mate (R2 or R3) failure
        star = PartialLatinSquare(circ.rows, circ.cols, circ.syms, star.triples)
        violations = check_bitrade_conditions(circ, star)
        if not violations:
            raise ConsistencyError("the integer check rejects a pair the label check accepts")
        cond, witness, message = violations[0]
        raise ValidationError(cond, message, witness=witness, violations=violations)
    return Bitrade(circ, pt, dict(provenance or {}))


# ---------------------------------------------------------------------------
# the permutation structure of a bitrade

@dataclass(frozen=True, eq=False)
class PermutationTriple:
    """Three fixed-point-free permutations of a point set, one per coordinate.

    The permutations are held on integer indices into ``points`` (arrays
    for a bitrade): ``index_perms[i][x]`` is the index of the image of
    ``points[x]``; ``index_cycles[i]`` lists the cycles of the i-th permutation as index
    lists, each starting at its least index and in ascending order of it;
    and ``cycle_of[i][x]`` is the number of the cycle through ``points[x]``.
    The cycles are found on first access, which also checks Q1-Q3.
    ``perms`` (dicts over the points) and ``cycles`` (point tuples) are the
    same permutations in terms of the points, built on first access.

    For a bitrade the points are the primary triples in canonical order, the
    i-th permutation fixes coordinate i, and its cycles partition the points
    by their i-th label.  ``alphabets`` then holds the row, column and symbol
    labels in canonical order, and ``coords[i][x]`` is the position of the
    i-th label of ``points[x]`` in ``alphabets[i]``; for other point sets
    both are None.
    """

    points: tuple
    index_perms: tuple
    alphabets: tuple = None
    coords: tuple = None

    @cached_property
    def _cycles(self):
        return _check_permutation_triple(self.index_perms, self.points)

    @property
    def index_cycles(self):
        return self._cycles[0]

    @property
    def cycle_of(self):
        return self._cycles[1]

    @cached_property
    def perms(self):
        pts = self.points
        return tuple({x: pts[y] for x, y in zip(pts, q)} for q in self.index_perms)

    @cached_property
    def cycles(self):
        pts = self.points
        return tuple(tuple(tuple(pts[x] for x in c) for c in cyc)
                     for cyc in self.index_cycles)


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


def _check_permutation_triple(perms, points):
    """Check Q2 (no fixed points), Q1 (cycles of different permutations
    share at most one moved point) and Q3 (the product is the identity)
    for three permutations given as index lists into ``points``.

    Returns, per permutation, its cycles as index lists, each starting at
    its least index and in ascending order of it, and the cycle number of
    every index.
    """
    n = len(points)
    cycles = []
    cycle_of = []
    for idx, q in enumerate(perms, 1):
        cyc = []
        of = [-1] * n
        for start in range(n):
            if of[start] >= 0:
                continue
            if q[start] == start:
                raise ValidationError(
                    "Q2", f"permutation {idx} fixes the point {point_str(points[start])}",
                    witness=(idx, points[start]))
            k = len(cyc)
            cycle = [start]
            of[start] = k
            x = q[start]
            while x != start:
                cycle.append(x)
                of[x] = k
                x = q[x]
            cyc.append(cycle)
        cycles.append(cyc)
        cycle_of.append(of)
    for r, s in _PAIRS:
        seen = {}
        for x, key in enumerate(zip(cycle_of[r], cycle_of[s])):
            if key in seen:
                cr = tuple(points[i] for i in cycles[r][key[0]])
                cs = tuple(points[i] for i in cycles[s][key[1]])
                raise ValidationError(
                    "Q1",
                    f"cycles {cr} and {cs} of permutations {r + 1} and {s + 1} share "
                    f"the moved points {point_str(points[seen[key]])} and "
                    f"{point_str(points[x])}",
                    witness=(cr, cs, points[seen[key]], points[x]))
            seen[key] = x
    q1, q2, q3 = perms
    for x in range(n):
        if q3[q2[q1[x]]] != x:
            raise ValidationError(
                "Q3", f"the product moves the point {point_str(points[x])}",
                witness=points[x])
    return cycles, cycle_of


def validate_permutation_triple(p1, p2, p3, points):
    """Check that three dict permutations of ``points`` satisfy Q1-Q3."""
    points = tuple(points)
    pt = PermutationTriple(points, tuple(_index_permutations((p1, p2, p3), points)))
    pt.index_cycles  # finding the cycles checks Q1-Q3
    return pt


def _bitrade_of_permutations(perms, points, tags, fmt, provenance):
    """The bitrade of three permutations satisfying Q1-Q3, given as index
    lists into ``points`` (in canonical order).

    Rows, columns and symbols are the cycles of the three permutations,
    labelled ``tag:`` plus the formatted least point of the cycle, and
    declared in cycle order.  Each point x is the primary triple of the
    cycles through x; the mate triple in its cell is the row and column of
    x with the symbol of q2(x).  So the permutation structure is q1-q3
    themselves, reindexed into the canonical order of the primary triples.
    Q1-Q3 and distinct cycle labels are the whole validation: the result
    has size |X|, and ``make_bitrade`` (which validates documents and
    explicit triples) is not involved.
    """
    _check_nonempty(points)
    cycles, cycle_of = _check_permutation_triple(perms, points)
    declared = []
    ranked = []
    coords = []
    for i, (tag, cyc, of) in enumerate(zip(tags, cycles, cycle_of)):
        names = [f"{tag}:{fmt(points[c[0]])}" for c in cyc]
        _check_distinct(names, i)  # two points may format alike
        declared.append(tuple(names))
        ranked.append(tuple(sorted(names)))  # str labels: _sort_key order is plain order
        rank_of = {name: r for r, name in enumerate(ranked[-1])}
        rank = [rank_of[name] for name in names]
        coords.append([rank[k] for k in of])
    rows, cols, _ = coords
    nc = len(ranked[1])
    # a cell holds one point (Q1), so (row, column) rank orders the points
    cell = [r * nc + c for r, c in zip(rows, cols)]
    order = sorted(range(len(points)), key=cell.__getitem__)
    position = [0] * len(points)
    for i, x in enumerate(order):
        position[x] = i
    index_perms = tuple(array("i", [position[q[x]] for x in order]) for q in perms)
    coords = tuple(array("i", [coord[x] for x in order]) for coord in coords)
    triples = tuple(zip(*(map(labels.__getitem__, coord)
                          for labels, coord in zip(ranked, coords))))
    pt = PermutationTriple(triples, index_perms, tuple(ranked), coords)
    return Bitrade(PartialLatinSquare(*declared, frozenset(triples)), pt, dict(provenance))


def _bitrade_structure(circ, star):
    """The permutation structure of the pair (circ, star) on integer
    indices, or None when star is not a mate of circ.

    Labels are replaced by their positions in the alphabets sorted by
    ``_sort_key``; a cell holds one triple (P1), so sorting the cells by
    row and column position gives the canonical ``sorted_triples`` order.
    Each mate triple m then meets three primary triples: x in its cell
    (same row and column), y with its row and symbol and z with its column
    and symbol.  These are the images of m under the three mate
    bijections, and m contributes tau1(y) = x, tau2(x) = z and tau3(z) = y.

    A foreign label, an unmatched pair or x = y (R1) fails the pass; else
    the n mate triples fill every slot exactly when the three maps are
    bijections.  Passing is thus P1/P2 of star and R1-R3.
    """
    alphabets = tuple(tuple(sorted(labels, key=_sort_key))
                      for labels in (circ.rows, circ.cols, circ.syms))
    ranks = [{lab: k for k, lab in enumerate(labels)} for labels in alphabets]
    rank_r, rank_c, rank_s = ranks
    nc, ns = len(alphabets[1]), len(alphabets[2])
    points = tuple(sorted(circ.triples, key=lambda t: rank_r[t[0]] * nc + rank_c[t[1]]))
    n = len(points)
    if len(star) != n:
        return None
    coords = tuple(array("i", [rank[t[i]] for t in points]) for i, rank in enumerate(ranks))
    rows, cols, syms = coords
    index = list(range(n))  # one int object per point, shared by the three maps
    at_rc = dict(zip([r * nc + c for r, c in zip(rows, cols)], index))
    at_rs = dict(zip([r * ns + s for r, s in zip(rows, syms)], index))
    at_cs = dict(zip([c * ns + s for c, s in zip(cols, syms)], index))
    tau1, tau2, tau3 = (array("i", [-1]) * n for _ in range(3))
    try:
        for r, c, s in star:
            r, c, s = rank_r[r], rank_c[c], rank_s[s]
            x = at_rc[r * nc + c]
            y = at_rs[r * ns + s]
            z = at_cs[c * ns + s]
            if x == y:
                return None
            tau1[y] = x
            tau2[x] = z
            tau3[z] = y
    except (KeyError, ValueError):  # a foreign label, an unmatched pair, not a triple
        return None
    if -1 in tau1 or -1 in tau2 or -1 in tau3:
        return None
    return PermutationTriple(points, (tau1, tau2, tau3), alphabets, coords)


def mate_bijections(bitrade):
    """The three bijections from mate triples to primary triples.

    The r-th map sends a mate triple to the unique primary triple agreeing
    with it outside coordinate r (well defined by R2/R3).  The mate triple
    in the cell of the primary triple x agrees with tau2(x) in column and
    symbol, and with tau3(tau2(x)) in row and symbol.
    """
    pt = bitrade.permutation_triple
    points = pt.points
    _, tau2, tau3 = pt.index_perms
    maps = ({}, {}, {})
    for x, (r, c, _) in enumerate(points):
        z = tau2[x]
        mate = (r, c, points[z][2])
        maps[0][mate] = points[z]
        maps[1][mate] = points[tau3[z]]
        maps[2][mate] = points[x]
    return maps


def triple_permutations(bitrade):
    """The permutation structure of a bitrade.

    Composing the inverse of one mate bijection with another yields three
    permutations of the primary triples; the i-th fixes coordinate i.  The
    result always satisfies Q1-Q3 (checked).  ``make_bitrade`` builds it
    once per bitrade and stores it as ``Bitrade.permutation_triple``.
    """
    pt = bitrade.permutation_triple
    pt.index_cycles  # finding the cycles checks Q1-Q3
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
    return _bitrade_of_permutations(_index_permutations((p1, p2, p3), points), points,
                                    _CYCLE_TAGS, point_str, {"kind": "from-perms"})


# ---------------------------------------------------------------------------
# the group construction

class GroupTriple:
    """Elements a, b, c of a finite group with abc = 1 and pairwise trivially
    intersecting cyclic subgroups (conditions G1 and G2), plus the optional
    generation condition G3."""

    def __init__(self, group: Group, a, b, c):
        self.group = group
        self.a = a
        self.b = b
        self.c = c
        for name, g in (("a", a), ("b", b), ("c", c)):
            if group.is_identity(g):
                raise ValidationError(
                    "nontrivial", f"element {name} must not be the identity")
        if not group.is_identity(group.mul(group.mul(a, b), c)):
            raise ValidationError(
                "G1", "abc != identity (a=%s, b=%s, c=%s)" % (
                    group.element_str(a), group.element_str(b), group.element_str(c)))
        self.A = Subgroup(group, a)
        self.B = Subgroup(group, b)
        self.C = Subgroup(group, c)
        for (name, X, Y) in (("|A∩B|", self.A, self.B),
                             ("|A∩C|", self.A, self.C),
                             ("|B∩C|", self.B, self.C)):
            size = len(X.members & Y.members)
            if size != 1:
                raise ValidationError("G2", f"{name}={size}")

    @property
    def orders(self):
        return (len(self.A), len(self.B), len(self.C))

    def satisfies_g3(self):
        """Whether a, b, c generate the whole group."""
        return len(self.group.closure([self.a, self.b, self.c])) == self.group.order()

    def element_strs(self):
        g = self.group
        return (g.element_str(self.a), g.element_str(self.b), g.element_str(self.c))

    def __repr__(self):
        a, b, c = self.element_strs()
        return f"GroupTriple({self.group.spec}, a={a}, b={b}, c={c})"


def from_group(group, a, b, c, *, provenance=None):
    """Build the coset bitrade of a group triple satisfying G1 and G2.

    This is the permutation construction on the group elements with the
    right multiplications x -> xa, x -> xb, x -> xc, whose cycles are the
    left cosets of A, B and C.  The filled cells are therefore (gA, gB, gC)
    for g in G with mate symbol g a^-1 C; rows, columns and symbols are
    labelled by canonical (least) coset representatives prefixed with A/B/C
    to keep the alphabets disjoint.  The result has size |G| with |G:A|
    rows of |A| entries each, |G:B| columns of |B| entries, and |G:C|
    symbols occurring |C| times.  The group's enumeration cap bounds it.
    """
    triple = a if isinstance(a, GroupTriple) else GroupTriple(group, a, b, c)
    group = triple.group
    els = group.elements()
    index = {g: i for i, g in enumerate(els)}
    mul = group.mul
    perms = [[index[mul(x, g)] for x in els] for g in (triple.a, triple.b, triple.c)]

    astr, bstr, cstr = triple.element_strs()
    prov = {"kind": "from-group", "group": group.spec, "a": astr, "b": bstr, "c": cstr}
    if provenance:
        prov.update(provenance)
    return _bitrade_of_permutations(perms, els, ("A", "B", "C"), group.element_str, prov)


# ---------------------------------------------------------------------------
# separation and the round trip

def separation_witness(bitrade, pt=None):
    """None if every row/column/symbol meets exactly one cycle of the
    corresponding permutation, else (coordinate, label, cycle ids)."""
    if pt is None:
        pt = triple_permutations(bitrade)
    for i in range(3):
        # each cycle keeps its label and every label is used, so a label
        # meets two cycles exactly when there are more cycles than labels
        if len(pt.index_cycles[i]) == len(pt.alphabets[i]):
            continue
        by_label = {}
        for ci, cycle in enumerate(pt.index_cycles[i]):
            by_label.setdefault(pt.points[cycle[0]][i], []).append(ci)
        for label in canonical_sorted(by_label):
            ids = by_label[label]
            if len(ids) > 1:
                return (_COORD_NAMES[i], label,
                        tuple(pt.cycles[i][ci] for ci in ids))
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
    relabel_circ = {(f[0][t[0]], f[1][t[1]], f[2][t[2]])
                    for t in bitrade.t_circ.triples}
    relabel_star = {(f[0][t[0]], f[1][t[1]], f[2][t[2]])
                    for t in bitrade.t_star.triples}
    ok = (relabel_circ == rebuilt.t_circ.triples
          and relabel_star == rebuilt.t_star.triples)
    return ok, {"rows": f[0], "cols": f[1], "syms": f[2]}
