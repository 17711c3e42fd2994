"""The integer-coded permutation structure against a label-based reference.

``oracle_*`` below are the dict-based implementations the package used
before the structure was built on integer indices: mate bijections and
triple permutations as dicts keyed by label triples, and the separation,
orbit, exhaustive-primality, thin and orthogonal scans over labels.  They
are kept as the reference the integer code must agree with.
"""

from __future__ import annotations

import copy
import functools
import gc
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bitrades import core, properties
from bitrades.core import (
    _COORD_NAMES,
    PartialLatinSquare,
    _sort_key,
    canonical_sorted,
    from_group,
    from_permutations,
    make_bitrade,
    point_str,
    separation_witness,
    triple_permutations,
)
from bitrades.errors import BitradesError, ParseError, ValidationError
from bitrades.families import family_from_spec
from bitrades.groups import group_from_spec
from bitrades.properties import (
    compute_report,
    homogeneity,
    is_minimal,
    is_orthogonal,
    is_primary,
    is_thin,
    primary_exhaustive,
)
from bitrades.search import iter_triples
from bitrades.serialize import bitrade_to_json, doc_to_bitrade, read_bitrade

from conftest import (
    INTERCALATE_CIRC,
    INTERCALATE_STAR,
    NONSEP_CIRC,
    NONSEP_STAR,
    TWO_BY_THREE_CIRC,
    TWO_BY_THREE_STAR,
    _find_proper_subtrade,
    _shift,
    cell_map,
    check_bitrade_conditions,
    make_pls,
    oracle_mate_bijections,
    sorted_triples,
)


# ---------------------------------------------------------------------------
# the reference

def oracle_triple_permutations(bitrade):
    b1, b2, b3 = oracle_mate_bijections(bitrade)
    inv = [{v: k for k, v in m.items()} for m in (b1, b2, b3)]
    points = sorted_triples(bitrade.t_circ)
    tau1 = {x: b3[inv[1][x]] for x in points}
    tau2 = {x: b1[inv[2][x]] for x in points}
    tau3 = {x: b2[inv[0][x]] for x in points}
    index_perms = core._index_permutations((tau1, tau2, tau3), points)
    cycles, _ = core._check_permutation_triple(index_perms, points)  # Q1-Q3
    pt = SimpleNamespace(points=tuple(points), cycles=tuple(
        tuple(tuple(points[x] for x in c) for c in cyc) for cyc in cycles))
    return pt, (tau1, tau2, tau3)


def oracle_separation_witness(pt):
    for i in range(3):
        by_label = {}
        for ci, cycle in enumerate(pt.cycles[i]):
            by_label.setdefault(cycle[0][i], []).append(ci)
        for label in canonical_sorted(by_label):
            ids = by_label[label]
            if len(ids) > 1:
                return (_COORD_NAMES[i], label,
                        tuple(pt.cycles[i][ci] for ci in ids))
    return None


def oracle_orbit(perms, start):
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for perm in perms:
                y = perm[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def oracle_primary_exhaustive(bitrade):
    circ = sorted_triples(bitrade.t_circ)
    star = sorted_triples(bitrade.t_star)
    n = len(circ)
    circ_index = {t: i for i, t in enumerate(circ)}
    star_index = {t: i for i, t in enumerate(star)}
    star_bits = [0] * n
    star_need = [0] * n
    for m in oracle_mate_bijections(bitrade):
        for star_t, circ_t in m.items():
            si = star_index[star_t]
            ci = circ_index[circ_t]
            star_bits[ci] |= 1 << si
            star_need[si] |= 1 << ci
    full = (1 << n) - 1
    for mask in range(1, full):
        sbits = 0
        m = mask
        while m:
            low = m & -m
            sbits |= star_bits[low.bit_length() - 1]
            m ^= low
        ok = True
        s = sbits
        while s:
            low = s & -s
            if star_need[low.bit_length() - 1] & ~mask:
                ok = False
                break
            s ^= low
        if ok:
            return False, tuple(circ[i] for i in range(n) if mask >> i & 1)
    return True, None


def oracle_primary(bitrade, cap=properties.DEFAULT_PRIMARY_CAP):
    pt, perms = oracle_triple_permutations(bitrade)
    orbit = oracle_orbit(perms, pt.points[0])
    transitive = len(orbit) == len(pt.points)
    separated = oracle_separation_witness(pt) is None
    exhaustive = None
    if bitrade.size <= cap:
        exhaustive = oracle_primary_exhaustive(bitrade)
        assert exhaustive[0] == transitive
    if separated or exhaustive is not None:
        method = "orbit" if separated else "oracle"
        if transitive:
            return ("yes", method, None)
        return ("no", method, tuple(sorted(orbit, key=lambda t: tuple(map(_sort_key, t)))))
    return ("unknown", "orbit", None)


def oracle_symbol_classes(pls):
    classes = {}
    for t in sorted(pls.triples, key=lambda t: tuple(map(_sort_key, t))):
        classes.setdefault(t[2], []).append(t)
    return classes


def oracle_thin(bitrade):
    star_cell = cell_map(bitrade.t_star)
    violations = []
    for sym, ts in oracle_symbol_classes(bitrade.t_circ).items():
        for t1 in ts:
            for t2 in ts:
                if t1 == t2:
                    continue
                crossing = star_cell.get((t1[0], t2[1]))
                if crossing is not None and crossing != sym:
                    violations.append((t1[0], t1[1], t2[0], t2[1]))
    if not violations:
        return ("yes", None)
    return ("no", min(violations, key=lambda w: tuple(map(_sort_key, w))))


def oracle_orthogonal(bitrade):
    star_cell = cell_map(bitrade.t_star)
    violations = []
    for _, ts in oracle_symbol_classes(bitrade.t_circ).items():
        for i, t1 in enumerate(ts):
            for t2 in ts[i + 1:]:
                if star_cell[(t1[0], t1[1])] == star_cell[(t2[0], t2[1])]:
                    violations.append((t1[0], t1[1], t2[0], t2[1]))
    if not violations:
        return ("yes", None)
    return ("no", min(violations, key=lambda w: tuple(map(_sort_key, w))))


def oracle_homogeneity(bitrade):
    counters = [Counter(t[i] for t in bitrade.t_circ.triples) for i in range(3)]
    baseline = counters[0][bitrade.rows[0]]
    labels_by_coord = (bitrade.rows, bitrade.cols, bitrade.syms)
    for coord, labels, counter in zip(("row", "column", "symbol"),
                                      labels_by_coord, counters):
        for lab in labels:
            if counter[lab] != baseline:
                return ("no", (coord, lab, counter[lab], baseline))
    return (baseline, None)


def assert_matches_oracle(bitrade):
    pt = triple_permutations(bitrade)
    ref, ref_perms = oracle_triple_permutations(bitrade)
    assert pt.points == ref.points
    assert pt.perms == ref_perms
    assert pt.cycles == ref.cycles
    assert separation_witness(bitrade) == oracle_separation_witness(ref)
    primary = is_primary(bitrade)
    assert (primary.value, primary.method, primary.witness) == oracle_primary(bitrade)
    if bitrade.size <= properties.DEFAULT_PRIMARY_CAP:
        assert primary_exhaustive(bitrade) == oracle_primary_exhaustive(bitrade)
    thin = is_thin(bitrade)
    assert (thin.value, thin.witness) == oracle_thin(bitrade)
    orthogonal = is_orthogonal(bitrade)
    assert (orthogonal.value, orthogonal.witness) == oracle_orthogonal(bitrade)
    hom = homogeneity(bitrade)
    assert (hom.value, hom.witness) == oracle_homogeneity(bitrade)


# ---------------------------------------------------------------------------
# inputs: the differences of two latin squares of order <= 4 are bitrades

def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


SQUARES = {n: [_cyclic(n)] for n in (2, 3, 4)}
SQUARES[4].append([[i ^ j for j in range(4)] for i in range(4)])  # Klein group

# labels of three disjoint kinds.  For tuple labels the canonical order
# (_sort_key compares their str) differs from plain tuple order: (10,)
# sorts before (2,).
LABELLINGS = {
    "str": (lambda i: f"r{i}", lambda j: f"c{j}", lambda k: f"s{k}"),
    "tuple": (lambda i: ((2, 10, 3, 30)[i],), lambda j: 100 + 7 * j,
              lambda k: ("s", (5, 12, 7, 40)[k])),
}


@st.composite
def latin_difference_pairs(draw, labellings=tuple(LABELLINGS.values())):
    """(T, T*) = (L1 \\ L2, L2 \\ L1) for two random isotopes of one square,
    in a random labelling, if that has between 1 and 12 cells."""
    n = draw(st.sampled_from(sorted(SQUARES)))
    square = draw(st.sampled_from(SQUARES[n]))
    fr, fc, fs = draw(st.sampled_from(labellings))

    def isotope():
        pr, pc, ps = (draw(st.permutations(range(n))) for _ in range(3))
        return {(fr(pr[i]), fc(pc[j]), fs(ps[square[i][j]]))
                for i in range(n) for j in range(n)}

    first, second = isotope(), isotope()
    circ, star = first - second, second - first
    assume(1 <= len(circ) <= 12)
    return circ, star


def latin_differences():
    return latin_difference_pairs().map(lambda pair: make_bitrade(*pair))


FIXTURES = {
    "two_by_three": (TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR),
    "intercalate": (INTERCALATE_CIRC, INTERCALATE_STAR),
    "nonseparated": (NONSEP_CIRC, NONSEP_STAR),
    "two_intercalates": (INTERCALATE_CIRC + _shift(INTERCALATE_CIRC, "x"),
                         INTERCALATE_STAR + _shift(INTERCALATE_STAR, "x")),
}


def _tuple_labelled(triples):
    return [((r,), (c, 0), (s, 1)) for r, c, s in triples]


class TestAgainstOracle:
    def test_fixtures(self):
        for circ, star in FIXTURES.values():
            assert_matches_oracle(make_bitrade(circ, star))
            assert_matches_oracle(make_bitrade(_tuple_labelled(circ), _tuple_labelled(star)))

    def test_declared_alphabets_out_of_order(self):
        bt = make_bitrade(NONSEP_CIRC, NONSEP_STAR, rows=("c", "b", "a"),
                          syms=tuple("lkjih"))
        assert homogeneity(bt).witness == ("row", "b", 3, 4)
        assert_matches_oracle(bt)

    @settings(max_examples=150, deadline=None)
    @given(latin_differences())
    def test_latin_differences(self, bitrade):
        assert_matches_oracle(bitrade)

    @settings(max_examples=100, deadline=None)
    @given(latin_differences())
    def test_random_permutation_triples(self, bitrade):
        # the permutation structure of any bitrade satisfies Q1-Q3; its
        # bitrade is separated and goes through the same comparison
        p1, p2, p3 = oracle_triple_permutations(bitrade)[1]
        rebuilt = from_permutations(p1, p2, p3)
        assert len(triple_permutations(rebuilt).points) == bitrade.size
        assert separation_witness(rebuilt) is None
        assert_matches_oracle(rebuilt)

    def test_tuple_labels_sort_differently(self):
        # the case that rules out a plain-sort fast path
        labels = [(2,), (10,)]
        assert sorted(labels) != sorted(labels, key=_sort_key)
        circ = [((2,), "c1", "s1"), ((2,), "c2", "s2"), ((10,), "c1", "s2"),
                ((10,), "c2", "s1")]
        star = [((2,), "c1", "s2"), ((2,), "c2", "s1"), ((10,), "c1", "s1"),
                ((10,), "c2", "s2")]
        bt = make_bitrade(circ, star)
        assert triple_permutations(bt).points[0][0] == (10,)
        assert_matches_oracle(bt)


# ---------------------------------------------------------------------------
# the structure is built once per bitrade

def test_one_report_builds_the_structure_once(monkeypatch):
    builds = []
    calls = []
    build = core._pair_structure
    original = core.triple_permutations

    def counting_build(circ, star, declared):
        found = build(circ, star, declared)
        builds.append(found[0])
        return found

    def counting_calls(bitrade):
        calls.append(bitrade)
        return original(bitrade)

    monkeypatch.setattr(core, "_pair_structure", counting_build)
    for module in (core, properties):
        monkeypatch.setattr(module, "triple_permutations", counting_calls)
    bitrade = make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR)
    assert builds == [bitrade.alphabets]  # inside make_bitrade
    report = compute_report(bitrade)
    assert report["separated"].yes and report["primary"].yes
    assert len(calls) == 2  # is_separated (via separation_witness) and is_primary
    # reports read the stored structure and never build it
    compute_report(bitrade)
    assert len(builds) == 1
    assert original(bitrade) is bitrade.permutation_triple


# ---------------------------------------------------------------------------
# the integer pass accepts exactly what the label checks accept

def label_check(circ, star):
    """The violations the label-based checks find in a candidate pair: the
    first error of either square, else every R1-R3 violation."""
    try:
        circ_pls = make_pls(circ)
        star_pls = make_pls(star)
    except ValidationError as err:
        return err.violations
    star_pls = PartialLatinSquare(circ_pls.rows, circ_pls.cols, circ_pls.syms,
                                  star_pls.triples)
    return check_bitrade_conditions(circ_pls, star_pls)


@st.composite
def perturbed_pairs(draw):
    """A latin difference (T, T*) with at most one mate triple changed: a
    new symbol, dropped, replaced by a primary triple, or given a label
    foreign to its coordinate; with one more mate triple on T's labels; or
    with the symbols of two mate triples in one row or one column swapped,
    so that the other pair map of that coordinate meets one pair twice or a
    pair T lacks."""
    circ, star = draw(latin_difference_pairs())
    circ, star = sorted(circ, key=repr), sorted(star, key=repr)
    alphabets = [sorted({t[k] for t in circ}, key=repr) for k in range(3)]
    i = draw(st.integers(0, len(star) - 1))
    kind = draw(st.sampled_from(["none", "symbol", "drop", "copy", "foreign", "add", "swap"]))
    if kind == "swap":  # every row and column of T* holds at least two triples
        k = draw(st.integers(0, 1))
        j = draw(st.sampled_from([j for j, t in enumerate(star)
                                  if j != i and t[k] == star[i][k]]))
        star[i], star[j] = star[i][:2] + star[j][2:], star[j][:2] + star[i][2:]
    elif kind == "symbol":
        r, c, _ = star[i]
        star[i] = (r, c, draw(st.sampled_from(alphabets[2])))
    elif kind == "add":
        star.append(tuple(draw(st.sampled_from(labels)) for labels in alphabets))
    elif kind == "drop":
        del star[i]
    elif kind == "copy":
        star[i] = draw(st.sampled_from(circ))
    elif kind == "foreign":
        k = draw(st.integers(0, 2))
        label = draw(st.sampled_from(alphabets[(k + 1) % 3] + ["zz"]))
        star[i] = star[i][:k] + (label,) + star[i][k + 1:]
    return circ, star


class TestValidation:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_pairs())
    def test_accepts_exactly_what_the_label_checks_accept(self, pair):
        circ, star = pair
        expected = label_check(circ, star)
        try:
            bt = make_bitrade(circ, star)
        except ValidationError as err:
            assert err.violations == expected != []
        else:
            assert expected == []
            assert bt.t_star.triples == frozenset(star)


def label_document(doc):
    """What the label code makes of a document: the error it raises, or the
    primary and mate squares it accepts.  The scan is the item-by-item
    document check; the squares are ``make_pls``'s, and a rejected pair
    carries every R1-R3 violation ``check_bitrade_conditions`` finds."""
    try:
        if not isinstance(doc, dict):
            raise ParseError("a bitrade document must be a JSON object")
        for key in ("t_circ", "t_star"):
            if key not in doc:
                raise ParseError(f"bitrade document is missing {key!r}")
            if not isinstance(doc[key], list):
                raise ParseError(f"{key!r} must be a list of [row, col, symbol] triples")
            for item in doc[key]:
                if not isinstance(item, (list, tuple)) or len(item) != 3:
                    raise ParseError(f"malformed triple {item!r} in {key!r}")
                for label in item:
                    if isinstance(label, (list, dict)):
                        raise ParseError(f"label {label!r} in triple {item!r} in {key!r} "
                                         f"is not a scalar")
        if not isinstance(doc.get("provenance") or {}, dict):
            raise ParseError("'provenance' must be an object")
        declared = []
        for key in ("rows", "cols", "syms"):
            value = doc.get(key)
            if value is not None:
                if not isinstance(value, list):
                    raise ParseError(f"{key!r} must be a list of labels")
                for label in value:
                    if isinstance(label, (list, dict)):
                        raise ParseError(f"label {label!r} in {key!r} is not a scalar")
                value = tuple(value)
            declared.append(value)
        circ = make_pls([tuple(t) for t in doc["t_circ"]], *declared)
        star = make_pls([tuple(t) for t in doc["t_star"]], *declared)
    except (ParseError, ValidationError) as err:
        return err
    star = PartialLatinSquare(circ.rows, circ.cols, circ.syms, star.triples)
    violations = check_bitrade_conditions(circ, star)
    if violations:
        cond, witness, message = violations[0]
        return ValidationError(cond, message, witness=witness, violations=violations)
    return circ, star


def assert_same_as_label_squares(bitrade, doc, circ, star):
    """Same squares and alphabets, and the structure of the label reference.

    Of hash-equal labels, an inferred alphabet holds the first in the
    document, as ``make_pls``'s does; ``==`` cannot tell them apart, so
    their reprs are compared."""
    assert bitrade.t_circ == circ
    assert bitrade.t_star.triples == star.triples
    assert (bitrade.rows, bitrade.cols, bitrade.syms) == (circ.rows, circ.cols, circ.syms)
    for i, key in enumerate(("rows", "cols", "syms")):
        first = dict.fromkeys(t[i] for t in doc["t_circ"])
        expected = canonical_sorted(first) if doc.get(key) is None else doc[key]
        assert repr((bitrade.rows, bitrade.cols, bitrade.syms)[i]) == repr(tuple(expected))
    pt = bitrade.permutation_triple
    ref, ref_perms = oracle_triple_permutations(SimpleNamespace(t_circ=circ, t_star=star))
    own = [{label: label for label in alphabet} for alphabet in bitrade.alphabets]
    assert repr(pt.points) == repr(tuple(tuple(own[i][x] for i, x in enumerate(t))
                                         for t in ref.points))
    assert pt.perms == ref_perms
    assert pt.alphabets == tuple(tuple(sorted(labels, key=_sort_key))
                                 for labels in (circ.rows, circ.cols, circ.syms))
    assert pt.coords == tuple(
        array("i", [pt.alphabets[i].index(t[i]) for t in pt.points]) for i in range(3))


# ``1``, ``1.0`` and ``True`` hash alike, and so do ``10`` and ``10.0``
ALIKE = {1: (1.0, True), 10: (10.0,)}
NUMBER_LABELS = (lambda i: i + 1, lambda j: 10 + j, lambda k: f"s{k}")


@st.composite
def perturbed_documents(draw):
    """A latin difference as a document (lists for triples, declared
    alphabets or not) with up to two perturbations of either square or of
    the declared alphabets: a P1 clash in one coordinate pair, a repeated
    triple, a declared alphabet with a label missing, unused or repeated, a
    label moved to another coordinate's alphabet, a label replaced by a
    hash-equal one, a non-list item, or a nested label; a triple dropped,
    replaced by one of the other square, given another symbol, or moved to
    another cell and another place in its square; the symbols of two
    triples swapped; the mate replaced by the primary square (R1); or a
    label renamed everywhere to one of another coordinate."""
    circ, star = draw(latin_difference_pairs((*LABELLINGS.values(), NUMBER_LABELS)))
    doc = {key: sorted(map(list, triples), key=repr)
           for key, triples in (("t_circ", circ), ("t_star", star))}
    alphabets = [sorted({t[k] for t in circ}, key=repr) for k in range(3)]
    for k, key in enumerate(("rows", "cols", "syms")):
        if draw(st.booleans()):
            doc[key] = draw(st.permutations(alphabets[k]))
    for _ in range(draw(st.sampled_from([1, 0, 1, 2]))):
        kind = draw(st.sampled_from(["clash", "repeat", "declared", "shared", "alike",
                                     "item", "nested", "drop", "copy", "symbol", "same",
                                     "rename", "move", "swap"]))
        if kind == "same":
            doc["t_star"] = copy.deepcopy(doc["t_circ"])  # items of any kind
            continue
        if kind == "rename":  # a label of coordinate k, everywhere, to one of k + 1
            k = draw(st.integers(0, 2))
            old, new = (draw(st.sampled_from(alphabets[j])) for j in (k, (k + 1) % 3))
            for t in doc["t_circ"] + doc["t_star"]:
                if isinstance(t, list) and len(t) == 3 and t[k] == old:
                    t[k] = new
            key = ("rows", "cols", "syms")[k]
            if doc.get(key):
                doc[key] = [new if x == old else x for x in doc[key]]
            continue
        items = doc[draw(st.sampled_from(["t_circ", "t_star"]))]
        triples = [i for i, t in enumerate(items) if isinstance(t, list) and len(t) == 3]
        if not triples:
            continue
        i = draw(st.sampled_from(triples))
        k = draw(st.integers(0, 2))
        if kind == "clash":  # agree with item i outside coordinate k
            new = list(items[i])
            new[k] = draw(st.sampled_from(alphabets[k] + ["zz"]))
            items.append(new)
        elif kind == "repeat":
            items.insert(draw(st.integers(0, len(items))), list(items[i]))
        elif kind == "drop":
            del items[i]
        elif kind == "copy":  # the other square's triple: R1, or R2/R3
            items[i] = list(draw(st.sampled_from(sorted(star if items is doc["t_circ"]
                                                        else circ, key=repr))))
        elif kind == "symbol":
            items[i] = items[i][:2] + [draw(st.sampled_from(alphabets[2]))]
        elif kind == "move":  # to another cell, and another place in the list
            row, col = (draw(st.sampled_from(alphabets[j])) for j in (0, 1))
            items.insert(draw(st.integers(0, len(items) - 1)), [row, col, items.pop(i)[2]])
        elif kind == "swap":  # the symbols of items i and j
            j = draw(st.sampled_from(triples))
            items[i], items[j] = items[i][:2] + items[j][2:], items[j][:2] + items[i][2:]
        elif kind == "declared":
            key = ("rows", "cols", "syms")[k]
            labels = list(doc.get(key) or alphabets[k])
            how = draw(st.sampled_from(["missing", "unused", "repeated"]))
            if how == "missing":
                labels.pop(draw(st.integers(0, len(labels) - 1)))
            elif how == "unused":
                labels.append("zz")
            else:
                labels.append(draw(st.sampled_from(labels)))
            doc[key] = labels
        elif kind == "shared":
            items[i] = list(items[i])
            items[i][k] = draw(st.sampled_from(alphabets[(k + 1) % 3]))
        elif kind == "alike":  # labels of one item or alphabet entry, hash-equal
            def alike(x):
                return draw(st.sampled_from(ALIKE[x])) if type(x) is int and x in ALIKE else x

            places = [(lst, j) for lst in (doc["t_circ"], doc["t_star"], doc.get("rows"),
                                           doc.get("cols"), doc.get("syms"))
                      if lst for j in range(len(lst))
                      if any(type(x) is int and x in ALIKE for x in
                             (lst[j] if isinstance(lst[j], list) else [lst[j]]))]
            if not places:
                continue
            lst, j = draw(st.sampled_from(places))
            lst[j] = [alike(x) for x in lst[j]] if isinstance(lst[j], list) else alike(lst[j])
        elif kind == "item":
            items[i] = draw(st.sampled_from(["abc", 7, {"r": 1}, None, items[i][:2],
                                             items[i] + ["zz"]]))
        else:
            items[i] = list(items[i])
            items[i][k] = draw(st.sampled_from([[items[i][k]], {"x": items[i][k]}]))
    return doc


class TestDocuments:
    @settings(max_examples=400, deadline=None)
    @given(perturbed_documents())
    def test_documents_against_the_label_oracle(self, doc):
        expected = label_document(doc)
        try:
            bt = doc_to_bitrade(doc)
        except (ParseError, ValidationError) as err:
            assert isinstance(expected, BitradesError), err
            assert (type(err), str(err)) == (type(expected), str(expected))
            # repr tells the spellings of hash-equal labels (1, 1.0, True) apart
            assert repr(getattr(err, "violations", None)) \
                == repr(getattr(expected, "violations", None))
        else:
            assert not isinstance(expected, BitradesError), expected
            assert_same_as_label_squares(bt, doc, *expected)


# ---------------------------------------------------------------------------
# the first Q1 clash

def oracle_q1_clash(perms, points):
    """The first Q1 clash of three fixed-point-free index permutations, as
    the scan keyed by (cycle, cycle) tuples reports it: the message and the
    witness, or None."""
    cycles, cycle_of = [], []
    for q in perms:
        cyc, of = [], {}
        for start in range(len(q)):
            if start in of:
                continue
            cycle, x = [start], q[start]
            while x != start:
                cycle.append(x)
                x = q[x]
            of.update((y, len(cyc)) for y in cycle)
            cyc.append(cycle)
        cycles.append(cyc)
        cycle_of.append([of[x] for x in range(len(q))])
    for r, s in ((0, 1), (0, 2), (1, 2)):
        seen = {}
        for x, key in enumerate(zip(cycle_of[r], cycle_of[s])):
            if key in seen:
                cr = tuple(points[i] for i in cycles[r][key[0]])
                cs = tuple(points[i] for i in cycles[s][key[1]])
                first, second = points[seen[key]], points[x]
                return (f"Q1: cycles {cr} and {cs} of permutations {r + 1} and {s + 1} "
                        f"share the moved points {point_str(first)} and {point_str(second)}",
                        (cr, cs, first, second))
            seen[key] = x
    return None


@st.composite
def derangements(draw, n):
    """A permutation of range(n) without fixed points, as an index list."""
    order = draw(st.permutations(range(n)))
    q = [0] * n
    start = 0
    while start < n:
        rest = n - start
        length = rest if rest < 4 else draw(st.integers(2, rest))
        if rest - length == 1:
            length = rest
        cycle = order[start:start + length]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            q[x] = y
        start += length
    return q


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(*[derangements(n)] * 3)),
       st.sampled_from([lambda i: i, lambda i: f"p{i}", lambda i: (i, "x")]))
def test_first_q1_clash(perms, form):
    points = tuple(form(i) for i in range(len(perms[0])))
    expected = oracle_q1_clash(perms, points)
    try:
        core._check_permutation_triple(perms, points)
    except ValidationError as err:
        if err.condition != "Q1":
            assert err.condition == "Q3" and expected is None
        else:
            assert (str(err), err.witness) == expected
    else:
        assert expected is None


# ---------------------------------------------------------------------------
# the constructions take the structure straight from their permutations

def label_path_squares(perms, points, tags, fmt):
    """The constructions as they were before they built the structure from
    their permutations: the declared alphabets, and the cycle labels of
    every point as a primary and a mate triple.  The mate of point x is the
    row cycle through x, the column cycle through q1(x) and the symbol
    cycle through q2(q1(x))."""
    cycles, cycle_of = core._check_permutation_triple(perms, points)
    alphabets = []
    labels = []
    for tag, cyc, of in zip(tags, cycles, cycle_of):
        names = tuple(f"{tag}:{fmt(points[c[0]])}" for c in cyc)
        alphabets.append(names)
        labels.append([names[k] for k in of])
    lab1, lab2, lab3 = labels
    q1, q2, _ = perms
    t_circ = set(zip(lab1, lab2, lab3))
    t_star = {(lab1[x], lab2[y], lab3[q2[y]]) for x, y in enumerate(q1)}
    return tuple(alphabets), t_circ, t_star


def label_path_bitrade(perms, points, tags, fmt, provenance):
    """``label_path_squares`` validated by ``make_bitrade``."""
    alphabets, t_circ, t_star = label_path_squares(perms, points, tags, fmt)
    return make_bitrade(t_circ, t_star, *alphabets, provenance=provenance)


def label_path_from_permutations(p1, p2, p3):
    points = canonical_sorted(p1.keys())
    return label_path_bitrade(core._index_permutations((p1, p2, p3), points), points,
                              core._CYCLE_TAGS, point_str, {"kind": "from-perms"})


def right_multiplications(triple):
    """x -> xa, x -> xb and x -> xc as index lists into ``elements()``."""
    G = triple.group
    els = G.elements()
    index = {g: i for i, g in enumerate(els)}
    return [[index[G.mul(x, g)] for x in els] for g in (triple.a, triple.b, triple.c)]


def label_path_from_group(triple):
    G = triple.group
    a, b, c = triple.element_strs()
    return label_path_bitrade(right_multiplications(triple), G.elements(), "ABC",
                              G.element_str,
                              {"kind": "from-group", "group": G.spec, "a": a, "b": b, "c": c})


def assert_same_bitrade(direct, oracle):
    mine, ref = direct.permutation_triple, oracle.permutation_triple
    assert mine.points == ref.points
    assert mine.alphabets == ref.alphabets
    assert mine.coords == ref.coords
    assert mine.index_perms == ref.index_perms
    assert (direct.rows, direct.cols, direct.syms) == (oracle.rows, oracle.cols, oracle.syms)
    assert direct == oracle
    assert direct.provenance == oracle.provenance


@functools.lru_cache(maxsize=None)
def group_triples(spec):
    return list(iter_triples(group_from_spec(spec)))


# points 1 and "1" (and 2 and "2") format alike, so two cycles get one label
COLLIDING = ({1: "1", "1": 1, 2: "2", "2": 2}, {1: 2, "1": "2", 2: 1, "2": "1"},
             {1: "2", "1": 2, 2: "1", "2": 1})


class TestAgainstLabelPath:
    @settings(max_examples=150, deadline=None)
    @given(latin_differences())
    def test_random_permutation_triples(self, bitrade):
        perms = oracle_triple_permutations(bitrade)[1]
        assert_same_bitrade(from_permutations(*perms), label_path_from_permutations(*perms))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(("sym:3", "alt:4", "p3:3", "pq:7,3,2")).flatmap(
        lambda spec: st.sampled_from(group_triples(spec))))
    def test_group_triples(self, triple):
        direct = from_group(triple.group, triple.a, triple.b, triple.c)
        assert_same_bitrade(direct, label_path_from_group(triple))

    @pytest.mark.parametrize("perms", [({}, {}, {}), COLLIDING])
    def test_same_rejection(self, perms):
        with pytest.raises(ValidationError) as expected:
            label_path_from_permutations(*perms)
        with pytest.raises(ValidationError) as err:
            from_permutations(*perms)
        assert str(err.value) == str(expected.value)

    def test_constructions_never_validate_labels(self, monkeypatch):
        intercalate_bitrade = make_bitrade(INTERCALATE_CIRC, INTERCALATE_STAR)

        def refuse(*args, **kwargs):
            raise AssertionError("label validation on the construction path")

        for name in ("make_bitrade", "_raise_violations", "_pair_structure"):
            monkeypatch.setattr(core, name, refuse)
        triple = group_triples("alt:4")[0]
        assert from_group(triple.group, triple.a, triple.b, triple.c).size == 12
        perms = oracle_triple_permutations(intercalate_bitrade)[1]
        assert from_permutations(*perms).size == 4


# ---------------------------------------------------------------------------
# every construction proves Q1-Q3 of its structure; the checker is the oracle

TRUSTED_SPECS = ("sym:3", "alt:4", "sym:4", "p3:3", "pq:7,3,2", "prod:cyc:3,cyc:3",
                 "gens:5:(1,2,3,4,5);(2,5)(3,4)")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TRUSTED_SPECS).flatmap(
    lambda spec: st.sampled_from(group_triples(spec))))
def test_group_triples_pass_the_full_check(triple):
    G = triple.group
    els = G.elements()
    perms = G.right_translations((triple.a, triple.b, triple.c))
    assert list(map(list, perms)) == right_multiplications(triple)
    checked = core._check_permutation_triple(perms, els)  # raises on a Q1-Q3 failure
    assert checked == core._walk_cycles(perms, els)
    direct = from_group(G, triple.a, triple.b, triple.c)
    oracle = label_path_bitrade(perms, els, "ABC", G.element_str, direct.provenance)
    assert_same_bitrade(direct, oracle)


def test_trust_stays_inside_the_group_builder(monkeypatch):
    calls = []
    check = core._check_permutation_triple

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(core, "_check_permutation_triple", counted)
    triple = group_triples("alt:4")[0]
    bitrade = from_group(triple.group, triple.a, triple.b, triple.c)
    read = read_bitrade(bitrade_to_json(bitrade))
    for built in (bitrade, read):  # every construction proved Q1-Q3 of its structure
        pt = triple_permutations(built)
        compute_report(built)
    assert len(calls) == 0
    from_permutations(*pt.perms)  # permutations from outside are checked
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the thin and orthogonal scans against the label oracles

THIN_SPECS = ("p3:3", "pq:7,3,2", "prod:cyc:3,cyc:3")  # non-thin triples among these
ORTHOGONAL_SPECS = ("sym:4", "alt:4", "gens:5:(1,2,3,4,5);(2,5)(3,4)")  # non-orthogonal


def group_bitrades(specs):
    return st.sampled_from(specs).flatmap(
        lambda spec: st.sampled_from(group_triples(spec))).map(
        lambda t: from_group(t.group, t.a, t.b, t.c))


@settings(max_examples=300, deadline=None)
@given(st.one_of(group_bitrades(THIN_SPECS + ORTHOGONAL_SPECS), latin_differences(),
                 latin_differences().map(
                     lambda bt: from_permutations(*oracle_triple_permutations(bt)[1]))))
def test_thin_and_orthogonal_against_the_oracles(bitrade):
    thin = is_thin(bitrade)
    assert (thin.value, thin.witness) == oracle_thin(bitrade)
    orthogonal = is_orthogonal(bitrade)
    assert (orthogonal.value, orthogonal.witness) == oracle_orthogonal(bitrade)


@pytest.mark.parametrize("spec,check", [(spec, is_thin) for spec in THIN_SPECS]
                         + [(spec, is_orthogonal) for spec in ORTHOGONAL_SPECS])
def test_each_group_reaches_a_no(spec, check):
    # the oracle test above meets both verdicts of both scans
    assert any(check(from_group(t.group, t.a, t.b, t.c)).value == "no"
               for t in group_triples(spec))


# ---------------------------------------------------------------------------
# one copy of every label: the squares and the points are views

@st.composite
def bitrades_and_label_squares(draw):
    """A bitrade from an accepted document, from permutations or from a
    group, with what the label code makes of the same input: the declared
    alphabets and the sets of primary and mate triples."""
    source = draw(st.sampled_from(["document", "permutations", "group"]))
    if source == "document":
        doc = draw(perturbed_documents())
        expected = label_document(doc)
        assume(not isinstance(expected, BitradesError))
        circ, star = expected
        return doc_to_bitrade(doc), ((circ.rows, circ.cols, circ.syms), circ.triples,
                                     star.triples)
    if source == "permutations":
        perms = oracle_triple_permutations(draw(latin_differences()))[1]
        points = canonical_sorted(perms[0])
        return from_permutations(*perms), label_path_squares(
            core._index_permutations(perms, points), points, core._CYCLE_TAGS, point_str)
    triple = draw(st.sampled_from(("sym:3", "alt:4", "p3:3", "pq:7,3,2")).flatmap(
        lambda spec: st.sampled_from(group_triples(spec))))
    G = triple.group
    return (from_group(G, triple.a, triple.b, triple.c),
            label_path_squares(right_multiplications(triple), G.elements(), "ABC",
                               G.element_str))


def label_equal(one, other):
    """Bitrade equality as it was while both squares were stored: equal
    squares, their alphabets included."""
    return one.t_circ == other.t_circ and one.t_star == other.t_star


class TestViews:
    @settings(max_examples=300, deadline=None)
    @given(bitrades_and_label_squares(), st.data())
    def test_views_against_the_label_squares(self, case, data):
        bitrade, (alphabets, circ, star) = case
        pt = bitrade.permutation_triple
        assert bitrade.alphabets == alphabets
        assert bitrade.t_circ == PartialLatinSquare(*alphabets, frozenset(circ))
        assert bitrade.t_star == PartialLatinSquare(*alphabets, frozenset(star))
        expected = sorted(circ, key=lambda t: tuple(map(_sort_key, t)))
        assert list(pt.points) == expected
        assert pt.points is pt.points  # built once, then kept
        # every label is its alphabet's own object, also where the input
        # held a hash-equal one (1 for 1.0)
        own = [{label: label for label in alphabet} for alphabet in bitrade.alphabets]
        for triples in (pt.points, bitrade.t_circ.triples, bitrade.t_star.triples):
            for t in triples:
                assert all(x is own[i][x] for i, x in enumerate(t))
        assert [pt[x] for x in range(bitrade.size)] == list(pt.points)

        triples = (list(bitrade.t_circ.triples), list(bitrade.t_star.triples))
        kind = data.draw(st.sampled_from(["same", "inferred", "reordered", "swapped",
                                          "other"]))
        if kind == "same":
            other = make_bitrade(*triples, *bitrade.alphabets)
        elif kind == "inferred":
            other = make_bitrade(*triples)
        elif kind == "reordered":
            other = make_bitrade(*triples, data.draw(st.permutations(bitrade.rows)),
                                 *bitrade.alphabets[1:])
        elif kind == "swapped":
            other = make_bitrade(*reversed(triples), *bitrade.alphabets)
        else:
            other = data.draw(bitrades_and_label_squares())[0]
        assert (bitrade == other) == (other == bitrade) == label_equal(bitrade, other)
        if kind == "same":
            assert bitrade == other
        if bitrade == other:
            assert hash(bitrade) == hash(other)


def held_label_triples(bitrade):
    """The frozensets, and the tuples of a row, a column and a symbol label,
    reachable from a bitrade."""
    alphabets = [set(alphabet) for alphabet in bitrade.alphabets]
    found, seen, todo = [], set(), [bitrade]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, str)):
            continue
        seen.add(id(obj))
        try:
            triple = len(obj) == 3 and all(x in labels for x, labels in zip(obj, alphabets))
        except TypeError:  # no length, or an unhashable item
            triple = False
        if isinstance(obj, frozenset) or (isinstance(obj, tuple) and triple):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def _group_bitrade():
    triple = group_triples("alt:4")[0]
    return from_group(triple.group, triple.a, triple.b, triple.c)


@pytest.mark.parametrize("build", [
    lambda: make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR),
    _group_bitrade,
    lambda: from_permutations(*oracle_triple_permutations(
        make_bitrade(INTERCALATE_CIRC, INTERCALATE_STAR))[1]),
    lambda: read_bitrade(bitrade_to_json(_group_bitrade())),
], ids=["make_bitrade", "from_group", "from_permutations", "read_bitrade"])
def test_no_label_triple_held_until_read(build):
    bitrade = build()
    compute_report(bitrade)  # the cycle walk and every scan
    bitrade_to_json(bitrade)
    assert held_label_triples(bitrade) == []
    circ = bitrade.t_circ.triples
    assert set(held_label_triples(bitrade)) == circ  # the points, now kept


# ---------------------------------------------------------------------------
# the Q1-Q3 checker against every construction

@settings(max_examples=200, deadline=None)
@given(bitrades_and_label_squares().map(lambda case: case[0])
       | group_bitrades(TRUSTED_SPECS))
def test_every_built_structure_passes_the_full_check(bitrade):
    # documents (make_bitrade), permutations and groups: the cycle walk a
    # report runs finds what the full Q1-Q3 check finds, and the check passes
    pt = bitrade.permutation_triple
    checked = core._check_permutation_triple(pt.index_perms, pt)  # raises on a failure
    assert checked == core._walk_cycles(pt.index_perms, pt)
    assert (pt.index_cycles, pt.cycle_of) == checked


# ---------------------------------------------------------------------------
# the minimality search on label ranks against the label-level search

def assert_minimal_matches_reference(bitrade):
    """``is_minimal`` on the bitrade and on its primary square alone gives
    the reference search's verdict and witness; returns the verdict."""
    found = _find_proper_subtrade(bitrade.t_circ)
    expected = ("yes", None) if found is None else ("no", {"trade": found[0], "mate": found[1]})
    for trade in (bitrade, bitrade.t_circ):
        result = is_minimal(trade, cap=bitrade.size)
        assert (result.value, result.witness) == expected
    return expected[0]


class TestMinimalAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(LABELLINGS)).flatmap(
        lambda name: latin_difference_pairs((LABELLINGS[name],))))
    def test_latin_differences(self, pair):
        assert_minimal_matches_reference(make_bitrade(*pair))

    def test_fixtures(self):
        for circ, star in FIXTURES.values():
            assert_minimal_matches_reference(make_bitrade(circ, star))
            assert_minimal_matches_reference(
                make_bitrade(_tuple_labelled(circ), _tuple_labelled(star)))

    def test_declared_alphabets_out_of_order(self):
        assert_minimal_matches_reference(make_bitrade(
            NONSEP_CIRC, NONSEP_STAR, rows=("c", "b", "a"), syms=tuple("lkjih")))

    @pytest.mark.parametrize("spec", ["alt:4", "sym:4"])
    def test_every_search_record(self, spec):
        verdicts = Counter(assert_minimal_matches_reference(from_group(t.group, t.a, t.b, t.c))
                           for t in group_triples(spec))
        assert verdicts["yes"] and verdicts["no"]

    @pytest.mark.slow
    def test_every_alt5_search_record(self):
        G = group_from_spec("alt:5")
        for t in iter_triples(G):
            assert_minimal_matches_reference(from_group(G, t.a, t.b, t.c))


# ---------------------------------------------------------------------------
# the orbit walks tau1 and tau2 only

def three_permutation_orbit(pt):
    """The points reachable from point 0 by tau1, tau2 and tau3, breadth
    first."""
    return oracle_orbit(pt.index_perms, 0)


def orbit_is_transitive(bitrade):
    """Whether the structure is transitive, after checking ``_orbit``
    against the three-permutation orbit."""
    pt = bitrade.permutation_triple
    orbit = properties._orbit(pt)
    assert orbit == three_permutation_orbit(pt)
    return len(orbit) == bitrade.size


class TestOrbit:
    def test_fixtures(self):
        transitive = {name: orbit_is_transitive(make_bitrade(*pair))
                      for name, pair in FIXTURES.items()}
        assert transitive == {"two_by_three": True, "intercalate": True,
                              "nonseparated": True, "two_intercalates": False}

    @pytest.mark.parametrize("spec", ["alt:4", "sym:4", "p3:3"])
    def test_group_triples(self, spec):
        # each group has triples that generate it and triples that do not
        verdicts = Counter(orbit_is_transitive(from_group(t.group, t.a, t.b, t.c))
                           for t in group_triples(spec))
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("spec", ["zp2:p=3", "p3:p=3", "pq:p=7,q=3,r=2", "alt:m=1"])
    def test_families(self, spec):
        assert orbit_is_transitive(family_from_spec(spec).bitrade())

    @settings(max_examples=150, deadline=None)
    @given(latin_differences())
    def test_latin_differences_and_their_structures(self, bitrade):
        # a latin difference may fall apart into several bitrades
        rebuilt = from_permutations(*oracle_triple_permutations(bitrade)[1])
        assert orbit_is_transitive(bitrade) == orbit_is_transitive(rebuilt)
