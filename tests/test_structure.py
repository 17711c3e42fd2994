"""The integer-coded permutation structure against a label-based reference.

``oracle_*`` below are the dict-based implementations the package used
before the structure was built on integer indices: mate bijections and
triple permutations as dicts keyed by label triples, and the separation,
orbit, exhaustive-primality, thin and orthogonal scans over labels.  They
are kept as the reference the integer code must agree with.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bitrades import core, properties
from bitrades.core import (
    _COORD_NAMES,
    PartialLatinSquare,
    _sort_key,
    canonical_sorted,
    check_bitrade_conditions,
    from_group,
    from_permutations,
    make_bitrade,
    make_pls,
    mate_bijections,
    point_str,
    separation_witness,
    triple_permutations,
    validate_permutation_triple,
)
from bitrades.errors import ValidationError
from bitrades.groups import group_from_spec
from bitrades.properties import (
    compute_report,
    homogeneity,
    is_orthogonal,
    is_primary,
    is_thin,
    primary_exhaustive,
)
from bitrades.search import iter_triples

from conftest import (
    INTERCALATE_CIRC,
    INTERCALATE_STAR,
    NONSEP_CIRC,
    NONSEP_STAR,
    TWO_BY_THREE_CIRC,
    TWO_BY_THREE_STAR,
    _shift,
)


# ---------------------------------------------------------------------------
# the reference

def oracle_mate_bijections(bitrade):
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


def oracle_triple_permutations(bitrade):
    b1, b2, b3 = oracle_mate_bijections(bitrade)
    inv = [{v: k for k, v in m.items()} for m in (b1, b2, b3)]
    points = bitrade.t_circ.sorted_triples()
    tau1 = {x: b3[inv[1][x]] for x in points}
    tau2 = {x: b1[inv[2][x]] for x in points}
    tau3 = {x: b2[inv[0][x]] for x in points}
    pt = validate_permutation_triple(tau1, tau2, tau3, points)
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
    circ = bitrade.t_circ.sorted_triples()
    star = bitrade.t_star.sorted_triples()
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
    star_cell = bitrade.t_star.cell_map()
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
    star_cell = bitrade.t_star.cell_map()
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
    assert mate_bijections(bitrade) == oracle_mate_bijections(bitrade)
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
def latin_difference_pairs(draw):
    """(T, T*) = (L1 \\ L2, L2 \\ L1) for two random isotopes of one square,
    in a random labelling, if that has between 1 and 12 cells."""
    n = draw(st.sampled_from(sorted(SQUARES)))
    square = draw(st.sampled_from(SQUARES[n]))
    fr, fc, fs = LABELLINGS[draw(st.sampled_from(sorted(LABELLINGS)))]

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
    build = core._bitrade_structure
    original = core.triple_permutations

    def counting_build(circ, star):
        builds.append(circ)
        return build(circ, star)

    def counting_calls(bitrade):
        calls.append(bitrade)
        return original(bitrade)

    monkeypatch.setattr(core, "_bitrade_structure", counting_build)
    for module in (core, properties):
        monkeypatch.setattr(module, "triple_permutations", counting_calls)
    bitrade = make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR)
    assert builds == [bitrade.t_circ]  # inside make_bitrade
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
    foreign to its coordinate; or with one more mate triple on T's labels."""
    circ, star = draw(latin_difference_pairs())
    circ, star = sorted(circ, key=repr), sorted(star, key=repr)
    alphabets = [sorted({t[k] for t in circ}, key=repr) for k in range(3)]
    i = draw(st.integers(0, len(star) - 1))
    kind = draw(st.sampled_from(["none", "symbol", "drop", "copy", "foreign", "add"]))
    if kind == "symbol":
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

def label_path_bitrade(perms, points, tags, fmt, provenance):
    """The constructions as they were before they built the structure from
    their permutations: the cycle labels of every point as a primary and a
    mate triple, validated by ``make_bitrade``.  The mate of point x is the
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
    return make_bitrade(t_circ, t_star, *alphabets, provenance=provenance)


def label_path_from_permutations(p1, p2, p3):
    points = canonical_sorted(p1.keys())
    return label_path_bitrade(core._index_permutations((p1, p2, p3), points), points,
                              core._CYCLE_TAGS, point_str, {"kind": "from-perms"})


def label_path_from_group(triple):
    G = triple.group
    els = G.elements()
    index = {g: i for i, g in enumerate(els)}
    perms = [[index[G.mul(x, g)] for x in els] for g in (triple.a, triple.b, triple.c)]
    a, b, c = triple.element_strs()
    return label_path_bitrade(perms, els, "ABC", G.element_str,
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

        for name in ("make_bitrade", "make_pls", "_bitrade_structure"):
            monkeypatch.setattr(core, name, refuse)
        triple = group_triples("alt:4")[0]
        assert from_group(triple.group, triple.a, triple.b, triple.c).size == 12
        perms = oracle_triple_permutations(intercalate_bitrade)[1]
        assert from_permutations(*perms).size == 4
