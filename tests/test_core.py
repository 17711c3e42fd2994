import dataclasses
import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrades import core
from bitrades.core import (
    GroupTriple,
    from_group,
    from_permutations,
    make_bitrade,
    point_str,
    roundtrip_check,
    separation_witness,
    triple_permutations,
)
from bitrades.errors import GroupError, ResourceCapError, ValidationError
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.search import iter_triples

from conftest import (
    TWO_BY_THREE_CIRC,
    TWO_BY_THREE_STAR,
    cell_map,
    coset_oracle,
    make_pls,
    oracle_mate_bijections,
)


def perm_from_cycles(cycles, points):
    """Build a dict permutation from disjoint cycles over the points."""
    out = {x: x for x in points}
    for cycle in cycles:
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + 1) % len(cycle)]
    return out


# ---------------------------------------------------------------------------
# partial latin squares

class TestMakePls:
    def test_two_by_three_shape(self):
        pls = make_pls(TWO_BY_THREE_CIRC)
        assert (len(pls.rows), len(pls.cols), len(pls.syms)) == (2, 3, 3)
        assert pls.size == 6

    def test_singleton(self):
        pls = make_pls([("r", "c", "s")])
        assert pls.size == 1

    def test_p1_clash(self):
        with pytest.raises(ValidationError) as err:
            make_pls([("r", "c", "s"), ("r", "c", "s2")])
        assert err.value.condition == "P1"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            make_pls([])

    def test_alphabets_must_be_disjoint(self):
        with pytest.raises(ValidationError) as err:
            make_pls([("x", "x", "s")])
        assert err.value.condition == "P2"

    def test_declared_label_must_be_used(self):
        with pytest.raises(ValidationError) as err:
            make_pls([("r", "c", "s")], rows=("r", "r2"), cols=("c",), syms=("s",))
        assert err.value.condition == "P2"


# ---------------------------------------------------------------------------
# bitrade validation

class TestMakeBitrade:
    def test_two_by_three_valid(self, two_by_three):
        assert two_by_three.size == 6
        assert two_by_three.t_circ.triples != two_by_three.t_star.triples

    def test_self_pair_fails_r1(self):
        with pytest.raises(ValidationError) as err:
            make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_CIRC)
        assert err.value.condition == "R1"

    def test_intercalate_valid(self, intercalate):
        assert intercalate.size == 4
        assert (len(intercalate.rows), len(intercalate.cols), len(intercalate.syms)) \
            == (2, 2, 2)

    def test_missing_mate_reports_r2(self):
        star = [("a", "c", "g"), ("a", "d", "h"), ("a", "e", "f"),
                ("b", "c", "f"), ("b", "d", "g"), ("b2", "e", "h")]
        with pytest.raises(ValidationError) as err:
            make_bitrade(TWO_BY_THREE_CIRC, star)
        conditions = {v[0] for v in err.value.violations}
        assert "R2" in conditions or "R3" in conditions

    def test_label_on_one_side_only_pins_every_violation(self):
        # row "b2" occurs in the mate only, so the inferred alphabets differ;
        # each violation names a pair without a mate (R2) or primary (R3)
        star = [("a", "c", "g"), ("a", "d", "h"), ("a", "e", "f"),
                ("b", "c", "f"), ("b", "d", "g"), ("b2", "e", "h")]
        expected = [
            ("R2", ("b", "e"), "no mate triple shares the row/column pair ('b', 'e')"),
            ("R3", ("b2", "e"), "no primary triple shares the row/column pair ('b2', 'e')"),
            ("R2", ("b", "h"), "no mate triple shares the row/symbol pair ('b', 'h')"),
            ("R3", ("b2", "h"), "no primary triple shares the row/symbol pair ('b2', 'h')"),
        ]
        with pytest.raises(ValidationError) as err:
            make_bitrade(TWO_BY_THREE_CIRC, star)
        assert err.value.violations == expected
        assert (err.value.condition, err.value.witness) == ("R2", ("b", "e"))
        assert str(err.value) == "R2: " + expected[0][2]

    def test_sizes_match(self, two_by_three, intercalate, nonseparated):
        for bt in (two_by_three, intercalate, nonseparated):
            assert bt.t_circ.size == bt.t_star.size

    def test_mate_triples_as_given(self):
        # a repeated mate triple counts once; a short one is not a triple
        bt = make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR + TWO_BY_THREE_STAR[:1])
        assert bt.t_star.triples == frozenset(TWO_BY_THREE_STAR)
        with pytest.raises(ValidationError) as err:
            make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR[:5] + [("b", "e")])
        assert str(err.value) == "P1: ('b', 'e') is not a (row, column, symbol) triple"

    def test_triples_as_any_iterables(self, two_by_three):
        # each triple is read through tuple()
        assert make_bitrade((iter(t) for t in TWO_BY_THREE_CIRC),
                            [iter(t) for t in TWO_BY_THREE_STAR]) == two_by_three
        assert make_bitrade(["".join(t) for t in TWO_BY_THREE_CIRC],
                            ["".join(t) for t in TWO_BY_THREE_STAR]) == two_by_three
        # and a rejection is named as for lists
        with pytest.raises(ValidationError) as listed:
            make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_CIRC)
        with pytest.raises(ValidationError) as iterated:
            make_bitrade((iter(t) for t in TWO_BY_THREE_CIRC),
                         [iter(t) for t in TWO_BY_THREE_CIRC])
        assert listed.value.condition == "R1"
        assert str(iterated.value) == str(listed.value)
        assert iterated.value.violations == listed.value.violations

    def test_accepting_runs_no_label_check(self, monkeypatch):
        calls = Counter()
        name_violations = core._raise_violations

        def counted(*args):
            calls["_raise_violations"] += 1
            return name_violations(*args)

        monkeypatch.setattr(core, "_raise_violations", counted)
        make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR)
        assert calls == {}
        # a rejected pair is read again, to name the violations
        with pytest.raises(ValidationError):
            make_bitrade(TWO_BY_THREE_CIRC, TWO_BY_THREE_CIRC)
        assert calls == {"_raise_violations": 1}

    def test_r1_witness_spelled_as_the_smaller_square(self):
        # 1 and 1.0 are one label: the witness is spelled as the smaller square
        # writes it, or as the mate square when both have one size
        circ = [(1, "c1", "s1"), (1, "c2", "s2"), (2, "c1", "s2"), (2, "c2", "s1")]
        star = [(1.0, "c1", "s1")] + circ[1:]
        for mate, row in ((star, "1.0"), (star + [(3, "c3", "s3")], "1")):
            with pytest.raises(ValidationError) as err:
                make_bitrade(circ, mate)
            assert str(err.value) == f"R1: triple ({row}, 'c1', 's1') appears in both squares"

    def test_first_non_triple_in_document_order(self):
        # the first in document order, whatever the hash seed
        with pytest.raises(ValidationError) as err:
            make_bitrade([("a", "c", "f"), ("b", "d"), ("e", "g"), ("h", "i", "j", "k")],
                         [("a", "c", "g")])
        assert str(err.value) == "P1: ('b', 'd') is not a (row, column, symbol) triple"

    def test_stores_the_primary_square_and_the_structure(self, two_by_three):
        assert [f.name for f in dataclasses.fields(two_by_three)] \
            == ["alphabets", "permutation_triple", "provenance"]
        circ = two_by_three.t_circ
        assert circ is not two_by_three.t_circ  # built on access, never kept
        assert circ.triples == frozenset(TWO_BY_THREE_CIRC)
        star = two_by_three.t_star
        assert star is not two_by_three.t_star  # built on access, never kept
        assert star == two_by_three.t_star
        assert star.triples == frozenset(TWO_BY_THREE_STAR)
        assert (star.rows, star.cols, star.syms) \
            == (two_by_three.rows, two_by_three.cols, two_by_three.syms)

    def test_equal_when_both_squares_and_alphabets_are(self):
        square = [(f"r{i}", f"c{j}", f"s{(i + j) % 3}") for i in range(3) for j in range(3)]

        def shifted(k):
            return [(r, c, f"s{(int(s[1]) + k) % 3}") for r, c, s in square]

        one = make_bitrade(square, shifted(1))
        again = make_bitrade(square, shifted(1), provenance={"kind": "other"})
        other_mate = make_bitrade(square, shifted(2))
        assert one == again and hash(one) == hash(again)
        assert one != other_mate
        assert one != make_bitrade(square, shifted(1), rows=("r2", "r1", "r0"))
        assert len({one, again, other_mate}) == 2


# ---------------------------------------------------------------------------
# mate bijections and the permutation structure

class TestMateBijections:
    def test_two_by_three_first_map(self, two_by_three):
        b1, _, _ = oracle_mate_bijections(two_by_three)
        assert b1[("a", "c", "g")] == ("b", "c", "g")

    def test_maps_are_bijections(self, two_by_three, intercalate, nonseparated):
        for bt in (two_by_three, intercalate, nonseparated):
            for m in oracle_mate_bijections(bt):
                assert len(set(m.values())) == len(m) == bt.size

    def test_intercalate_symbol_map(self, intercalate):
        _, _, b3 = oracle_mate_bijections(intercalate)
        assert b3[("r1", "c1", "s2")] == ("r1", "c1", "s1")

    def test_map_r_changes_only_coordinate_r(self, two_by_three):
        maps = oracle_mate_bijections(two_by_three)
        for r, m in enumerate(maps):
            for src, dst in m.items():
                assert src[r] != dst[r]
                for i in range(3):
                    if i != r:
                        assert src[i] == dst[i]


class TestTriplePermutations:
    def test_two_by_three_cycle_structure(self, two_by_three):
        pt = triple_permutations(two_by_three)
        # row permutation: two 3-cycles
        assert set(pt.cycles[0]) == {
            (("a", "c", "f"), ("a", "e", "h"), ("a", "d", "g")),
            (("b", "c", "g"), ("b", "d", "h"), ("b", "e", "f")),
        }
        # column permutation: three 2-cycles
        assert set(pt.cycles[1]) == {
            (("a", "c", "f"), ("b", "c", "g")),
            (("a", "e", "h"), ("b", "e", "f")),
            (("a", "d", "g"), ("b", "d", "h")),
        }
        # symbol permutation: three 2-cycles
        assert set(pt.cycles[2]) == {
            (("a", "c", "f"), ("b", "e", "f")),
            (("a", "d", "g"), ("b", "c", "g")),
            (("a", "e", "h"), ("b", "d", "h")),
        }

    def test_intercalate_cycles_are_transpositions(self, intercalate):
        pt = triple_permutations(intercalate)
        for cycles in pt.cycles:
            assert all(len(c) == 2 for c in cycles)

    def test_product_fixes_every_triple(self, two_by_three, nonseparated):
        for bt in (two_by_three, nonseparated):
            pt = triple_permutations(bt)
            p1, p2, p3 = pt.perms
            for x in pt.points:
                assert p3[p2[p1[x]]] == x

    def test_perm_i_fixes_coordinate_i(self, two_by_three):
        pt = triple_permutations(two_by_three)
        for i, perm in enumerate(pt.perms):
            for x, y in perm.items():
                assert x[i] == y[i]


# ---------------------------------------------------------------------------
# from_permutations

class TestFromPermutations:
    def test_six_point_example(self):
        points = range(1, 7)
        p1 = perm_from_cycles([(1, 2, 3), (4, 5, 6)], points)
        p2 = perm_from_cycles([(1, 4), (2, 6), (3, 5)], points)
        p3 = perm_from_cycles([(1, 6), (3, 4), (2, 5)], points)
        bt = from_permutations(p1, p2, p3)
        assert bt.size == 6
        assert (len(bt.rows), len(bt.cols), len(bt.syms)) == (2, 3, 3)

    def test_q1_violation_reported(self):
        p = perm_from_cycles([(1, 2)], [1, 2])
        with pytest.raises(ValidationError) as err:
            from_permutations(p, dict(p), dict(p))
        assert err.value.condition == "Q1"

    def test_empty_input_violates_p2(self):
        # the P2 check comes before the cycle walks, which start at a point
        with pytest.raises(ValidationError) as err:
            from_permutations({}, {}, {})
        assert err.value.condition == "P2"

    def test_q2_violation_reported(self):
        points = [1, 2, 3, 4]
        p1 = perm_from_cycles([(1, 2)], points)  # fixes 3 and 4
        p2 = perm_from_cycles([(1, 2), (3, 4)], points)
        with pytest.raises(ValidationError) as err:
            from_permutations(p1, p2, p2)
        assert err.value.condition == "Q2"

    def test_q3_violation_reported(self):
        # cycles pairwise share at most one moved point, but the product
        # moves the point 1
        points = range(1, 7)
        p1 = perm_from_cycles([(1, 2), (3, 4), (5, 6)], points)
        p2 = perm_from_cycles([(1, 3), (2, 5), (4, 6)], points)
        p3 = perm_from_cycles([(1, 4), (2, 6), (3, 5)], points)
        with pytest.raises(ValidationError) as err:
            from_permutations(p1, p2, p3)
        assert err.value.condition == "Q3"

    def test_cycle_minima_that_format_alike_violate_p2(self):
        # the intercalate's structure on the points 1, "1", "y" and "z": the
        # cycles {1, "z"} and {"1", "y"} of p1 are both named by "1", so the
        # walk of p1 has two rows labelled R:1
        points = [1, "1", "y", "z"]
        p1 = perm_from_cycles([(1, "z"), ("1", "y")], points)
        p2 = perm_from_cycles([(1, "1"), ("z", "y")], points)
        p3 = perm_from_cycles([(1, "y"), ("z", "1")], points)
        perms = core._index_permutations((p1, p2, p3), points)
        core._check_permutation_triple(perms, points)  # Q1-Q3 hold
        with pytest.raises(ValidationError) as err:
            from_permutations(p1, p2, p3)
        assert err.value.condition == "P2"
        assert str(err.value) == "P2: duplicate label in the declared row alphabet"
        # with the point 1 named 0, the same structure is a bitrade
        def renamed(p):
            return {(0 if x == 1 else x): (0 if y == 1 else y) for x, y in p.items()}

        assert from_permutations(*map(renamed, (p1, p2, p3))).rows == ("R:0", "R:1")

    @pytest.mark.parametrize("p1,points", [
        ({1: 2, 2: 3, 3: 4}, [1, 2, 3]),   # image 4 outside the point set
        ({1: 2, 2: 2, 3: 1}, [1, 2, 3]),   # 1 and 2 share an image
        ({1: 2, 2: 3, 3: 1}, [1, 2, 3, 1]),  # the point list repeats 1
    ], ids=["image-outside", "not-injective", "repeated-point"])
    def test_input_violation_reported(self, p1, points):
        p = {1: 2, 2: 3, 3: 1}
        with pytest.raises(ValidationError) as err:
            from_permutations(p1, p, p, points)
        assert err.value.condition == "input"

    def test_size_always_equals_point_count(self, two_by_three, intercalate):
        for bt in (two_by_three, intercalate):
            pt = triple_permutations(bt)
            rebuilt = from_permutations(*pt.perms, points=pt.points)
            assert rebuilt.size == len(pt.points)


# ---------------------------------------------------------------------------
# from_group

def s3_triple():
    G = group_from_spec("sym:3")
    s = parse_permutation("(1,2,3)", 3)
    t = parse_permutation("(1,2)", 3)
    ts2 = G.mul(t, G.mul(s, s))
    return G, s, t, ts2


def a4_triple():
    G = group_from_spec("alt:4")
    return (G, parse_permutation("(1,2,3)", 4), parse_permutation("(2,1,4)", 4),
            parse_permutation("(2,4,3)", 4))


def _spec_triple(spec, astr, bstr):
    G = group_from_spec(spec)
    a = G.parse_element(astr)
    b = G.parse_element(bstr)
    return G, a, b, G.inverse(G.mul(a, b))


def p3_triple():
    return _spec_triple("p3:3", "(1,0,0)", "(0,1,0)")


def pq_triple():
    return _spec_triple("pq:7,3,2", "(1,0)", "(0,1)")


def z3z3_triple():
    return _spec_triple("prod:cyc:3,cyc:3", "(0,1)", "(1,0)")


def frobenius21_triple():
    # the Frobenius group of order 21 as permutations of 7 points
    return _spec_triple("gens:7:(1,2,3,4,5,6,7);(2,3,5)(4,7,6)",
                        "(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)")


@functools.lru_cache(maxsize=None)
def admissible_triples(spec):
    return list(iter_triples(group_from_spec(spec)))


HYPOTHESIS_SPECS = ("sym:3", "alt:4", "sym:4", "p3:3", "pq:7,3,2")


class TestFromGroup:
    def test_s3_reference_example(self):
        G, s, t, ts2 = s3_triple()
        bt = from_group(G, s, t, ts2)
        assert bt.size == 6
        assert (len(bt.rows), len(bt.cols), len(bt.syms)) == (2, 3, 3)
        # grid pattern: row A holds C, sC, s2C in column order B, sB, s2B;
        # row tA holds s2C, C, sC; the mate shifts each row one step
        cells = cell_map(bt.t_circ)
        rows, cols, syms = bt.rows, bt.cols, bt.syms
        pattern = [[syms.index(cells[(r, c)]) for c in cols] for r in rows]
        assert pattern == [[0, 2, 1], [1, 0, 2]]  # syms sort as C, s2C, sC
        star_cells = cell_map(bt.t_star)
        star_pattern = [[syms.index(star_cells[(r, c)]) for c in cols] for r in rows]
        assert star_pattern == [[1, 0, 2], [0, 2, 1]]

    def test_a4_example_counts(self):
        bt = from_group(*a4_triple())
        assert bt.size == 12
        assert (len(bt.rows), len(bt.cols), len(bt.syms)) == (4, 4, 4)
        # 12 filled cells in a 4x4 grid: each row/column/symbol occurs 3 times
        for i, labels in enumerate((bt.rows, bt.cols, bt.syms)):
            for lab in labels:
                assert sum(1 for t in bt.t_circ.triples if t[i] == lab) == 3

    def test_z3z3_gives_full_latin_square(self):
        G = group_from_spec("prod:cyc:3,cyc:3")
        bt = from_group(G, (0, 1), (1, 0), (2, 2))
        assert bt.size == 9
        assert (len(bt.rows), len(bt.cols), len(bt.syms)) == (3, 3, 3)
        # every cell filled: the trade is a latin square of order 3
        assert len({(t[0], t[1]) for t in bt.t_circ.triples}) == 9

    def test_g1_violation(self):
        G = group_from_spec("sym:3")
        a = parse_permutation("(1,2,3)", 3)
        b = parse_permutation("(1,2)", 3)
        c = parse_permutation("(1,3)", 3)
        with pytest.raises(ValidationError) as err:
            from_group(G, a, b, c)
        assert err.value.condition == "G1"

    def test_g2_violation(self):
        # a, b in the same cyclic subgroup: |A∩B| = 3
        G = group_from_spec("cyc:9")
        with pytest.raises(ValidationError) as err:
            from_group(G, 3, 3, 3)
        assert err.value.condition == "G2"
        assert "|A∩B|=3" in str(err.value)

    def test_operands_outside_the_group_rejected(self):
        # (1,2)(1,3) = (1,3,2): abc = 1 and G2 hold in S4, but a and b are odd
        G = group_from_spec("alt:4")
        a = parse_permutation("(1,2)", 4)
        b = parse_permutation("(1,3)", 4)
        with pytest.raises(GroupError, match=r"\(2, 1, 3, 4\) is not an element of alt:4"):
            GroupTriple(G, a, b, G.inverse(G.mul(a, b)))
        with pytest.raises(GroupError):
            from_group(G, a, b, G.inverse(G.mul(a, b)))

    @pytest.mark.parametrize("a", [5, [1, 2, 3, 4]], ids=["int", "list"])
    def test_foreign_typed_operand_rejected(self, a):
        # neither compares with the tuple elements of alt:4
        G = group_from_spec("alt:4")
        with pytest.raises(GroupError) as err:
            GroupTriple(G, a, 6, 7)
        assert str(err.value) == f"{a!r} is not an element of alt:4"

    def test_group_over_its_cap_refused_at_the_triple(self):
        G = group_from_spec("alt:4")
        a, b = parse_permutation("(1,2,3)", 4), parse_permutation("(2,1,4)", 4)
        c = G.inverse(G.mul(a, b))
        G.max_elements = 11
        with pytest.raises(ResourceCapError) as at_triple:
            GroupTriple(G, a, b, c)
        with pytest.raises(ResourceCapError) as at_construction:
            from_group(G, a, b, c)
        assert str(at_triple.value) == str(at_construction.value) \
            == "group alt:4 has order 12, above the enumeration cap (cap: 11)"

    # A4 as a closure of generators keeps its elements as bytes codes; its
    # triples refuse what alt:4's refuse, with the same messages
    @pytest.mark.parametrize("a", [5, [1, 2, 3, 4], (2, 3, 1), (2, 3, 1, 4, 5), (2, 1, 3, 4)],
                             ids=["int", "list", "degree 3", "degree 5", "non-member"])
    def test_code_store_refuses_like_the_tuple_group(self, a):
        b = parse_permutation("(1,2,3)", 4)
        for spec in ("alt:4", "gens:4:(1,2,3);(2,1,4)"):
            G = group_from_spec(spec)
            with pytest.raises(GroupError) as err:
                GroupTriple(G, a, b, b)
            assert str(err.value) == f"{a!r} is not an element of {G.spec}"

    def test_code_store_over_its_cap_refused_at_the_triple(self):
        G = group_from_spec("gens:4:(1,2,3);(2,1,4)")
        a, b = parse_permutation("(1,2,3)", 4), parse_permutation("(2,1,4)", 4)
        c = G.inverse(G.mul(a, b))
        G.max_elements = 11
        with pytest.raises(ResourceCapError) as at_triple:
            GroupTriple(G, a, b, c)
        with pytest.raises(ResourceCapError) as at_construction:
            from_group(G, a, b, c)
        assert str(at_triple.value) == str(at_construction.value) \
            == "group gens:4:(1,2,3);(1,4,2) has order 12, above the enumeration cap (cap: 11)"

    def test_identity_operand_rejected(self):
        G = group_from_spec("sym:3")
        e = G.identity
        a = parse_permutation("(1,2,3)", 3)
        with pytest.raises(ValidationError) as err:
            from_group(G, e, a, G.mul(G.inverse(a), e))
        assert err.value.condition == "nontrivial"

    @pytest.mark.parametrize("spec,astr,bstr", [
        ("sym:3", "(1,2,3)", "(1,2)"),
        ("alt:4", "(1,2,3)", "(2,1,4)"),
        ("p3:3", "(1,0,0)", "(0,1,0)"),
        ("pq:7,3,2", "(1,0)", "(0,1)"),
    ])
    def test_shape_counts(self, spec, astr, bstr):
        G = group_from_spec(spec)
        a = G.parse_element(astr)
        b = G.parse_element(bstr)
        c = G.inverse(G.mul(a, b))
        bt = from_group(G, a, b, c)
        triple = GroupTriple(G, a, b, c)
        oa, ob, oc = triple.orders
        n = G.order()
        assert bt.size == n
        assert len(bt.rows) == n // oa
        assert len(bt.cols) == n // ob
        assert len(bt.syms) == n // oc
        for i, (labels, k) in enumerate(((bt.rows, oa), (bt.cols, ob), (bt.syms, oc))):
            for lab in labels:
                assert sum(1 for t in bt.t_circ.triples if t[i] == lab) == k

    def test_matches_right_translation_permutations(self):
        # independent route: from_permutations applied to x -> xa, x -> xb,
        # x -> xc must give the same bitrade up to the A/B/C label tags
        for spec, astr, bstr in [("sym:3", "(1,2,3)", "(1,2)"),
                                 ("alt:4", "(1,2,3)", "(2,1,4)"),
                                 ("pq:7,3,2", "(1,0)", "(0,1)")]:
            G = group_from_spec(spec)
            a = G.parse_element(astr)
            b = G.parse_element(bstr)
            c = G.inverse(G.mul(a, b))
            els = G.elements()
            r_a = {x: G.mul(x, a) for x in els}
            r_b = {x: G.mul(x, b) for x in els}
            r_c = {x: G.mul(x, c) for x in els}
            via_perms = from_permutations(r_a, r_b, r_c)
            via_group = from_group(G, a, b, c)

            def relabel(label, tag):
                point = label.split(":", 1)[1]
                # cycle minimum point written by the generic point formatter
                return tag + ":" + point

            # map cycle labels (min point of coset) onto coset labels
            mapped = {
                tuple(relabel_label for relabel_label in
                      (f"A:{G.element_str(_parse_point(G, t[0]))}",
                       f"B:{G.element_str(_parse_point(G, t[1]))}",
                       f"C:{G.element_str(_parse_point(G, t[2]))}"))
                for t in via_perms.t_circ.triples
            }
            assert mapped == via_group.t_circ.triples
            mapped_star = {
                (f"A:{G.element_str(_parse_point(G, t[0]))}",
                 f"B:{G.element_str(_parse_point(G, t[1]))}",
                 f"C:{G.element_str(_parse_point(G, t[2]))}")
                for t in via_perms.t_star.triples
            }
            assert mapped_star == via_group.t_star.triples

    @pytest.mark.parametrize("builder", [s3_triple, a4_triple, p3_triple, pq_triple,
                                         z3z3_triple, frobenius21_triple])
    def test_coset_intersection_oracle(self, builder):
        # independent route: the bitrade computed from cosets directly
        G, a, b, c = builder()
        bt = from_group(G, a, b, c)
        circ, star = coset_oracle(G, GroupTriple(G, a, b, c))
        assert circ == bt.t_circ.triples
        assert star == bt.t_star.triples

    def test_explicit_cap_above_default(self, monkeypatch):
        monkeypatch.setattr("bitrades.groups.DEFAULT_MAX_ELEMENTS", 10)
        G, a, b, c = a4_triple()
        with pytest.raises(ResourceCapError):
            from_group(G, a, b, c)
        G.max_elements = 100
        assert from_group(G, a, b, c).size == 12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(HYPOTHESIS_SPECS).flatmap(
        lambda spec: st.sampled_from(admissible_triples(spec))))
    def test_one_construction_path(self, triple):
        # from_group matches the coset oracle, and from_permutations on the
        # right multiplications matches from_group once its R/C/S cycle
        # labels are renamed to A/B/C coset labels
        G = triple.group
        bt = from_group(G, triple.a, triple.b, triple.c)
        assert coset_oracle(G, triple) == (bt.t_circ.triples, bt.t_star.triples)

        els = G.elements()
        via_perms = from_permutations(
            *({x: G.mul(x, g) for x in els} for g in (triple.a, triple.b, triple.c)))
        rename = {f"{old}:{point_str(x)}": f"{new}:{G.element_str(x)}"
                  for x in els for old, new in zip("RCS", "ABC")}
        for mine, theirs in ((via_perms.t_circ, bt.t_circ), (via_perms.t_star, bt.t_star)):
            assert {tuple(rename[lab] for lab in t) for t in mine.triples} == theirs.triples
        for mine, theirs in zip((via_perms.rows, via_perms.cols, via_perms.syms),
                                (bt.rows, bt.cols, bt.syms)):
            assert [rename[lab] for lab in mine] == list(theirs)


# the group's memo keeps the last triple admitted, and a triple of the very
# same a, b and c objects takes its verdict from it
REUSE_SPECS = ["alt:4", "gens:4:(1,2,3);(2,1,4)"]


def _reuse_triple(spec):
    G = group_from_spec(spec)
    a, b = parse_permutation("(1,2,3)", 4), parse_permutation("(2,1,4)", 4)
    return G, a, b, G.inverse(G.mul(a, b))


def _spy_locate(G, monkeypatch):
    """The elements the group's memo looks up from now on."""
    located = []
    locate = G._locate
    monkeypatch.setattr(G, "_locate", lambda store, g: located.append(g) or locate(store, g))
    return located


class TestGroupTripleReuse:
    @pytest.mark.parametrize("spec", REUSE_SPECS)
    def test_same_objects_take_the_verdict(self, spec, monkeypatch):
        G, a, b, c = _reuse_triple(spec)
        first = GroupTriple(G, a, b, c)
        located = _spy_locate(G, monkeypatch)
        again = GroupTriple(G, a, b, c)
        bt = from_group(G, a, b, c)
        assert located == []
        assert again.walks is first.walks and again.translations is first.translations
        assert again.element_strs() == first.element_strs()
        assert bt == from_group(group_from_spec(spec), a, b, c)

    @pytest.mark.parametrize("spec", REUSE_SPECS)
    def test_equal_but_distinct_objects_are_validated(self, spec, monkeypatch):
        G, a, b, c = _reuse_triple(spec)
        first = GroupTriple(G, a, b, c)
        copies = [tuple(list(x)) for x in (a, b, c)]
        assert copies == [a, b, c]
        assert not any(x is y for x, y in zip(copies, (a, b, c)))
        located = _spy_locate(G, monkeypatch)
        again = GroupTriple(G, *copies)
        assert located == copies and all(x is y for x, y in zip(located, copies))
        assert again.walks == first.walks
        located.clear()
        GroupTriple(G, a, b, c)  # the copies are the last triple now
        assert located == [a, b, c]

    @pytest.mark.parametrize("spec", REUSE_SPECS)
    def test_lowered_cap_refused_after_a_valid_triple(self, spec):
        G, a, b, c = _reuse_triple(spec)
        GroupTriple(G, a, b, c)
        G.max_elements = 11
        with pytest.raises(ResourceCapError) as at_triple:
            GroupTriple(G, a, b, c)
        with pytest.raises(ResourceCapError) as at_construction:
            from_group(G, a, b, c)
        assert str(at_triple.value) == str(at_construction.value) \
            == f"group {G.spec} has order 12, above the enumeration cap (cap: 11)"
        G.max_elements = 12
        assert from_group(G, a, b, c).size == 12

    @pytest.mark.parametrize("spec", REUSE_SPECS)
    def test_refusals_after_a_valid_triple_keep_their_messages(self, spec):
        G, a, b, c = _reuse_triple(spec)
        e = parse_permutation("()", 4)
        odd, odd2 = parse_permutation("(1,2)", 4), parse_permutation("(1,3)", 4)
        cases = {
            "nontrivial": (e, a, parse_permutation("(1,3,2)", 4)),
            "G1": (a, b, b),  # a and b of the valid triple
            "G1 with c": (a, b, a),
            "G2": (a, a, a),  # a^3 = 1; |A∩B| = 3
            "non-member": (odd, odd2, (3, 1, 2, 4)),  # abc = 1 in S4
            "foreign": (a, b, 7),
        }

        def refusal(G, case):
            with pytest.raises((ValidationError, GroupError)) as err:
                GroupTriple(G, *case)
            with pytest.raises(type(err.value)) as again:
                from_group(G, *case)
            assert str(again.value) == str(err.value)
            return type(err.value), str(err.value)

        fresh = {name: refusal(group_from_spec(spec), case) for name, case in cases.items()}
        assert [message for _, message in fresh.values()] == [
            "nontrivial: element a must not be the identity",
            "G1: abc != identity (a=(1,2,3), b=(1,4,2), c=(1,4,2))",
            "G1: abc != identity (a=(1,2,3), b=(1,4,2), c=(1,2,3))",
            "G2: |A∩B|=3",
            f"(2, 1, 3, 4) is not an element of {G.spec}",
            f"7 is not an element of {G.spec}"]
        for name, case in cases.items():
            GroupTriple(G, a, b, c)
            assert refusal(G, case) == fresh[name], name


def _parse_point(G, label):
    """Recover the group element encoded in a from_permutations cycle label."""
    text = label.split(":", 1)[1]
    values = text.strip("()").split(",")
    return tuple(int(v) for v in values)


# ---------------------------------------------------------------------------
# separation and round trip

class TestRoundtrip:
    def test_two_by_three_separated(self, two_by_three):
        assert separation_witness(two_by_three) is None

    def test_nonseparated_witness_names_row_c(self, nonseparated):
        witness = separation_witness(nonseparated)
        assert witness is not None
        assert witness[0] == "row" and witness[1] == "c"

    def test_two_by_three_roundtrip(self, two_by_three):
        ok, maps = roundtrip_check(two_by_three)
        assert ok
        assert set(maps["rows"]) == {"a", "b"}

    def test_intercalate_roundtrip(self, intercalate):
        ok, _ = roundtrip_check(intercalate)
        assert ok

    def test_from_group_roundtrip(self):
        for builder in (s3_triple, a4_triple):
            bt = from_group(*builder())
            ok, _ = roundtrip_check(bt)
            assert ok

    def test_nonseparated_rejected(self, nonseparated):
        with pytest.raises(ValidationError) as err:
            roundtrip_check(nonseparated)
        assert err.value.condition == "separated"
