import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitrades.errors import GroupError, ResourceCapError
from bitrades.families import (
    alt_family_size,
    alt_generators,
    best_pq_cell,
    family_alt,
    family_from_spec,
    family_p3,
    family_pq,
    family_zp2,
    find_r,
    predicted_table,
)
from bitrades.groups import _is_prime, parse_permutation
from bitrades.properties import (
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    is_orthogonal,
    is_thin,
    pq_thin_predicate,
)


class TestZp2:
    def test_p3_is_full_latin_square(self):
        bt = family_zp2(3).bitrade()
        assert bt.size == 9
        assert len({(t[0], t[1]) for t in bt.t_circ.triples}) == 9

    def test_p2(self):
        inst = family_zp2(2)
        bt = inst.bitrade()
        assert bt.size == 4
        assert homogeneity(bt).value == 2

    def test_p5(self):
        bt = family_zp2(5).bitrade()
        assert bt.size == 25
        assert homogeneity(bt).value == 5

    def test_nonprime_rejected(self):
        with pytest.raises(GroupError):
            family_zp2(6)


class TestP3:
    @pytest.mark.parametrize("p,size", [(3, 27), (5, 125), (11, 1331)])
    def test_sizes(self, p, size):
        inst = family_p3(p)
        assert inst.spec.size == size
        assert inst.spec.k == p

    def test_even_and_composite_rejected(self):
        with pytest.raises(GroupError):
            family_p3(2)
        with pytest.raises(GroupError):
            family_p3(15)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_constructed_measurements_match_predictions(self, p):
        inst = family_p3(p)
        bt = inst.bitrade()
        assert bt.size == inst.spec.size
        assert homogeneity(bt).value == inst.spec.k
        assert group_thin_criterion(inst.triple).yes == inst.spec.thin
        assert group_orthogonal_criterion(inst.triple).yes == inst.spec.orthogonal


class TestPq:
    @pytest.mark.parametrize("pqr,size,k,thin", [
        ((7, 3, 2), 21, 3, True),
        ((11, 5, 3), 55, 5, True),
        ((29, 7, 7), 203, 7, True),
        ((23, 11, 4), 253, 11, False),
    ])
    def test_instances(self, pqr, size, k, thin):
        inst = family_pq(*pqr)
        assert inst.spec.size == size
        assert inst.spec.k == k
        assert inst.spec.thin == thin
        bt = inst.bitrade()
        assert bt.size == size
        assert homogeneity(bt).value == k
        assert is_thin(bt).yes == thin
        assert is_orthogonal(bt).yes

    def test_invalid_parameters_named(self):
        with pytest.raises(GroupError):
            family_pq(7, 5, 2)  # q does not divide p-1
        with pytest.raises(GroupError):
            family_pq(7, 3, 5)  # 5^3 != 1 mod 7


class TestFindR:
    def test_7_3(self):
        assert find_r(7, 3) == [2, 4]

    def test_11_5_contains_3(self):
        assert 3 in find_r(11, 5)

    def test_23_11_contains_4(self):
        assert 4 in find_r(23, 11)

    def test_divisibility_required(self):
        with pytest.raises(GroupError):
            find_r(11, 3)

    def test_all_values_satisfy_congruence(self):
        for r in find_r(67, 11):
            assert pow(r, 11, 67) == 1

    def test_against_brute_force(self):
        for p in filter(_is_prime, range(3, 400)):
            for q in filter(_is_prime, range(2, p)):
                if (p - 1) % q == 0:
                    assert find_r(p, q) == [r for r in range(2, p) if pow(r, q, p) == 1]

    def test_large_prime_returns_at_once(self):
        # a separate process, so that a loop over 2..p-1 fails the test
        # instead of hanging the run
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from bitrades.families import find_r; print(find_r(1000000000000000003, 3))"],
            capture_output=True, encoding="utf-8", timeout=20, env=env)
        assert proc.stdout == "[499999999500000001, 500000000500000001]\n", proc.stderr


class TestAlt:
    def test_m1_generators(self):
        inst = family_alt(1)
        assert inst.triple.a == parse_permutation("(1,2,3)", 4)
        assert inst.triple.b == parse_permutation("(2,1,4)", 4)
        assert inst.spec.size == 12
        assert inst.spec.k == 3
        bt = inst.bitrade()
        assert bt.size == 12
        assert homogeneity(bt).value == 3

    def test_m2(self):
        inst = family_alt(2)
        assert inst.spec.size == 2520
        assert inst.spec.k == 5
        bt = inst.bitrade()
        assert bt.size == 2520
        assert homogeneity(bt).value == 5
        assert group_thin_criterion(inst.triple).yes
        assert group_orthogonal_criterion(inst.triple).yes

    def test_m3_size_formula(self):
        assert alt_family_size(3) == 1_814_400

    def test_m4_capped_with_formula_in_message(self):
        with pytest.raises(ResourceCapError) as err:
            family_alt(4)
        assert "3113510400" in str(err.value)

    def test_generator_overlap(self):
        for m in (1, 2, 3, 4):
            a, b = alt_generators(m)
            moved_a = {i + 1 for i, x in enumerate(a) if x != i + 1}
            moved_b = {i + 1 for i, x in enumerate(b) if x != i + 1}
            assert len(moved_a & moved_b) == m + 1


class TestFamilySpecSyntax:
    def test_parses(self):
        assert family_from_spec("zp2:p=3").spec.family == "zp2"
        assert family_from_spec("p3:p=5").spec.size == 125
        assert family_from_spec("pq:p=11,q=5,r=3").spec.size == 55
        assert family_from_spec("alt:m=1").spec.size == 12

    def test_bad_specs(self):
        from bitrades.errors import ParseError
        for text in ["p3", "p3:q=3", "nope:p=3", "pq:p=7,q=3"]:
            with pytest.raises(ParseError):
                family_from_spec(text)


class TestQ3Remark:
    def test_every_q3_instance_up_to_100_is_thin(self):
        # empirical spot check: homogeneity 3 always yields thin instances
        checked = 0
        for p in range(7, 101):
            if not all(p % d for d in range(2, int(p ** 0.5) + 1)):
                continue
            if (p - 1) % 3 != 0:
                continue
            for r in find_r(p, 3):
                assert pq_thin_predicate(p, 3, r).yes, (p, r)
                checked += 1
        assert checked >= 20


class TestPredictedTable:
    def test_pq_cells_match_published_choices(self):
        assert str(best_pq_cell(3)) == "21 (p=7,q=3,r=2)"
        assert str(best_pq_cell(5)) == "55 (p=11,q=5,r=3)"
        assert str(best_pq_cell(7)) == "203 (p=29,q=7,r=7)"
        assert str(best_pq_cell(11)) == "737 (p=67,q=11,r=14)"
        assert best_pq_cell(9) is None

    def test_full_table_values(self):
        rows = {row.k: row for row in predicted_table([3, 5, 7, 9, 11])}
        assert [rows[k].p3 for k in (3, 5, 7, 9, 11)] == [27, 125, 343, None, 1331]
        assert [rows[k].pq.size if rows[k].pq else None for k in (3, 5, 7, 9, 11)] \
            == [21, 55, 203, None, 737]
        assert [rows[k].alt for k in (3, 5, 7, 9, 11)] \
            == [12, 2520, 1_814_400, 3_113_510_400, 10_461_394_944_000]
        assert [rows[k].alt_display for k in (3, 5, 7, 9, 11)] \
            == ["12", "2520", "1814400", "3113510400", "16!/2"]
        assert [rows[k].published for k in (3, 5, 7, 9, 11)] == [21, 75, 133, 243, 407]
        assert [rows[k].smallest_known for k in (3, 5, 7, 9, 11)] \
            == [12, 55, 133, 243, 407]

    def test_recompute_verifies_small_cells(self):
        (row,) = predicted_table([3], recompute=True)
        assert row.verified == {"p3": True, "pq": True, "alt": True}

    def test_even_k_rejected(self):
        with pytest.raises(GroupError):
            predicted_table([4])
