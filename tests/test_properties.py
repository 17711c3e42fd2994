import itertools
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bitrades import properties
from bitrades.core import GroupTriple, from_group, make_bitrade
from bitrades.errors import ConsistencyError
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.search import iter_triples
from bitrades.properties import (
    PropertyResult,
    check_thin_primary_minimal,
    compute_report,
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    is_minimal,
    is_orthogonal,
    is_primary,
    is_separated,
    is_thin,
    pq_thin_predicate,
    pq_thin_solutions,
    primary_exhaustive,
    report_to_json,
)


def p3_triple(p):
    G = group_from_spec(f"p3:{p}")
    gamma = G.mul(G.inverse(G.gen_b), G.inverse(G.gen_a))
    return GroupTriple(G, G.gen_a, G.gen_b, gamma)


def pq_triple(p, q, r):
    G = group_from_spec(f"pq:{p},{q},{r}")
    a, b = G.gen_a, G.gen_b
    return GroupTriple(G, b, G.mul(a, b), G.inverse(G.mul(G.mul(b, a), b)))


def a4_bitrade():
    G = group_from_spec("alt:4")
    return from_group(G, parse_permutation("(1,2,3)", 4),
                      parse_permutation("(2,1,4)", 4),
                      parse_permutation("(2,4,3)", 4))


def z3z3_bitrade():
    G = group_from_spec("prod:cyc:3,cyc:3")
    return from_group(G, (0, 1), (1, 0), (2, 2))


# ---------------------------------------------------------------------------
# separated

class TestSeparated:
    def test_two_by_three(self, two_by_three):
        assert is_separated(two_by_three).yes

    def test_nonseparated_names_row_c(self, nonseparated):
        result = is_separated(nonseparated)
        assert result.value == "no"
        assert result.witness[0] == "row" and result.witness[1] == "c"

    def test_intercalate(self, intercalate):
        assert is_separated(intercalate).yes


# ---------------------------------------------------------------------------
# primary

class TestPrimary:
    def test_two_by_three_orbit_covers_everything(self, two_by_three):
        result = is_primary(two_by_three)
        assert result.yes and result.method == "orbit"

    def test_two_intercalates_decompose(self, two_intercalates):
        result = is_primary(two_intercalates)
        assert result.value == "no"
        # the witness orbit is one of the two intercalates
        assert len(result.witness) == 4
        assert {t[0] for t in result.witness} in ({"r1", "r2"}, {"r1x", "r2x"})

    def test_from_group_with_g3_is_primary(self):
        for bt in (a4_bitrade(), z3z3_bitrade()):
            assert is_primary(bt).yes

    def test_nonseparated_within_cap_uses_oracle(self, nonseparated):
        result = is_primary(nonseparated)
        assert result.method == "oracle"
        assert result.value == "yes"

    def test_nonseparated_above_cap_is_unknown(self, nonseparated):
        result = is_primary(nonseparated, definitional_cap=4)
        assert result.value == "unknown"

    def test_exhaustive_search_matches_orbit(self, two_by_three, intercalate, two_intercalates):
        for bt in (two_by_three, intercalate, two_intercalates):
            primary, witness = primary_exhaustive(bt)
            assert primary == is_primary(bt).yes
            if not primary:
                assert witness


# ---------------------------------------------------------------------------
# thin

class TestThin:
    def test_two_by_three(self, two_by_three):
        assert is_thin(two_by_three).yes

    def test_p3_family_is_thin(self):
        tr = p3_triple(3)
        bt = from_group(tr.group, tr.a, tr.b, tr.c)
        assert is_thin(bt).yes

    def test_pq_23_11_4_not_thin(self):
        tr = pq_triple(23, 11, 4)
        bt = from_group(tr.group, tr.a, tr.b, tr.c)
        assert bt.size == 253
        assert is_thin(bt).value == "no"

    def test_intercalate_is_thin(self, intercalate):
        assert is_thin(intercalate).yes


# ---------------------------------------------------------------------------
# orthogonal

class TestOrthogonal:
    def test_a4_family(self):
        assert is_orthogonal(a4_bitrade()).yes

    def test_abelian_not_orthogonal(self):
        assert is_orthogonal(z3z3_bitrade()).value == "no"

    def test_intercalate_not_orthogonal(self, intercalate):
        result = is_orthogonal(intercalate)
        assert result.value == "no"
        assert result.witness == ("r1", "c1", "r2", "c2")


# ---------------------------------------------------------------------------
# homogeneity

class TestHomogeneity:
    def test_pq_7_3_2_is_3_homogeneous(self):
        tr = pq_triple(7, 3, 2)
        bt = from_group(tr.group, tr.a, tr.b, tr.c)
        assert homogeneity(bt).value == 3

    def test_two_by_three_not_homogeneous(self, two_by_three):
        result = homogeneity(two_by_three)
        assert result.value == "no"
        # rows hold 3 entries, columns 2
        assert result.witness[0] == "column"

    def test_matches_subgroup_orders(self):
        bt = a4_bitrade()
        assert homogeneity(bt).value == 3


# ---------------------------------------------------------------------------
# group criteria

class TestGroupThinCriterion:
    def test_p3_triple(self):
        assert group_thin_criterion(p3_triple(3)).yes

    def test_pq_23_11_4_with_witness(self):
        result = group_thin_criterion(pq_triple(23, 11, 4))
        assert result.value == "no"
        assert result.witness == (2, 7, 10)

    def test_order_two_triple(self):
        # Klein four-group: every element has order 2, scan is 8 cases
        G = group_from_spec("prod:cyc:2,cyc:2")
        tr = GroupTriple(G, (0, 1), (1, 0), (1, 1))
        assert group_thin_criterion(tr).yes


class TestGroupOrthogonalCriterion:
    def test_a4_triple(self):
        G = group_from_spec("alt:4")
        tr = GroupTriple(G, parse_permutation("(1,2,3)", 4),
                         parse_permutation("(2,1,4)", 4),
                         parse_permutation("(2,4,3)", 4))
        assert group_orthogonal_criterion(tr).yes

    def test_abelian_triple(self):
        G = group_from_spec("prod:cyc:3,cyc:3")
        tr = GroupTriple(G, (0, 1), (1, 0), (2, 2))
        result = group_orthogonal_criterion(tr)
        assert result.value == "no"
        assert result.witness is not None

    def test_pq_7_3_2_triple(self):
        assert group_orthogonal_criterion(pq_triple(7, 3, 2)).yes


def test_group_criteria_leave_a_code_store_unbuilt():
    # a gens: group keeps its elements as bytes codes: both criteria read
    # the few elements they name from that store and never build elements(),
    # with each verdict and witness as on a group whose elements are built
    spec = "gens:5:(1,2,3,4,5);(1,2)"  # S5
    expected = {}
    for t in iter_triples(group_from_spec(spec)):
        thin, orthogonal = group_thin_criterion(t), group_orthogonal_criterion(t)
        expected.setdefault((thin.value, orthogonal.value),
                            (t, thin.witness, orthogonal.witness))
        if len(expected) == 4:  # each pair of verdicts
            break
    assert len(expected) == 4
    for t, thin_witness, orthogonal_witness in expected.values():
        G = group_from_spec(spec)
        triple = GroupTriple(G, t.a, t.b, t.c)
        thin, orthogonal = group_thin_criterion(triple), group_orthogonal_criterion(triple)
        assert (thin.witness, orthogonal.witness) == (thin_witness, orthogonal_witness)
        assert "_elements" not in vars(G)


@pytest.mark.parametrize("spec", ["alt:5", "p3:3"])
def test_orthogonal_criterion_reads_only_the_triples_translations(spec):
    # a^-1 c a is read off the translations by a and c that the triple
    # already has: the criterion builds no translation or walk of its own
    for t in itertools.islice(iter_triples(group_from_spec(spec)), 0, 400, 10):
        G = group_from_spec(spec)  # a memo that a search has not filled
        triple = GroupTriple(G, t.a, t.b, t.c)
        memo = G._memo()
        kept = (set(memo.translations), set(memo.walks))
        assert group_orthogonal_criterion(triple) == group_orthogonal_criterion(t)
        assert (set(memo.translations), set(memo.walks)) == kept


class TestPqThinPredicate:
    def test_7_3_2(self):
        assert pq_thin_predicate(7, 3, 2).yes

    def test_23_11_4_witness_satisfies_congruence(self):
        result = pq_thin_predicate(23, 11, 4)
        assert result.value == "no"
        i, j = result.witness
        assert (i, j) not in ((0, 0), (1, 1))
        lhs = (pow(4, j, 23) + pow(4, (j - 1) % 11, 23)) % 23
        rhs = (pow(4, (i + j - 1) % 11, 23) + 1) % 23
        assert lhs == rhs
        # the known instance 4^5 + 4^6 = 4^9 + 1 corresponds to (i, j) = (4, 6)
        assert (4, 6) in pq_thin_solutions(23, 11, 4)
        assert (4 ** 5 + 4 ** 6) % 23 == (4 ** 9 + 1) % 23

    def test_67_11_14(self):
        assert pq_thin_predicate(67, 11, 14).yes

    @pytest.mark.parametrize("pqr", [(7, 3, 2), (11, 5, 3), (29, 7, 7), (23, 11, 4),
                                     (13, 3, 3), (67, 11, 14)])
    def test_matches_group_scan(self, pqr):
        # the exponent congruence and the full group scan must agree
        predicate = pq_thin_predicate(*pqr)
        scan = group_thin_criterion(pq_triple(*pqr))
        assert predicate.value == scan.value
        if predicate.value == "no":
            i, j = predicate.witness
            q = pqr[1]
            k = (i + j) * pow(2, -1, q) % q
            assert scan.witness <= (i, j, k)

    def test_matches_group_scan_for_every_instance_up_to_300(self):
        # every valid (p, q, r) with pq <= 300
        from bitrades.families import find_r
        from bitrades.groups import _is_prime

        checked = 0
        for q in (3, 5, 7, 11, 13):
            for p in range(q + 1, 300 // q + 1):
                if not _is_prime(p) or (p - 1) % q != 0:
                    continue
                for r in find_r(p, q):
                    predicate = pq_thin_predicate(p, q, r)
                    scan = group_thin_criterion(pq_triple(p, q, r))
                    assert predicate.value == scan.value, (p, q, r)
                    checked += 1
        assert checked >= 40


# ---------------------------------------------------------------------------
# minimality

class TestMinimal:
    def test_two_by_three_minimal(self, two_by_three):
        assert is_minimal(two_by_three).yes

    def test_intercalate_minimal(self, intercalate):
        assert is_minimal(intercalate).yes

    def test_two_intercalates_not_minimal(self, two_intercalates):
        result = is_minimal(two_intercalates)
        assert result.value == "no"
        witness_trade = result.witness["trade"]
        assert len(witness_trade) == 4
        assert {t[0] for t in witness_trade} == {"r1", "r2"}
        # the witness with its mate is itself a valid bitrade
        make_bitrade(witness_trade, result.witness["mate"])

    def test_trade_alone_suffices(self, two_by_three):
        assert is_minimal(two_by_three.t_circ).yes

    def test_above_cap_unknown(self):
        tr = p3_triple(3)
        bt = from_group(tr.group, tr.a, tr.b, tr.c)
        assert is_minimal(bt).value == "unknown"

    def test_full_latin_square_is_not_minimal(self):
        # two rows of a latin square swap into each other
        result = is_minimal(z3z3_bitrade())
        assert result.value == "no"

    def test_latin_square_witness_is_a_proper_subtrade(self):
        bt = z3z3_bitrade()
        result = is_minimal(bt)
        trade = result.witness["trade"]
        assert 0 < len(trade) < bt.size
        assert set(trade) < bt.t_circ.triples
        make_bitrade(trade, result.witness["mate"])


class TestThinPrimaryMinimal:
    def test_two_by_three_consistent(self, two_by_three):
        report = check_thin_primary_minimal(two_by_three)
        assert report["applicable"] and report["minimal"].yes

    def test_a4_consistent(self):
        report = check_thin_primary_minimal(a4_bitrade())
        assert report["applicable"] and report["minimal"].yes

    def test_non_thin_not_applicable(self):
        tr = pq_triple(23, 11, 4)
        bt = from_group(tr.group, tr.a, tr.b, tr.c)
        report = check_thin_primary_minimal(bt)
        assert not report["applicable"]
        assert report["minimal"] is None


# ---------------------------------------------------------------------------
# reports

class TestReports:
    def test_default_report(self, two_by_three):
        report = compute_report(two_by_three)
        assert report["separated"].yes
        assert report["thin"].yes
        assert report["homogeneous_k"].value == "no"
        assert "minimal" not in report

    def test_report_json_shape(self, intercalate):
        report = compute_report(intercalate, ["bitrade", "thin", "minimal"])
        doc = report_to_json(report)
        assert set(doc) == {"bitrade", "thin", "minimal"}
        for entry in doc.values():
            assert set(entry) == {"value", "method", "witness"}

    def test_unknown_check_rejected(self, two_by_three):
        with pytest.raises(ValueError):
            compute_report(two_by_three, ["no-such-check"])

    def test_unknown_check_rejected_before_any_check_runs(self, two_by_three, monkeypatch):
        ran = []
        monkeypatch.setattr(properties, "is_thin", lambda bt: ran.append("thin"))
        with pytest.raises(ValueError, match="no-such-check"):
            compute_report(two_by_three, ["thin", "no-such-check"])
        assert ran == []

    @pytest.mark.parametrize("minimal, raised", [("no", True), ("unknown", False),
                                                 ("yes", False)])
    def test_thin_primary_minimal_cross_checked(self, intercalate, monkeypatch,
                                                minimal, raised):
        # the intercalate is thin and primary; an undecided oracle is no answer
        monkeypatch.setattr(properties, "is_minimal",
                            lambda bt, cap: PropertyResult(minimal, "patched"))
        for checks in (["thin", "primary", "minimal"], ["minimal", "primary", "thin"]):
            if raised:
                with pytest.raises(ConsistencyError, match="non-minimal"):
                    compute_report(intercalate, checks)
            else:
                assert compute_report(intercalate, checks)["minimal"].value == minimal
        # without thin or primary in the report there is nothing to check
        assert compute_report(intercalate, ["thin", "minimal"])["minimal"].value == minimal

    def test_direct_scan_agrees_with_criteria(self):
        # both decision routes on the same instances
        for tr in (p3_triple(3), pq_triple(7, 3, 2), pq_triple(23, 11, 4)):
            bt = from_group(tr.group, tr.a, tr.b, tr.c)
            assert is_thin(bt).value == group_thin_criterion(tr).value
            assert is_orthogonal(bt).value == group_orthogonal_criterion(tr).value


# ---------------------------------------------------------------------------
# cross-checks survive python -O

CONSISTENCY_SCRIPT = textwrap.dedent("""
    import json, sys
    from bitrades import cli, core, properties, search
    from bitrades.core import GroupTriple, make_bitrade
    from bitrades.errors import ConsistencyError
    from bitrades.groups import group_from_spec
    from bitrades.properties import PropertyResult

    CIRC = [("r1", "c1", "s1"), ("r1", "c2", "s2"), ("r2", "c1", "s2"), ("r2", "c2", "s1")]
    STAR = [("r1", "c1", "s2"), ("r1", "c2", "s1"), ("r2", "c1", "s1"), ("r2", "c2", "s2")]

    def raises(label, fn):
        try:
            fn()
        except ConsistencyError as err:
            print(label, "ConsistencyError", err)
        else:
            print(label, "no error")

    print("debug", __debug__)
    no = lambda *args: PropertyResult("no", "patched")

    exhaustive = properties.primary_exhaustive
    properties.primary_exhaustive = lambda bt: (not exhaustive(bt)[0], None)
    raises("primary", lambda: properties.is_primary(make_bitrade(CIRC, STAR)))
    with open(sys.argv[1], "w") as fh:
        json.dump({"t_circ": CIRC, "t_star": STAR}, fh)
    print("exit", cli.main(["verify", sys.argv[1], "--checks", "primary"]))
    properties.primary_exhaustive = exhaustive

    properties.is_minimal = no
    raises("minimal", lambda: properties.check_thin_primary_minimal(make_bitrade(CIRC, STAR)))
    # every report that decides thin, primary and minimal cross-checks them
    print("minimal-exit", cli.main(["verify", sys.argv[1], "--checks", "thin,primary,minimal"]))
    raises("search-minimal", lambda: search.search_triples(
        group_from_spec("alt:4"), checks=("thin", "primary", "minimal")))

    thin_criterion = properties.group_thin_criterion
    orthogonal_criterion = properties.group_orthogonal_criterion
    properties.group_thin_criterion = no
    raises("thin", lambda: search.search_triples(group_from_spec("sym:3")))
    properties.group_orthogonal_criterion = no
    raises("orthogonal", lambda: search.search_triples(group_from_spec("sym:3"),
                                                       checks=("orthogonal",)))
    properties.group_thin_criterion = thin_criterion
    properties.group_orthogonal_criterion = orthogonal_criterion

    # the integer pass rejects squares that share a triple; a label check
    # that finds nothing there contradicts it
    core.check_bitrade_conditions = lambda circ, star: []
    raises("mates", lambda: make_bitrade(CIRC, CIRC))

    # a conjugate of C must have the order of C: a triple whose walk of c
    # is the walk of an element of order 2 while c has order 3 breaks it
    G = group_from_spec("sym:3")
    a, b = G.parse_element("(1,2,3)"), G.parse_element("(1,2)")
    walks = (G.coset_walk(a), G.coset_walk(b), G.coset_walk(b))
    torn = type("Torn", (), {"group": G, "a": a, "c": a, "walks": walks})()
    raises("conjugate", lambda: properties.group_orthogonal_criterion(torn))

    # (0,0,0) and (1,1,1) solve a^i b^j c^k = 1 whenever abc = 1; an
    # identity that matches no product hides both
    triple = GroupTriple(G, a, b, G.inverse(G.mul(a, b)))
    type(G).identity = property(lambda self: "no element")
    raises("trivial", lambda: properties.group_thin_criterion(triple))
""")


def test_consistency_checks_raise_under_optimisation(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CONSISTENCY_SCRIPT, str(tmp_path / "doc.json")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"  # asserts are stripped in the child
    verdicts = dict(line.split(" ", 2)[:2] for line in lines[1:])
    assert verdicts == {"primary": "ConsistencyError", "exit": "4",
                        "minimal": "ConsistencyError", "minimal-exit": "4",
                        "search-minimal": "ConsistencyError", "thin": "ConsistencyError",
                        "orthogonal": "ConsistencyError", "mates": "ConsistencyError",
                        "conjugate": "ConsistencyError", "trivial": "ConsistencyError"}
    assert "internal consistency check failed" in proc.stderr
