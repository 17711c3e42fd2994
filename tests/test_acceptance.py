"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import resource
import time

import pytest

from bitrades.cli import main
from bitrades.core import (from_group, from_permutations, roundtrip_check,
                           triple_permutations)
from bitrades.families import family_alt, family_pq, predicted_table
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.properties import (
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
)
from bitrades.search import iter_triples
from bitrades.serialize import render_bitrade

CORPUS_GROUP_SPECS = ("sym:3", "prod:cyc:3,cyc:3", "alt:4",
                      "gens:4:(1,2,3,4);(1,3)", "p3:3")


def _report(number, description):
    print(f"criterion {number}: PASS - {description}")


@pytest.fixture(scope="session")
def corpus():
    """Every (a, b, c) triple satisfying G1-G2 in the five corpus groups,
    with its bitrade."""
    entries = []
    for spec in CORPUS_GROUP_SPECS:
        group = group_from_spec(spec)
        for triple in iter_triples(group):
            bitrade = from_group(group, triple.a, triple.b, triple.c)
            entries.append((triple, bitrade))
    return entries


# ---------------------------------------------------------------------------
# criterion 1: the S3 reference example, byte-identical grids

S3_GOLDEN = """\
∘   B    sB  s²B    ⋆   B    sB  s²B
A   C    sC  s²C    A   s²C  C   sC
tA  s²C  C   sC     tA  C    sC  s²C
"""


def test_criterion_1_s3_golden():
    started = time.monotonic()
    G = group_from_spec("sym:3")
    s = parse_permutation("(1,2,3)", 3)
    t = parse_permutation("(1,2)", 3)
    ts2 = G.mul(t, G.mul(s, s))
    bitrade = from_group(G, s, t, ts2)
    assert bitrade.size == 6
    names = {
        "A:()": "A", "A:(2,3)": "tA",
        "B:()": "B", "B:(2,3)": "sB", "B:(1,3,2)": "s²B",
        "C:()": "C", "C:(1,2,3)": "sC", "C:(1,2)": "s²C",
    }
    rendered = render_bitrade(bitrade, names=names)
    assert rendered == S3_GOLDEN
    assert rendered == render_bitrade(bitrade, names=names)  # byte-stable
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"S3 grids reproduced byte-identically in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: the A4 reference example with all properties

A4_GOLDEN = """\
∘     B     aB    a⁻¹B  cB      ⋆     B     aB    a⁻¹B  cB
A     C     aC    a⁻¹C  ·       A     a⁻¹C  C     aC    ·
cA    b⁻¹C  ·     aC    C       cA    C     ·     b⁻¹C  aC
c⁻¹A  ·     C     b⁻¹C  a⁻¹C    c⁻¹A  ·     b⁻¹C  a⁻¹C  C
bA    a⁻¹C  b⁻¹C  ·     aC      bA    b⁻¹C  aC    ·     a⁻¹C
"""


def test_criterion_2_a4_golden():
    started = time.monotonic()
    G = group_from_spec("alt:4")
    a = parse_permutation("(1,2,3)", 4)
    b = parse_permutation("(2,1,4)", 4)
    c = parse_permutation("(2,4,3)", 4)
    # c equals (ab)^-1, so the symbol subgroup matches <ab> exactly
    assert c == G.inverse(G.mul(a, b))
    bitrade = from_group(G, a, b, c)
    assert bitrade.size == 12
    names = {
        "A:()": "A", "A:(2,4,3)": "cA", "A:(2,3,4)": "c⁻¹A", "A:(1,4,2)": "bA",
        "B:()": "B", "B:(2,3,4)": "aB", "B:(1,3,2)": "a⁻¹B", "B:(2,4,3)": "cB",
        "C:()": "C", "C:(1,2,3)": "aC", "C:(1,2)(3,4)": "a⁻¹C", "C:(1,2,4)": "b⁻¹C",
    }
    assert render_bitrade(bitrade, names=names) == A4_GOLDEN
    assert is_thin(bitrade).yes
    assert is_orthogonal(bitrade).yes
    assert is_primary(bitrade).yes
    assert homogeneity(bitrade).value == 3
    assert is_minimal(bitrade).yes
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(2, f"A4 grids and properties verified in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 3: the size table, recomputed and verified

def test_criterion_3_table_reproduction(capsys):
    started = time.monotonic()
    rows = {r.k: r for r in predicted_table([3, 5, 7, 9, 11], recompute=True)}

    assert [rows[k].p3 for k in (3, 5, 7, 9, 11)] == [27, 125, 343, None, 1331]
    pq_cells = [rows[k].pq for k in (3, 5, 7, 9, 11)]
    assert [c.size if c else None for c in pq_cells] == [21, 55, 203, None, 737]
    assert [(c.p, c.q, c.r) for c in pq_cells if c] \
        == [(7, 3, 2), (11, 5, 3), (29, 7, 7), (67, 11, 14)]
    assert [rows[k].alt_display for k in (3, 5, 7, 9, 11)] \
        == ["12", "2520", "1814400", "3113510400", "16!/2"]
    assert [rows[k].published for k in (3, 5, 7, 9, 11)] == [21, 75, 133, 243, 407]
    assert [rows[k].smallest_known for k in (3, 5, 7, 9, 11)] \
        == [12, 55, 133, 243, 407]

    # constructed cells: p3 and pq for k in {3,5,7}, alt for k in {3,5};
    # the alternating instances above 2520 are formula values only
    for k in (3, 5, 7):
        assert rows[k].verified["p3"] is True
        assert rows[k].verified["pq"] is True
    for k in (3, 5):
        assert rows[k].verified["alt"] is True
    assert rows[7].verified["alt"] is None
    assert rows[9].verified["alt"] is None and rows[11].verified["alt"] is None

    # the CLI renders the same rows
    assert main(["table", "--recompute"]) == 0
    out = capsys.readouterr().out
    for fragment in ("27 *", "21 (p=7,q=3,r=2) *", "737 (p=67,q=11,r=14)",
                     "3113510400", "16!/2", "407"):
        assert fragment in out

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, f"size table reproduced and verified in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: the non-thin pq instance

def test_criterion_4_non_thin_witness():
    started = time.monotonic()
    predicate = pq_thin_predicate(23, 11, 4)
    assert predicate.value == "no"

    instance = family_pq(23, 11, 4)
    bitrade = instance.bitrade()
    assert bitrade.size == 253
    criterion = group_thin_criterion(instance.triple)
    assert criterion.value == "no"

    # the predicate witness satisfies the exponent congruence ...
    i, j = predicate.witness
    assert (pow(4, j, 23) + pow(4, (j - 1) % 11, 23)) % 23 \
        == (pow(4, (i + j - 1) % 11, 23) + 1) % 23
    # ... the group-scan witness maps onto a congruence solution ...
    gi, gj, gk = criterion.witness
    assert (gi, gj) in pq_thin_solutions(23, 11, 4)
    assert gk == (gi + gj) * pow(2, -1, 11) % 11
    # ... and the known instance 4^5 + 4^6 = 4^9 + 1 is among the solutions
    assert (4 ** 5 + 4 ** 6) % 23 == (4 ** 9 + 1) % 23
    assert (4, 6) in pq_thin_solutions(23, 11, 4)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(4, f"non-thin witness for (23,11,4) verified in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5: direct scans equal group criteria across the corpus

def test_criterion_5_criterion_equivalence(corpus):
    started = time.monotonic()
    assert len(corpus) >= 100
    disagreements = []
    for triple, bitrade in corpus:
        if is_thin(bitrade).value != group_thin_criterion(triple).value:
            disagreements.append(("thin", triple))
        if is_orthogonal(bitrade).value != group_orthogonal_criterion(triple).value:
            disagreements.append(("orthogonal", triple))
    assert disagreements == []
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(5, f"{len(corpus)} triples, zero criterion disagreements "
               f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: permutation structure round trip

def test_criterion_6_permutation_roundtrip(corpus, two_by_three, intercalate):
    started = time.monotonic()
    bitrades = [bt for _, bt in corpus] + [two_by_three, intercalate]
    for bitrade in bitrades:
        pt = triple_permutations(bitrade)  # validates Q1-Q3
        rebuilt = from_permutations(*pt.perms, points=pt.points)
        assert rebuilt.size == bitrade.size
        if is_separated(bitrade).yes:
            ok, _ = roundtrip_check(bitrade)
            assert ok
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(6, f"{len(bitrades)} bitrades round-tripped in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: shape counts of every group bitrade

def test_criterion_7_shape_counts(corpus):
    started = time.monotonic()
    for triple, bitrade in corpus:
        n = triple.group.order()
        oa, ob, oc = triple.orders
        assert bitrade.size == n
        assert len(bitrade.rows) == n // oa
        assert len(bitrade.cols) == n // ob
        assert len(bitrade.syms) == n // oc
        for coord, labels, k in ((0, bitrade.rows, oa), (1, bitrade.cols, ob),
                                 (2, bitrade.syms, oc)):
            counts = {}
            for t in bitrade.t_circ.triples:
                counts[t[coord]] = counts.get(t[coord], 0) + 1
            assert all(counts[lab] == k for lab in labels)
        # k-homogeneous exactly when the three orders coincide
        expected_k = oa if oa == ob == oc else "no"
        assert homogeneity(bitrade).value == expected_k
    _report(7, f"shape counts exact on {len(corpus)} group bitrades "
               f"in {time.monotonic() - started:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: minimality consistency

THIN_PRIMARY_MINIMAL = ("thin", "primary", "minimal")


def test_criterion_8_minimality(corpus, two_intercalates):
    started = time.monotonic()
    checked = 0
    for triple, bitrade in corpus:
        if bitrade.size > 24:
            continue
        # a report deciding all three raises ConsistencyError on disagreement
        report = compute_report(bitrade, THIN_PRIMARY_MINIMAL)
        if report["thin"].yes and report["primary"].yes:
            assert report["minimal"].yes
            checked += 1
    # the size-21 three-homogeneous instance is also within the oracle cap
    inst = family_pq(7, 3, 2)
    report = compute_report(inst.bitrade(), THIN_PRIMARY_MINIMAL)
    assert [result.value for result in report.values()] == ["yes"] * 3
    checked += 1

    result = is_minimal(two_intercalates)
    assert result.value == "no"
    witness = result.witness["trade"]
    assert len(witness) == 4
    assert {t[0] for t in witness} == {"r1", "r2"}

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert checked > 0
    _report(8, f"{checked} thin+primary instances oracle-minimal, union "
               f"counterexample found, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: the 1.8-million-cell instance

@pytest.mark.slow
def test_criterion_9_scale():
    started = time.monotonic()
    instance = family_alt(3)
    assert instance.spec.size == 1_814_400
    assert instance.spec.k == 7

    bitrade = instance.bitrade()
    assert bitrade.size == 1_814_400
    oa, ob, oc = instance.triple.orders
    assert (oa, ob, oc) == (7, 7, 7)
    assert len(bitrade.rows) == 259_200
    assert len(bitrade.cols) == 259_200
    assert len(bitrade.syms) == 259_200
    for coord, labels in ((0, bitrade.rows), (1, bitrade.cols), (2, bitrade.syms)):
        counts = {}
        for t in bitrade.t_circ.triples:
            counts[t[coord]] = counts.get(t[coord], 0) + 1
        assert len(counts) == 259_200
        assert set(counts.values()) == {7}

    assert group_thin_criterion(instance.triple).yes
    assert group_orthogonal_criterion(instance.triple).yes

    elapsed = time.monotonic() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
    _report(9, f"size-1814400 instance built and verified in {elapsed:.0f}s, "
               f"peak RSS {peak_gb:.2f} GB")
