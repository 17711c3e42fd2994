import hashlib
import json

import pytest
from hypothesis import given, settings

from bitrades.core import GroupTriple, from_group, make_bitrade
from bitrades.errors import ResourceCapError, ValidationError
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.search import bitrade_signature, iter_triples, search_triples
from bitrades.serialize import bitrade_to_doc

from conftest import (
    INTERCALATE_CIRC,
    INTERCALATE_STAR,
    NONSEP_CIRC,
    NONSEP_STAR,
    TWO_BY_THREE_CIRC,
    TWO_BY_THREE_STAR,
)
from test_serialize import relabelled_bitrades


def brute_force_triples(group):
    """Independent oracle: scan all ordered (a, b, c) with abc = 1 and
    pairwise trivially intersecting cyclic subgroups."""
    els = group.elements()
    identity = group.identity
    found = set()
    for a in els:
        if a == identity:
            continue
        for b in els:
            if b == identity:
                continue
            for c in els:
                if c == identity:
                    continue
                if group.mul(group.mul(a, b), c) != identity:
                    continue
                try:
                    GroupTriple(group, a, b, c)
                except ValidationError:
                    continue
                found.add((a, b, c))
    return found


class TestSearch:
    def test_s3_completeness_against_brute_force(self):
        G = group_from_spec("sym:3")
        records = search_triples(G)
        found = {(G.parse_element(r.a), G.parse_element(r.b), G.parse_element(r.c))
                 for r in records}
        assert found == brute_force_triples(G)

    def test_s3_contains_the_reference_triple(self):
        G = group_from_spec("sym:3")
        s = parse_permutation("(1,2,3)", 3)
        t = parse_permutation("(1,2)", 3)
        ts2 = G.mul(t, G.mul(s, s))
        records = search_triples(G)
        triples = {(r.a, r.b, r.c) for r in records}
        assert (G.element_str(s), G.element_str(t), G.element_str(ts2)) in triples

    def test_cyc2_is_empty(self):
        assert search_triples(group_from_spec("cyc:2")) == []

    def test_a4_with_k3_filter_contains_reference_triple(self):
        G = group_from_spec("alt:4")
        records = search_triples(G, k=3)
        triples = {(r.a, r.b, r.c) for r in records}
        assert ("(1,2,3)", "(1,4,2)", "(2,4,3)") in triples
        assert all(r.orders == (3, 3, 3) for r in records)

    def test_search_cap(self):
        with pytest.raises(ResourceCapError):
            search_triples(group_from_spec("sym:5"), search_cap=100)

    def test_explicit_cap_above_default(self, monkeypatch):
        monkeypatch.setattr("bitrades.groups.DEFAULT_MAX_ELEMENTS", 10)
        with pytest.raises(ResourceCapError):
            search_triples(group_from_spec("alt:4"))
        records = search_triples(group_from_spec("alt:4", 100))
        assert len(records) == 102
        assert sum(r.g3 for r in records) == 96

    def test_records_are_deterministic(self):
        G = group_from_spec("sym:3")
        first = [r.to_json_line() for r in search_triples(G)]
        second = [r.to_json_line() for r in search_triples(G)]
        assert first == second

    def test_require_g3_filters(self):
        G = group_from_spec("alt:4")
        with_g3 = search_triples(G, require_g3=True)
        without = search_triples(G)
        assert len(with_g3) <= len(without)
        assert all(r.g3 for r in with_g3)

    def test_signature_distinguishes_content(self, two_by_three, intercalate):
        assert bitrade_signature(two_by_three) != bitrade_signature(intercalate)
        assert bitrade_signature(two_by_three) == bitrade_signature(two_by_three)

    def test_iter_triples_satisfy_g1(self):
        G = group_from_spec("pq:7,3,2")
        for triple in iter_triples(G):
            assert G.mul(G.mul(triple.a, triple.b), triple.c) == G.identity


# ---------------------------------------------------------------------------
# search against its oracles: G3 by closure, the signature of the sorted doc

CORPUS = ["sym:3", "alt:4", "sym:4", "p3:3", "pq:7,3,2", "prod:cyc:3,cyc:3"]


def oracle_signature(bitrade):
    """The signature as first defined: the SHA-256 of the sorted label
    document without its provenance, dumped with sorted keys."""
    payload = bitrade_to_doc(bitrade)
    del payload["provenance"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec", CORPUS)
def test_records_against_the_oracles(spec):
    # search reads G3 off the orbit of its bitrade; the closure of a, b and
    # c decides it from the group
    G = group_from_spec(spec)
    triples = list(iter_triples(G))
    records = search_triples(G, checks=())
    assert [(r.a, r.b, r.c) for r in records] == [t.element_strs() for t in triples]
    for triple, record in zip(triples, records):
        assert record.g3 == triple.satisfies_g3()
        bitrade = from_group(G, triple.a, triple.b, triple.c)
        assert record.signature == oracle_signature(bitrade)
    if spec == "alt:4":
        assert (len(records), sum(not r.g3 for r in records)) == (102, 6)


def relabel(triples, form):
    labels = sorted({lab for t in triples for lab in t})
    code = {lab: form(k) for k, lab in enumerate(labels)}
    return [tuple(code[lab] for lab in t) for t in triples]


@pytest.mark.parametrize("circ, star", [
    (INTERCALATE_CIRC, INTERCALATE_STAR),
    (TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR),
    (NONSEP_CIRC, NONSEP_STAR),
], ids=["intercalate", "two-by-three", "nonseparated"])
@pytest.mark.parametrize("form", [lambda k: k, lambda k: (k, "t"), lambda k: (k,)],
                         ids=["int", "tuple", "1-tuple"])
def test_signature_of_non_str_labels(circ, star, form):
    bitrade = make_bitrade(relabel(circ, form), relabel(star, form))
    assert bitrade_signature(bitrade) == oracle_signature(bitrade)


@settings(max_examples=100, deadline=None)
@given(relabelled_bitrades())
def test_signature_of_relabelled_bitrades(bitrade):
    assert bitrade_signature(bitrade) == oracle_signature(bitrade)
