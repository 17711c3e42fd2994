import pytest

from bitrades.core import GroupTriple
from bitrades.errors import ResourceCapError, ValidationError
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.search import bitrade_signature, iter_triples, search_triples


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
