import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import given, settings

from hypothesis import strategies as st

from bitrades.core import (
    GroupTriple,
    _cell_order,
    from_group,
    from_permutations,
    make_bitrade,
    triple_permutations,
)
from bitrades import families, search
from bitrades.cli import main
from bitrades.errors import ConsistencyError, ResourceCapError, ValidationError
from bitrades.families import predicted_table
from bitrades.groups import Group, PermClosureGroup, Subgroup, group_from_spec, parse_permutation
from bitrades.properties import (
    PropertyResult,
    _orbit,
    _sort_key,
    compute_report,
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    is_primary,
    primary_exhaustive,
)
from bitrades.search import bitrade_signature, iter_triples, search_triples
from bitrades.serialize import _COMPACT, _alphabet_text

from conftest import (
    INTERCALATE_CIRC,
    INTERCALATE_STAR,
    NONSEP_CIRC,
    NONSEP_STAR,
    TWO_BY_THREE_CIRC,
    TWO_BY_THREE_STAR,
    bitrade_to_doc,
)
from test_serialize import relabelled_bitrades
from test_structure import latin_differences


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

    def test_unknown_check_refused_before_the_search(self):
        # cyc:2 admits no triple, so a name checked per record is never checked
        with pytest.raises(ValueError, match="bogus"):
            search_triples(group_from_spec("cyc:2"), checks=("bogus",))

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

    @pytest.mark.parametrize("checks, count", [(("homogeneous",), 10), ((), 0)],
                             ids=["in the report", "none"])
    def test_homogeneity_once_per_orbit(self, monkeypatch, checks, count):
        # k is read off the subgroup orders; the entries are counted only
        # for a report that asks for them, once per conjugacy orbit of
        # (a, b): alt:4's 102 records fall into 10 orbits
        calls = []

        def counted(bitrade):
            calls.append(bitrade)
            return homogeneity(bitrade)

        monkeypatch.setattr("bitrades.properties.homogeneity", counted)
        records = search_triples(group_from_spec("alt:4"), checks=checks)
        assert (len(records), len(calls)) == (102, count)

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


def test_a_group_is_freed_by_refcounting_alone():
    # what a group keeps about its elements (translations, walks, strings
    # and the last triple admitted) refers to no group, so the group goes
    # with its last reference, before the cycle collector runs
    gc.disable()
    try:
        G = group_from_spec("alt:5")
        records = search_triples(G)
        bitrade = from_group(G, *map(G.parse_element, (records[0].a, records[0].b,
                                                        records[0].c)))
        assert bitrade.size == 60
        ref = weakref.ref(G)
        del G, records, bitrade
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", CORPUS)
def test_records_against_the_oracles(spec):
    # search reads G3 off the orbit of its bitrade; the closure of a, b and
    # c decides it from the group
    G = group_from_spec(spec)
    triples = list(iter_triples(G))
    records = search_triples(G, checks=())
    assert [(r.a, r.b, r.c) for r in records] == [t.element_strs() for t in triples]
    for triple, record in zip(triples, records):
        assert record.g3 == (len(G.closure([triple.a, triple.b, triple.c])) == G.order())
        bitrade = from_group(G, triple.a, triple.b, triple.c)
        assert record.signature == oracle_signature(bitrade)
    if spec == "alt:4":
        assert (len(records), sum(not r.g3 for r in records)) == (102, 6)


# the conjugacy orbits of the pairs (a, b) of each group's records
G3_ORBITS = {"sym:4": 26, "alt:5": 57, "p3:3": 112, "gens:5:(1,2,3,4,5);(2,5)(3,4)": 6}


@pytest.mark.parametrize("spec", G3_ORBITS)
def test_g3_per_subgroup_pair_against_each_orbit(spec, monkeypatch):
    # search takes the orbit once per conjugacy orbit of (a, b), as
    # <a^g, b^g> = <a, b>^g; every record's G3 is still the transitivity of
    # its own structure
    orbits = []
    monkeypatch.setattr(search, "_orbit", lambda pt: orbits.append(pt) or _orbit(pt))
    G = group_from_spec(spec)
    records = search_triples(G, checks=())
    triples = list(iter_triples(group_from_spec(spec)))
    assert [(r.a, r.b, r.c) for r in records] == [t.element_strs() for t in triples]
    for triple, record in zip(triples, records):
        bitrade = from_group(triple.group, triple.a, triple.b, triple.c)
        assert record.g3 == (len(_orbit(bitrade.permutation_triple)) == G.order())
    conjugates = conjugacy_orbits(triples[0].group, [(t.a, t.b) for t in triples])
    assert len(orbits) == len(conjugates) == G3_ORBITS[spec] < len(records)
    if spec == "gens:5:(1,2,3,4,5);(2,5)(3,4)":
        assert {r.g3 for r in records} == {True}  # every pair generates D5
    else:
        assert {r.g3 for r in records} == {True, False}


# the bitrades search builds with --require-g3: one per listed record, and
# the first record's of each non-generating orbit (2 on alt:4, 17 on sym:4)
BUILT_WITH_G3 = {"alt:4": 96 + 2, "sym:4": 216 + 17}


@pytest.mark.parametrize("spec, generating", [("alt:4", 8), ("sym:4", 9)])
def test_require_g3_keeps_and_reports_generating_orbits_whole(spec, generating, monkeypatch):
    # G3 is an orbit invariant, so --require-g3 lists the unfiltered records
    # that generate G, and the checks run once per generating orbit only;
    # a non-generating orbit's later records are skipped before their
    # bitrades are built
    checks = ("thin", "orthogonal", "homogeneous")
    G = group_from_spec(spec)
    unfiltered = search_triples(G, checks=checks)
    reported, built = [], []
    monkeypatch.setattr(search, "compute_report",
                        lambda bitrade, *args, **kwargs:
                        reported.append(bitrade) or compute_report(bitrade, *args, **kwargs))
    monkeypatch.setattr(search, "from_group",
                        lambda *args, **kwargs: built.append(args) or from_group(*args, **kwargs))
    records = search_triples(G, require_g3=True, checks=checks)
    assert [r.to_json_line() for r in records] == [
        r.to_json_line() for r in unfiltered if r.g3]
    assert all(len(_orbit(b.permutation_triple)) == G.order() for b in reported)
    pairs = [(G.parse_element(r.a), G.parse_element(r.b)) for r in records]
    assert len(reported) == len(conjugacy_orbits(G, pairs)) == generating
    others = [(G.parse_element(r.a), G.parse_element(r.b)) for r in unfiltered if not r.g3]
    assert len(built) == len(records) + len(conjugacy_orbits(G, others)) == BUILT_WITH_G3[spec]


def test_table_instances_g3_against_the_closure(monkeypatch):
    # table --recompute reads G3 off the orbit of each instance it verifies
    instances = []
    verify = families._verify_instance

    def recorded(instance):
        instances.append(instance)
        return verify(instance)

    monkeypatch.setattr(families, "_verify_instance", recorded)
    predicted_table([3, 5, 7, 9, 11], recompute=True)
    assert len(instances) == 10  # p3 and pq at k = 3, 5, 7, 11; alt at k = 3, 5
    for instance in instances:
        t, bitrade = instance.triple, instance.bitrade()
        closure = len(t.group.closure([t.a, t.b, t.c])) == t.group.order()
        assert (len(_orbit(bitrade.permutation_triple)) == bitrade.size) == closure
        assert closure  # every family triple generates its group


# the SHA-256 of the full stdout of `bitrade search --group <spec>` for the
# order-60, order-120 and order-125 groups, beyond the golden files (which
# stop at sym:4); CI also runs this with asserts stripped
LISTING_SHA256 = {
    "sym:5": "894d4e3177508cbac818b6757b6564181dfdf770cd8a6b737029bff36c5099d8",
    "p3:5": "1da1d3f97c1f2a55dc86a2be2b07b78a68ff5bb4a4a3cbe45d2e63be48a7e32d",
    "alt:5": "59dea97221a7be0e5dd6a4b2a19b9e98b7fb18f82ed853313051c02d371aba79",
}


@pytest.mark.slow
@pytest.mark.parametrize("spec,count", [("sym:5", 13680), ("p3:5", 14880), ("alt:5", 3330)])
def test_full_search_listing(spec, count, capsys):
    assert main(["search", "--group", spec]) == 0
    out, err = capsys.readouterr()
    assert err == f"{count} triples found in {spec}\n"
    assert out.count("\n") == count
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LISTING_SHA256[spec]


# ---------------------------------------------------------------------------
# k from the subgroup orders; one cell order per a and <b>

K_SPECS = ["alt:4", "sym:4", "p3:3", "pq:7,3,2", "prod:cyc:3,sym:3"]


@pytest.mark.parametrize("spec", K_SPECS)
def test_k_is_the_direct_count(spec):
    G = group_from_spec(spec)
    records = search_triples(G, checks=())
    ks = set()
    for triple, record in zip(iter_triples(G), records):
        count = homogeneity(from_group(G, triple.a, triple.b, triple.c)).value
        assert record.k == (None if count == "no" else count)
        ks.add(record.k)
    if spec.startswith("prod:"):
        assert None in ks and len(ks) > 1  # orders that differ, and some that agree


def test_a_wrong_count_is_a_consistency_error(monkeypatch, capsys):
    wrong = lambda bitrade: PropertyResult("no", "direct-scan")
    monkeypatch.setattr("bitrades.properties.homogeneity", wrong)
    G = group_from_spec("alt:4")
    search_triples(G, checks=("thin",))  # no count, nothing to check
    with pytest.raises(ConsistencyError, match="homogeneous_k"):
        search_triples(G, checks=("homogeneous",))
    assert main(["search", "--group", "alt:4", "--checks", "homogeneous"]) == 4
    assert "internal consistency check failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one report per conjugacy orbit of (a, b); every record's own group criteria

ORBIT_SPECS = ["sym:4", "alt:4", "alt:5", "p3:3", "pq:7,3,2", "prod:cyc:3,sym:3",
               "gens:5:(1,2,3,4,5);(2,5)(3,4)"]


def conjugacy_orbits(G, pairs):
    """The orbits of the pairs under conjugation, each the set of
    (g^-1 a g, g^-1 b g) over every g in G, by products of elements."""
    els = G.elements()
    conjugators = [(G.inverse(g), g) for g in els]
    return {frozenset((G.mul(G.mul(h, a), g), G.mul(G.mul(h, b), g)) for h, g in conjugators)
            for a, b in pairs}


@pytest.mark.parametrize("spec", ORBIT_SPECS)
def test_reused_reports_equal_direct_ones(spec, monkeypatch):
    # search runs the direct scans on the first record of each orbit; every
    # record's properties equal those of a report on its own bitrade
    calls = []
    monkeypatch.setattr(search, "compute_report",
                        lambda bitrade, *args, **kwargs:
                        calls.append(bitrade) or compute_report(bitrade, *args, **kwargs))
    G = group_from_spec(spec)
    checks = ("thin", "orthogonal", "primary", "separated", "homogeneous")
    if G.order() <= 24:
        checks += ("minimal",)
    records = search_triples(G, checks=checks)
    triples = list(iter_triples(group_from_spec(spec)))
    assert [(r.a, r.b, r.c) for r in records] == [t.element_strs() for t in triples]
    for triple, record in zip(triples, records):
        direct = compute_report(from_group(triple.group, triple.a, triple.b, triple.c), checks)
        assert record.properties == {name: res.value for name, res in direct.items()}
    pairs = [(t.a, t.b) for t in triples]
    orbits = conjugacy_orbits(triples[0].group, pairs)
    assert len(calls) == len(orbits) < len(records)
    assert sum(map(len, orbits)) == len(records)
    assert set().union(*orbits) == set(pairs)


def test_every_record_keeps_its_group_criterion_check(monkeypatch, capsys):
    # flip the thin criterion on a record whose report is its orbit's: the
    # conjugate of the first record by an element that moves it
    G = group_from_spec("alt:4")
    records = search_triples(G, checks=("thin",))
    a, b = (G.parse_element(x) for x in (records[0].a, records[0].b))
    target = next(pair for pair in ((G.mul(G.mul(G.inverse(g), a), g),
                                     G.mul(G.mul(G.inverse(g), b), g)) for g in G.elements())
                  if pair != (a, b))
    assert target in {tuple(G.parse_element(x) for x in (r.a, r.b)) for r in records[1:]}

    def flipped(triple):
        result = group_thin_criterion(triple)
        if (triple.a, triple.b) == target:
            return PropertyResult("no" if result.yes else "yes", result.method)
        return result

    monkeypatch.setattr("bitrades.properties.group_thin_criterion", flipped)
    with pytest.raises(ConsistencyError, match="thin criteria disagree"):
        search_triples(G, checks=("thin",))
    assert main(["search", "--group", "alt:4", "--checks", "thin"]) == 4
    assert "internal consistency check failed" in capsys.readouterr().err


def test_cap_checked_once_per_group_triple(monkeypatch):
    # a GroupTriple checks the cap when it is made and then reads the group
    # through the unchecked accessors; the public ones, which the group
    # criteria use, still check on every call
    calls = []
    check = Group.check_enumerable
    monkeypatch.setattr(Group, "check_enumerable", lambda self: calls.append(1) or check(self))
    records = search_triples(group_from_spec("alt:5"))
    assert len(records) == 3330
    assert len(calls) <= 13_686  # 10,354 here; 27,491 with a check per accessor


def walk_texts(triple):
    """The compact text of each alphabet of the triple's coset bitrade, as
    search makes it from the triple's coset walks."""
    return [_alphabet_text(*walk.labels(tag), _COMPACT) for walk, tag in zip(triple.walks, "ABC")]


def assert_shared_cell_order_builds_alike(triples):
    """Each triple's record parts from the frame search shares for its a
    and <b> (``search._frame``, made on the first b of the <b>) equal those
    made without one: its bitrade equals ``from_group``'s own, and its
    signature the signature of that bitrade alone and the oracle's."""
    a = None
    for t in triples:
        if t.a != a:
            a, frames = t.a, {}
        written = walk_texts(t)
        cell_order, templates = frames.setdefault(t.walks[1].members, search._frame(t, written))
        mine = from_group(t.group, t.a, t.b, t.c, cell_order=cell_order)
        theirs = from_group(t.group, t.a, t.b, t.c)
        assert mine.alphabets == theirs.alphabets
        pm, pt = mine.permutation_triple, theirs.permutation_triple
        assert (pm.alphabets, pm.coords, pm.index_perms) == (pt.alphabets, pt.coords,
                                                             pt.index_perms)
        assert (bitrade_signature(mine, written, templates) == bitrade_signature(theirs)
                == oracle_signature(theirs))


def test_alphabet_text_made_once_per_walk_and_tag(monkeypatch, capsys):
    # search makes the text of each (coset walk, tag) it meets once, however
    # many records read it
    calls = []
    monkeypatch.setattr(search, "_alphabet_text",
                        lambda *args: calls.append(args) or _alphabet_text(*args))
    assert main(["search", "--group", "alt:4"]) == 0
    assert capsys.readouterr().err == "102 triples found in alt:4\n"
    # a coset walk is made once per element, so an element and its place
    # in the triple name a (walk, tag) pair
    G = group_from_spec("alt:4")
    pairs = {(t.indices[i], tag) for t in iter_triples(G) for i, tag in enumerate("ABC")}
    assert len(calls) == len(pairs) == 3 * 11


@pytest.mark.parametrize("spec", ["alt:4", "sym:4", "p3:3"])
def test_shared_cell_order_on_every_triple(spec):
    assert_shared_cell_order_builds_alike(iter_triples(group_from_spec(spec)))


def test_shared_frames_across_chunks(monkeypatch):
    # a frame's templates span several chunks of the writer
    monkeypatch.setattr("bitrades.serialize._TRIPLES_PER_CHUNK", 7)
    for spec in ("alt:4", "sym:4", "p3:3"):
        assert_shared_cell_order_builds_alike(iter_triples(group_from_spec(spec)))


def triples_of_the_powers(G, a, b):
    """The admitted triples (a, b^j, (ab^j)^-1) for j = 1, 2, ...: one a,
    and one <b> for every b^j that generates it."""
    x = b
    while x != G.identity:
        try:
            yield GroupTriple(G, a, x, G.inverse(G.mul(a, x)))
        except ValidationError:
            pass
        x = G.mul(x, b)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([5, 6]).flatmap(lambda n: st.lists(
    st.permutations(range(1, n + 1)).map(tuple), min_size=2, max_size=2)))
def test_shared_cell_order_on_generated_groups(pair):
    # the group the pair generates, with a and b the pair itself
    G = PermClosureGroup(len(pair[0]), pair)
    assert_shared_cell_order_builds_alike(triples_of_the_powers(G, *pair))


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


# ---------------------------------------------------------------------------
# the index-space group code against the element-space code it replaced:
# G2 on frozensets of elements, the thin criterion by a mul loop, and the
# orthogonality criterion on the subgroup generated by a^-1 c a

ORACLE_SPECS = CORPUS + ["gens:5:(1,2,3,4,5);(2,5)(3,4)"]


def oracle_g2(group, a, b, c):
    """The first G2 failure of a triple as GroupTriple words it, or None."""
    A, B, C = (Subgroup(group, g) for g in (a, b, c))
    for name, X, Y in (("|A∩B|", A, B), ("|A∩C|", A, C), ("|B∩C|", B, C)):
        size = len(X.members & Y.members)
        if size != 1:
            return f"G2: {name}={size}"
    return None


def oracle_thin(group, a, b, c):
    """(value, witness) of the exponent criterion, by products of powers."""
    A, B, C = (Subgroup(group, g) for g in (a, b, c))
    solutions = [(i, j, k)
                 for i, a_i in enumerate(A.elements)
                 for j, b_j in enumerate(B.elements)
                 for k, c_k in enumerate(C.elements)
                 if group.mul(group.mul(a_i, b_j), c_k) == group.identity]
    assert (0, 0, 0) in solutions and (1, 1, 1) in solutions
    extra = [s for s in solutions if s not in ((0, 0, 0), (1, 1, 1))]
    return ("no", min(extra)) if extra else ("yes", None)


def oracle_orthogonal(group, a, c):
    """(value, witness) of |C ∩ a^-1 C a| = 1, on element sets."""
    C = Subgroup(group, c)
    conj = Subgroup(group, group.mul(group.mul(group.inverse(a), c), a))
    common = C.members & conj.members
    if len(common) == 1:
        return "yes", None
    return "no", min((g for g in common if g != group.identity), key=_sort_key)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_group_code_against_the_element_oracles(spec):
    G = group_from_spec(spec)
    els = G.elements()
    e = G.identity
    admitted = []
    for a in els:
        for b in els:
            c = G.inverse(G.mul(a, b))
            if e in (a, b, c):
                continue
            expected = oracle_g2(G, a, b, c)
            try:
                triple = GroupTriple(G, a, b, c)
            except ValidationError as err:
                assert str(err) == expected
                continue
            assert expected is None
            admitted.append(triple)
    assert [(t.a, t.b, t.c) for t in iter_triples(G)] == [(t.a, t.b, t.c) for t in admitted]
    for t in admitted:
        assert t.orders == tuple(len(Subgroup(G, g)) for g in (t.a, t.b, t.c))
        thin = group_thin_criterion(t)
        assert (thin.value, thin.witness) == oracle_thin(G, t.a, t.b, t.c)
        orthogonal = group_orthogonal_criterion(t)
        assert (orthogonal.value, orthogonal.witness) == oracle_orthogonal(G, t.a, t.c)


def test_coset_walks_against_the_cosets():
    for spec in ORACLE_SPECS:
        G = group_from_spec(spec)
        els = G.elements()
        for g in els:
            walk = G.coset_walk(g)
            assert walk is G.coset_walk(g)
            assert [els[i] for i in walk.powers] == list(Subgroup(G, g).elements)
            cosets = {frozenset(G.mul(x, h) for h in Subgroup(G, g).elements) for x in els}
            least = sorted(min(coset) for coset in cosets)  # declared order
            assert walk.names == tuple(map(G.element_str, least))
            ranked = sorted(walk.names)
            coset_of = {x: coset for coset in cosets for x in coset}
            assert [ranked[r] for r in walk.rank] == [
                G.element_str(min(coset_of[x])) for x in els]
            declared, in_order = walk.labels("B")
            assert declared == tuple("B:" + name for name in walk.names)
            assert in_order == tuple(sorted(declared))
            # the JSON text the writers read: the labels' strings in name
            # order and their JSON list in declared order
            assert _alphabet_text(declared, in_order, _COMPACT) == (
                [json.dumps(label) for label in in_order], json.dumps(list(declared)))
            assert walk.distinct


# ---------------------------------------------------------------------------
# the half-table primality search against the subset loop it replaced

def loop_primary_exhaustive(bitrade):
    """Every nonempty proper subset of the primary triples in ascending
    bitmask order, each tested with its forced mate triples."""
    pt = bitrade.permutation_triple
    _, tau2, tau3 = pt.index_perms
    n = len(tau2)
    star_bits = [0] * n
    star_need = [0] * n
    for x in range(n):
        for ci in (x, tau2[x], tau3[tau2[x]]):
            star_bits[ci] |= 1 << x
            star_need[x] |= 1 << ci
    for mask in range(1, (1 << n) - 1):
        sbits = 0
        for i in range(n):
            if mask >> i & 1:
                sbits |= star_bits[i]
        if all(not star_need[m] & ~mask for m in range(n) if sbits >> m & 1):
            return False, tuple(pt[i] for i in range(n) if mask >> i & 1)
    return True, None


def disjoint_union(bitrades):
    """The separated bitrade of the disjoint union of the structures."""
    perms = ({}, {}, {})
    offset = 0
    for bitrade in bitrades:
        for perm, q in zip(perms, triple_permutations(bitrade).index_perms):
            perm.update((offset + x, offset + y) for x, y in enumerate(q))
        offset += bitrade.size
    return from_permutations(*perms)


SMALL_GROUP_BITRADES = [from_group(t.group, t.a, t.b, t.c)
                        for spec in ("sym:3", "prod:cyc:2,cyc:2", "cyc:3", "alt:4")
                        for t in list(iter_triples(group_from_spec(spec)))[:4]]
small_bitrades = st.one_of(latin_differences(), st.sampled_from(SMALL_GROUP_BITRADES))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_bitrades,
                 st.lists(small_bitrades, min_size=2, max_size=3).filter(
                     lambda parts: sum(b.size for b in parts) <= 12).map(disjoint_union)))
def test_primary_exhaustive_against_the_subset_loop(bitrade):
    assert bitrade.size <= 12
    found = primary_exhaustive(bitrade)
    assert found == loop_primary_exhaustive(bitrade)
    assert is_primary(bitrade).yes == found[0]
