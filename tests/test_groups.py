import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrades.errors import GroupError, ParseError, ResourceCapError
from bitrades.groups import (
    AlternatingGroup,
    CyclicGroup,
    DirectProductGroup,
    HeisenbergGroup,
    MetacyclicGroup,
    PermClosureGroup,
    SymmetricGroup,
    _even_mask,
    _is_prime,
    chain_order,
    group_from_spec,
    parse_permutation,
    perm_mul,
    perm_parity,
    perm_str,
)

from conftest import (
    center,
    cyclic_subgroup,
    element_order,
    left_cosets,
    reference_closure,
    reference_permutations,
    reference_translation,
)


def cycle_text(points):
    return "(" + ",".join(map(str, points)) + ")"


def generator_sets(max_degree=7):
    """A degree n in 1..max_degree and 1-3 permutations of it, each a
    random one, the identity, a transposition, or a permutation of a
    random subset of the points (so that the set may be intransitive)."""
    def one(n):
        def on_subset(points):
            return st.permutations(points).map(
                lambda images: tuple(dict(zip(points, images)).get(x, x)
                                     for x in range(1, n + 1)))
        kinds = [st.permutations(range(1, n + 1)).map(tuple),
                 st.just(tuple(range(1, n + 1))),
                 st.lists(st.integers(1, n), unique=True).flatmap(on_subset)]
        if n >= 2:
            kinds.append(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
                         .map(lambda pair: parse_permutation(cycle_text(pair), n)))
        return st.one_of(kinds)
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(one(n), min_size=1, max_size=3)))


def s3():
    return SymmetricGroup(3)


def a4():
    return AlternatingGroup(4)


def walk_order(G, g):
    """The order of g as the package reads it: the length of its power list."""
    return len(G.coset_walk(g).powers)


def walk_cosets(G, g):
    """The cycles of x -> xg (``coset_walk(g)``), each as its sorted
    elements, in order of their least elements."""
    cosets = {}
    for x, k in zip(G.elements(), G.coset_walk(g).rank):
        cosets.setdefault(k, []).append(x)
    return [tuple(c) for c in cosets.values()]


def power(G, g, k):
    """g**k for k >= 0, by repeated multiplication."""
    acc = G.identity
    for _ in range(k):
        acc = G.mul(acc, g)
    return acc


# ---------------------------------------------------------------------------
# primality of family parameters

class TestIsPrime:
    def test_against_trial_division(self):
        for n in range(-2, 5000):
            assert _is_prime(n) == (n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1)))

    @pytest.mark.parametrize("n,prime", [
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
        (3825123056546413051, False),  # ... to every prime base up to 23
        (399165290221 * 798330580441, False),  # ... up to 37; base 41 finds it
        (1000000000000000003, True),
        (2 ** 61 - 1, True),
        (2 ** 61 + 1, False),
    ])
    def test_large_values(self, n, prime):
        assert _is_prime(n) is prime

    def test_beyond_the_exact_range_refused_by_name(self):
        assert _is_prime(3317044064679887385961981 - 1, "p") is False  # still decided
        with pytest.raises(GroupError, match=r"^p=3317044064679887385961981 is too large"):
            _is_prime(3317044064679887385961981, "p")


# ---------------------------------------------------------------------------
# multiplication

class TestMul:
    def test_p3_ab(self):
        G = HeisenbergGroup(3)
        assert G.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 0)

    def test_p3_ba_picks_up_central_factor(self):
        G = HeisenbergGroup(3)
        assert G.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 1)

    def test_transposition_squares_to_identity(self):
        G = s3()
        t = parse_permutation("(1,2)", 3)
        assert G.mul(t, t) == G.identity

    def test_pq_product_exponent(self):
        G = MetacyclicGroup(7, 3, 2)
        # b^0 a^1 * b^1 a^0 = b^1 a^(1*2+0)
        assert G.mul((0, 1), (1, 0)) == (1, 2)

    def test_mixed_degree_operands_rejected(self):
        g3 = parse_permutation("(1,2,3)", 3)
        g4 = parse_permutation("(1,2,3)", 4)
        with pytest.raises(GroupError):
            s3().mul(g3, g4)

    def test_heisenberg_relations(self):
        # ab = bac, ca = ac, cb = bc, a^p = b^p = c^p = 1
        for p in (3, 5, 7):
            G = HeisenbergGroup(p)
            a, b, c = G.gen_a, G.gen_b, (0, 0, p - 1)  # c = z^-1
            assert G.mul(a, b) == G.mul(G.mul(b, a), c)
            assert G.mul(c, a) == G.mul(a, c)
            assert G.mul(c, b) == G.mul(b, c)
            for g in (a, b, c):
                assert power(G, g, p) == G.identity

    def test_metacyclic_relation(self):
        # b^-1 a b = a^r
        for (p, q, r) in [(7, 3, 2), (11, 5, 3), (23, 11, 4)]:
            G = MetacyclicGroup(p, q, r)
            conj = G.mul(G.mul(G.inverse(G.gen_b), G.gen_a), G.gen_b)
            assert conj == power(G, G.gen_a, r)

    def test_associativity_sample(self):
        G = MetacyclicGroup(7, 3, 2)
        els = G.elements()
        for g in els[:5]:
            for h in els[::4]:
                for k in els[::5]:
                    assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))


# ---------------------------------------------------------------------------
# inverse / identity / order

class TestOrderInverse:
    def test_identity_order(self):
        G = s3()
        assert walk_order(G, G.identity) == element_order(G, G.identity) == 1

    def test_gamma_order_p5(self):
        G = HeisenbergGroup(5)
        gamma = G.mul(G.inverse(G.gen_b), G.inverse(G.gen_a))
        assert walk_order(G, gamma) == element_order(G, gamma) == 5

    def test_three_cycle_order_in_a4(self):
        G = a4()
        g = parse_permutation("(1,2,3)", 4)
        assert walk_order(G, g) == element_order(G, g) == 3

    def test_inverse_axiom_sampled(self):
        for G in (s3(), HeisenbergGroup(3), MetacyclicGroup(7, 3, 2), CyclicGroup(6)):
            for g in G.elements():
                assert G.mul(g, G.inverse(g)) == G.identity
                assert G.mul(G.inverse(g), g) == G.identity


# ---------------------------------------------------------------------------
# power

class TestPower:
    def test_gamma_squared_p3(self):
        G = HeisenbergGroup(3)
        gamma = G.mul(G.inverse(G.gen_b), G.inverse(G.gen_a))
        assert power(G, gamma, 2) == (1, 1, 0)

    def test_ab_to_the_q_is_identity(self):
        G = MetacyclicGroup(7, 3, 2)
        ab = G.mul(G.gen_a, G.gen_b)
        assert power(G, ab, G.q) == G.identity

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_gamma_power_closed_form(self, p):
        # gamma^k = a^-k b^-k z^(k(k+1)/2), checked against iterated squaring
        G = HeisenbergGroup(p)
        gamma = G.mul(G.inverse(G.gen_b), G.inverse(G.gen_a))
        for k in range(p):
            expected = ((-k) % p, (-k) % p, (k * (k + 1) // 2) % p)
            assert power(G, gamma, k) == expected

    @pytest.mark.parametrize("pqr", [(7, 3, 2), (11, 5, 3), (29, 7, 7), (23, 11, 4)])
    def test_ab_power_closed_form(self, pqr):
        # (ab)^k = b^k a^(r + r^2 + ... + r^k)
        G = MetacyclicGroup(*pqr)
        ab = G.mul(G.gen_a, G.gen_b)
        for k in range(G.q):
            exponent = sum(pow(G.r, i, G.p) for i in range(1, k + 1)) % G.p
            assert power(G, ab, k) == (k % G.q, exponent)


# ---------------------------------------------------------------------------
# subgroups, cosets

class TestSubgroupsCosets:
    def test_generated_subgroup_in_a4(self):
        # <g> is the cycle of x -> xg through the identity
        G = a4()
        g = parse_permutation("(1,2,3)", 4)
        H = G.elements_at(G.coset_walk(g).powers)
        assert H == cyclic_subgroup(G, g) == [G.identity, g, G.mul(g, g)]

    def test_trivial_subgroup(self):
        G = s3()
        assert G.elements_at(G.coset_walk(G.identity).powers) == [G.identity]

    def test_cyclic_component_order(self):
        G = DirectProductGroup([CyclicGroup(3), CyclicGroup(3)])
        assert walk_order(G, (0, 1)) == 3

    def test_closure_of_a4_generators(self):
        G = SymmetricGroup(4)
        a = parse_permutation("(1,2,3)", 4)
        b = parse_permutation("(2,1,4)", 4)
        assert len(G.closure([a, b])) == 12

    def test_closure_of_identity(self):
        G = s3()
        assert G.closure([G.identity]) == {G.identity}

    def test_closure_heisenberg_generators(self):
        G = HeisenbergGroup(3)
        assert len(G.closure([G.gen_a, G.gen_b])) == 27

    def test_closure_cap(self, monkeypatch):
        G = SymmetricGroup(5)
        gens = [parse_permutation("(1,2,3,4,5)", 5), parse_permutation("(1,2)", 5)]
        G.max_elements = 30
        with pytest.raises(ResourceCapError):
            G.closure(gens)
        # unset, the cap is the module default, read at check time
        G.max_elements = None
        monkeypatch.setattr("bitrades.groups.DEFAULT_MAX_ELEMENTS", 30)
        with pytest.raises(ResourceCapError):
            G.closure(gens)
        G.max_elements = 200
        assert len(G.closure(gens)) == 120

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=3))))
    def test_bytes_paths_match_the_generic_paths(self, case):
        # permutation groups of degree <= 255 close and translate on bytes;
        # a closure and translations on the group's multiplication alone are
        # the oracle
        n, gens = case
        closed = reference_closure(SymmetricGroup(n), gens)
        for G, els in ((PermClosureGroup(n, gens), sorted(closed)),
                       (SymmetricGroup(n), list(reference_permutations(n)))):
            assert G.closure(gens) == closed
            assert G.elements() == els
            for g in gens + [els[-1]]:
                assert G.right_translation(g) == reference_translation(G, els, g)
        if n <= 5:
            G = PermClosureGroup(n, gens)
            assert all(G.contains(g) == (g in closed)
                       for g in itertools.permutations(range(1, n + 1)))

    @settings(max_examples=400, deadline=None)
    @given(generator_sets())
    def test_code_store_matches_the_generic_closure(self, case):
        # the group's order is that of its stabilizer chain, and it keeps its
        # elements as bytes codes; every view of them matches the tuples of
        # a closure by multiplication
        n, gens = case
        els = sorted(reference_closure(SymmetricGroup(n), gens))
        assert chain_order(gens, n) == len(els)
        G = PermClosureGroup(n, gens)
        assert G._element_store() == list(map(bytes, els))
        assert G.order() == len(els)
        assert list(G.iter_elements()) == els
        assert G.element_strs(range(len(els))) == [perm_str(x) for x in els]
        assert [G.index_of(x) for x in els] == list(range(len(els)))
        assert G.elements() == els
        assert G.index_of(G.identity) == 0
        members = set(els)
        others = [g for g in itertools.islice(itertools.permutations(range(1, n + 1)), 200)
                  if g not in members]
        assert [G.index_of(g) for g in others] == [None] * len(others)

    def test_code_store_index_of_foreign_values(self):
        G = PermClosureGroup(4, [(2, 3, 1, 4), (2, 1, 4, 3)])
        assert G.index_of((1, 2, 3, 4)) == 0
        for value in (5, [1, 2, 3, 4], (1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 3, 300),
                      (1, 2, 3, "4"), (1, 2, 3, -4), b"\x01\x02\x03\x04", None):
            assert G.index_of(value) is None
            assert not G.contains(value)

    def test_s3_coset_counts(self):
        G = s3()
        s = parse_permutation("(1,2,3)", 3)
        t = parse_permutation("(1,2)", 3)
        assert len(G.coset_walk(s).names) == 2
        assert len(G.coset_walk(t).names) == 3

    def test_whole_group_single_coset(self):
        G = CyclicGroup(6)
        assert len(G.coset_walk(1).names) == 1

    @pytest.mark.parametrize("spec", ["sym:3", "alt:4", "cyc:12", "p3:3", "pq:7,3,2"])
    def test_lagrange(self, spec):
        G = group_from_spec(spec)
        for g in G.elements():
            order = walk_order(G, g)
            cosets = walk_cosets(G, g)
            assert len(G.coset_walk(g).names) == len(cosets)
            assert G.order() == order * len(cosets)
            # cosets partition the group
            union = set()
            for c in cosets:
                members = set(c)
                assert len(members) == order
                assert not (union & members)
                union |= members
            assert len(union) == G.order()
            # and are the left cosets x<g>
            assert cosets == left_cosets(G, g)


# ---------------------------------------------------------------------------
# the element stores of sym:n and alt:n

def whole_group_spec(kind, n):
    """A spec of S_n or A_n: ``sym:n`` or ``alt:n``, or (``gens-sym`` and
    ``gens-alt``) a ``gens:`` spec of generators that generate it."""
    if not kind.startswith("gens-"):
        return f"{kind}:{n}"
    if kind == "gens-sym":
        gens = [cycle_text(range(1, n + 1)), "(1,2)"] if n >= 2 else ["()"]
    else:  # (1,2,3) and the n-cycle for odd n, the cycle (2,...,n) for even n
        gens = ["(1,2,3)", cycle_text(range(2 - n % 2, n + 1))] if n >= 3 else ["()"]
    return f"gens:{n}:" + ";".join(gens)


class TestPermutationStores:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["sym", "alt", "gens-sym", "gens-alt"])
    def test_store_matches_the_reference(self, kind, n, monkeypatch):
        # sym:n and alt:n, and gens: groups that generate them, keep bytes
        # codes made without a closure; every view of their elements matches
        # the n! enumeration with a parity filter, and the right
        # translations match those by multiplication
        G = group_from_spec(whole_group_spec(kind, n))
        ref = list(reference_permutations(n, even=kind.endswith("alt")))
        assert "_store" not in G.__dict__  # filled on first use
        if kind.startswith("gens-"):
            assert sorted(reference_closure(G, G.generators)) == ref
        monkeypatch.setattr(G, "_stored_closure", None)
        assert G._element_store() == [bytes(x) for x in ref]
        assert G.order() == len(ref)
        assert G.elements() == ref
        assert list(G.iter_elements()) == ref
        assert G.element_strs(range(len(ref))) == [reference_cycle_notation(x) for x in ref]
        assert [G.index_of(x) for x in ref] == list(range(len(ref)))
        members = set(ref)
        everything = list(reference_permutations(n))
        assert [G.contains(g) for g in everything] == [g in members for g in everything]
        assert [G.index_of(g) for g in everything if g not in members] \
            == [None] * (len(everything) - len(ref))
        for value in (n, list(ref[0]), ref[0][:-1], ref[0] + (n + 1,), b"\x01" * n, None):
            assert G.index_of(value) is None
            assert not G.contains(value)
        for g in dict.fromkeys([ref[0], ref[-1], ref[len(ref) // 2]]):
            assert G.right_translation(g) == reference_translation(G, ref, g)

    @pytest.mark.parametrize("spec", ["alt:12", "sym:11"])
    def test_a_capped_group_builds_no_store(self, spec):
        G = group_from_spec(spec)
        for access in (G.elements, G.iter_elements, G._element_store,
                       lambda: G.index_of(G.identity), lambda: G.coset_walk(G.identity)):
            with pytest.raises(ResourceCapError) as err:
                access()
            assert str(err.value).startswith(
                f"group {spec} has order {G.order()}, above the enumeration cap")
        # membership is decided without enumerating
        assert G.contains(G.identity)
        assert G.contains(parse_permutation("(1,2)", G.degree)) == (spec == "sym:11")
        assert "_store" not in G.__dict__


class TestStabilizerChain:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_even_mask_matches_the_parity(self, n):
        perms = itertools.permutations(range(1, n + 1))
        assert _even_mask(n) == bytes(1 - perm_parity(p) for p in perms)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_orders_of_whole_groups(self, n):
        for kind, order in (("gens-sym", math.factorial(n)),
                            ("gens-alt", max(1, math.factorial(n) // 2))):
            spec = whole_group_spec(kind, n)
            gens = [parse_permutation(t, n) for t in spec.split(":", 2)[2].split(";")]
            assert chain_order(gens, n) == order


# ---------------------------------------------------------------------------
# every group's store against its multiplication

# (spec, generators, non-members of the element type)
STORE_CASES = [
    ("gens:256:(1,2,3);(2,1,4)", ["(1,2,3)", "(2,1,4)"],
     [parse_permutation("(1,2)", 256), parse_permutation("(1,2,3,4,5)", 256),
      (300,) + tuple(range(2, 257)), (1, "2") + tuple(range(3, 257))]),
    ("p3:3", ["(1,0,0)", "(0,1,0)"], [(3, 0, 0), (0, 0, -1), (0, 0, "1")]),
    ("pq:7,3,2", ["(0,1)", "(1,0)"], [(3, 0), (0, 7), (0, 1.5)]),
    ("prod:cyc:2,cyc:3", ["(1,0)", "(0,1)"], [(2, 0), (0, 3), (0, "1")]),
]


@pytest.mark.parametrize("spec, gens, non_members", STORE_CASES,
                         ids=[case[0] for case in STORE_CASES])
def test_store_matches_the_multiplication(spec, gens, non_members):
    # the store, its hooks and every reader of it agree with a closure and
    # translations computed by G.mul alone, above degree 255 as below it
    G = group_from_spec(spec)
    gens = [G.parse_element(g) for g in gens]
    els = sorted(reference_closure(G, gens))
    assert G.closure(gens) == set(els)
    assert G.elements() == els
    assert G.order() == len(els)
    assert [G.index_of(x) for x in els] == list(range(len(els)))
    assert G.elements_at(range(len(els) - 1, -1, -1)) == els[::-1]
    foreign = [None, 5, "x", b"\x01", [0, 0], (0,), (0,) * 300, els[0] + (0,)]
    others = non_members + foreign
    assert [G.index_of(g) for g in others] == [None] * len(others)
    for g in els:
        assert G.right_translation(g) == reference_translation(G, els, g)


# ---------------------------------------------------------------------------
# center

class TestConjugationCenter:
    # the center by a brute-force commutation scan (conftest.center)

    def test_center_of_heisenberg_is_generated_by_c(self):
        G = HeisenbergGroup(3)
        centre = set(center(G))
        assert centre == set(G.elements_at(G.coset_walk((0, 0, 2)).powers))
        assert len(centre) == 3

    def test_center_of_abelian_group_is_everything(self):
        G = CyclicGroup(5)
        assert center(G) == G.elements()

    def test_center_of_s3_is_trivial(self):
        G = s3()
        assert center(G) == [G.identity]


# ---------------------------------------------------------------------------
# parsing

class TestParsePermutation:
    def test_basic_cycle(self):
        assert parse_permutation("(1,2,3)", 4) == (2, 3, 1, 4)

    def test_cycle_not_starting_at_one(self):
        assert parse_permutation("(2,1,4)", 4) == (4, 1, 3, 2)

    def test_identity(self):
        assert parse_permutation("()", 4) == (1, 2, 3, 4)

    def test_whitespace_insensitive(self):
        assert parse_permutation(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == (2, 1, 4, 3)

    def test_non_disjoint_cycles_compose_left_to_right(self):
        assert parse_permutation("(1,2)(1,3)", 3) == parse_permutation("(1,2,3)", 3)

    def test_out_of_range_point(self):
        with pytest.raises(ParseError) as err:
            parse_permutation("(1,5)", 4)
        assert err.value.position == 3

    def test_repeated_point_in_cycle(self):
        with pytest.raises(ParseError) as err:
            parse_permutation("(1,2,1)", 4)
        assert err.value.position == 5

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_permutation("1,2,3", 4)

    def test_roundtrip_via_str(self):
        G = a4()
        for g in G.elements():
            assert parse_permutation(perm_str(g), 4) == g


def reference_cycle_notation(g):
    """Cycle notation by its definition: the nontrivial cycles of the
    image tuple g, each written from its least point, in order of it."""
    points = range(1, len(g) + 1)
    cycles = []
    for s in points:
        cycle = [s]
        while g[cycle[-1] - 1] != s:
            cycle.append(g[cycle[-1] - 1])
        if len(cycle) > 1 and min(cycle) == s:
            cycles.append("(" + ",".join(str(x) for x in cycle) + ")")
    return "".join(cycles) or "()"


permutations_to_12 = st.integers(1, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple))


class TestPermStr:
    @settings(max_examples=300, deadline=None)
    @given(permutations_to_12)
    def test_matches_the_reference_on_tuples_and_codes(self, g):
        assert perm_str(g) == perm_str(bytes(g)) == reference_cycle_notation(g)

    @settings(max_examples=300, deadline=None)
    @given(permutations_to_12)
    def test_parses_back(self, g):
        assert parse_permutation(perm_str(g), len(g)) == g

    def test_degree_above_255(self):
        # one 300-cycle through points past 255, a 2-cycle and fixed points
        g = list(range(1, 401))
        cycle = list(range(100, 400))
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            g[x - 1] = y
        g[0], g[1] = 2, 1
        g = tuple(g)
        text = perm_str(g)
        assert text == reference_cycle_notation(g)
        assert text == "(1,2)(" + ",".join(map(str, cycle)) + ")"
        assert parse_permutation(text, 400) == g

    def test_identity(self):
        assert perm_str((1, 2, 3)) == perm_str(b"\x01\x02\x03") == perm_str(()) == "()"


# ---------------------------------------------------------------------------
# group spec format

class TestGroupSpec:
    @pytest.mark.parametrize("spec,order", [
        ("sym:3", 6),
        ("alt:4", 12),
        ("cyc:9", 9),
        ("prod:cyc:3,cyc:3", 9),
        ("p3:3", 27),
        ("pq:7,3,2", 21),
        ("gens:4:(1,2,3,4);(1,3)", 8),
    ])
    def test_orders(self, spec, order):
        assert group_from_spec(spec).order() == order

    def test_spec_roundtrip(self):
        for spec in ["sym:3", "alt:4", "cyc:9", "prod:cyc:3,cyc:3", "p3:3", "pq:7,3,2",
                     "prod:[pq:7,3,2],cyc:3", "prod:[prod:cyc:2,cyc:2],cyc:3"]:
            assert group_from_spec(spec).spec == spec

    def test_bracketed_product_components(self):
        G = group_from_spec("prod:[pq:7,3,2],cyc:3")
        assert [c.spec for c in G.components] == ["pq:7,3,2", "cyc:3"]
        assert G.order() == 63
        # brackets only where a component spec has a comma
        assert group_from_spec("prod:[cyc:2],cyc:3").spec == "prod:cyc:2,cyc:3"
        assert group_from_spec("prod:cyc:3,gens:3:(1 2 3)").spec \
            == "prod:cyc:3,[gens:3:(1,2,3)]"

    def test_bad_specs(self):
        for spec in ["", "huh:3", "sym:x", "pq:7,3", "p3:", "prod:pq:7,3,2,cyc:3",
                     "prod:[pq:7,3,2,cyc:3", "prod:pq:7,3,2],cyc:3", "prod:]cyc:2[,cyc:3",
                     "prod:[cyc:2][cyc:3],cyc:4"]:
            with pytest.raises(ParseError):
                group_from_spec(spec)

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        st.sampled_from(["cyc:2", "cyc:3", "sym:3", "alt:4", "p3:3", "pq:7,3,2",
                         "gens:3:(1,2,3)"]).map(group_from_spec),
        lambda children: st.lists(children, min_size=2, max_size=3).map(DirectProductGroup),
        max_leaves=6))
    def test_spec_roundtrip_of_nested_products(self, group):
        parsed = group_from_spec(group.spec)
        assert parsed.spec == group.spec
        assert parsed.order() == group.order()

    def test_p3_parameter_validation(self):
        with pytest.raises(GroupError):
            HeisenbergGroup(2)
        with pytest.raises(GroupError):
            HeisenbergGroup(9)

    def test_pq_parameter_validation(self):
        with pytest.raises(GroupError):
            MetacyclicGroup(7, 2, 6)  # q must be > 2
        with pytest.raises(GroupError):
            MetacyclicGroup(7, 5, 2)  # q must divide p-1
        with pytest.raises(GroupError):
            MetacyclicGroup(7, 3, 3)  # r^q != 1 mod p
        with pytest.raises(GroupError):
            MetacyclicGroup(9, 3, 2)  # p not prime

    def test_enumeration_cap_fails_fast(self):
        G = group_from_spec("alt:16")
        with pytest.raises(ResourceCapError):
            G.check_enumerable()
        assert G.order() == math.factorial(16) // 2

    def test_cached_elements_honour_a_lowered_cap(self):
        G = group_from_spec("alt:5")
        assert len(G.elements()) == 60
        G.max_elements = 10
        with pytest.raises(ResourceCapError):
            G.elements()

    def test_memo_accessors_honour_a_lowered_cap(self):
        G = group_from_spec("alt:4")
        g = G.parse_element("(1,2,3)")
        accessors = {
            "index_of": lambda: G.index_of(g),
            "element_strs": lambda: G.element_strs([0, 5]),
            "right_translation": lambda: G.right_translation(g),
            "right_translations": lambda: G.right_translations([g, g]),
            "coset_walk": lambda: G.coset_walk(g),
        }
        for fill in accessors.values():
            fill()
        G.max_elements = 11
        for name, access in accessors.items():
            with pytest.raises(ResourceCapError):
                access()
        G.max_elements = 12
        assert all(access() is not None for access in accessors.values())

    def test_memo_matches_the_group(self):
        for spec in ("alt:4", "p3:3", "pq:7,3,2", "prod:cyc:2,cyc:3"):
            G = group_from_spec(spec)
            els = G.elements()
            assert [G.index_of(x) for x in els] == list(range(len(els)))
            assert G.element_strs(range(len(els))) == [G.element_str(x) for x in els]
            for g in els:
                rho = G.right_translation(g)
                assert [els[y] for y in rho] == [G.mul(x, g) for x in els]
                assert G.right_translation(g) is rho

    @pytest.mark.parametrize("spec", ["alt:5", "gens:5:(1,2,3,4,5);(1,2,3)", "p3:3"])
    def test_translations_asked_together_are_built_together(self, spec, monkeypatch):
        G = group_from_spec(spec)
        els = G.elements()
        a, b, c = els[1], els[-1], els[len(els) // 2]
        builds = []
        build = G._build_translations
        monkeypatch.setattr(G, "_build_translations",
                            lambda gs: builds.append(list(gs)) or build(gs))
        rho_a = G.right_translation(a)
        rhos = G.right_translations([a, b, c, b])
        assert builds == [[a], [b, c]]  # each built once; the rest in one call
        assert rhos[0] is rho_a and rhos[1] is rhos[3]
        for g, rho in zip((a, b, c), rhos):
            assert [els[y] for y in rho] == [G.mul(x, g) for x in els]

    def test_spec_sets_the_cap_of_every_group_it_builds(self):
        G = group_from_spec("prod:cyc:3,gens:3:(1 2 3)", 7)
        assert [G.max_elements] + [c.max_elements for c in G.components] == [7, 7, 7]
        with pytest.raises(ResourceCapError):
            G.elements()
        with pytest.raises(ResourceCapError):
            group_from_spec("gens:4:(1,2,3,4);(1,2)", 20)

    def test_a10_is_enumerable_by_order(self):
        G = group_from_spec("alt:10")
        assert G.check_enumerable() == 1_814_400


# ---------------------------------------------------------------------------
# the alternating-family generators

def alt_family_generators(m):
    n = 3 * m + 1
    a = parse_permutation("(" + ",".join(str(i) for i in range(1, 2 * m + 2)) + ")", n)
    pts = list(range(m + 1, 0, -1)) + list(range(2 * m + 2, 3 * m + 2))
    b = parse_permutation("(" + ",".join(map(str, pts)) + ")", n)
    return a, b


class TestAltGenerators:
    @pytest.mark.parametrize("m", [1, 2])
    def test_closure_has_alternating_order(self, m):
        n = 3 * m + 1
        a, b = alt_family_generators(m)
        G = PermClosureGroup(n, [a, b])
        assert G.order() == math.factorial(n) // 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_moved_point_overlap(self, m):
        a, b = alt_family_generators(m)
        moved_a, moved_b = ({i + 1 for i, x in enumerate(g) if x != i + 1} for g in (a, b))
        assert len(moved_a & moved_b) == m + 1

    def test_m1_generators(self):
        a, b = alt_family_generators(1)
        assert a == parse_permutation("(1,2,3)", 4)
        assert b == parse_permutation("(2,1,4)", 4)
        ab = perm_mul(a, b)
        assert perm_str(ab) == "(2,3,4)"
