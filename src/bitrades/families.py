"""Group-triple families yielding k-homogeneous bitrades, plus the size table.

Each family constructor validates its parameter hypotheses, builds the
group with the given enumeration cap and the (a, b, c) triple, and records
the predicted measurements (size, homogeneity degree, thin/orthogonal/primary
flags) for downstream verification:

* ``zp2``  - Z_p x Z_p with a=(0,1), b=(1,0), c=(p-1,p-1): size p^2,
  p-homogeneous, never orthogonal (abelian);
* ``p3``   - the non-abelian group of order p^3 with a, b, b^-1 a^-1:
  size p^3, p-homogeneous, thin and orthogonal;
* ``pq``   - the non-abelian metacyclic group of order pq with b, ab,
  (bab)^-1: size pq, q-homogeneous, orthogonal, thin per the exponent
  congruence;
* ``alt``  - the alternating group on 3m+1 points generated by two
  (2m+1)-cycles, with a, b, (ab)^-1: size (3m+1)!/2, (2m+1)-homogeneous,
  thin and orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import GroupTriple, from_group
from .errors import GroupError, ParseError, ResourceCapError
from .groups import (
    CyclicGroup,
    DEFAULT_MAX_ELEMENTS,
    DirectProductGroup,
    HeisenbergGroup,
    MetacyclicGroup,
    PermClosureGroup,
    _is_prime,
    parse_permutation,
)
from .properties import (
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    pq_thin_predicate,
)


@dataclass(frozen=True)
class FamilySpec:
    """Predicted measurements of a family instance."""

    family: str
    params: tuple
    size: int
    k: int
    thin: bool
    orthogonal: bool
    primary: bool


@dataclass(frozen=True)
class FamilyInstance:
    spec: FamilySpec
    triple: GroupTriple

    def bitrade(self):
        t = self.triple
        return from_group(t.group, t.a, t.b, t.c,
                          provenance={"family": self.spec.family,
                                      "params": list(self.spec.params)})


def family_zp2(p, max_elements=None) -> FamilyInstance:
    """Z_p x Z_p with a=(0,1), b=(1,0), c=(p-1,p-1); the trade is a full
    latin square of order p."""
    if not _is_prime(p):
        raise GroupError(f"p={p} must be prime")
    G = DirectProductGroup([CyclicGroup(p), CyclicGroup(p)])
    G.max_elements = max_elements
    triple = GroupTriple(G, (0, 1), (1, 0), (p - 1, p - 1))
    spec = FamilySpec("zp2", (p,), p * p, p, thin=(p == 2), orthogonal=False,
                      primary=True)
    return FamilyInstance(spec, triple)


def family_p3(p, max_elements=None) -> FamilyInstance:
    """The order-p^3 family: a, b, b^-1 a^-1 for an odd prime p."""
    G = HeisenbergGroup(p)  # rejects p = 2 and composite p
    G.max_elements = max_elements
    gamma = G.mul(G.inverse(G.gen_b), G.inverse(G.gen_a))
    triple = GroupTriple(G, G.gen_a, G.gen_b, gamma)
    spec = FamilySpec("p3", (p,), p ** 3, p, thin=True, orthogonal=True,
                      primary=True)
    return FamilyInstance(spec, triple)


def family_pq(p, q, r, max_elements=None) -> FamilyInstance:
    """The order-pq family: b, ab, (bab)^-1; thin iff the exponent
    congruence has only the trivial solutions."""
    G = MetacyclicGroup(p, q, r)  # validates all parameter hypotheses
    G.max_elements = max_elements
    a, b = G.gen_a, G.gen_b
    beta = G.mul(a, b)
    gamma = G.inverse(G.mul(G.mul(b, a), b))
    triple = GroupTriple(G, b, beta, gamma)
    thin = pq_thin_predicate(p, q, r).yes
    spec = FamilySpec("pq", (p, q, r), p * q, q, thin=thin, orthogonal=True,
                      primary=True)
    return FamilyInstance(spec, triple)


def find_r(p, q):
    """All r in 2..p-1 with r^q = 1 (mod p), ascending."""
    if not _is_prime(p):
        raise GroupError(f"p={p} must be prime")
    if not _is_prime(q):
        raise GroupError(f"q={q} must be prime")
    if (p - 1) % q != 0:
        raise GroupError(f"q={q} does not divide p-1={p - 1}")
    return [r for r in range(2, p) if pow(r, q, p) == 1]


def alt_generators(m):
    """The two cycles generating the alternating group on 3m+1 points:
    (1, 2, ..., 2m+1) and (m+1, m, ..., 1, 2m+2, ..., 3m+1)."""
    n = 3 * m + 1
    a_pts = range(1, 2 * m + 2)
    b_pts = list(range(m + 1, 0, -1)) + list(range(2 * m + 2, 3 * m + 2))
    a = parse_permutation("(" + ",".join(map(str, a_pts)) + ")", n)
    b = parse_permutation("(" + ",".join(map(str, b_pts)) + ")", n)
    return a, b


# alternating-family sizes above this print as a factorial expression, in
# the table and in cap messages
_ALT_NUMERIC_LIMIT = 10 ** 10


def alt_family_size(m):
    return math.factorial(3 * m + 1) // 2


def _half_factorial_at_most(n, limit):
    """n!/2 for n >= 2 if it is at most ``limit``, else None: the product
    stops as soon as it passes the limit, so a huge n costs a few steps."""
    size = 1
    for k in range(3, n + 1):
        size *= k
        if size > limit:
            return None
    return size


def family_alt(m, max_elements=None) -> FamilyInstance:
    """The alternating family on 3m+1 points: a, b, (ab)^-1.

    The group is materialized as the closure of the two generators, which
    doubles as the computational check that they generate the whole
    alternating group.  Above the enumeration cap (m >= 4 by default) a
    ResourceCapError reports the formula size without constructing; the
    size is printed in full up to the table's numeric limit.
    """
    if m < 1:
        raise GroupError("m must be at least 1")
    cap = DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements
    n = 3 * m + 1
    size = _half_factorial_at_most(n, max(cap, _ALT_NUMERIC_LIMIT))
    if size is None or size > cap:
        shown = f"{n}!/2" if size is None else f"{n}!/2 = {size}"
        raise ResourceCapError(
            f"alternating family instance m={m} has size {shown}, "
            "above the enumeration cap", cap)
    a, b = alt_generators(m)
    G = PermClosureGroup(n, [a, b], max_elements)
    if G.order() != size:
        raise GroupError(
            f"generators produced a group of order {G.order()}, expected {size}")
    gamma = G.inverse(G.mul(a, b))
    triple = GroupTriple(G, a, b, gamma)
    spec = FamilySpec("alt", (m,), size, 2 * m + 1, thin=True, orthogonal=True,
                      primary=True)
    return FamilyInstance(spec, triple)


# each family's builder and its parameters, in the builder's order
_FAMILIES = {
    "zp2": (family_zp2, ("p",)),
    "p3": (family_p3, ("p",)),
    "pq": (family_pq, ("p", "q", "r")),
    "alt": (family_alt, ("m",)),
}


def family_from_spec(text, max_elements=None) -> FamilyInstance:
    """Parse the CLI family syntax: ``zp2:p=3``, ``p3:p=5``,
    ``pq:p=11,q=5,r=3``, ``alt:m=2``.  A parameter the family does not
    take, or one given twice, is a ParseError."""
    name, _, rest = text.strip().partition(":")
    params = {}
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq:
                raise ParseError(f"malformed family parameter {part!r} in {text!r}")
            if key in params:
                raise ParseError(f"family parameter {key!r} repeated in {text!r}")
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise ParseError(f"non-integer family parameter {part!r}") from exc
    if name not in _FAMILIES:
        raise ParseError(f"unknown family {name!r} (expected zp2, p3, pq, or alt)")
    build, names = _FAMILIES[name]
    for key in params:
        if key not in names:
            raise ParseError(f"family {name!r} has no parameter {key!r} "
                             f"(it takes {', '.join(names)})")
    for key in names:
        if key not in params:
            raise ParseError(f"family {name!r} is missing parameter {key!r}")
    return build(*(params[key] for key in names), max_elements)


# ---------------------------------------------------------------------------
# the table of minimal k-homogeneous bitrade sizes

# published reference values for odd k: the quadratic-order construction
# from the literature, and the smallest size known overall
PUBLISHED_QUADRATIC = {3: 21, 5: 75, 7: 133, 9: 243, 11: 407}
SMALLEST_KNOWN = {3: 12, 5: 55, 7: 133, 9: 243, 11: 407}

_PQ_SEARCH_LIMIT = 10_000

# the largest group whose table cell --recompute rebuilds (k <= 5)
RECOMPUTE_CAP = 2520


@dataclass
class PqCell:
    size: int
    p: int
    q: int
    r: int

    def __str__(self):
        return f"{self.size} (p={self.p},q={self.q},r={self.r})"


@dataclass
class TableRow:
    k: int
    p3: int | None
    pq: PqCell | None
    alt: int | None
    alt_display: str | None
    published: int | None
    smallest_known: int | None
    verified: dict


def best_pq_cell(q):
    """Smallest thin instance of the pq family with homogeneity q: the least
    prime p = 1 (mod q) admitting a thin r, with the least such r."""
    if not _is_prime(q) or q <= 2:
        return None
    p = q + 1
    while p <= _PQ_SEARCH_LIMIT:
        if p % q == 1 and _is_prime(p):
            thin_rs = [r for r in find_r(p, q) if pq_thin_predicate(p, q, r).yes]
            if thin_rs:
                return PqCell(p * q, p, q, thin_rs[0])
        p += 1
    return None


def predicted_table(k_values, recompute=False, max_elements=None):
    """Rows of the minimal k-homogeneous size table for odd k.

    Columns: the p^3 family (k prime), the best thin pq family instance,
    the alternating family, and the published reference values (k <= 11).
    With ``recompute``, every cell whose group fits in ``RECOMPUTE_CAP`` is
    rebuilt with enumeration cap ``max_elements`` and verified: measured size
    and homogeneity must match, and the group criteria must certify thin,
    orthogonal, and primary.
    """
    rows = []
    for k in k_values:
        if k % 2 == 0 or k < 3:
            raise GroupError(f"k={k} must be odd and at least 3")
        p3_size = k ** 3 if _is_prime(k) else None
        pq_cell = best_pq_cell(k)
        m = (k - 1) // 2
        if k <= 11:
            alt_size = alt_family_size(m)
            alt_display = (str(alt_size) if alt_size < _ALT_NUMERIC_LIMIT
                           else f"{3 * m + 1}!/2")
            published = PUBLISHED_QUADRATIC.get(k)
            smallest = SMALLEST_KNOWN.get(k)
        else:
            alt_size = alt_display = published = smallest = None
        verified = {"p3": None, "pq": None, "alt": None}
        if recompute:
            if p3_size is not None and p3_size <= RECOMPUTE_CAP:
                verified["p3"] = _verify_instance(family_p3(k, max_elements))
            if pq_cell is not None and pq_cell.size <= RECOMPUTE_CAP:
                verified["pq"] = _verify_instance(
                    family_pq(pq_cell.p, pq_cell.q, pq_cell.r, max_elements))
            if alt_size is not None and alt_size <= RECOMPUTE_CAP:
                verified["alt"] = _verify_instance(family_alt(m, max_elements))
        rows.append(TableRow(k, p3_size, pq_cell, alt_size, alt_display,
                             published, smallest, verified))
    return rows


def _verify_instance(instance: FamilyInstance):
    """Rebuild one family instance and certify its table cell."""
    bitrade = instance.bitrade()
    spec = instance.spec
    return (bitrade.size == spec.size
            and homogeneity(bitrade).value == spec.k
            and group_thin_criterion(instance.triple).yes == spec.thin
            and group_orthogonal_criterion(instance.triple).yes == spec.orthogonal
            and instance.triple.satisfies_g3())
