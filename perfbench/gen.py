"""Seeded benchmark inputs, built with the benchmark's own permutation code.

Nothing here imports the program under test, so set-up time does not move
when the program gets faster or slower, and every generated input is
checked against the group conditions before it is used.

Permutations are 1-based image tuples composed left to right, the same
encoding and convention the ``bitrade`` CLI uses, so the cycle strings
written here parse back to the same elements.
"""

from __future__ import annotations

import json
import math
import random

# give up on a degree and order that admit no valid triple, instead of
# drawing forever; the benchmark's own (n, k) took at most 183 draws on
# seeds 0-39
MAX_DRAWS = 100_000


def mul(g, h):
    """Left-to-right product: x(gh) = (xg)h."""
    return tuple(h[x - 1] for x in g)


def inverse(g):
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x - 1] = i + 1
    return tuple(out)


def identity(n):
    return tuple(range(1, n + 1))


def powers(g):
    """The cyclic subgroup <g> as its power list, identity first."""
    e = identity(len(g))
    out = [e]
    x = g
    while x != e:
        out.append(x)
        x = mul(x, g)
    return out


def order(g):
    return len(powers(g))


def is_even(g):
    seen = set()
    parity = 0
    for start in range(1, len(g) + 1):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = g[x - 1]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def cycle_str(g):
    """Cycle notation with each cycle starting at its least point; ``()``
    for the identity."""
    seen = set()
    parts = []
    for start in range(1, len(g) + 1):
        if start in seen or g[start - 1] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = g[start - 1]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = g[x - 1]
        parts.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def parse_cycles(text, n):
    """Image tuple of a product of disjoint cycles written as ``(1,2)(3,4,5)``
    or ``()``; raises ValueError on anything else."""
    image = list(range(1, n + 1))
    if text == "()":
        return tuple(image)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not cycle notation: {text!r}")
    seen = set()
    for part in text[1:-1].split(")("):
        points = [int(p) for p in part.split(",")]
        if len(points) < 2 or seen.intersection(points) \
                or not all(1 <= p <= n for p in points):
            raise ValueError(f"not disjoint cycles on 1..{n}: {text!r}")
        seen.update(points)
        for i, p in enumerate(points):
            image[p - 1] = points[(i + 1) % len(points)]
    return tuple(image)


def cycle_on(points, n):
    """The cycle visiting ``points`` in the order given, on {1..n}."""
    image = list(range(1, n + 1))
    for i, p in enumerate(points):
        image[p - 1] = points[(i + 1) % len(points)]
    return tuple(image)


def trivially_intersecting(*gs):
    """G2: the cyclic subgroups pairwise meet only in the identity."""
    sets = [set(powers(g)) for g in gs]
    return all(len(sets[i] & sets[j]) == 1
               for i in range(len(sets)) for j in range(i + 1, len(sets)))


def closure(gens, limit):
    """All products of the generators, by breadth-first right
    multiplication; stops early once more than ``limit`` are found."""
    els = {identity(len(gens[0]))}
    frontier = list(els)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in els:
                    els.add(y)
                    new.append(y)
        if len(els) > limit:
            break
        frontier = new
    return els


def alt_order(n):
    return math.factorial(n) // 2


class Triple:
    """Elements a, b, c = (ab)^-1 of A_n, with a and b generating A_n, and
    ``spec`` the ``gens:`` group spec of <a, b>.  ``elements`` is the
    closure, kept only when asked."""

    def __init__(self, n, a, b, elements=None):
        self.n = n
        self.a = a
        self.b = b
        self.c = inverse(mul(a, b))
        self.elements = elements

    @property
    def spec(self):
        return f"gens:{self.n}:{cycle_str(self.a)};{cycle_str(self.b)}"

    def strs(self):
        return cycle_str(self.a), cycle_str(self.b), cycle_str(self.c)


def homogeneous_triple(seed, n, k, keep_elements=False):
    """A seeded triple of k-cycles a, b in A_n with c = (ab)^-1 also of
    order k, G2 holding, and <a, b> = A_n (checked by closure)."""
    rng = random.Random(f"homogeneous:{n}:{k}:{seed}")
    full = alt_order(n)
    for _ in range(MAX_DRAWS):
        a = cycle_on(rng.sample(range(1, n + 1), k), n)
        b = cycle_on(rng.sample(range(1, n + 1), k), n)
        moved = {i + 1 for i in range(n) if a[i] != i + 1 or b[i] != i + 1}
        if len(moved) < n:
            continue  # a common fixed point: <a, b> is intransitive
        c = inverse(mul(a, b))
        if order(c) != k or not trivially_intersecting(a, b, c):
            continue
        els = closure([a, b], full)
        if len(els) == full:
            return Triple(n, a, b, els if keep_elements else None)
    raise ValueError(f"no {k}-homogeneous generating triple of A_{n} found")


def generating_pair(seed, n):
    """A seeded pair of even permutations generating A_n (checked by
    closure); ``c`` of the returned Triple is unused."""
    rng = random.Random(f"pair:{n}:{seed}")
    full = alt_order(n)
    for _ in range(MAX_DRAWS):
        gens = []
        while len(gens) < 2:
            points = list(range(1, n + 1))
            rng.shuffle(points)
            g = tuple(points)
            if is_even(g) and g != identity(n):
                gens.append(g)
        if len(closure(gens, full)) == full:
            return Triple(n, gens[0], gens[1])
    raise ValueError(f"no generating pair of A_{n} found")


def coset_bitrade_doc(triple):
    """The bitrade document of the coset construction on <a, b> = A_n:
    cells (gA, gB, gC), mate symbol g a^-1 C, cosets labelled by their
    least element, alphabets and triples in canonical order."""
    elements = sorted(triple.elements)

    def labels(x, tag):
        sub = powers(x)
        label_of = {}
        reps = []
        for g in elements:
            if g in label_of:
                continue
            members = [mul(g, h) for h in sub]
            rep = min(members)
            reps.append(rep)
            lab = f"{tag}:{cycle_str(rep)}"
            for y in members:
                label_of[y] = lab
        return label_of, [label_of[r] for r in sorted(reps)]

    la, rows = labels(triple.a, "A")
    lb, cols = labels(triple.b, "B")
    lc, syms = labels(triple.c, "C")
    a_inv = inverse(triple.a)
    t_circ = sorted([la[g], lb[g], lc[g]] for g in elements)
    t_star = sorted([la[g], lb[g], lc[mul(g, a_inv)]] for g in elements)
    astr, bstr, cstr = triple.strs()
    doc = {
        "rows": rows, "cols": cols, "syms": syms,
        "t_circ": t_circ, "t_star": t_star,
        "provenance": {"kind": "from-group", "group": triple.spec,
                       "a": astr, "b": bstr, "c": cstr},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
