#!/usr/bin/env python3
"""Tour of the group machinery: elements, cyclic subgroups, cosets, centers.

Run: python demos/01_groups_and_cosets.py
"""

from bitrades import group_from_spec, parse_permutation

# Groups come from short text specs. Permutation groups use cycle notation
# with left-to-right composition; the p3/pq families use exponent tuples.
s3 = group_from_spec("sym:3")
s = parse_permutation("(1,2,3)", 3)
t = parse_permutation("(1,2)", 3)

print("s * t =", s3.element_str(s3.mul(s, t)))
print("t * s =", s3.element_str(s3.mul(t, s)))
# The cyclic subgroup <s> is the cycle of x -> xs through the identity.
print("order of s:", len(s3.coset_walk(s).powers))


# The left cosets x<g> are the cycles of the right translation x -> xg, and
# they partition the group; listed by least element, each in ascending order.
def left_cosets(G, g):
    cosets = {}
    for x, k in zip(G.elements(), G.coset_walk(g).rank):
        cosets.setdefault(k, []).append(x)
    return list(cosets.values())


print("\ncosets of <s> in S3:")
for coset in left_cosets(s3, s):
    print("  ", [s3.element_str(g) for g in coset])

print("cosets of <t> in S3:", len(left_cosets(s3, t)))

# The non-abelian group of order 27, generated by a and b with ab = ba*c
# for a central c of order 3. Its center is exactly <c>.
h = group_from_spec("p3:3")
print("\np3:3 order:", h.order())
print("a*b =", h.element_str(h.mul(h.gen_a, h.gen_b)))
print("b*a =", h.element_str(h.mul(h.gen_b, h.gen_a)))
els = h.elements()
center = [g for g in els if all(h.mul(g, x) == h.mul(x, g) for x in els)]
print("center:", [h.element_str(g) for g in center])

# Closure builds a group from explicit generators; here the two cycles
# generating the alternating group on 4 points.
s4 = group_from_spec("sym:4")
a = parse_permutation("(1,2,3)", 4)
b = parse_permutation("(2,1,4)", 4)
print("\n|<(1,2,3), (2,1,4)>| =", len(s4.closure([a, b])), "(the alternating group)")
