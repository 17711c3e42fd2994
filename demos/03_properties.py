#!/usr/bin/env python3
"""Decide bitrade properties two ways: direct scans and group criteria.

Run: python demos/03_properties.py
"""

from bitrades import (
    compute_report,
    family_pq,
    family_zp2,
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    is_minimal,
    is_orthogonal,
    is_primary,
    is_separated,
    is_thin,
    pq_thin_predicate,
)

# The metacyclic group of order 21 yields a 3-homogeneous bitrade of size
# 21: every row and column holds 3 entries, every symbol occurs 3 times.
inst = family_pq(7, 3, 2)
bt = inst.bitrade()
print("pq(7,3,2):", bt.size, "cells, k =", homogeneity(bt).value)
for name, check in [("separated", is_separated), ("primary", is_primary),
                    ("thin", is_thin), ("orthogonal", is_orthogonal),
                    ("minimal", is_minimal)]:
    result = check(bt)
    print(f"  {name:<11} {result.value:<4} ({result.method})")

# The same properties read off the group alone: thinness is a statement
# about exponent solutions of a^i b^j c^k = 1, orthogonality about the
# symbol subgroup meeting its conjugate trivially.
print("\ngroup criteria agree:")
print("  thin       ", group_thin_criterion(inst.triple).value)
print("  orthogonal ", group_orthogonal_criterion(inst.triple).value)

# thin + primary forces minimality; the oracle confirms it by exhausting
# every candidate sub-trade, and a report that decides all three checks
# that they agree.
report = compute_report(bt, ("thin", "primary", "minimal"))
print("\nthin+primary => minimal, oracle-confirmed:", report["minimal"].value)

# Not every parameter choice is thin. For (p, q, r) = (23, 11, 4) the
# exponent congruence r^j + r^(j-1) = r^(i+j-1) + 1 (mod p) has extra
# solutions, and the size-253 bitrade is not thin.
result = pq_thin_predicate(23, 11, 4)
print("\npq(23,11,4) thin:", result.value, "- witness exponents", result.witness)
big = family_pq(23, 11, 4).bitrade()
print("direct scan on the 253-cell bitrade agrees:", is_thin(big).value)

# Abelian groups never give orthogonal bitrades; Z3 x Z3 in fact yields a
# full latin square, which is far from minimal.
square = family_zp2(3).bitrade()
print("\nzp2(3):", square.size, "cells;",
      "orthogonal:", is_orthogonal(square).value + ";",
      "minimal:", is_minimal(square).value)
