"""Exhaustive search for bitrade-generating triples in small groups."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import GroupTriple, from_group
from .errors import ConsistencyError, ResourceCapError, ValidationError
from .properties import (
    compute_report,
    group_orthogonal_criterion,
    group_thin_criterion,
    homogeneity,
    is_orthogonal,
    is_thin,
)

DEFAULT_SEARCH_CAP = 200


@dataclass
class SearchRecord:
    group: str
    a: str
    b: str
    c: str
    size: int
    orders: tuple
    g3: bool
    k: object
    properties: dict
    signature: str

    def to_json(self) -> dict:
        return {
            "group": self.group, "a": self.a, "b": self.b, "c": self.c,
            "size": self.size, "orders": list(self.orders), "g3": self.g3,
            "k": self.k, "properties": self.properties, "signature": self.signature,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def bitrade_signature(bitrade) -> str:
    """Stable content hash of the bitrade (alphabets and triples only, so
    that equal bitrades from different triples collide)."""
    payload = {
        "rows": [str(x) for x in bitrade.rows],
        "cols": [str(x) for x in bitrade.cols],
        "syms": [str(x) for x in bitrade.syms],
        "t_circ": sorted([str(r), str(c), str(s)] for (r, c, s) in bitrade.t_circ.triples),
        "t_star": sorted([str(r), str(c), str(s)] for (r, c, s) in bitrade.t_star.triples),
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:16]


def iter_triples(group, max_elements=None):
    """All ordered pairs (a, b) of non-identity elements with c = (ab)^-1
    also non-identity and conditions G1-G2 satisfied. G1 holds by the
    choice of c; pairs failing G2 are skipped.  ``max_elements`` caps the
    enumeration of the group (default ``DEFAULT_MAX_ELEMENTS``)."""
    els = [g for g in group.elements(max_elements) if not group.is_identity(g)]
    for a in els:
        for b in els:
            c = group.inverse(group.mul(a, b))
            if group.is_identity(c):
                continue
            try:
                yield GroupTriple(group, a, b, c)
            except ValidationError:
                continue


def search_triples(group, *, require_g3=False, k=None, checks=("thin", "orthogonal"),
                   search_cap=DEFAULT_SEARCH_CAP, minimal_cap=24, primary_cap=16,
                   max_elements=None):
    """Search records for every admissible triple, in canonical order.

    For every surviving triple the bitrade is built and the requested
    properties computed; thin and orthogonal are decided both by direct
    scan and by their group criteria, and a disagreement of the two
    verdicts raises ConsistencyError.  ``max_elements`` caps every
    enumeration of the group.
    """
    n = group.order()
    if n > search_cap:
        raise ResourceCapError(
            f"group {group.spec} has order {n}, above the search cap", search_cap)
    records = []
    for triple in iter_triples(group, max_elements):
        if k is not None and triple.orders != (k, k, k):
            continue
        g3 = triple.satisfies_g3(max_elements)
        if require_g3 and not g3:
            continue
        bitrade = from_group(group, triple.a, triple.b, triple.c,
                             max_elements=max_elements)
        properties = {}
        for check in checks:
            if check == "thin":
                direct = is_thin(bitrade)
                criterion = group_thin_criterion(triple)
                if direct.value != criterion.value:
                    raise ConsistencyError(f"thin criteria disagree on {triple}")
                properties["thin"] = direct.value
            elif check == "orthogonal":
                direct = is_orthogonal(bitrade)
                criterion = group_orthogonal_criterion(triple)
                if direct.value != criterion.value:
                    raise ConsistencyError(f"orthogonality criteria disagree on {triple}")
                properties["orthogonal"] = direct.value
            else:
                result = compute_report(bitrade, [check], minimal_cap=minimal_cap,
                                        primary_cap=primary_cap)
                for name, res in result.items():
                    properties[name] = res.value
        astr, bstr, cstr = triple.element_strs()
        hom = homogeneity(bitrade)
        records.append(SearchRecord(
            group=group.spec, a=astr, b=bstr, c=cstr,
            size=bitrade.size, orders=triple.orders, g3=g3,
            k=hom.value if hom.value != "no" else None,
            properties=properties,
            signature=bitrade_signature(bitrade),
        ))
    return records
