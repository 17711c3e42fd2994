"""Exhaustive search for bitrade-generating triples in small groups."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import GroupTriple, _cell_order, from_group
from .errors import ResourceCapError, ValidationError
from .properties import (
    DEFAULT_MINIMAL_CAP,
    _orbit,
    check_group_criteria,
    check_names,
    compute_report,
    group_homogeneity,
)
from .serialize import _COMPACT, _compact_chunks, _square_templates

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

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def bitrade_signature(bitrade, triple=None, templates=None) -> str:
    """Stable content hash of the bitrade's document without its provenance
    (alphabets and triples only, so that equal bitrades from different
    triples collide): the first 16 hex digits of the SHA-256 of its
    compact JSON text.  The label text is read off the coset walks of
    ``triple`` (``GroupTriple.written``), the group triple whose coset
    bitrade this is, if given, and the squares' text around the symbols off
    ``templates`` (``_frame``) if given; else they are made here."""
    written = None if triple is None else triple.written(_COMPACT.lists[0])
    text = "".join(_compact_chunks(bitrade, written, templates))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _frame(triple):
    """What the coset bitrades of one a and one <b> share: the cell order
    with tau1 in it (``core._cell_order`` of the walks of a and b and the
    right multiplication by a), and the compact writer's chunk templates,
    with each triple's row and column text in place (``_square_templates``)."""
    wa, wb, _ = triple.walks
    cell_order = _cell_order(wa.rank, wb.rank, len(wb.names), triple.translations[0])
    (rows, _), (cols, _), _ = triple.written(_COMPACT.lists[0])
    rows = list(map(rows.__getitem__, cell_order[2]))
    cols = list(map(cols.__getitem__, cell_order[3]))
    return cell_order, list(_square_templates(_COMPACT, rows, cols))


def _non_identity(group):
    """The elements, the identity's index and, for each non-identity
    element in index order, (its index, its right translation, the index
    of its inverse), the inverse read as the last power in its coset
    walk."""
    els = group.elements()
    identity = group.index_of(group.identity)
    others = [i for i in range(len(els)) if i != identity]
    rhos = group.right_translations([els[i] for i in others])
    inverses = [group.coset_walk(els[i]).powers[-1] for i in others]
    return els, identity, list(zip(others, rhos, inverses))


def iter_triples(group):
    """All ordered pairs (a, b) of non-identity elements with c = (ab)^-1
    also non-identity and conditions G1-G2 satisfied, the triples of one a
    together. G1 holds by the choice of c; pairs failing G2 are skipped.
    ab and its inverse are read on indices: ab from the right translation
    by b, the inverse as the last power in the coset walk of ab."""
    els, identity, others = _non_identity(group)
    inverse = [identity] * len(els)
    for i, _, i_inv in others:
        inverse[i] = i_inv
    for ia, _, _ in others:
        a = els[ia]
        for ib, rho_b, _ in others:
            ic = inverse[rho_b[ia]]
            if ic == identity:
                continue
            try:
                yield GroupTriple(group, a, els[ib], els[ic])
            except ValidationError:
                continue


def search_triples(group, *, require_g3=False, k=None, checks=("thin", "orthogonal"),
                   search_cap=DEFAULT_SEARCH_CAP, minimal_cap=DEFAULT_MINIMAL_CAP):
    """Search records for every admissible triple, in canonical order.

    Unknown check names are refused before the search starts.  For every
    triple the filters keep the bitrade is built.  G3 and the requested
    checks are decided once per conjugacy orbit of (a, b), on the orbit's
    first record.
    Conjugation by g maps the coset bitrade of (a, b, c) onto that of
    (a^g, b^g, c^g) with its rows, columns and symbols relabelled, so every
    verdict of the report holds on the whole orbit; and as <a^g, b^g> =
    <a, b>^g, so does G3.  G2, c != 1 and the orders are orbit invariants
    too, so the filters keep or skip an orbit whole.  G3 is read off the
    bitrade: the orbit of an element x under the right multiplications by
    a and b is x<a, b> = x<a, b, c> (``_orbit`` walks tau1 and tau2), so
    a, b and c generate G exactly when the structure is transitive.  The
    requested checks run as one ``compute_report`` (empty ``checks``, no
    properties), unless ``require_g3`` skips the orbit; it then skips the
    orbit's later records before their bitrades are built.  G3 and the
    report are filed under every conjugate pair as element indices
    (g^-1 x g is at rho_g[rho_x[g^-1]], from the translations and inverses
    of ``_non_identity``) and read there by the pair's record.  On every
    record, thin, orthogonal and the homogeneity degree are decided again
    by the group criteria of its own triple, and a disagreement with the
    orbit's report raises ConsistencyError.  A record's k is read off the
    subgroup orders (``group_homogeneity``); the entries are counted only
    when the checks ask for "homogeneous".  The cell order of a bitrade,
    tau1 in it and the rows and columns of its document depend only on a
    and <b>, so they are made once per a and <b> (``_frame``) and passed to
    ``from_group`` and ``bitrade_signature``; as ``iter_triples`` yields the
    triples of one a together, only the current a's frames, one per <b>,
    are kept.  A record's strings of a, b and c are those that
    ``from_group`` wrote into the bitrade's provenance.  The group's
    enumeration cap bounds every enumeration of it.
    """
    check_names(checks)
    n = group.order()
    if n > search_cap:
        raise ResourceCapError(
            f"group {group.spec} has order {n}, above the search cap", search_cap)
    records = []
    conjugators = _non_identity(group)[2]
    orbits = [None] * (n * n)  # ia * n + ib -> (G3, report) of the pair's orbit
    a = None
    for triple in iter_triples(group):
        if k is not None and triple.orders != (k, k, k):
            continue
        ia, ib, _ = triple.indices
        orbit = orbits[ia * n + ib]
        if require_g3 and orbit is not None and not orbit[0]:
            continue  # a later record of a non-generating orbit: nothing to build
        wb = triple.walks[1]
        if triple.a != a:
            a, frames = triple.a, {}  # <b> as walk B's members -> _frame
        frame = frames.get(wb.members)
        if frame is None:
            frame = frames[wb.members] = _frame(triple)
        cell_order, templates = frame
        bitrade = from_group(group, triple.a, triple.b, triple.c, cell_order=cell_order)
        if orbit is None:  # the orbit's first record
            g3 = len(_orbit(bitrade.permutation_triple)) == n
            report = {}
            if checks and (g3 or not require_g3):
                report = compute_report(bitrade, checks, minimal_cap=minimal_cap)
            orbit = (g3, report)
            rho_a, rho_b, _ = triple.translations
            # g^-1 x g is at rho_g[rho_x[g^-1]]
            for _, rho_g, g_inv in conjugators:
                orbits[rho_g[rho_a[g_inv]] * n + rho_g[rho_b[g_inv]]] = orbit
        g3, report = orbit
        if require_g3 and not g3:
            continue
        check_group_criteria(triple, report)
        prov = bitrade.provenance
        hom = group_homogeneity(triple).value
        records.append(SearchRecord(
            group=group.spec, a=prov["a"], b=prov["b"], c=prov["c"],
            size=bitrade.size, orders=triple.orders, g3=g3,
            k=hom if hom != "no" else None,
            properties={name: res.value for name, res in report.items()},
            signature=bitrade_signature(bitrade, triple, templates),
        ))
    return records
