"""Bitrade JSON documents and the canonical text renderer."""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as escape

from .core import Bitrade, make_bitrade
from .errors import ParseError


def _label_str(label):
    return label if isinstance(label, str) else str(label)


def bitrade_to_doc(bitrade: Bitrade) -> dict:
    """JSON-ready document: alphabets in canonical order, triples sorted
    lexicographically, labels as strings."""
    def triples(pls):
        return sorted([_label_str(r), _label_str(c), _label_str(s)]
                      for (r, c, s) in pls.triples)

    return {
        "rows": [_label_str(x) for x in bitrade.rows],
        "cols": [_label_str(x) for x in bitrade.cols],
        "syms": [_label_str(x) for x in bitrade.syms],
        "t_circ": triples(bitrade.t_circ),
        "t_star": triples(bitrade.t_star),
        "provenance": bitrade.provenance,
    }


_TRIPLES_PER_CHUNK = 4096


def _square_columns(bitrade, escaped):
    """For each square, the escaped row, column and symbol of its triples in
    document order (the string triples sorted).

    When every label is a str, that order is the structure's point order:
    the points are sorted by row and column rank in ``_sort_key`` order,
    which for str is plain order, and a cell holds one triple.  The mate
    triple in the cell of point x holds the symbol of tau2(x), so both
    squares come from the structure with no sort.  Other labels are taken
    from ``bitrade_to_doc``, which sorts them as strings.
    """
    if all(isinstance(lab, str) for esc in escaped for lab in esc):
        pt = bitrade.permutation_triple
        circ = [list(map([esc[lab] for lab in labels].__getitem__, coord))
                for esc, labels, coord in zip(escaped, pt.alphabets, pt.coords)]
        star = circ[:2] + [list(map(circ[2].__getitem__, pt.index_perms[1]))]
        return circ, star
    doc = bitrade_to_doc(bitrade)
    by_str = [{_label_str(lab): e for lab, e in esc.items()} for esc in escaped]
    return [[[esc[t[i]] for t in doc[key]] for i, esc in enumerate(by_str)]
            for key in ("t_circ", "t_star")]


def _square_json(columns):
    rows, cols, syms = columns
    sep = "[\n"
    for start in range(0, len(rows), _TRIPLES_PER_CHUNK):
        end = start + _TRIPLES_PER_CHUNK
        yield sep + ",\n".join([
            f"    [\n      {r},\n      {c},\n      {s}\n    ]"
            for r, c, s in zip(rows[start:end], cols[start:end], syms[start:end])])
        sep = ",\n"
    yield "\n  ]"


def _json_chunks(bitrade):
    """The text of ``json.dumps(bitrade_to_doc(bitrade), indent=2,
    sort_keys=True)`` plus a newline, in chunks, with each label escaped
    once per alphabet."""
    escaped = [{lab: escape(_label_str(lab)) for lab in labels}
               for labels in (bitrade.rows, bitrade.cols, bitrade.syms)]
    circ, star = _square_columns(bitrade, escaped)
    rows, cols, syms = ("[\n    " + ",\n    ".join(esc.values()) + "\n  ]" for esc in escaped)
    # nested one level deep: every line after the first moves two spaces in
    provenance = json.dumps(bitrade.provenance, indent=2, sort_keys=True).replace(
        "\n", "\n  ")
    yield (f'{{\n  "cols": {cols},\n  "provenance": {provenance},\n'
           f'  "rows": {rows},\n  "syms": {syms},\n  "t_circ": ')
    yield from _square_json(circ)
    yield ',\n  "t_star": '
    yield from _square_json(star)
    yield "\n}\n"


def bitrade_to_json(bitrade: Bitrade) -> str:
    return "".join(_json_chunks(bitrade))


def write_bitrade(bitrade: Bitrade, path) -> None:
    """Write ``bitrade_to_json``'s text to ``path`` chunk by chunk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(bitrade))


def _check_labels(labels, where):
    """Labels must be hashable: reject JSON arrays and objects."""
    for label in labels:
        if isinstance(label, (list, dict)):
            raise ParseError(f"label {label!r} in {where} is not a scalar")


def doc_to_bitrade(doc) -> Bitrade:
    """Validate a parsed document (or raw triple lists) as a bitrade.

    ``rows``/``cols``/``syms`` are optional; when present they fix the
    alphabet order, otherwise canonical order is inferred.
    """
    if not isinstance(doc, dict):
        raise ParseError("a bitrade document must be a JSON object")
    for key in ("t_circ", "t_star"):
        if key not in doc:
            raise ParseError(f"bitrade document is missing {key!r}")
        if not isinstance(doc[key], list):
            raise ParseError(f"{key!r} must be a list of [row, col, symbol] triples")
        for item in doc[key]:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ParseError(f"malformed triple {item!r} in {key!r}")
            _check_labels(item, f"triple {item!r} in {key!r}")

    def alphabet(key):
        value = doc.get(key)
        if value is None:
            return None
        if not isinstance(value, list):
            raise ParseError(f"{key!r} must be a list of labels")
        _check_labels(value, repr(key))
        return tuple(value)

    provenance = doc.get("provenance") or {}
    if not isinstance(provenance, dict):
        raise ParseError("'provenance' must be an object")
    return make_bitrade(
        [tuple(t) for t in doc["t_circ"]],
        [tuple(t) for t in doc["t_star"]],
        rows=alphabet("rows"), cols=alphabet("cols"), syms=alphabet("syms"),
        provenance=provenance,
    )


def read_bitrade(source) -> Bitrade:
    """Load a bitrade from a path, file object, JSON string, or dict."""
    if isinstance(source, dict):
        return doc_to_bitrade(source)
    if isinstance(source, io.IOBase):
        text = source.read()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return doc_to_bitrade(doc)


# ---------------------------------------------------------------------------
# text rendering

EMPTY_CELL = "·"


def _order(labels, names):
    if names is None:
        return list(labels)
    present = set(labels)
    ordered = [lab for lab in names if lab in present]
    ordered += [lab for lab in labels if lab not in set(ordered)]
    return ordered


def _grid_lines(pls, rows, cols, corner, display):
    cell = pls.cell_map()
    table = [[corner] + [display(c) for c in cols]]
    for r in rows:
        line = [display(r)]
        for c in cols:
            s = cell.get((r, c))
            line.append(EMPTY_CELL if s is None else display(s))
        table.append(line)
    widths = [max(len(row[i]) for row in table) for i in range(len(cols) + 1)]
    return ["  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip()
            for row in table]


def render_bitrade(bitrade: Bitrade, names=None) -> str:
    """The two grids side by side, empty cells as a middle dot.

    ``names`` optionally maps labels to display strings; its insertion
    order also fixes the presentation order of rows and columns, which is
    canonical otherwise.
    """
    display = (lambda lab: names.get(lab, str(lab))) if names else str
    rows = _order(bitrade.rows, names)
    cols = _order(bitrade.cols, names)
    left = _grid_lines(bitrade.t_circ, rows, cols, "∘", display)
    right = _grid_lines(bitrade.t_star, rows, cols, "⋆", display)
    width = max(len(line) for line in left)
    lines = [f"{l.ljust(width)}    {r}".rstrip() for l, r in zip(left, right)]
    return "\n".join(lines) + "\n"
