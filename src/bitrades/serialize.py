"""Bitrade JSON documents and the canonical text renderer."""

from __future__ import annotations

import io
import json
import os
from array import array
from collections import Counter, namedtuple
from itertools import chain
from json.encoder import encode_basestring_ascii as escape

from .core import Bitrade, _rank_structure, _ranked_alphabets, make_bitrade
from .errors import ParseError, ValidationError


def _label_str(label):
    return label if isinstance(label, str) else str(label)


_TRIPLES_PER_CHUNK = 4096


# How a writer spells a document: per list depth (the alphabets and the
# squares at 1, their triples at 2), the text that opens a list, separates
# its items and closes it; the text before the t_circ list, formatted with
# the row, column and symbol lists and the provenance; the text between the
# squares; and the text after them.  The first is json.dumps(doc, indent=2,
# sort_keys=True) plus a newline, the second json.dumps(doc, sort_keys=True)
# of a document without its provenance.
_Layout = namedtuple("_Layout", "lists head star tail")
_INDENTED = _Layout(
    (("[\n    ", ",\n    ", "\n  ]"), ("[\n      ", ",\n      ", "\n    ]")),
    '{{\n  "cols": {1},\n  "provenance": {3},\n  "rows": {0},\n  "syms": {2},\n  "t_circ": ',
    ',\n  "t_star": ', "\n}\n")
_COMPACT = _Layout((("[", ", ", "]"), ("[", ", ", "]")),
                   '{{"cols": {1}, "rows": {0}, "syms": {2}, "t_circ": ', ', "t_star": ', "}")


def _symbol_columns(pt, escaped):
    """The escaped symbol of each primary triple of a str-labelled
    structure ``pt`` in document order, and of each mate triple; ``escaped``
    holds the symbols' JSON strings in ``_sort_key`` order.  The mate
    triple in the cell of point x holds the symbol of tau2(x)."""
    syms = list(map(escaped.__getitem__, pt.coords[2]))
    return syms, list(map(syms.__getitem__, pt.index_perms[1]))


def _square_columns(bitrade, ranked):
    """The escaped row, column, symbol and mate symbol of each triple in
    document order, which sorts each square by its label strings; ``ranked``
    holds each alphabet's JSON strings in ``_sort_key`` order.

    For str labels that order is the structure's point order
    (``core._canonical_structure``), so nothing is sorted.  Other labels
    sort the primary square by the strings of (row, column, symbol) and the
    mate square by those of (row, column, mate symbol).  Both squares fill
    the same cells, so their rows and columns come out alike."""
    pt = bitrade.permutation_triple
    rows, cols = (list(map(esc.__getitem__, coord)) for esc, coord in zip(ranked[:2], pt.coords))
    syms, mates = _symbol_columns(pt, ranked[2])
    if set(map(type, chain.from_iterable(pt.alphabets))) == {str}:
        return rows, cols, syms, mates
    strs = [[_label_str(lab) for lab in labels] for labels in pt.alphabets]
    r, c, s = (list(map(labels.__getitem__, coord)) for labels, coord in zip(strs, pt.coords))
    m = list(map(s.__getitem__, pt.index_perms[1]))
    circ = sorted(range(len(r)), key=lambda x: (r[x], c[x], s[x]))
    star = sorted(range(len(r)), key=lambda x: (r[x], c[x], m[x]))
    return (*([column[x] for x in circ] for column in (rows, cols, syms)),
            [mates[x] for x in star])


def _square_templates(layout, rows, cols):
    """Per chunk of a square in ``layout`` (up to ``_TRIPLES_PER_CHUNK``
    triples), its text as a list: the text around each triple's labels,
    with its row and column (``rows[i]``, ``cols[i]``) in their slots and
    None in its symbol slot, which is every sixth item from the sixth."""
    (open_, sep, _), (t_open, t_sep, t_close) = layout.lists
    for start in range(0, len(rows), _TRIPLES_PER_CHUNK):
        end = start + _TRIPLES_PER_CHUNK
        text = [t_close + sep + t_open, None, t_sep, None, t_sep, None] * len(rows[start:end])
        text[1::6] = rows[start:end]
        text[3::6] = cols[start:end]
        if not start:
            text[0] = open_ + t_open
        yield text


def _document_chunks(bitrade, written, layout, provenance="", templates=None):
    """The bitrade's document in ``layout``, in chunks; ``written`` holds
    per alphabet its JSON strings in ``_sort_key`` order and its JSON list
    in ``layout`` (``_written``).

    A chunk is its template (``_square_templates``, made chunk by chunk
    for each square) with the symbols put in their slots by slice
    assignment.  ``templates``, if given, are the chunks' templates of a
    str-labelled structure (as ``search`` keeps them for every coset
    bitrade of one a and one <b>); each is copied."""
    (_, _, close), (_, _, t_close) = layout.lists
    yield layout.head.format(*(text for _, text in written), provenance)
    ranked = [ranked for ranked, _ in written]
    if templates is None:
        rows, cols, *squares = _square_columns(bitrade, ranked)
    else:
        squares = _symbol_columns(bitrade.permutation_triple, ranked[2])
    for column, after in zip(squares, (layout.star, layout.tail)):
        chunks = (_square_templates(layout, rows, cols) if templates is None
                  else map(list.copy, templates))
        for i, text in enumerate(chunks):
            start = i * _TRIPLES_PER_CHUNK
            text[5::6] = column[start:start + _TRIPLES_PER_CHUNK]
            yield "".join(text)
        yield t_close + close + after


def _escaped_alphabets(bitrade):
    """Per alphabet, each label's JSON string in declared order."""
    return [{lab: escape(_label_str(lab)) for lab in labels}
            for labels in bitrade.alphabets]


def _written(bitrade, escaped, layout):
    """Per alphabet, the JSON strings of ``escaped`` (as
    ``_escaped_alphabets`` makes them) in ``_sort_key`` order, and their
    JSON list in declared order as ``layout`` spells it.  A coset walk
    keeps the same pair for its alphabet (``CosetWalk.written``)."""
    open_, sep, close = layout.lists[0]
    return [(list(map(esc.__getitem__, labels)), open_ + sep.join(esc.values()) + close)
            for esc, labels in zip(escaped, bitrade.permutation_triple.alphabets)]


def _json_chunks(bitrade):
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline, in chunks, with each label escaped once per alphabet.  ``doc``
    is the bitrade's document: its alphabets in declared order, each square
    as [row, column, symbol] lists of label strings sorted (see
    ``_square_columns``), and its provenance.  Two labels written as one
    string are refused: the document would not read back."""
    escaped = _escaped_alphabets(bitrade)
    counts = Counter(e for esc in escaped for e in esc.values())
    shared = [e for e, count in counts.items() if count > 1]
    if shared:
        raise ValidationError("P2", f"two labels are both written as {min(shared)}")
    # nested one level deep: every line after the first moves two spaces in
    provenance = json.dumps(bitrade.provenance, indent=2, sort_keys=True).replace(
        "\n", "\n  ")
    yield from _document_chunks(bitrade, _written(bitrade, escaped, _INDENTED), _INDENTED,
                                provenance)


def _compact_chunks(bitrade, written=None, templates=None):
    """The text of ``json.dumps(doc, sort_keys=True)`` for the bitrade's
    document without its provenance, in chunks; ``written`` is its
    ``_written`` text in ``_COMPACT`` and ``templates`` its chunk templates
    (``_document_chunks``), if given."""
    return _document_chunks(
        bitrade, written or _written(bitrade, _escaped_alphabets(bitrade), _COMPACT), _COMPACT,
        templates=templates)


def bitrade_to_json(bitrade: Bitrade) -> str:
    return "".join(_json_chunks(bitrade))


def write_bitrade(bitrade: Bitrade, path) -> None:
    """Write ``bitrade_to_json``'s text to ``path`` chunk by chunk."""
    chunks = _json_chunks(bitrade)
    head = next(chunks)  # a refused bitrade leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(chunks)


def _check_labels(labels, where):
    """Labels must be hashable: reject JSON arrays and objects."""
    for label in labels:
        if isinstance(label, (list, dict)):
            raise ParseError(f"label {label!r} in {where} is not a scalar")


def _check_document(doc):
    """Raise the first ParseError of a document, in document order: item by
    item, each triple's shape and labels, then the provenance and the
    declared alphabets."""
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
    if not isinstance(doc.get("provenance") or {}, dict):
        raise ParseError("'provenance' must be an object")
    for key in ("rows", "cols", "syms"):
        value = doc.get(key)
        if value is not None:
            if not isinstance(value, list):
                raise ParseError(f"{key!r} must be a list of labels")
            _check_labels(value, repr(key))


def _well_typed(doc):
    """Whether a document passes ``_check_document``'s checks of types.
    A triple of another length makes ``make_bitrade`` raise, and a list or
    object label makes its sets raise TypeError."""
    if not isinstance(doc, dict):
        return False
    for key in ("t_circ", "t_star"):
        items = doc.get(key)
        if not isinstance(items, list) or not set(map(type, items)) <= {list, tuple}:
            return False
    return (isinstance(doc.get("provenance") or {}, dict)
            and all(isinstance(doc.get(key), (list, type(None)))
                    for key in ("rows", "cols", "syms")))


def doc_to_bitrade(doc) -> Bitrade:
    """Validate a parsed document (or raw triple lists) as a bitrade.

    ``rows``/``cols``/``syms`` are optional; when present they fix the
    alphabet order, otherwise canonical order is inferred.  The parsed
    lists go to ``make_bitrade`` as they are, after a check of their types.
    Only a rejection runs the item-by-item scan (``_check_document``), which
    names a malformed triple or a nested label before any violated
    condition.
    """
    try:
        if not _well_typed(doc):
            _check_document(doc)
        return make_bitrade(doc["t_circ"], doc["t_star"], doc.get("rows"),
                            doc.get("cols"), doc.get("syms"),
                            provenance=doc.get("provenance") or {})
    except (ValidationError, TypeError):
        _check_document(doc)
        raise


# the writer's layout around the two squares (``_json_chunks``)
_HEAD = b'{\n  "cols": [\n'
_CIRC = b'\n  "t_circ": [\n'
_STAR = b'\n  ],\n  "t_star": [\n'
_TAIL = b'\n  ]\n}\n'
_HEADER_KEYS = {"cols", "provenance", "rows", "syms"}
_CHUNK_BYTES = 1 << 24


def _square_ranks(data, start, end, lines):
    """The row, column and symbol ranks of the triples written in
    ``data[start:end]``, or None unless every triple is the writer's five
    lines.  ``lines`` maps each coordinate's written label line to its
    rank.  The text is split in chunks of about ``_CHUNK_BYTES`` cut after
    a triple's closing line."""
    coords = (array("i"), array("i"), array("i"))
    while start < end:
        stop = data.find(b"\n    ],\n", start + _CHUNK_BYTES, end)
        last = stop < 0
        stop = end if last else stop + len(b"\n    ],")
        chunk = data[start:stop].split(b"\n")
        start = stop + 1
        k, extra = divmod(len(chunk), 5)
        if (extra or chunk[0::5].count(b"    [") != k
                or chunk[4::5].count(b"    ],") != k - last
                or chunk[-1] != (b"    ]" if last else b"    ],")):
            return None
        try:
            for coord, ranks, i in zip(coords, lines, (1, 2, 3)):
                coord.extend(map(ranks.__getitem__, chunk[i::5]))
        except KeyError:  # a line that is no label line of its coordinate
            return None
    return coords


def _read_writer_layout(path):
    """The bitrade of the document at ``path`` when it is in exactly the
    layout ``_json_chunks`` writes, read from bytes straight to label ranks;
    None otherwise, and for every document the label path must name or
    merge.

    Only the header before ``"t_circ"`` goes through ``json``.  It must hold
    exactly the three alphabets, as lists of str with no label repeated or
    shared, and an object provenance.  Each written label line maps to the
    label's ``_sort_key`` rank, one dict per coordinate, so a label spelled
    otherwise (a ``\\u`` escape, another indent) or missing from its
    alphabet declines, as does any other line, a CRLF or anything after
    the ``t_star`` block.  The ranks go to the integer half of
    ``make_bitrade`` (``core._rank_structure``), whose None (a repeated
    triple, which the label path merges, or a rejected pair) declines too.
    An accepted document is thus equal to its ``json.loads`` reading, and
    ``make_bitrade`` would build the same bitrade from it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    circ_at = data.find(_CIRC)
    star_at = data.find(_STAR, circ_at)
    if (not data.startswith(_HEAD) or not data.endswith(_TAIL) or circ_at < 0
            or star_at < 0 or data[circ_at - 1:circ_at] != b","):
        return None
    try:
        header = json.loads(data[:circ_at - 1] + b"}")
    except (ValueError, RecursionError):
        return None
    if header.keys() != _HEADER_KEYS or not isinstance(header["provenance"], dict):
        return None
    alphabets = tuple(header[key] for key in ("rows", "cols", "syms"))
    if not all(isinstance(a, list) and all(type(lab) is str for lab in a) for a in alphabets):
        return None
    ranked = _ranked_alphabets(alphabets)
    if ranked is None:
        return None
    lines = [{f"      {escape(lab)}{end}".encode(): rank for rank, lab in enumerate(alphabet)}
             for alphabet, end in zip(ranked, (",", ",", ""))]
    circ = _square_ranks(data, circ_at + len(_CIRC), star_at, lines)
    star = None if circ is None else _square_ranks(
        data, star_at + len(_STAR), len(data) - len(_TAIL), lines)
    del data, lines  # not held beside the integer half
    if star is None:
        return None
    structure = _rank_structure(ranked, circ, star)
    if structure is None:
        return None
    return Bitrade(tuple(map(tuple, alphabets)), structure, header["provenance"])


def read_bitrade(source) -> Bitrade:
    """Load a bitrade from a path, file object, JSON string, or dict.

    A str that names a regular file is a path, even when it starts with
    "{"; any other str that does is the document's text.  A path to a
    regular file in the writer's own layout is read straight into label
    ranks (``_read_writer_layout``); every other document goes through
    ``json.loads`` and ``doc_to_bitrade``, with the same result."""
    if isinstance(source, dict):
        return doc_to_bitrade(source)
    if isinstance(source, io.IOBase):
        text = source.read()
    elif (isinstance(source, str) and source.lstrip().startswith("{")
          and not os.path.isfile(source)):
        text = source
    else:
        # a document that declines is read a second time, so not from a pipe
        bitrade = _read_writer_layout(source) if os.path.isfile(source) else None
        if bitrade is not None:
            return bitrade
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"not valid JSON: {exc}") from exc
    del text  # not held beside the parsed document while it is validated
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
    cell = {(r, c): s for (r, c, s) in pls.triples}
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
