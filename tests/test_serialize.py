import functools
import hashlib
import json
import os
import threading
from json.encoder import encode_basestring_ascii as escape

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitrades.core import from_group, from_permutations, make_bitrade
from bitrades.errors import ParseError, ValidationError
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.search import bitrade_signature, iter_triples
from bitrades.serialize import (
    _compact_chunks,
    _read_writer_layout,
    bitrade_to_json,
    read_bitrade,
    render_bitrade,
    write_bitrade,
)

from conftest import TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR, bitrade_to_doc
from test_structure import latin_difference_pairs, latin_differences


class TestDocuments:
    def test_doc_shape(self, two_by_three):
        doc = bitrade_to_doc(two_by_three)
        assert set(doc) == {"rows", "cols", "syms", "t_circ", "t_star", "provenance"}
        assert doc["rows"] == ["a", "b"]
        assert doc["t_circ"] == sorted(doc["t_circ"])
        assert len(doc["t_circ"]) == len(doc["t_star"]) == 6

    def test_roundtrip_identity(self, two_by_three, intercalate):
        for bt in (two_by_three, intercalate):
            assert read_bitrade(bitrade_to_json(bt)) == bt

    def test_roundtrip_via_file(self, tmp_path):
        G = group_from_spec("alt:4")
        bt = from_group(G, parse_permutation("(1,2,3)", 4),
                        parse_permutation("(2,1,4)", 4),
                        parse_permutation("(2,4,3)", 4))
        path = tmp_path / "bt.json"
        write_bitrade(bt, path)
        loaded = read_bitrade(path)
        assert loaded == bt
        assert loaded.provenance == bt.provenance
        # a second write is byte-identical
        assert path.read_text() == bitrade_to_json(loaded)

    def test_hash_equal_labels_round_trip(self):
        # rows 1.0 and 1 are one label: the alphabet keeps 1.0, the first
        circ = [(1.0, "c1", "s1"), (1, "c2", "s2"), (2, "c1", "s2"), (2, "c2", "s1")]
        star = [(1, "c1", "s2"), (1, "c2", "s1"), (2, "c1", "s1"), (2, "c2", "s2")]
        bt = make_bitrade(circ, star)
        assert bt.rows == (1.0, 2)
        text = bitrade_to_json(bt)
        back = read_bitrade(text)
        assert back.rows == ("1.0", "2")
        assert ["1.0", "c2", "s2"] in json.loads(text)["t_circ"]
        assert bitrade_to_json(back) == text

    @pytest.mark.parametrize("circ", [
        [(1, "c1", "s1"), (1, "c2", "s2"), ("1", "c1", "s2"), ("1", "c2", "s1")],
        [(1, "1", "s1"), (1, "c2", "s2"), (2, "1", "s2"), (2, "c2", "s1")],
    ], ids=["one alphabet", "two alphabets"])
    def test_labels_written_alike_refused(self, circ, tmp_path):
        swap = {"s1": "s2", "s2": "s1"}
        bt = make_bitrade(circ, [(r, c, swap[s]) for r, c, s in circ])
        path = tmp_path / "bt.json"
        path.write_text("kept")
        for write in (bitrade_to_json, lambda bt: write_bitrade(bt, path)):
            with pytest.raises(ValidationError) as err:
                write(bt)
            assert str(err.value) == 'P2: two labels are both written as "1"'
        assert path.read_text() == "kept"

    def test_raw_triple_lists_accepted(self):
        bt = read_bitrade({"t_circ": [list(t) for t in TWO_BY_THREE_CIRC],
                           "t_star": [list(t) for t in TWO_BY_THREE_STAR]})
        assert bt.size == 6

    def test_alphabet_order_preserved(self, two_by_three):
        doc = bitrade_to_doc(two_by_three)
        doc["cols"] = ["e", "d", "c"]
        bt = read_bitrade(doc)
        assert bt.cols == ("e", "d", "c")

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            read_bitrade({"t_circ": [["a", "b"]], "t_star": []})
        with pytest.raises(ParseError):
            read_bitrade('{"t_circ": 3}')
        with pytest.raises(ParseError):
            read_bitrade("{ not json")

    def test_invalid_bitrade_document(self):
        doc = {"t_circ": [list(t) for t in TWO_BY_THREE_CIRC],
               "t_star": [list(t) for t in TWO_BY_THREE_CIRC]}
        with pytest.raises(ValidationError) as err:
            read_bitrade(doc)
        assert err.value.condition == "R1"


# label forms of the relabelled bitrades below; the str form needs escaping
LABEL_FORMS = {
    "str": lambda k: f"\u00e9\"{k}",
    "int": lambda k: k,
    "tuple": lambda k: (k, "t"),
}


@st.composite
def relabelled_bitrades(draw, kinds=tuple(sorted(LABEL_FORMS)) + ("mixed",)):
    """A latin difference with every label replaced by a str, int or tuple
    (one form for all labels, or a form per label: one of ``kinds``), the
    alphabets declared in a random order or left canonical, and a random
    provenance."""
    circ, star = draw(latin_difference_pairs())
    kind = draw(st.sampled_from(kinds))
    labels = sorted({lab for t in circ for lab in t}, key=repr)
    new = {}
    for k, lab in enumerate(labels):
        form = kind if kind != "mixed" else draw(st.sampled_from(sorted(LABEL_FORMS)))
        new[lab] = LABEL_FORMS[form](k)
    circ = [tuple(new[lab] for lab in t) for t in circ]
    star = [tuple(new[lab] for lab in t) for t in star]
    declared = {}
    if draw(st.booleans()):
        for i, key in enumerate(("rows", "cols", "syms")):
            alphabet = sorted({t[i] for t in circ}, key=repr)
            declared[key] = tuple(draw(st.permutations(alphabet)))
    provenance = draw(st.dictionaries(
        st.text(max_size=3),
        st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
        max_size=3))
    return make_bitrade(circ, star, provenance=provenance, **declared)


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(relabelled_bitrades())
    def test_bytes_of_the_document(self, bitrade):
        expected = json.dumps(bitrade_to_doc(bitrade), indent=2, sort_keys=True) + "\n"
        assert bitrade_to_json(bitrade) == expected

    @settings(max_examples=200, deadline=None)
    @given(relabelled_bitrades())
    def test_compact_text_of_the_document(self, bitrade):
        # the text the search signature hashes
        doc = bitrade_to_doc(bitrade)
        del doc["provenance"]
        assert "".join(_compact_chunks(bitrade)) == json.dumps(doc, sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(relabelled_bitrades(kinds=("int", "tuple", "mixed")))
    def test_labels_other_than_str_against_the_reference(self, bitrade):
        # labels that are not all str: the writer sorts each square by its
        # label strings, the mate square by its own mate symbols
        doc = bitrade_to_doc(bitrade)
        assert bitrade_to_json(bitrade) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        del doc["provenance"]
        compact = json.dumps(doc, sort_keys=True).encode("ascii")
        assert bitrade_signature(bitrade) == hashlib.sha256(compact).hexdigest()[:16]

    def test_labels_written_alike_keep_the_sorted_signature(self):
        # rows 1 and "1" print alike, so the document would not read back and
        # the writer refuses it; the signature still hashes the document
        # sorted by label strings
        circ = [(1, "a", "x"), (1, "b", "y"), ("1", "a", "y"), ("1", "b", "x")]
        swap = {"x": "y", "y": "x"}
        bitrade = make_bitrade(circ, [(r, c, swap[s]) for r, c, s in circ])
        with pytest.raises(ValidationError):
            bitrade_to_json(bitrade)
        doc = bitrade_to_doc(bitrade)
        del doc["provenance"]
        compact = json.dumps(doc, sort_keys=True).encode("ascii")
        assert bitrade_signature(bitrade) == hashlib.sha256(compact).hexdigest()[:16] \
            == "6e1a077b8405c306"

    @pytest.mark.parametrize("per_chunk", [1, 2, 5, 12])
    def test_chunk_boundaries(self, monkeypatch, two_by_three, per_chunk):
        # a square of 12 triples cut every per_chunk triples, in both layouts
        G = group_from_spec("alt:4")
        bt = from_group(G, *(parse_permutation(t, 4) for t in ("(1,2,3)", "(2,1,4)", "(2,4,3)")))
        monkeypatch.setattr("bitrades.serialize._TRIPLES_PER_CHUNK", per_chunk)
        for bitrade in (bt, two_by_three):
            doc = bitrade_to_doc(bitrade)
            assert bitrade_to_json(bitrade) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
            del doc["provenance"]
            assert "".join(_compact_chunks(bitrade)) == json.dumps(doc, sort_keys=True)

    def test_write_bitrade_writes_the_same_bytes(self, tmp_path, two_by_three):
        bt = make_bitrade([(1, "c", ("s",)), (2, "d", ("s",)), (1, "d", ("t",)),
                           (2, "c", ("t",))],
                          [(1, "c", ("t",)), (2, "d", ("t",)), (1, "d", ("s",)),
                           (2, "c", ("s",))])
        for bitrade in (bt, two_by_three):
            path = tmp_path / "bt.json"
            write_bitrade(bitrade, path)
            assert path.read_text(encoding="utf-8") == bitrade_to_json(bitrade)


# ---------------------------------------------------------------------------
# the byte reader of the writer's layout against the json.loads path

GROUPS = ["sym:3", "alt:4", "prod:cyc:3,cyc:3", "pq:7,3,2", "gens:5:(1,2,3,4,5);(2,5)(3,4)"]
# point names whose labels need escaping: a quote, a backslash, non-ASCII
POINT_NAMES = ['p"{}', "q\\{}", "é{}", "☃{}x"]


@functools.lru_cache(maxsize=None)
def _group_triples(spec):
    group = group_from_spec(spec)
    return group, [(t.a, t.b, t.c) for t in iter_triples(group)]


@st.composite
def writer_bitrades(draw):
    """A coset bitrade of a small group, or the bitrade of the structure of
    a random small bitrade with its points renamed by names to escape."""
    if draw(st.booleans()):
        group, triples = _group_triples(draw(st.sampled_from(GROUPS)))
        return from_group(group, *draw(st.sampled_from(triples)))
    pt = draw(latin_differences()).permutation_triple
    name = draw(st.sampled_from(POINT_NAMES))
    names = [name.format(x) for x in range(len(pt.index_perms[0]))]
    return from_permutations(*({p: names[q[x]] for x, p in enumerate(names)}
                               for q in pt.index_perms))


def _label_line(lines, key, triple, i):
    """The index of the i-th label line of a triple of square ``key``."""
    return lines.index(f'  "{key}": [') + 1 + 5 * triple + 1 + i


def _alphabet_lines(lines):
    """The indices of the label lines of the three declared alphabets."""
    out = []
    for key in ("cols", "rows", "syms"):
        start = lines.index(f'  "{key}": [') + 1
        out += range(start, lines.index("  ],", start))
    return out


def _escape_one_char(line):
    """The line with its label's first ASCII letter or digit written as a
    \\u escape, or None if it has none."""
    body = line.lstrip()
    indent = line[:len(line) - len(body)]
    comma = "," if body.endswith(",") else ""
    label = json.loads(body.rstrip(","))
    for k, ch in enumerate(label):
        if ch.isascii() and ch.isalnum():
            return (indent + escape(label[:k])[:-1] + f"\\u{ord(ch):04x}"
                    + escape(label[k + 1:])[1:] + comma)
    return None


@st.composite
def perturbed(draw, text, size):
    """The writer's text with one perturbation at the byte level."""
    kind = draw(st.sampled_from([
        "none", "foreign label", "duplicate triple", "swap triples", "crlf",
        "u escape", "second t_circ", "key after t_star", "trailing text",
        "truncate", "int label", "no provenance", "null provenance", "reindent",
        "drop comma", "brace", "swap mate symbols"]))
    lines = text.split("\n")
    key = draw(st.sampled_from(["t_circ", "t_star"]))
    k = draw(st.integers(0, size - 1))
    i = draw(st.integers(0, 2))
    at = _label_line(lines, key, k, i)
    if kind == "foreign label":
        j = draw(st.sampled_from([j for j in range(3) if j != i]))
        other = lines[_label_line(lines, key, draw(st.integers(0, size - 1)), j)]
        lines[at] = other.rstrip(",") + ("" if i == 2 else ",")
    elif kind == "duplicate triple":
        first = at - 1 - i
        lines[first:first] = lines[first:first + 4] + ["    ],"]
    elif kind == "swap triples":
        other = draw(st.integers(0, size - 1))
        first, second = (_label_line(lines, key, t, -1) for t in (k, other))
        lines[first:first + 4], lines[second:second + 4] = (lines[second:second + 4],
                                                            lines[first:first + 4])
    elif kind == "swap mate symbols":  # of two mate triples in one row or one column
        line = lines[_label_line(lines, "t_star", k, i % 2)]
        other = draw(st.sampled_from([t for t in range(size) if t != k and lines[
            _label_line(lines, "t_star", t, i % 2)] == line]))
        first, second = (_label_line(lines, "t_star", t, 2) for t in (k, other))
        lines[first], lines[second] = lines[second], lines[first]
    elif kind == "u escape":
        at = draw(st.sampled_from([at, draw(st.sampled_from(_alphabet_lines(lines)))]))
        lines[at] = _escape_one_char(lines[at]) or lines[at]
    elif kind == "second t_circ":
        if draw(st.booleans()):
            lines[1:1] = ['  "t_circ": [["x", "y", "z"]],']
        else:
            lines[-3:-2] = ["  ],", '  "t_circ": []']
    elif kind == "key after t_star":
        lines[-3:-2] = ["  ],", '  "zzz": ' + draw(st.sampled_from(["1", "null", "[]"]))]
    elif kind == "int label":
        at = draw(st.sampled_from([at, draw(st.sampled_from(_alphabet_lines(lines)))]))
        indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
        lines[at] = indent + "7" + ("," if lines[at].endswith(",") else "")
    elif kind in ("reindent", "drop comma"):
        at = draw(st.integers(at - 1 - i, at + 3 - i))  # a line of the triple
        lines[at] = (draw(st.sampled_from(["", " ", "     "])) + lines[at].lstrip()
                     if kind == "reindent" else lines[at].rstrip(","))
    elif kind == "brace":
        at = draw(st.sampled_from([at - 1 - i, at + 3 - i]))  # the triple's bracket lines
        lines[at] = lines[at].replace("[", "{").replace("]", "}")
    elif kind in ("no provenance", "null provenance"):
        start = lines.index('  "provenance": {}') if '  "provenance": {}' in lines else \
            lines.index('  "provenance": {')
        end = start if lines[start].endswith("{}") else lines.index("  },", start)
        lines[start:end + 1] = [] if kind == "no provenance" else ['  "provenance": null,']
    text = "\n".join(lines)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "trailing text":
        text = text[:len(text) - draw(st.integers(0, 2))] + draw(st.sampled_from(
            ["x", "\n", " {}", "\n\n", "]"]))
    elif kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return kind, text


def _outcome(read):
    try:
        bt = read()
    except Exception as err:  # the error is the outcome compared
        return type(err), str(err), getattr(err, "violations", None)
    pt = bt.permutation_triple
    return bt.alphabets, pt.coords, pt.index_perms, bt.provenance


def _dict_path(path):
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return ParseError, f"not valid JSON: {exc}", None
    return _outcome(lambda: read_bitrade(doc))


class TestByteReader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data(), chunk=st.sampled_from([1, 100, 1 << 24]))
    def test_same_outcome_as_the_dict_path(self, tmp_path, monkeypatch, data, chunk):
        # cut the squares after every triple, after a few, or not at all
        monkeypatch.setattr("bitrades.serialize._CHUNK_BYTES", chunk)
        bitrade = data.draw(writer_bitrades())
        kind, text = data.draw(perturbed(bitrade_to_json(bitrade), bitrade.size))
        path = tmp_path / "doc.json"
        path.write_bytes(text.encode("utf-8"))
        if kind == "none":
            assert _read_writer_layout(path) is not None
        assert _outcome(lambda: read_bitrade(path)) == _dict_path(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("layout", ["writer", "compact"])
    def test_named_pipe_read_once(self, tmp_path, two_by_three, layout):
        # a pipe cannot be read a second time after a decline
        fifo = tmp_path / "doc.json"
        os.mkfifo(fifo)
        text = (bitrade_to_json(two_by_three) if layout == "writer"
                else json.dumps(bitrade_to_doc(two_by_three)))
        read = []
        threads = [threading.Thread(target=fifo.write_text, args=(text,), daemon=True),
                   threading.Thread(target=lambda: read.append(read_bitrade(fifo)), daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert read == [two_by_three]

    def test_empty_squares_decline(self, tmp_path):
        # the writer's layout with nothing in it: the integer half alone
        # would build a bitrade of size 0
        path = tmp_path / "doc.json"
        path.write_text('{\n  "cols": [\n  ],\n  "provenance": {},\n  "rows": [\n  ],\n'
                        '  "syms": [\n  ],\n  "t_circ": [\n  ],\n  "t_star": [\n  ]\n}\n',
                        encoding="utf-8")
        assert _read_writer_layout(path) is None
        with pytest.raises(ValidationError, match="at least one triple"):
            read_bitrade(path)


class TestRender:
    def test_two_by_three_grids(self, two_by_three):
        expected = (
            "∘  c  d  e    ⋆  c  d  e\n"
            "a  f  g  h    a  g  h  f\n"
            "b  g  h  f    b  f  g  h\n"
        )
        assert render_bitrade(two_by_three) == expected

    def test_empty_cells_use_middle_dot(self, nonseparated):
        text = render_bitrade(nonseparated)
        assert "·" in text

    def test_names_control_display_and_order(self, two_by_three):
        names = {"b": "row2", "a": "row1", "c": "c", "d": "d", "e": "e",
                 "f": "f", "g": "g", "h": "h"}
        text = render_bitrade(two_by_three, names=names)
        lines = text.splitlines()
        assert lines[1].startswith("row2")
        assert lines[2].startswith("row1")

    def test_deterministic(self, two_by_three):
        assert render_bitrade(two_by_three) == render_bitrade(two_by_three)
        assert bitrade_to_json(two_by_three) == bitrade_to_json(two_by_three)

    def test_json_is_canonical(self, two_by_three):
        doc = json.loads(bitrade_to_json(two_by_three))
        assert doc == bitrade_to_doc(two_by_three)
