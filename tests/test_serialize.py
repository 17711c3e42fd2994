import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrades.core import from_group, make_bitrade
from bitrades.errors import ParseError, ValidationError
from bitrades.groups import group_from_spec, parse_permutation
from bitrades.serialize import (
    bitrade_to_doc,
    bitrade_to_json,
    read_bitrade,
    render_bitrade,
    write_bitrade,
)

from conftest import TWO_BY_THREE_CIRC, TWO_BY_THREE_STAR
from test_structure import latin_difference_pairs


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
def relabelled_bitrades(draw):
    """A latin difference with every label replaced by a str, int or tuple
    (one form for all labels, or a form per label), the alphabets declared
    in a random order or left canonical, and a random provenance."""
    circ, star = draw(latin_difference_pairs())
    kind = draw(st.sampled_from(sorted(LABEL_FORMS) + ["mixed"]))
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

    def test_write_bitrade_writes_the_same_bytes(self, tmp_path, two_by_three):
        bt = make_bitrade([(1, "c", ("s",)), (2, "d", ("s",)), (1, "d", ("t",)),
                           (2, "c", ("t",))],
                          [(1, "c", ("t",)), (2, "d", ("t",)), (1, "d", ("s",)),
                           (2, "c", ("s",))])
        for bitrade in (bt, two_by_three):
            path = tmp_path / "bt.json"
            write_bitrade(bitrade, path)
            assert path.read_text(encoding="utf-8") == bitrade_to_json(bitrade)


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
