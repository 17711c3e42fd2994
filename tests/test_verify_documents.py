"""``bitrade verify`` on malformed and rejected documents.

The golden file ``golden/verify_rejections.jsonl`` holds, for every
document in ``DOCUMENTS`` and both output formats, the exit code, stdout
and stderr of ``bitrade verify``.  Re-record it (only when a change of
output is intended) with::

    PYTHONPATH=src python tests/test_verify_documents.py

The fuzz test writes mutated documents and requires an exit code in 0-3
with no uncaught exception.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitrades.cli import main
from bitrades.serialize import _read_writer_layout

GOLDEN = Path(__file__).with_name("golden") / "verify_rejections.jsonl"

# the 2x3 bitrade of conftest, as document triples
CIRC = [["a", "c", "f"], ["a", "d", "g"], ["a", "e", "h"],
        ["b", "c", "g"], ["b", "d", "h"], ["b", "e", "f"]]
STAR = [["a", "c", "g"], ["a", "d", "h"], ["a", "e", "f"],
        ["b", "c", "f"], ["b", "d", "g"], ["b", "e", "h"]]


def _doc(circ=CIRC, star=STAR, **extra):
    return {"t_circ": circ, "t_star": star, **extra}


def _writer_text(circ=CIRC, star=STAR):
    """The document in the writer's own layout (``json.dumps`` with indent 2
    and sorted keys, a newline at the end), which ``verify`` reads straight
    into label ranks."""
    doc = _doc(circ, star, rows=["a", "b"], cols=["c", "d", "e"], syms=["f", "g", "h"],
               provenance={})
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


DOCUMENTS = {
    # P1 of the primary square, in each coordinate pair
    "p1_row_column": _doc(circ=CIRC + [["a", "c", "h"]]),
    "p1_row_symbol": _doc(circ=CIRC + [["a", "x", "f"]]),
    "p1_column_symbol": _doc(circ=CIRC + [["x", "c", "f"]]),
    # P2 of the primary square
    "p2_empty": _doc(circ=[], star=[]),
    "p2_duplicate_declared": _doc(rows=["a", "b", "a"]),
    "p2_label_missing_from_declared": _doc(rows=["a"]),
    "p2_declared_label_unused": _doc(cols=["c", "d", "e", "z"]),
    "p2_label_in_two_alphabets": _doc(circ=CIRC[:5] + [["b", "e", "c"]],
                                      star=STAR[:3] + [["b", "c", "c"]] + STAR[4:]),
    # 1 and 1.0 are one label: the message spells it as the document first does
    "p2_alike_label_missing_from_declared": _doc(
        circ=[["r1", "c1", "s1"], ["r1", "c2", 1], ["r2", "c1", 1.0], ["r2", "c2", "s1"]],
        star=[["r1", "c1", 1], ["r1", "c2", "s1"], ["r2", "c1", "s1"], ["r2", "c2", 1]],
        syms=["s1"]),
    # the mate square and R1-R3
    "r1_mate_is_primary": _doc(star=CIRC),
    "r2_mate_dropped": _doc(star=STAR[:5]),
    "r3_mate_on_new_labels": _doc(star=STAR[:5] + [["b", "e", "q"]]),
    "r3_extra_mate_triple": _doc(star=STAR + [["x", "y", "z"]]),
    "mate_p1_clash": _doc(star=STAR[:5] + [["b", "e", "g"]]),
    "mate_label_missing_from_declared": _doc(
        star=STAR[:5] + [["b", "e", "q"]], syms=["f", "g", "h"]),
    # malformed documents
    "malformed_short_triple": _doc(circ=CIRC + [["a", "b"]]),
    "malformed_string_item": _doc(star=STAR + ["abc"]),
    "string_item_spelling_a_triple": _doc(circ=["acf"] + CIRC[1:]),
    "nested_label": _doc(circ=CIRC[:2] + [["a", ["e"], "h"]] + CIRC[3:]),
    "nested_label_object": _doc(star=STAR[:1] + [["a", "d", {"s": 1}]] + STAR[2:]),
    "nested_label_in_alphabet": _doc(rows=[["a"], "b"]),
    "missing_t_star": {"t_circ": CIRC},
    "missing_t_circ": {"t_star": STAR},
    "non_object": [CIRC, STAR],
    "t_circ_not_a_list": _doc(circ={"a": 1}),
    "rows_not_a_list": _doc(rows="ab"),
    "provenance_not_an_object": _doc(provenance="x"),
    "not_json": "{ not json",
    # the first error is named, in document order
    "nested_mate_label_before_empty_primary": _doc(circ=[], star=[["a", ["c"], "g"]]),
    "nested_label_before_bad_alphabet": _doc(circ=[["a", "c", [1]]] + CIRC[1:], rows=3),
    "malformed_mate_before_primary_clash": _doc(circ=CIRC + [["a", "c", "h"]],
                                                star=STAR + [[1, 2]]),
    "primary_clash_before_mate_clash": _doc(circ=CIRC + [["a", "c", "h"]],
                                            star=STAR[:5] + [["b", "e", "g"]]),
    # accepted: repeated triples merge, and int labels sort as numbers
    "repeated_triples": _doc(circ=CIRC + CIRC[:2], star=STAR + STAR[3:]),
    "int_labels": _doc(circ=[[10, 20, 30], [10, 21, 31], [11, 20, 31], [11, 21, 30]],
                       star=[[10, 20, 31], [10, 21, 30], [11, 20, 30], [11, 21, 31]]),
    # the writer's layout, which the byte reader declines to the label path
    "writer_layout_r1_mate_is_primary": _writer_text(star=CIRC),
    "writer_layout_foreign_mate_label": _writer_text(star=STAR[:5] + [["b", "e", "q"]]),
    "writer_layout_repeated_triple": _writer_text(circ=CIRC + CIRC[:1]),
    "writer_layout_misindented_label": _writer_text().replace(
        '    [\n      "a"', '    [\n        "a"', 1),
}
WRITER_LAYOUT = [name for name in DOCUMENTS if name.startswith("writer_layout_")]

FORMATS = {"json": [], "text": ["--format", "text"]}


def _document_text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc)


def run_verify(path, extra=()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), *extra])
    return code, out.getvalue(), err.getvalue()


def _golden_records():
    if not GOLDEN.exists():  # while recording; the coverage test fails on it
        return []
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_golden_covers_every_document():
    assert {(r["name"], r["format"]) for r in _golden_records()} \
        == {(name, fmt) for name in DOCUMENTS for fmt in FORMATS}


@pytest.mark.parametrize("record", _golden_records(),
                         ids=lambda r: f"{r['name']}-{r['format']}")
def test_golden_verify_output(tmp_path, record):
    path = tmp_path / "doc.json"
    path.write_text(_document_text(DOCUMENTS[record["name"]]), encoding="utf-8")
    code, out, err = run_verify(path, FORMATS[record["format"]])
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


def test_rejection_does_not_depend_on_the_hash_seed(tmp_path):
    # of the symbols 1 and 1.0, the message names the one the document spells first
    path = tmp_path / "doc.json"
    path.write_text(_document_text(DOCUMENTS["p2_alike_label_missing_from_declared"]),
                    encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in range(5):
        proc = subprocess.run(
            [sys.executable, "-m", "bitrades.cli", "verify", str(path)], capture_output=True,
            text=True, timeout=60,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed), "PATH": ""})
        outputs.add((proc.returncode, proc.stdout, proc.stderr))
    assert len(outputs) == 1
    ((code, out, err),) = outputs
    assert code == 1 and "'1' missing" in err


def test_writer_layout_documents_decline(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_writer_text(), encoding="utf-8")
    assert _read_writer_layout(path) is not None
    for name in WRITER_LAYOUT:
        path.write_text(DOCUMENTS[name], encoding="utf-8")
        assert _read_writer_layout(path) is None, name


# ---------------------------------------------------------------------------
# fuzzing documents

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(allow_nan=False, allow_infinity=False, width=16),
                    st.sampled_from("abcdefgh"), st.text(max_size=3))
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6)
KEYS = ("t_circ", "t_star", "rows", "cols", "syms", "provenance")


@st.composite
def mutated_documents(draw):
    """The 2x3 document with a few mutations, or a random JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(_doc(rows=["a", "b"], cols=["c", "d", "e"],
                                     syms=["f", "g", "h"], provenance={"kind": "x"})))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(KEYS))
        kind = draw(st.sampled_from(["delete", "replace", "item", "label", "append",
                                     "drop", "lengthen"]))
        value = doc.get(key)
        if kind == "delete":
            doc.pop(key, None)
        elif kind == "replace" or not isinstance(value, list) or not value:
            doc[key] = draw(JSON_VALUES)
        elif kind == "item":
            value[draw(st.integers(0, len(value) - 1))] = draw(JSON_VALUES)
        elif kind == "append":
            value.append(draw(st.one_of(JSON_VALUES, st.sampled_from(CIRC + STAR))))
        elif kind == "drop":
            del value[draw(st.integers(0, len(value) - 1))]
        else:
            i = draw(st.integers(0, len(value) - 1))
            item = value[i]
            if isinstance(item, list) and item:
                j = draw(st.integers(0, len(item) - 1))
                if kind == "label":
                    item[j] = draw(JSON_VALUES)
                else:
                    item.append(draw(SCALARS))
            else:
                value[i] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=mutated_documents(), fmt=st.sampled_from(sorted(FORMATS)))
def test_fuzzed_documents_exit_cleanly(tmp_path, doc, fmt):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_verify(path, FORMATS[fmt] + ["--oracle-cap", "8",
                                                    "--primary-cap", "8"])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


def record(path=GOLDEN):
    """Write the golden file from the program as it stands."""
    with tempfile.TemporaryDirectory() as tmp, open(path, "w", encoding="utf-8") as fh:
        doc_path = Path(tmp) / "doc.json"
        for name, doc in DOCUMENTS.items():
            doc_path.write_text(_document_text(doc), encoding="utf-8")
            for fmt, extra in FORMATS.items():
                code, out, err = run_verify(doc_path, extra)
                fh.write(json.dumps({"name": name, "format": fmt, "exit": code,
                                     "stdout": out, "stderr": err}) + "\n")


if __name__ == "__main__":
    record(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
