"""``bitrade construct``, ``search``, ``table`` and ``verify`` on generated
argv.

Every run must end in an exit code 0-3 (argparse's own exit included),
never in an uncaught exception.  Each generated run passes a small
``--enum-cap``, and ``search`` a small ``--search-cap``, so no case
enumerates more than a few dozen group elements; ``verify`` reads
documents of at most 27 cells.  None of these commands starts a thread
or a process.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrades.cli import main
from bitrades.core import make_bitrade
from bitrades.families import family_from_spec
from bitrades.serialize import write_bitrade

from conftest import INTERCALATE_CIRC, INTERCALATE_STAR, _shift

GROUPS = ["cyc:1", "cyc:2", "cyc:5", "sym:1", "sym:3", "alt:4", "sym:4", "p3:3",
          "pq:7,3,2", "prod:cyc:3,cyc:3", "prod:[pq:7,3,2],cyc:2",
          "gens:4:(1,2,3,4);(1,3)", "gens:5:(1,2,3,4,5);(2,5)(3,4)", "alt:5",
          "sym:0", "gens:3:", "prod:", "pq:7,3,3", "p3:4", "heis:3"]
ELEMENTS = ["(1,2,3)", "(1,2)", "(2,3)", "(1,3,2)", "()", "(1,2,3,4)", "(1,4)(2,3)",
            "0", "1", "2", "(0,1)", "(1,0)", "(2,2)", "(1,0,0)", "(0,1,0)", "(2,2,0)",
            "(1,2,2)", "(9,9)", "(1,1"]
FAMILIES = ["zp2", "p3", "pq", "alt", "cyc"]
FAMILY_KEYS = ["p", "q", "r", "m", "k"]
CHECKS = ["thin", "orthogonal", "primary", "minimal", "separated", "homogeneous",
          "bitrade", "foo", ""]


def either(values):
    """A value from ``values`` (two times in three), or arbitrary short text."""
    return st.one_of(st.sampled_from(values), st.sampled_from(values), st.text(max_size=10))


small_int = st.integers(-3, 40).map(str)
enum_cap = st.integers(-1, 120).map(str)

family_spec = st.one_of(
    st.sampled_from(["zp2:p=3", "zp2:p=2", "p3:p=3", "pq:p=7,q=3,r=2", "alt:m=1"]),
    st.builds(lambda name, params: name + ":" + ",".join(f"{k}={v}" for k, v in params),
              st.sampled_from(FAMILIES),
              st.lists(st.tuples(st.sampled_from(FAMILY_KEYS),
                                 st.integers(-2, 10_000)), max_size=3)),
    st.text(max_size=12),
)


def options(flags):
    """Some of the flags, each with a value drawn from its strategy (a
    switch has the strategy None), as flat argv."""
    return st.fixed_dictionaries({}, optional={
        flag: st.none() if values is None else values for flag, values in flags.items()
    }).map(lambda chosen: [x for flag, value in chosen.items()
                           for x in ([flag] if value is None else [flag, value])])


formats = st.sampled_from(["json", "text", "x"])

construct_argv = st.tuples(
    st.one_of(
        family_spec.map(lambda spec: ["--family", spec]),
        st.tuples(either(GROUPS), either(ELEMENTS), either(ELEMENTS), either(ELEMENTS)).map(
            lambda t: ["--group", t[0], "--a", t[1], "--b", t[2], "--c", t[3]])),
    options({"--family": family_spec, "--c": either(ELEMENTS), "--format": formats}),
    enum_cap,
).map(lambda t: ["construct", *t[0], *t[1], "--enum-cap", t[2]])

search_argv = st.tuples(
    either(GROUPS),
    options({"--k": small_int, "--require-g3": None, "--oracle-cap": small_int,
             "--checks": st.lists(st.sampled_from(CHECKS), max_size=3).map(",".join)}),
    st.integers(-1, 24).map(str),
    enum_cap,
).map(lambda t: ["search", "--group", t[0], *t[1], "--search-cap", t[2], "--enum-cap", t[3]])

table_argv = st.tuples(
    options({"--k": st.one_of(st.lists(st.integers(-3, 41), max_size=3).map(
                 lambda ks: ",".join(map(str, ks))), st.text(max_size=8)),
             "--recompute": None, "--format": formats}),
    enum_cap,
).map(lambda t: ["table", *t[0], "--enum-cap", t[1]])

VERIFY_FAMILIES = ["zp2:p=3", "alt:m=1", "p3:p=3"]

verify_options = options({
    "--checks": st.lists(st.sampled_from(CHECKS), max_size=4).map(",".join),
    "--oracle-cap": st.integers(0, 5_000).map(str),
    "--format": formats,
})


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code


@settings(max_examples=120, deadline=None)
@given(st.one_of(construct_argv, search_argv, table_argv))
def test_generated_argv_exits_cleanly(argv):
    assert exit_code(argv) in (0, 1, 2, 3), argv


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The bitrades of ``VERIFY_FAMILIES`` and two disjoint intercalates,
    each written once as a document."""
    folder = tmp_path_factory.mktemp("documents")
    bitrades = [family_from_spec(spec).bitrade() for spec in VERIFY_FAMILIES]
    bitrades.append(make_bitrade(INTERCALATE_CIRC + _shift(INTERCALATE_CIRC, "x"),
                                 INTERCALATE_STAR + _shift(INTERCALATE_STAR, "x")))
    paths = [str(folder / f"{i}.json") for i in range(len(bitrades))]
    for bitrade, path in zip(bitrades, paths):
        write_bitrade(bitrade, path)
    return paths


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(VERIFY_FAMILIES)), verify_options)
def test_generated_verify_argv_exits_cleanly(documents, document, flags):
    argv = ["verify", documents[document], *flags]
    assert exit_code(argv) in (0, 1, 2), argv
