"""Tests of the benchmark harness itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bitrades import cli  # noqa: E402
from bitrades.core import GroupTriple  # noqa: E402
from bitrades.groups import PermClosureGroup  # noqa: E402


# ---------------------------------------------------------------------------
# the seeded generator

@pytest.mark.parametrize("n, k", [(9, 7), (8, 7), (6, 5)])
def test_homogeneous_triple_is_deterministic_and_valid(n, k):
    for seed in (0, 1):
        triple = gen.homogeneous_triple(seed, n, k, keep_elements=True)
        again = gen.homogeneous_triple(seed, n, k)
        assert (again.a, again.b, again.c) == (triple.a, triple.b, triple.c)
        a, b, c = triple.a, triple.b, triple.c
        assert gen.mul(gen.mul(a, b), c) == gen.identity(n)  # G1
        assert gen.trivially_intersecting(a, b, c)  # G2
        assert [gen.order(x) for x in (a, b, c)] == [k, k, k]
        assert len(triple.elements) == gen.alt_order(n)
        assert all(gen.is_even(x) for x in (a, b))
        # the program accepts the same elements and finds the same order
        group = PermClosureGroup(n, [a, b])
        assert group.order() == gen.alt_order(n)
        GroupTriple(group, a, b, c)
    assert gen.homogeneous_triple(0, n, k).a != gen.homogeneous_triple(1, n, k).a


@pytest.mark.parametrize("n", [4, 5])
def test_generating_pair_is_deterministic_and_generates(n):
    for seed in range(3):
        pair = gen.generating_pair(seed, n)
        assert gen.generating_pair(seed, n).spec == pair.spec
        assert len(gen.closure([pair.a, pair.b], gen.alt_order(n))) == gen.alt_order(n)
        assert cli.group_from_spec(pair.spec).order() == gen.alt_order(n)


def test_cycle_strings_round_trip():
    for g in gen.closure([gen.cycle_on([1, 2, 3, 4, 5], 6), gen.cycle_on([1, 6], 6)], 720):
        assert gen.parse_cycles(gen.cycle_str(g), 6) == g
    with pytest.raises(ValueError):
        gen.parse_cycles("(1,2)(2,3)", 6)


def test_generated_document_is_the_programs_output(tmp_path):
    triple = gen.homogeneous_triple(0, 6, 5, keep_elements=True)
    a, b, c = triple.strs()
    out = tmp_path / "doc.json"
    assert cli.main(["construct", "--group", triple.spec, "--a", a, "--b", b,
                     "--c", c, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == gen.coset_bitrade_doc(triple)


# ---------------------------------------------------------------------------
# self time

def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["child", 5.0, 9.0, 0, 0],
        ["leaf", 5.5, 6.0, 3, 0],
        ["root", 20.0, 21.0, -1, 1],
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (pytest.approx((10 - 3 - 4) + 1), 2)
    assert times["child"] == (pytest.approx((3 - 1) + (4 - 0.5)), 2)
    assert times["leaf"] == (pytest.approx(1 + 0.5), 2)


def test_pairs_tried_counts_group_triples_under_iter_triples():
    spans = [
        ["search.iter_triples", 0.0, 1.0, -1, 0],
        ["core.group_triple", 0.1, 0.2, 0, 0],
        ["core.group_triple", 0.3, 0.4, 0, 0],
        ["core.group_triple", 2.0, 3.0, -1, 0],
    ]
    assert tracing.pairs_tried(spans) == 2


# ---------------------------------------------------------------------------
# the speed probe

def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_reads_throughout_a_section_and_leaves_out_its_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with speed.Probe().section() as timed:
        busy(0.2)
    total = time.perf_counter() - started
    # a reading every 20 ms, plus the opening and closing ones
    assert timed.readings >= 5
    assert 0.19 < timed.wall < total
    assert timed.reference > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_time_scales_with_the_kernels_speed(monkeypatch):
    # a core that runs the kernel at half the reference speed does in one
    # second what the reference core does in half a second
    monkeypatch.setattr(speed, "read_kernel", lambda: 2 * speed.REFERENCE_KERNEL_S)
    with speed.Probe().section() as timed:
        busy(0.1)
    assert timed.reference == pytest.approx(timed.wall / 2)


def test_probe_section_closes_when_its_block_raises():
    probe = speed.Probe()
    with pytest.raises(RuntimeError, match="boom"):
        with probe.section() as timed:
            raise RuntimeError("boom")
    assert timed.readings == 2
    with probe.section():
        with pytest.raises(RuntimeError, match="nest"):
            with probe.section():
                pass


# ---------------------------------------------------------------------------
# tracing

def test_trace_wraps_every_import_site_and_restores_them(tmp_path):
    originals = (cli.main, cli.from_group, cli.read_bitrade)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert cli.from_group is not originals[1]
        assert cli.from_group is sys.modules["bitrades.core"].from_group
        doc = tmp_path / "doc.json"
        doc.write_text(gen.coset_bitrade_doc(
            gen.homogeneous_triple(0, 6, 5, keep_elements=True)), encoding="utf-8")
        assert cli.main(["verify", str(doc), "-o", str(tmp_path / "r.json")]) == 0
        assert cli.main(["search", "--group", "alt:4", "-o",
                         str(tmp_path / "s.jsonl")]) == 0
    finally:
        tracing.uninstall(patches)
    assert (cli.main, cli.from_group, cli.read_bitrade) == originals
    values = tracing.layer_metrics(tracer, 1, 1.0, 1.0)
    assert values["core.triple_permutations_calls"] == 2  # one verify report
    assert values["serialize.bytes_in"] == doc.stat().st_size
    # alt:4 has 11 non-identity elements; 11 pairs have ab = 1, and 102 of
    # the other 110 pass G2
    assert values["search.pairs_tried"] == 110
    assert values["search.triples_admitted"] == 102
    # from_group builds each admitted triple a second time
    assert values["core.group_triple_calls"] == 110 + 102
    assert set(values) == {name for name, _ in tracing.METRICS}
    assert all(v >= 0 for v in values.values())


# ---------------------------------------------------------------------------
# failures are counted, not raised

def construct_a6(tmp_path):
    workload = workloads.ConstructWorkload("construct_a6", 6, 5)
    workload.setup(0, tmp_path)
    return workload


def failures(workload, main):
    loop = run.Loop(workload)
    loop.run_count(main, 1)
    return [o for o in loop.outcomes() if not o.ok]


def test_correct_output_passes(tmp_path):
    assert failures(construct_a6(tmp_path), cli.main) == []


def test_corrupted_output_is_counted_as_a_failure(tmp_path, monkeypatch):
    def corrupt(bitrade):
        doc = json.loads(original(bitrade))
        doc["t_star"][0] = doc["t_circ"][0]  # the squares now share a triple
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    original = cli.bitrade_to_json
    monkeypatch.setattr(cli, "bitrade_to_json", corrupt)
    failed = failures(construct_a6(tmp_path), cli.main)
    assert len(failed) == 1
    assert any("share a triple" in p for p in failed[0].problems)


def test_wrong_exit_code_and_exception_are_failures(tmp_path):
    workload = construct_a6(tmp_path)
    assert len(failures(workload, lambda argv: 1)) == 1

    def boom(argv):
        raise RuntimeError("boom")
    failed = failures(workload, boom)
    assert len(failed) == 1 and "boom" in failed[0].problems[0]


def test_digest_mismatch_is_a_failure(tmp_path):
    workload = construct_a6(tmp_path)
    workload.expected = "0" * 64
    failed = failures(workload, cli.main)
    assert len(failed) == 1 and "digest" in failed[0].problems[0]


def test_pinned_table_counts_rebuilt_cells(tmp_path):
    workload = workloads.SmallInstancesWorkload("small")
    workload.setup(0, tmp_path)
    out = tmp_path / "table.txt"
    out.write_text(workloads.TABLE_TEXT, encoding="utf-8")
    outcome = workloads.Outcome("table", 0.0, 0.0)
    workload.check_table(outcome, out)
    assert outcome.ok and outcome.bitrades == 10
    out.write_text(workloads.TABLE_TEXT.replace("2520 *", "2520  "), encoding="utf-8")
    outcome = workloads.Outcome("table", 0.0, 0.0)
    workload.check_table(outcome, out)
    assert not outcome.ok
