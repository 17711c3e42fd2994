"""The benchmark workloads: CLI commands on generated inputs, and the
checks every command's output must pass.

A workload's ``setup`` builds its inputs from the seed with the
benchmark's own code (``gen``); ``iteration`` then runs its commands
through ``bitrades.cli.main`` in this process, one after another, and
checks each output.  Only the ``main`` calls are timed, by a
``speed.Probe`` that gives wall and reference seconds.  A wrong exit code,
an exception or a failed check marks the command as failed; it never stops
the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import speed

DIGESTS_PATH = Path(__file__).with_name("digests.json")

PROBE = speed.Probe()

# `bitrade table --recompute` at the seed commit; the values are those
# pinned by acceptance criterion 3, and the stars mark the rebuilt cells
TABLE_TEXT = """\
k   p3      pq                      alt         published  smallest known
3   27 *    21 (p=7,q=3,r=2) *      12 *        21         12
5   125 *   55 (p=11,q=5,r=3) *     2520 *      75         55
7   343 *   203 (p=29,q=7,r=7) *    1814400     133        133
9   N/A     N/A                     3113510400  243        243
11  1331 *  737 (p=67,q=11,r=14) *  16!/2       407        407
* rebuilt and verified: thin, orthogonal, primary
"""


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """One command: its timed duration in wall and in reference seconds
    (see ``speed``), the work it did, and any problems its output showed."""

    name: str
    elapsed: float
    reference: float
    cells: int = 0
    bitrades: int = 0
    problems: list = field(default_factory=list)
    digest: str | None = None

    @property
    def ok(self):
        return not self.problems


def run_command(main, name, argv):
    """Call the CLI in-process; returns (Outcome, exit code, stderr text).
    Only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with PROBE.section() as timed, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # any exception from the program is a failed operation
        return (Outcome(name, timed.wall, timed.reference,
                        problems=[traceback.format_exc()]), None, "")
    outcome = Outcome(name, timed.wall, timed.reference)
    if out.getvalue():
        outcome.problems.append(f"unexpected stdout: {out.getvalue()[:200]!r}")
    return outcome, code, err.getvalue()


def finish(outcome, code, stderr, check, *args):
    """Apply ``check`` to a command that exited 0; any exception in the
    check counts as a problem."""
    if outcome.problems:
        return outcome
    if code != 0:
        outcome.problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
        return outcome
    try:
        check(outcome, *args)
    except Exception:  # a malformed output is a failed operation
        outcome.problems.append(traceback.format_exc())
    return outcome


def check_digest(outcome, data, expected):
    outcome.digest = sha256(data)
    if expected is not None and outcome.digest != expected:
        outcome.problems.append(
            f"output digest {outcome.digest} differs from the seed commit's {expected}")


def alphabet_problems(labels, tag, n, count):
    """Labels must be ``tag:<least coset element>``, distinct, and in
    canonical (ascending element) order."""
    problems = []
    if len(labels) != count or len(set(labels)) != count:
        problems.append(f"{tag} alphabet has {len(labels)} labels "
                        f"({len(set(labels))} distinct), expected {count}")
    if not all(lab.startswith(tag + ":") for lab in labels):
        problems.append(f"{tag} alphabet has a label without the {tag}: prefix")
        return problems
    reps = [gen.parse_cycles(lab[2:], n) for lab in labels]
    if any(x >= y for x, y in zip(reps, reps[1:])):
        problems.append(f"{tag} alphabet is not in canonical order")
    return problems


class ConstructWorkload:
    """``bitrade construct --group gens:n:...`` on a seeded k-homogeneous
    triple generating A_n, writing the bitrade as JSON."""

    def __init__(self, name, n, k):
        self.name = name
        self.n = n
        self.k = k
        self.size = gen.alt_order(n)

    def setup(self, seed, workdir):
        self.triple = gen.homogeneous_triple(seed, self.n, self.k)
        self.out = workdir / f"{self.name}.json"
        self.expected = load_digests().get(self.name, {}).get(str(seed))

    def argv(self):
        a, b, c = self.triple.strs()
        return ["construct", "--group", self.triple.spec, "--a", a, "--b", b,
                "--c", c, "-o", str(self.out)]

    def iteration(self, main):
        outcome, code, stderr = run_command(main, "construct", self.argv())
        return [finish(outcome, code, stderr, self.check, stderr)]

    def check(self, outcome, stderr):
        n, k, size = self.n, self.k, self.size
        data = self.out.read_bytes()
        self.out.unlink()
        problems = outcome.problems
        lines = stderr.splitlines()
        summary = (f"size={size} rows={size // k} cols={size // k} "
                   f"syms={size // k} k={k}")
        if lines != [summary]:
            problems.append(f"stderr {stderr!r}, expected {summary!r}")
        doc = json.loads(data)
        astr, bstr, cstr = self.triple.strs()
        if doc["provenance"] != {"kind": "from-group", "group": self.triple.spec,
                                 "a": astr, "b": bstr, "c": cstr}:
            problems.append(f"provenance {doc['provenance']!r}")
        alphabets = (doc["rows"], doc["cols"], doc["syms"])
        for labels, tag in zip(alphabets, "ABC"):
            problems.extend(alphabet_problems(labels, tag, n, size // k))
        for key in ("t_circ", "t_star"):
            triples = doc[key]
            if len(triples) != size:
                problems.append(f"{key} has {len(triples)} triples, expected {size}")
            if any(x >= y for x, y in zip(triples, triples[1:])):
                problems.append(f"{key} is not sorted without repeats")
            for i, labels in enumerate(alphabets):
                uses = Counter(t[i] for t in triples)
                if uses.keys() != set(labels) or set(uses.values()) != {k}:
                    problems.append(f"{key} coordinate {i} does not use each "
                                    f"label exactly {k} times")
        if set(map(tuple, doc["t_circ"])) & set(map(tuple, doc["t_star"])):
            problems.append("t_circ and t_star share a triple")
        outcome.cells = len(doc["t_circ"])
        outcome.bitrades = 1
        check_digest(outcome, data, self.expected)


class VerifyWorkload:
    """Default ``bitrade verify`` on the document of a seeded k-homogeneous
    triple generating A_n, built in set-up by the benchmark's own code."""

    CHECKS = {"bitrade", "separated", "primary", "thin", "orthogonal",
              "homogeneous_k"}

    def __init__(self, name, n, k):
        self.name = name
        self.n = n
        self.k = k
        self.size = gen.alt_order(n)

    def setup(self, seed, workdir):
        triple = gen.homogeneous_triple(seed, self.n, self.k, keep_elements=True)
        self.doc = workdir / f"{self.name}-input.json"
        self.doc.write_text(gen.coset_bitrade_doc(triple), encoding="utf-8")
        self.out = workdir / f"{self.name}-report.json"
        self.expected = load_digests().get(self.name, {}).get(str(seed))

    def argv(self):
        return ["verify", str(self.doc), "-o", str(self.out)]

    def iteration(self, main):
        outcome, code, stderr = run_command(main, "verify", self.argv())
        return [finish(outcome, code, stderr, self.check)]

    def check(self, outcome):
        data = self.out.read_bytes()
        self.out.unlink()
        report = json.loads(data)
        problems = outcome.problems
        if set(report) != self.CHECKS:
            problems.append(f"report keys {sorted(report)}")
        for name, want in (("bitrade", "yes"), ("separated", "yes"),
                           ("primary", "yes"), ("homogeneous_k", self.k)):
            if report[name]["value"] != want:
                problems.append(f"{name} = {report[name]['value']!r}, expected {want!r}")
        for name in ("thin", "orthogonal"):
            if report[name]["value"] not in ("yes", "no"):
                problems.append(f"{name} = {report[name]['value']!r}")
        outcome.cells = self.size
        outcome.bitrades = 1
        check_digest(outcome, data, self.expected)


class SmallInstancesWorkload:
    """Many small bitrades: ``search`` on a seeded generating pair of A5
    with the default checks, ``search`` with both oracles on a seeded
    generating pair of A4, and ``table --recompute``."""

    SEARCHES = (
        # (command name, degree, record count, --checks or None)
        ("search_a5", 5, 3330, None),
        ("search_a4", 4, 102, "thin,orthogonal,primary,minimal"),
    )

    def __init__(self, name):
        self.name = name

    def setup(self, seed, workdir):
        self.pairs = {name: gen.generating_pair(seed, n)
                      for name, n, _, _ in self.SEARCHES}
        self.workdir = workdir
        self.expected = load_digests().get(self.name, {}).get(str(seed), {})

    def iteration(self, main):
        outcomes = []
        for name, _, count, checks in self.SEARCHES:
            pair = self.pairs[name]
            out = self.workdir / f"{name}.jsonl"
            argv = ["search", "--group", pair.spec, "-o", str(out)]
            if checks:
                argv += ["--checks", checks]
            outcome, code, stderr = run_command(main, name, argv)
            outcomes.append(finish(outcome, code, stderr, self.check_search,
                                   stderr, out, pair, count,
                                   (checks or "thin,orthogonal").split(",")))
        out = self.workdir / "table.txt"
        outcome, code, stderr = run_command(
            main, "table", ["table", "--recompute", "-o", str(out)])
        outcomes.append(finish(outcome, code, stderr, self.check_table, out))
        return outcomes

    def check_search(self, outcome, stderr, out, pair, count, checks):
        data = out.read_bytes()
        out.unlink()
        problems = outcome.problems
        n = pair.n
        order = gen.alt_order(n)
        if stderr != f"{count} triples found in {pair.spec}\n":
            problems.append(f"stderr {stderr!r}")
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        if len(records) != count:
            problems.append(f"{len(records)} records, expected {count}")
        e = gen.identity(n)
        for rec in records:
            a, b, c = (gen.parse_cycles(rec[x], n) for x in "abc")
            bad = []
            if rec["group"] != pair.spec or rec["size"] != order:
                bad.append("group or size")
            if gen.mul(gen.mul(a, b), c) != e or not gen.trivially_intersecting(a, b, c):
                bad.append("G1 or G2")
            if rec["orders"] != [gen.order(a), gen.order(b), gen.order(c)]:
                bad.append("orders")
            props = rec["properties"]
            if sorted(props) != sorted(checks) or \
                    not set(props.values()) <= {"yes", "no"}:
                bad.append("properties")
            elif props.get("minimal") == "no" and props.get("thin") == "yes" \
                    and props.get("primary") == "yes":
                bad.append("thin and primary but not minimal")
            if bad:
                problems.append(f"record {rec['a']} {rec['b']}: {', '.join(bad)}")
                break
        outcome.cells = sum(rec["size"] for rec in records)
        outcome.bitrades = len(records)
        check_digest(outcome, data, self.expected.get(outcome.name))

    def check_table(self, outcome, out):
        text = out.read_text(encoding="utf-8")
        out.unlink()
        if text != TABLE_TEXT:
            outcome.problems.append(f"table differs from the pinned values:\n{text}")
        # the rebuilt cells are the starred ones; their value is the size
        rebuilt = [int(cell.split()[0])
                   for line in text.splitlines()[1:-1]
                   for cell in line.split("  ") if cell.endswith(" *")]
        outcome.cells = sum(rebuilt)
        outcome.bitrades = len(rebuilt)
        check_digest(outcome, text.encode("utf-8"), self.expected.get(outcome.name))


WORKLOADS = {
    "construct_a9": lambda: ConstructWorkload("construct_a9", 9, 7),
    "verify_a8": lambda: VerifyWorkload("verify_a8", 8, 7),
    "small_instances": lambda: SmallInstancesWorkload("small_instances"),
}
NAMES = tuple(WORKLOADS)


def make(name):
    return WORKLOADS[name]()
