"""Decide bitrade properties: by direct scan, by group criteria, by oracle.

Every decision procedure returns a PropertyResult carrying the verdict, the
method that produced it, and a witness (a counterexample or certificate).
Where a property has both a combinatorial definition and a group-theoretic
criterion, both are implemented; whenever the two run on the same instance
their verdicts are checked equal rather than assumed, and a disagreement
raises ConsistencyError.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

from .core import (
    Bitrade,
    GroupTriple,
    _sort_key,
    separation_witness,
    triple_permutations,
)
from .errors import ConsistencyError
from .groups import MetacyclicGroup

DEFAULT_MINIMAL_CAP = 24
DEFAULT_PRIMARY_CAP = 16


@dataclass
class PropertyResult:
    """Outcome of one property decision.

    ``value`` is "yes", "no", "unknown", or the homogeneity degree k;
    ``method`` records how it was decided (direct-scan, group-criterion,
    orbit, oracle); ``witness`` is a counterexample or certificate.
    """

    value: object
    method: str
    witness: object = None
    elapsed: float = field(default=0.0, compare=False)

    @property
    def yes(self):
        return self.value == "yes"

    def to_json(self):
        return {"value": self.value, "method": self.method,
                "witness": _jsonable(self.witness)}


def _jsonable(obj):
    if isinstance(obj, (tuple, list, set, frozenset)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _timed(started, value, method, witness=None):
    return PropertyResult(value, method, witness, time.monotonic() - started)


# ---------------------------------------------------------------------------
# separated

def is_separated(bitrade: Bitrade) -> PropertyResult:
    """Every row, column and symbol must meet exactly one cycle of the
    corresponding triple permutation."""
    started = time.monotonic()
    witness = separation_witness(bitrade)
    if witness is None:
        return _timed(started, "yes", "direct-scan")
    return _timed(started, "no", "direct-scan", witness)


# ---------------------------------------------------------------------------
# primary

def _orbit(pt):
    """Indices of the points reachable from the first one.  Only tau1 and
    tau2 are walked: tau3 is the inverse of tau2 tau1 (Q3), and on a
    finite set an inverse is a positive power, so tau3 leads out of no
    orbit of tau1 and tau2."""
    tau1, tau2, _ = pt.index_perms
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for y in (tau1[x], tau2[x]):
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _subset_ors(masks):
    """For every subset s of range(len(masks)), as a bitmask, the OR of
    ``masks[i]`` over the bits i of s."""
    table = [0]
    for m in masks:
        table += [t | m for t in table]
    return table


def primary_exhaustive(bitrade: Bitrade):
    """Definitional search: try every nonempty proper subset of the primary
    triples as a sub-bitrade with its forced mate triples.

    Returns (is_primary, witness_subset), the witness from the least subset
    bitmask.  Exponential in time; callers cap the size.
    """
    pt = bitrade.permutation_triple
    _, tau2, tau3 = pt.index_perms
    n = len(tau2)
    # mate triple x is the one in the cell of primary triple x; it agrees
    # with x outside the symbol, with tau2(x) outside the row and with
    # tau3(tau2(x)) outside the column, and a sub-bitrade holding one of
    # these three holds its mate and so all three.  So a subset is a
    # sub-bitrade exactly when it contains forced[x] for each of its x,
    # where forced[x] is every primary triple needed by a mate of x
    forced = [0] * n
    for x in range(n):
        trio = (x, tau2[x], tau3[tau2[x]])
        need = 1 << trio[0] | 1 << trio[1] | 1 << trio[2]
        for y in trio:
            forced[y] |= need
    # a subset is hi << h | lo; the OR of forced over it is the OR of one
    # entry of each half's table, so tables of 2^h and 2^(n-h) entries
    # stand for all 2^n, and the four tests below are the condition split
    # by half
    h = n // 2
    low = (1 << h) - 1
    lo_or = _subset_ors(forced[:h])
    hi_or = _subset_ors(forced[h:])
    closed_lo = [lo for lo, f in enumerate(lo_or) if f & low & ~lo == 0]
    full = (1 << n) - 1
    for hi, f in enumerate(hi_or):
        if (f >> h) & ~hi:
            continue
        f &= low
        for lo in closed_lo:
            if f & ~lo == 0 and (lo_or[lo] >> h) & ~hi == 0:
                mask = hi << h | lo
                if 0 < mask < full:
                    return False, tuple(pt[i] for i in range(n) if mask >> i & 1)
    return True, None


def is_primary(bitrade: Bitrade, definitional_cap=DEFAULT_PRIMARY_CAP) -> PropertyResult:
    """No proper sub-bitrade exists.

    Decided by orbit transitivity of the triple permutations; on separated
    input this is exact.  Up to ``definitional_cap`` triples the exhaustive
    subset search also runs, and a disagreement raises ConsistencyError.
    For non-separated input the orbit method alone reports "unknown".
    """
    started = time.monotonic()
    pt = triple_permutations(bitrade)
    orbit = _orbit(pt)
    transitive = len(orbit) == bitrade.size
    separated = separation_witness(bitrade, pt) is None
    exhaustive = None
    if bitrade.size <= definitional_cap:
        exhaustive = primary_exhaustive(bitrade)
        if exhaustive[0] != transitive:
            raise ConsistencyError("orbit method disagrees with the definitional search")
    if separated or exhaustive is not None:
        method = "orbit" if separated else "oracle"
        if transitive:
            return _timed(started, "yes", method)
        witness = tuple(map(pt.__getitem__, sorted(orbit)))
        return _timed(started, "no", method, witness)
    return _timed(started, "unknown", "orbit")


# ---------------------------------------------------------------------------
# thin / orthogonal
#
# Both scans run on label positions (see PermutationTriple.coords): a cell is
# a (row, column) position pair, and since positions follow the canonical
# label order, the least violation over positions is the least over labels.
# The points are in cell order, so a later point never has a lesser cell.

def _cell_witness(pt, violation):
    rows, cols = pt.alphabets[0], pt.alphabets[1]
    r1, c1, r2, c2 = violation
    return (rows[r1], cols[c1], rows[r2], cols[c2])


def is_thin(bitrade: Bitrade) -> PropertyResult:
    """Whenever two cells of the trade hold the same symbol, the mate square
    is undefined or holds that symbol at the two crossing cells.

    Decided once per cell on the symbol sets R(r) of each row and C(c) of
    each column.  Lemma: the cell (r, c) of primary triple x holds x's
    symbol and its mate symbol, which differ (R1) and both lie in R(r) and
    C(c) (R2/R3: the two squares have the same row-symbol and column-symbol
    pairs), so |R(r) ∩ C(c)| >= 2.  Two cells (r, c') and (r', c) holding a
    symbol s cross at (r, c), and s lies in R(r) ∩ C(c) without being the
    symbol of (r, c), as row r holds s once (P1); thinness asks that it be
    the mate symbol there.  Conversely a symbol of the meet lies in two
    such cells.  So a violation is a third symbol in the meet of a filled
    cell, and the bitrade is thin exactly when every meet has two.  Only a
    "no" names its witness: the least violation, which lies in the first
    row with a larger meet, built from that row's extra symbols."""
    started = time.monotonic()
    pt = bitrade.permutation_triple
    rows, cols, syms = pt.coords
    row_syms = [set() for _ in pt.alphabets[0]]
    col_syms = [[] for _ in pt.alphabets[1]]
    for r, c, s in zip(rows, cols, syms):
        row_syms[r].add(s)
        col_syms[c].append(s)
    meets = list(map(len, map(set.intersection, map(row_syms.__getitem__, rows),
                              map(col_syms.__getitem__, cols))))
    if min(meets) < 2:
        raise ConsistencyError("a filled cell's row and column share fewer than two "
                               "symbols, though they share its symbol and its mate symbol")
    if max(meets) == 2:
        return _timed(started, "yes", "direct-scan")
    r = min(rows[x] for x, k in enumerate(meets) if k > 2)
    in_row = [x for x, row in enumerate(rows) if row == r]
    col_of = {syms[x]: cols[x] for x in in_row}  # each symbol of row r, at its column
    ns = len(pt.alphabets[2])
    wanted = set(col_of.values())
    row_of = {c * ns + s: row for row, c, s in zip(rows, cols, syms)
              if c in wanted}  # (column, symbol) -> row, for the columns of row r
    tau2 = pt.index_perms[1]
    violations = []
    for w in in_row:
        c = cols[w]
        own = (syms[w], syms[tau2[w]])
        violations.extend((r, col_of[s], row_of[c * ns + s], c)
                          for s in row_syms[r].intersection(col_syms[c]) if s not in own)
    return _timed(started, "no", "direct-scan", _cell_witness(pt, min(violations)))


def is_orthogonal(bitrade: Bitrade) -> PropertyResult:
    """Two cells with equal trade symbols never hold equal mate symbols:
    the n (symbol, mate symbol) pairs, keyed as one int, are distinct.

    The mate triple in the cell of primary triple x agrees with tau2(x) in
    column and symbol (see ``core._rank_structure``), so a cell's pair is
    read off the structure; a repeated key is two cells with equal trade
    and equal mate symbols."""
    started = time.monotonic()
    pt = bitrade.permutation_triple
    rows, cols, syms = pt.coords
    ns = len(pt.alphabets[2])
    keys = [s * ns + syms[z] for s, z in zip(syms, pt.index_perms[1])]
    if len(set(keys)) == len(keys):
        return _timed(started, "yes", "direct-scan")
    classes = {}
    for x, key in enumerate(keys):
        classes.setdefault(key, []).append(x)
    # in cell order, the least pair of a class is its first two points
    x, y = min(xs[:2] for xs in classes.values() if len(xs) > 1)
    return _timed(started, "no", "direct-scan",
                  _cell_witness(pt, (rows[x], cols[x], rows[y], cols[y])))


# ---------------------------------------------------------------------------
# homogeneity

def homogeneity(bitrade: Bitrade) -> PropertyResult:
    """The unique k such that every row and column holds k entries and every
    symbol occurs k times, else "no" with the first deviating label."""
    started = time.monotonic()
    pt = bitrade.permutation_triple
    counts = [Counter(coord) for coord in pt.coords]  # per rank; every rank occurs (P2)
    baseline = counts[0][pt.alphabets[0].index(bitrade.rows[0])]
    for coord, labels, ranked, count in zip(("row", "column", "symbol"), bitrade.alphabets,
                                            pt.alphabets, counts):
        if set(count.values()) == {baseline}:
            continue
        # only to name the first deviating label, in declared order
        by_label = dict(zip(ranked, map(count.__getitem__, range(len(ranked)))))
        for lab in labels:
            if by_label[lab] != baseline:
                return _timed(started, "no", "direct-scan", (coord, lab, by_label[lab], baseline))
    return _timed(started, baseline, "direct-scan")


# ---------------------------------------------------------------------------
# group criteria

def group_thin_criterion(triple: GroupTriple) -> PropertyResult:
    """Thin iff the only exponent solutions of a^i b^j c^k = 1 are (0,0,0)
    and (1,1,1), exponents taken modulo the element orders.

    On element indices: from each power a^i the triple's right translation
    by b walks a^i b^j, and the only candidate k is the exponent of
    (a^i b^j)^-1 among the powers of c, looked up as a^i b^j = c^-k.  One
    product in the group confirms each solution found, on elements read
    from the group's store (``Group.elements_at``)."""
    started = time.monotonic()
    G = triple.group
    wa, wb, wc = triple.walks
    rho_b = triple.translations[1]
    oc = len(wc.powers)
    c_exponent = {g: -m % oc for m, g in enumerate(wc.powers)}
    found = []
    for i, x in enumerate(wa.powers):
        for j in range(len(wb.powers)):
            k = c_exponent.get(x)
            if k is not None:
                found.append((i, j, k, x))
            x = rho_b[x]
    # a^i b^j and c^k of each solution found, read in one call
    ends = G.elements_at([y for _, _, k, x in found for y in (x, wc.powers[k])])
    identity = G.identity
    solutions = [(i, j, k) for (i, j, k, _), x, y in zip(found, ends[::2], ends[1::2])
                 if G.mul(x, y) == identity]
    extra = [s for s in solutions if s not in ((0, 0, 0), (1, 1, 1))]
    if not extra:
        if solutions != [(0, 0, 0), (1, 1, 1)]:
            raise ConsistencyError(
                "abc = 1 but the exponent search misses (0,0,0) or (1,1,1)")
        return _timed(started, "yes", "group-criterion")
    return _timed(started, "no", "group-criterion", min(extra))


def group_orthogonal_criterion(triple: GroupTriple) -> PropertyResult:
    """Orthogonal iff the symbol subgroup meets its conjugate by a trivially:
    |C ∩ a^-1 C a| = 1.  On element indices, from the triple's own right
    translations by a and by c: a^-1 is the last power of a, the
    translation by c walks a^-1 c^j from it, and the translation by a takes
    each to a^-1 c^j a.  After |C| steps the walk is back at a^-1, and the
    |C| conjugates are distinct.  The elements it names are read from the
    group's store (``Group.elements_at``)."""
    started = time.monotonic()
    G = triple.group
    wa, _, wc = triple.walks
    rho_a, _, rho_c = triple.translations
    start = x = wa.powers[-1]
    conj = set()
    for _ in wc.powers:
        conj.add(rho_a[x])
        x = rho_c[x]
    if x != start or len(conj) != len(wc.powers):
        raise ConsistencyError(
            f"the conjugate of a subgroup of order {len(wc.powers)} does not have that order")
    common = wc.members & conj
    if len(common) == 1:
        return _timed(started, "yes", "group-criterion")
    identity = wa.powers[0]
    witness = min(G.elements_at(g for g in common if g != identity), key=_sort_key)
    return _timed(started, "no", "group-criterion", witness)


def group_homogeneity(triple: GroupTriple) -> PropertyResult:
    """k from the subgroup orders: the rows, columns and symbols of the
    coset bitrade are the left cosets of <a>, <b> and <c>, so they hold
    |A|, |B| and |C| entries, and the bitrade is homogeneous exactly when
    the three orders agree, with k their common value."""
    a, b, c = triple.orders
    return PropertyResult(a if a == b == c else "no", "group-criterion")


def pq_thin_solutions(p, q, r):
    """All (i, j) in [0,q)^2 with r^j + r^(j-1) = r^(i+j-1) + 1 (mod p),
    exponents modulo q."""
    MetacyclicGroup(p, q, r)  # parameter validation
    sols = []
    for i in range(q):
        for j in range(q):
            lhs = (pow(r, j, p) + pow(r, (j - 1) % q, p)) % p
            rhs = (pow(r, (i + j - 1) % q, p) + 1) % p
            if lhs == rhs:
                sols.append((i, j))
    return sols


def pq_thin_predicate(p, q, r) -> PropertyResult:
    """Thinness of the metacyclic-family bitrade, decided by the exponent
    congruence alone: thin iff the solutions are exactly (0,0) and (1,1)."""
    started = time.monotonic()
    sols = pq_thin_solutions(p, q, r)
    extra = [s for s in sols if s not in ((0, 0), (1, 1))]
    if not extra:
        return _timed(started, "yes", "group-criterion")
    return _timed(started, "no", "group-criterion", min(extra))


# ---------------------------------------------------------------------------
# minimality oracle

def _proper_subtrade(rows, cols, syms):
    """The first proper nonempty subset of the filled cells admitting any
    disjoint mate, found by backtracking over mate-symbol assignments, as
    the pairs (cell, cell of its row holding its mate symbol) in cell
    order; None if there is none.

    The cells are given by their label ranks in cell order, so the least
    cell is the least index.  Assigning symbol m as the mate of cell
    (r, c) forces the cells holding m in row r and column c into the
    subset, so the search propagates quickly.  Seeds are tried in cell
    order with all earlier cells banned, so each candidate subset is
    explored from its least cell only.  Each step gives the least member
    without a mate the next of its row's symbols in ascending rank.  The
    search keeps its own stack: a frame holds a cell, its next option and
    what the option in force changed, and popping a frame undoes it.
    """
    n = len(rows)
    ns = max(syms, default=-1) + 1
    at_cs = {c * ns + s: x for x, (c, s) in enumerate(zip(cols, syms))}
    options = []  # per cell, the cells of its row in ascending symbol rank
    for _, row in groupby(range(n), rows.__getitem__):
        row = sorted(row, key=syms.__getitem__)
        options += [row] * len(row)
    row_taken = bytearray(n)  # the symbol of the cell is a mate in its row
    col_taken = bytearray(n)  # and in its column
    for seed in range(n):
        member = {seed}
        unassigned = 1 << seed  # the members without a mate, as a bitmask
        stack = [[seed, 0, None]]
        while stack:
            frame = stack[-1]
            x, i, undo = frame
            if undo is not None:
                f1, f2, added, mask = undo
                row_taken[f1] = col_taken[f2] = 0
                member -= added
                unassigned ^= mask
            row, c = options[x], cols[x]
            for i in range(i, len(row)):
                f1 = row[i]
                if f1 == x or f1 < seed or row_taken[f1]:
                    continue
                f2 = at_cs.get(c * ns + syms[f1])
                if f2 is None or f2 < seed or col_taken[f2]:
                    continue
                added = {f1, f2} - member
                if len(member) + len(added) < n:  # the subset stays proper
                    break
            else:
                stack.pop()
                continue
            member |= added
            mask = (1 << x) + sum(1 << f for f in added)
            unassigned ^= mask  # x has its mate; the added cells have none
            row_taken[f1] = col_taken[f2] = 1
            frame[1:] = i + 1, (f1, f2, added, mask)
            if not unassigned:
                return sorted((x, undo[0]) for x, _, undo in stack)
            stack.append([(unassigned & -unassigned).bit_length() - 1, 0, None])
    return None


def is_minimal(trade, cap=DEFAULT_MINIMAL_CAP) -> PropertyResult:
    """Exhaustive minimality check: no proper subset of the filled cells
    supports a latin bitrade with any mate.  "unknown" above the cap.

    The search (``_proper_subtrade``) runs on label ranks: a bitrade's
    own, or the labels of a partial latin square ranked in ``_sort_key``
    order.  Only the witness is made of labels."""
    started = time.monotonic()
    if trade.size > cap:
        return _timed(started, "unknown", "oracle")
    if isinstance(trade, Bitrade):
        pt = trade.permutation_triple
        alphabets, (rows, cols, syms) = pt.alphabets, pt.coords
    else:
        alphabets = [sorted({t[i] for t in trade.triples}, key=_sort_key) for i in range(3)]
        ranks = [{label: i for i, label in enumerate(a)} for a in alphabets]
        triples = sorted(tuple(map(dict.__getitem__, ranks, t)) for t in trade.triples)
        rows, cols, syms = ([t[i] for t in triples] for i in range(3))
    found = _proper_subtrade(rows, cols, syms)
    if found is None:
        return _timed(started, "yes", "oracle")
    lr, lc, ls = alphabets
    return _timed(started, "no", "oracle", {
        "trade": tuple((lr[rows[x]], lc[cols[x]], ls[syms[x]]) for x, _ in found),
        "mate": tuple((lr[rows[x]], lc[cols[x]], ls[syms[f]]) for x, f in found)})


# ---------------------------------------------------------------------------
# reports

ALL_CHECKS = ("bitrade", "separated", "primary", "thin", "orthogonal",
              "homogeneous", "minimal")
DEFAULT_CHECKS = ALL_CHECKS[:-1]


def check_names(checks):
    """Raise ValueError on the first name that is not a check."""
    for check in checks:
        if check not in ALL_CHECKS:
            raise ValueError(f"unknown check {check!r}")


def compute_report(bitrade: Bitrade, checks=None, *,
                   minimal_cap=DEFAULT_MINIMAL_CAP,
                   primary_cap=DEFAULT_PRIMARY_CAP):
    """Run the requested property checks (``DEFAULT_CHECKS`` if none) on a
    validated bitrade.

    The "bitrade" check is implicit (the input is already validated); the
    report maps result keys to PropertyResult values, each check under its
    name except "homogeneous", which is "homogeneous_k".  Unknown names are
    refused before any check runs.  A report that decides thin, primary
    and minimal checks that thin and primary imply minimal.
    """
    checks = list(checks or DEFAULT_CHECKS)
    check_names(checks)
    report = {}
    for check in checks:
        if check == "bitrade":
            report["bitrade"] = PropertyResult("yes", "direct-scan")
        elif check == "separated":
            report["separated"] = is_separated(bitrade)
        elif check == "primary":
            report["primary"] = is_primary(bitrade, primary_cap)
        elif check == "thin":
            report["thin"] = is_thin(bitrade)
        elif check == "orthogonal":
            report["orthogonal"] = is_orthogonal(bitrade)
        elif check == "homogeneous":
            report["homogeneous_k"] = homogeneity(bitrade)
        elif check == "minimal":
            report["minimal"] = is_minimal(bitrade, minimal_cap)
    # thin and primary force minimality
    if [report[name].value if name in report else None
            for name in ("thin", "primary", "minimal")] == ["yes", "yes", "no"]:
        raise ConsistencyError(
            f"thin and primary bitrade judged non-minimal: {report['minimal'].witness}")
    return report


def check_group_criteria(triple: GroupTriple, report):
    """Decide again by its group criterion each of thin, orthogonal and the
    homogeneity degree that ``report`` (of the bitrade of ``triple``)
    holds; a verdict that differs from the report's raises
    ConsistencyError."""
    for name, criterion in (("thin", group_thin_criterion),
                            ("orthogonal", group_orthogonal_criterion),
                            ("homogeneous_k", group_homogeneity)):
        if name in report and report[name].value != criterion(triple).value:
            raise ConsistencyError(f"{name} criteria disagree on {triple}")


def report_to_json(report):
    return {name: result.to_json() for name, result in report.items()}
