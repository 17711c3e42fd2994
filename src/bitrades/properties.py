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

from .core import (
    Bitrade,
    GroupTriple,
    PartialLatinSquare,
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
    """Indices of the points reachable from the first one."""
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for perm in pt.index_perms:
                y = perm[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def primary_exhaustive(bitrade: Bitrade):
    """Definitional search: try every nonempty proper subset of the primary
    triples as a sub-bitrade with its forced mate triples.

    Returns (is_primary, witness_subset).  Exponential; callers cap the size.
    """
    pt = bitrade.permutation_triple
    n = len(pt.points)
    _, tau2, tau3 = pt.index_perms
    # mate triple x is the one in the cell of primary triple x; it agrees
    # with x outside the symbol, with tau2(x) outside the row and with
    # tau3(tau2(x)) outside the column.  Per primary triple: the bitmask of
    # its three mates; per mate triple: the bitmask of the three primary
    # triples it needs
    star_bits = [0] * n
    star_need = [0] * n
    for x in range(n):
        for ci in (x, tau2[x], tau3[tau2[x]]):
            star_bits[ci] |= 1 << x
            star_need[x] |= 1 << ci
    full = (1 << n) - 1
    for mask in range(1, full):
        sbits = 0
        m = mask
        while m:
            low = m & -m
            sbits |= star_bits[low.bit_length() - 1]
            m ^= low
        ok = True
        s = sbits
        while s:
            low = s & -s
            if star_need[low.bit_length() - 1] & ~mask:
                ok = False
                break
            s ^= low
        if ok:
            return False, tuple(pt.points[i] for i in range(n) if mask >> i & 1)
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
    transitive = len(orbit) == len(pt.points)
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
        witness = tuple(pt.points[x] for x in sorted(orbit))
        return _timed(started, "no", method, witness)
    return _timed(started, "unknown", "orbit")


# ---------------------------------------------------------------------------
# thin / orthogonal
#
# Both scans run on label positions (see PermutationTriple.coords): a cell is
# a (row, column) position pair, and since positions follow the canonical
# label order, the least violation over positions is the least over labels.

def _symbol_classes(pt):
    """Per symbol, the indices of the primary triples holding it."""
    classes = [[] for _ in pt.alphabets[2]]
    for x, s in enumerate(pt.coords[2]):
        classes[s].append(x)
    return classes


def _mate_symbols(pt):
    """Per primary triple x, the position of the mate symbol in its cell:
    the mate triple there agrees with tau2(x) in column and symbol."""
    syms = pt.coords[2]
    return [syms[z] for z in pt.index_perms[1]]


def _cell_witness(pt, violation):
    rows, cols = pt.alphabets[0], pt.alphabets[1]
    r1, c1, r2, c2 = violation
    return (rows[r1], cols[c1], rows[r2], cols[c2])


def is_thin(bitrade: Bitrade) -> PropertyResult:
    """Whenever two cells of the trade hold the same symbol, the mate square
    is undefined or holds that symbol at the two crossing cells."""
    started = time.monotonic()
    pt = bitrade.permutation_triple
    rows, cols, syms = pt.coords
    nc = len(pt.alphabets[1])
    at_cell = {r * nc + c: x for x, (r, c) in enumerate(zip(rows, cols))}
    mate_sym = _mate_symbols(pt)
    violations = []
    for ts in _symbol_classes(pt):
        for x in ts:
            row = rows[x] * nc
            sym = syms[x]
            for y in ts:
                if x == y:
                    continue
                crossing = at_cell.get(row + cols[y])
                if crossing is not None and mate_sym[crossing] != sym:
                    violations.append((rows[x], cols[x], rows[y], cols[y]))
    if not violations:
        return _timed(started, "yes", "direct-scan")
    return _timed(started, "no", "direct-scan", _cell_witness(pt, min(violations)))


def is_orthogonal(bitrade: Bitrade) -> PropertyResult:
    """Two cells with equal trade symbols never hold equal mate symbols."""
    started = time.monotonic()
    pt = bitrade.permutation_triple
    rows, cols, _ = pt.coords
    mate_sym = _mate_symbols(pt)
    violations = []
    for ts in _symbol_classes(pt):
        for i, x in enumerate(ts):
            for y in ts[i + 1:]:
                if mate_sym[x] == mate_sym[y]:
                    violations.append((rows[x], cols[x], rows[y], cols[y]))
    if not violations:
        return _timed(started, "yes", "direct-scan")
    return _timed(started, "no", "direct-scan", _cell_witness(pt, min(violations)))


# ---------------------------------------------------------------------------
# homogeneity

def homogeneity(bitrade: Bitrade) -> PropertyResult:
    """The unique k such that every row and column holds k entries and every
    symbol occurs k times, else "no" with the first deviating label."""
    started = time.monotonic()
    pt = bitrade.permutation_triple
    counters = [Counter(coord) for coord in pt.coords]
    baseline = counters[0][pt.alphabets[0].index(bitrade.rows[0])]
    labels_by_coord = (bitrade.rows, bitrade.cols, bitrade.syms)
    for coord, labels, alphabet, counter in zip(("row", "column", "symbol"),
                                                labels_by_coord, pt.alphabets, counters):
        position = {lab: k for k, lab in enumerate(alphabet)}
        for lab in labels:
            if counter[position[lab]] != baseline:
                return _timed(started, "no", "direct-scan",
                              (coord, lab, counter[position[lab]], baseline))
    return _timed(started, baseline, "direct-scan")


# ---------------------------------------------------------------------------
# group criteria

def group_thin_criterion(triple: GroupTriple) -> PropertyResult:
    """Thin iff the only exponent solutions of a^i b^j c^k = 1 are (0,0,0)
    and (1,1,1), exponents taken modulo the element orders."""
    started = time.monotonic()
    G = triple.group
    oa, ob, oc = triple.orders
    a_pows = triple.A.elements
    b_pows = triple.B.elements
    c_pows = triple.C.elements
    identity = G.identity
    solutions = []
    for i in range(oa):
        for j in range(ob):
            ab = G.mul(a_pows[i], b_pows[j])
            for k in range(oc):
                if G.mul(ab, c_pows[k]) == identity:
                    solutions.append((i, j, k))
    extra = [s for s in solutions if s not in ((0, 0, 0), (1, 1, 1))]
    if not extra:
        if solutions != [(0, 0, 0), (1, 1, 1)]:
            raise ConsistencyError(
                "abc = 1 but the exponent search misses (0,0,0) or (1,1,1)")
        return _timed(started, "yes", "group-criterion")
    return _timed(started, "no", "group-criterion", min(extra))


def group_orthogonal_criterion(triple: GroupTriple) -> PropertyResult:
    """Orthogonal iff the symbol subgroup meets its conjugate by a trivially:
    |C ∩ a^-1 C a| = 1."""
    started = time.monotonic()
    G = triple.group
    conj = G.conjugate_subgroup(triple.C, triple.a)
    common = triple.C.members & conj.members
    if len(common) == 1:
        return _timed(started, "yes", "group-criterion")
    witness = min((g for g in common if not G.is_identity(g)),
                  key=lambda g: _sort_key(g))
    return _timed(started, "no", "group-criterion", witness)


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

def _find_proper_subtrade(pls: PartialLatinSquare):
    """First proper nonempty subset of the filled cells admitting any
    disjoint mate, found by backtracking over mate-symbol assignments.

    Assigning symbol m as the mate of cell (r, c) forces the cells holding
    m in row r and column c into the subset, so the search propagates
    quickly.  Seeds are tried in canonical order with all earlier cells
    banned, so each candidate subset is explored from its least cell only.
    """
    cell_sym = {}
    row_sym = {}
    col_sym = {}
    row_syms = {}
    for (r, c, s) in pls.triples:
        cell_sym[(r, c)] = s
        row_sym[(r, s)] = c
        col_sym[(c, s)] = r
        row_syms.setdefault(r, []).append(s)
    for r in row_syms:
        row_syms[r].sort(key=_sort_key)
    cell_list = sorted(cell_sym, key=lambda rc: tuple(map(_sort_key, rc)))
    total = len(cell_list)

    def grow(seed, banned):
        member = {seed}
        mate = {}
        row_used = {}
        col_used = {}

        def dfs():
            unassigned = [cell for cell in member if cell not in mate]
            if not unassigned:
                return len(member) < total
            r, c = min(unassigned, key=lambda rc: tuple(map(_sort_key, rc)))
            orig = cell_sym[(r, c)]
            for m in row_syms[r]:
                if m == orig or m in row_used.get(r, ()) or m in col_used.get(c, ()):
                    continue
                r2 = col_sym.get((c, m))
                if r2 is None:
                    continue
                forced = [(r, row_sym[(r, m)]), (r2, c)]
                if any(f in banned for f in forced):
                    continue
                added = [f for f in forced if f not in member]
                if len(member) + len(added) >= total:
                    continue  # cannot stay proper
                member.update(added)
                mate[(r, c)] = m
                row_used.setdefault(r, set()).add(m)
                col_used.setdefault(c, set()).add(m)
                if dfs():
                    return True
                member.difference_update(added)
                del mate[(r, c)]
                row_used[r].discard(m)
                col_used[c].discard(m)
            return False

        if dfs():
            trade = tuple(sorted(((r, c, cell_sym[(r, c)]) for (r, c) in member),
                                 key=lambda t: tuple(map(_sort_key, t))))
            mates = tuple(sorted(((r, c, m) for (r, c), m in mate.items()),
                                 key=lambda t: tuple(map(_sort_key, t))))
            return trade, mates
        return None

    for pos, seed in enumerate(cell_list):
        found = grow(seed, set(cell_list[:pos]))
        if found:
            return found
    return None


def is_minimal(trade, cap=DEFAULT_MINIMAL_CAP) -> PropertyResult:
    """Exhaustive minimality check: no proper subset of the filled cells
    supports a latin bitrade with any mate.  "unknown" above the cap."""
    started = time.monotonic()
    pls = trade.t_circ if isinstance(trade, Bitrade) else trade
    if pls.size > cap:
        return _timed(started, "unknown", "oracle")
    found = _find_proper_subtrade(pls)
    if found is None:
        return _timed(started, "yes", "oracle")
    return _timed(started, "no", "oracle", {"trade": found[0], "mate": found[1]})


def check_thin_primary_minimal(bitrade: Bitrade, cap=DEFAULT_MINIMAL_CAP):
    """Consistency check: a thin and primary bitrade must be oracle-minimal.

    Returns a report dict; a disagreement on an instance the oracle can
    decide raises ConsistencyError.
    """
    thin = is_thin(bitrade)
    primary = is_primary(bitrade)
    report = {"thin": thin, "primary": primary, "applicable": False, "minimal": None}
    if not (thin.yes and primary.yes) or bitrade.size > cap:
        return report
    report["applicable"] = True
    minimal = is_minimal(bitrade, cap)
    report["minimal"] = minimal
    if minimal.value != "yes":
        raise ConsistencyError(
            f"thin and primary bitrade judged non-minimal: {minimal.witness}")
    return report


# ---------------------------------------------------------------------------
# reports

ALL_CHECKS = ("bitrade", "separated", "primary", "thin", "orthogonal",
              "homogeneous", "minimal")


def compute_report(bitrade: Bitrade, checks=None, *,
                   minimal_cap=DEFAULT_MINIMAL_CAP,
                   primary_cap=DEFAULT_PRIMARY_CAP):
    """Run the requested property checks on a validated bitrade.

    The "bitrade" check is implicit (the input is already validated); the
    report maps check names to PropertyResult values.
    """
    checks = list(checks) if checks else [c for c in ALL_CHECKS if c != "minimal"]
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
        else:
            raise ValueError(f"unknown check {check!r}")
    return report


def report_to_json(report):
    return {name: result.to_json() for name, result in report.items()}
