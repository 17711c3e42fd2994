"""Finite-group arithmetic: elements, subgroups, cosets, and group families.

Elements are plain hashable encodings owned by their group:

* permutation groups use 1-based image tuples, so ``g[i-1]`` is the image
  of point ``i`` and products compose left to right (``x(gh) = (xg)h``);
* cyclic groups use ints mod n;
* direct products use tuples of component elements;
* the non-abelian group of order p^3 (odd prime p, "Heisenberg" family)
  uses exponent triples (i, j, k) for a^i b^j z^k, all mod p, where the
  generators satisfy ab = ba z^-1 with z central of order p;
* the non-abelian metacyclic group of order pq uses exponent pairs (i, j)
  for b^i a^j with i mod q, j mod p and b^-1 a b = a^r.

Encodings sort naturally (ints and nested int tuples), which fixes the
canonical element order used for coset representatives and all output.

Permutation groups of degree at most 255 enumerate closures and build right
translations on ``bytes`` internally: an image tuple ``x`` is coded as
``bytes(x)``, codes of one length sort exactly like the tuples they encode,
and ``x -> xg`` is ``code.translate(table)`` for one 256-byte table per g.
A group generated by such permutations keeps the sorted codes of its
closure as its element store.  Every element a caller sees or passes stays
an image tuple.
"""

from __future__ import annotations

import bisect
import itertools
import math
import weakref
from array import array
from json.encoder import encode_basestring_ascii as escape

from .errors import GroupError, ParseError, ResourceCapError

DEFAULT_MAX_ELEMENTS = 5_000_000

# the largest degree whose image tuples are coded as bytes (one point a byte,
# with 0 left unused)
MAX_BYTES_DEGREE = 255


# ---------------------------------------------------------------------------
# permutation helpers (image-tuple encoding, left-to-right composition)

def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_mul(g, h):
    """Compose image tuples left to right: the result maps x to h(g(x))."""
    return tuple(h[x - 1] for x in g)


def perm_inverse(g):
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x - 1] = i + 1
    return tuple(out)


def perm_is_valid(g, n):
    return isinstance(g, tuple) and len(g) == n and sorted(g) == list(range(1, n + 1))


def perm_parity(g):
    """0 for even permutations, 1 for odd (via cycle decomposition)."""
    n = len(g)
    seen = [False] * n
    parity = 0
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = g[x] - 1
            length += 1
        parity ^= (length - 1) & 1
    return parity


# the strings of the points a bytes code can hold (0 unused)
_POINT_STRS = tuple(map(str, range(MAX_BYTES_DEGREE + 1)))


def perm_str(g):
    """Cycle notation of an image tuple or its ``bytes`` code, e.g.
    ``(1,2,3)(4,5)``: each nontrivial cycle from its least point, in order
    of it; the identity prints as ``()``."""
    n = len(g)
    strs = _POINT_STRS if n <= MAX_BYTES_DEGREE else tuple(map(str, range(n + 1)))
    seen = set()
    out = []
    for s, x in enumerate(g, 1):
        if x == s or s in seen:
            continue
        cycle = [strs[s]]  # s is the cycle's least point: those before it are done
        while x != s:
            seen.add(x)
            cycle.append(strs[x])
            x = g[x - 1]
        out.append("(" + ",".join(cycle) + ")")
    return "".join(out) or "()"


def parse_permutation(text, degree):
    """Parse cycle notation over {1..degree} into an image tuple.

    Cycles need not be disjoint; they compose left to right.  Whitespace is
    ignored.  ``()`` denotes the identity.  Raises ParseError with the
    character position for out-of-range points, repeated points within one
    cycle, and malformed syntax.
    """
    result = perm_identity(degree)
    pos = 0
    n = len(text)
    saw_cycle = False
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' but found {ch!r}", pos)
        pos += 1
        points = []
        while True:
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n:
                raise ParseError("unterminated cycle", pos)
            if text[pos] == ")":
                pos += 1
                break
            if points and text[pos] == ",":
                pos += 1
                while pos < n and text[pos].isspace():
                    pos += 1
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise ParseError(f"expected a point but found {text[start:start+1]!r}", start)
            point = int(text[start:pos])
            if not 1 <= point <= degree:
                raise ParseError(f"point {point} out of range 1..{degree}", start)
            if point in points:
                raise ParseError(f"point {point} repeated within one cycle", start)
            points.append(point)
        saw_cycle = True
        if len(points) >= 2:
            image = {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}
            cycle_perm = tuple(image.get(x, x) for x in range(1, degree + 1))
            result = perm_mul(result, cycle_perm)
    if not saw_cycle:
        raise ParseError("no cycles found", 0)
    return result


# ---------------------------------------------------------------------------
# subgroups and cosets

class Subgroup:
    """Cyclic subgroup <g> of a parent group, kept as the ordered power list."""

    def __init__(self, group, generator):
        self.group = group
        self.generator = generator
        powers = [group.identity]
        x = generator
        while x != group.identity:
            powers.append(x)
            x = group.mul(x, generator)
        self.elements = tuple(powers)
        self.members = frozenset(powers)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.members

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.group is other.group \
            and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Subgroup(<{self.group.element_str(self.generator)}>, order={self.order})"


class Coset:
    """Left coset gH, identified by its canonical (minimum) representative."""

    def __init__(self, subgroup, rep):
        self.subgroup = subgroup
        self.rep = rep

    def elements(self):
        group = self.subgroup.group
        return tuple(sorted(group.mul(self.rep, h) for h in self.subgroup.elements))

    def __repr__(self):
        return f"Coset({self.subgroup.group.element_str(self.rep)}·H, |H|={len(self.subgroup)})"


# ---------------------------------------------------------------------------
# groups

class CosetWalk:
    """The walk of an index permutation q: its cycles, each named by
    ``strs`` (of a list of indices) at its least index.  The cycles of a
    right translation x -> xg (``Group.coset_walk``) are the left cosets
    x<g>; ``from_permutations`` walks its permutations with point strings.

    * ``powers``: the cycle through index ``start``, from it; from the
      identity, the power list of <g> (identity, g, g^2, ...);
      ``members``: the same as a set.
    * ``names``: ``strs`` of each cycle's least index, cycles in order of
      it (declared order); ``order``: the cycle numbers in order of their
      names.
    * ``rank``: per index, the position of its cycle's name in name order,
      as an ``array('i')``.
    * ``distinct``: whether no two cycles have one name (two points may
      format alike), decided once for every bitrade built on the walk.
    * ``labels(tag)`` and ``written(tag, spelling)``: the names prefixed
      with ``tag:``, and the JSON text a writer reads of them, each made on
      first use per tag and spelling.
    """

    __slots__ = ("powers", "members", "names", "order", "rank", "distinct", "_labels",
                 "_written")

    def __init__(self, q, strs, start):
        powers = [start]
        x = q[start]
        while x != start:
            powers.append(x)
            x = q[x]
        self.powers = tuple(powers)
        self.members = frozenset(powers)
        coset = [-1] * len(q)
        reps = []
        for least, k in enumerate(coset):  # reads each entry after the walks before it
            if k < 0:
                k = len(reps)
                reps.append(least)
                coset[least] = k
                x = q[least]
                while x != least:
                    coset[x] = k
                    x = q[x]
        self.names = tuple(strs(reps))
        self.order = array("i", sorted(range(len(reps)), key=self.names.__getitem__))
        rank = [0] * len(reps)
        for r, k in enumerate(self.order):
            rank[k] = r
        self.rank = array("i", [rank[k] for k in coset])
        self.distinct = len(set(self.names)) == len(reps)
        self._labels = {}
        self._written = {}

    def labels(self, tag):
        """The names prefixed with ``tag:``, in declared and in name order."""
        out = self._labels.get(tag)
        if out is None:
            declared = tuple([f"{tag}:{name}" for name in self.names])
            out = self._labels[tag] = (declared, tuple(map(declared.__getitem__, self.order)))
        return out

    def written(self, tag, spelling):
        """The JSON strings of ``labels(tag)`` in name order, and the JSON
        list of them in declared order as ``spelling`` spells it (the text
        that opens a list, separates its items and closes it)."""
        key = (tag, spelling)
        out = self._written.get(key)
        if out is None:
            escaped = list(map(escape, self.labels(tag)[0]))
            open_, sep, close = spelling
            out = self._written[key] = (list(map(escaped.__getitem__, self.order)),
                                        open_ + sep.join(escaped) + close)
        return out


class _ElementMemo:
    """What a group has computed about its elements, each part on first use:
    the element store (``Group._element_store``) and the identity's index
    in it, the index of every element in ``elements()``, the strings of the
    elements asked for (None elsewhere), the right translation and coset
    walk of each element asked for, and what ``core.GroupTriple`` found of
    the last triple it admitted (``triple``).

    Its methods do not check the enumeration cap: ``Group._memo`` checks
    it whenever it hands the memo out, so a caller that holds the memo for
    one call checks the cap once.  The memo refers to its group weakly, so
    that a group no longer used is freed at once, not by the cycle
    collector."""

    def __init__(self, group, n):
        self.group = weakref.proxy(group)
        self.store = group._element_store()
        self.identity = group._locate(self.store, group.identity)
        self.index = None
        self.strs = [None] * n
        self.translations = {}
        self.walks = {}
        self.triple = None

    def index_of(self, g):
        return self.group._locate(self.store, g)

    def element_strs(self, indices):
        strs, store, element_str = self.strs, self.store, self.group.element_str
        for i in indices:
            if strs[i] is None:
                strs[i] = element_str(store[i])
        return [strs[i] for i in indices]

    def right_translations(self, gs):
        translations = self.translations
        missing = list(dict.fromkeys(g for g in gs if g not in translations))
        if missing:
            translations.update(zip(missing, self.group._build_translations(missing)))
        return [translations[g] for g in gs]

    def coset_walk(self, g):
        out = self.walks.get(g)
        if out is None:
            out = self.walks[g] = CosetWalk(self.right_translations((g,))[0],
                                            self.element_strs, self.identity)
        return out


class Group:
    """Base class for finite groups with plain hashable element encodings.

    ``closure`` and ``_build_translations`` here are the generic paths, on
    ``mul``; permutation groups of degree at most 255 replace both with
    ``bytes`` paths and use these above that degree.  ``index_of``
    bisects ``elements()`` (``_locate``), and a group that stores its
    elements in another form (``_element_store``) bisects that instead and
    makes single elements from it (``elements_at``).

    A group keeps one memo of what it computes about its own elements,
    each part filled on first use and kept for the group's life: the index
    of every element in ``elements()``, element strings, each right
    translation x -> xg as an ``array('i')`` over those indices, and the
    walk of each translation (``CosetWalk``: the powers of g and the left
    cosets of <g> as indices, their coset ranks and names, the tagged
    names and their JSON text).  Like ``elements()``, every accessor of the
    memo checks the enumeration cap on every call, so a group whose
    ``max_elements`` is lowered below its order refuses all of them
    (``_ElementMemo``).
    """

    kind = "abstract"
    spec = "?"
    # the most elements the group may materialize (its element list or a
    # closure); set by its builder, None means DEFAULT_MAX_ELEMENTS
    max_elements = None

    # subclasses define: order(), iter_elements(), mul, inverse, identity,
    # element_str, parse_element

    def order(self):
        raise NotImplementedError

    def iter_elements(self):
        raise NotImplementedError

    def mul(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def element_str(self, g):
        return str(g)

    def parse_element(self, text):
        raise NotImplementedError

    # ---- generic machinery ------------------------------------------------

    def elements(self):
        """Materialize the element universe in canonical ascending order;
        the cap is checked on every call, cached or not."""
        self.check_enumerable()
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = sorted(self.iter_elements())
            self._elements = cached
        return cached

    def _enumeration_cap(self):
        return DEFAULT_MAX_ELEMENTS if self.max_elements is None else self.max_elements

    def check_enumerable(self):
        cap = self._enumeration_cap()
        n = self.order()
        if n > cap:
            raise ResourceCapError(
                f"group {self.spec} has order {n}, above the enumeration cap", cap)
        return n

    def _memo(self):
        n = self.check_enumerable()
        memo = self.__dict__.get("_element_memo")
        if memo is None:
            memo = self._element_memo = _ElementMemo(self, n)
        return memo

    def element_index(self):
        """Each element's position in ``elements()``."""
        memo = self._memo()
        if memo.index is None:
            memo.index = {g: i for i, g in enumerate(self.elements())}
        return memo.index

    def _element_store(self):
        """The elements as the group keeps them, in ``elements()`` order;
        ``element_str`` reads every form it holds.  The cap is checked."""
        return self.elements()

    def _locate(self, store, g):
        """The index of g in ``store`` (``_element_store()``), or None when
        g is no element (one of another type included)."""
        return _sorted_index(store, g)

    def index_of(self, g):
        """The index of g in ``elements()``, or None when g is no element;
        the cap is checked."""
        return self._locate(self._element_store(), g)

    def elements_at(self, indices):
        """The elements at the given indices of ``elements()``, made from
        the store alone; the cap is checked."""
        store = self._element_store()
        return [store[i] for i in indices]

    def element_strs(self, indices):
        """``element_str`` of the elements at the given indices."""
        return self._memo().element_strs(indices)

    def generated_subgroup(self, g):
        """The cyclic subgroup <g>; the enumeration cap is checked first."""
        self.check_enumerable()
        return Subgroup(self, g)

    def right_translation(self, g):
        """The permutation x -> xg of the element indices, built once per g."""
        return self.right_translations([g])[0]

    def right_translations(self, gs):
        """``right_translation`` of each g in gs; those not built yet are
        built in one ``_build_translations`` call."""
        return self._memo().right_translations(gs)

    def coset_walk(self, g):
        """The walk of the right translation x -> xg, made once per g."""
        return self._memo().coset_walk(g)

    def _build_translations(self, gs):
        index = self.element_index()
        els = self.elements()
        mul = self.mul
        return [array("i", [index[mul(x, g)] for x in els]) for g in gs]

    def element_order(self, g):
        """Least n > 0 with g**n = identity."""
        n = 1
        x = g
        while x != self.identity:
            x = self.mul(x, g)
            n += 1
        return n

    def closure(self, generators):
        """Smallest multiplication-closed set containing the generators.

        BFS over right-multiplication by the generators; always contains the
        identity.  Raises ResourceCapError if the materialized set would
        exceed the group's enumeration cap.
        """
        if not generators:
            raise GroupError("closure requires at least one generator")
        cap = self._enumeration_cap()
        gens = list(generators)
        els = {self.identity}
        els.update(gens)
        frontier = list(els)
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in els:
                        els.add(y)
                        new.append(y)
                        if len(els) > cap:
                            raise ResourceCapError(
                                "closure exceeded the enumeration cap", cap)
            frontier = new
        return els

    def left_cosets(self, subgroup):
        """Partition of the group into left cosets, sorted by representative."""
        reps = []
        seen = set()
        for g in self.elements():
            if g in seen:
                continue
            members = [self.mul(g, h) for h in subgroup.elements]
            reps.append(min(members))
            seen.update(members)
        return [Coset(subgroup, rep) for rep in sorted(reps)]

    def center(self):
        """All elements commuting with every element (brute-force scan)."""
        els = self.elements()
        out = []
        for g in els:
            if all(self.mul(g, h) == self.mul(h, g) for h in els):
                out.append(g)
        return tuple(out)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec})"


def _sorted_index(items, x):
    """The position of x in the sorted list ``items``, or None when x is
    not in it or does not compare with its items."""
    try:
        i = bisect.bisect_left(items, x)
    except TypeError:
        return None
    return i if i < len(items) and items[i] == x else None


class _PermGroupBase(Group):
    """Common behaviour for groups of image-tuple permutations.

    Up to degree ``MAX_BYTES_DEGREE``, ``closure`` and the right translations
    run on the ``bytes`` codes of the elements (see the module docstring);
    above it they are the generic ``Group`` paths.  Either way they take and
    return image tuples.
    """

    def __init__(self, degree):
        self.degree = degree

    @property
    def identity(self):
        return perm_identity(self.degree)

    def _check(self, g):
        if not isinstance(g, tuple) or len(g) != self.degree:
            raise GroupError(
                f"element {g!r} does not belong to {self.spec} (mixed-group operands?)")

    def _table(self, g):
        """The ``bytes.translate`` table taking the code of x to that of xg."""
        if not perm_is_valid(g, self.degree):
            self._check(g)
            raise GroupError(f"{g!r} is not a permutation of degree {self.degree}")
        return b"\0" + bytes(g) + bytes(range(self.degree + 1, 256))

    def _closure_codes(self, generators):
        """The codes of ``closure(generators)``, in BFS order; degree at
        most ``MAX_BYTES_DEGREE``."""
        if not generators:
            raise GroupError("closure requires at least one generator")
        cap = self._enumeration_cap()
        tables = [self._table(g) for g in generators]
        seen = {bytes(self.identity)}
        seen.update(bytes(g) for g in generators)
        codes = list(seen)
        for x in codes:  # codes grows while it is walked: the BFS queue
            for table in tables:
                y = x.translate(table)
                if y not in seen:
                    seen.add(y)
                    codes.append(y)
                    if len(codes) > cap:
                        raise ResourceCapError(
                            "closure exceeded the enumeration cap", cap)
        return codes

    def closure(self, generators):
        if self.degree > MAX_BYTES_DEGREE:
            return super().closure(generators)
        return {tuple(x) for x in self._closure_codes(list(generators))}

    def _codes(self):
        """The codes of ``elements()``, made for the caller."""
        return [bytes(x) for x in self.elements()]

    def _build_translations(self, gs):
        if self.degree > MAX_BYTES_DEGREE:
            return super()._build_translations(gs)
        tables = [self._table(g) for g in gs]
        codes = self._codes()
        # transient and shared by the translations, which alone outlive the call
        index = {x: i for i, x in enumerate(codes)}
        return [array("i", [index[x.translate(table)] for x in codes]) for table in tables]

    def mul(self, g, h):
        self._check(g)
        self._check(h)
        try:
            return tuple(h[x - 1] for x in g)
        except (IndexError, TypeError) as exc:
            raise GroupError(f"invalid permutation operand for {self.spec}: {exc}") from exc

    def inverse(self, g):
        self._check(g)
        return perm_inverse(g)

    def element_str(self, g):
        return perm_str(g)

    def parse_element(self, text):
        g = parse_permutation(text, self.degree)
        if not self.contains(g):
            raise GroupError(f"permutation {perm_str(g)} is not in {self.spec}")
        return g

    def contains(self, g):
        return perm_is_valid(g, self.degree)


class SymmetricGroup(_PermGroupBase):
    kind = "symmetric"

    def __init__(self, n):
        if n < 1:
            raise GroupError("symmetric group degree must be >= 1")
        super().__init__(n)
        self.spec = f"sym:{n}"

    def order(self):
        return math.factorial(self.degree)

    def iter_elements(self):
        return (tuple(p) for p in itertools.permutations(range(1, self.degree + 1)))


class AlternatingGroup(_PermGroupBase):
    kind = "alternating"

    def __init__(self, n):
        if n < 1:
            raise GroupError("alternating group degree must be >= 1")
        super().__init__(n)
        self.spec = f"alt:{n}"

    def order(self):
        n = self.degree
        return 1 if n < 2 else math.factorial(n) // 2

    def iter_elements(self):
        for p in itertools.permutations(range(1, self.degree + 1)):
            g = tuple(p)
            if perm_parity(g) == 0:
                yield g

    def contains(self, g):
        return perm_is_valid(g, self.degree) and perm_parity(g) == 0


class PermClosureGroup(_PermGroupBase):
    """Group generated by explicit degree-n permutations (table kind).  It
    keeps the sorted elements of the closure and nothing else: up to degree
    ``MAX_BYTES_DEGREE`` their codes, so image tuples are made only for a
    caller of ``elements()`` or ``iter_elements()``; above it, the tuples.
    """

    kind = "gens"

    def __init__(self, n, generators, max_elements=None):
        super().__init__(n)
        gens = []
        for g in generators:
            if not perm_is_valid(g, n):
                raise GroupError(f"generator {g!r} is not a degree-{n} permutation")
            gens.append(g)
        if not gens:
            raise GroupError("at least one generator is required")
        self.generators = tuple(gens)
        self.spec = "gens:%d:%s" % (n, ";".join(perm_str(g) for g in gens))
        self.max_elements = max_elements
        self._coded = n <= MAX_BYTES_DEGREE
        if self._coded:
            # cut from one joined string, the sorted codes lie in memory in
            # their order, which every later pass over all of them reads
            # faster; the closure's codes are freed first, for the cut to reuse
            codes = sorted(self._closure_codes(gens))
            joined = b"".join(codes)
            del codes
            self._store = [joined[i:i + n] for i in range(0, len(joined), n)]
        else:
            self._store = sorted(self.closure(gens))

    def order(self):
        return len(self._store)

    def iter_elements(self):
        return map(tuple, self._store) if self._coded else iter(self._store)

    def _element_store(self):
        self.check_enumerable()
        return self._store

    _codes = _element_store  # read only up to MAX_BYTES_DEGREE

    def _locate(self, store, g):
        if self._coded:
            if not isinstance(g, tuple) or len(g) != self.degree:
                return None
            try:
                g = bytes(g)
            except (TypeError, ValueError):  # a point that is no int, or no byte
                return None
        return _sorted_index(store, g)

    def elements_at(self, indices):
        store = self._element_store()
        return [tuple(store[i]) if self._coded else store[i] for i in indices]

    def contains(self, g):
        return self.index_of(g) is not None


class CyclicGroup(Group):
    """Z_n in additive notation; elements are ints 0..n-1."""

    kind = "cyclic"

    def __init__(self, n):
        if n < 1:
            raise GroupError("cyclic group order must be >= 1")
        self.n = n
        self.spec = f"cyc:{n}"

    def order(self):
        return self.n

    def iter_elements(self):
        return iter(range(self.n))

    def mul(self, g, h):
        if not isinstance(g, int) or not isinstance(h, int):
            raise GroupError(f"elements of {self.spec} are ints (mixed-group operands?)")
        return (g + h) % self.n

    def inverse(self, g):
        return (-g) % self.n

    @property
    def identity(self):
        return 0

    def parse_element(self, text):
        try:
            value = int(text.strip())
        except ValueError as exc:
            raise ParseError(f"expected an integer element for {self.spec}: {text!r}") from exc
        if not 0 <= value < self.n:
            raise GroupError(f"element {value} out of range 0..{self.n - 1} for {self.spec}")
        return value


class DirectProductGroup(Group):
    """Direct product; elements are tuples of component elements."""

    kind = "direct-product"

    def __init__(self, components):
        components = list(components)
        if len(components) < 2:
            raise GroupError("a direct product needs at least two components")
        self.components = components
        # a component whose spec has a comma is bracketed, so the spec parses back
        self.spec = "prod:" + ",".join(f"[{c.spec}]" if "," in c.spec else c.spec
                                       for c in components)

    def order(self):
        n = 1
        for c in self.components:
            n *= c.order()
        return n

    def iter_elements(self):
        return (tuple(t) for t in itertools.product(
            *[c.iter_elements() for c in self.components]))

    def mul(self, g, h):
        if not isinstance(g, tuple) or len(g) != len(self.components) \
                or not isinstance(h, tuple) or len(h) != len(self.components):
            raise GroupError(f"elements of {self.spec} are {len(self.components)}-tuples")
        return tuple(c.mul(x, y) for c, x, y in zip(self.components, g, h))

    def inverse(self, g):
        return tuple(c.inverse(x) for c, x in zip(self.components, g))

    @property
    def identity(self):
        return tuple(c.identity for c in self.components)

    def element_str(self, g):
        return "(" + ",".join(c.element_str(x) for c, x in zip(self.components, g)) + ")"

    def parse_element(self, text):
        if not all(isinstance(c, CyclicGroup) for c in self.components):
            raise ParseError(
                f"textual elements are only supported for products of cyclic groups, not {self.spec}")
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        parts = body.split(",")
        if len(parts) != len(self.components):
            raise ParseError(
                f"expected {len(self.components)} coordinates for {self.spec}, got {len(parts)}")
        return tuple(c.parse_element(p) for c, p in zip(self.components, parts))


# Miller-Rabin on the prime bases up to 41 decides primality exactly below
# this bound (Sorenson and Webster, 2015); a parameter this large names a
# group far beyond any enumeration cap
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n, name="n"):
    """Whether n is prime; a parameter ``name`` of 3.3e24 or more is refused."""
    if n >= _PRIME_BOUND:
        raise GroupError(f"{name}={n} is too large to enumerate")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class HeisenbergGroup(Group):
    """Non-abelian group of order p^3 for an odd prime p.

    Generated by a, b, c with a^p = b^p = c^p = 1, ab = bac, ca = ac,
    cb = bc.  Elements are exponent triples (i, j, k) in the normal form
    a^i b^j z^k with z = c^-1, multiplied by

        (a^i b^j z^k)(a^r b^s z^t) = a^(i+r) b^(j+s) z^(k+t+jr).
    """

    kind = "heisenberg-p3"

    def __init__(self, p):
        if p == 2 or not _is_prime(p, "p"):
            raise GroupError("p must be an odd prime for the p^3 family")
        self.p = p
        self.spec = f"p3:{p}"

    def order(self):
        return self.p ** 3

    def iter_elements(self):
        return (t for t in itertools.product(range(self.p), repeat=3))

    def _check(self, g):
        if not isinstance(g, tuple) or len(g) != 3:
            raise GroupError(
                f"element {g!r} does not belong to {self.spec} (mixed-group operands?)")

    def mul(self, g, h):
        self._check(g)
        self._check(h)
        p = self.p
        i, j, k = g
        r, s, t = h
        return ((i + r) % p, (j + s) % p, (k + t + j * r) % p)

    def inverse(self, g):
        self._check(g)
        p = self.p
        i, j, k = g
        return ((-i) % p, (-j) % p, (i * j - k) % p)

    @property
    def identity(self):
        return (0, 0, 0)

    @property
    def gen_a(self):
        return (1, 0, 0)

    @property
    def gen_b(self):
        return (0, 1, 0)

    def element_str(self, g):
        return f"({g[0]},{g[1]},{g[2]})"

    def parse_element(self, text):
        return _parse_int_tuple(text, 3, (self.p, self.p, self.p), self.spec)


class MetacyclicGroup(Group):
    """Non-abelian group of order pq: a^p = b^q = 1, b^-1 a b = a^r.

    Requires p, q prime, q > 2, q | p-1, r in {2..p-1}, r^q = 1 (mod p),
    r != 1 (mod p).  Elements are exponent pairs (i, j) in the normal form
    b^i a^j (i mod q, j mod p), multiplied via b^i a^j b^k a^l =
    b^(i+k) a^(j*r^k + l).
    """

    kind = "metacyclic-pq"

    def __init__(self, p, q, r):
        if not _is_prime(p, "p"):
            raise GroupError(f"p={p} must be prime")
        if not _is_prime(q, "q"):
            raise GroupError(f"q={q} must be prime")
        if q <= 2:
            raise GroupError(f"q={q} must be greater than 2")
        if (p - 1) % q != 0:
            raise GroupError(f"q={q} must divide p-1={p - 1}")
        if not 2 <= r <= p - 1:
            raise GroupError(f"r={r} must lie in 2..{p - 1}")
        if pow(r, q, p) != 1:
            raise GroupError(f"r={r} must satisfy r^q = 1 (mod {p})")
        if r % p == 1:
            raise GroupError(f"r={r} must not be 1 (mod {p})")
        self.p = p
        self.q = q
        self.r = r
        self.spec = f"pq:{p},{q},{r}"

    def order(self):
        return self.p * self.q

    def iter_elements(self):
        return (t for t in itertools.product(range(self.q), range(self.p)))

    def _check(self, g):
        if not isinstance(g, tuple) or len(g) != 2:
            raise GroupError(
                f"element {g!r} does not belong to {self.spec} (mixed-group operands?)")

    def mul(self, g, h):
        self._check(g)
        self._check(h)
        i, j = g
        k, l = h
        return ((i + k) % self.q, (j * pow(self.r, k, self.p) + l) % self.p)

    def inverse(self, g):
        self._check(g)
        i, j = g
        k = (-i) % self.q
        return (k, (-j * pow(self.r, k, self.p)) % self.p)

    @property
    def identity(self):
        return (0, 0)

    @property
    def gen_a(self):
        return (0, 1)

    @property
    def gen_b(self):
        return (1, 0)

    def element_str(self, g):
        return f"({g[0]},{g[1]})"

    def parse_element(self, text):
        return _parse_int_tuple(text, 2, (self.q, self.p), self.spec)


def _parse_int_tuple(text, width, moduli, spec):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if len(parts) != width:
        raise ParseError(f"expected {width} coordinates for {spec}, got {len(parts)}")
    try:
        values = [int(p.strip()) for p in parts]
    except ValueError as exc:
        raise ParseError(f"non-integer coordinate for {spec}: {text!r}") from exc
    return tuple(v % m for v, m in zip(values, moduli))


# ---------------------------------------------------------------------------
# group specification text format

def _product_components(text, spec):
    """The component specs of a ``prod:`` body: split on the commas outside
    square brackets, and a component in brackets loses them."""
    parts, depth = [""], 0
    for ch in text:
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            break
        if ch == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    if depth:
        raise ParseError(f"unbalanced brackets in group spec {spec!r}")
    parts = [p.strip() for p in parts]
    return [p[1:-1] if p.startswith("[") and p.endswith("]") else p for p in parts if p]


def group_from_spec(spec, max_elements=None):
    """Build a group from its textual specification, with ``max_elements``
    as its enumeration cap (and that of every ``prod:`` component).

    Formats: ``sym:n``, ``alt:n``, ``cyc:n``, ``prod:cyc:3,cyc:3``,
    ``p3:p``, ``pq:p,q,r``, ``gens:n:(...)(...);(...)``.  A ``prod:``
    component whose spec has a comma goes in square brackets, as in
    ``prod:[pq:7,3,2],cyc:3`` or ``prod:[prod:cyc:2,cyc:2],cyc:3``.
    """
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    try:
        if kind == "sym":
            group = SymmetricGroup(int(rest))
        elif kind == "alt":
            group = AlternatingGroup(int(rest))
        elif kind == "cyc":
            group = CyclicGroup(int(rest))
        elif kind == "prod":
            parts = _product_components(rest, spec)
            group = DirectProductGroup([group_from_spec(p, max_elements) for p in parts])
        elif kind == "p3":
            group = HeisenbergGroup(int(rest))
        elif kind == "pq":
            p, q, r = (int(x) for x in rest.split(","))
            group = MetacyclicGroup(p, q, r)
        elif kind == "gens":
            degree_text, _, gens_text = rest.partition(":")
            n = int(degree_text)
            gens = [parse_permutation(t, n) for t in gens_text.split(";") if t.strip()]
            group = PermClosureGroup(n, gens, max_elements)
        else:
            raise ParseError(f"unknown group kind in spec {spec!r}")
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed group spec {spec!r}: {exc}") from exc
    group.max_elements = max_elements
    return group
