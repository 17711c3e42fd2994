"""Per-layer spans, recorded around calls into the program from outside it.

``install`` replaces each traced public name of the ``bitrades`` package
with a wrapper at every module that holds it (for a function imported as
``from .core import from_group``, both ``bitrades.core.from_group`` and
``bitrades.cli.from_group``), and each traced method on its class.  The
wrappers open and close spans in a ``Tracer``; ``uninstall`` puts the
originals back.  ``Group.mul`` is deliberately not traced: it runs millions
of times per search and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute or Class.method)
TRACED = {
    "groups.closure": ("bitrades.groups", "Group.closure"),
    "groups.elements": ("bitrades.groups", "Group.elements"),
    "groups.subgroup": ("bitrades.groups", "Subgroup.__init__"),
    "core.group_triple": ("bitrades.core", "GroupTriple.__init__"),
    "core.from_group": ("bitrades.core", "from_group"),
    "core.make_bitrade": ("bitrades.core", "make_bitrade"),
    "core.triple_permutations": ("bitrades.core", "triple_permutations"),
    "core.separation_witness": ("bitrades.core", "separation_witness"),
    "properties.is_separated": ("bitrades.properties", "is_separated"),
    "properties.is_primary": ("bitrades.properties", "is_primary"),
    "properties.is_thin": ("bitrades.properties", "is_thin"),
    "properties.is_orthogonal": ("bitrades.properties", "is_orthogonal"),
    "properties.homogeneity": ("bitrades.properties", "homogeneity"),
    "properties.group_thin_criterion": ("bitrades.properties", "group_thin_criterion"),
    "properties.group_orthogonal_criterion":
        ("bitrades.properties", "group_orthogonal_criterion"),
    "properties.is_minimal": ("bitrades.properties", "is_minimal"),
    "search.iter_triples": ("bitrades.search", "iter_triples"),
    "search.bitrade_signature": ("bitrades.search", "bitrade_signature"),
    "families.predicted_table": ("bitrades.families", "predicted_table"),
    "serialize.bitrade_to_json": ("bitrades.serialize", "bitrade_to_json"),
    "serialize.read_bitrade": ("bitrades.serialize", "read_bitrade"),
    "cli.main": ("bitrades.cli", "main"),
}

# the outermost span: each time one closes, the process's high-water RSS
# is recorded
TOP_LEVEL = "cli.main"

# the per-layer metrics: (name, unit), in report order
CALL_COUNTS = ["groups.closure", "groups.subgroup", "core.group_triple",
               "core.make_bitrade", "core.triple_permutations", "properties.is_minimal"]
METRICS = ([(f"{name}_s", "s") for name in TRACED]
           + [(f"{name}_calls", "count") for name in CALL_COUNTS]
           + [("search.pairs_tried", "count"), ("search.triples_admitted", "count"),
              ("search.admit_ratio", "ratio"),
              ("serialize.bytes_out", "B"), ("serialize.bytes_in", "B"),
              (f"{TOP_LEVEL}.maxrss_mb", "MiB"),
              ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
              ("trace.overhead_ratio", "ratio")])


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, run id];
    counters for work that is not a call."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxrss = 0.0
        self.run = 0
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] == -1:
            self.maxrss = max(self.maxrss, maxrss_mb())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans):
    """Per span name: (total self time, call count).  A span's self time is
    its duration minus the durations of its direct children; spans nest
    properly because the program runs on one thread."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name][0] += (end - start) - child[i]
        totals[name][1] += 1
    return {name: tuple(v) for name, v in totals.items()}


def pairs_tried(spans):
    """Pairs that reached the group-triple (G1-G2) test inside
    ``iter_triples``; pairs with c = 1 are skipped before it."""
    return sum(1 for name, _, _, parent, _ in spans
               if name == "core.group_triple" and parent >= 0
               and spans[parent][0] == "search.iter_triples")


def _payload_size(source):
    """Bytes of the document ``read_bitrade`` loads; the CLI passes a path."""
    return os.path.getsize(source) if isinstance(source, str) else 0


def _wrap(tracer, name, fn):
    if inspect.isgeneratorfunction(fn):
        # iter_triples, the one traced generator: a span per resumption, so
        # its self time excludes the caller's work between items
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts["search.triples_admitted"] += 1
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if name == "serialize.bitrade_to_json":
            tracer.counts["serialize.bytes_out"] += len(result.encode("utf-8"))
        elif name == "serialize.read_bitrade" and args:
            tracer.counts["serialize.bytes_in"] += _payload_size(args[0])
        return result
    return wrapper


def install(tracer):
    """Wrap every traced name; returns the list of patches for
    ``uninstall``."""
    patches = []
    for name, (module_name, attr) in TRACED.items():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            patches.append((cls, method, original))
            setattr(cls, method, _wrap(tracer, name, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bitrades" and not mod_name.startswith("bitrades."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches):
    for target, key, original in reversed(patches):
        setattr(target, key, original)


def layer_metrics(tracer, iterations, untraced_s, traced_s):
    """Every per-layer metric, per iteration of the workload."""
    per_name = self_times(tracer.spans)
    values = {}
    for name in TRACED:
        values[f"{name}_s"] = per_name.get(name, (0.0, 0))[0] / iterations
    for name in CALL_COUNTS:
        values[f"{name}_calls"] = per_name.get(name, (0.0, 0))[1] / iterations
    tried = pairs_tried(tracer.spans)
    admitted = tracer.counts["search.triples_admitted"]
    values["search.pairs_tried"] = tried / iterations
    values["search.triples_admitted"] = admitted / iterations
    values["search.admit_ratio"] = admitted / tried if tried else 0.0
    values["serialize.bytes_out"] = tracer.counts["serialize.bytes_out"] / iterations
    values["serialize.bytes_in"] = tracer.counts["serialize.bytes_in"] / iterations
    values[f"{TOP_LEVEL}.maxrss_mb"] = tracer.maxrss
    values["trace.untraced_s"] = untraced_s / iterations
    values["trace.traced_s"] = traced_s / iterations
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values
