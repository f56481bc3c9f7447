"""Outside-in tracing of commgraph's layers for the traced benchmark run.

The benchmark records spans around calls into each layer without editing
the program: every traced function is replaced by a wrapper in every
``commgraph`` module namespace that holds it.  That matters because
``classify`` and ``cli`` bind names such as ``is_soluble``, ``build_graph``
and ``run_all_checks`` with ``from ... import``; patching only the defining
module would miss those calls.  Methods are patched on their class.

A span holds an id, a name, a start, an end, its parent's id and an optional
info dict.  Spans stay in memory until the run ends.  Element products are
counted by wrapping ``__mul__`` at class level, in the traced run only.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id name start end parent info")

PACKAGE = "commgraph"

# (module, qualified name) of every traced function, grouped by layer.
TARGETS = [
    ("fields", "field_create"),
    ("fields", "least_irreducible"),
    ("fields", "FieldSpec.log_table"),
    ("fields", "factorize"),
    ("groups", "GroupHandle.materialize"),
    ("groups", "is_soluble"),
    ("groups", "fitting_subgroup"),
    ("groups", "center"),
    ("groups", "quotient_group"),
    ("groups", "is_metacyclic"),
    ("classify", "classify_group"),
    ("classify", "is_frobenius"),
    ("classify", "is_two_frobenius"),
    ("graph", "build_graph"),
    ("graph", "diameter_and_components"),
    ("diameter8", "build_example"),
    ("diameter8", "fixed_points_in_F"),
    ("diameter8", "centralizer_in_G"),
    ("diameter8", "verify_d_structure"),
    ("diameter8", "verify_not_frobenius_structure"),
    ("diameter8", "verify_symplectic"),
    ("diameter8", "verify_family_separation"),
    ("diameter8", "witness_path8"),
    ("diameter8", "verify_f_class3"),
    ("diameter8", "find_params"),
    ("corpus", "load_group_file"),
    ("cli", "main"),
]

# Element classes whose products are counted: (module, class, metric name).
PRODUCT_COUNTERS = [
    ("groups", "PermutationElement", "groups.perm_products"),
    ("groups", "MatrixAutElement", "groups.matrix_products"),
]


def _graph_info(graph):
    return {
        "vertices": graph.vertex_count,
        "classes": len(graph.classes),
        "edges": sum(len(adj) for adj in graph.adjacency) // 2,
    }


DESCRIBE = {"graph.build_graph": _graph_info}


class Tracer:
    """Installs span wrappers into the loaded ``commgraph`` package and removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []
        self._counters: dict[str, itertools.count] = {}

    # -- installation

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target; call from the thread that runs the CLI."""
        self._local.stack = self._main_stack
        for module_name, qualname in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for module_name, cls_name, metric in PRODUCT_COUNTERS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], cls_name)
            # next() on itertools.count is a single C call, so concurrent
            # increments from the --jobs thread pool are not lost.
            counter = self._counters[metric] = itertools.count()
            self._patch(cls, "__mul__", _counting(cls.__mul__, counter.__next__))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, ids, local, main_stack = self.spans, self._ids, self._local, self._main_stack
        describe = DESCRIBE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                # a worker thread's first span hangs below the main thread's open span
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = describe(result) if describe and result is not None else None
                spans.append(Span(sid, name, start, end, parent, info))

        return wrapper

    # -- results

    def product_counts(self) -> dict[str, int]:
        """Products counted while installed; call once, after ``remove``."""
        return {metric: next(counter) for metric, counter in self._counters.items()}


def _counting(mul, tick):
    def __mul__(a, b):
        tick()
        return mul(a, b)

    return __mul__


# ---------------------------------------------------------------------------
# span analysis


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(spans):
    """Per-name inclusive and self time, call counts, info sums and the span tree.

    Inclusive time counts only the outermost span of a name on each path, so
    a function that re-enters itself is not counted twice.  Self time is a
    span's duration minus the part of it that its child spans cover.
    """
    by_id = {s.id: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    paths: dict = {}

    def path_of(s):
        if s.id not in paths:
            parent = by_id.get(s.parent)
            paths[s.id] = (path_of(parent) if parent else ()) + (s.name,)
        return paths[s.id]

    inclusive: dict = {}
    self_time: dict = {}
    calls: dict = {}
    info: dict = {}
    tree: dict = {}
    for s in sorted(spans, key=lambda s: s.start):
        path = path_of(s)
        dur = s.end - s.start
        own = dur - _union_length((c.start, c.end) for c in children.get(s.id, ()))
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + own
        if s.name not in path[:-1]:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + dur
        for key, value in (s.info or {}).items():
            info[key] = info.get(key, 0) + value
        node = tree.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += dur
        node[2] += own
    return {"inclusive": inclusive, "self": self_time, "calls": calls, "info": info,
            "tree": tree}


def format_tree(tree) -> list[str]:
    """One line per span path: calls, inclusive and self seconds."""
    lines = [f"{'calls':>8} {'incl_s':>9} {'self_s':>9}  span"]
    for path in sorted(tree):
        n, incl, own = tree[path]
        lines.append(f"{n:>8} {incl:>9.4f} {own:>9.4f}  {'  ' * (len(path) - 1)}{path[-1]}")
    return lines
