"""Spans around teamdec's public functions, installed from outside.

``Tracer.install`` replaces each listed function in every teamdec module
that holds it (the defining module, the package namespace and every
module that imported it by name), so calls between modules are seen as
well as the benchmark's own calls.  Each call records one span (name,
start, end, parent); a layer's self time is its duration minus the time
of its child spans.  Direct recursion (``to_jsonable``) stays one span.
Functions in ``PEAK`` also record the ``tracemalloc`` peak of the call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute) of every traced layer; "Class.method" for methods.
LAYERS = (
    ("model", "expected_cost"),
    ("model", "expected_cost_batch"),
    ("solvers", "response_table"),
    ("solvers", "best_response"),
    ("solvers", "pbp_iterate"),
    ("solvers", "brute_force"),
    ("reduction", "static_reduce"),
    ("reduction", "verify_equivalence"),
    ("reduction", "StaticReduction.reduced_problem"),
    ("convexity", "grid_convexity_test"),
    ("convexity", "conditional_cost"),
    ("convexity", "policy_midpoint_test"),
    ("convexity", "certify_team_convexity"),
    ("infostruct", "sigma_field_of"),
    ("infostruct", "classify"),
    ("strategic", "enumerate_LA"),
    ("strategic", "find_nonconvexity_witness"),
    ("strategic", "check_membership_LR"),
    ("probio", "load_problem"),
    ("probio", "problem_to_dict"),
    ("cli", "main"),
    ("cli", "to_jsonable"),
    ("quadrature", "discretize"),
    ("gallery", "signaling"),
    ("gallery", "witsenhausen"),
)

PEAK = {
    "reduction.reduced_problem",
    "solvers.brute_force",
    "strategic.enumerate_LA",
}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def _work(name: str, args, result):
    """Work a call did, read from its arguments or result."""
    if name == "convexity.grid_convexity_test":
        return result.n_pairs
    if name == "solvers.brute_force":
        return result.n_profiles
    if name == "probio.load_problem":
        return os.path.getsize(args[0])
    if name == "strategic.find_nonconvexity_witness":
        # the search space and where the search stopped: the witness pair,
        # or None when it walked every pair
        problem = args[0]
        sizes = [(len(y), len(u)) for y, u in zip(problem.y_spaces, problem.u_spaces)]
        return sizes, (result.index_a, result.index_b) if result is not None else None
    return None


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "peak", "work")

    def __init__(self, id_, name, start, parent):
        self.id, self.name, self.start, self.parent = id_, name, start, parent
        self.end = None
        self.peak = None
        self.work = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.restore = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = Span(len(tracer.spans), name, 0.0, stack[-1].id if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            own_malloc = name in PEAK and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if own_malloc:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            span.work = _work(name, args, result)
            return result

        return traced

    def install(self) -> None:
        mods = {
            n: m for n, m in sys.modules.items()
            if n == "teamdec" or n.startswith("teamdec.")
        }
        for module, attr in LAYERS:
            owner = mods[f"teamdec.{module}"]
            name = _span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self.restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self.restore.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.restore):
            setattr(owner, key, original)
        self.restore.clear()

    # -- aggregation ----------------------------------------------------

    def layer_table(self) -> dict:
        """Per span name: calls, total and self seconds, peak bytes."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "peak_bytes": 0, "work": 0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child[s.id]
            if s.peak is not None:
                row["peak_bytes"] = max(row["peak_bytes"], s.peak)
            if isinstance(s.work, int):
                row["work"] += s.work
        return dict(out)

    def descendants(self, ancestor: str, name: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        inside = set()
        n = 0
        for s in self.spans:  # parents precede children
            if s.name == ancestor or (s.parent is not None and s.parent in inside):
                inside.add(s.id)
            if s.name == name and s.parent in inside:
                n += 1
        return n

    def dump(self, path: str, metrics: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "peak_bytes"],
            "spans": [
                [s.id, s.name, s.start - t0, s.end - t0, s.parent, s.peak]
                for s in self.spans
            ],
            "metrics": metrics,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
