"""Outside-in tracer for sparsedioph's layers.

`Tracer.install` wraps every public function of each timed module, both
in its defining module and wherever another sparsedioph module imported
it by name, so calls between layers pass through the wrappers. The
package itself is not modified on disk. Spans (id, parent id, name,
start, end, status, gauge) are kept in memory and written out at the end;
`layer_metrics` derives self times, counts, ratios and bit-size gauges.

Modules are taken from `sys.modules`, because the package attribute
`sparsedioph.sparsify` is the function that shadows the submodule.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "sparsedioph"
# `oracle` is the exponential brute-force reference and is not timed.
LAYERS = ("intlinalg", "numtheory", "sparsify", "diophsolve", "semigroup", "exactlp",
          "fileio", "cli")
GAUGE_SPAN = "trace.gauge"


def _bits(values) -> int:
    return max(map(abs, values), default=0).bit_length()


# Gauges read a call's arguments and result after its span has ended; the
# time they take is recorded as a GAUGE_SPAN, not as the caller's self time.
GAUGES = {
    "intlinalg.hnf_columns": lambda args, res: None if res is None else max(
        _bits(res.H.entries), _bits(res.U.entries)),
    "intlinalg.lattice_member": lambda args, res: res is not None,
    "numtheory.factorize": lambda args, res: int(args[0]).bit_length(),
    "diophsolve.solve_sparse_lattice": lambda args, res: None if res is None else _bits(res.x),
}

# Per-layer metrics reported by a traced run: (name, unit).
CALLS = ("intlinalg.hnf_columns", "intlinalg.lattice_member", "intlinalg.det_exact",
         "numtheory.factorize", "semigroup.solve_semigroup_posspan",
         "semigroup.kernel_vector_pigeonhole", "exactlp.basic_feasible_point")
SELF = ("intlinalg.hnf_columns", "intlinalg.lattice_member", "intlinalg.det_exact",
        "numtheory.factorize", "sparsify.sparsify", "sparsify.first_nonsingular_basis",
        "diophsolve.solve_sparse_lattice", "semigroup.solve_semigroup_posspan",
        "semigroup.sparsity_bounds", "semigroup.solve_knapsack_positive",
        "exactlp.basic_feasible_point", "fileio.parse_matrix_text", "cli.build_parser",
        "cli.run")
PER_LAYER = (
    [(f"{f}.calls", "count") for f in CALLS]
    + [(f"{f}.self_s", "s") for f in SELF]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("intlinalg.hnf_columns.max_bits", "bits"),
        ("numtheory.factorize.timeouts", "count"),
        ("numtheory.factorize.max_input_bits", "bits"),
        ("sparsify.sparsify.drop_ratio", "ratio"),
        ("sparsify.first_nonsingular_basis.dets_per_call", "count"),
        ("diophsolve.x_bits_max", "bits"),
        ("semigroup.solve_knapsack_mixed.posspan_per_call", "count"),
        ("semigroup.sparsity_bounds.dets_per_call", "count"),
        ("semigroup.solve_knapsack_positive.cap_exceeded", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.gauge_s", "s"),
        ("trace.untraced_s", "s"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []  # ids of the open spans; cleared before each call
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def install(self) -> list[str]:
        """Wrap the public functions of every layer; returns their names."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return sorted(w.__qualname__ for _, w in wrappers.values())

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self.stack, self._ids
        gauge = GAUGES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            status, result = "ok", None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                value = None
                if gauge is not None:
                    value = gauge(args, result)
                    spans.append((next(ids), parent, GAUGE_SPAN, t1, clock(), "ok", None))
                spans.append((sid, parent, name, t0, t1, status, value))

        wrapper.__qualname__ = name
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics per pass over the instance set."""
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[4] - s[3]
    self_s, calls, root = defaultdict(float), Counter(), 0.0
    for s in spans:
        self_s[s[2]] += s[4] - s[3] - child[s[0]]
        calls[s[2]] += 1
        if s[1] is None:
            root += s[4] - s[3]

    def parent_name(s):
        p = by_id.get(s[1])
        return p[2] if p else None

    def children_per_call(parent, child_name):
        n = sum(1 for s in spans if s[2] == child_name and parent_name(s) == parent)
        return n / calls[parent] if calls[parent] else 0.0

    def gauge_max(name):
        return max((s[6] for s in spans if s[2] == name and s[6] is not None), default=0)

    drops = [s[6] for s in spans
             if s[2] == "intlinalg.lattice_member" and s[5] == "ok"
             and parent_name(s) == "sparsify.sparsify"]
    out = {f"{f}.calls": calls[f] / passes for f in CALLS}
    out.update({f"{f}.self_s": self_s[f] / passes for f in SELF})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) / passes
    out.update({
        "intlinalg.hnf_columns.max_bits": gauge_max("intlinalg.hnf_columns"),
        "numtheory.factorize.timeouts": sum(
            1 for s in spans if s[2] == "numtheory.factorize"
            and s[5] in ("FactorizationTimeout", "InstanceTimeout")) / passes,
        "numtheory.factorize.max_input_bits": gauge_max("numtheory.factorize"),
        "sparsify.sparsify.drop_ratio": sum(drops) / len(drops) if drops else 0.0,
        "sparsify.first_nonsingular_basis.dets_per_call": children_per_call(
            "sparsify.first_nonsingular_basis", "intlinalg.det_exact"),
        "diophsolve.x_bits_max": gauge_max("diophsolve.solve_sparse_lattice"),
        "semigroup.solve_knapsack_mixed.posspan_per_call": children_per_call(
            "semigroup.solve_knapsack_mixed", "semigroup.solve_semigroup_posspan"),
        "semigroup.sparsity_bounds.dets_per_call": children_per_call(
            "semigroup.sparsity_bounds", "intlinalg.det_exact"),
        "semigroup.solve_knapsack_positive.cap_exceeded": sum(
            1 for s in spans if s[2] == "semigroup.solve_knapsack_positive"
            and s[5] == "CapExceeded") / passes,
        "trace.wall_s": traced_wall / passes,
        "trace.overhead_s": (traced_wall - untraced_wall) / passes,
        "trace.gauge_s": self_s[GAUGE_SPAN] / passes,
        "trace.untraced_s": (traced_wall - root) / passes,
    })
    return out
