"""Per-layer spans recorded by wrappers around astute's public functions.

The layers are the package modules.  `install` replaces every public
module-level function of each layer with a wrapper, both on its home
module and on every astute module that imported it by name, so calls
inside a module and calls across modules are both seen.  Not wrapped:
methods of classes, and the element-level helpers in UNWRAPPED, which
run once per word, vertex or coefficient and would cost more to trace
than they do; their time counts to the function that called them.

A wrapper records one span (function, parent span, operation, start,
end) in a flat in-memory array and adds the span's self time (duration
minus the part covered by its child spans) to its function.  Counter
hooks read arguments and results at the same boundary.  `uninstall`
restores the original functions.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "counting", "rules", "graph", "ideals", "snf", "algebra",
          "extremal", "spectral")

UNWRAPPED = {
    "graph": {"word_value", "value_word", "pack", "unpack", "check_vertex",
              "successors", "is_arc", "successor_codes", "iter_vertices",
              "word_str", "parse_word"},
    "spectral": {"root_of_unity", "rotate_left", "rotate_right"},
    "algebra": {"mod_inverse", "is_unit", "is_prime", "euler_phi"},
}

# Route functions whose work happens in other layers: their metric is the
# whole span (inclusive), because their self time is near zero by design.
INCLUSIVE = {
    "counting.enumeration_s": "counting.count_enumeration",
    "counting.burnside_s": "counting.count_burnside_direct",
    "counting.theorem2_s": "counting.count_theorem2",
    "extremal.verify_theorem1_s": "extremal.verify_theorem1",
}

# Self-time metrics of single functions.
SELF = {
    "rules.word_permutation_s": "rules.word_permutation",
    "rules.successor_array_s": "rules.successor_array",
    "rules.fix_count_bruteforce_s": "rules.fix_count_bruteforce",
    "graph.factor_from_successor_s": "graph.factor_from_successor",
    "graph.factor_to_doc_s": "graph.factor_to_doc",
    "graph.to_dot_s": "graph.to_dot",
    "ideals.order_of_x_s": "ideals.order_of_x",
    "ideals.smallest_cycle_length_s": "ideals.smallest_cycle_length",
    "ideals.membership_cUs_s": "ideals.membership_cUs",
    "ideals.ideal_quotient_size_s": "ideals.ideal_quotient_size",
    "snf.smith_normal_form_s": "snf.smith_normal_form",
    "algebra.poly_rem_s": "algebra.poly_rem",
    "algebra.poly_gcd_field_s": "algebra.poly_gcd_field",
    "extremal.search_s": "extremal.search_extremal",
    "spectral.transform_s": "spectral.transform",
    "spectral.rotation_identity_check_s": "spectral.rotation_identity_check",
    "spectral.cycle_sum_check_s": "spectral.cycle_sum_check",
}

# Work counters: they must repeat exactly across runs with equal inputs.
EXACT_COUNTERS = ("rules.words", "graph.vertices", "extremal.nodes",
                  "snf.calls", "snf.cells", "ideals.lattice_dim_sum",
                  "spectral.transform_calls", "algebra.poly_rem_calls")
COUNTERS = EXACT_COUNTERS + ("counting.burnside_steps", "ideals.quotient_calls")


def _count_words(c, args, kwargs, result):
    c["rules.words"] += len(result)


def _count_vertices(c, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    c["graph.vertices"] += p.num_vertices


def _count_burnside(c, args, kwargs, result):
    c["counting.burnside_steps"] += result.witnesses["M"] * result.b ** result.n


def _count_snf(c, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    c["snf.calls"] += 1
    c["snf.cells"] += len(rows) * len(rows[0])
    # every lattice astute builds lives in ideals; its dimension is the width
    c["ideals.lattice_dim_sum"] += len(rows[0])


def _count_call(name):
    def hook(c, args, kwargs, result):
        c[name] += 1
    return hook


def _count_nodes(c, args, kwargs, result):
    c["extremal.nodes"] += result.nodes_explored


HOOKS = {
    "rules.word_permutation": _count_words,
    "graph.factor_from_successor": _count_vertices,
    "counting.count_burnside_direct": _count_burnside,
    "snf.smith_normal_form": _count_snf,
    "ideals.ideal_quotient_size": _count_call("ideals.quotient_calls"),
    "algebra.poly_rem": _count_call("algebra.poly_rem_calls"),
    "spectral.transform": _count_call("spectral.transform_calls"),
    "extremal.search_extremal": _count_nodes,
}


def _public_functions(layer, module):
    """Public functions defined in `module`, lru_cache-wrapped ones
    included, minus the layer's UNWRAPPED helpers."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or name in UNWRAPPED.get(layer, ()):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Spans and counters of the operations run while installed."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"astute.{name}")
                        for name in LAYERS}
        self.modules["__init__"] = importlib.import_module("astute")
        self.fn_names: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._build_wrappers()
        self.reset()

    def reset(self):
        """Forget every span, time and counter recorded so far."""
        n = len(self.fn_names)
        self.self_time = [0.0] * n
        self.incl_time = [0.0] * n
        self.counters: Counter = Counter()
        self.op_counters: Counter = Counter()
        self.stack: list[list] = []
        self.op = -1
        # five slots per span: function, parent span, op, start, end;
        # one extend per span keeps the slots aligned even when a time
        # limit interrupts the wrapper
        self.spans = array("d")

    def _build_wrappers(self):
        by_identity = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, fn in _public_functions(layer, mod).items():
                qual = f"{layer}.{name}"
                fid = len(self.fn_names)
                self.fn_names.append(qual)
                by_identity[id(fn)] = (fn, self._wrap(fid, fn, HOOKS.get(qual)))
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                hit = by_identity.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, name, obj))
                    self._wrappers.append((mod, name, hit[1]))

    def _wrap(self, fid, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            spans = tracer.spans
            idx = len(spans)
            spans.extend((fid, stack[-1][1] // 5 if stack else -1,
                          tracer.op, 0.0, 0.0))
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = t1 - t0
                tracer.self_time[fid] += dur - frame[0]
                tracer.incl_time[fid] += dur
                if stack:
                    stack[-1][0] += dur
                spans[idx + 3] = t0
                spans[idx + 4] = t1
            if hook is not None:
                hook(tracer.op_counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod, name, wrapper in self._wrappers:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in self._originals:
            setattr(mod, name, original)

    def begin_op(self, op: int):
        self.op = op
        self.stack.clear()
        self.op_counters = Counter()

    def end_op(self, completed: bool):
        """Close an operation; only completed ones add to the work counters,
        since a stopped call's partial work depends on when it was stopped."""
        self.stack.clear()
        if completed:
            self.counters.update(self.op_counters)
        self.op_counters = Counter()

    def snapshot(self) -> dict:
        """Times per function and layer plus counters, since the last reset."""
        fn_self = dict(zip(self.fn_names, self.self_time))
        fn_incl = dict(zip(self.fn_names, self.incl_time))
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, t in fn_self.items():
            layer_self[name.split(".", 1)[0]] += t
        return {"fn_self": fn_self, "fn_incl": fn_incl,
                "layer_self": layer_self, "counters": dict(self.counters)}

    def dump(self, path: str, ops: list[str]):
        """Write the recorded spans as gzipped JSON (times relative to the first)."""
        s = self.spans
        base = s[3] if s else 0.0
        doc = {
            "functions": self.fn_names,
            "ops": ops,
            "columns": ["function", "parent", "op", "start_s", "end_s"],
            "spans": [[int(s[i]), int(s[i + 1]), int(s[i + 2]),
                       round(s[i + 3] - base, 9), round(s[i + 4] - base, 9)]
                      for i in range(0, len(s), 5)],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
