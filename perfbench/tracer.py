"""Binding-aware, in-process tracer for the semistar layers.

The tracer wraps every function and method defined in a layer module and
rebinds every ``semistar.*`` module attribute that is the same object as a
wrapped function.  Rebinding matters because ``classify``, ``theorems``,
``laws``, ``scenarios`` and ``exprs`` import ``apply``, ``make_handle`` and
the ``handle_*`` helpers by name; patching ``operations.apply`` alone would
miss every call made through those names.  Methods are wrapped on the class
(``ExtensionField``, ``Subspace``, ``Segment``, the ideal engines, ...), so
every instance sees the wrapper.

Spans are aggregated in memory, never written per call: for each wrapped
function the tracer keeps its call count, its self time (span duration minus
the time its child spans cover) and its inclusive time counted at the
outermost activation only, so recursion is not double counted.  Nothing under
``src/`` is changed; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# module name -> layer name used in metric names
LAYERS = {
    "semistar.algebra.fields": "fields",
    "semistar.algebra.linalg": "linalg",
    "semistar.algebra.groups": "groups",
    "semistar.numsgr": "numsgr",
    "semistar.dplusm": "dplusm",
    "semistar.operations": "operations",
    "semistar.classify": "classify",
    "semistar.theorems": "theorems",
    "semistar.laws": "laws",
    "semistar.exprs": "exprs",
    "semistar.scenarios": "scenarios",
}

PREDICATES = (
    "is_star_domain", "is_pstarmd", "is_ab", "is_eab", "coherence_check",
    "is_star_finite", "is_H_domain", "h_clauses", "is_I_domain", "is_star_dedekind",
)
# the dispatch branches of operations.apply
APPLY_KINDS = ("identity", "v", "st", "spec", "ft", "bar", "tilde", "asc", "desc")
NUMSGR_OPS = (
    "ideal_sum", "ideal_mul", "ideal_intersect", "ideal_colon", "v_closure",
    "ideal_normalize", "ideal_leq",
)
DPLUSM_OPS = (
    "module_from_generators", "module_leq", "module_eq", "module_sum",
    "module_intersect", "module_mul", "module_scale", "module_colon",
)


def per_layer_metric_units():
    """Every per-layer metric name the traced run prints, with its unit."""
    out = {}
    for layer in LAYERS.values():
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    for name in PREDICATES:
        out[f"classify.{name}.calls"] = "count"
        out[f"classify.{name}.total_s"] = "s"
    out["operations.make_handle.calls"] = "count"
    out["operations.make_handle.self_s"] = "s"
    out["operations.make_handle.total_s"] = "s"
    out["operations.make_handle.distinct_ratio"] = "ratio"
    for kind in APPLY_KINDS:
        out[f"operations.apply.{kind}.calls"] = "count"
        out[f"operations.apply.{kind}.self_s"] = "s"
    out["operations.apply.distinct_ratio"] = "ratio"
    out["operations.unit_handle.calls"] = "count"
    for name in NUMSGR_OPS:
        out[f"numsgr.{name}.calls"] = "count"
    for name in DPLUSM_OPS:
        out[f"dplusm.{name}.calls"] = "count"
    out["linalg.rref.calls"] = "count"
    out["exprs.parse.self_s"] = "s"
    out["exprs.eval.self_s"] = "s"
    out["scenarios.run_scenario.self_s"] = "s"
    out["theorems.theorem_suite.self_s"] = "s"
    out["trace_overhead_ratio"] = "ratio"
    out["traced_self_share"] = "ratio"
    return out


class _Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.depth = 0


def _payload_key(domain, payload):
    return (domain.name or repr(domain), payload)


class Tracer:
    """Wraps the layer functions of an imported ``semistar`` package."""

    def __init__(self):
        self.stats = {}  # "layer.qualname" -> _Stat
        self.apply_stats = {kind: _Stat() for kind in APPLY_KINDS}
        self.handle_keys = set()
        self.apply_keys = set()
        self._stack = []  # child time accumulated by each open span
        self._apply_stack = []  # nested-apply time of each open apply span
        self._bindings = []  # (owner, attribute, original) to restore
        self._on = [False]  # spans are recorded only while a request runs

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        on = self._on
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            stack.append(0)
            stat.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.depth -= 1
                stat.calls += 1
                stat.self_ns += dt - stack.pop()
                if not stat.depth:
                    stat.total_ns += dt
                if stack:
                    stack[-1] += dt

        return traced

    def _wrap_make_handle(self, key, fn):
        inner = self._wrap(key, fn)
        keys = self.handle_keys
        on = self._on

        def make_handle(domain, payload):
            if on[0]:
                keys.add(_payload_key(domain, payload))
            return inner(domain, payload)

        return make_handle

    def _wrap_apply(self, key, fn):
        """apply is also split by operation kind: a kind's self time is its
        span minus the apply spans nested in it, so the kinds partition the
        total time spent in apply."""
        inner = self._wrap(key, fn)
        keys = self.apply_keys
        kinds = self.apply_stats
        astack = self._apply_stack
        on = self._on
        clock = time.perf_counter_ns

        def apply(op, e):
            if not on[0]:
                return inner(op, e)
            keys.add((op, _payload_key(e.domain, e.payload)))
            stat = kinds[op.kind]
            astack.append(0)
            t0 = clock()
            try:
                return inner(op, e)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.self_ns += dt - astack.pop()
                if astack:
                    astack[-1] += dt

        return apply

    # -- install / uninstall -------------------------------------------------

    def install(self):
        originals = {}  # id(original function) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    if inspect.isgeneratorfunction(obj):
                        continue  # iteration time stays with the consumer
                    key = f"{layer}.{name}"
                    if key == "operations.make_handle":
                        wrapper = self._wrap_make_handle(key, obj)
                    elif key == "operations.apply":
                        wrapper = self._wrap_apply(key, obj)
                    else:
                        wrapper = self._wrap(key, obj)
                    originals[id(obj)] = (obj, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == modname
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(layer, obj)
        # rebind every name under which any semistar module holds a wrapped
        # function: its home module, the modules that imported it by name,
        # and the package re-exports
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "semistar" or modname.startswith("semistar.")):
                continue
            for name, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name.endswith("__"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(key, attr.__func__))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(key, attr.__func__))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                new = self._wrap(key, attr)
            else:
                continue  # properties, cached properties and data
            self._bindings.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    def enable(self, on: bool):
        """Record spans (during a request) or pass calls straight through
        (while the harness checks outputs)."""
        self._on[0] = on

    def reset_stack(self):
        """Drop spans left open by a request that was interrupted."""
        self._stack.clear()
        self._apply_stack.clear()
        for stat in self.stats.values():
            stat.depth = 0

    # -- results ------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float):
        units = per_layer_metric_units()
        values = dict.fromkeys(units, 0)
        layer_of = {}
        for key, stat in self.stats.items():
            layer = key.split(".", 1)[0]
            layer_of[key] = layer
            values[f"{layer}.calls"] += stat.calls
            values[f"{layer}.self_s"] += stat.self_ns / 1e9
        for name in PREDICATES:
            stat = self.stats.get(f"classify.{name}", _Stat())
            values[f"classify.{name}.calls"] = stat.calls
            values[f"classify.{name}.total_s"] = stat.total_ns / 1e9
        handle = self.stats.get("operations.make_handle", _Stat())
        values["operations.make_handle.calls"] = handle.calls
        values["operations.make_handle.self_s"] = handle.self_ns / 1e9
        values["operations.make_handle.total_s"] = handle.total_ns / 1e9
        values["operations.make_handle.distinct_ratio"] = (
            len(self.handle_keys) / handle.calls if handle.calls else 0.0)
        apply_calls = 0
        for kind, stat in self.apply_stats.items():
            values[f"operations.apply.{kind}.calls"] = stat.calls
            values[f"operations.apply.{kind}.self_s"] = stat.self_ns / 1e9
            apply_calls += stat.calls
        values["operations.apply.distinct_ratio"] = (
            len(self.apply_keys) / apply_calls if apply_calls else 0.0)
        values["operations.unit_handle.calls"] = self.stats.get(
            "operations.unit_handle", _Stat()).calls
        for name in NUMSGR_OPS:
            values[f"numsgr.{name}.calls"] = self.stats.get(f"numsgr.{name}", _Stat()).calls
        for name in DPLUSM_OPS:
            values[f"dplusm.{name}.calls"] = self.stats.get(f"dplusm.{name}", _Stat()).calls
        values["linalg.rref.calls"] = self.stats.get("linalg.rref", _Stat()).calls
        for key, stat in self.stats.items():
            if layer_of[key] != "exprs":
                continue
            name = key.split(".", 1)[1]
            if name.startswith(("parse", "_parse", "_op_term", "_Parser.")):
                values["exprs.parse.self_s"] += stat.self_ns / 1e9
            elif name.startswith(("eval", "_eval")):
                values["exprs.eval.self_s"] += stat.self_ns / 1e9
        values["scenarios.run_scenario.self_s"] = self.stats.get(
            "scenarios.run_scenario", _Stat()).self_ns / 1e9
        values["theorems.theorem_suite.self_s"] = self.stats.get(
            "theorems.theorem_suite", _Stat()).self_ns / 1e9
        values["trace_overhead_ratio"] = traced_s / untraced_s
        self_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS.values())
        values["traced_self_share"] = self_sum / traced_s
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    def top_functions(self, n=25):
        """The functions with the largest self time, for the detail line."""
        rows = sorted(self.stats.items(), key=lambda kv: kv[1].self_ns, reverse=True)
        return [
            {"name": key, "calls": stat.calls, "self_s": round(stat.self_ns / 1e9, 6),
             "total_s": round(stat.total_ns / 1e9, 6)}
            for key, stat in rows[:n] if stat.calls
        ]
