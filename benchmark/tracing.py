"""Spans and counters around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every module that
binds it (``value_of_poly`` is bound in ``uniformizer.valuation`` and in
``uniformizer.uniformize``, for example) and ``Tracer.uninstall`` puts the
originals back.  A span records ``(name, start, end, parent, op_id)`` in
memory; a layer's self time is its span's duration minus the time its
child spans cover.  The hottest entry points only count calls, and
``compare`` also keeps a running time without storing spans.

Everything runs on one thread with no queue, so self time is busy time
and no layer waits.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span groups: metric prefix -> (module or class path, attribute) pairs
SPANS = {
    "valuegroup.perron": [("uniformizer.valuegroup", "perron_positive_basis")],
    "valuation.value_of_poly": [("uniformizer.valuation", "value_of_poly")],
    "valuation.residue": [("uniformizer.valuation", "residue_of")],
    "polyfield.substitute": [("uniformizer.polyfield", "substitute")],
    "polyfield.mul": [("uniformizer.polyfield:SparsePoly", "__mul__")],
    "polyfield.gcd": [("uniformizer.polyfield", "poly_gcd")],
    "polyfield.ratfun_make": [("uniformizer.polyfield:RationalFunction", "make")],
    "series.mul": [("uniformizer.series:TruncatedSeries", "__mul__")],
    "series.inverse": [("uniformizer.series:TruncatedSeries", "inverse")],
    "series.eval_poly": [("uniformizer.series", "eval_poly_at_series")],
    "series.ratfun_to_series": [("uniformizer.series", "ratfun_to_series")],
    "completion.hensel": [("uniformizer.completion", "hensel_lift_root")],
    "completion.build": [
        ("uniformizer.completion", "uniformize_discrete_rational"),
        ("uniformizer.completion", "uniformize_immediate_simple"),
    ],
    "completion.kaplansky": [("uniformizer.completion", "kaplansky_normalize")],
    "uniformize.build": [("uniformizer.uniformize", "uniformize_abhyankar")],
    "uniformize.verify": [("uniformizer.uniformize", "verify")],
    "uniformize.compose": [("uniformizer.uniformize", "compose")],
    "expr.parse": [("uniformizer.expr", "parse_element"), ("uniformizer.expr", "parse_series")],
    "jsonio.parse": [
        ("uniformizer.jsonio", name)
        for name in ("parse_place", "parse_system", "parse_presentation", "parse_order", "_parse_rf", "_parse_poly")
    ],
    "jsonio.dump": [("uniformizer.jsonio", "system_to_json")],
    "cli.handler": [
        ("uniformizer.cli", name)
        for name in (
            "_cmd_value", "_cmd_residue", "_cmd_perron", "_cmd_uniformize",
            "_cmd_discrete_uniformize", "_cmd_compose", "_cmd_verify", "_cmd_report",
        )
    ],
}

# counted only: these run millions of times per traced run
COUNTERS = {
    "surd.make": [("uniformizer.surd:SurdScalar", "make")],
    "surd.sign": [("uniformizer.surd:SurdScalar", "sign")],
    "fields.ops": [("uniformizer.fields:BaseField", name) for name in ("add", "sub", "mul")],
}

# timed without storing spans
TIMED = {"valuegroup.compare": [("uniformizer.valuegroup", "compare")]}


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


def _series_products(a, b):
    """Coefficient products the schoolbook series product can form."""
    if not a.coeffs or not b.coeffs:
        return 0
    prec = min(a.precision + b.offset, b.precision + a.offset)
    width = max(0, prec - a.offset - b.offset)
    return sum(min(len(b.coeffs), width - i) for i in range(min(len(a.coeffs), width)))


def _inverse_products(s):
    rel = s.precision - s.offset
    return rel * (rel - 1) // 2 if s.coeffs else 0


class Tracer:
    """Collects spans and counters while ``active``; one operation at a time."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.active = False
        self.op_id = None
        self.spans = []
        self.names = {}
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.stack = []
        self.seen_polys = set()
        self._undo = []
        self._op_span = self._wrap_span("op", lambda fn, *args: fn(*args))

    # -- operations ------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span named ``op``."""
        self.op_id = op_id
        self.seen_polys = set()
        self.active = True
        try:
            return self._op_span(fn, *args)
        finally:
            self.active = False

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name, fn, hook=None):
        tracer = self
        name_id = self.names.setdefault(name, len(self.names))

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            tracer.calls[name] += 1
            stack = tracer.stack
            frame = [0.0]
            parent = stack[-1][1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((frame, index))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.spans[index] = (name_id, start, end, parent, tracer.op_id)
                tracer.self_s[name] += dur - frame[0]
                tracer.total_s[name] += dur
                if stack:
                    stack[-1][0][0] += dur

        return wrapper

    def _wrap_timed(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer.self_s[name] += dur
                if tracer.stack:
                    tracer.stack[-1][0][0] += dur

        return wrapper

    def _wrap_counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        def value_of_poly(args):
            key = (args[0], args[1])
            if key in self.seen_polys:
                self.counts["valuation.value_of_poly.repeats"] += 1
            else:
                self.seen_polys.add(key)

        return {
            "valuation.value_of_poly": value_of_poly,
            "series.mul": lambda args: self.counts.update({"series.mul.coeff_products": _series_products(*args)}),
            "series.inverse": lambda args: self.counts.update({"series.inverse.coeff_products": _inverse_products(args[0])}),
        }

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        groups = [(SPANS, "span"), (TIMED, "timed"), (COUNTERS, "counter")]
        for table, kind in groups:
            for name, targets in table.items():
                for path, attr in targets:
                    self._patch(_resolve(path), attr, name, kind, hooks.get(name))

    def _patch(self, owner, attr, name, kind, hook):
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if kind == "span":
            wrapped = self._wrap_span(name, fn, hook)
        elif kind == "timed":
            wrapped = self._wrap_timed(name, fn)
        else:
            wrapped = self._wrap_counter(name, fn)
        if isinstance(owner, type):
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            self._undo.append((owner, attr, raw))
            return
        # a module-level function: rebind it wherever it is bound
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._undo.append((module, key, fn))
        handlers = getattr(sys.modules.get("uniformizer.cli"), "_HANDLERS", {})
        for key, value in list(handlers.items()):
            if value is fn:
                handlers[key] = wrapped
                self._undo.append((handlers, key, fn))

    def _modules(self):
        names = [n for n in sys.modules if n.startswith("uniformizer")]
        return [sys.modules[n] for n in names] + list(self.extra_modules)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo = []

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metric values by name (counts and seconds)."""
        out = {}
        for name in list(SPANS) + list(TIMED) + list(COUNTERS):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        calls = self.calls["valuation.value_of_poly"]
        repeats = self.counts["valuation.value_of_poly.repeats"]
        out["valuation.value_of_poly.repeat_frac"] = repeats / calls if calls else 0.0
        out["series.mul.coeff_products"] = self.counts["series.mul.coeff_products"]
        out["series.inverse.coeff_products"] = self.counts["series.inverse.coeff_products"]
        op_time = self.total_s["op"]
        out["uniformize.verify.share"] = self.total_s["uniformize.verify"] / op_time if op_time else 0.0
        return out

    def exact_counts(self):
        """The counts that must repeat exactly across traced runs at one seed."""
        counts = {k: v for k, v in self.calls.items()}
        counts.update(self.counts)
        return dict(sorted(counts.items()))

    def write(self, path):
        """Write the spans as JSON lines: a header with the names, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": list(self.names), "fields": ["name", "start", "end", "parent", "op_id"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
