"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public sbtkit functions by timing wrappers at
every name a caller resolves them through (``tuning.qr_discretize`` as well
as ``controllers.qr_discretize``), and ``uninstall`` puts the originals
back.  A span is (name, start, end, parent, op id); spans of the current op
stay in memory until ``take_op`` folds them into per-name totals:

    calls   number of spans
    incl    summed span time
    self    summed span time minus the time of direct child spans
    units   work units (grid points, samples, steps) where a span counts them
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, units counted from the return value or None)
TARGETS = (
    ("cli", "main", None),
    ("tuning", "optimize_alpha_beta", None),
    ("tuning", "q_loss", None),
    ("controllers", "qr_continuous", None),
    ("controllers", "qr_discretize", None),
    ("controllers", "diff_eq_coeffs", None),
    ("controllers", "pi_discretize", None),
    ("controllers", "pir_discretize", None),
    ("controllers", "sbt_params_straightforward", None),
    ("lti", "quadratic_roots", None),
    ("lti", "Polynomial.__call__", None),
    ("transforms", "z_from_s", None),
    ("transforms", "s_from_z", None),
    ("transforms", "exact_z_from_s", None),
    ("transforms", "equivalent_s_from_z", None),
    ("transforms", "prewarp_factor", None),
    ("transforms", "method_params", None),
    ("transforms", "method_label", None),
    ("analysis", "freq_response", len),
    ("analysis", "magnitude_error_curve", len),
    ("analysis", "pole_map_table", None),
    ("analysis", "rmse", None),
    ("sim", "inverter_closed_loop", lambda trace: len(trace.t)),
    ("sim", "trace_thd", None),
    ("sim", "run_difference_equation", len),
    ("sim", "sine_steady_state", None),
)

_NAMESPACES = ("cli", "tuning", "controllers", "analysis", "sim", "transforms", "lti")


@dataclass
class SpanTotals:
    calls: int = 0
    incl: float = 0.0
    self: float = 0.0
    units: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    op_id: int = 0
    _stack: list = field(default_factory=list)
    _units: dict = field(default_factory=dict)
    _patches: list = field(default_factory=list)

    def _wrap(self, name: str, fn, units):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if units is not None:
                self._units[name] = self._units.get(name, 0) + units(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each name that refers to it."""
        namespaces = [importlib.import_module(f"sbtkit.{m}") for m in _NAMESPACES]
        for module, attr, units in TARGETS:
            name = f"{module}.{attr}"
            owner = importlib.import_module(f"sbtkit.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, units))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, units)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_op(self) -> dict[str, SpanTotals]:
        """Fold the spans of the finished op into totals and start the next op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, SpanTotals] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals.setdefault(name, SpanTotals())
            t.calls += 1
            t.incl += end - start
            t.self += end - start - child[i]
        for name, n in self._units.items():
            totals.setdefault(name, SpanTotals()).units = n
        self.spans.clear()
        self._units.clear()
        self.op_id += 1
        return totals
