"""Spans around calls into the library's layers, recorded from outside.

``install`` wraps each traced function and rebinds every name that refers
to it: ``from .algebra import symmetric_reduce`` copies the function into the
importing module, so patching only the defining module would miss calls
made through the copies.  Methods are patched on their class, under every
attribute that holds them (``__rmul__ = __mul__``).

A span is (id, parent id, name, start, end, call id, outermost), kept in
memory and written out at the end.  ``call id`` is the index of the
workload call the span belongs to; spans of one call share it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _fp_pairs(counts, args, kwargs, result):
    """Fixed-point (H, gamma) pairs: C(|W|, d) * d, with |W| = C(e+1, 2)."""
    e = args[0] if args else kwargs["e"]
    f = args[1] if len(args) > 1 else kwargs["f"]
    w = comb(e + 1, 2)
    d = w - f
    counts["loci.fp_pairs"] += comb(w, d) * d


def _symmetric_reduce_terms(counts, args, kwargs, result):
    counts["algebra.symmetric_reduce.terms_in"] += len(args[0].terms)
    counts["algebra.symmetric_reduce.terms_out"] += len(result.terms)


def _sum_fractions_terms(counts, args, kwargs, result):
    counts["algebra.sum_fractions.terms_in"] += len(args[0])


# (module, qualified name, hook computing counts from arguments and result)
TARGETS = [
    ("loci", "localization_class", _fp_pairs),
    ("loci", "residue_divisor_class", None),
    ("loci", "to_chern_symbols", None),
    ("loci", "closed_divisor_class", None),
    ("algebra", "symmetric_reduce", _symmetric_reduce_terms),
    ("algebra", "sum_fractions", _sum_fractions_terms),
    ("algebra", "Polynomial.__mul__", None),
    ("algebra", "Polynomial.substitute_poly", None),
    ("algebra", "Polynomial.evaluate", None),
    ("algebra", "RationalFunction.reduce", None),
    ("symfunc", "sym_degeneracy_class", None),
    ("symfunc", "schur", None),
    ("symfunc", "a_const", None),
    ("grr", "grr_c1", None),
    ("grr", "FiberRuleTable.push_top", None),
    ("moduli", "petri_class", None),
    ("moduli", "k3_rank4_class", None),
    ("moduli", "kosz_class", None),
    ("moduli", "kosz_rank", None),
    ("moduli", "hurwitz_report", None),
    ("moduli", "pelda_slope", None),
    ("moduli", "fit_calibration", None),
    ("moduli", "virtual_slope_from_pushforward", None),
    ("cli", "main", None),
    ("cli", "build_parser", None),
    ("verify", "checks_properties", None),
    ("verify", "checks_divisor_classes", None),
    ("verify", "checks_shift_coefficients", None),
    ("verify", "checks_k3", None),
]

# The per-layer metrics a traced run reports: (name, unit).  Span metrics are
# "<span>.calls", "<span>.s" (outermost spans only, so recursion is not
# counted twice) and "<span>.self_s" (duration minus the child spans').
_SPAN_METRICS = [
    ("loci.localization_class", ("calls", "s", "self_s")),
    ("loci.residue_divisor_class", ("calls", "s", "self_s")),
    ("loci.to_chern_symbols", ("calls", "s")),
    ("loci.closed_divisor_class", ("s",)),
    ("algebra.symmetric_reduce", ("calls", "s")),
    ("algebra.sum_fractions", ("calls", "s")),
    ("algebra.Polynomial.__mul__", ("calls", "s")),
    ("algebra.Polynomial.substitute_poly", ("calls", "s")),
    ("algebra.Polynomial.evaluate", ("calls", "s")),
    ("algebra.RationalFunction.reduce", ("calls", "s")),
    ("symfunc.sym_degeneracy_class", ("calls", "s")),
    ("symfunc.schur", ("calls", "s")),
    ("symfunc.a_const", ("calls", "s")),
    ("grr.grr_c1", ("s",)),
    ("grr.FiberRuleTable.push_top", ("s",)),
    ("moduli.petri_class", ("s",)),
    ("moduli.k3_rank4_class", ("s",)),
    ("moduli.kosz_class", ("s",)),
    ("moduli.kosz_rank", ("s",)),
    ("moduli.hurwitz_report", ("s",)),
    ("moduli.pelda_slope", ("s",)),
    ("moduli.fit_calibration", ("s",)),
    ("moduli.virtual_slope_from_pushforward", ("s",)),
    ("cli.main", ("calls", "self_s")),
    ("cli.build_parser", ("s",)),
    ("verify.checks_properties", ("s",)),
    ("verify.checks_divisor_classes", ("s",)),
    ("verify.checks_shift_coefficients", ("s",)),
    ("verify.checks_k3", ("s",)),
]

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

PER_LAYER = [
    ("%s.%s" % (span, kind), _UNITS[kind])
    for span, kinds in _SPAN_METRICS
    for kind in kinds
] + [
    ("loci.fp_pairs", "count"),
    ("loci.pool_cpu_s", "s"),
    ("algebra.symmetric_reduce.terms_in", "count"),
    ("algebra.symmetric_reduce.terms_out", "count"),
    ("algebra.sum_fractions.terms_in", "count"),
    ("cli.emit_bytes", "bytes"),
    ("verify.rows_pass", "count"),
    ("verify.rows_warn", "count"),
    ("verify.rows_fail", "count"),
    ("trace.overhead_frac", "ratio"),
]

# Metrics the hooks count; the worker measures the other non-span ones.
_COUNTED = ("loci.fp_pairs", "algebra.symmetric_reduce.terms_in",
            "algebra.symmetric_reduce.terms_out", "algebra.sum_fractions.terms_in")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.call_id = 0
        self.enabled = True
        self._next_id = 0
        self._stack = [0]
        self._depth = Counter()
        self._restore = []

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer._stack[-1]
            outermost = tracer._depth[name] == 0
            tracer._depth[name] += 1
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.spans.append((sid, parent, name, t0, t1, tracer.call_id, outermost))
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target and rebind all names that refer to it."""
        for module_name, _, _ in targets:
            importlib.import_module("quadloci." + module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "quadloci" or n.startswith("quadloci."))]
        for module_name, qualname, hook in targets:
            module = sys.modules["quadloci." + module_name]
            owner = module
            attr = qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
            original = vars(owner)[attr]
            wrapper = self.wrap("%s.%s" % (module_name, qualname), original, hook)
            holders = [owner] if owner is not module else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []

    def layer_metrics(self):
        """Per-layer metrics derived from the spans and counts (no overhead,
        pool time or row counts, which the caller measures)."""
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, call, outermost in self.spans:
            child_time[parent] += t1 - t0
        calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
        for sid, parent, name, t0, t1, call, outermost in self.spans:
            calls[name] += 1
            if outermost:
                total[name] += t1 - t0
            self_time[name] += (t1 - t0) - child_time[sid]
        out = {}
        for span, kinds in _SPAN_METRICS:
            for kind in kinds:
                value = {"calls": calls[span], "s": total[span], "self_s": self_time[span]}[kind]
                out["%s.%s" % (span, kind)] = value
        for name in _COUNTED:
            out[name] = self.counts[name]
        return out

    def write(self, path, run_id):
        """Write the spans as JSON lines, after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": run_id, "spans": len(self.spans),
                                 "fields": ["id", "parent", "name", "start", "end",
                                            "call", "outermost"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
