"""Per-layer spans recorded from outside the package.

The tracer replaces every binding of a listed fracrat function (module
attributes, re-exports, imported copies and method aliases such as
ParamPoly.__rmul__) with a wrapper that records a span: name, parent span,
start and end. Spans stay in memory until the run ends. A layer's self time
is its spans' duration minus the part covered by their child spans.

Gauges are read from return values by hooks that run in their own span, so
their cost lands in the tracing overhead, not in any layer's self time.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from time import perf_counter

# module -> public names wrapped in it (dotted names are class attributes)
LAYERS = {
    "exact": ("ParamPoly.__mul__", "solve_fraction_free", "solve_particular"),
    "series": ("binomial_series", "leadlag_kernel_series"),
    "approx": ("pade", "make_tf", "rational_to_cfe", "cfe_to_tf"),
    "polys": ("divmod_field", "gcd_field", "sequence_content", "mul"),
    "controllers": (
        "realize_differintegrator",
        "symbolic_differintegrator",
        "realize_fopid",
        "realize_fopd_bracket",
        "realize_leadlag",
    ),
    "ladder": ("synthesize_ladder", "map_elements", "export_netlist"),
    "freqresp": ("bode", "ideal_response", "fit_report", "log_grid"),
    "baselines": ("oustaloup", "modified_oustaloup", "carlson"),
    "cli": ("parse_tf_document", "emit_tf_document", "emit_symbolic_document", "main"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# gauge -> "sum" (added up over a pass) or "max" (largest value seen)
GAUGES = {
    "approx.pade.defects": "sum",
    "approx.coeff_bits_max": "max",
    "ladder.rungs": "sum",
    "ladder.nic_rungs": "sum",
    "ladder.value_bits_max": "max",
    "freqresp.points": "sum",
    "freqresp.nonfinite_points": "sum",
    "baselines.carlson.degree_max": "max",
}

_GAUGE_SPAN = "trace.gauges"


def _bits(c) -> int:
    if isinstance(c, float):
        return 0
    if hasattr(c, "terms"):  # ParamPoly: its rational coefficients
        return max((_bits(v) for v in c.terms.values()), default=0)
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES) + [_GAUGE_SPAN]
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.gauges = {name: 0 for name in GAUGES}
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        nid = self.names.index(name)
        ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        hook = None if hook is None else self._wrap(_GAUGE_SPAN, hook)

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _gauge(self, name: str, value):
        if GAUGES[name] == "max":
            self.gauges[name] = max(self.gauges[name], value)
        else:
            self.gauges[name] += value

    def _hooks(self) -> dict:
        def pade(tf):
            self._gauge("approx.pade.defects", any(n.startswith("pade-defect=") for n in tf.notes))

        def make_tf(tf):
            if tf.ring != "float":
                self._gauge("approx.coeff_bits_max", max(_bits(c) for c in tf.num + tf.den))

        def synthesize_ladder(net):
            self._gauge("ladder.rungs", len(net.elements))
            self._gauge("ladder.nic_rungs", sum(el.g < 0 or el.h < 0 for el in net.elements))
            self._gauge(
                "ladder.value_bits_max",
                max((_bits(v) for el in net.elements for v in (el.g, el.h)), default=0),
            )

        def bode(sweep):
            self._gauge("freqresp.points", len(sweep.mag_db))
            self._gauge(
                "freqresp.nonfinite_points",
                sum(
                    not (math.isfinite(m) and math.isfinite(p))
                    for m, p in zip(sweep.mag_db, sweep.phase_deg)
                ),
            )

        def carlson(tf):
            self._gauge("baselines.carlson.degree_max", max(len(tf.num), len(tf.den)) - 1)

        return {
            "approx.pade": pade,
            "approx.make_tf": make_tf,
            "ladder.synthesize_ladder": synthesize_ladder,
            "freqresp.bode": bode,
            "baselines.carlson": carlson,
        }

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every binding of every listed function in the loaded
        fracrat modules and classes."""
        modules = [m for n, m in sys.modules.items() if n == "fracrat" or n.startswith("fracrat.")]
        namespaces = []
        for module in modules:
            namespaces.append(module)
            namespaces.extend(
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__.startswith("fracrat")
            )
        hooks = self._hooks()
        for span in SPAN_NAMES:
            module_name, attr = span.split(".", 1)
            target = sys.modules[f"fracrat.{module_name}"]
            for part in attr.split("."):
                target = vars(target)[part] if isinstance(target, type) else getattr(target, part)
            wrapper = self._wrap(span, target, hooks.get(span))
            bound = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is target:
                        self._patches.append((ns, key, value))
                        setattr(ns, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{span} is bound nowhere")

    def uninstall(self):
        for ns, key, value in reversed(self._patches):
            setattr(ns, key, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}.

        Inclusive time counts only the outermost span of a name, so a
        function reached again below itself is not counted twice.
        """
        n = len(self.starts)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += duration[i]
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            if name == _GAUGE_SPAN:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[2] += duration[i] - covered[i]
            p = self.parents[i]
            while p >= 0 and self.name_ids[p] != self.name_ids[i]:
                p = self.parents[p]
            if p < 0:
                entry[1] += duration[i]
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path: str):
        """Dump the raw spans: names, then [name id, parent, start, end]."""
        spans = [
            [self.name_ids[i], self.parents[i], self.starts[i], self.ends[i]]
            for i in range(len(self.starts))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": spans, "gauges": self.gauges}, handle)
