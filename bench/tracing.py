"""Per-layer tracing from outside the program.

In a traced run only, ``Tracer.install`` replaces the public functions
of each groupoidlab module with wrappers that count calls and time
spans; ``uninstall`` puts the originals back.  Every binding of a
wrapped function is replaced, so calls made through ``from .x import f``
inside the package are traced too.

Counting and timing rules:

* a call is counted when it enters a span key from a different key (or
  from no span), so ``QPhi.__sub__`` calling ``__add__`` is one call;
* self time is a span's duration minus the time of its child spans;
* inclusive time (used for the battery checks) counts outermost spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from checks import CHECK_NAMES

QPHI_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__floor__", "mod1", "sign",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def _transform_bits(args, result):
    _d, p, q = result
    return max((abs(x).bit_length() for m in (p, q) for row in m for x in row), default=0)


def _isotropy_keys(args, result):
    # isotropy_search hashes shift^n(mu) for n = 0..top
    mu, bound = args[0], args[1]
    path = getattr(mu, "path", None)
    return (bound if path is None else min(bound, len(path))) + 1


# (module, class or None, attributes, span key, (extra metric, hook, "sum"|"max"))
SPANS = (
    ("qphi", "QPhi", QPHI_OPS, "qphi", None),
    ("qphi", None, ("qphi_sign", "qphi_min", "qphi_max"), "qphi", None),
    ("spaces", "MinimalSystem", ("power", "forward", "backward"), "spaces.step", None),
    ("spaces", None, ("eps_dense",), "spaces.density", None),
    ("spaces", None, ("box_contains", "box_intersect", "box_rep_point",
                      "circle_covered_by_arcs", "cantor_covered_by_words"), "spaces.box", None),
    ("spaces", "MinimalSystem", ("translate_box",), "spaces.box", None),
    ("graphs", "FinitePath", ("__post_init__",), "graphs.path", None),
    ("graphs", None, ("orbit_plus",), "graphs.orbit", None),
    ("graphs", None, ("find_contracting_witness",), "graphs.witness",
     ("graphs.translates_tried", lambda args, w: w.n, "sum")),
    ("graphs", None, ("verify_contracting_witness",), "graphs.witness", None),
    ("boundary", None, ("shift", "shift_power"), "boundary.shift", None),
    ("groupoid", None, ("make_element", "compose", "inverse"), "groupoid.element", None),
    ("groupoid", None, ("random_boundary_path", "random_element", "random_element_at",
                        "random_path_from"), "groupoid.sample", None),
    ("groupoid", None, ("isotropy_search",), "groupoid.isotropy",
     ("groupoid.isotropy_keys", _isotropy_keys, "sum")),
    ("groupoid", None, ("isotropy_reduction",), "groupoid.reduction", None),
    ("ktheory", None, ("snf",), "ktheory.snf",
     ("ktheory.snf_transform_bits", _transform_bits, "max")),
    ("ktheory", None, ("graph_ktheory",), "ktheory.graph", None),
    ("reports", "Report", ("to_json",), "reports",
     ("reports.json_bytes", lambda args, text: len(text.encode("utf-8")), "sum")),
) + tuple(("cli", None, (f"check_{n}",), f"cli.check.{n}", None) for n in CHECK_NAMES)

# metric name -> (table, span key or extra metric, unit)
LAYER_METRICS = {
    "qphi.calls": ("count", "qphi", "count"),
    "qphi.self_s": ("self", "qphi", "s"),
    "spaces.steps": ("count", "spaces.step", "count"),
    "spaces.step_self_s": ("self", "spaces.step", "s"),
    "spaces.density_calls": ("count", "spaces.density", "count"),
    "spaces.density_self_s": ("self", "spaces.density", "s"),
    "spaces.box_calls": ("count", "spaces.box", "count"),
    "spaces.box_self_s": ("self", "spaces.box", "s"),
    "graphs.paths_built": ("count", "graphs.path", "count"),
    "graphs.path_self_s": ("self", "graphs.path", "s"),
    "graphs.orbit_self_s": ("self", "graphs.orbit", "s"),
    "graphs.witness_self_s": ("self", "graphs.witness", "s"),
    "graphs.translates_tried": ("extra", "graphs.translates_tried", "count"),
    "boundary.shifts": ("count", "boundary.shift", "count"),
    "boundary.shift_self_s": ("self", "boundary.shift", "s"),
    "groupoid.elements": ("count", "groupoid.element", "count"),
    "groupoid.element_self_s": ("self", "groupoid.element", "s"),
    "groupoid.sample_self_s": ("self", "groupoid.sample", "s"),
    "groupoid.isotropy_keys": ("extra", "groupoid.isotropy_keys", "count"),
    "groupoid.isotropy_self_s": ("self", "groupoid.isotropy", "s"),
    "groupoid.reduction_self_s": ("self", "groupoid.reduction", "s"),
    "ktheory.snf_calls": ("count", "ktheory.snf", "count"),
    "ktheory.snf_self_s": ("self", "ktheory.snf", "s"),
    "ktheory.snf_transform_bits": ("gauge", "ktheory.snf_transform_bits", "bits"),
    "ktheory.graph_self_s": ("self", "ktheory.graph", "s"),
    "reports.json_bytes": ("extra", "reports.json_bytes", "bytes"),
    "reports.self_s": ("self", "reports", "s"),
    **{f"cli.check.{n}_s": ("incl", f"cli.check.{n}", "s") for n in CHECK_NAMES},
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.count = defaultdict(int)
        self.own = defaultdict(float)
        self.incl = defaultdict(float)
        self.extra = defaultdict(int)
        self.gauge = defaultdict(int)
        self._patches: list[tuple] = []

    def wrap(self, key, fn, extra=None):
        stack, count, own, incl = self.stack, self.count, self.own, self.incl
        sums, gauge = self.extra, self.gauge

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != key
            if outer:
                count[key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                own[key] += dt - frame[1]
                if outer:
                    incl[key] += dt
                if parent is not None:
                    parent[1] += dt
            if extra is not None:
                # keep the cost of measuring the result out of the parent's self time
                h0 = perf_counter()
                name, hook, mode = extra
                value = hook(args, result)
                if mode == "sum":
                    sums[name] += value
                else:
                    gauge[name] = max(gauge[name], value)
                if parent is not None:
                    parent[1] += perf_counter() - h0
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "groupoidlab" or n.startswith("groupoidlab.")]
        for mod_name, cls_name, attrs, key, extra in SPANS:
            mod = sys.modules[f"groupoidlab.{mod_name}"]
            for attr in attrs:
                if cls_name is not None:
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    self._set(cls, attr, orig, self.wrap(key, orig, extra))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.wrap(key, orig, extra)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, name, orig, wrapped)
                table = sys.modules["groupoidlab.cli"].CHECKS
                for name, value in list(table.items()):
                    if value is orig:
                        self._patches.append((table, name, orig, True))
                        table[name] = wrapped

    def _set(self, owner, name, orig, wrapped):
        self._patches.append((owner, name, orig, False))
        setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches.clear()

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric, per traced pass."""
        tables = {"count": self.count, "self": self.own, "incl": self.incl,
                  "extra": self.extra, "gauge": self.gauge}
        out = {}
        for name, (table, key, unit) in LAYER_METRICS.items():
            value = tables[table].get(key, 0)
            out[name] = {"value": value if table == "gauge" else value / passes, "unit": unit}
        return out
