"""Layer spans, call counts and per-layer metrics for the traced run.

A layer is an orbitkit module.  The installer wraps the functions of each
module that other modules call (LAYERS), in every namespace that bound them
with `from .x import f` and in the defining module itself, and the listed
methods on their class.  Every call through a wrapper opens a span, so a
layer's self time is the time of its spans minus the part covered by their
child spans, wherever the child was called from.

Not wrapped, so their time is the caller's:
- the arithmetic dunders of the value types (Fraction, GaussianRational,
  ExpPoly);
- UNWRAPPED: tuple helpers of exactlin whose work is a few additions; a
  span would cost more than the call.

Spans stay in memory as [label, layer, start, end, parent, outermost] until
the run ends.  `outermost` is false for a span nested in a span of the same
label, so recursion is not counted twice in a label's inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

ROOT_LAYER = "cli"

LAYERS = {
    "exactlin": {
        "functions": ("kernel", "rank", "rref", "solve"),
        "methods": {
            "Subspace": ("from_vectors", "zero", "full", "span_of_coordinates",
                         "reduce", "contains", "contains_subspace", "coordinates_of",
                         "__add__", "intersect", "complement_coordinates",
                         "annihilator_matrix"),
            "Matrix": ("identity", "zero", "from_columns", "row", "column",
                       "transpose", "scale", "apply", "__mul__", "__pow__",
                       "is_zero"),
        },
    },
    "liealg": {
        "functions": ("_gaussian_eigenvalues", "_restrict_to", "_to_gaussian_matrix",
                      "ax_b", "b5", "g49_zero", "heisenberg3", "motion_e2"),
        "methods": {
            "LieAlgebra": ("construct", "abelian", "index_of", "basis_vector",
                           "bracket", "ad_matrix", "bracket_span", "commutator_ideal",
                           "is_subalgebra", "is_ideal", "center",
                           "descending_central_series", "lower_central_series",
                           "is_nilpotent", "is_solvable", "quotient", "subalgebra",
                           "_triangularize", "adjoint_weights", "composition_flag",
                           "nilradical", "is_exponential"),
        },
    },
    "coadjoint": {
        "functions": ("check_polarization", "condition_R_at", "form_matrix",
                      "functional", "regularity_report", "stabilizer",
                      "stabilizer_ideal", "vergne_polarization"),
    },
    "symflow": {
        "functions": ("orbit_map", "one_param_flow", "exp_matrix", "_exact_root",
                      "_rational_power"),
        "methods": {"ExpPoly": ("d_dvar", "substitute", "evaluate"),
                    "OrbitMap": ("evaluate",)},
    },
    "invariants": {
        "functions": ("closure_membership", "invariant_space", "orbit_certificates",
                      "semi_invariants"),
    },
    "envelop": {
        "functions": ("symmetrize", "is_central", "check_rep", "evaluate_uea"),
    },
    "algfile": {"functions": ("parse_algebra", "parse_functional")},
    "catalog": {"functions": ("catalog_names", "get_entry")},
    "report": {
        "functions": ("envelope", "rational_str", "subspace_json", "functional_json",
                      "root_json", "exponential_json", "condition_r_json",
                      "regularity_json", "polarization_json", "orbit_json",
                      "closure_json", "decimal_str_sqrt"),
    },
}

UNWRAPPED = {
    "exactlin": ("scalar", "vec", "vec_add", "vec_dot", "vec_scale", "unit_vector",
                 "zero_vector"),
}

# counters read off a wrapped function's return value
RESULT_COUNTERS = {
    "invariants.closure_membership": {
        "invariants.closure.evaluations": lambda verdict: verdict.evaluations,
        "invariants.closure.verdicts": lambda verdict: 1,
        "invariants.closure.decided": lambda verdict: verdict.kind != "inconclusive",
    },
}


class Recorder:
    """In-memory spans, call counts and result counters of a traced run."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counters = Counter()
        self.stack = []
        self.active = Counter()

    def open(self, label, layer):
        sid = len(self.spans)
        self.spans.append([label, layer, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1,
                           not self.active[label]])
        self.stack.append(sid)
        self.active[label] += 1
        return sid

    def close(self, sid):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        self.active[span[0]] -= 1
        self.stack.pop()


def aggregate(spans):
    """Seconds of closed spans: (inclusive per label, self per layer, within
    per layer).  `within` is the time inside the layer's outermost spans,
    its own work plus everything it called."""
    child = [0.0] * len(spans)
    above = [frozenset()] * len(spans)
    inclusive, self_time, within = Counter(), Counter(), Counter()
    for sid, (label, layer, start, end, parent, outermost) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            if layer not in above[parent]:
                within[layer] += end - start
            above[sid] = above[parent] | {layer}
        else:
            within[layer] += end - start
            above[sid] = frozenset((layer,))
        if outermost:
            inclusive[label] += end - start
    for sid, (_, layer, start, end, _, _) in enumerate(spans):
        self_time[layer] += end - start - child[sid]
    return inclusive, self_time, within


def _wrap(rec: Recorder, layer: str, label: str, fn):
    counters = RESULT_COUNTERS.get(label, {})

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.calls[label] += 1
        sid = rec.open(label, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        for name, read in counters.items():
            rec.counters[name] += read(result)
        return result

    return traced


def _wrap_member(rec, layer, label, raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(rec, layer, label, raw.__func__))
    return _wrap(rec, layer, label, raw)


def install(rec: Recorder, layers=None):
    """Wrap every name in `layers` (default LAYERS); returns an undo function.

    Raises LookupError naming the first function or method that no longer
    exists, so a rename in orbitkit cannot silently drop a layer.
    """
    layers = LAYERS if layers is None else layers
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "orbitkit" or name.startswith("orbitkit.")]
    undo = []
    try:
        for layer, spec in layers.items():
            module = importlib.import_module(f"orbitkit.{layer}")
            for name in spec.get("functions", ()):
                original = module.__dict__.get(name)
                if not callable(original) or isinstance(original, type):
                    raise LookupError(f"orbitkit.{layer}.{name} is not a function")
                wrapped = _wrap(rec, layer, f"{layer}.{name}", original)
                for ns in namespaces:
                    if ns.__dict__.get(name) is original:
                        undo.append((ns, name, original))
                        setattr(ns, name, wrapped)
            for cls_name, methods in spec.get("methods", {}).items():
                cls = module.__dict__.get(cls_name)
                if not isinstance(cls, type):
                    raise LookupError(f"orbitkit.{layer}.{cls_name} is not a class")
                for name in methods:
                    raw = cls.__dict__.get(name)
                    if not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
                        raise LookupError(
                            f"orbitkit.{layer}.{cls_name}.{name} is not a method")
                    undo.append((cls, name, raw))
                    setattr(cls, name,
                            _wrap_member(rec, layer, f"{layer}.{cls_name}.{name}", raw))
    except BaseException:
        _restore(undo)
        raise
    return functools.partial(_restore, undo)


def _restore(undo):
    for obj, name, original in reversed(undo):
        setattr(obj, name, original)
    undo.clear()


class CacheProbe:
    """Hits and misses of envelop's word-normalization cache while entered."""

    def __init__(self):
        module = importlib.import_module("orbitkit.envelop")
        info = getattr(getattr(module, "_normalize_word", None), "cache_info", None)
        if info is None:
            raise LookupError("orbitkit.envelop._normalize_word has no cache_info")
        self._info = info
        self.hits = self.misses = 0

    def __enter__(self):
        self._start = self._info()
        return self

    def __exit__(self, *exc):
        end = self._info()
        self.hits += end.hits - self._start.hits
        self.misses += end.misses - self._start.misses
        return False


# -- per-layer metrics ---------------------------------------------------------

# (metric, unit, "calls" or "s", wrapped label)
FUNCTION_METRICS = (
    ("liealg.adjoint_weights.calls", "count", "calls", "liealg.LieAlgebra.adjoint_weights"),
    ("liealg.adjoint_weights.s", "s", "s", "liealg.LieAlgebra.adjoint_weights"),
    ("liealg.nilradical.s", "s", "s", "liealg.LieAlgebra.nilradical"),
    ("liealg.eigenvalues.calls", "count", "calls", "liealg._gaussian_eigenvalues"),
    ("liealg.eigenvalues.s", "s", "s", "liealg._gaussian_eigenvalues"),
    ("exactlin.rref.calls", "count", "calls", "exactlin.rref"),
    ("exactlin.kernel.calls", "count", "calls", "exactlin.kernel"),
    ("coadjoint.condition_R_at.calls", "count", "calls", "coadjoint.condition_R_at"),
    ("coadjoint.regularity_report.s", "s", "s", "coadjoint.regularity_report"),
    ("symflow.orbit_map.s", "s", "s", "symflow.orbit_map"),
    ("symflow.exp_matrix.calls", "count", "calls", "symflow.exp_matrix"),
    ("invariants.semi_invariants.s", "s", "s", "invariants.semi_invariants"),
    ("invariants.closure_membership.s", "s", "s", "invariants.closure_membership"),
    ("envelop.symmetrize.s", "s", "s", "envelop.symmetrize"),
    ("envelop.evaluate_uea.s", "s", "s", "envelop.evaluate_uea"),
    ("algfile.parse_algebra.s", "s", "s", "algfile.parse_algebra"),
    ("report.envelope.s", "s", "s", "report.envelope"),
)

ALL_LAYERS = tuple(LAYERS) + (ROOT_LAYER,)


def per_layer_metrics(rec: Recorder, passes: int, probe: CacheProbe, overhead: float):
    """Per-pass averages of the traced passes, as {name: (value, unit)}."""
    inclusive, self_time, within = aggregate(rec.spans)
    op_time = sum(end - start for _, layer, start, end, parent, _ in rec.spans
                  if parent < 0)
    out = {}
    for name, unit, kind, label in FUNCTION_METRICS:
        out[name] = ((rec.calls[label] if kind == "calls" else inclusive[label])
                     / passes, unit)
    for layer in ALL_LAYERS:
        out[f"{layer}.self_s"] = (self_time[layer] / passes, "s")
        out[f"{layer}.self_share"] = (self_time[layer] / op_time, "ratio")
    for layer in LAYERS:
        out[f"{layer}.within_share"] = (within[layer] / op_time, "ratio")
    evaluations = rec.counters["invariants.closure.evaluations"]
    closure_s = inclusive["invariants.closure_membership"]
    verdicts = rec.counters["invariants.closure.verdicts"]
    out["invariants.closure.evaluations"] = (evaluations / passes, "count")
    out["invariants.closure.evals_per_s"] = (
        evaluations / closure_s if closure_s else 0.0, "1/s")
    out["invariants.closure.decided_ratio"] = (
        rec.counters["invariants.closure.decided"] / verdicts if verdicts else 0.0,
        "ratio")
    lookups = probe.hits + probe.misses
    out["envelop.normalize_word.calls"] = (lookups / passes, "count")
    out["envelop.normalize_word.hit_ratio"] = (
        probe.hits / lookups if lookups else 0.0, "ratio")
    out["trace.spans"] = (len(rec.spans) / passes, "count")
    out["trace.op_s"] = (op_time / passes, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
