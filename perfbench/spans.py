"""Span tracing of groupft's public functions, applied from outside the package.

``Tracer.install`` rebinds each traced function in every ``groupft.*``
module namespace that holds it (under any name, so ``from .fields import
test_corpus as _spatial_corpus`` is caught too) and ``Tracer.uninstall``
puts the originals back.  Each call records one span: name, start, end,
parent span and run id.  Spans stay in memory until ``dump`` writes them.

``layer_metrics`` turns the spans of one or more passes into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# span name -> (groupft module, attribute); "Class.method" wraps a method
TARGETS = {
    "fields.euclidean_ft": ("fields", "euclidean_ft"),
    "fields.inverse_euclidean_ft": ("fields", "inverse_euclidean_ft"),
    "fields.weighted_moment": ("fields", "weighted_moment"),
    "fields.moment_boundary_fraction": ("fields", "moment_boundary_fraction"),
    "fields.l2_norm_sq": ("fields", "l2_norm_sq"),
    "fields.tensor_dft": ("fields", "tensor_dft"),
    "fields.boundary_decay": ("fields", "boundary_decay"),
    "fields.axis_band_fraction": ("fields", "axis_band_fraction"),
    "fields.test_corpus": ("fields", "test_corpus"),
    "euclidean.rn_uncertainty": ("euclidean", "rn_uncertainty"),
    "euclidean.dilation_sweep": ("euclidean", "dilation_sweep"),
    "compact.load_group_file": ("compact", "load_group_file"),
    "compact.validate_group": ("compact", "validate_group"),
    "product.product_corpus": ("product", "product_corpus"),
    "product.product_ft": ("product", "product_ft"),
    "motion.motion_corpus": ("motion", "motion_corpus"),
    "motion.mn_hs_profile": ("motion", "mn_hs_profile"),
    "motion.mn_hs_profiles": ("motion", "mn_hs_profiles"),
    "motion.mn_spectral_tail_fraction": ("motion", "mn_spectral_tail_fraction"),
    "nilpotent.nilpotent_corpus": ("nilpotent", "nilpotent_corpus"),
    "nilpotent.nilpotent_w_profile": ("nilpotent", "nilpotent_w_profile"),
    "nilpotent.singular_band_fraction": ("nilpotent", "singular_band_fraction"),
    "nilpotent.load_descriptor_file": ("nilpotent", "load_descriptor_file"),
    "nilpotent.validate_descriptor": ("nilpotent", "validate_descriptor"),
    "exprs.eval": ("exprs", "Expression.__call__"),
}

# layer -> the spans whose calls and self time it sums, per pass
LAYERS = {
    "fields.euclidean_ft": ("fields.euclidean_ft", "fields.inverse_euclidean_ft"),
    "fields.moments": (
        "fields.weighted_moment",
        "fields.moment_boundary_fraction",
        "fields.l2_norm_sq",
    ),
    "fields.tensor_dft": ("fields.tensor_dft",),
    "fields.guards": ("fields.boundary_decay", "fields.axis_band_fraction"),
    "fields.corpus": ("fields.test_corpus",),
    "euclidean.rn_uncertainty": ("euclidean.rn_uncertainty",),
    "euclidean.dilation_sweep": ("euclidean.dilation_sweep",),
    "product.corpus": ("product.product_corpus",),
    "product.product_ft": ("product.product_ft",),
    "motion.corpus": ("motion.motion_corpus",),
    "motion.profile": ("motion.mn_hs_profile", "motion.mn_hs_profiles"),
    "motion.tail_guard": ("motion.mn_spectral_tail_fraction",),
    "nilpotent.corpus": ("nilpotent.nilpotent_corpus",),
    "nilpotent.w_profile": ("nilpotent.nilpotent_w_profile",),
    "nilpotent.band_guard": ("nilpotent.singular_band_fraction",),
    "exprs.eval": ("exprs.eval",),
}

# set-up layers: wall time of the loading and validation calls, run once
SETUP_LAYERS = {
    "compact.load_validate_s": ("compact.load_group_file", "compact.validate_group"),
    "nilpotent.descriptor_load_s": (
        "nilpotent.load_descriptor_file",
        "nilpotent.validate_descriptor",
    ),
}

ERROR_CLASSES = (
    "ZeroFieldError",
    "MomentDivergenceError",
    "AliasingError",
    "DecayError",
    "SpectralTailError",
    "SingularBandError",
    "IllConditionedError",
    "UsageError",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({name: "s" for name in SETUP_LAYERS})
    units.update({
        "motion.profile.per_field": "1",
        "motion.profile.s_per_field_lambda": "s",
        "nilpotent.w_profile.per_field": "1",
        "nilpotent.w_profile.s_per_point": "s",
        "nilpotent.w_profile.points": "count",
    })
    units.update({f"errors.{cls}.count": "count" for cls in ERROR_CLASSES})
    units["trace.overhead_s"] = "s"
    return units


def _profile_work(name, bound, out):
    """Fields (by identity) of one profile call, and its work: field x lambda, or points."""
    if name == "nilpotent.nilpotent_w_profile":
        return {"fields": [id(bound["f"])], "work": len(out[0])}
    fields = bound["fields"] if name == "motion.mn_hs_profiles" else [bound["f"]]
    return {"fields": [id(f) for f in fields], "work": len(fields) * len(bound["lambdas"])}


ANNOTATED = ("motion.mn_hs_profiles", "motion.mn_hs_profile", "nilpotent.nilpotent_w_profile")


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans of the TARGETS functions while installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        sig = inspect.signature(fn) if name in ANNOTATED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.run, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sig is not None:
                span.attrs = _profile_work(name, sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self):
        for name, (mod_name, attr) in TARGETS.items():
            module = importlib.import_module(f"groupft.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod in [m for key, m in sys.modules.items() if key.startswith("groupft.")]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapped)

    def _rebind(self, owner, key, orig, wrapped):
        setattr(owner, key, wrapped)
        self._saved.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([vars(s) for s in self.spans], fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics: means over ``passes`` traced passes, set-up totals.

    Every span whose run id is not "setup" belongs to a pass.  A pass is
    split into runs (sweep, single check) so that a field's identity,
    which counts distinct fields, is never compared across objects that
    could share an address.
    """
    selfs = self_times(spans)
    in_pass = [s for s in spans if s.run != "setup"]
    out = {}
    for layer, names in LAYERS.items():
        hits = [s for s in in_pass if s.name in names]
        out[f"{layer}.calls"] = len(hits) / passes
        out[f"{layer}.self_s"] = sum(selfs[s.id] for s in hits) / passes
    for metric, names in SETUP_LAYERS.items():
        out[metric] = float(
            sum(s.end - s.start for s in spans if s.run == "setup" and s.name in names)
        )
    for layer, per_work in (("motion.profile", "s_per_field_lambda"),
                            ("nilpotent.w_profile", "s_per_point")):
        hits = [s for s in in_pass if s.name in LAYERS[layer]]
        profiled = sum(len(s.attrs["fields"]) for s in hits)
        distinct = {(s.run, f) for s in hits for f in s.attrs["fields"]}
        work = sum(s.attrs["work"] for s in hits)
        out[f"{layer}.per_field"] = profiled / len(distinct) if distinct else 0.0
        out[f"{layer}.{per_work}"] = out[f"{layer}.self_s"] * passes / work if work else 0.0
    out["nilpotent.w_profile.points"] = sum(
        s.attrs["work"] for s in in_pass if s.name in LAYERS["nilpotent.w_profile"]
    ) / passes
    return out
