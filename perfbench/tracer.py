"""Out-of-process-style tracer for the metaplectic package.

The tracer wraps, from outside, every public function and public method (plus
``__mul__``) that the layer modules define, and rebinds each wrapper at every
module that bound the original with ``from .x import y``.  Each wrapper
aggregates its calls into one ``[calls, total_s, self_s]`` record keyed by span
name, so millions of primitive calls (``Mat2.__mul__``, ``cocycle``) cost a
few counters rather than millions of span records.  Self time is a span's
duration minus the time its wrapped children took.

Nothing under ``src/`` is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cover", "automorphy", "slash", "reps", "qseries", "certify")
# modules that bind layer functions by name without being layers themselves
_BINDERS = ("metaplectic", "metaplectic.cli")

# per-check spans reported individually; every other check folds into "other"
NAMED_CHECKS = (
    "action_composition",
    "algebra_cocycle_triples",
    "algebra_product_bbb_lemma",
    "rep_homomorphism",
    "action_reflection_forms",
    "phi_section_consistency",
    "eta_multiplier_universe",
    "action_classical_match",
)

# (metric name, span name, field): field 0 = calls, 1 = total seconds
_SPAN_METRICS = (
    ("qseries.eta_reduced.calls", "qseries.eta_reduced", 0),
    ("qseries.eta_reduced.s", "qseries.eta_reduced", 1),
    ("qseries.eta_raw.calls", "qseries.eta_raw", 0),
    ("qseries.eta_raw.s", "qseries.eta_raw", 1),
    ("qseries.eisenstein.calls", "qseries.eisenstein", 0),
    ("qseries.eisenstein.s", "qseries.eisenstein", 1),
    ("qseries.reduce_to_fundamental.calls", "qseries.reduce_to_fundamental", 0),
    ("reps.rep_evaluate.calls", "reps.Rep.evaluate", 0),
    ("reps.rep_evaluate.s", "reps.Rep.evaluate", 1),
    ("reps.character_of.calls", "reps.character_of", 0),
    ("reps.modularity_residual.s", "reps.modularity_residual", 1),
    ("cover.mat2_mul.calls", "cover.Mat2.__mul__", 0),
    ("cover.cocycle.calls", "cover.cocycle", 0),
    ("cover.metaelt_mul.calls", "cover.MetaElt.__mul__", 0),
    ("cover.word_decompose.calls", "cover.word_decompose", 0),
    ("cover.word_decompose.s", "cover.word_decompose", 1),
    ("cover.word_lift.calls", "cover.word_lift", 0),
    ("cover.enumerate_cover.s", "cover.enumerate_cover", 1),
    ("automorphy.phi_upper.calls", "automorphy.phi_upper", 0),
    ("automorphy.phi_upper.s", "automorphy.phi_upper", 1),
    ("slash.slash.calls", "slash.slash", 0),
    ("slash.holofn_at.calls", "slash.HoloFn.at", 0),
    ("slash.holofn_at.s", "slash.HoloFn.at", 1),
    ("slash.composition_residual.s", "slash.composition_residual", 1),
)

# every per-layer metric with (unit, better); BENCHMARK.json lists the same names
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{metric: ("count" if field == 0 else "s", "lower") for metric, _, field in _SPAN_METRICS},
    "qseries.min_arg_im": ("1", "higher"),
    "automorphy.word_cache.hit_ratio": ("ratio", "higher"),
    **{f"certify.check.{cid}.s": ("s", "lower") for cid in NAMED_CHECKS + ("other",)},
    "certify.checks_failed": ("count", "lower"),
    "certify.worst_residual_ratio": ("ratio", "lower"),
    "input.matrix_reuse_share": ("ratio", "higher"),
    "input.reduced_share": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Aggregated spans plus the input properties the per-layer metrics need."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []
        self.seen_matrices: set = set()
        self.matrix_calls = 0
        self.matrix_reused = 0
        self.series_calls = 0
        self.series_reduced = 0
        self.min_arg_im = float("inf")

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, classify=None):
        """Span wrapper; ``classify(args, kwargs)`` may rename the span per call."""
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            key = classify(args, kwargs) if classify else name
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap the layer modules of the imported ``metaplectic`` package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"metaplectic.{layer}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, self._classifier(layer, attr, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (not meth.startswith("_") or meth == "__mul__"):
                            span = f"{layer}.{obj.__name__}.{meth}"
                            self._set(obj, meth, self.wrap(span, member, self._classifier(layer, f"{obj.__name__}.{meth}", member)))
        for modname in tuple(f"metaplectic.{m}" for m in LAYERS) + _BINDERS:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        certify = importlib.import_module("metaplectic.certify")
        self._set(certify, "CHECKS", tuple(
            (cid, self.wrap(f"certify.check.{cid}", fn)) for cid, fn in certify.CHECKS))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- per-call input properties -------------------------------------------

    def _classifier(self, layer: str, name: str, fn):
        if (layer, name) == ("qseries", "eta"):
            default_cfg = fn.__defaults__[0]

            def eta_kind(args, kwargs):
                z = complex(args[0])
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg", default_cfg)
                reduced = cfg.reduce and z.imag < 0.25
                self._series(z, reduced)
                return "qseries.eta_reduced" if reduced else "qseries.eta_raw"
            return eta_kind
        if (layer, name) == ("qseries", "eisenstein"):
            default_cfg = fn.__defaults__[0]

            def eis_kind(args, kwargs):
                z = complex(args[1])
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg", default_cfg)
                # the reduction only moves points outside the standard fundamental domain
                self._series(z, cfg.reduce and (abs(z.real) > 0.5 or abs(z) < 1))
                return "qseries.eisenstein"
            return eis_kind
        if (layer, name) == ("slash", "slash"):
            return lambda args, kwargs: self._matrix(args[2].gamma, "slash.slash")
        if (layer, name) == ("reps", "Rep.evaluate"):
            return lambda args, kwargs: self._matrix(args[1].gamma, "reps.Rep.evaluate")
        return None

    def _series(self, z: complex, reduced: bool) -> None:
        self.series_calls += 1
        self.series_reduced += bool(reduced)
        self.min_arg_im = min(self.min_arg_im, z.imag)

    def _matrix(self, gamma, span: str) -> str:
        self.matrix_calls += 1
        if gamma in self.seen_matrices:
            self.matrix_reused += 1
        else:
            self.seen_matrices.add(gamma)
        return span

    # -- results ---------------------------------------------------------------

    def spans(self) -> dict[str, dict]:
        return {name: {"calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
                for name, rec in sorted(self.stats.items())}

    def layer_metrics(self, word_cache: tuple[int, int], report: dict | None) -> dict[str, float]:
        """Per-layer metrics; ``word_cache`` is (hits, misses) of the automorphy word cache."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(rec[2] for name, rec in self.stats.items()
                                         if name.split(".", 1)[0] == layer)
        for metric, span, field in _SPAN_METRICS:
            rec = self.stats.get(span)
            out[metric] = rec[field] if rec else 0
        out["qseries.min_arg_im"] = self.min_arg_im if self.series_calls else 0.0
        hits, misses = word_cache
        out["automorphy.word_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        checks = {name.rsplit(".", 1)[-1]: rec for name, rec in self.stats.items()
                  if name.startswith("certify.check.")}
        for cid in NAMED_CHECKS:
            out[f"certify.check.{cid}.s"] = checks[cid][1] if cid in checks else 0.0
        other = sum(rec[1] for cid, rec in checks.items() if cid not in NAMED_CHECKS)
        out["certify.check.other.s"] = other
        out["certify.checks_failed"] = 0
        out["certify.worst_residual_ratio"] = 0.0
        if report is not None:
            out["certify.checks_failed"] = sum(not c["pass"] for c in report["checks"])
            out["certify.worst_residual_ratio"] = worst_residual_ratio(report)
        out["input.matrix_reuse_share"] = self.matrix_reused / self.matrix_calls if self.matrix_calls else 0.0
        out["input.reduced_share"] = self.series_reduced / self.series_calls if self.series_calls else 0.0
        return out


def worst_residual_ratio(report: dict) -> float:
    """Largest numeric residual / tolerance over the report's checks."""
    worst = 0.0
    for check in report["checks"]:
        residual, params = check["max_residual"], check["params"]
        tols = [params[k] for k in ("tolerance", "snap_tolerance", "transform_tolerance") if isinstance(params.get(k), float)]
        if isinstance(residual, float) and tols:
            worst = max(worst, residual / min(tols))
    return worst
