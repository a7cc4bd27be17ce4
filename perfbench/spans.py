"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces each traced public function (and the few public
methods the layers call on models and point sets) with a wrapper that
records a span: name, start, end, parent span and job id. Functions are
patched at every module binding that refers to them, so calls made through
``from .x import f`` names are seen as well. Spans stay in memory; the
caller writes them out at the end. A layer metric is the self time of its
spans: duration minus the part covered by child spans, so that the self
times of one job, the root ``cli.main`` span included, add up to the job.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# span name -> per-layer metric name
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "models.model_from_json": "models.model_from_json_s",
    "models.radial_argument": "models.radial_argument_s",
    "points.read_points_csv": "points.read_points_csv_s",
    "points.lags": "points.lags_s",
    "points.min_separation": "points.min_separation_s",
    "algebra.evaluate": "algebra.evaluate_s",
    "algebra.spectral_eval": "algebra.spectral_eval_s",
    "checks.kernel_matrix": "checks.kernel_matrix_s",
    "checks.contrast_basis": "checks.contrast_basis_s",
    "checks.cnd": "checks.cnd_self_s",
    "checks.pd": "checks.pd_self_s",
    "checks.axioms": "checks.axioms_self_s",
    "kriging.build_gamma_matrix.dense": "kriging.build_gamma_matrix.dense_s",
    "kriging.build_gamma_matrix.sparse": "kriging.build_gamma_matrix.sparse_s",
    "kriging.ordinary_kriging": "kriging.ordinary_kriging_self_s",
    "kriging.simulate_field": "kriging.simulate_field_s",
    "kriging.empirical_variogram": "kriging.empirical_variogram_s",
    "kernels.spectral_variogram": "kernels.spectral_variogram_s",
}

# counters summed over a round, and computed sizes kept as a maximum;
# checks.witnesses and algebra.spectral_lags_distinct are counted by the
# worker from the job outputs and inputs, the rest at the span boundaries
COUNTERS = ("algebra.points_evaluated", "algebra.spectral_lags_requested",
            "algebra.spectral_lags_distinct", "checks.kernel_evals",
            "checks.witnesses", "kriging.targets", "kriging.sparse_nnz",
            "kriging.pairs_binned")
SIZES_MB = ("points.lag_tensor_mb", "kriging.replicate_pair_mb")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.sizes: dict[str, float] = dict.fromkeys(SIZES_MB, 0.0)
        self.job = None
        self.active = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n) -> None:
        self.counts[key] += n

    def size_mb(self, key: str, nbytes) -> None:
        self.sizes[key] = max(self.sizes[key], nbytes / 1e6)

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.sizes = dict.fromkeys(SIZES_MB, 0.0)

    def wrap(self, fn, name, after=None):
        """fn with a span around each call made while the tracer is active.

        name is a span name or a function of the call's arguments; after,
        if given, is called with (args, kwargs, result) to update counters.
        """
        @functools.wraps(fn)
        def traced(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            idx = self.open(name if isinstance(name, str) else name(args, kw))
            try:
                result = fn(*args, **kw)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kw, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's layers for the duration of the block."""
        restore = []
        try:
            for owner, attr, name, after in _targets(self):
                original = owner.__dict__[attr]
                wrapper = self.wrap(original, name, after)
                for o in _bindings(owner, attr, original):
                    restore.append((o, attr, original))
                    setattr(o, attr, wrapper)
            yield self
        finally:
            for o, attr, original in reversed(restore):
                setattr(o, attr, original)

    def self_times(self, first: int = 0, stop: int | None = None) -> dict[str, float]:
        """Self time per span name over the spans self.spans[first:stop].

        The range must hold whole jobs: spans are recorded in call order, so
        the spans of a job follow its root span and the range then holds
        every span's parent.
        """
        spans = self.spans[first:stop]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] is not None:
                child[s[3] - first] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, c in zip(spans, child):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
        return out


def _bindings(owner, attr, original):
    """Every loaded variobern module, or the class itself, that binds original."""
    if isinstance(owner, type):
        return [owner]
    found = [m for name, m in sorted(sys.modules.items())
             if name.startswith("variobern") and m is not None
             and m.__dict__.get(attr) is original]
    return found or [owner]


@functools.lru_cache(maxsize=256)
def _has_spectral(expr) -> bool:
    return expr.kind == "spectral" or any(_has_spectral(c) for c in expr.children)


def _targets(tr: Tracer):
    from variobern import algebra, checks, kernels, kriging, models, points

    def evaluate_name(args, kw):
        return "algebra.spectral_eval" if _has_spectral(args[0]) else "algebra.evaluate"

    def after_evaluate(args, kw, result):
        key = ("algebra.spectral_lags_requested" if _has_spectral(args[0])
               else "algebra.points_evaluated")
        tr.count(key, int(np.size(args[1])))

    def after_lags(args, kw, result):
        tr.size_mb("points.lag_tensor_mb", result.nbytes)

    def after_kernel_matrix(args, kw, result):
        tr.count("checks.kernel_evals", int(result.size))

    def gamma_name(args, kw):
        mode = kw.get("mode", args[2] if len(args) > 2 else "dense")
        return f"kriging.build_gamma_matrix.{mode}"

    def after_gamma(args, kw, result):
        if hasattr(result, "nnz"):
            tr.count("kriging.sparse_nnz", int(result.nnz))

    def after_kriging(args, kw, result):
        tr.count("kriging.targets", 1)

    def after_empirical(args, kw, result):
        reps, sites = args[0], args[1]
        pairs = sites.n * (sites.n - 1) // 2
        tr.count("kriging.pairs_binned", len(reps) * pairs)
        tr.size_mb("kriging.replicate_pair_mb", len(reps) * pairs * 8)

    return [
        (algebra, "evaluate", evaluate_name, after_evaluate),
        (models, "model_from_json", "models.model_from_json", None),
        (models._RadialModel, "radial_argument", "models.radial_argument", None),
        (points, "read_points_csv", "points.read_points_csv", None),
        (points.PointSet, "lags", "points.lags", after_lags),
        (points.PointSet, "min_separation", "points.min_separation", None),
        (checks, "kernel_matrix", "checks.kernel_matrix", after_kernel_matrix),
        (checks, "contrast_basis", "checks.contrast_basis", None),
        (checks, "cnd_check", "checks.cnd", None),
        (checks, "pd_check", "checks.pd", None),
        (checks, "variogram_axioms", "checks.axioms", None),
        (kriging, "build_gamma_matrix", gamma_name, after_gamma),
        (kriging, "ordinary_kriging", "kriging.ordinary_kriging", after_kriging),
        (kriging, "simulate_field", "kriging.simulate_field", None),
        (kriging, "empirical_variogram", "kriging.empirical_variogram", after_empirical),
        (kernels, "spectral_variogram", "kernels.spectral_variogram", None),
    ]
