"""Spans and counts for the traced run.

The tracer replaces public functions of the program with timing wrappers at
the names their callers look up (``dcic.linear.gaussian_gram`` is what
``linear.fit`` calls, ``dcic.joint.gaussian_gram`` what ``joint.fit_joint``
calls), records one span per call in memory and restores the originals on
``uninstall``. Nothing inside ``src/`` is changed. A site the program no
longer has is skipped and listed in ``missing``, so a refactor that moves a
function zeroes its metric instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from dcic import classifier, harness, joint, linear, synth

# layer name -> the (module, attribute) pairs where callers look it up
LAYERS = {
    "kernels.gram": [(linear, "gaussian_gram"), (joint, "gaussian_gram")],
    "kernels.bandwidth": [(linear, "median_bandwidth"), (joint, "median_bandwidth")],
    "linear.fit": [(linear, "fit"), (harness, "fit")],
    "linear.qp": [(linear, "solve_alpha_qp"), (joint, "solve_alpha_qp")],
    "linear.wgrad": [(linear, "euclidean_grad_w")],
    "linear.step": [(linear, "grassmann_step")],
    "linear.retract": [(linear, "qr_retract")],
    "classifier.train": [(harness, "train")],
    "classifier.sgd": [(classifier, "batch_loss_grads")],
    "classifier.predict": [(harness, "predict"), (classifier, "predict")],
    "joint.fit": [(joint, "fit_joint")],
    "noise": [(linear, "clean_prior_from_noisy"), (linear, "build_g_matrix"),
              (harness, "clean_prior_from_noisy"), (harness, "gamma_weights"),
              (joint, "clean_prior_from_noisy"), (joint, "build_g_matrix"),
              (joint, "gamma_weights")],
    "synth": [(harness, a) for a in ("sample_gmm_spec", "sample_dataset", "flip_labels",
                                     "sample_location_scale", "apply_location_scale")]
             + [(synth, a) for a in ("sample_gmm_spec", "sample_dataset", "flip_labels")],
    "harness": [(harness, "run_experiment")],
}


def _gram_count(counts, args, result):
    counts["gram_entries"] += args[0].shape[0] * args[1].shape[0]


def _fit_count(counts, args, result):
    counts["fits"] += 1
    counts["fits_converged"] += bool(result.converged)
    counts["outer_iters"] += len(result.objective_trace) - 1


def _step_count(counts, args, result):
    w_in = getattr(args[0], "w", args[0])
    proj, state = result
    counts["steps_accepted"] += (not state.stalled) and proj.w is not w_in


COUNTERS = {"kernels.gram": _gram_count, "linear.fit": _fit_count,
            "linear.step": _step_count}


class Tracer:
    """In-memory span recorder. A span is (name, start, end, parent, unit):
    ``parent`` is the index of the enclosing span or -1, ``unit`` the id of
    the unit of work (or "setup") the call belongs to."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.unit = "setup"
        self._stack = []
        self._saved = []
        self.missing = []

    def install(self):
        for layer, sites in LAYERS.items():
            for module, attr in sites:
                orig = getattr(module, attr, None)
                if orig is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                self._saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(layer, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, layer, fn):
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the block; spans opened inside it become
        its children."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent, self.unit)

    def write(self, path, origin):
        """Write every span, times relative to ``origin``, as one JSON file."""
        rows = [[n, round(s - origin, 7), round(e - origin, 7), p, u]
                for n, s, e, p, u in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "unit"],
                       "spans": rows}, fh)


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "Mentries/s"
    if metric.endswith(("_s", ".s")):
        return "s/unit"
    if metric.endswith(("_frac", "_ratio")):
        return "frac"
    if metric == "linear.outer_iters":
        return "count/fit"
    return "count/unit"


def layer_metrics(tracer, units, input_sets):
    """Per-layer metrics from the spans and counts, as values per unit.

    ``units`` is the number of traced units; ``input_sets`` the number of
    units' worth of inputs generated (synth work done in setup counts per
    input set, so ``synth.s`` means seconds of synth per unit's inputs on
    every workload).
    """
    busy = Counter()
    calls = Counter()
    child = Counter()  # time covered by direct children, per parent index
    nested = Counter()  # calls per (layer, enclosing layer)
    setup_synth = 0.0
    for name, start, end, parent, unit in tracer.spans:
        if unit == "setup":
            if name == "synth":
                setup_synth += end - start
            continue
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
            nested[name, tracer.spans[parent][0]] += 1
    self_time = Counter()
    for i, (name, start, end, _, unit) in enumerate(tracer.spans):
        if unit != "setup":
            self_time[name] += (end - start) - child[i]
    c = tracer.counts
    ls_evals = nested["linear.retract", "linear.step"]
    per = 1.0 / units
    gram_s = busy["kernels.gram"]
    return {
        "kernels.gram_s": gram_s * per,
        "kernels.gram_calls": calls["kernels.gram"] * per,
        "kernels.gram_entries": c["gram_entries"] * per,
        "kernels.gram_mentries_per_s": c["gram_entries"] / 1e6 / gram_s if gram_s else 0.0,
        "kernels.bandwidth_s": busy["kernels.bandwidth"] * per,
        "kernels.bandwidth_calls": calls["kernels.bandwidth"] * per,
        "linear.fit_s": busy["linear.fit"] * per,
        "linear.fit_calls": calls["linear.fit"] * per,
        "linear.self_s": self_time["linear.fit"] * per,
        "linear.qp_s": busy["linear.qp"] * per,
        "linear.qp_calls": calls["linear.qp"] * per,
        "linear.wgrad_s": busy["linear.wgrad"] * per,
        "linear.wgrad_calls": calls["linear.wgrad"] * per,
        "linear.step_s": busy["linear.step"] * per,
        "linear.step_calls": calls["linear.step"] * per,
        "linear.ls_evals": ls_evals * per,
        "linear.ls_accept_ratio": c["steps_accepted"] / ls_evals if ls_evals else 0.0,
        "linear.outer_iters": c["outer_iters"] / c["fits"] if c["fits"] else 0.0,
        "linear.converged_frac": c["fits_converged"] / c["fits"] if c["fits"] else 0.0,
        "classifier.train_s": busy["classifier.train"] * per,
        "classifier.sgd_steps": calls["classifier.sgd"] * per,
        "classifier.predict_s": busy["classifier.predict"] * per,
        "joint.fit_s": busy["joint.fit"] * per,
        "joint.self_s": self_time["joint.fit"] * per,
        "joint.alpha_refreshes": nested["linear.qp", "joint.fit"] * per,
        "noise.s": busy["noise"] * per,
        "synth.s": (busy["synth"] + setup_synth) / input_sets,
        "harness.self_s": self_time["harness"] * per,
    }
