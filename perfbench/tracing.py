"""Spans and counts around magrev's layer boundaries, from outside ``src/``.

:class:`Tracer` replaces public functions at the module attributes their
callers look up (``magrev.estimator.coarse_estimate`` is what
``estimate_rpm`` calls) with wrappers that record a span: name, start, end,
parent span and request id.  Some wrappers also keep a few scalars from the
call's arguments or result, from which work counts are computed after the
run, so that the timed spans carry no extra arithmetic.  Spans stay in
memory until :meth:`Tracer.metrics` and :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

DETECTION_THRESHOLD = 0.5  # PipelineConfig().detection_threshold
LAYERS = ("signals", "dsp", "detector", "ppsp", "estimator", "evaluation", "sensor_io")


def _welch_args(a, result):
    n = np.asarray(a["signal"]).size
    seg = a["segment_len"]
    hop = max(1, int(round(seg * (1.0 - a["overlap_fraction"]))))
    return {"segments": (n - seg) // hop + 1}


def _delay_args(a, result):
    return {"used": 2 * a["max_lag"] + 1, "total": 2 * np.asarray(a["s_i"]).size - 1}


def _likelihood_args(a, result):
    m = 8 if a["beta"] is None else a["beta"].m
    return {"lookups": result.candidate_hz.size * m}


def _fine_args(a, result):
    return {
        "n": np.asarray(a["signal"]).size,
        "fs": a["sample_rate_hz"],
        "coarse": a["coarse_hz"],
        "segment_len": a["segment_len"],
        "gamma": a["gamma"],
        "delta_f": a["delta_f_hz"],
        "pick": result,
    }


def _flagged(a, result):
    return {"flagged": int(np.count_nonzero(result.probabilities >= DETECTION_THRESHOLD))}


def _forward_args(a, result):
    return {"weights": a["weights"]}


# (module whose attribute is replaced, attribute, span name, capture)
HOOKS = (
    ("magrev.sensor_io", "load_trace_wav", "sensor_io.load_trace_wav", None),
    ("magrev.estimator", "estimate_rpm", "estimator.estimate_rpm", None),
    ("magrev.evaluation", "estimate_rpm", "estimator.estimate_rpm", None),
    ("magrev.estimator", "estimate_rpm_multi", "estimator.estimate_rpm_multi", None),
    ("magrev.estimator", "delay_and_sum", "dsp.delay_and_sum", None),
    ("magrev.dsp", "spectral_denoise", "dsp.spectral_denoise", None),
    ("magrev.dsp", "estimate_delay", "dsp.estimate_delay", _delay_args),
    ("magrev.estimator", "welch_psd", "dsp.welch_psd", _welch_args),
    ("magrev.estimator", "threshold_detector", "detector.threshold_detector", _flagged),
    ("magrev.estimator", "detect_with_network", "detector.detect_with_network", _flagged),
    ("magrev.detector", "ppsp_forward", "ppsp.ppsp_forward", _forward_args),
    ("magrev.estimator", "coarse_estimate", "estimator.coarse_estimate", None),
    ("magrev.estimator", "compute_likelihood", "estimator.compute_likelihood", _likelihood_args),
    ("magrev.estimator", "fine_estimate", "estimator.fine_estimate", _fine_args),
    ("magrev.evaluation", "run_distance_sweep", "evaluation.run_distance_sweep", None),
    ("magrev.evaluation", "autocorrelation_baseline", "evaluation.autocorrelation_baseline", None),
    ("magrev.evaluation", "peak_detection_baseline", "evaluation.peak_detection_baseline", None),
    ("magrev.evaluation", "simulate_array", "signals.simulate_array", None),
    ("magrev.signals", "simulate_mixture", "signals.simulate_mixture", None),
    ("magrev.detector", "synthesize_training_set", "detector.synthesize_training_set", None),
    ("magrev.detector", "train", "detector.train", None),
    ("magrev.detector", "loss_and_grads", "ppsp.loss_and_grads", None),
)
# a classmethod, wrapped on its class
CLASS_HOOKS = (("magrev.dsp", "NoiseReference", "from_signal", "dsp.NoiseReference.from_signal"),)
# called once per coarse candidate: counted, not spanned
COUNT_HOOKS = (("magrev.estimator", "_supported", "estimator._supported"),)

# per_layer metrics: (name, unit, better)
PER_LAYER = (
    *((f"layer.{layer}.self_ms", "ms", "lower") for layer in LAYERS),
    ("estimator.coarse_estimate.ms", "ms", "lower"),
    ("estimator.compute_likelihood.ms", "ms", "lower"),
    ("estimator.fine_estimate.ms", "ms", "lower"),
    ("dsp.delay_and_sum.ms", "ms", "lower"),
    ("dsp.spectral_denoise.ms", "ms", "lower"),
    ("dsp.estimate_delay.ms", "ms", "lower"),
    ("dsp.welch_psd.ms", "ms", "lower"),
    ("detector.threshold_detector.ms", "ms", "lower"),
    ("detector.detect_with_network.ms", "ms", "lower"),
    ("ppsp.ppsp_forward.ms", "ms", "lower"),
    ("ppsp.loss_and_grads.ms", "ms", "lower"),
    ("evaluation.autocorrelation_baseline.ms", "ms", "lower"),
    ("evaluation.peak_detection_baseline.ms", "ms", "lower"),
    ("signals.simulate_array.ms", "ms", "lower"),
    ("signals.simulate_mixture.ms", "ms", "lower"),
    ("dsp.NoiseReference.from_signal.ms", "ms", "lower"),
    ("sensor_io.load_trace_wav.ms", "ms", "lower"),
    ("detector.train.s", "s", "lower"),
    ("detector.synthesize_training_set.s", "s", "lower"),
    ("estimator.coarse.ladder_lookups", "count", "lower"),
    ("estimator.fine.fft_points", "count", "lower"),
    ("dsp.welch_psd.segments", "count", "lower"),
    ("ppsp.forward.macs", "count", "lower"),
    ("detector.bins_flagged", "count", "lower"),
    ("estimator.fine.bins_used_ratio", "ratio", "higher"),
    ("dsp.estimate_delay.lags_used_ratio", "ratio", "higher"),
    ("estimator.coarse.supported_ratio", "ratio", "higher"),
    ("estimator.fine.at_edge_ratio", "ratio", "lower"),
    ("tracing.overhead_pct", "%", "lower"),
    ("tracing.requests_per_s_delta", "1/s", "higher"),
)


def forward_macs(weights) -> int:
    """Multiply-accumulates of one inference pass, computed from the weight
    shapes: c_out * c_in * kernel * length for every convolution, where the
    length halves at each encoder level and is m for pyramid branch m."""
    bins = weights.config.input_bins
    total = 0
    for key, w in weights.params.items():
        if not key.endswith(".weight"):
            continue
        block = key.split(".")[0]
        if block.startswith(("enc", "dec")):
            length = bins // weights.config.pool_kernel ** int(block[3:])
        elif block.startswith("pyr"):
            length = int(block[3:])
        else:
            length = bins
        c_out, c_in, kernel = w.shape
        total += c_out * c_in * kernel * length
    return total


def _fine_counts(rec: dict) -> tuple[int, int, int, bool]:
    """(fft points, bins in the +/- delta_f window, bins on the grid, pick on
    the window edge) for one fine_estimate call, on the grid it searched."""
    seg = rec["segment_len"]
    nfft = seg * rec["gamma"]
    segments = (rec["n"] - seg) // (seg // 2) + 1
    freqs = np.arange(nfft // 2 + 1) * (rec["fs"] / nfft)
    window = np.flatnonzero(
        (freqs >= rec["coarse"] - rec["delta_f"]) & (freqs <= rec["coarse"] + rec["delta_f"])
    )
    edge = rec["pick"] in (freqs[window[0]], freqs[window[-1]])
    return segments * nfft, window.size, freqs.size, edge


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.records: dict[str, list[dict]] = defaultdict(list)
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.request_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, capture in HOOKS:
            self._replace(importlib.import_module(module_name), attr, name, capture)
        for module_name, cls_name, attr, name in CLASS_HOOKS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            if attr in vars(cls):
                func = vars(cls)[attr].__func__
                self._saved.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, classmethod(self._span(func, name, None)))
            else:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
        for module_name, attr, name in COUNT_HOOKS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._counter(original, name))
            else:
                self.missing.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, module, attr, name, capture) -> None:
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._span(original, name, capture))

    def _span(self, func, name, capture):
        signature = inspect.signature(func) if capture else None
        spans, stack, records = self.spans, self._stack, self.records

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if capture is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec = capture(bound.arguments, result)
                rec["span"] = index
                records[name].append(rec)
            return result

        return wrapper

    def _counter(self, func, name):
        tally = self.counts[name]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            tally[0] += 1
            tally[1] += bool(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def request(self, request_id: int):
        """One request: its spans share ``request_id`` and hang under a
        ``perfbench.request`` span."""
        span = ["perfbench.request", time.perf_counter(), 0.0, -1, request_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.request_id = request_id
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.request_id = None

    # -- results ------------------------------------------------------------

    def _durations(self, name: str, keep=lambda span: True) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and keep(s)]

    def metrics(self, requests: int, untraced_rps: float, traced_rps: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_ms = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            layer = s[0].split(".")[0]
            if s[4] is not None and layer in self_ms:
                self_ms[layer] += (s[2] - s[1] - child[i]) * 1000.0
        out = {f"layer.{k}.self_ms": v / max(requests, 1) for k, v in self_ms.items()}

        def mean_ms(name, keep=lambda span: True):
            d = self._durations(name, keep)
            return 1000.0 * sum(d) / len(d) if d else 0.0

        def spectrum_call(span):
            # welch_psd reached from fine_estimate is part of the fine stage
            return span[3] < 0 or spans[span[3]][0] != "estimator.fine_estimate"

        for name in (
            "estimator.coarse_estimate", "estimator.compute_likelihood",
            "estimator.fine_estimate", "dsp.delay_and_sum", "dsp.spectral_denoise",
            "dsp.estimate_delay", "detector.threshold_detector",
            "detector.detect_with_network", "ppsp.ppsp_forward", "ppsp.loss_and_grads",
            "evaluation.autocorrelation_baseline", "evaluation.peak_detection_baseline",
            "signals.simulate_array", "signals.simulate_mixture",
            "dsp.NoiseReference.from_signal", "sensor_io.load_trace_wav",
        ):
            out[f"{name}.ms"] = mean_ms(name)
        out["dsp.welch_psd.ms"] = mean_ms("dsp.welch_psd", spectrum_call)
        for name in ("detector.train", "detector.synthesize_training_set"):
            out[f"{name}.s"] = sum(self._durations(name))

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        welch = [r for r in self.records["dsp.welch_psd"] if spectrum_call(spans[r["span"]])]
        out["dsp.welch_psd.segments"] = mean(r["segments"] for r in welch)
        out["estimator.coarse.ladder_lookups"] = mean(
            r["lookups"] for r in self.records["estimator.compute_likelihood"]
        )
        fine = [_fine_counts(r) for r in self.records["estimator.fine_estimate"]]
        out["estimator.fine.fft_points"] = mean(f[0] for f in fine)
        out["estimator.fine.bins_used_ratio"] = mean(f[1] / f[2] for f in fine)
        out["estimator.fine.at_edge_ratio"] = mean(float(f[3]) for f in fine)
        forwards = self.records["ppsp.ppsp_forward"]
        out["ppsp.forward.macs"] = mean(forward_macs(r["weights"]) for r in forwards)
        flagged = (
            self.records["detector.threshold_detector"] + self.records["detector.detect_with_network"]
        )
        out["detector.bins_flagged"] = mean(r["flagged"] for r in flagged)
        delays = self.records["dsp.estimate_delay"]
        out["dsp.estimate_delay.lags_used_ratio"] = mean(r["used"] / r["total"] for r in delays)
        tested, kept = self.counts["estimator._supported"]
        out["estimator.coarse.supported_ratio"] = kept / tested if tested else 0.0
        out["tracing.overhead_pct"] = (
            100.0 * (untraced_rps - traced_rps) / untraced_rps if untraced_rps else 0.0
        )
        out["tracing.requests_per_s_delta"] = traced_rps - untraced_rps
        return out

    def dump(self, path: Path) -> None:
        """Write every span (times relative to the first) as JSON lines."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as handle:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start_s": start - t0, "end_s": end - t0,
                    "parent": parent, "request": request,
                }) + "\n")
