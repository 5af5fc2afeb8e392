"""Rotation-speed estimation from harmonic detection maps.

Every estimate runs one staged path.  :func:`detect_harmonics` is the front
end: delay-and-sum enhancement, Welch spectrum, the analysis band, and the
threshold or network detector.  :func:`estimate_rpm_multi` then repeats the
coarse pick (:func:`coarse_estimate`) and the fine refinement
(:func:`fine_estimate`), clearing each winner's harmonic evidence before the
next pick; :func:`estimate_rpm` is its first pick.  Failures raise
:class:`PipelineError` tagged with the stage: ``enhance`` (delay-and-sum),
``spectrum`` (Welch, or too few bins for the network), ``detect``, ``coarse``
(no candidate bins) and ``fine`` (no bins in the refinement window).

The coarse stage treats every spectral bin between ``f_min`` and half the
analysis band as a candidate fundamental and scores it by a weighted sum of
detection evidence at its integer multiples: ``score(g) = sum_k beta_k *
p(k*g)``, where ``p`` is the per-bin detection probability softened by a
``+/- delta_f`` neighborhood maximum.  Candidates whose higher multiples are
entirely absent from the binarized detection map are removed before the
argmax; that one rule is what keeps half- and double-speed impostors from
winning on partial evidence.

The fine stage re-reads the enhanced time signal on the grid of a Welch
transform zero-padded to ``gamma`` times the segment length, evaluated only
at the grid points inside ``+/- delta_f`` of the coarse pick, and takes the
density peak among them.  RPM is exactly ``60 * fine``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import DetectionMap, detect_with_network, threshold_detector
from .dsp import (
    NoiseReference,
    PowerSpectrum,
    default_segment_len,
    delay_and_sum,
    log_normalize,
    welch_psd,
    welch_zoom,
)
from .ppsp import PpspWeights
from .sensor_io import STRING, check_fields, integer, one_of, real
from .signals import SensorTrace

__all__ = [
    "CoarseResult",
    "FuzzyLikelihood",
    "HarmonicWeights",
    "PipelineConfig",
    "PipelineError",
    "SpeedEstimate",
    "coarse_estimate",
    "compute_likelihood",
    "default_harmonic_weights",
    "detect_harmonics",
    "estimate_rpm",
    "estimate_rpm_multi",
    "fine_estimate",
    "fit_beta",
]


class PipelineError(RuntimeError):
    """Estimation failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the end-to-end estimator needs besides the trace itself."""

    welch_segment: int | None = None
    input_bins: int = 1024
    f_min_hz: float = 5.0
    delta_f_hz: float | None = None
    n_support: int = 4
    gamma: int = 50
    detector: str = "threshold"
    threshold_quantile: float = 0.99
    detection_threshold: float = 0.5
    max_lag_s: float = 0.01
    m_harmonics: int = 8
    weights_path: str | None = None

    def __post_init__(self):
        check_fields(self, _PIPELINE_FIELDS)


_PIPELINE_FIELDS = {
    "welch_segment": integer(">= 1"),
    "input_bins": integer(">= 2"),
    "f_min_hz": real("> 0"),
    "delta_f_hz": real("> 0"),
    "n_support": integer(">= 2"),
    "gamma": integer(">= 1"),
    "detector": one_of("threshold", "network"),
    "threshold_quantile": real("in (0, 1)"),
    "detection_threshold": real("in (0, 1]"),
    "max_lag_s": real(">= 0"),
    "m_harmonics": integer(">= 1"),
    "weights_path": STRING,
}


@dataclass
class HarmonicWeights:
    """Per-harmonic evidence weights beta_1..beta_M."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("harmonic weights must be a non-empty vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("harmonic weights must be finite")

    @property
    def m(self) -> int:
        return self.values.size


def default_harmonic_weights(m: int = 8) -> HarmonicWeights:
    """beta_k = 1/k: the fundamental counts most, evidence decays up the
    harmonic ladder."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return HarmonicWeights(values=1.0 / np.arange(1, m + 1))


@dataclass
class FuzzyLikelihood:
    """Candidate fundamentals with their aggregated harmonic evidence."""

    candidate_hz: np.ndarray
    scores: np.ndarray
    delta_f_hz: float

    def __post_init__(self):
        if self.candidate_hz.shape != self.scores.shape:
            raise ValueError("candidates and scores must align")


@dataclass
class CoarseResult:
    frequency_hz: float
    score: float
    flags: tuple[str, ...]
    likelihood: FuzzyLikelihood


@dataclass
class SpeedEstimate:
    """Final output of the pipeline.  ``rpm`` is exactly ``60 * fine_hz``."""

    fine_hz: float
    coarse_hz: float
    rpm: float
    confidence: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        self.fine_hz = float(self.fine_hz)
        self.coarse_hz = float(self.coarse_hz)
        self.rpm = float(self.rpm)
        self.confidence = float(self.confidence)
        self.flags = tuple(self.flags)

    CSV_HEADER = ("rpm", "fine_hz", "coarse_hz", "confidence", "flags")

    def csv_row(self) -> tuple:
        flags = ";".join(self.flags)
        return (self.rpm, self.fine_hz, self.coarse_hz, self.confidence, flags)


# ---------------------------------------------------------------------------
# Coarse stage
# ---------------------------------------------------------------------------


def _grid_spacing(freqs: np.ndarray) -> float:
    if freqs.size < 2:
        raise ValueError("need at least two bins")
    return float(freqs[1] - freqs[0])


def _window_radius_bins(delta_f: float, spacing: float) -> int:
    return max(0, int(round(delta_f / spacing)))


def _soft_probabilities(dmap: DetectionMap, delta_f: float) -> np.ndarray:
    """Per-bin probability softened by a +/- delta_f neighborhood max (bins
    past either end count as 0)."""
    r = _window_radius_bins(delta_f, _grid_spacing(dmap.bin_frequencies))
    if r == 0:
        return dmap.probabilities
    padded = np.pad(dmap.probabilities, r)
    return sliding_window_view(padded, 2 * r + 1).max(axis=1)


def _candidate_indices(freqs: np.ndarray, f_min: float) -> np.ndarray:
    """Grid indices eligible as fundamentals: [f_min, band_max / 2].

    Capping at half the band guarantees every candidate has at least its
    second multiple inside the band, so the support check below never runs
    on an empty range.
    """
    band_max = float(freqs[-1])
    idx = np.flatnonzero((freqs >= f_min) & (freqs <= band_max / 2.0))
    if idx.size == 0:
        raise ValueError(
            f"no candidate bins between {f_min} Hz and {band_max / 2.0} Hz"
        )
    return idx


def _ladder(freqs: np.ndarray, candidate_hz: np.ndarray, m: int) -> np.ndarray:
    """Nearest grid index of multiples 1..m (columns) of each candidate
    (rows), rounding half to even; ``freqs.size`` marks out of band."""
    orders = np.arange(1, m + 1)
    idx = np.rint((candidate_hz[:, None] * orders - freqs[0]) / _grid_spacing(freqs))
    return np.where((idx >= 0) & (idx < freqs.size), idx, freqs.size).astype(np.intp)


def _ladder_features(
    dmap: DetectionMap, f_min_hz: float, delta_f: float, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate fundamentals and the softened probability at each one's
    first m multiples (0 beyond the band), one row per candidate."""
    freqs = dmap.bin_frequencies
    candidate_hz = freqs[_candidate_indices(freqs, f_min_hz)]
    soft = np.append(_soft_probabilities(dmap, delta_f), 0.0)
    return candidate_hz, soft[_ladder(freqs, candidate_hz, m)]


def compute_likelihood(
    dmap: DetectionMap,
    beta: HarmonicWeights | None = None,
    *,
    f_min_hz: float = 5.0,
    delta_f_hz: float | None = None,
) -> FuzzyLikelihood:
    """Aggregate detection evidence over each candidate's harmonic ladder.

    score(g) = sum_{k=1..M} beta_k * max(prob within +/- delta_f of k*g);
    multiples beyond the band contribute nothing.
    """
    if beta is None:
        beta = default_harmonic_weights()
    spacing = _grid_spacing(dmap.bin_frequencies)
    delta_f = spacing if delta_f_hz is None else delta_f_hz
    candidate_hz, features = _ladder_features(dmap, f_min_hz, delta_f, beta.m)
    # one harmonic at a time, k = 1..M, so every score sums in a fixed order
    scores = np.zeros(candidate_hz.size)
    for k in range(beta.m):
        scores += beta.values[k] * features[:, k]
    return FuzzyLikelihood(candidate_hz=candidate_hz, scores=scores, delta_f_hz=delta_f)


def _support_mask(
    dmap: DetectionMap,
    candidate_hz: np.ndarray,
    delta_f: float,
    n_support: int,
    detection_threshold: float,
) -> np.ndarray:
    """Which candidates keep their place: those with a binarized detection
    within +/- delta_f of at least one low multiple (2nd up to the
    n_support-th, clipped to the band).  No detected multiple at all means
    the candidate is an artifact of a single strong bin and is removed."""
    freqs = dmap.bin_frequencies
    r = _window_radius_bins(delta_f, _grid_spacing(freqs))
    ladder = _ladder(freqs, candidate_hz, n_support)
    orders = np.arange(1, n_support + 1)
    top = np.floor(float(freqs[-1]) / candidate_hz)
    tested = (ladder < freqs.size) & (orders >= 2) & (orders <= top[:, None])
    # detections in [lo, hi) from a prefix sum over the binarized map
    hits = np.concatenate(([0], np.cumsum(dmap.binarize(detection_threshold))))
    lo = np.maximum(ladder - r, 0)
    hi = np.minimum(ladder + r + 1, freqs.size)
    return np.any(tested & (hits[hi] > hits[lo]), axis=1)


def coarse_estimate(
    dmap: DetectionMap,
    beta: HarmonicWeights | None = None,
    *,
    f_min_hz: float = 5.0,
    delta_f_hz: float | None = None,
    n_support: int = 4,
    detection_threshold: float = 0.5,
) -> CoarseResult:
    """Best-supported fundamental on the coarse grid.

    Candidates with no detected low multiple are removed before the argmax;
    when the removal empties the field, the unfiltered argmax is returned
    with ``fallback`` and ``low_confidence`` flags.  Score ties break toward
    the lower frequency.
    """
    like = compute_likelihood(
        dmap, beta, f_min_hz=f_min_hz, delta_f_hz=delta_f_hz
    )
    keep = _support_mask(
        dmap, like.candidate_hz, like.delta_f_hz, n_support, detection_threshold
    )
    flags: tuple[str, ...] = ()
    if keep.any():
        scores = np.where(keep, like.scores, -np.inf)
    else:
        scores = like.scores
        flags = ("fallback", "low_confidence")
    best = int(np.argmax(scores))  # argmax takes the first, hence lowest, frequency
    return CoarseResult(
        frequency_hz=float(like.candidate_hz[best]),
        score=float(like.scores[best]),
        flags=flags,
        likelihood=like,
    )


# ---------------------------------------------------------------------------
# Fine stage
# ---------------------------------------------------------------------------


def fine_estimate(
    signal: np.ndarray,
    sample_rate_hz: float,
    coarse_hz: float,
    *,
    segment_len: int | None = None,
    gamma: int = 50,
    delta_f_hz: float | None = None,
    window: str = "hann",
) -> float:
    """Refine a coarse frequency on a gamma-times denser spectral grid.

    The grid is that of the Welch transform zero-padded to
    ``gamma * segment_len`` points; its densities are evaluated only at the
    grid points within ``+/- delta_f`` of the coarse pick (see
    :func:`magrev.dsp.welch_zoom`), and the peak among them is returned.
    ``gamma=1`` reproduces the coarse grid.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if segment_len is None:
        segment_len = default_segment_len(sample_rate_hz, signal.size)
    if delta_f_hz is None:
        delta_f_hz = sample_rate_hz / segment_len
    nfft = segment_len * gamma
    df = sample_rate_hz / nfft
    lo = coarse_hz - delta_f_hz
    hi = coarse_hz + delta_f_hz
    # a bin of margin on each side; the exact comparison below decides
    first = int(max(np.floor(lo / df) - 1, 0))
    last = int(min(np.ceil(hi / df) + 1, nfft // 2))
    bins = np.arange(first, last + 1)
    freqs = bins * df
    sel = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    densities = welch_zoom(
        signal, sample_rate_hz, segment_len=segment_len, nfft=nfft, bins=bins[sel],
        window=window,
    )
    if sel.size == 0:
        raise PipelineError(
            "fine", f"no spectral bins within {delta_f_hz} Hz of {coarse_hz} Hz"
        )
    return float(freqs[sel[int(np.argmax(densities))]])


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


def detect_harmonics(
    trace: SensorTrace,
    config: PipelineConfig | None = None,
    *,
    noise_reference: NoiseReference | None = None,
    weights: PpspWeights | None = None,
) -> tuple[np.ndarray, int, DetectionMap]:
    """The front end: denoise + align + sum, Welch spectrum, the first
    ``input_bins`` bins log-normalized, harmonic detection.

    Returns the enhanced signal, the Welch segment length and the detection
    map.  Failures raise :class:`PipelineError` tagged ``enhance``,
    ``spectrum`` or ``detect``.
    """
    if config is None:
        config = PipelineConfig()
    fs = trace.sample_rate_hz
    if noise_reference is None:
        noise_reference = NoiseReference.unity(trace.n_samples)
    try:
        max_lag = int(round(config.max_lag_s * fs))
        enhanced = delay_and_sum(trace, noise_reference, max_lag=max_lag)
    except ValueError as exc:
        raise PipelineError("enhance", str(exc)) from exc
    try:
        segment = config.welch_segment or default_segment_len(fs, enhanced.size)
        spec = welch_psd(enhanced, fs, segment_len=segment)
    except ValueError as exc:
        raise PipelineError("spectrum", str(exc)) from exc
    if config.detector == "network" and spec.n_bins < config.input_bins:
        raise PipelineError(
            "spectrum", f"need {config.input_bins} bins for the network, got {spec.n_bins}"
        )
    band = log_normalize(
        PowerSpectrum(
            frequencies=spec.frequencies[: config.input_bins],
            densities=spec.densities[: config.input_bins],
            resolution_df=spec.resolution_df,
        )
    )
    if config.detector == "threshold":
        dmap = threshold_detector(band, quantile=config.threshold_quantile)
        return enhanced, segment, dmap
    if weights is None:
        if config.weights_path is None:
            raise PipelineError(
                "detect", "network detector needs weights or weights_path"
            )
        weights = PpspWeights.load(config.weights_path)
    return enhanced, segment, detect_with_network(band, weights)


def estimate_rpm(
    trace: SensorTrace,
    config: PipelineConfig | None = None,
    *,
    noise_reference: NoiseReference | None = None,
    beta: HarmonicWeights | None = None,
    weights: PpspWeights | None = None,
) -> SpeedEstimate:
    """Full pipeline for one motor: the first pick of
    :func:`estimate_rpm_multi`."""
    return estimate_rpm_multi(
        trace, 1, config, noise_reference=noise_reference, beta=beta, weights=weights
    )[0]


def _cleared_bins(
    dmap: DetectionMap, fine_hz: float, delta_f: float, threshold: float
) -> np.ndarray:
    """Mask of the bins that clearing a pick at ``fine_hz`` zeroes.

    Every multiple up to ``band_max + delta_f`` that lands in the band opens
    a window of ``+/- delta_f``; each window then grows over the binarized
    runs that touch its ends, so a leakage cluster dies whole.  Windows grow
    independently against the same binarized map, so their union is taken
    once, with a difference array.
    """
    freqs = dmap.bin_frequencies
    n = freqs.size
    r = _window_radius_bins(delta_f, _grid_spacing(freqs))
    limit = float(freqs[-1]) + delta_f
    if fine_hz > 0.0:
        # the largest k with k * fine_hz <= limit, decided by the same float
        # products that counting k up one at a time would test
        orders = int(limit // fine_hz)
        while (orders + 1) * fine_hz <= limit:
            orders += 1
        while orders > 0 and orders * fine_hz > limit:
            orders -= 1
    else:
        orders = 1  # every multiple of a 0 Hz pick is the same bin
    centres = _ladder(freqs, np.array([fine_hz]), orders)[0]
    centres = centres[centres < n]
    lo = np.maximum(centres - r, 0)
    hi = np.minimum(centres + r + 1, n)
    # first and one-past-last bin of the binarized run holding each bin
    binary = dmap.binarize(threshold)
    idx = np.arange(n)
    opens = binary & ~np.concatenate(([False], binary[:-1]))
    closes = binary & ~np.concatenate((binary[1:], [False]))
    run_start = np.maximum.accumulate(np.where(opens, idx, 0))
    run_stop = np.minimum.accumulate(np.where(closes, idx + 1, n)[::-1])[::-1]
    left = np.maximum(lo - 1, 0)
    lo = np.where((lo > 0) & binary[left], run_start[left], lo)
    right = np.minimum(hi, n - 1)
    hi = np.where((hi < n) & binary[right], run_stop[right], hi)
    depth = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))
    return depth[:n] > 0


def estimate_rpm_multi(
    trace: SensorTrace,
    count: int,
    config: PipelineConfig | None = None,
    *,
    noise_reference: NoiseReference | None = None,
    beta: HarmonicWeights | None = None,
    weights: PpspWeights | None = None,
) -> list[SpeedEstimate]:
    """Full pipeline for up to ``count`` motors: :func:`detect_harmonics`,
    then one :func:`coarse_estimate` and :func:`fine_estimate` per pick.

    The confidence is the winning score normalized by the best achievable
    score (all harmonics fully detected); a first pick that scores <= 0
    carries ``low_confidence``.  Before each later pick, the detection
    evidence within ``delta_f`` of every integer multiple of the winner is
    cleared, so later picks can neither be the winner's harmonics nor
    subharmonic ghosts that borrow its ladder.  Picking stops when the
    coarse stage falls back or its winner scores <= 0; then the list comes
    up short and every returned estimate carries a ``harmonic_shortfall``
    flag.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if config is None:
        config = PipelineConfig()
    if beta is None:
        beta = default_harmonic_weights(config.m_harmonics)
    enhanced, segment, dmap = detect_harmonics(
        trace, config, noise_reference=noise_reference, weights=weights
    )
    freqs = dmap.bin_frequencies
    estimates: list[SpeedEstimate] = []
    for pick in range(count):
        try:
            coarse = coarse_estimate(
                dmap,
                beta,
                f_min_hz=config.f_min_hz,
                delta_f_hz=config.delta_f_hz,
                n_support=config.n_support,
                detection_threshold=config.detection_threshold,
            )
        except ValueError as exc:
            raise PipelineError("coarse", str(exc)) from exc
        flags = coarse.flags
        if pick > 0 and ("fallback" in flags or coarse.score <= 0.0):
            break
        if coarse.score <= 0.0 and "low_confidence" not in flags:
            flags += ("low_confidence",)
        delta_f = coarse.likelihood.delta_f_hz
        fine = fine_estimate(
            enhanced,
            trace.sample_rate_hz,
            coarse.frequency_hz,
            segment_len=segment,
            gamma=config.gamma,
            delta_f_hz=delta_f,
        )
        estimates.append(
            SpeedEstimate(
                fine_hz=fine,
                coarse_hz=coarse.frequency_hz,
                rpm=60.0 * fine,
                confidence=float(np.clip(coarse.score / beta.values.sum(), 0.0, 1.0)),
                flags=flags,
            )
        )
        if pick + 1 == count:
            break
        # clear the winner's harmonic evidence before the next pick; the
        # fine frequency tracks the true ladder where the coarse pick can
        # sit a bin off
        probs = dmap.probabilities.copy()
        probs[_cleared_bins(dmap, fine, delta_f, config.detection_threshold)] = 0.0
        dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
    if len(estimates) < count:
        estimates = [replace(e, flags=e.flags + ("harmonic_shortfall",)) for e in estimates]
    return estimates


# ---------------------------------------------------------------------------
# Harmonic-weight fitting
# ---------------------------------------------------------------------------


def _ridge_solve(design: np.ndarray, target: np.ndarray, lam: float) -> np.ndarray:
    """Posterior-mean ridge solution (lam -> 0 recovers least squares)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    gram = design.T @ design + lam * np.eye(design.shape[1])
    rhs = design.T @ target
    if lam == 0:
        sol, *_ = np.linalg.lstsq(design, target, rcond=None)
        return sol
    return np.linalg.solve(gram, rhs)


def fit_beta(
    detection_maps: list[DetectionMap],
    true_fundamentals_hz: list[float],
    *,
    m_harmonics: int = 8,
    f_min_hz: float = 5.0,
    delta_f_hz: float | None = None,
    ridge_lambda: float = 1.0,
) -> HarmonicWeights:
    """Learn harmonic weights from labeled detection maps.

    Each map contributes one positive row (the candidate bin nearest the true
    fundamental, target 1) and one negative row per remaining candidate
    (target 0); features are the softened detection probabilities at the
    candidate's first ``m_harmonics`` multiples.  The weights are the ridge
    posterior mean over all rows.
    """
    if len(detection_maps) != len(true_fundamentals_hz):
        raise ValueError("need one true fundamental per detection map")
    if not detection_maps:
        raise ValueError("need at least one detection map")
    rows: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for dmap, f_true in zip(detection_maps, true_fundamentals_hz):
        delta_f = _grid_spacing(dmap.bin_frequencies) if delta_f_hz is None else delta_f_hz
        candidate_hz, features = _ladder_features(dmap, f_min_hz, delta_f, m_harmonics)
        target = np.zeros(candidate_hz.size)
        target[int(np.argmin(np.abs(candidate_hz - f_true)))] = 1.0
        rows.append(features)
        targets.append(target)
    design = np.concatenate(rows)
    target = np.concatenate(targets)
    if not design.any():
        raise ValueError("detection maps carry no evidence to fit weights from")
    return HarmonicWeights(values=_ridge_solve(design, target, ridge_lambda))
