"""Harmonic detection on power spectra.

Two interchangeable detectors produce the same artifact, a
:class:`DetectionMap` giving a per-bin probability that the bin carries a
harmonic of the rotation frequency:

* :func:`threshold_detector` marks every bin whose density reaches a quantile
  of the spectrum.  Cheap, no training, and surprisingly solid once the
  spectrum has been denoised.
* the trainable network in :mod:`magrev.ppsp`, driven here by
  :func:`train` / :func:`detect_with_network`.

The rest of the module builds training data: label masks that flag every
bin within ``delta_f`` of an integer multiple of the fundamental, spectral
feature extraction, resampling-based augmentation that relabels a trace to a
scaled speed, and a synthetic dataset generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import (
    PowerSpectrum,
    default_segment_len,
    log_normalize,
    resample,
    welch_psd,
)
from .fields import OBJECT, check_fields, integer, real
from .ppsp import (
    AdamState,
    PpspConfig,
    PpspWeights,
    TrainingDivergedError,
    init_weights,
    loss_and_grads,
    ppsp_forward,
    update_running_stats,
)
from .sensor_io import read_json, read_table, write_json, write_table
from .signals import CoilParams, MotorProfile, NoiseProfile, induce_voltage

__all__ = [
    "DetectionMap",
    "LabeledTrace",
    "TRAINING_FIELDS",
    "TrainingSample",
    "augment",
    "augment_sweep",
    "build_label_mask",
    "detect_with_network",
    "load_training_set",
    "make_training_sample",
    "save_training_set",
    "spectrum_features",
    "synthesize_training_set",
    "threshold_detector",
    "train",
]


@dataclass
class DetectionMap:
    """Per-bin harmonic probabilities on a uniform frequency grid."""

    probabilities: np.ndarray
    bin_frequencies: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        self.bin_frequencies = np.asarray(self.bin_frequencies, dtype=np.float64)
        if self.probabilities.ndim != 1 or self.bin_frequencies.ndim != 1:
            raise ValueError("detection map arrays must be one dimensional")
        if self.probabilities.shape != self.bin_frequencies.shape:
            raise ValueError("probabilities and bin_frequencies must align")
        if self.probabilities.size and (
            self.probabilities.min() < 0.0 or self.probabilities.max() > 1.0
        ):
            raise ValueError("probabilities must lie in [0, 1]")

    CSV_HEADER = ("frequency_hz", "probability")

    @property
    def n_bins(self) -> int:
        return self.probabilities.size

    def binarize(self, threshold: float = 0.5) -> np.ndarray:
        """Boolean detections: probability >= threshold."""
        return self.probabilities >= threshold

    def save_csv(self, path: str | Path) -> None:
        write_table(path, self.CSV_HEADER, zip(self.bin_frequencies, self.probabilities))

    @classmethod
    def load_csv(cls, path: str | Path) -> "DetectionMap":
        _, values = read_table(path, cls.CSV_HEADER)
        return cls(probabilities=values[:, 1], bin_frequencies=values[:, 0])


def build_label_mask(
    fundamental_hz: float,
    bin_frequencies: np.ndarray,
    delta_f: float | None = None,
) -> np.ndarray:
    """Ideal detection target: 1.0 for every bin within ``delta_f`` of an
    integer multiple of the fundamental, 0.0 elsewhere.

    ``delta_f`` defaults to the bin spacing, so with 1 Hz bins a 94 Hz
    fundamental marks bins 93-95, 187-189, and so on up to the top of the
    grid.
    """
    freqs = np.asarray(bin_frequencies, dtype=np.float64)
    if fundamental_hz <= 0:
        raise ValueError("fundamental_hz must be positive")
    if freqs.ndim != 1 or freqs.size < 2:
        raise ValueError("bin_frequencies must be a 1-D grid")
    spacing = float(freqs[1] - freqs[0])
    if delta_f is None:
        delta_f = spacing
    if delta_f <= 0:
        raise ValueError("delta_f must be positive")
    f_max = float(freqs[-1])
    mask = np.zeros(freqs.size)
    k = 1
    # tiny slack so bin-centered multiples survive float rounding
    tol = delta_f + 1e-9 * max(1.0, f_max)
    while k * fundamental_hz <= f_max + delta_f:
        mask[np.abs(freqs - k * fundamental_hz) <= tol] = 1.0
        k += 1
    return mask


def threshold_detector(spectrum: PowerSpectrum, quantile: float = 0.99) -> DetectionMap:
    """Detections by density quantile: every bin at or above the quantile of
    the spectrum is marked with probability 1.0.

    A perfectly flat spectrum marks every bin (each one sits at the
    quantile), which the estimator treats as an uninformative map.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    dens = spectrum.densities
    if dens.size == 0:
        raise ValueError("empty spectrum")
    cut = float(np.quantile(dens, quantile))
    probs = (dens >= cut).astype(np.float64)
    return DetectionMap(probabilities=probs, bin_frequencies=spectrum.frequencies.copy())


def spectrum_features(spectrum: PowerSpectrum, input_bins: int) -> PowerSpectrum:
    """The network's input format, shared by training and inference: the
    first ``input_bins`` bins of a Welch spectrum, log-normalized."""
    return log_normalize(
        PowerSpectrum(
            frequencies=spectrum.frequencies[:input_bins],
            densities=spectrum.densities[:input_bins],
            resolution_df=spectrum.resolution_df,
        )
    )


def detect_with_network(spectrum: PowerSpectrum, weights: PpspWeights) -> DetectionMap:
    """Run the trained network on a spectrum in its input format
    (:func:`spectrum_features`), which must carry exactly ``input_bins``
    bins."""
    n = weights.config.input_bins
    if spectrum.n_bins != n:
        raise ValueError(f"network expects {n} bins, spectrum has {spectrum.n_bins}")
    probs = ppsp_forward(spectrum.densities, weights)
    return DetectionMap(probabilities=probs, bin_frequencies=spectrum.frequencies.copy())


# ---------------------------------------------------------------------------
# Training data
# ---------------------------------------------------------------------------


@dataclass
class LabeledTrace:
    """A time-domain signal with its known rotation fundamental."""

    signal: np.ndarray
    sample_rate_hz: float
    fundamental_hz: float

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float64)
        if self.signal.ndim != 1:
            raise ValueError("signal must be one dimensional")
        if self.fundamental_hz <= 0:
            raise ValueError("fundamental_hz must be positive")


@dataclass
class TrainingSample:
    """One (features, target) pair for the detector network."""

    features: np.ndarray
    mask: np.ndarray
    bin_frequencies: np.ndarray
    fundamental_hz: float

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        self.bin_frequencies = np.asarray(self.bin_frequencies, dtype=np.float64)
        if not (
            self.features.shape == self.mask.shape == self.bin_frequencies.shape
        ):
            raise ValueError("features, mask, and bin_frequencies must align")


def make_training_sample(
    trace: LabeledTrace,
    *,
    input_bins: int = 1024,
    segment_len: int | None = None,
    delta_f: float | None = None,
) -> TrainingSample:
    """Welch spectrum, the network's input format (:func:`spectrum_features`)
    and the matching label mask."""
    if segment_len is None:
        segment_len = default_segment_len(trace.sample_rate_hz, trace.signal.size)
    spec = welch_psd(trace.signal, trace.sample_rate_hz, segment_len=segment_len)
    if spec.n_bins < input_bins:
        raise ValueError(
            f"spectrum has {spec.n_bins} bins, need {input_bins}; "
            "use a longer segment or fewer input bins"
        )
    features = spectrum_features(spec, input_bins)
    mask = build_label_mask(
        trace.fundamental_hz, features.frequencies, delta_f=delta_f
    )
    if mask.sum() == 0:
        raise ValueError(
            f"fundamental {trace.fundamental_hz} Hz leaves no harmonic in the "
            f"{features.frequencies[-1]:.1f} Hz band"
        )
    return TrainingSample(
        features=features.densities,
        mask=mask,
        bin_frequencies=features.frequencies,
        fundamental_hz=trace.fundamental_hz,
    )


def augment(
    trace: LabeledTrace,
    alpha: float,
    *,
    input_bins: int = 1024,
    segment_len: int | None = None,
    delta_f: float | None = None,
) -> TrainingSample:
    """Speed-scaled copy of a labeled trace.

    Resampling the signal by 1/alpha moves every harmonic from k*f0 to
    k*(alpha*f0), so the sample is relabeled to a fundamental of alpha*f0.
    Raises ValueError when the scaled fundamental falls outside the analysis
    band (or the resampled signal becomes too short for the Welch segment).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    scaled = resample(trace.signal, 1.0 / alpha)
    new_trace = LabeledTrace(
        signal=scaled,
        sample_rate_hz=trace.sample_rate_hz,
        fundamental_hz=alpha * trace.fundamental_hz,
    )
    return make_training_sample(
        new_trace,
        input_bins=input_bins,
        segment_len=segment_len,
        delta_f=delta_f,
    )


def augment_sweep(
    trace: LabeledTrace,
    alphas,
    *,
    input_bins: int = 1024,
    segment_len: int | None = None,
    delta_f: float | None = None,
) -> tuple[list[TrainingSample], int]:
    """Augment over a sweep of factors, skipping the ones that leave the
    band.  Returns (samples, skipped_count)."""
    samples: list[TrainingSample] = []
    skipped = 0
    for alpha in alphas:
        try:
            samples.append(
                augment(
                    trace,
                    float(alpha),
                    input_bins=input_bins,
                    segment_len=segment_len,
                    delta_f=delta_f,
                )
            )
        except ValueError:
            skipped += 1
    return samples, skipped


def synthesize_training_set(
    count: int,
    seed: int,
    *,
    sample_rate_hz: float = 8192.0,
    duration_s: float = 2.0,
    rpm_range: tuple[float, float] = (1200.0, 9600.0),
    input_bins: int = 1024,
    augment_factors: tuple[float, ...] = (),
) -> list[TrainingSample]:
    """Random single-channel motor signatures with known speed labels.

    Each base trace draws a speed, three to six harmonics with decaying
    amplitudes and random phases, and moderate broadband plus mains noise.
    ``augment_factors`` additionally emits speed-scaled variants of every
    base trace (out-of-band factors are skipped silently).
    """
    check_fields({"count": count}, TRAINING_FIELDS)
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
    coil = CoilParams()
    samples: list[TrainingSample] = []
    for _ in range(count):
        rpm = rng.uniform(*rpm_range)
        n_harm = int(rng.integers(3, 7))
        harmonics = []
        for k in range(1, n_harm + 1):
            amp = rng.uniform(0.5, 1.0) / k
            harmonics.append((k, amp, rng.uniform(0.0, 2.0 * np.pi)))
        profile = MotorProfile.from_rpm(rpm, harmonics=harmonics)
        clean = induce_voltage(profile, coil, duration_s, sample_rate_hz)
        peak = np.abs(clean).max()
        noise_profile = NoiseProfile(
            mains_components=((60.0, rng.uniform(0.0, 0.4) * peak),),
            broadband_sigma=rng.uniform(0.05, 0.3) * peak,
            shared_fraction=0.0,
        )
        noisy = clean + _single_channel_noise(noise_profile, n, sample_rate_hz, rng)
        trace = LabeledTrace(
            signal=noisy,
            sample_rate_hz=sample_rate_hz,
            fundamental_hz=profile.fundamental_hz,
        )
        samples.append(make_training_sample(trace, input_bins=input_bins))
        if augment_factors:
            extra, _ = augment_sweep(trace, augment_factors, input_bins=input_bins)
            samples.extend(extra)
    return samples


def _single_channel_noise(
    profile: NoiseProfile, n: int, sample_rate_hz: float, rng: np.random.Generator
) -> np.ndarray:
    if profile.broadband_sigma > 0:
        out = rng.normal(0.0, profile.broadband_sigma, size=n)
    else:
        out = np.zeros(n)
    t = np.arange(n) / sample_rate_hz
    for freq, amp in profile.mains_components:
        out = out + amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return out


# ---------------------------------------------------------------------------
# Dataset round trip
# ---------------------------------------------------------------------------


_SAMPLE_HEADER = ("frequency_hz", "feature", "mask")


def save_training_set(samples: list[TrainingSample], directory: str | Path) -> None:
    """One CSV (frequency, feature, mask) and one JSON of metadata per
    sample, numbered in order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        stem = directory / f"sample_{i:04d}"
        rows = zip(sample.bin_frequencies, sample.features, sample.mask)
        write_table(stem.with_suffix(".csv"), _SAMPLE_HEADER, rows)
        meta = {"fundamental_hz": sample.fundamental_hz}
        write_json(stem.with_suffix(".json"), meta, indent=None)


def load_training_set(directory: str | Path) -> list[TrainingSample]:
    directory = Path(directory)
    samples: list[TrainingSample] = []
    for csv_path in sorted(directory.glob("sample_*.csv")):
        _, values = read_table(csv_path, _SAMPLE_HEADER)
        json_path = csv_path.with_suffix(".json")
        meta = read_json(json_path)
        try:
            fundamental_hz = float(meta["fundamental_hz"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{json_path}: bad or missing 'fundamental_hz' ({exc!r})"
            ) from exc
        samples.append(
            TrainingSample(
                features=values[:, 1],
                mask=values[:, 2],
                bin_frequencies=values[:, 0],
                fundamental_hz=fundamental_hz,
            )
        )
    if not samples:
        raise ValueError(f"{directory}: no sample_*.csv files found")
    return samples


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

# the training settings: train's schedule, the sample count of
# synthesize_training_set, and network, a JSON object of PpspConfig keys
TRAINING_FIELDS = {
    "network": OBJECT,
    "epochs": integer(">= 0"),
    "batch_size": integer(">= 1"),
    "count": integer(">= 1"),
    "learning_rate": real("> 0"),
    "dice_eps": real(">= 0"),
}


def train(
    samples: list[TrainingSample],
    config: PpspConfig,
    epochs: int,
    *,
    batch_size: int = 8,
    learning_rate: float = 1e-3,
    seed: int | None = None,
    weights: PpspWeights | None = None,
    dice_eps: float = 1.0,
) -> tuple[PpspWeights, list[float]]:
    """Adam on the mean dice loss.

    Fully deterministic given (samples, config, seed): the same call yields
    bit-identical weights and loss history.  ``seed`` defaults to
    ``config.seed``; pass ``weights`` to fine-tune an existing model.
    Raises :class:`TrainingDivergedError` when a batch loss stops being
    finite.  ``epochs=0`` returns the initial weights and an empty history.
    A setting outside its kind in ``TRAINING_FIELDS`` is a ValueError naming it.
    """
    check_fields(dict(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate,
                      dice_eps=dice_eps), TRAINING_FIELDS)
    if not samples:
        raise ValueError("need at least one training sample")
    n_bins = samples[0].features.size
    if n_bins != config.input_bins:
        raise ValueError(
            f"samples carry {n_bins} bins but the network expects {config.input_bins}"
        )
    if weights is None:
        weights = init_weights(config)
    else:
        weights = weights.copy()
    x = np.stack([s.features for s in samples])
    y = np.stack([s.mask for s in samples])
    n = x.shape[0]
    rng = np.random.default_rng(config.seed if seed is None else seed)
    adam = AdamState(weights.params)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grads, batch_stats = loss_and_grads(
                x[batch], y[batch], weights, dice_eps=dice_eps
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            update_running_stats(weights, batch_stats)
            adam.step(weights.params, grads, lr=learning_rate)
            total += loss * batch.size
        history.append(total / n)
    return weights, history
