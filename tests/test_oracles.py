"""The array-based coarse stage, the zoomed fine stage and the multi-motor
path against plain-loop reference implementations, kept here as oracles.

The oracles are the straightforward per-candidate, per-harmonic loops and the
fully zero-padded Welch transform.  The library must match them bit for bit:
scores, picks, flags and the returned frequencies.
"""

import math

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d

from magrev.detector import DetectionMap, threshold_detector
from magrev.dsp import (
    NoiseReference,
    PowerSpectrum,
    default_segment_len,
    delay_and_sum,
    log_normalize,
    welch_psd,
)
from magrev.estimator import (
    HarmonicWeights,
    PipelineConfig,
    coarse_estimate,
    compute_likelihood,
    default_harmonic_weights,
    estimate_rpm,
    estimate_rpm_multi,
    fine_estimate,
    fit_beta,
)
from magrev.signals import (
    ArrayGeometry,
    CoilParams,
    MotorProfile,
    NoiseProfile,
    simulate_mixture,
)

# ---------------------------------------------------------------------------
# Loop oracles
# ---------------------------------------------------------------------------


def loop_soft(probs, freqs, delta_f):
    r = max(0, int(round(delta_f / (freqs[1] - freqs[0]))))
    if r == 0:
        return probs
    return maximum_filter1d(probs, size=2 * r + 1, mode="constant", cval=0.0)


def loop_multiple_index(freqs, target_hz):
    i = int(round((target_hz - float(freqs[0])) / float(freqs[1] - freqs[0])))
    return i if 0 <= i < freqs.size else None


def loop_features(probs, freqs, f_min, delta_f, m):
    soft = loop_soft(probs, freqs, delta_f)
    idx = np.flatnonzero((freqs >= f_min) & (freqs <= float(freqs[-1]) / 2.0))
    features = np.zeros((idx.size, m))
    for k in range(1, m + 1):
        for j, i in enumerate(idx):
            mi = loop_multiple_index(freqs, k * freqs[i])
            if mi is not None:
                features[j, k - 1] = soft[mi]
    return freqs[idx], features


def loop_scores(probs, freqs, beta, f_min, delta_f):
    soft = loop_soft(probs, freqs, delta_f)
    idx = np.flatnonzero((freqs >= f_min) & (freqs <= float(freqs[-1]) / 2.0))
    scores = np.zeros(idx.size)
    for k in range(1, beta.size + 1):
        for j, i in enumerate(idx):
            mi = loop_multiple_index(freqs, k * freqs[i])
            if mi is not None:
                scores[j] += beta[k - 1] * soft[mi]
    return freqs[idx], scores


def loop_supported(probs, freqs, candidate_hz, delta_f, n_support, threshold):
    r = max(0, int(round(delta_f / (freqs[1] - freqs[0]))))
    binary = probs >= threshold
    top = min(n_support, int(math.floor(float(freqs[-1]) / candidate_hz)))
    for m in range(2, top + 1):
        mi = loop_multiple_index(freqs, m * candidate_hz)
        if mi is not None and binary[max(0, mi - r) : min(freqs.size, mi + r + 1)].any():
            return True
    return False


def loop_coarse(probs, freqs, beta, f_min, delta_f, n_support, threshold):
    """(frequency, score, flags) of the coarse pick."""
    cands, scores = loop_scores(probs, freqs, beta, f_min, delta_f)
    keep = np.array(
        [loop_supported(probs, freqs, float(g), delta_f, n_support, threshold) for g in cands]
    )
    if keep.any():
        best = int(np.argmax(np.where(keep, scores, -np.inf)))
        return float(cands[best]), float(scores[best]), ()
    best = int(np.argmax(scores))
    return float(cands[best]), float(scores[best]), ("fallback", "low_confidence")


def padded_fine(signal, fs, coarse_hz, segment_len, gamma, delta_f):
    spec = welch_psd(signal, fs, segment_len, nfft=segment_len * gamma)
    sel = np.flatnonzero(
        (spec.frequencies >= coarse_hz - delta_f) & (spec.frequencies <= coarse_hz + delta_f)
    )
    return float(spec.frequencies[sel[int(np.argmax(spec.densities[sel]))]])


def loop_multi(trace, count, config):
    """The multi-motor path written with the oracles above."""
    fs = trace.sample_rate_hz
    beta = default_harmonic_weights(config.m_harmonics).values
    enhanced = delay_and_sum(
        trace, NoiseReference.unity(trace.n_samples), int(round(config.max_lag_s * fs))
    )
    segment = config.welch_segment or default_segment_len(fs, enhanced.size)
    spec = welch_psd(enhanced, fs, segment)
    band = log_normalize(
        PowerSpectrum(
            frequencies=spec.frequencies[: config.input_bins],
            densities=spec.densities[: config.input_bins],
            resolution_df=spec.resolution_df,
        )
    )
    dmap = threshold_detector(band, quantile=config.threshold_quantile)
    freqs = dmap.bin_frequencies
    spacing = float(freqs[1] - freqs[0])
    delta_f = spacing if config.delta_f_hz is None else config.delta_f_hz
    r = max(0, int(round(delta_f / spacing)))
    probs = dmap.probabilities.copy()
    picks = []
    for pick in range(count):
        cands, scores = loop_scores(probs, freqs, beta, config.f_min_hz, delta_f)
        keep = np.array(
            [
                loop_supported(
                    probs, freqs, float(g), delta_f, config.n_support,
                    config.detection_threshold,
                )
                for g in cands
            ]
        ) & (scores > 0.0)
        if not keep.any():
            if pick > 0:
                break
            best, flags = int(np.argmax(scores)), ("fallback", "low_confidence")
        else:
            best, flags = int(np.argmax(np.where(keep, scores, -np.inf))), ()
        fine = padded_fine(enhanced, fs, float(cands[best]), segment, config.gamma, delta_f)
        picks.append((60.0 * fine, float(cands[best]), flags))
        binary = probs >= config.detection_threshold
        k = 1
        while k * fine <= float(freqs[-1]) + delta_f:
            mi = loop_multiple_index(freqs, k * fine)
            if mi is not None:
                lo, hi = max(0, mi - r), min(freqs.size, mi + r + 1)
                while lo > 0 and binary[lo - 1]:
                    lo -= 1
                while hi < freqs.size and binary[hi]:
                    hi += 1
                probs[lo:hi] = 0.0
            k += 1
    if len(picks) < count:
        picks = [(rpm, coarse, flags + ("harmonic_shortfall",)) for rpm, coarse, flags in picks]
    return picks


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def random_map(rng):
    """A detection map with many exact score ties: probabilities drawn from
    a few levels, or all below the threshold so the fallback runs."""
    n = int(rng.integers(20, 200))
    spacing = float(rng.choice([1.0, 0.37, 2.0 / 3.0]))
    # an offset of half a 1 Hz bin puts multiples exactly halfway between bins
    freqs = float(rng.choice([0.0, 0.5, 1.3])) + np.arange(n) * spacing
    kind = int(rng.integers(0, 3))
    if kind == 0:
        probs = rng.choice([0.0, 0.25, 0.5, 1.0], size=n, p=[0.8, 0.05, 0.05, 0.1])
    elif kind == 1:
        probs = rng.uniform(0.0, 0.49, size=n)
    else:
        probs = rng.uniform(0.0, 1.0, size=n) ** 4
    return probs, freqs, spacing


def mixture(rng, fundamentals_hz, duration_s, top_hz=None):
    """Two motors with 2-4 harmonics each, or every harmonic up to top_hz."""
    motors = [
        MotorProfile(
            period_s=1.0 / f0,
            harmonics=[
                (k, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 2 * np.pi)))
                for k in range(
                    1, (int(top_hz // f0) if top_hz else int(rng.integers(2, 5))) + 1
                )
            ],
            position_cm=(x, 0.0),
        )
        for f0, x in zip(fundamentals_hz, (-8.0, 8.0))
    ]
    geometry = ArrayGeometry(
        sensor_positions_cm=((-12.0, 6.0), (-4.0, 6.0), (4.0, 6.0), (12.0, 6.0))
    )
    noise = NoiseProfile(
        mains_components=((60.0, 0.0005),), broadband_sigma=0.0005, shared_fraction=0.3
    )
    seed = int(rng.integers(0, 2**31))
    return simulate_mixture(motors, geometry, noise, CoilParams(), duration_s, 8192.0, seed)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestCoarseAgainstLoops:
    def test_scores_pick_and_flags_bit_equal(self):
        rng = np.random.default_rng(2024)
        fallbacks = wide = 0
        for _ in range(150):
            probs, freqs, spacing = random_map(rng)
            delta_f = float(rng.choice([0.3, 1.0, 2.6, 5.0])) * spacing
            m = int(rng.integers(1, 10))
            beta = 1.0 / np.arange(1, m + 1) if rng.random() < 0.5 else rng.normal(size=m)
            f_min = float(rng.choice([freqs[1], freqs[freqs.size // 8]]))
            n_support = int(rng.integers(2, 7))
            threshold = float(rng.choice([0.3, 0.5, 1.0]))
            dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
            like = compute_likelihood(
                dmap, HarmonicWeights(beta), f_min_hz=f_min, delta_f_hz=delta_f
            )
            cands, scores = loop_scores(probs, freqs, beta, f_min, delta_f)
            np.testing.assert_array_equal(like.candidate_hz, cands)
            np.testing.assert_array_equal(like.scores, scores)
            result = coarse_estimate(
                dmap, HarmonicWeights(beta), f_min_hz=f_min, delta_f_hz=delta_f,
                n_support=n_support, detection_threshold=threshold,
            )
            expected = loop_coarse(
                probs, freqs, beta, f_min, delta_f, n_support, threshold
            )
            assert (result.frequency_hz, result.score, result.flags) == expected
            fallbacks += bool(result.flags)
            wide += delta_f > spacing
        assert fallbacks > 10 and wide > 50

    def test_default_tolerance_and_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            probs, freqs, spacing = random_map(rng)
            dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
            result = coarse_estimate(dmap, f_min_hz=freqs[1])
            beta = default_harmonic_weights().values
            expected = loop_coarse(probs, freqs, beta, freqs[1], spacing, 4, 0.5)
            assert (result.frequency_hz, result.score, result.flags) == expected

    def test_fit_beta_features(self):
        rng = np.random.default_rng(11)
        maps, truths, rows, targets = [], [], [], []
        for _ in range(12):
            probs, freqs, spacing = random_map(rng)
            maps.append(DetectionMap(probabilities=probs, bin_frequencies=freqs))
            truths.append(float(rng.uniform(freqs[2], freqs[-1] / 2)))
            cands, features = loop_features(probs, freqs, 2.0, spacing, 6)
            rows.append(features)
            target = np.zeros(cands.size)
            target[int(np.argmin(np.abs(cands - truths[-1])))] = 1.0
            targets.append(target)
        got = fit_beta(maps, truths, m_harmonics=6, f_min_hz=2.0)
        design, target = np.concatenate(rows), np.concatenate(targets)
        gram = design.T @ design + np.eye(6)
        np.testing.assert_array_equal(got.values, np.linalg.solve(gram, design.T @ target))


class TestFineAgainstPaddedWelch:
    @pytest.mark.parametrize("duration_s", [1.0, 8.0])
    @pytest.mark.parametrize("gamma", [1, 50])
    def test_pick_equals_padded_argmax(self, duration_s, gamma):
        rng = np.random.default_rng(int(duration_s) * 100 + gamma)
        fs, segment = 8192.0, 8192
        n = int(duration_s * fs)
        t = np.arange(n) / fs
        for _ in range(4 if duration_s == 1.0 else 2):
            f0 = float(rng.uniform(20.0, 140.0))
            signal = sum(
                rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 6))
                for k in (1, 2, 3)
            ) + 0.05 * rng.normal(size=n)
            coarse = float(round(f0 + rng.choice([-1.0, 0.0, 1.0])))
            delta_f = float(rng.choice([1.0, 2.5]))
            got = fine_estimate(
                signal, fs, coarse, segment_len=segment, gamma=gamma, delta_f_hz=delta_f
            )
            assert got == padded_fine(signal, fs, coarse, segment, gamma, delta_f)


class TestPipelineAgainstLoops:
    def test_single_and_multi_motor_estimates(self):
        rng = np.random.default_rng(31)
        config = PipelineConfig()
        for _ in range(4):
            f1 = float(rng.uniform(20.0, 140.0))
            f2 = 20.0 + (f1 - 20.0 + float(rng.uniform(10.0, 110.0))) % 120.0
            trace = mixture(rng, (f1, f2), 1.0)
            got = [
                (e.rpm, e.coarse_hz, e.flags) for e in estimate_rpm_multi(trace, 3, config)
            ]
            assert got == loop_multi(trace, 3, config)
            single = estimate_rpm(trace, config)
            rpm, coarse, flags = loop_multi(trace, 1, config)[0]
            assert (single.rpm, single.coarse_hz) == (rpm, coarse)

    def test_multi_motor_with_harmonics_up_to_the_band_edge(self):
        # every multiple up to the band edge carries evidence, so clearing
        # the winner's top multiples changes what the next pick sees
        rng = np.random.default_rng(43)
        config = PipelineConfig()
        for _ in range(3):
            f1, f2 = (float(f) for f in rng.uniform(60.0, 140.0, size=2))
            trace = mixture(rng, (f1, f2), 1.0, top_hz=config.input_bins - 1.0)
            got = [
                (e.rpm, e.coarse_hz, e.flags) for e in estimate_rpm_multi(trace, 3, config)
            ]
            assert got == loop_multi(trace, 3, config)
