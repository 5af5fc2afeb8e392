import numpy as np
import pytest

from magrev.detector import (
    DetectionMap,
    LabeledTrace,
    TrainingSample,
    augment,
    augment_sweep,
    build_label_mask,
    detect_with_network,
    load_training_set,
    make_training_sample,
    save_training_set,
    spectrum_features,
    synthesize_training_set,
    threshold_detector,
    train,
)
from magrev.dsp import NoiseReference, PowerSpectrum
from magrev.estimator import enhanced_spectrum
from magrev.ppsp import PpspConfig, init_weights
from magrev.signals import SensorTrace

from conftest import tone


TINY_NET = PpspConfig(
    input_bins=32,
    encoder_levels=2,
    filters_per_conv=4,
    multiscale_kernel_widths=(3, 7),
    pyramid_pool_kernels=(1, 2, 4),
    seed=1,
)


def labeled_94hz_trace():
    """Three harmonics of 94 Hz on a 1 Hz analysis grid."""
    fs = 2048.0
    n = 8192
    sig = (
        tone(94.0, fs, n, amp=1.0)
        + tone(188.0, fs, n, amp=0.6, phase=1.0)
        + tone(282.0, fs, n, amp=0.3, phase=2.0)
    )
    return LabeledTrace(signal=sig, sample_rate_hz=fs, fundamental_hz=94.0)


class TestLabelMask:
    def test_94hz_marks_one_bin_each_side(self):
        freqs = np.arange(1024.0)  # 1 Hz spacing
        mask = build_label_mask(94.0, freqs)
        expected = set()
        for k in range(1, 11):  # 94 * 10 = 940 is the last rung inside
            expected |= {94 * k - 1, 94 * k, 94 * k + 1}
        assert set(np.flatnonzero(mask)) == expected
        assert np.all(np.isin(mask, [0.0, 1.0]))

    def test_narrow_delta_marks_exact_bins_only(self):
        freqs = np.arange(200.0)
        mask = build_label_mask(40.0, freqs, delta_f=0.25)
        assert set(np.flatnonzero(mask)) == {40, 80, 120, 160}

    def test_off_grid_fundamental(self):
        freqs = np.arange(100.0)
        mask = build_label_mask(10.4, freqs, delta_f=0.5)
        # rungs at 10.4, 20.8, ... mark the bins within half a hertz
        assert mask[10] == 1.0 and mask[21] == 1.0 and mask[31] == 1.0
        assert mask[11] == 0.0

    def test_validation(self):
        freqs = np.arange(16.0)
        with pytest.raises(ValueError):
            build_label_mask(0.0, freqs)
        with pytest.raises(ValueError):
            build_label_mask(5.0, freqs, delta_f=-1.0)
        with pytest.raises(ValueError):
            build_label_mask(5.0, np.array([1.0]))


class TestDetectionMap:
    def test_binarize_includes_threshold(self):
        m = DetectionMap(
            probabilities=np.array([0.2, 0.5, 0.8]),
            bin_frequencies=np.array([0.0, 1.0, 2.0]),
        )
        np.testing.assert_array_equal(m.binarize(0.5), [False, True, True])

    def test_csv_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = DetectionMap(
            probabilities=rng.uniform(size=16),
            bin_frequencies=np.arange(16.0) * 0.73,
        )
        path = tmp_path / "map.csv"
        m.save_csv(path)
        back = DetectionMap.load_csv(path)
        np.testing.assert_array_equal(back.probabilities, m.probabilities)
        np.testing.assert_array_equal(back.bin_frequencies, m.bin_frequencies)

    def test_load_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            DetectionMap.load_csv(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionMap(
                probabilities=np.array([1.5]), bin_frequencies=np.array([0.0])
            )
        with pytest.raises(ValueError):
            DetectionMap(
                probabilities=np.array([0.5, 0.5]),
                bin_frequencies=np.array([0.0]),
            )


class TestThresholdDetector:
    def test_marks_quantile_bins(self):
        dens = np.ones(100)
        dens[[10, 40, 70]] = 50.0
        spec = PowerSpectrum(
            frequencies=np.arange(100.0), densities=dens, resolution_df=1.0
        )
        m = threshold_detector(spec, quantile=0.97)
        assert set(np.flatnonzero(m.binarize())) == {10, 40, 70}

    def test_flat_spectrum_marks_everything(self):
        # documented degenerate case: every bin sits at the quantile
        spec = PowerSpectrum(
            frequencies=np.arange(8.0), densities=np.ones(8), resolution_df=1.0
        )
        m = threshold_detector(spec)
        assert m.binarize().all()

    def test_quantile_validation(self):
        spec = PowerSpectrum(
            frequencies=np.arange(4.0), densities=np.ones(4), resolution_df=1.0
        )
        with pytest.raises(ValueError):
            threshold_detector(spec, quantile=0.0)
        with pytest.raises(ValueError):
            threshold_detector(spec, quantile=1.0)


class TestNetworkDetector:
    def test_bin_count_mismatch_rejected(self):
        weights = init_weights(TINY_NET)
        spec = PowerSpectrum(
            frequencies=np.arange(31.0), densities=np.zeros(31), resolution_df=1.0
        )
        with pytest.raises(ValueError, match="32"):
            detect_with_network(spec, weights)

    def test_produces_probability_map_on_network_grid(self):
        weights = init_weights(TINY_NET)
        rng = np.random.default_rng(3)
        spec = PowerSpectrum(
            frequencies=np.arange(32.0) * 0.5,
            densities=rng.uniform(size=32),
            resolution_df=0.5,
        )
        m = detect_with_network(spec, weights)
        assert m.n_bins == 32
        assert np.all((m.probabilities > 0.0) & (m.probabilities < 1.0))
        np.testing.assert_array_equal(m.bin_frequencies, spec.frequencies)


class TestTrainingSamples:
    def test_features_and_mask_line_up(self):
        sample = make_training_sample(
            labeled_94hz_trace(), input_bins=1024, segment_len=2048
        )
        assert sample.features.shape == (1024,)
        assert sample.bin_frequencies[1] - sample.bin_frequencies[0] == 1.0
        assert 0.0 <= sample.features.min() and sample.features.max() <= 1.0
        # the mask flags the three injected harmonics, one bin to each side
        marked = set(np.flatnonzero(sample.mask))
        for rung in (94, 188, 282):
            assert {rung - 1, rung, rung + 1} <= marked
        # the strongest feature bins are the harmonics themselves
        assert sample.features[94] == pytest.approx(1.0)

    def test_band_truncation_keeps_low_bins(self):
        sample = make_training_sample(
            labeled_94hz_trace(), input_bins=256, segment_len=2048
        )
        assert sample.bin_frequencies[-1] == 255.0

    def test_fundamental_outside_band_rejected(self):
        trace = labeled_94hz_trace()
        with pytest.raises(ValueError):
            make_training_sample(
                LabeledTrace(
                    signal=trace.signal,
                    sample_rate_hz=trace.sample_rate_hz,
                    fundamental_hz=800.0,
                ),
                input_bins=64,  # band tops out at 63 Hz
                segment_len=2048,
            )

    def test_too_few_bins_rejected(self):
        trace = labeled_94hz_trace()
        with pytest.raises(ValueError):
            make_training_sample(trace, input_bins=4096, segment_len=2048)

    def test_features_equal_the_inference_front_end(self):
        # training and inference share one input format: the same signal as
        # a one-channel capture with a unity reference gives the same
        # features, bit for bit
        fs = 2048.0
        signal = labeled_94hz_trace().signal + np.random.default_rng(3).normal(0.0, 0.5, 8192)
        sample = make_training_sample(
            LabeledTrace(signal=signal, sample_rate_hz=fs, fundamental_hz=94.0), input_bins=1024
        )
        _, _, spectrum = enhanced_spectrum(
            SensorTrace(channels=signal[None, :], sample_rate_hz=fs),
            noise_reference=NoiseReference.unity(signal.size),
        )
        features = spectrum_features(spectrum, 1024)
        assert features.densities.tobytes() == sample.features.tobytes()
        assert features.frequencies.tobytes() == sample.bin_frequencies.tobytes()


class TestAugment:
    def test_relabels_to_scaled_speed(self):
        sample = augment(
            labeled_94hz_trace(), 1.25, input_bins=1024, segment_len=2048
        )
        assert sample.fundamental_hz == pytest.approx(117.5)
        marked = np.flatnonzero(sample.mask)
        assert 118 in marked or 117 in marked
        # energy actually moved: the scaled fundamental beats the old bin
        assert sample.features[118] > sample.features[94]

    def test_excessive_factor_raises(self):
        # alpha = 8 leaves the resampled signal shorter than the segment
        with pytest.raises(ValueError):
            augment(labeled_94hz_trace(), 8.0, input_bins=1024, segment_len=2048)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            augment(labeled_94hz_trace(), 0.0)

    def test_sweep_counts_skips(self):
        samples, skipped = augment_sweep(
            labeled_94hz_trace(),
            (0.9, 1.1, 8.0),
            input_bins=1024,
            segment_len=2048,
        )
        assert len(samples) == 2
        assert skipped == 1
        assert samples[0].fundamental_hz == pytest.approx(0.9 * 94.0)


class TestSyntheticDataset:
    def test_deterministic(self):
        kwargs = dict(
            sample_rate_hz=2048.0,
            duration_s=2.0,
            rpm_range=(2400.0, 6000.0),
            input_bins=1024,
        )
        a = synthesize_training_set(3, seed=11, **kwargs)
        b = synthesize_training_set(3, seed=11, **kwargs)
        assert len(a) == len(b) == 3
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.features, sb.features)
            np.testing.assert_array_equal(sa.mask, sb.mask)
            assert sa.fundamental_hz == sb.fundamental_hz

    def test_labels_inside_requested_range(self):
        samples = synthesize_training_set(
            4,
            seed=5,
            sample_rate_hz=2048.0,
            duration_s=2.0,
            rpm_range=(3000.0, 4800.0),
            input_bins=1024,
        )
        for s in samples:
            assert 50.0 <= s.fundamental_hz <= 80.0
            assert s.mask.sum() > 0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            synthesize_training_set(0, seed=1)

    def test_save_load_roundtrip(self, tmp_path):
        samples = synthesize_training_set(
            2,
            seed=7,
            sample_rate_hz=2048.0,
            duration_s=2.0,
            input_bins=1024,
        )
        save_training_set(samples, tmp_path)
        back = load_training_set(tmp_path)
        assert len(back) == 2
        for sa, sb in zip(samples, back):
            np.testing.assert_array_equal(sa.features, sb.features)
            np.testing.assert_array_equal(sa.mask, sb.mask)
            np.testing.assert_array_equal(sa.bin_frequencies, sb.bin_frequencies)
            assert sa.fundamental_hz == sb.fundamental_hz

    def test_load_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_training_set(tmp_path)


def synthetic_32bin_samples(count, seed):
    """Hand-built samples on the tiny network's grid."""
    rng = np.random.default_rng(seed)
    freqs = np.arange(32.0)
    samples = []
    for _ in range(count):
        f0 = int(rng.integers(5, 10))
        mask = build_label_mask(float(f0), freqs, delta_f=0.25)
        features = 0.05 * rng.uniform(size=32)
        features[np.flatnonzero(mask)] = 1.0
        samples.append(
            TrainingSample(
                features=features,
                mask=mask,
                bin_frequencies=freqs,
                fundamental_hz=float(f0),
            )
        )
    return samples


class TestTrain:
    def test_zero_epochs_returns_initial_weights(self):
        samples = synthetic_32bin_samples(2, seed=0)
        weights, history = train(samples, TINY_NET, epochs=0)
        assert history == []
        ref = init_weights(TINY_NET)
        for key in ref.params:
            np.testing.assert_array_equal(weights.params[key], ref.params[key])

    def test_deterministic_histories(self):
        samples = synthetic_32bin_samples(4, seed=1)
        w1, h1 = train(samples, TINY_NET, epochs=5, batch_size=2, seed=9)
        w2, h2 = train(samples, TINY_NET, epochs=5, batch_size=2, seed=9)
        assert h1 == h2
        for key in w1.params:
            np.testing.assert_array_equal(w1.params[key], w2.params[key])

    def test_loss_improves_on_small_problem(self):
        samples = synthetic_32bin_samples(4, seed=2)
        _, history = train(
            samples, TINY_NET, epochs=40, batch_size=4, learning_rate=1e-2
        )
        assert history[-1] < history[0]

    def test_does_not_mutate_warm_start_weights(self):
        samples = synthetic_32bin_samples(2, seed=3)
        warm = init_weights(TINY_NET)
        snapshot = {k: v.copy() for k, v in warm.params.items()}
        train(samples, TINY_NET, epochs=2, weights=warm)
        for key in snapshot:
            np.testing.assert_array_equal(warm.params[key], snapshot[key])

    def test_bin_mismatch_rejected(self):
        samples = synthetic_32bin_samples(1, seed=4)
        cfg = PpspConfig(
            input_bins=64,
            encoder_levels=2,
            filters_per_conv=4,
            multiscale_kernel_widths=(3, 7),
            pyramid_pool_kernels=(1, 2, 4),
            seed=0,
        )
        with pytest.raises(ValueError):
            train(samples, cfg, epochs=1)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            train([], TINY_NET, epochs=1)

    @pytest.mark.parametrize(
        "setting",
        [{"learning_rate": float("nan")}, {"learning_rate": -1.0}, {"learning_rate": 0},
         {"batch_size": True}, {"epochs": 2.5}, {"epochs": -1}, {"dice_eps": float("inf")}],
        ids=repr,
    )
    def test_a_setting_outside_its_kind_is_refused_by_name(self, setting):
        samples = synthetic_32bin_samples(2, seed=0)
        key = next(iter(setting))
        with pytest.raises(ValueError, match=f"^{key} must be "):
            train(samples, TINY_NET, **{"epochs": 1, **setting})
