import json
import re
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from magrev.detector import DetectionMap
from magrev.estimator import (
    FuzzyLikelihood,
    HarmonicWeights,
    PipelineConfig,
    PipelineError,
    SpeedEstimate,
    coarse_estimate,
    compute_likelihood,
    default_harmonic_weights,
    detect_harmonics,
    enhanced_spectrum,
    estimate_rpm,
    estimate_rpm_multi,
    fine_estimate,
    fit_beta,
)
from magrev.sensor_io import write_table
from magrev.signals import MotorProfile, NoiseProfile, SensorTrace, simulate_mixture

from conftest import tone


def unit_grid_map(marks: dict[int, float], n_bins: int = 41) -> DetectionMap:
    """Detection map on a 1 Hz grid with the given {bin: probability}."""
    probs = np.zeros(n_bins)
    for b, p in marks.items():
        probs[b] = p
    return DetectionMap(probabilities=probs, bin_frequencies=np.arange(float(n_bins)))


class TestHarmonicWeights:
    def test_default_is_inverse_harmonic_number(self):
        beta = default_harmonic_weights(4)
        np.testing.assert_allclose(beta.values, [1.0, 0.5, 1.0 / 3.0, 0.25])
        assert beta.m == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonicWeights(values=np.array([]))
        with pytest.raises(ValueError):
            HarmonicWeights(values=np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            default_harmonic_weights(0)


class TestPipelineConfig:
    def test_dict_roundtrip(self):
        cfg = PipelineConfig(gamma=25, detector="network", weights_path="w.ppsp")
        assert PipelineConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_validation(self):
        for bad in (
            dict(f_min_hz=0.0),
            dict(delta_f_hz=-1.0),
            dict(n_support=1),
            dict(gamma=0),
            dict(detector="oracle"),
            dict(threshold_quantile=1.0),
            dict(detection_threshold=0.0),
            dict(max_lag_s=-0.1),
            dict(m_harmonics=0),
            dict(input_bins=1),
        ):
            with pytest.raises(ValueError):
                PipelineConfig(**bad)

    def test_types_are_checked_and_named(self):
        for bad in (
            dict(welch_segment=512.0),
            dict(input_bins="1024"),
            dict(n_support=True),
            dict(gamma=2.5),
            dict(m_harmonics=None),
            dict(f_min_hz="5"),
            dict(f_min_hz=10**400),  # too large for a float
            dict(delta_f_hz=False),
            dict(threshold_quantile=float("nan")),
            dict(detection_threshold=None),
            dict(max_lag_s=float("inf")),
            dict(detector=1),
            dict(weights_path=Path("w.ppsp")),
        ):
            (name,) = bad
            with pytest.raises(ValueError, match=name):
                PipelineConfig(**bad)

    def test_numpy_scalars_and_ints_for_floats_are_accepted(self):
        cfg = PipelineConfig(
            welch_segment=np.int64(512), gamma=np.int32(5), f_min_hz=5, max_lag_s=np.float64(0.0)
        )
        assert cfg.welch_segment == 512 and cfg.f_min_hz == 5


class TestSpeedEstimate:
    def test_dict_roundtrip(self):
        est = SpeedEstimate(
            fine_hz=50.02, coarse_hz=50.0, rpm=3001.2, confidence=0.8,
            flags=("fallback",),
        )
        assert SpeedEstimate(**json.loads(json.dumps(asdict(est)))) == est

    def test_numpy_inputs_are_coerced(self):
        est = SpeedEstimate(
            fine_hz=np.float64(50.0),
            coarse_hz=np.float64(50.0),
            rpm=np.float64(3000.0),
            confidence=np.float64(1.0),
        )
        assert type(est.rpm) is float
        assert all(type(v) is float for v in est.csv_row()[:4])

    def test_csv_row_layout(self, tmp_path):
        est = SpeedEstimate(
            fine_hz=1.5, coarse_hz=1.0, rpm=90.0, confidence=0.5,
            flags=("a", "b"),
        )
        path = tmp_path / "estimate.csv"
        write_table(path, SpeedEstimate.CSV_HEADER, [est.csv_row()])
        assert path.read_text() == (
            "rpm,fine_hz,coarse_hz,confidence,flags\n90.0,1.5,1.0,0.5,a;b\n"
        )


class TestComputeLikelihood:
    def test_hand_computed_scores(self):
        dmap = unit_grid_map({8: 1.0, 16: 0.5, 24: 0.25})
        beta = HarmonicWeights(values=np.array([1.0, 0.5, 0.25]))
        like = compute_likelihood(dmap, beta, f_min_hz=5.0)
        # candidates are the bins between 5 Hz and half the 40 Hz band
        np.testing.assert_array_equal(like.candidate_hz, np.arange(5.0, 21.0))

        def score_of(f):
            return like.scores[int(f) - 5]

        # default delta_f = 1 bin: the neighborhood max smears one bin out
        assert score_of(8) == pytest.approx(1.0 + 0.5 * 0.5 + 0.25 * 0.25)
        # 7's first rung borrows 8's detection through the +/- 1 window,
        # but 14 and 21 carry nothing
        assert score_of(7) == pytest.approx(1.0)
        # 16's ladder: p(16) softened to 0.5, p(32) = 0
        assert score_of(16) == pytest.approx(0.5 + 0.0)
        # rungs beyond the band contribute nothing (3 * 20 = 60 > 40)
        assert score_of(20) == pytest.approx(0.0)

    def test_small_delta_disables_smearing(self):
        dmap = unit_grid_map({8: 1.0})
        beta = HarmonicWeights(values=np.array([1.0]))
        like = compute_likelihood(dmap, beta, f_min_hz=5.0, delta_f_hz=0.4)
        scores = dict(zip(like.candidate_hz, like.scores))
        assert scores[8.0] == 1.0
        assert scores[7.0] == 0.0 and scores[9.0] == 0.0

    def test_argmax_helper(self):
        like = FuzzyLikelihood(
            candidate_hz=np.array([5.0, 6.0, 7.0]),
            scores=np.array([0.1, 0.9, 0.2]),
            delta_f_hz=1.0,
        )
        assert like.candidate_hz[np.argmax(like.scores)] == 6.0

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError):
            FuzzyLikelihood(
                candidate_hz=np.array([5.0]),
                scores=np.array([0.1, 0.2]),
                delta_f_hz=1.0,
            )

    def test_no_candidates_in_range(self):
        dmap = unit_grid_map({8: 1.0})
        with pytest.raises(ValueError):
            compute_likelihood(dmap, f_min_hz=30.0)  # band/2 = 20 < f_min


class TestCoarseEstimate:
    def test_removal_beats_unsupported_impostor(self):
        # the 11 Hz false positive outscores the true 8 Hz ladder, but has
        # no detected multiple; the removal rule drops it
        dmap = unit_grid_map({8: 0.6, 16: 0.6, 11: 1.0})
        beta = HarmonicWeights(values=np.array([1.0, 0.6]))
        raw = compute_likelihood(dmap, beta, f_min_hz=5.0)
        # the score alone picks the impostor (smeared across 10..12)
        assert raw.candidate_hz[np.argmax(raw.scores)] in (10.0, 11.0, 12.0)
        result = coarse_estimate(dmap, beta, f_min_hz=5.0)
        assert result.frequency_hz == 8.0
        assert result.flags == ()

    def test_fallback_when_nothing_is_supported(self):
        # a lone detection at 7 Hz: candidate support windows start at
        # 2 * 5 - 1 = 9 Hz, so nothing in the field has a detected multiple
        dmap = unit_grid_map({7: 1.0})
        result = coarse_estimate(dmap, f_min_hz=5.0)
        assert "fallback" in result.flags
        assert "low_confidence" in result.flags
        # unfiltered argmax; the +/- 1 bin window lets 6, 7, and 8 tie
        # and the tie breaks toward the lowest frequency
        assert result.frequency_hz == 6.0

    def test_score_tie_breaks_low(self):
        dmap = unit_grid_map({6: 1.0, 12: 1.0, 18: 1.0, 24: 1.0,
                              7: 1.0, 14: 1.0, 21: 1.0, 28: 1.0})
        beta = HarmonicWeights(values=np.array([1.0, 0.5, 0.25, 0.125]))
        like = compute_likelihood(dmap, beta, f_min_hz=5.0)
        scores = dict(zip(like.candidate_hz, like.scores))
        assert scores[6.0] == pytest.approx(scores[7.0])
        result = coarse_estimate(dmap, beta, f_min_hz=5.0)
        assert result.frequency_hz == 6.0

    def test_support_horizon_is_configurable(self):
        # 8 Hz is only supported by its 4th multiple: n_support=4 reaches it
        # and 8 wins; n_support=3 stops at the 3rd, drops 8, and the field
        # falls to 16 (supported by 32 as its 2nd multiple)
        dmap = unit_grid_map({8: 1.0, 32: 1.0})
        kept = coarse_estimate(dmap, f_min_hz=5.0, n_support=4)
        assert kept.frequency_hz == pytest.approx(8.0, abs=1.0)
        assert kept.flags == ()
        dropped = coarse_estimate(dmap, f_min_hz=5.0, n_support=3)
        assert dropped.frequency_hz == 16.0
        assert dropped.flags == ()

    def test_result_carries_likelihood(self):
        dmap = unit_grid_map({8: 1.0, 16: 1.0})
        result = coarse_estimate(dmap, f_min_hz=5.0)
        assert isinstance(result.likelihood, FuzzyLikelihood)
        assert result.score == pytest.approx(
            result.likelihood.scores[
                int(np.flatnonzero(result.likelihood.candidate_hz == result.frequency_hz)[0])
            ]
        )


class TestFineEstimate:
    def test_localizes_off_grid_tone(self):
        fs = 1024.0
        sig = tone(50.3, fs, 8192)
        fine = fine_estimate(sig, fs, 50.0, segment_len=1024, gamma=50)
        assert abs(fine - 50.3) <= 0.02

    def test_gamma_one_stays_on_coarse_grid(self):
        fs = 1024.0
        sig = tone(50.3, fs, 8192)
        fine = fine_estimate(sig, fs, 50.0, segment_len=1024, gamma=1)
        assert fine == 50.0

    def test_random_offsets_within_refined_grid(self):
        fs = 1024.0
        rng = np.random.default_rng(1)
        for _ in range(5):
            off = rng.uniform(-0.45, 0.45)
            sig = tone(64.0 + off, fs, 8192)
            fine = fine_estimate(sig, fs, 64.0, segment_len=1024, gamma=50)
            assert abs(fine - (64.0 + off)) <= 0.02

    def test_band_outside_grid_raises_tagged_error(self):
        sig = tone(50.0, 1024.0, 4096)
        with pytest.raises(PipelineError) as err:
            fine_estimate(sig, 1024.0, 600.0, segment_len=1024, delta_f_hz=0.5)
        assert err.value.stage == "fine"

    def test_floor_is_inclusive(self):
        # a 4 Hz tone: its skirt falls across the window, so the floored
        # window peaks on its lowest bin, which sits exactly on the floor
        fs = 1024.0
        sig = tone(4.0, fs, 8192)
        assert fine_estimate(sig, fs, 5.5, segment_len=1024, delta_f_hz=1.5) == 4.0
        fine = fine_estimate(sig, fs, 5.5, segment_len=1024, delta_f_hz=1.5, f_min_hz=5.0)
        assert fine == 5.0

    def test_peak_memory_on_an_8s_capture(self):
        fs = 8192.0
        sig = tone(50.3, fs, 8 * 8192)
        tracemalloc.start()
        try:
            fine_estimate(sig, fs, 50.0, segment_len=8192, gamma=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            fine_estimate(np.zeros(128), 64.0, 10.0, gamma=0)


def four_sensor_trace(rpm: float, seed: int | None = None, noise=None):
    profile = MotorProfile.from_rpm(
        rpm, harmonics=[(1, 1.0, 0.0), (2, 0.5, 0.7), (3, 0.25, 1.9)]
    )
    from magrev.signals import ArrayGeometry, CoilParams

    geometry = ArrayGeometry(
        sensor_positions_cm=((-12.0, 30.0), (-4.0, 30.0), (4.0, 30.0), (12.0, 30.0)),
    )
    noise = noise if noise is not None else NoiseProfile()
    return simulate_mixture(
        [profile], geometry, noise, CoilParams(), 1.0, 8192.0, seed
    )


class TestEstimateRpm:
    def test_noiseless_capture_within_tolerance(self):
        trace = four_sensor_trace(3000.0)
        est = estimate_rpm(trace)
        assert abs(est.rpm - 3000.0) <= 1.2
        assert est.rpm == 60.0 * est.fine_hz
        assert est.flags == ()
        assert 0.0 <= est.confidence <= 1.0

    def test_flat_trace_fails_in_enhance_stage(self):
        trace = SensorTrace(channels=np.zeros((4, 8192)), sample_rate_hz=8192.0)
        with pytest.raises(PipelineError) as err:
            estimate_rpm(trace)
        assert err.value.stage == "enhance"

    def test_impossible_band_fails_in_coarse_stage(self):
        trace = four_sensor_trace(3000.0)
        with pytest.raises(PipelineError) as err:
            estimate_rpm(trace, PipelineConfig(f_min_hz=3000.0))
        assert err.value.stage == "coarse"

    def test_network_detector_without_weights_rejected(self):
        trace = four_sensor_trace(3000.0)
        with pytest.raises(PipelineError) as err:
            estimate_rpm(trace, PipelineConfig(detector="network"))
        assert err.value.stage == "detect"


class TestEnhancedSpectrum:
    def test_is_the_first_half_of_detect_harmonics(self):
        trace = four_sensor_trace(3000.0)
        enhanced, segment, spectrum = enhanced_spectrum(trace)
        front_enhanced, front_segment, _ = detect_harmonics(trace)
        np.testing.assert_array_equal(enhanced, front_enhanced)
        assert segment == front_segment == 8192
        assert spectrum.n_bins == segment // 2 + 1

    def test_failures_are_tagged_enhance_and_spectrum(self):
        flat = SensorTrace(channels=np.zeros((4, 8192)), sample_rate_hz=8192.0)
        with pytest.raises(PipelineError) as err:
            enhanced_spectrum(flat)
        assert err.value.stage == "enhance"
        with pytest.raises(PipelineError) as err:
            enhanced_spectrum(four_sensor_trace(3000.0), PipelineConfig(welch_segment=2**20))
        assert err.value.stage == "spectrum"


    @pytest.mark.parametrize(
        "n_samples, fs, max_lag_s, message",
        [
            (2, 8192.0, 0.01, "max_lag_s=0.01 is 82 samples; the capture has 2, "),
            (16, 8192.0, 0.01, "max_lag_s=0.01 is 82 samples; the capture has 16, "),
            (8192, 1e6, 0.01, "max_lag_s=0.01 is 10000 samples; the capture has 8192, "),
            # the lag in samples overflows a float
            (8192, 8192.0, 1e306, "max_lag_s=1e+306 is inf samples; the capture has 8192, "),
        ],
    )
    def test_a_capture_too_short_for_the_lag_names_both(self, n_samples, fs, max_lag_s, message):
        rng = np.random.default_rng(n_samples)
        trace = SensorTrace(channels=rng.normal(size=(4, n_samples)), sample_rate_hz=fs)
        with pytest.raises(PipelineError, match="^" + re.escape("[enhance] " + message)) as err:
            estimate_rpm(trace, PipelineConfig(max_lag_s=max_lag_s))
        assert err.value.stage == "enhance"

    @pytest.mark.parametrize("max_lag_s", [0.0, 1.0, 1e306])
    def test_one_coil_reads_the_same_whatever_the_lag(self, max_lag_s):
        # a single coil has nothing to align, so no lag is searched
        four = four_sensor_trace(3000.0, seed=1)
        trace = SensorTrace(channels=four.channels[:1], sample_rate_hz=four.sample_rate_hz)
        assert estimate_rpm(trace, PipelineConfig(max_lag_s=max_lag_s)) == estimate_rpm(trace)


class TestEstimateRpmMulti:
    def test_separates_two_motors(self):
        from magrev.signals import ArrayGeometry, CoilParams

        profiles = [
            MotorProfile.from_rpm(
                3000.0,
                harmonics=[(1, 1.0, 0.0), (2, 0.5, 0.7), (3, 0.25, 1.9)],
                position_cm=(-10.0, 0.0),
            ),
            MotorProfile.from_rpm(
                5100.0,
                harmonics=[(1, 0.9, 0.3), (2, 0.45, 1.1), (3, 0.2, 2.4)],
                position_cm=(10.0, 0.0),
            ),
        ]
        geometry = ArrayGeometry(
            sensor_positions_cm=(
                (-12.0, 30.0), (-4.0, 30.0), (4.0, 30.0), (12.0, 30.0)
            ),
        )
        trace = simulate_mixture(
            profiles, geometry, NoiseProfile(), CoilParams(), 1.0, 8192.0, None
        )
        estimates = estimate_rpm_multi(trace, 2)
        assert len(estimates) == 2
        rpms = sorted(e.rpm for e in estimates)
        assert abs(rpms[0] - 3000.0) <= 1.2
        assert abs(rpms[1] - 5100.0) <= 1.2

    def test_overdrawn_count_returns_short_flagged_list(self):
        # one motor, three requested: clearing the winner's ladder leaves
        # nothing supported (not even the half-speed ghost, whose only
        # evidence was that same ladder)
        trace = four_sensor_trace(3000.0)
        estimates = estimate_rpm_multi(trace, 3)
        assert 1 <= len(estimates) < 3
        assert abs(estimates[0].rpm - 3000.0) <= 1.2
        for est in estimates:
            assert "harmonic_shortfall" in est.flags

    def test_single_pick_matches_single_source_path(self):
        trace = four_sensor_trace(3000.0)
        single = estimate_rpm(trace)
        multi = estimate_rpm_multi(trace, 1)
        assert len(multi) == 1
        assert multi[0] == single

    def test_duplicate_fundamentals_collapse_to_one(self):
        from magrev.signals import ArrayGeometry, CoilParams

        profiles = [
            MotorProfile.from_rpm(
                3000.0,
                harmonics=[(1, 1.0, 0.0), (2, 0.5, 0.7)],
                position_cm=(-10.0, 0.0),
            ),
            MotorProfile.from_rpm(
                3000.0,
                harmonics=[(1, 0.8, 2.1), (2, 0.4, 0.2)],
                position_cm=(10.0, 0.0),
            ),
        ]
        geometry = ArrayGeometry(
            sensor_positions_cm=(
                (-12.0, 30.0), (-4.0, 30.0), (4.0, 30.0), (12.0, 30.0)
            ),
        )
        trace = simulate_mixture(
            profiles, geometry, NoiseProfile(), CoilParams(), 1.0, 8192.0, None
        )
        estimates = estimate_rpm_multi(trace, 2)
        assert len(estimates) == 1
        assert "harmonic_shortfall" in estimates[0].flags
        assert abs(estimates[0].rpm - 3000.0) <= 1.2

    def test_count_validation(self):
        trace = four_sensor_trace(3000.0)
        with pytest.raises(ValueError):
            estimate_rpm_multi(trace, 0)

    def test_impossible_band_fails_in_coarse_stage(self):
        trace = four_sensor_trace(3000.0)
        with pytest.raises(PipelineError) as err:
            estimate_rpm_multi(trace, 2, PipelineConfig(f_min_hz=3000.0))
        assert err.value.stage == "coarse"

    def test_welch_failure_is_tagged_spectrum_on_both_paths(self):
        trace = four_sensor_trace(3000.0)
        config = PipelineConfig(welch_segment=2**20)
        for run in (
            lambda: estimate_rpm(trace, config),
            lambda: estimate_rpm_multi(trace, 2, config),
        ):
            with pytest.raises(PipelineError) as err:
                run()
            assert err.value.stage == "spectrum"

    def test_zero_score_first_pick_is_low_confidence_on_both_paths(self):
        # a missing fundamental with m_harmonics=1: every supported
        # candidate scores 0, so the pick is kept but flagged
        from magrev.signals import ArrayGeometry, CoilParams

        profile = MotorProfile.from_rpm(1800.0, harmonics=[(2, 0.5, 0.7), (3, 0.25, 1.9)])
        geometry = ArrayGeometry(
            sensor_positions_cm=((-12.0, 30.0), (-4.0, 30.0), (4.0, 30.0), (12.0, 30.0)),
        )
        trace = simulate_mixture(
            [profile], geometry, NoiseProfile(), CoilParams(), 1.0, 8192.0, None
        )
        config = PipelineConfig(m_harmonics=1)
        single = estimate_rpm(trace, config)
        assert estimate_rpm_multi(trace, 1, config) == [single]
        assert single.confidence == 0.0
        assert single.flags == ("low_confidence",)

    def test_fine_window_is_floored_at_f_min_on_both_paths(self):
        # a DC offset and a window wider than the 5 Hz coarse pick: without
        # the floor the fine stage read 0.02 Hz (1.2 RPM), or 0 Hz at gamma=1
        rng = np.random.default_rng(0)
        trace = SensorTrace(1.0 + 1e-3 * rng.normal(size=(2, 8192)), 8192.0)
        for gamma in (50, 1):
            config = PipelineConfig(delta_f_hz=10.0, gamma=gamma)
            single = estimate_rpm(trace, config)
            picks = estimate_rpm_multi(trace, 2, config)
            assert picks[0].fine_hz == single.fine_hz
            assert single.coarse_hz == 5.0
            assert all(pick.fine_hz >= config.f_min_hz for pick in picks)


class TestOneStagedPath:
    """estimate_rpm is the first pick of estimate_rpm_multi, and that pick
    is detect_harmonics -> coarse_estimate -> fine_estimate."""

    @staticmethod
    def staged(trace, config, beta):
        enhanced, segment, dmap = detect_harmonics(trace, config)
        coarse = coarse_estimate(
            dmap, beta, f_min_hz=config.f_min_hz, delta_f_hz=config.delta_f_hz,
            n_support=config.n_support, detection_threshold=config.detection_threshold,
        )
        fine = fine_estimate(
            enhanced, trace.sample_rate_hz, coarse.frequency_hz, segment_len=segment,
            gamma=config.gamma, delta_f_hz=coarse.likelihood.delta_f_hz,
        )
        return fine, coarse

    def check(self, trace, config, beta=None):
        single = estimate_rpm(trace, config, beta=beta)
        assert estimate_rpm_multi(trace, 1, config, beta=beta) == [single]
        first = estimate_rpm_multi(trace, 2, config, beta=beta)[0]
        flags = tuple(f for f in first.flags if f != "harmonic_shortfall")
        assert replace(first, flags=flags) == single
        fine, coarse = self.staged(
            trace, config, beta or default_harmonic_weights(config.m_harmonics)
        )
        assert (single.fine_hz, single.coarse_hz) == (fine, coarse.frequency_hz)
        return single

    def test_seeded_speeds(self):
        rng = np.random.default_rng(606)
        noise = NoiseProfile(mains_components=((60.0, 0.0005),), broadband_sigma=0.0005)
        config = PipelineConfig()
        rpms = rng.uniform(700.0, 8000.0, size=30)
        hits = 0
        for rpm in rpms:
            trace = four_sensor_trace(float(rpm), int(rng.integers(0, 2**31)), noise)
            hits += abs(self.check(trace, config).rpm - rpm) <= 60.0
        assert hits >= 27  # 30 of 30 within 60 RPM when written

    def test_fitted_beta(self):
        rng = np.random.default_rng(607)
        config = PipelineConfig()
        train_rpms = (900.0, 2400.0, 4100.0, 6300.0)
        maps = [
            detect_harmonics(four_sensor_trace(rpm, int(rng.integers(0, 2**31))), config)[2]
            for rpm in train_rpms
        ]
        beta = fit_beta(maps, [rpm / 60.0 for rpm in train_rpms])
        assert not np.allclose(beta.values, default_harmonic_weights().values)
        self.check(four_sensor_trace(3300.0, int(rng.integers(0, 2**31))), config, beta)


class TestDenseSpeedSweep:
    def test_quick_start_scene_from_10_8_to_150_hz(self):
        """The README quick-start scene (two harmonics, 60 Hz mains, seed 7)
        at every 0.1 Hz from 10.8 to 150 Hz.  When written, 797 of the 1393
        reads were off by more than 0.05 Hz and 138 by more than 1 Hz, none
        of them flagged.  649 of the 797 read low: the coarse score ties
        neighbouring bins, ties go to the lower one, and the fine window is
        only +/- delta_f wide.  114 of the 138 read the 60 Hz mains line.
        The bounds are those counts, for a better tie or rung rule to lower."""
        from magrev.signals import ArrayGeometry, CoilParams

        geometry = ArrayGeometry(
            sensor_positions_cm=((-12.0, 30.0), (-4.0, 30.0), (4.0, 30.0), (12.0, 30.0)),
        )
        noise = NoiseProfile(mains_components=((60.0, 0.0005),), broadband_sigma=0.0005)
        speeds_hz = np.arange(108, 1501) / 10.0
        errors = np.empty(speeds_hz.size)
        for i, f0 in enumerate(speeds_hz):
            motor = MotorProfile.from_rpm(60.0 * f0, harmonics=[(1, 1.0, 0.0), (2, 0.5, 0.7)])
            trace = simulate_mixture([motor], geometry, noise, CoilParams(), 1.0, 8192.0, 7)
            errors[i] = abs(estimate_rpm(trace).fine_hz - f0)
        assert speeds_hz.size == 1393
        assert np.count_nonzero(errors > 0.05) <= 797
        assert np.count_nonzero(errors > 1.0) <= 138

class TestFitBeta:
    def make_ladder_map(self, f0: int) -> DetectionMap:
        return unit_grid_map({k * f0: 1.0 for k in range(1, 41 // f0 + 1) if k * f0 <= 40})

    def test_fitted_weights_rank_truth_first(self):
        maps = [self.make_ladder_map(f0) for f0 in (6, 7, 9)]
        beta = fit_beta(maps, [6.0, 7.0, 9.0], m_harmonics=4)
        held_out = self.make_ladder_map(8)
        result = coarse_estimate(held_out, beta, f_min_hz=5.0)
        assert result.frequency_hz == 8.0

    def test_zero_ridge_uses_least_squares(self):
        maps = [self.make_ladder_map(f0) for f0 in (6, 8)]
        beta = fit_beta(maps, [6.0, 8.0], m_harmonics=3, ridge_lambda=0.0)
        assert beta.m == 3
        assert np.all(np.isfinite(beta.values))

    def test_stronger_ridge_shrinks_weights(self):
        maps = [self.make_ladder_map(f0) for f0 in (6, 7, 9)]
        loose = fit_beta(maps, [6.0, 7.0, 9.0], m_harmonics=3, ridge_lambda=0.1)
        tight = fit_beta(maps, [6.0, 7.0, 9.0], m_harmonics=3, ridge_lambda=100.0)
        assert np.linalg.norm(tight.values) < np.linalg.norm(loose.values)

    def test_empty_evidence_rejected(self):
        empty = unit_grid_map({})
        with pytest.raises(ValueError):
            fit_beta([empty], [8.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_beta([unit_grid_map({8: 1.0})], [8.0, 9.0])
        with pytest.raises(ValueError):
            fit_beta([], [])
