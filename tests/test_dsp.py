import numpy as np
import pytest
from scipy.signal import get_window

from magrev.dsp import (
    NoiseReference,
    PowerSpectrum,
    default_segment_len,
    delay_and_sum,
    estimate_delay,
    log_normalize,
    resample,
    shift_signal,
    welch_psd,
    welch_zoom,
)
from magrev.signals import SensorTrace

from conftest import tone


def reference_welch(x, fs, segment_len, overlap=0.5, window="hann", nfft=None):
    """Average of one-sided scaled periodograms, written out segment by
    segment.  Deliberately a second, independent implementation."""
    if nfft is None:
        nfft = segment_len
    name = "boxcar" if window == "rectangular" else window
    w = get_window(name, segment_len, fftbins=True)
    hop = max(1, int(round(segment_len * (1.0 - overlap))))
    periodograms = []
    for start in range(0, len(x) - segment_len + 1, hop):
        frame = x[start : start + segment_len] * w
        spec = np.fft.rfft(frame, n=nfft)
        p = np.abs(spec) ** 2 / (fs * np.sum(w * w))
        if nfft % 2 == 0:
            p[1:-1] *= 2.0
        else:
            p[1:] *= 2.0
        periodograms.append(p)
    return np.mean(periodograms, axis=0)


class TestWelch:
    def test_matches_periodogram_averaging(self):
        rng = np.random.default_rng(123)
        for trial in range(10):
            n = int(rng.integers(600, 5000))
            fs = float(rng.uniform(100.0, 10000.0))
            x = rng.normal(size=n)
            seg = 2 ** int(rng.integers(5, 9))
            spec = welch_psd(x, fs, segment_len=seg)
            ref = reference_welch(x, fs, seg)
            np.testing.assert_allclose(spec.densities, ref, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("window", ["hann", "hamming", "blackman", "rectangular"])
    def test_matches_reference_all_windows(self, window):
        rng = np.random.default_rng(7)
        x = rng.normal(size=2000)
        spec = welch_psd(x, 1000.0, segment_len=256, window=window)
        ref = reference_welch(x, 1000.0, 256, window=window)
        np.testing.assert_allclose(spec.densities, ref, rtol=1e-9, atol=0)

    def test_overlap_fraction_honored(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=4096)
        for overlap in (0.0, 0.25, 0.75):
            spec = welch_psd(x, 2000.0, segment_len=512, overlap_fraction=overlap)
            ref = reference_welch(x, 2000.0, 512, overlap=overlap)
            np.testing.assert_allclose(spec.densities, ref, rtol=1e-9, atol=0)

    def test_single_tone_integrated_power(self):
        fs, n, amp = 8192.0, 8192, 1.7
        x = tone(440.0, fs, n, amp=amp)
        spec = welch_psd(x, fs, segment_len=1024)
        total = float(np.sum(spec.densities) * spec.resolution_df)
        assert abs(total - amp**2 / 2.0) / (amp**2 / 2.0) < 0.02

    def test_zero_padding_refines_grid(self):
        fs = 1024.0
        x = tone(100.25, fs, 4096)
        spec = welch_psd(x, fs, segment_len=1024, nfft=1024 * 16)
        assert spec.resolution_df == pytest.approx(fs / (1024 * 16))
        peak = spec.frequencies[int(np.argmax(spec.densities))]
        assert abs(peak - 100.25) <= spec.resolution_df

    @pytest.mark.parametrize("window", ["hann", "hamming", "blackman", "rectangular"])
    def test_zoom_matches_padded_transform(self, window):
        rng = np.random.default_rng(3)
        fs = 1024.0
        x = tone(100.25, fs, 4096) + 0.1 * rng.normal(size=4096)
        # segment 2 with gamma 1 has a one-sample block and puts the window's
        # shifted rungs past both ends of the one-sided grid; so do bin 0
        # and the Nyquist bin on every grid
        for segment, gamma in ((1024, 1), (1024, 16), (256, 7), (2, 1), (4, 3)):
            nfft = segment * gamma
            full = welch_psd(x, fs, segment, window=window, nfft=nfft).densities
            for first, count in ((0, 40), (nfft // 2 - 30, 31), (nfft // 5, 1)):
                bins = np.arange(max(first, 0), min(first + count, nfft // 2 + 1))
                zoom = welch_zoom(x, fs, segment, nfft, bins, window=window)
                np.testing.assert_allclose(zoom, full[bins], rtol=0, atol=1e-12 * full.max())
        # a signal that ends part-way through a block
        y = x[:1000]
        full = welch_psd(y, fs, 256, window=window, nfft=256 * 5).densities
        bins = np.arange(100, 160)
        zoom = welch_zoom(y, fs, 256, 256 * 5, bins, window=window)
        np.testing.assert_allclose(zoom, full[bins], rtol=0, atol=1e-12 * full.max())
        assert welch_zoom(x, fs, 1024, 2048, np.arange(0)).size == 0
        with pytest.raises(ValueError):
            welch_zoom(x, fs, 1024, 2048, np.array([3, 5]))
        with pytest.raises(ValueError):
            welch_zoom(x, fs, 1024, 2048, np.arange(1020, 1030))
        for nfft in (512, 0, 1025, 1536):
            with pytest.raises(ValueError, match="multiple of segment_len"):
                welch_zoom(x, fs, 1024, nfft, np.arange(3))

    def test_frequency_axis(self):
        spec = welch_psd(np.ones(256), 512.0, segment_len=128)
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == pytest.approx(256.0)
        assert len(spec.frequencies) == 65

    def test_rejects_bad_input(self):
        x = np.zeros(100)
        with pytest.raises(ValueError):
            welch_psd(x, 100.0, segment_len=100)  # not a power of two
        with pytest.raises(ValueError):
            welch_psd(x, 100.0, segment_len=128)  # longer than the signal
        with pytest.raises(ValueError):
            welch_psd(x, -1.0, segment_len=64)
        with pytest.raises(ValueError):
            welch_psd(x, 100.0, segment_len=64, overlap_fraction=1.0)
        with pytest.raises(ValueError):
            welch_psd(x, 100.0, segment_len=64, nfft=32)
        with pytest.raises(ValueError):
            welch_psd(np.zeros((4, 4)), 100.0, segment_len=2)


def test_default_segment_len_policy():
    assert default_segment_len(8192.0, 8192) == 8192
    assert default_segment_len(8192.0, 6000) == 4096
    assert default_segment_len(1000.0, 100000) == 1024
    with pytest.raises(ValueError):
        default_segment_len(8192.0, 1)


class TestLogNormalize:
    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        spec = welch_psd(rng.normal(size=2048), 1000.0, segment_len=256)
        norm = log_normalize(spec)
        assert norm.densities.min() == 0.0
        assert norm.densities.max() == 1.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.1, 5.0, size=64)
        base = PowerSpectrum(np.arange(64.0), d, 1.0)
        scaled = PowerSpectrum(np.arange(64.0), d * 1e6, 1.0)
        np.testing.assert_allclose(
            log_normalize(base).densities,
            log_normalize(scaled).densities,
            rtol=1e-9,
            atol=1e-12,
        )

    def test_constant_spectrum_maps_to_zero(self):
        flat = PowerSpectrum(np.arange(8.0), np.full(8, 3.0), 1.0)
        assert np.all(log_normalize(flat).densities == 0.0)
        zero = PowerSpectrum(np.arange(8.0), np.zeros(8), 1.0)
        assert np.all(log_normalize(zero).densities == 0.0)

    def test_rejects_negative_densities(self):
        bad = PowerSpectrum(np.arange(4.0), np.array([1.0, -0.1, 2.0, 3.0]), 1.0)
        with pytest.raises(ValueError):
            log_normalize(bad)


class TestNoiseReference:
    def test_unity_reference_is_identity(self):
        # dividing by the floor of 1 is exact, so a reference at or below it
        # in every bin runs no transform: a one-channel delay-and-sum returns
        # the channel bit for bit, in a fresh array
        x = tone(97.0, 8192.0, 8192, amp=0.3) + 0.1
        for reference in (
            NoiseReference.unity(x.size),
            NoiseReference(magnitudes=np.full(4097, 0.5)),
            NoiseReference(magnitudes=np.linspace(0.0, 1.0, 4097)),
        ):
            out = delay_and_sum(SensorTrace(x[None, :], 8192.0), reference, max_lag=0)
            np.testing.assert_array_equal(out, x)
            assert not np.shares_memory(out, x)

    def test_smoothed_reference_has_no_deep_dips(self):
        # dividing by a raw transform of a noise capture amplifies its
        # near-zero bins; the averaged reference must not have any
        rng = np.random.default_rng(5)
        ref = NoiseReference.from_signal(rng.normal(0.0, 0.2, size=8192))
        mags = ref.magnitudes
        assert mags.min() > 0.2 * mags.mean()
        assert mags.max() < 5.0 * mags.mean()

    def test_reference_tracks_tone_location(self):
        fs, n = 8192.0, 8192
        capture = tone(60.0, fs, n, amp=0.5) + np.random.default_rng(2).normal(
            0.0, 0.01, n
        )
        ref = NoiseReference.from_signal(capture)
        bins_per_hz = (ref.n_bins - 1) / (fs / 2.0)
        at_60 = ref.magnitudes[int(round(60 * bins_per_hz))]
        away = ref.magnitudes[int(round(300 * bins_per_hz))]
        assert at_60 > 10.0 * away

    def test_short_capture_falls_back_to_raw_transform(self):
        x = np.array([1.0, -2.0, 0.5, 3.0])
        ref = NoiseReference.from_signal(x)
        np.testing.assert_allclose(ref.magnitudes, np.abs(np.fft.rfft(x)))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseReference(magnitudes=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            NoiseReference(magnitudes=np.array([[1.0]]))
        with pytest.raises(ValueError):
            NoiseReference.from_signal(np.array([1.0]))


class TestSpectralDenoise:
    """The denoising step of a one-channel delay-and-sum."""

    def test_suppresses_line_present_in_reference(self):
        fs, n = 8192.0, 8192
        rng = np.random.default_rng(3)
        capture = tone(60.0, fs, n, amp=0.5, phase=1.0) + rng.normal(0, 0.005, n)
        ref = NoiseReference.from_signal(capture)
        signal = tone(60.0, fs, n, amp=0.5) + tone(97.0, fs, n, amp=0.05)
        out = delay_and_sum(SensorTrace(signal[None, :], fs), ref, max_lag=0)
        spec = welch_psd(out, fs, segment_len=8192)
        p60 = spec.densities[int(round(60 / spec.resolution_df))]
        p97 = spec.densities[int(round(97 / spec.resolution_df))]
        assert p97 > 10.0 * p60

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delay_and_sum(
                SensorTrace(np.zeros((1, 100)), 1.0), NoiseReference.unity(64), max_lag=0
            )


class TestDelayEstimation:
    def exhaustive_best_lag(self, a, b, max_lag):
        best, best_score = None, -np.inf
        n = a.size
        for lag in range(-max_lag, max_lag + 1):
            if lag >= 0:
                score = float(np.dot(a[lag:], b[: n - lag]))
            else:
                score = float(np.dot(a[: n + lag], b[-lag:]))
            key = (score, -abs(lag), -lag)
            if best is None or key > (best_score, -abs(best), -best):
                best, best_score = lag, score
        return best

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(64, 400))
            max_lag = int(rng.integers(1, n // 2))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            assert estimate_delay(a, b, max_lag) == self.exhaustive_best_lag(
                a, b, max_lag
            )
        # small-integer signals: the exact dot products tie often, and the
        # peak regularly sits at +/-max_lag itself
        ties = edges = 0
        for _ in range(300):
            n = int(rng.integers(4, 80))
            max_lag = int(rng.integers(0, n // 2))
            a = rng.integers(-1, 2, size=n).astype(float)
            b = rng.integers(-1, 2, size=n).astype(float)
            if not (a.any() and b.any()):
                continue
            expected = self.exhaustive_best_lag(a, b, max_lag)
            assert estimate_delay(a, b, max_lag) == expected
            scores = [
                float(np.dot(a[max(lag, 0) : n + min(lag, 0)], b[max(-lag, 0) : n - max(lag, 0)]))
                for lag in range(-max_lag, max_lag + 1)
            ]
            ties += scores.count(max(scores)) > 1
            edges += max_lag > 0 and abs(expected) == max_lag
        assert ties > 30 and edges > 10
        # exact ties at +/-3 resolve to -3; a peak at the window edge is found
        a = np.zeros(64)
        a[[17, 23]] = 1.0
        b = np.zeros(64)
        b[20] = 1.0
        assert estimate_delay(a, b, 5) == -3
        for lag in (-9, 9):
            a = np.zeros(64)
            a[30 + lag] = 1.0
            b = np.zeros(64)
            b[30] = 1.0
            assert estimate_delay(a, b, 9) == lag
            assert estimate_delay(a, b, 8) == 0  # out of reach: every lag scores 0
            assert estimate_delay(a, b, 0) == 0

    def test_matches_exhaustive_scan_across_blocks(self):
        # long signals are cut into many transform blocks, the last one
        # ragged; windows run from one lag to nearly half the signal
        rng = np.random.default_rng(29)
        for n, max_lag in ((4000, 1), (4321, 82), (20000, 82), (9999, 4998), (6007, 5)):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            assert estimate_delay(a, b, max_lag) == self.exhaustive_best_lag(a, b, max_lag)
            for lag in (-max_lag, max_lag):
                # a copy of b moved to either edge of the window
                moved = shift_signal(b, -lag) + 0.5 * rng.normal(size=n)
                assert estimate_delay(moved, b, max_lag) == lag
        # b constant and a's spikes within reach of every lag: each lag
        # scores the spike count, so a sample counted twice or missed where
        # two blocks meet would break the tie, which resolves to 0
        for n, max_lag in ((4000, 1), (20000, 82), (9999, 4998)):
            a = np.zeros(n)
            a[rng.integers(max_lag, n - max_lag, size=200)] = 1.0
            assert estimate_delay(a, np.ones(n), max_lag) == 0
            assert estimate_delay(np.ones(n), a, max_lag) == 0
        # sparse small-integer signals: a few spikes of b reappear in a at
        # lags drawn from the window edges and inside it, so exact ties
        # between lags are common and the peak often sits on an edge
        ties = edges = 0
        for _ in range(40):
            n = int(rng.integers(4000, 20001))
            max_lag = int(rng.choice([1, 82, n // 2 - 1]))
            spots = rng.integers(max_lag, n - max_lag, size=3)
            lags = rng.choice([-max_lag, max_lag, int(rng.integers(-max_lag, max_lag + 1))], 3)
            a = np.zeros(n)
            b = np.zeros(n)
            b[spots] = 1.0
            a[spots + lags] = rng.integers(1, 3, size=3)
            expected = self.exhaustive_best_lag(a, b, max_lag)
            assert estimate_delay(a, b, max_lag) == expected
            scores = np.correlate(a, b, "full")[n - 1 - max_lag : n + max_lag]
            ties += int(np.count_nonzero(scores == scores.max()) > 1)
            edges += abs(expected) == max_lag
        assert ties > 5 and edges > 5

    def test_recovers_known_shift(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=2048)
        for true_lag in (-40, -3, 0, 7, 63):
            shifted = np.roll(base, true_lag)
            # shifting `shifted` by +true_lag realigns it with base
            assert estimate_delay(shifted, base, 80) == true_lag

    def test_tie_prefers_smallest_magnitude(self):
        x = np.ones(64)
        assert estimate_delay(x, x, 10) == 0

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            estimate_delay(np.zeros(32), np.ones(32), 4)

    def test_max_lag_bounds(self):
        x = np.ones(16)
        with pytest.raises(ValueError):
            estimate_delay(x, x, 8)
        with pytest.raises(ValueError):
            estimate_delay(x, x, -1)


class TestShiftSignal:
    def test_positive_lag_advances(self):
        x = np.arange(6.0)
        np.testing.assert_array_equal(
            shift_signal(x, 2), np.array([2.0, 3, 4, 5, 0, 0])
        )

    def test_negative_lag_delays(self):
        x = np.arange(6.0)
        np.testing.assert_array_equal(
            shift_signal(x, -2), np.array([0.0, 0, 0, 1, 2, 3])
        )

    def test_lag_past_length_gives_zeros(self):
        assert np.all(shift_signal(np.ones(4), 9) == 0.0)
        assert np.all(shift_signal(np.ones(4), -4) == 0.0)


class TestDelayAndSum:
    def test_identical_channels_sum_exactly(self):
        x = tone(50.0, 8192.0, 8192, amp=0.4)
        trace = SensorTrace(
            channels=np.stack([x, x, x, x]), sample_rate_hz=8192.0
        )
        out = delay_and_sum(trace, NoiseReference.unity(x.size), max_lag=16)
        np.testing.assert_allclose(out, 4.0 * x, rtol=1e-12, atol=1e-12)

    def test_realigns_integer_delays(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=4096)
        lags = [0, 5, -9, 14]
        chans = np.stack([np.roll(base, lag) for lag in lags])
        trace = SensorTrace(channels=chans, sample_rate_hz=1000.0)
        out = delay_and_sum(trace, NoiseReference.unity(4096), max_lag=20)
        interior = slice(20, -20)
        np.testing.assert_allclose(
            out[interior], 4.0 * base[interior], rtol=1e-9, atol=1e-9
        )

    def test_reference_at_the_floor_sums_the_raw_channels(self):
        # the channels are not transformed, so the sum is exact
        rng = np.random.default_rng(12)
        base = rng.normal(size=5000)
        chans = np.stack(
            [np.roll(base, lag) + 0.3 * rng.normal(size=5000) for lag in (0, 4, -30, 77)]
        )
        trace = SensorTrace(channels=chans, sample_rate_hz=1000.0)
        for mags in (np.ones(2501), np.full(2501, 0.5)):
            out = delay_and_sum(trace, NoiseReference(magnitudes=mags), max_lag=82)
            expected = chans[0].copy()
            for x in chans[1:]:
                expected += shift_signal(x, estimate_delay(x, chans[0], 82))
            np.testing.assert_array_equal(out, expected)

    def test_single_channel_passthrough(self):
        x = tone(61.0, 4096.0, 4096)
        trace = SensorTrace(channels=x[None, :], sample_rate_hz=4096.0)
        out = delay_and_sum(trace, NoiseReference.unity(x.size), max_lag=8)
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestResample:
    def test_identity_factor(self):
        x = tone(10.0, 1000.0, 500)
        np.testing.assert_array_equal(resample(x, 1.0), x)

    def test_tone_moves_by_inverse_factor(self):
        fs = 8192.0
        x = tone(200.0, fs, 16384)
        y = resample(x, 2.0)
        spec = welch_psd(y, fs, segment_len=8192)
        peak = spec.frequencies[int(np.argmax(spec.densities))]
        assert abs(peak - 100.0) <= spec.resolution_df

    def test_output_length(self):
        assert resample(np.zeros(1000), 1.5).size == 1500
        assert resample(np.zeros(1000), 0.25).size == 250

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            resample(np.zeros(100), -1.0)
        with pytest.raises(ValueError):
            resample(np.zeros(100), 0.0)
        with pytest.raises(ValueError):
            resample(np.zeros(100), float("inf"))
