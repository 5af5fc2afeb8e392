"""Spectral denoising, delay-and-sum enhancement, and PSD utilities.

The enhancement chain mirrors how the capture hardware is used: each channel
is divided in the frequency domain by the magnitude spectrum of a background
capture (with a unity floor so quiet bins pass through untouched), channels
are aligned to the first one by cross-correlation, and the aligned channels
are summed.  Welch power spectra then feed the detector and estimator stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sensor_io import read_table, write_table
from .signals import SensorTrace

SPECTRAL_FLOOR = 1.0

_WINDOWS = ("hann", "hamming", "blackman", "rectangular")


@dataclass
class NoiseReference:
    """Magnitude spectrum of a background capture, one value per rfft bin."""

    magnitudes: np.ndarray

    CSV_HEADER = ("bin_index", "magnitude")

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.magnitudes.ndim != 1 or self.magnitudes.size < 1:
            raise ValueError("magnitudes must be a non-empty 1-D array")
        if np.any(self.magnitudes < 0) or not np.all(np.isfinite(self.magnitudes)):
            raise ValueError("magnitudes must be finite and non-negative")

    @property
    def n_bins(self) -> int:
        return self.magnitudes.size

    @classmethod
    def from_signal(cls, background: np.ndarray) -> "NoiseReference":
        """Build a reference from a noise-only capture.

        The capture's spectrum is averaged over overlapping segments before
        being interpolated back onto the full transform grid: a single
        transform of a random capture has near-zero bins, and dividing by
        those would spray spurious peaks across the whitened spectrum.
        """
        x = np.asarray(background, dtype=np.float64)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("background must be a 1-D signal")
        n = x.size
        out_bins = n // 2 + 1
        # an eighth of the capture, as a power of two, gives ~15 overlapped
        # segments; too-short captures fall back to the raw transform
        segment = 2 ** int(math.floor(math.log2(max(n // 8, 1)))) if n >= 16 else 1
        if segment < 4:
            return cls(magnitudes=np.abs(np.fft.rfft(x)))
        spec = welch_psd(x, 2.0, segment_len=segment)
        # expected squared transform magnitude of a stationary capture is
        # density * fs * n / 2, and the fs factors cancel
        mags = np.sqrt(spec.densities * 2.0 * n / 2.0)
        grid_out = np.linspace(0.0, 1.0, out_bins)
        grid_in = np.linspace(0.0, 1.0, mags.size)
        return cls(magnitudes=np.interp(grid_out, grid_in, mags))

    @classmethod
    def unity(cls, n_samples: int) -> "NoiseReference":
        """A no-op reference for a signal of ``n_samples`` samples."""
        return cls(magnitudes=np.ones(n_samples // 2 + 1))

    def save_csv(self, path: str | Path) -> None:
        write_table(path, self.CSV_HEADER, enumerate(self.magnitudes))

    @classmethod
    def load_csv(cls, path: str | Path) -> "NoiseReference":
        _, values = read_table(path, cls.CSV_HEADER)
        return cls(magnitudes=values[:, 1])


@dataclass
class PowerSpectrum:
    """One-sided PSD on a uniform frequency grid."""

    frequencies: np.ndarray
    densities: np.ndarray
    resolution_df: float
    normalized: bool = False

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        self.densities = np.asarray(self.densities, dtype=np.float64)
        if self.frequencies.shape != self.densities.shape:
            raise ValueError("frequencies and densities must have equal shape")
        if self.frequencies.ndim != 1 or self.frequencies.size < 2:
            raise ValueError("spectrum needs at least two bins")
        df = float(self.resolution_df)
        spacing = np.diff(self.frequencies)
        if not np.allclose(spacing, df, rtol=1e-9, atol=1e-12):
            raise ValueError("frequency grid spacing must equal resolution_df")
        self.resolution_df = df

    @property
    def n_bins(self) -> int:
        return self.frequencies.size

    def save_csv(self, path: str | Path) -> None:
        write_table(
            path, ("frequency_hz", "density"), zip(self.frequencies, self.densities)
        )


# ---------------------------------------------------------------------------
# Denoising and alignment
# ---------------------------------------------------------------------------


def _denoised_spectra(channels: np.ndarray, reference: NoiseReference) -> np.ndarray:
    """rfft of each channel (the last axis) divided by the floored background
    magnitudes."""
    if channels.shape[-1] < 2:
        raise ValueError("channel must be a 1-D signal")
    expected = channels.shape[-1] // 2 + 1
    if reference.n_bins != expected:
        raise ValueError(
            f"noise reference has {reference.n_bins} bins, signal needs {expected}"
        )
    return np.fft.rfft(channels, axis=-1) / np.maximum(reference.magnitudes, SPECTRAL_FLOOR)


def spectral_denoise(channel: np.ndarray, reference: NoiseReference) -> np.ndarray:
    """Divide a channel's spectrum by the floored background magnitudes.

    Bins whose background magnitude is below 1 are divided by 1 instead, so
    the floor never amplifies.  Only magnitudes are divided; the channel's
    phase is preserved exactly.  A unity reference is an identity within FFT
    round-off.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("channel must be a 1-D signal")
    return np.fft.irfft(_denoised_spectra(x, reference), n=x.size)


def _best_lag(
    a: np.ndarray, b: np.ndarray, spec_a: np.ndarray, spec_b: np.ndarray, max_lag: int
) -> int:
    """Lag in [-max_lag, max_lag] maximizing sum_t a[t + L] * b[t], given the
    rfft spectra of ``a`` and ``b``.

    One inverse transform gives the circular correlation; lag L of it also
    sums the |L| products that wrap around the ends, which are subtracted to
    leave the linear correlation.  Values within round-off of the peak tie,
    and ties resolve to the smallest |L| (then the smaller L).
    """
    n = a.size
    if not 0 <= max_lag < n // 2:
        raise ValueError("max_lag must satisfy 0 <= max_lag < len/2")
    if not (np.any(a) and np.any(b)):
        raise ValueError("cannot estimate a delay from zero-energy input")
    if max_lag == 0:
        return 0
    k = max_lag
    circular = np.fft.irfft(spec_a * np.conj(spec_b), n=n)
    # wrapped products at lag L > 0: a[u] * b[n - L + u] for u < L, and the
    # mirror image b[t] * a[n - L + t] at lag -L
    wrap_pos = np.convolve(a[:k], b[n - k :][::-1])[:k]
    wrap_neg = np.convolve(b[:k], a[n - k :][::-1])[:k]
    window = np.concatenate(
        (
            circular[n - k :] - wrap_neg[::-1],
            circular[:1],
            circular[1 : k + 1] - wrap_pos,
        )
    )
    tolerance = 1e-12 * math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    hits = np.flatnonzero(window >= window.max() - tolerance) - k
    return int(min(hits, key=lambda lag: (abs(int(lag)), int(lag))))


def estimate_delay(s_i: np.ndarray, s_ref: np.ndarray, max_lag: int) -> int:
    """Lag (samples) that best aligns ``s_i`` to ``s_ref``.

    Returns the integer lag L in [-max_lag, max_lag] maximizing
    sum_t s_i[t + L] * s_ref[t]; shifting s_i by the result lines it up with
    the reference.  Ties (values within FFT round-off of the peak) resolve to
    the smallest |L| (then the smaller L).
    """
    a = np.asarray(s_i, dtype=np.float64)
    b = np.asarray(s_ref, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("sequences must be 1-D and of equal length")
    return _best_lag(a, b, np.fft.rfft(a), np.fft.rfft(b), max_lag)


def shift_signal(x: np.ndarray, lag: int) -> np.ndarray:
    """Return x advanced by ``lag`` samples (out[t] = x[t + lag]), zero-filled
    at the edges."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    out = np.zeros_like(x)
    if lag >= n or lag <= -n:
        return out
    if lag >= 0:
        out[: n - lag] = x[lag:]
    else:
        out[-lag:] = x[: n + lag]
    return out


def delay_and_sum(
    trace: SensorTrace, reference: NoiseReference, max_lag: int
) -> np.ndarray:
    """Denoise every channel, align each to channel 0, and sum.

    A single-channel trace returns its denoised channel.  Coherent content
    gains a factor of n_channels in amplitude while independent noise gains
    only sqrt(n_channels).  Each channel is transformed once; the same
    spectra serve the denoising and the alignment.
    """
    spectra = _denoised_spectra(trace.channels, reference)
    denoised = np.fft.irfft(spectra, n=trace.n_samples, axis=-1)
    out = denoised[0].copy()
    for i in range(1, trace.n_channels):
        lag = _best_lag(denoised[i], denoised[0], spectra[i], spectra[0], max_lag)
        out += shift_signal(denoised[i], lag)
    return out


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def _window(name: str, n: int) -> np.ndarray:
    if name == "rectangular":
        return np.ones(n)
    k = np.arange(n)
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / n)
    if name == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / n)
    if name == "blackman":
        return (
            0.42
            - 0.5 * np.cos(2.0 * np.pi * k / n)
            + 0.08 * np.cos(4.0 * np.pi * k / n)
        )
    raise ValueError(f"unknown window '{name}' (choose from {_WINDOWS})")


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def default_segment_len(fs: float, n_samples: int) -> int:
    """Coarse segment policy: about one second of samples, as a power of two,
    never longer than the signal."""
    target = 2 ** int(math.ceil(math.log2(fs)))
    while target > n_samples:
        target //= 2
    if target < 2:
        raise ValueError("signal too short for any power-of-two segment")
    return target


def _welch_frames(
    signal: np.ndarray,
    fs: float,
    segment_len: int,
    overlap_fraction: float,
    window: str,
) -> tuple[np.ndarray, float]:
    """Tapered Welch segments, one per row, and the density scale
    1/(fs * sum(w^2)) of one segment's squared transform."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    if fs <= 0:
        raise ValueError("fs must be positive")
    if not _is_pow2(segment_len):
        raise ValueError("segment_len must be a power of two")
    if segment_len > x.size:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one segment ({segment_len})"
        )
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    w = _window(window, segment_len)
    hop = max(1, int(round(segment_len * (1.0 - overlap_fraction))))
    frames = sliding_window_view(x, segment_len)[::hop] * w
    return frames, 1.0 / (fs * float(np.sum(w * w)))


def _one_sided_mean(power: np.ndarray, bins: np.ndarray, nfft: int) -> np.ndarray:
    """Average per-segment scaled powers (rows) and double every bin except
    DC and, for even nfft, Nyquist."""
    psd = power.sum(axis=0) / power.shape[0]
    psd[(bins > 0) & ((bins < nfft // 2) | (nfft % 2 == 1))] *= 2.0
    return psd


def welch_psd(
    signal: np.ndarray,
    fs: float,
    segment_len: int,
    overlap_fraction: float = 0.5,
    window: str = "hann",
    nfft: int | None = None,
) -> PowerSpectrum:
    """Averaged-periodogram PSD (one-sided, density scaling).

    Segments of ``segment_len`` samples (a power of two) advance by
    segment_len * (1 - overlap_fraction); each is tapered and transformed,
    and the squared magnitudes are averaged and scaled by 1/(fs * sum(w^2)).
    ``nfft`` >= segment_len zero-pads each segment, which refines the bin
    grid without changing the underlying spectral window.
    """
    frames, scale = _welch_frames(signal, fs, segment_len, overlap_fraction, window)
    if nfft is None:
        nfft = segment_len
    if nfft < segment_len:
        raise ValueError("nfft must be >= segment_len")
    spec = np.fft.rfft(frames, n=nfft, axis=-1)
    bins = np.arange(nfft // 2 + 1)
    psd = _one_sided_mean((spec.real**2 + spec.imag**2) * scale, bins, nfft)
    df = fs / nfft
    return PowerSpectrum(frequencies=bins * df, densities=psd, resolution_df=df)


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a transform size FFTs handle quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < n:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _chirp(q: np.ndarray, nfft: int) -> np.ndarray:
    """exp(-i * pi * q / nfft), with q reduced modulo 2 * nfft in integers so
    the phase stays exact however large q grows."""
    return np.exp(-1j * np.pi * (q % (2 * nfft)) / nfft)


def welch_zoom(
    signal: np.ndarray,
    fs: float,
    segment_len: int,
    nfft: int,
    bins: np.ndarray,
    window: str = "hann",
) -> np.ndarray:
    """Densities of ``welch_psd(..., nfft=nfft)`` (half-overlapping
    segments) at the consecutive grid indices ``bins`` only (equal to within
    FFT round-off).

    Each segment's zero-padded transform is evaluated on just those bins
    with Bluestein's chirp-z algorithm, one convolution of the
    segment length plus the bin count, instead of an ``nfft``-point FFT.
    """
    frames, scale = _welch_frames(signal, fs, segment_len, 0.5, window)
    if nfft < segment_len:
        raise ValueError("nfft must be >= segment_len")
    bins = np.asarray(bins, dtype=np.int64)
    m = bins.size
    if m == 0:
        return np.zeros(0)
    if bins[0] < 0 or bins[-1] > nfft // 2 or np.any(np.diff(bins) != 1):
        raise ValueError("bins must be consecutive indices of the one-sided grid")
    # X[k0 + j] = chirp(j^2) * sum_t frame[t] chirp(2 k0 t + t^2) conj(chirp((j - t)^2))
    t = np.arange(segment_len, dtype=np.int64)
    j = np.arange(m, dtype=np.int64)
    size = _fast_len(segment_len + m - 1)
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:m] = np.conj(_chirp(j * j, nfft))
    kernel[size - segment_len + 1 :] = np.conj(_chirp(t[:0:-1] ** 2, nfft))
    chirped = frames * _chirp(2 * bins[0] * t + t * t, nfft)
    conv = np.fft.ifft(np.fft.fft(chirped, n=size, axis=-1) * np.fft.fft(kernel), axis=-1)
    spec = conv[:, :m] * _chirp(j * j, nfft)
    return _one_sided_mean((spec.real**2 + spec.imag**2) * scale, bins, nfft)


def log_normalize(spectrum: PowerSpectrum) -> PowerSpectrum:
    """Map densities to [0, 1] via log compression then min-max scaling.

    The log offset is 1e-12 of the peak density, keeping the mapping
    invariant to overall scale.  A constant spectrum maps to all zeros.
    """
    d = spectrum.densities
    if np.any(d < 0):
        raise ValueError("densities must be non-negative")
    peak = float(d.max(initial=0.0))
    if peak == 0.0:
        values = np.zeros_like(d)
    else:
        logd = np.log(d + 1e-12 * peak)
        lo, hi = float(logd.min()), float(logd.max())
        values = np.zeros_like(d) if hi == lo else (logd - lo) / (hi - lo)
    return PowerSpectrum(
        frequencies=spectrum.frequencies.copy(),
        densities=values,
        resolution_df=spectrum.resolution_df,
        normalized=True,
    )


def resample(signal: np.ndarray, factor: float) -> np.ndarray:
    """Band-limited (windowed-sinc) resampling by a positive real factor.

    The output has round(len * factor) samples; read at the original sample
    rate it is the input stretched in time by ``factor``, so a tone at f
    appears at f / factor.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("signal must be a 1-D array of at least 2 samples")
    if not (factor > 0 and math.isfinite(factor)):
        raise ValueError("factor must be positive and finite")
    target = int(round(x.size * factor))
    if target < 1:
        raise ValueError("factor is too small for this signal length")
    if factor == 1.0:
        return x.copy()
    from scipy.signal import resample_poly  # heavy import, needed only here

    frac = Fraction(factor).limit_denominator(1000)
    y = resample_poly(x, frac.numerator, frac.denominator)
    if y.size >= target:
        return y[:target]
    return np.pad(y, (0, target - y.size))
