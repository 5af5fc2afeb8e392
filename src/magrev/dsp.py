"""Delay-and-sum enhancement and PSD utilities.

:func:`delay_and_sum` divides each channel's spectrum by a background
capture's magnitudes, floored at 1 so quiet bins pass untouched, then aligns
the channels to the first by a block-wise cross-correlation and sums them.
Welch power spectra feed the detector and estimator stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sensor_io import write_table
from .signals import SensorTrace

SPECTRAL_FLOOR = 1.0

# every window is a sum of cosines, w[t] = sum_c a_c * cos(2 pi c t / n);
# these are the a_c
_COSINE_TERMS = {
    "hann": (0.5, -0.5),
    "hamming": (0.54, -0.46),
    "blackman": (0.42, -0.5, 0.08),
    "rectangular": (1.0,),
}


@dataclass
class NoiseReference:
    """Magnitude spectrum of a background capture, one value per rfft bin."""

    magnitudes: np.ndarray

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


@dataclass
class PowerSpectrum:
    """One-sided PSD on a uniform frequency grid."""

    frequencies: np.ndarray
    densities: np.ndarray
    resolution_df: float

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


def _denoised(channels: np.ndarray, reference: NoiseReference) -> np.ndarray:
    """Each channel (the last axis) with its spectrum divided by the floored
    background magnitudes.  A reference at or below the floor in every bin
    divides by exactly 1, so the channels come back as they are."""
    if channels.shape[-1] < 2:
        raise ValueError("channels need at least two samples")
    expected = channels.shape[-1] // 2 + 1
    if reference.n_bins != expected:
        raise ValueError(
            f"noise reference has {reference.n_bins} bins, signal needs {expected}"
        )
    if np.all(reference.magnitudes <= SPECTRAL_FLOOR):
        return channels
    spectra = np.fft.rfft(channels, axis=-1) / np.maximum(reference.magnitudes, SPECTRAL_FLOOR)
    return np.fft.irfft(spectra, n=channels.shape[-1], axis=-1)


def _block_spectra(x: np.ndarray, lead: int, width: int, block: int, size: int) -> np.ndarray:
    """``size``-point rffts of x[j * block - lead :][:width] for every block
    j of x, reading zeros outside x."""
    count = -(-x.size // block)
    padded = np.zeros((count - 1) * block + width)
    padded[lead : lead + x.size] = x
    return np.fft.rfft(sliding_window_view(padded, width)[::block], n=size, axis=-1)


def _lag_search(b: np.ndarray, max_lag: int):
    """The function ``a -> estimate_delay(a, b, max_lag)``.

    ``b`` is cut into blocks and transformed once.  Each block meets the
    stretch of ``a`` that the lags reach in one power-of-two transform long
    enough that nothing wraps; the cross spectra, summed over blocks, go
    through one short inverse (sectioned correlation, Stockham 1966).
    """
    if not 0 <= max_lag < b.size // 2:
        raise ValueError("max_lag must satisfy 0 <= max_lag < len/2")
    k = max_lag
    # transforms of 8k to 16k points, or one block for a short signal
    block = min((1 << max(6, (8 * k).bit_length())) - 2 * k, b.size)
    size = 1 << (block + 2 * k - 1).bit_length()
    ref = np.conj(_block_spectra(b, 0, block, block, size))

    def best(a: np.ndarray) -> int:
        if not (np.any(a) and np.any(b)):
            raise ValueError("cannot estimate a delay from zero-energy input")
        cross = (_block_spectra(a, k, block + 2 * k, block, size) * ref).sum(axis=0)
        window = np.fft.irfft(cross, n=size)[: 2 * k + 1]
        tolerance = 1e-12 * math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
        hits = np.flatnonzero(window >= window.max() - tolerance) - k
        return int(min(hits, key=lambda lag: (abs(int(lag)), int(lag))))

    return best


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
    return _lag_search(b, max_lag)(a)


def shift_signal(x: np.ndarray, lag: int) -> np.ndarray:
    """Return x advanced by ``lag`` samples (out[t] = x[t + lag]), zero-filled
    at the edges."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    kept = x.size - abs(lag)
    if kept > 0:
        out[max(-lag, 0) :][:kept] = x[max(lag, 0) :][:kept]
    return out


def delay_and_sum(
    trace: SensorTrace, reference: NoiseReference, max_lag: int
) -> np.ndarray:
    """Denoise every channel, align each to channel 0, and sum.

    Denoising divides only magnitudes, so each channel's phase is kept
    exactly.  A single-channel trace returns its denoised channel, in a
    fresh array even when the reference leaves it as it is.  Coherent content
    gains a factor of n_channels in amplitude while independent noise gains
    only sqrt(n_channels).  A reference at the floor skips the transforms,
    and channel 0 is transformed once for every other channel's lag search.
    """
    denoised = _denoised(trace.channels, reference)
    out = denoised[0].copy()
    if trace.n_channels > 1:
        best_lag = _lag_search(denoised[0], max_lag)
        for channel in denoised[1:]:
            out += shift_signal(channel, best_lag(channel))
    return out


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def _window(name: str, n: int) -> np.ndarray:
    if name not in _COSINE_TERMS:
        raise ValueError(f"unknown window '{name}' (choose from {tuple(_COSINE_TERMS)})")
    terms = _COSINE_TERMS[name]
    k = np.arange(n)
    w = np.full(n, terms[0])
    for c, a in enumerate(terms[1:], 1):
        w = w + a * np.cos(2.0 * c * np.pi * k / n)
    return w


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


def _welch_setup(
    signal: np.ndarray,
    fs: float,
    segment_len: int,
    overlap_fraction: float,
    window: str,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """The checked signal, the window, the hop between segment starts, and
    the density scale 1/(fs * sum(w^2)) of one segment's squared transform."""
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
    return x, w, hop, 1.0 / (fs * float(np.sum(w * w)))


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
    x, w, hop, scale = _welch_setup(signal, fs, segment_len, overlap_fraction, window)
    if nfft is None:
        nfft = segment_len
    if nfft < segment_len:
        raise ValueError("nfft must be >= segment_len")
    spec = np.fft.rfft(sliding_window_view(x, segment_len)[::hop] * w, n=nfft, axis=-1)
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
    FFT round-off); ``nfft`` must be a multiple of ``segment_len``.

    Half-overlapping segments are pairs of neighbouring half-length blocks,
    so each block is transformed once: Bluestein's chirp-z algorithm
    evaluates its zero-padded transform on just the requested bins, one
    convolution of the block length plus the bin count instead of an
    ``nfft``-point FFT.  A segment's plain transform is its first block's
    plus the second's times the phase of half a segment.  Every window is a
    sum of cosines of whole periods over the segment, and each cosine is a
    pair of shifts by a multiple of ``nfft / segment_len`` bins, so the
    tapered transform is a few shifted copies of the plain one; the blocks
    are transformed that many bins beyond the requested ones on each side.
    """
    x, _, hop, scale = _welch_setup(signal, fs, segment_len, 0.5, window)
    if nfft < segment_len or nfft % segment_len:
        raise ValueError("nfft must be a positive multiple of segment_len")
    bins = np.asarray(bins, dtype=np.int64)
    m = bins.size
    if m == 0:
        return np.zeros(0)
    if bins[0] < 0 or bins[-1] > nfft // 2 or np.any(np.diff(bins) != 1):
        raise ValueError("bins must be consecutive indices of the one-sided grid")
    terms = _COSINE_TERMS[window]
    gamma = nfft // segment_len
    reach = (len(terms) - 1) * gamma
    width = m + 2 * reach
    first = int(bins[0]) - reach
    # the n_frames + 1 blocks, block f + 1 starting where frame f's second half does
    blocks = x[: x.size // hop * hop].reshape(-1, hop)
    # B[k0 + j] = chirp(j^2) * sum_t block[t] chirp(2 k0 t + t^2) conj(chirp((j - t)^2))
    t = np.arange(hop, dtype=np.int64)
    j = np.arange(width, dtype=np.int64)
    size = _fast_len(hop + width - 1)
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:width] = np.conj(_chirp(j * j, nfft))
    kernel[size - hop + 1 :] = np.conj(_chirp(t[:0:-1] ** 2, nfft))
    conv = np.fft.fft(blocks * _chirp(2 * first * t + t * t, nfft), n=size, axis=-1)
    conv *= np.fft.fft(kernel)
    spec = np.fft.ifft(conv, axis=-1)[:, :width] * _chirp(j * j, nfft)
    # each rectangular frame: its first block plus the second delayed by hop
    plain = spec[:-1] + _chirp(2 * hop * (first + j), nfft) * spec[1:]
    taper = terms[0] * plain[:, reach : reach + m]
    for c, a in enumerate(terms[1:], 1):
        below = plain[:, reach - c * gamma :][:, :m]
        above = plain[:, reach + c * gamma :][:, :m]
        taper += 0.5 * a * (below + above)
    return _one_sided_mean((taper.real**2 + taper.imag**2) * scale, bins, nfft)


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
    )


def resample(signal: np.ndarray, factor: float) -> np.ndarray:
    """Band-limited resampling by a positive real factor, in the Fourier
    domain: the input's spectrum is zero-padded or truncated to the output
    length, so the input is treated as one period of a periodic signal.

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
    return np.fft.irfft(np.fft.rfft(x), n=target) * (target / x.size)
