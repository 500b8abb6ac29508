"""Differential-entropy features from multichannel recordings.

Preprocessing follows the SEED recipe: integer-factor downsampling to
WORKING_RATE (200 Hz) with the LIMIT_BAND (1-75 Hz) band limit, then
per-window, per-band differential entropy under a Gaussian model:
DE = 0.5 * ln(2 * pi * e * var). Downsampling and band limit are one
spectral pass: the raw-rate real spectrum, formed only at the bins that lie
in LIMIT_BAND (all strictly below the new Nyquist), and one irfft at
WORKING_RATE (the trailing ``n % factor`` samples are dropped). At an even
raw width that spectrum comes from one half-length complex FFT of the even
samples as real parts and the odd ones as imaginary parts; an odd width
takes a plain rfft. Either runs on FFT_BLOCK_ROWS channels at a time
through one reused buffer: a recording-sized raw spectrum would be freshly
mapped on each call, and faulting in its pages took 14-23 ms of system time
per 62 x 240000 recording. Band isolation is DFT masking, chosen so analytic
sinusoids are exact test oracles; bin k of a width-n spectrum sits at
k * rate / n Hz.

Feature extraction never forms the band-isolated windows: by Parseval, the
unbiased variance of a width-n window masked to a band is the sum over the
band's rfft bins of w_k * |X_k|^2, divided by n * (n - 1), with w_k = 0 for
the DC bin (the mean, which the variance removes), 1 for the Nyquist bin of
an even n, and 2 for every other bin (it stands for itself and its mirror).
``band_isolate`` + ``differential_entropy`` per window is the reference.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError

# Rate in Hz every recording is brought to before feature extraction, and the
# wide band limit in Hz applied there (SEED and SEED-IV preprocessing).
WORKING_RATE = 200.0
LIMIT_BAND = (1.0, 75.0)

# Sample-variance floor; keeps DE finite on constant windows.
VARIANCE_FLOOR = 1e-8

# Channels per block of downsample's raw-rate FFT, so a call holds one block's
# spectrum (and forms its bins while it is in cache) instead of a fresh
# spectrum of the whole recording. On 62 x 240000 recordings at 1000 Hz
# (shared 2-core Xeon VM, 1 BLAS thread, in one process, a new recording
# made before each call), downsample took 146, 140 and 143 ms (medians of
# 8) at 2, 4 and 8 rows, with no page fault in the call; 62 rows (one block)
# took 161 ms and 958 minor faults, and 1 row (62 FFT calls) 199 ms.
FFT_BLOCK_ROWS = 4


@dataclass
class Recording:
    """A multichannel signal (channels x time) with its provenance."""

    samples: np.ndarray
    rate: float
    subject: str
    trial: int
    label: int

    def __post_init__(self):
        # bool is a numbers.Real, so True would read as 1 Hz.
        rate_ok = isinstance(self.rate, numbers.Real) and not isinstance(self.rate, bool)
        if not rate_ok or not 0 < self.rate < np.inf:
            raise DataError(f"sampling rate must be a positive finite number, got {self.rate!r}")
        try:
            samples = np.asarray(self.samples)
        except (TypeError, ValueError) as err:
            raise DataError(f"samples must be a rectangular array of real numbers: {err}") from err
        # Casting would parse numeric strings, map bools to 0/1 and drop imaginary parts.
        if samples.dtype.kind not in "fiu":
            raise DataError(f"samples must be real numbers, got dtype {samples.dtype}")
        # C order gives every row the unit stride that downsample's complex view needs.
        self.samples = np.ascontiguousarray(samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DataError(f"samples must be channels x time, got shape {self.samples.shape}")
        if self.samples.shape[0] == 0:
            raise DataError("samples must have at least one channel")
        if not np.isfinite(self.samples).all():
            raise DataError("samples must be finite; found NaN or infinity")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class FeatureSample:
    """One analysis window: node features (channels x bands), label, subject."""

    x: np.ndarray
    label: int
    subject: str


def downsample(rec: Recording) -> Recording:
    """Integer-factor spectral decimation to WORKING_RATE, band-limited to LIMIT_BAND.

    Of the input-rate spectrum it keeps the bins that lie in LIMIT_BAND on
    the grid of the decimated width, and one irfft gives the result at
    WORKING_RATE. LIMIT_BAND ends below the new Nyquist, so no kept bin
    aliases at any factor. An even input width forms those bins from one
    half-length complex FFT (``_band_spectrum``), an odd one from a plain
    rfft, each in blocks of FFT_BLOCK_ROWS channels, so the only
    recording-wide temporaries are the working-rate spectrum and its irfft.
    The trailing ``n % factor`` samples are dropped. The kept bins are
    exactly those ``band_isolate`` keeps at WORKING_RATE, so at factor 1
    this equals ``band_isolate`` with LIMIT_BAND to rounding.
    """
    ratio = rec.rate / WORKING_RATE
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ConfigError(f"rate {rec.rate} Hz is not an integer multiple of {WORKING_RATE} Hz")
    out_len = rec.n_samples // factor
    if out_len == 0:
        raise DataError(f"recording of {rec.n_samples} samples is shorter than the factor {factor}")
    kept = np.flatnonzero(_in_band(out_len, WORKING_RATE, *LIMIT_BAND))
    spectrum = np.zeros((rec.n_channels, out_len // 2 + 1), dtype=np.complex128)
    if kept.size:
        raw = rec.samples[:, : out_len * factor]
        _band_spectrum(raw, kept[0], kept[-1] + 1, 1.0 / factor, spectrum)
    decimated = np.fft.irfft(spectrum, n=out_len, axis=-1)
    return Recording(decimated, WORKING_RATE, rec.subject, rec.trial, rec.label)


def _band_spectrum(x: np.ndarray, lo: int, hi: int, scale: float, out: np.ndarray) -> None:
    """Write bins [lo, hi) of ``scale * rfft(x)`` along the rows of ``x`` into ``out``.

    An even width n packs into n/2 complex points x[2m] + i x[2m+1], a view
    of unit-stride rows, and one complex FFT Z of them gives every real bin:
    X_k = a_k Z_(k mod h) + b_k conj(Z_((h-k) mod h)) with h = n/2,
    a_k = (1 - i w_k)/2, b_k = (1 + i w_k)/2 and w_k = exp(-2 pi i k / n)
    (Sorensen et al., IEEE TASSP 1987). An even width needs 0 < lo < hi <= h:
    bins 0 and h both mirror Z_0, and this forms neither. An odd width has
    no such packing and takes the plain rfft.

    Either transform runs on FFT_BLOCK_ROWS rows at a time into one reused
    buffer, and the block's bins are formed while it is still in cache, so a
    call holds one block's spectrum instead of the whole recording's.
    """
    n = x.shape[-1]
    h = n // 2
    odd = n % 2
    buf = np.empty((min(FFT_BLOCK_ROWS, len(x)), h + odd), dtype=np.complex128)
    if not odd:
        x = x.view(np.complex128)
        iw = 1j * np.exp(-2j * np.pi * np.arange(lo, hi) / n)
        direct, mirrored = (1.0 - iw) * (scale / 2.0), (1.0 + iw) * (scale / 2.0)
    for start in range(0, len(x), FFT_BLOCK_ROWS):
        rows = slice(start, start + FFT_BLOCK_ROWS)
        block, target = x[rows], out[rows, lo:hi]
        z = buf[: len(block)]
        if odd:
            np.fft.rfft(block, axis=-1, out=z)
            np.multiply(z[:, lo:hi], scale, out=target)
            continue
        np.fft.fft(block, axis=-1, out=z)
        np.multiply(z[:, lo:hi], direct, out=target)
        # These Z_k are read, so the mirror is conjugated and scaled inside z itself.
        mirror = z[:, h - hi + 1 : h - lo + 1][:, ::-1]
        np.conjugate(mirror, out=mirror)
        mirror *= mirrored
        target += mirror


def _in_band(n: int, rate: float, lo: float, hi: float) -> np.ndarray:
    """Mask of the n // 2 + 1 rfft bins of a width-n signal lying in [lo, hi] Hz.

    Bin k sits at k * rate / n, which is correctly rounded for an integer
    rate, so the Nyquist bin of an even width is exactly rate / 2
    (``np.fft.rfftfreq`` can land an ulp above it) and a band ending there
    keeps it.
    """
    freqs = np.arange(n // 2 + 1) * rate / n
    return (freqs >= lo) & (freqs <= hi)


def _check_band(lo: float, hi: float, rate: float) -> None:
    if not 0 <= lo < hi:
        raise ConfigError(f"band [{lo}, {hi}] is not a valid frequency range")
    if not hi <= rate / 2.0:
        raise ConfigError(f"band edge {hi} Hz exceeds the Nyquist frequency {rate / 2.0} Hz")


def band_isolate(signal: np.ndarray, lo: float, hi: float, rate: float) -> np.ndarray:
    """Keep only DFT bins with frequency in [lo, hi]; length is preserved.

    Works along the last axis, so a (channels, time) block is isolated in
    one call. Idempotent: reapplying the same band is a no-op up to
    round-trip rounding.
    """
    _check_band(lo, hi, rate)
    signal = np.asarray(signal, dtype=np.float64)
    n = signal.shape[-1]
    if n == 0:
        raise DataError("cannot band-isolate a signal of zero samples")
    spectrum = np.fft.rfft(signal, axis=-1)
    spectrum[..., ~_in_band(n, rate, lo, hi)] = 0.0
    return np.fft.irfft(spectrum, n=n, axis=-1)


def _gaussian_entropy(variance: np.ndarray) -> np.ndarray:
    return 0.5 * np.log(2.0 * np.pi * np.e * np.maximum(variance, VARIANCE_FLOOR))


def differential_entropy(window: np.ndarray) -> float:
    """0.5 * ln(2*pi*e * sample variance), variance floored at VARIANCE_FLOOR.

    The variance is the unbiased estimate, so the window needs at least
    two samples.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise DegenerateInputError(f"expected a 1-D window, got shape {window.shape}")
    if window.size < 2:
        raise DegenerateInputError(f"window of length {window.size} has no sample variance")
    if not np.isfinite(window).all():
        raise DataError("window must be finite; found NaN or infinity")
    return float(_gaussian_entropy(window.var(ddof=1)))


def extract_features(rec: Recording, bands, window_s: float) -> list[FeatureSample]:
    """Per-window node-feature matrices of shape (channels, len(bands)).

    Each non-overlapping window is reduced, channel by channel, to the
    differential entropy of its content in each band, whose variance comes
    from the window's power spectrum by Parseval (see the module docstring):
    one rfft covers every window, and one product with a (bins, bands)
    weight matrix gives every band. Any rate works: the bands are checked
    against the recording's own Nyquist, and ``window_s`` must span a whole
    number of samples at that rate (within 1e-9), else ConfigError.
    """
    if len(bands) == 0:
        raise ConfigError("need at least one frequency band")
    for lo, hi in bands:
        _check_band(lo, hi, rec.rate)
    if isinstance(window_s, bool) or not 0 < window_s < np.inf:
        raise ConfigError(f"window length must be positive and finite, got {window_s} s")
    span = window_s * rec.rate
    width = int(round(span))
    if abs(span - width) > 1e-9:
        raise ConfigError(f"window of {window_s} s at {rec.rate} Hz is not a whole number of samples")
    if width < 2:
        raise ConfigError(f"window of {window_s} s at {rec.rate} Hz has {width} samples; need >= 2")
    n_windows = rec.n_samples // width
    if n_windows == 0:
        raise DataError(
            f"recording of {rec.n_samples} samples is shorter than one {width}-sample window"
        )
    windows = rec.samples[:, : n_windows * width].reshape(rec.n_channels, n_windows, width)
    spectrum = np.fft.rfft(windows, axis=-1)
    power = spectrum.real**2 + spectrum.imag**2
    bin_weight = np.full(width // 2 + 1, 2.0)
    bin_weight[0] = 0.0
    if width % 2 == 0:
        bin_weight[-1] = 1.0
    weights = np.stack([bin_weight * _in_band(width, rec.rate, lo, hi) for lo, hi in bands], axis=-1)
    variances = power @ (weights / (width * (width - 1)))
    de = _gaussian_entropy(variances).transpose(1, 0, 2)  # (windows, C, bands)
    return [FeatureSample(x, rec.label, rec.subject) for x in de]


def prepare_recording(rec: Recording) -> Recording:
    """Bring ``rec`` to WORKING_RATE limited to LIMIT_BAND in one spectral pass.

    All of it happens inside ``downsample``.
    """
    return downsample(rec)
