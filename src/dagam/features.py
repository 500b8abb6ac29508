"""Differential-entropy features from multichannel recordings.

Preprocessing follows the usual EEG recipe: integer-factor downsampling to
the working rate by spectral decimation (the trailing ``n % factor`` samples
are dropped), a wide band limit, then per-window, per-band differential
entropy under a Gaussian model: DE = 0.5 * ln(2 * pi * e * var). Band
isolation is DFT masking, chosen so analytic sinusoids are exact test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError

# Standard analysis bands in Hz: delta, theta, alpha, beta, gamma.
DEFAULT_BANDS = ((1.0, 4.0), (4.0, 8.0), (8.0, 14.0), (14.0, 31.0), (31.0, 50.0))

# Rate in Hz every recording is brought to before feature extraction, and the
# wide band limit in Hz applied there (SEED and SEED-IV preprocessing).
WORKING_RATE = 200.0
LIMIT_BAND = (1.0, 75.0)

# Sample-variance floor; keeps DE finite on constant windows.
VARIANCE_FLOOR = 1e-8


@dataclass
class Recording:
    """A multichannel signal (channels x time) with its provenance."""

    samples: np.ndarray
    rate: float
    subject: str
    trial: int
    label: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DataError(f"samples must be channels x time, got shape {self.samples.shape}")
        if not 0 < self.rate < np.inf:
            raise DataError(f"sampling rate must be positive and finite, got {self.rate}")
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


def downsample(rec: Recording, target: float) -> Recording:
    """Integer-factor spectral decimation; drops the trailing ``n % factor`` samples."""
    if not 0 < target < np.inf:
        raise ConfigError(f"target rate must be positive and finite, got {target}")
    ratio = rec.rate / target
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ConfigError(f"rate {rec.rate} is not an integer multiple of target {target}")
    if factor == 1:
        return Recording(rec.samples.copy(), target, rec.subject, rec.trial, rec.label)
    out_len = rec.n_samples // factor
    if out_len == 0:
        raise DataError(f"recording of {rec.n_samples} samples is shorter than the factor {factor}")
    spectrum = np.fft.rfft(rec.samples[:, : out_len * factor], axis=-1)
    # The new Nyquist bin itself aliases, so only bins strictly below it stay.
    decimated = np.fft.irfft(spectrum[:, : (out_len + 1) // 2], n=out_len, axis=-1) / factor
    return Recording(decimated, target, rec.subject, rec.trial, rec.label)


def band_isolate(signal: np.ndarray, lo: float, hi: float, rate: float) -> np.ndarray:
    """Keep only DFT bins with frequency in [lo, hi]; length is preserved.

    Works along the last axis, so a (channels, time) block is isolated in
    one call. Idempotent: reapplying the same band is a no-op up to
    round-trip rounding.
    """
    if not 0 <= lo < hi:
        raise ConfigError(f"band [{lo}, {hi}] is not a valid frequency range")
    if not hi <= rate / 2.0:
        raise ConfigError(f"band edge {hi} Hz exceeds the Nyquist frequency {rate / 2.0} Hz")
    signal = np.asarray(signal, dtype=np.float64)
    n = signal.shape[-1]
    spectrum = np.fft.rfft(signal, axis=-1)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spectrum[..., (freqs < lo) | (freqs > hi)] = 0.0
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
    return float(_gaussian_entropy(window.var(ddof=1)))


def extract_features(rec: Recording, bands, window_s: float) -> list[FeatureSample]:
    """Per-window node-feature matrices of shape (channels, len(bands)).

    Each non-overlapping window is band-isolated and reduced to its
    differential entropy, channel by channel; all windows of a band are
    isolated in one call. The recording must already be at the working rate.
    """
    if len(bands) == 0:
        raise ConfigError("need at least one frequency band")
    if not 0 < window_s < np.inf:
        raise ConfigError(f"window length must be positive and finite, got {window_s} s")
    width = int(round(window_s * rec.rate))
    if width < 2:
        raise ConfigError(f"window of {window_s} s at {rec.rate} Hz has {width} samples; need >= 2")
    n_windows = rec.n_samples // width
    if n_windows == 0:
        raise DataError(
            f"recording of {rec.n_samples} samples is shorter than one {width}-sample window"
        )
    windows = rec.samples[:, : n_windows * width].reshape(rec.n_channels, n_windows, width)
    variances = [band_isolate(windows, lo, hi, rec.rate).var(ddof=1, axis=-1) for lo, hi in bands]
    de = _gaussian_entropy(np.stack(variances, axis=-1)).transpose(1, 0, 2)  # (windows, C, bands)
    return [FeatureSample(x, rec.label, rec.subject) for x in de]


def prepare_recording(rec: Recording) -> Recording:
    """Downsample to WORKING_RATE, then keep only LIMIT_BAND."""
    out = downsample(rec, WORKING_RATE) if rec.rate != WORKING_RATE else rec
    limited = band_isolate(out.samples, *LIMIT_BAND, WORKING_RATE)
    return Recording(limited, WORKING_RATE, rec.subject, rec.trial, rec.label)
