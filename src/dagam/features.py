"""Differential-entropy features from multichannel recordings.

Preprocessing follows the usual EEG recipe: integer-factor downsampling to
the working rate with a wide band limit, then per-window, per-band
differential entropy under a Gaussian model: DE = 0.5 * ln(2 * pi * e * var).
Downsampling and band limit are one spectral pass: one rfft at the raw rate,
truncation to the bins strictly below the new Nyquist, zeroing of the kept
bins outside the band, and one irfft at the working rate (the trailing
``n % factor`` samples are dropped). Band isolation is DFT masking, chosen
so analytic sinusoids are exact test oracles; bin k of a width-n spectrum
sits at k * rate / n Hz.

Feature extraction never forms the band-isolated windows: by Parseval, the
unbiased variance of a width-n window masked to a band is the sum over the
band's rfft bins of w_k * |X_k|^2, divided by n * (n - 1), with w_k = 0 for
the DC bin (the mean, which the variance removes), 1 for the Nyquist bin of
an even n, and 2 for every other bin (it stands for itself and its mirror).
``band_isolate`` + ``differential_entropy`` per window is the reference.
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


def downsample(rec: Recording, target: float, band: tuple[float, float]) -> Recording:
    """Integer-factor spectral decimation, band-limited to ``band`` in the same pass.

    One rfft at the input rate keeps the bins strictly below the new Nyquist
    (every bin at factor 1), zeroes the kept bins outside ``band`` = (lo, hi)
    Hz, and one irfft gives the result at ``target``. The trailing
    ``n % factor`` samples are dropped. The band keeps exactly the bins
    ``band_isolate`` keeps at ``target``, so at factor 1 this is
    ``band_isolate``. A band of (0, target / 2) limits nothing beyond the
    decimation itself.
    """
    if not 0 < target < np.inf:
        raise ConfigError(f"target rate must be positive and finite, got {target}")
    _check_band(*band, target)
    ratio = rec.rate / target
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ConfigError(f"rate {rec.rate} is not an integer multiple of target {target}")
    out_len = rec.n_samples // factor
    if out_len == 0:
        raise DataError(f"recording of {rec.n_samples} samples is shorter than the factor {factor}")
    spectrum = np.fft.rfft(rec.samples[:, : out_len * factor], axis=-1)
    # Past factor 1 the new Nyquist bin itself aliases, so only bins strictly below it stay.
    kept = spectrum[:, : out_len // 2 + 1 if factor == 1 else (out_len + 1) // 2]
    kept[:, ~_in_band(out_len, target, *band)[: kept.shape[-1]]] = 0.0
    decimated = np.fft.irfft(kept, n=out_len, axis=-1) / factor
    return Recording(decimated, target, rec.subject, rec.trial, rec.label)


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
    if not 0 < window_s < np.inf:
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

    One raw-rate rfft, truncation below the new Nyquist, the LIMIT_BAND mask
    and one irfft at WORKING_RATE, all inside ``downsample``.
    """
    return downsample(rec, WORKING_RATE, LIMIT_BAND)
