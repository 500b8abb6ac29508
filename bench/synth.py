"""Seeded synthetic inputs for the benchmark: raw recordings and DE batches.

One generative model feeds both. Each subject has a covariate shift made of
per-channel gains, per-band power offsets and per-channel noise floors. Each
emotion class raises or lowers band power over a few scalp regions. The raw
generator turns band powers into a 1000 Hz spectrum with random phases; the
DE generator takes the Gaussian differential entropy of the same band powers
and adds window-to-window jitter, then standardises each subject.

Only numpy is used here: the program under test receives nothing but the
arrays these functions return. The same seed always yields the same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# SEED-style analysis bands in Hz (delta, theta, alpha, beta, gamma).
BANDS = ((1.0, 4.0), (4.0, 8.0), (8.0, 14.0), (14.0, 31.0), (31.0, 50.0))
N_CLASSES = 3  # negative, neutral, positive
# Band power at the reference gain, falling roughly as 1/f.
BASE_POWER = np.array([8.0, 4.0, 3.0, 1.5, 0.6])
# Log-power shift a class applies over its regions; large enough that a
# classifier learns it within a few dozen steps.
CLASS_EFFECT = 0.6
# Window-to-window standard deviation of DE around its expected value.
DE_JITTER = 0.25
# Raw-spectrum bins above this get a fixed random spectrum; see RawGenerator.
KEEP_HZ = 100.0


@dataclass(frozen=True)
class Subject:
    """One subject's covariate shift relative to the population."""

    gain: np.ndarray  # (channels,) amplitude gains
    band_offset: np.ndarray  # (bands,) log-power offsets
    floor: np.ndarray  # (channels,) noise floor, power per Hz


def regions(positions: np.ndarray) -> dict[str, np.ndarray]:
    """Boolean channel masks for coarse scalp regions from (N, 3) coordinates.

    Axes follow the montage convention: +x right ear, +y nose, +z vertex.
    """
    radius = float(np.linalg.norm(positions, axis=1).max())
    x, y = positions[:, 0] / radius, positions[:, 1] / radius
    return {
        "frontal": y > 0.35,
        "posterior": y < -0.35,
        "left_temporal": (x < -0.6) & (np.abs(y) <= 0.5),
        "right_temporal": (x > 0.6) & (np.abs(y) <= 0.5),
    }


def class_patterns(positions: np.ndarray) -> np.ndarray:
    """Log-power shifts of shape (classes, channels, bands).

    Negative emotion raises frontal alpha and lowers posterior beta; neutral
    is the baseline; positive raises lateral-temporal beta and gamma.
    """
    mask = regions(positions)
    out = np.zeros((N_CLASSES, positions.shape[0], len(BANDS)))
    out[0, mask["frontal"], 2] += CLASS_EFFECT
    out[0, mask["posterior"], 3] -= CLASS_EFFECT
    lateral = mask["left_temporal"] | mask["right_temporal"]
    out[2, lateral, 3] += CLASS_EFFECT
    out[2, lateral, 4] += CLASS_EFFECT
    return out


def make_subjects(rng: np.random.Generator, n_subjects: int, n_channels: int) -> list[Subject]:
    return [
        Subject(
            gain=rng.lognormal(0.0, 0.3, n_channels),
            band_offset=rng.normal(0.0, 0.3, len(BANDS)),
            floor=rng.lognormal(math.log(0.02), 0.3, n_channels),
        )
        for _ in range(n_subjects)
    ]


def band_power(subject: Subject, pattern: np.ndarray) -> np.ndarray:
    """Signal power per (channel, band) before gain and noise floor."""
    return BASE_POWER * np.exp(subject.band_offset + pattern)


class RawGenerator:
    """Raw multichannel recordings at ``rate`` Hz, one trial at a time.

    Bins up to KEEP_HZ get fresh random phases and amplitudes per
    recording. Bins above it carry the noise floor with a spectrum that is
    fixed for the generator's life: downsampling to the working rate removes
    that content, so it only has to be present, and drawing it once keeps
    generation far cheaper than the processing it feeds.
    """

    def __init__(
        self,
        seed: int,
        positions: np.ndarray,
        seconds: float,
        rate: float,
        n_subjects: int,
    ):
        self.rng = np.random.default_rng([seed, 1])
        self.rate = rate
        self.n_samples = int(round(seconds * rate))
        self.n_channels = positions.shape[0]
        self.subjects = make_subjects(self.rng, n_subjects, self.n_channels)
        self.patterns = class_patterns(positions)
        freqs = np.fft.rfftfreq(self.n_samples, d=1.0 / rate)
        self.n_low = int(np.searchsorted(freqs, KEEP_HZ, side="right"))
        low = freqs[: self.n_low]
        self.band_of_bin = np.full(self.n_low, -1)
        self.band_width = np.empty(len(BANDS))
        for b, (lo, hi) in enumerate(BANDS):
            inside = (low >= lo) & (low < hi)
            self.band_of_bin[inside] = b
            self.band_width[b] = hi - lo
        n_high = freqs.size - self.n_low
        self.high = self.rng.standard_normal(n_high) + 1j * self.rng.standard_normal(n_high)
        self.count = 0

    def next(self) -> tuple[np.ndarray, str, int, int]:
        """(samples (channels, time), subject id, trial number, label)."""
        s = int(self.rng.integers(len(self.subjects)))
        label = int(self.rng.integers(N_CLASSES))
        subject = self.subjects[s]
        density = band_power(subject, self.patterns[label]) / self.band_width  # power per Hz
        # Per-bin power per Hz: band density where a band covers the bin, plus the floor.
        per_bin = np.where(
            self.band_of_bin >= 0, density[:, np.maximum(self.band_of_bin, 0)], 0.0
        )
        per_bin += subject.floor[:, None]
        amp = subject.gain[:, None] * np.sqrt(per_bin)
        spectrum = np.empty((self.n_channels, self.n_samples // 2 + 1), dtype=np.complex128)
        noise = self.rng.standard_normal((2, self.n_channels, self.n_low))
        spectrum[:, : self.n_low].real = amp * noise[0]
        spectrum[:, : self.n_low].imag = amp * noise[1]
        spectrum[:, self.n_low :] = self.high * (subject.gain * np.sqrt(subject.floor))[:, None]
        spectrum[:, 0] = 0.0
        # Scale so a bin's expected power per Hz is independent of length.
        spectrum *= math.sqrt(self.n_samples * self.rate / 4.0)
        samples = np.fft.irfft(spectrum, n=self.n_samples, axis=-1)
        self.count += 1
        return samples, f"s{s:02d}", self.count, label


@dataclass(frozen=True)
class DESet:
    """Standardised DE features with labels and subject indices."""

    x: np.ndarray  # (samples, channels, bands)
    label: np.ndarray  # (samples,)
    subject: np.ndarray  # (samples,)


def de_dataset(seed: int, positions: np.ndarray, n_subjects: int, per_class: int) -> DESet:
    """DE samples for each subject and class, standardised per subject.

    DE is 0.5 * ln(2*pi*e * power) of the gained band power plus the floor
    over the band, with Gaussian jitter per window. Each subject's features
    are z-scored per (channel, band) over all of its windows.
    """
    rng = np.random.default_rng([seed, 2])
    n_channels = positions.shape[0]
    subjects = make_subjects(rng, n_subjects, n_channels)
    patterns = class_patterns(positions)
    width = np.array([hi - lo for lo, hi in BANDS])
    xs, labels, owners = [], [], []
    for s, subject in enumerate(subjects):
        block = []
        for c in range(N_CLASSES):
            power = subject.gain[:, None] ** 2 * (
                band_power(subject, patterns[c]) + subject.floor[:, None] * width
            )
            mean = 0.5 * np.log(2.0 * np.pi * np.e * power)
            block.append(mean + DE_JITTER * rng.standard_normal((per_class, n_channels, len(BANDS))))
            labels.append(np.full(per_class, c))
        block = np.concatenate(block)
        block = (block - block.mean(axis=0)) / block.std(axis=0)
        xs.append(block)
        owners.append(np.full(block.shape[0], s))
    return DESet(np.concatenate(xs), np.concatenate(labels), np.concatenate(owners))
