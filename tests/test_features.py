"""Downsampling, band isolation, and differential entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import traced_peak_bytes
from dagam import features
from dagam.errors import ConfigError, DataError, DegenerateInputError
from dagam.features import (
    FFT_BLOCK_ROWS,
    LIMIT_BAND,
    VARIANCE_FLOOR,
    WORKING_RATE,
    Recording,
    band_isolate,
    differential_entropy,
    downsample,
    extract_features,
    prepare_recording,
)


# Standard analysis bands in Hz: delta, theta, alpha, beta, gamma.
DEFAULT_BANDS = ((1.0, 4.0), (4.0, 8.0), (8.0, 14.0), (14.0, 31.0), (31.0, 50.0))


def sine(freq, rate, seconds, channels=1):
    t = np.arange(int(rate * seconds)) / rate
    wave = np.sin(2 * np.pi * freq * t)
    return np.tile(wave, (channels, 1))


# A power-of-two rate, and the working rate, at which k * rate / n is inexact
# at most widths; at both, a band ending at rate / 2 keeps the Nyquist bin.
PROPERTY_RATES = (128.0, 200.0)


@st.composite
def widths_and_bands(draw):
    """A rate, a window width in 2..64 and bands with edges on and between DFT bins.

    The first band is [0, rate / 2]: it keeps the DC bin and, at an even
    width, the Nyquist bin.
    """
    rate = draw(st.sampled_from(PROPERTY_RATES))
    width = draw(st.integers(2, 64))
    nyquist = rate / 2.0
    freqs = (np.arange(width // 2 + 1) * rate / width).tolist()
    edge = st.one_of(st.sampled_from(freqs), st.floats(0.0, nyquist))
    bands = [(0.0, nyquist)]
    for a, b in draw(st.lists(st.tuples(edge, edge), max_size=4)):
        if a != b:
            bands.append((min(a, b), max(a, b)))
    return rate, width, bands


@st.composite
def decimations(draw):
    """A factor in {1, 2, 5} and a raw width of either parity, with and without ``n % factor``."""
    factor = draw(st.sampled_from((1, 2, 5)))
    return factor, draw(st.integers(factor, 300))


def test_limit_band_lies_strictly_inside_the_working_nyquist():
    # downsample keeps no rule of its own for the new Nyquist bin (it aliases
    # past factor 1), and _band_spectrum forms neither bin 0 nor bin n/2 of an
    # even width: both rest on LIMIT_BAND excluding 0 Hz and WORKING_RATE / 2.
    assert 0 < LIMIT_BAND[0] < LIMIT_BAND[1] < WORKING_RATE / 2


class TestDownsample:
    @settings(max_examples=80, deadline=None)
    @given(case=decimations(), channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_spectral_composition(self, case, channels, seed):
        # rfft at the raw rate, the bins below the new Nyquist (every bin at
        # factor 1), the LIMIT_BAND mask, and irfft at the working rate over factor.
        factor, n = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((channels, n)) + rng.uniform(-5.0, 5.0)
        out = downsample(Recording(x, WORKING_RATE * factor, "s0", 0, 0))
        out_len = n // factor
        n_kept = out_len // 2 + 1 if factor == 1 else (out_len + 1) // 2
        freqs = np.arange(n_kept) * WORKING_RATE / out_len
        kept = np.fft.rfft(x[:, : out_len * factor], axis=-1)[:, :n_kept]
        kept *= (freqs >= LIMIT_BAND[0]) & (freqs <= LIMIT_BAND[1])
        ref = np.fft.irfft(kept, n=out_len, axis=-1) / factor
        np.testing.assert_allclose(out.samples, ref, rtol=0, atol=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("n", [50000, 50003])
    def test_makes_no_copy_of_the_recording(self, n):
        rec = Recording(np.random.default_rng(n).standard_normal((8, n)), 1000.0, "s0", 0, 0)
        peak = traced_peak_bytes(lambda: downsample(rec))
        assert peak < 1.5 * rec.samples.nbytes

    @pytest.mark.parametrize("n", [50000, 50003])
    def test_holds_less_than_the_recording(self, n):
        # The raw-rate FFT runs in channel blocks, so no full-size raw spectrum
        # (as large as the recording at an even width) is ever allocated.
        rec = Recording(np.random.default_rng(n).standard_normal((62, n)), 1000.0, "s0", 0, 0)
        peak = traced_peak_bytes(lambda: downsample(rec))
        assert peak < rec.samples.nbytes

    @pytest.mark.parametrize("n", [3000, 3005])
    @pytest.mark.parametrize("channels", [1, FFT_BLOCK_ROWS, FFT_BLOCK_ROWS + 1, 62])
    def test_blocks_equal_each_channel_alone(self, channels, n):
        x = np.random.default_rng(channels * n).standard_normal((channels, n))
        out = downsample(Recording(x, 1000.0, "s0", 0, 0))
        alone = [downsample(Recording(row[None, :], 1000.0, "s0", 0, 0)).samples for row in x]
        assert np.array_equal(out.samples, np.concatenate(alone))

    def test_fortran_ordered_recording_equals_its_c_copy(self):
        x = np.asfortranarray(np.random.default_rng(6).standard_normal((4, 1000)))
        out = downsample(Recording(x, 1000.0, "s0", 0, 0))
        ref = downsample(Recording(np.ascontiguousarray(x), 1000.0, "s0", 0, 0))
        np.testing.assert_array_equal(out.samples, ref.samples)

    def test_1000_to_200_keeps_every_fifth_sample_count(self):
        rec = Recording(np.zeros((2, 1000)), 1000.0, "s0", 0, 0)
        out = downsample(rec)
        assert out.rate == 200.0
        assert out.n_samples == 200

    def test_below_nyquist_sine_preserved(self):
        rec = Recording(sine(10, 1000, 1.0), 1000.0, "s0", 0, 0)
        out = downsample(rec)
        expected = sine(10, 200, 1.0)
        # amplitude preserved within 1%
        assert abs(out.samples.max() - expected.max()) < 0.01
        np.testing.assert_allclose(out.samples, expected, atol=1e-9)

    def test_non_integer_ratio_rejected(self):
        rec = Recording(np.zeros((1, 300)), 300.0, "s0", 0, 0)
        with pytest.raises(ConfigError):
            downsample(rec)

    def test_slower_than_the_working_rate_rejected(self):
        # 100 / 200 rounds to factor 0.
        rec = Recording(np.zeros((1, 1000)), 100.0, "s0", 0, 0)
        with pytest.raises(ConfigError):
            downsample(rec)

    def test_above_new_nyquist_content_removed(self):
        rec = Recording(sine(150, 1000, 1.0), 1000.0, "s0", 0, 0)
        out = downsample(rec)
        assert np.abs(out.samples).max() < 1e-9

    def test_content_at_exactly_the_new_nyquist_removed(self):
        # A 100 Hz cosine decimated to 200 Hz would alias to +-1 every sample.
        t = np.arange(1000) / 1000.0
        rec = Recording(np.cos(2 * np.pi * 100.0 * t)[None, :], 1000.0, "s0", 0, 0)
        out = downsample(rec)
        assert np.abs(out.samples).max() < 1e-9

    @pytest.mark.parametrize("n", [1000, 1005])
    def test_equals_masking_then_keeping_every_fifth_sample(self, n):
        x = np.random.default_rng(n).standard_normal((3, n))
        out = downsample(Recording(x, 1000.0, "s0", 0, 0))
        masked = band_isolate(x, *LIMIT_BAND, 1000.0)
        np.testing.assert_allclose(out.samples, masked[:, ::5], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, kept", [(1003, 1000), (997, 995)])
    def test_trailing_remainder_dropped(self, n, kept):
        x = np.random.default_rng(n).standard_normal((2, n))
        out = downsample(Recording(x, 1000.0, "s0", 0, 0))
        head = downsample(Recording(x[:, :kept], 1000.0, "s0", 0, 0))
        assert out.n_samples == kept // 5
        np.testing.assert_array_equal(out.samples, head.samples)

    def test_shorter_than_factor_rejected(self):
        rec = Recording(np.zeros((1, 4)), 1000.0, "s0", 0, 0)
        with pytest.raises(DataError):
            downsample(rec)


class TestBandIsolate:
    def test_in_band_sine_preserved(self):
        x = sine(10, 200, 2.0)[0]
        y = band_isolate(x, 8.0, 12.0, 200.0)
        assert np.linalg.norm(y - x) / np.linalg.norm(x) < 1e-6

    def test_out_of_band_sine_removed(self):
        x = sine(10, 200, 2.0)[0]
        y = band_isolate(x, 20.0, 30.0, 200.0)
        assert np.linalg.norm(y) < 1e-6 * np.linalg.norm(x)

    def test_dc_removed_by_one_hertz_cutoff(self):
        x = np.full(400, 3.0)
        y = band_isolate(x, 1.0, 75.0, 200.0)
        assert np.abs(y).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        once = band_isolate(x, 8.0, 14.0, 200.0)
        twice = band_isolate(once, 8.0, 14.0, 200.0)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            band_isolate(np.zeros(100), 1.0, 101.0, 200.0)

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError):
            band_isolate(np.zeros(100), 12.0, 8.0, 200.0)

    @pytest.mark.parametrize(
        "lo, hi, rate", [(math.nan, 10.0, 200.0), (1.0, math.nan, 200.0), (1.0, 10.0, math.nan)]
    )
    def test_nan_band_or_rate_rejected(self, lo, hi, rate):
        with pytest.raises(ConfigError):
            band_isolate(np.zeros(100), lo, hi, rate)

    def test_empty_signal_rejected(self):
        with pytest.raises(DataError):
            band_isolate(np.zeros((3, 0)), 1.0, 10.0, 200.0)

    def test_full_range_is_identity_at_every_even_width(self):
        # [0, rate / 2] must keep the Nyquist bin, which sits at exactly 100 Hz.
        rng = np.random.default_rng(8)
        for width in range(2, 65, 2):
            x = rng.standard_normal(width)
            y = band_isolate(x, 0.0, 100.0, 200.0)
            np.testing.assert_allclose(y, x, rtol=0, atol=1e-12, err_msg=f"width {width}")


class TestDifferentialEntropy:
    def test_zero_at_reference_variance(self):
        # Two-point window with unbiased variance exactly 1/(2*pi*e).
        a = math.sqrt(1.0 / (4.0 * math.pi * math.e))
        assert abs(differential_entropy(np.array([-a, a]))) < 1e-12

    def test_unit_variance_closed_form(self):
        a = math.sqrt(0.5)
        expected = 0.5 * math.log(2.0 * math.pi * math.e)
        assert differential_entropy(np.array([-a, a])) == pytest.approx(expected, abs=1e-12)
        assert abs(expected - 1.4189) < 1e-4

    def test_monte_carlo_gaussian(self):
        rng = np.random.default_rng(2024)
        samples = rng.normal(0.0, 2.0, 100_000)
        expected = 0.5 * math.log(2.0 * math.pi * math.e * 4.0)
        assert abs(expected - 2.1121) < 1e-4
        assert abs(differential_entropy(samples) - expected) < 0.01

    def test_constant_window_hits_floor(self):
        de = differential_entropy(np.full(100, 7.0))
        expected = 0.5 * math.log(2.0 * math.pi * math.e * 1e-8)
        assert de == pytest.approx(expected)

    def test_too_short_window_rejected(self):
        with pytest.raises(DegenerateInputError):
            differential_entropy(np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_rejected(self, bad):
        with pytest.raises(DataError):
            differential_entropy(np.array([1.0, bad, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-50.0, 50.0))
    def test_shift_invariance(self, seed, shift):
        x = np.random.default_rng(seed).standard_normal(64)
        assert differential_entropy(x + shift) == pytest.approx(
            differential_entropy(x), abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 100.0))
    def test_scaling_law(self, seed, scale):
        x = np.random.default_rng(seed).standard_normal(64)
        expected = differential_entropy(x) + math.log(scale)
        assert differential_entropy(scale * x) == pytest.approx(expected, abs=1e-9)


class TestExtractFeatures:
    def test_shapes_and_count(self):
        rng = np.random.default_rng(1)
        rec = Recording(rng.standard_normal((62, 60 * 200)), 200.0, "s0", 0, 1)
        out = extract_features(rec, DEFAULT_BANDS, 1.0)
        assert len(out) == 60
        assert all(s.x.shape == (62, 5) for s in out)
        assert all(s.label == 1 and s.subject == "s0" for s in out)

    def test_equals_per_window_per_channel_reference(self):
        rng = np.random.default_rng(4)
        rec = Recording(rng.standard_normal((3, 5 * 200 + 37)), 200.0, "s0", 0, 0)
        out = extract_features(rec, DEFAULT_BANDS, 1.0)
        for w, sample in enumerate(out):
            block = rec.samples[:, w * 200 : (w + 1) * 200]
            for ch in range(rec.n_channels):
                for b, (lo, hi) in enumerate(DEFAULT_BANDS):
                    ref = differential_entropy(band_isolate(block[ch], lo, hi, rec.rate))
                    assert abs(sample.x[ch, b] - ref) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=widths_and_bands(), n_windows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_parseval_equals_reference_at_every_width(self, case, n_windows, seed):
        rate, width, bands = case
        rng = np.random.default_rng(seed)
        # An offset puts power in the DC bin, which the variance must drop.
        samples = rng.standard_normal((2, n_windows * width)) + rng.uniform(-5.0, 5.0)
        rec = Recording(samples, rate, "s0", 0, 0)
        out = extract_features(rec, bands, width / rate)
        assert len(out) == n_windows
        for w, sample in enumerate(out):
            block = samples[:, w * width : (w + 1) * width]
            for ch in range(rec.n_channels):
                for b, (lo, hi) in enumerate(bands):
                    ref = differential_entropy(band_isolate(block[ch], lo, hi, rate))
                    assert abs(sample.x[ch, b] - ref) <= 1e-12

    def test_constant_recording_gives_floor_in_every_band(self):
        rec = Recording(np.full((3, 600), 1e3), 200.0, "s0", 0, 0)
        bands = DEFAULT_BANDS + ((0.0, 100.0),)
        out = extract_features(rec, bands, 1.0)
        expected = 0.5 * math.log(2.0 * math.pi * math.e * VARIANCE_FLOOR)
        for sample in out:
            np.testing.assert_allclose(sample.x, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "bands",
        [(), ((1.0, 101.0),), ((12.0, 8.0),), ((math.nan, 4.0),), ((1.0, math.nan),)],
    )
    def test_bad_bands_rejected(self, bands):
        rec = Recording(np.zeros((2, 400)), 200.0, "s", 0, 0)
        with pytest.raises(ConfigError):
            extract_features(rec, bands, 1.0)

    def test_single_full_range_band(self):
        rng = np.random.default_rng(2)
        rec = Recording(rng.standard_normal((4, 400)), 200.0, "s0", 0, 0)
        out = extract_features(rec, ((1.0, 99.0),), 1.0)
        assert out[0].x.shape == (4, 1)

    def test_per_band_entropy_tracks_per_band_power(self):
        # Build one channel as a sum of band-limited noise with increasing
        # power per band; the extracted DE per band must increase the same way.
        rng = np.random.default_rng(3)
        rate, seconds = 200.0, 4.0
        n = int(rate * seconds)
        signal = np.zeros(n)
        scales = [0.5, 1.0, 2.0, 4.0, 8.0]
        for scale, (lo, hi) in zip(scales, DEFAULT_BANDS):
            component = band_isolate(rng.standard_normal(n), lo, hi, rate)
            signal += scale * component / component.std()
        rec = Recording(signal[None, :], rate, "s0", 0, 0)
        x = extract_features(rec, DEFAULT_BANDS, 4.0)[0].x[0]
        assert list(np.argsort(x)) == [0, 1, 2, 3, 4]

    def test_window_count_is_floor_of_duration_ratio(self):
        rec = Recording(np.random.default_rng(0).standard_normal((2, 1100)), 200.0, "s", 0, 0)
        out = extract_features(rec, ((1.0, 50.0),), 1.0)
        assert len(out) == 5

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((3, 800))
        a = extract_features(Recording(data, 200.0, "s", 0, 0), DEFAULT_BANDS, 1.0)
        b = extract_features(Recording(data.copy(), 200.0, "s", 0, 0), DEFAULT_BANDS, 1.0)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.x, sb.x)

    def test_recording_shorter_than_window_rejected(self):
        rec = Recording(np.zeros((2, 100)), 200.0, "s", 0, 0)
        with pytest.raises(DataError):
            extract_features(rec, DEFAULT_BANDS, 1.0)

    def test_tiny_window_rejected(self):
        rec = Recording(np.zeros((2, 400)), 200.0, "s", 0, 0)
        with pytest.raises(ConfigError, match="need >= 2"):
            extract_features(rec, DEFAULT_BANDS, 0.005)

    # 200.5, 200.8 and 1.5 samples at 200 Hz: rounding would give 200, 201 and 2.
    @pytest.mark.parametrize("window_s", [1.0025, 1.004, 0.0075])
    def test_fractional_sample_window_rejected(self, window_s):
        rec = Recording(np.zeros((2, 400)), 200.0, "s", 0, 0)
        with pytest.raises(ConfigError, match="whole number of samples"):
            extract_features(rec, DEFAULT_BANDS, window_s)

    @pytest.mark.parametrize("window_s", [math.nan, math.inf])
    def test_non_finite_window_rejected(self, window_s):
        rec = Recording(np.zeros((2, 400)), 200.0, "s", 0, 0)
        with pytest.raises(ConfigError, match="window length"):
            extract_features(rec, DEFAULT_BANDS, window_s)

    def test_bool_window_rejected(self):
        # bool is a number: True would be a 1 s window.
        rec = Recording(np.zeros((2, 400)), 200.0, "s", 0, 0)
        with pytest.raises(ConfigError, match="window length"):
            extract_features(rec, DEFAULT_BANDS, True)


def test_prepare_recording_downsamples_and_band_limits():
    rec = Recording(sine(10, 1000, 2.0) + 5.0, 1000.0, "s", 0, 0)
    out = prepare_recording(rec)
    assert out.rate == 200.0
    assert out.n_samples == 400
    # DC offset is outside the 1-75 Hz limit; the 10 Hz carrier survives.
    assert abs(out.samples.mean()) < 1e-9
    assert out.samples.std() == pytest.approx(np.sqrt(0.5), rel=0.02)


def test_prepare_recording_at_the_working_rate_is_band_isolate():
    x = np.random.default_rng(9).standard_normal((3, 600)) + 3.0
    out = prepare_recording(Recording(x, 200.0, "s", 0, 0))
    assert out.rate == 200.0
    ref = band_isolate(x, 1.0, 75.0, 200.0)
    np.testing.assert_allclose(out.samples, ref, rtol=0, atol=1e-12 * np.abs(x).max())


def test_prepare_recording_is_one_downsample_call(monkeypatch):
    # The bench's stage timer (bench/tracing.py) wraps these module attributes,
    # so the work must stay inside them. An even width takes the packed complex
    # FFT and never the real one; an odd width has only the real one.
    calls = {"downsample": 0, "band_isolate": 0, "rfft": 0}

    def count(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    count(features, "downsample")
    count(features, "band_isolate")
    count(np.fft, "rfft")
    for n, rfft_calls in ((1000, 0), (1005, 1)):
        calls.update(dict.fromkeys(calls, 0))
        x = np.random.default_rng(n).standard_normal((2, n))
        prepare_recording(Recording(x, 1000.0, "s", 0, 0))
        assert calls == {"downsample": 1, "band_isolate": 0, "rfft": rfft_calls}, f"width {n}"


@pytest.mark.parametrize("rate", [0.0, math.nan, math.inf])
def test_recording_rejects_bad_rate(rate):
    with pytest.raises(DataError):
        Recording(np.zeros((2, 400)), rate, "s", 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_recording_rejects_non_finite_samples(bad):
    samples = np.zeros((2, 400))
    samples[1, 17] = bad
    with pytest.raises(DataError):
        Recording(samples, 200.0, "s", 0, 0)


@pytest.mark.parametrize("samples", [np.array([[1 + 5j, 2, 3, 4]]), [[1.0, 2.0, 0j]]])
def test_recording_rejects_complex_samples(samples):
    # Casting would drop the imaginary parts with only a ComplexWarning.
    with pytest.raises(DataError, match="real"):
        Recording(samples, 200.0, "s", 0, 0)


@pytest.mark.parametrize(
    "samples, rate",
    [
        ([[1.0, 2.0], [3.0]], 200.0),
        ([["a", "b"]], 200.0),
        (np.array([[1 + 2j, 3]], dtype=object), 200.0),
        # Casting to float64 would parse these strings and map bools to 1.0 and 0.0.
        ([["1.5", "2"]], 200.0),
        ([[True, False]], 200.0),
        (np.array([[1.0, 2.0]], dtype=object), 200.0),
        (np.zeros((0, 400)), 200.0),
        (np.zeros((2, 400)), "200"),
        (np.zeros((2, 400)), None),
        (np.zeros((2, 400)), True),  # bool is a numbers.Real: 1 Hz
    ],
    ids=[
        "ragged",
        "strings",
        "complex-objects",
        "numeric-strings",
        "bools",
        "float-objects",
        "zero-channels",
        "rate-string",
        "rate-none",
        "rate-bool",
    ],
)
def test_recording_rejects_malformed_input(samples, rate):
    with pytest.raises(DataError):
        Recording(samples, rate, "s", 0, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.int16, np.uint8])
def test_recording_accepts_real_numeric_samples(dtype):
    rec = Recording(np.arange(8, dtype=dtype).reshape(2, 4), 200.0, "s", 0, 0)
    assert rec.samples.dtype == np.float64
    np.testing.assert_array_equal(rec.samples, np.arange(8.0).reshape(2, 4))
