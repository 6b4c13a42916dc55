"""Tests for CIR estimation, path gains, tap detection, and chunking."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import helper, sounder
from chansounder.emulator import make_noise, read_iq_file, write_iq_file
from chansounder.sequences import bpsk_modulate, generate_glfsr
from chansounder.sounder import (
    Detections,
    SoundingConfig,
    SoundingReport,
    _cir_matrix,
    _detect_in_gain_matrix,
    _gains_from_abs,
    estimate_noise_floor_gain_db,
    sound_blocks,
    sound_chunked,
    write_report_csv,
)
from oracles import (
    detect_per_frame,
    per_frame_lists,
    strongest_tap_series,
    write_csv_per_frame,
)

CODE = generate_glfsr(8)
REF = bpsk_modulate(CODE, 1)
N = len(REF)
FS = 1e6


def sound(samples, cfg):
    """Single-pass sounding of an in-memory stream."""
    return sound_blocks([samples], cfg, REF, FS)


def write_capture(path, samples):
    write_iq_file(path, [samples], FS)


def direct_cir(received, ref):
    """Direct-sum oracle for one frame's normalized circular correlation."""
    L = len(ref)
    energy = np.sum(ref * ref)
    return np.array(
        [np.sum(received * np.roll(ref, k)) / energy for k in range(L)]
    )


class TestComputeCirFrames:
    def test_ideal_unit_channel(self):
        h = np.abs(_cir_matrix(REF, REF))
        assert h.shape == (1, N)
        assert h[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(h[0, 1:] <= 1 / N + 1e-9)

    def test_delayed_reference_peaks_at_lag(self):
        delayed = np.roll(REF, 64)
        assert int(np.argmax(np.abs(_cir_matrix(delayed, REF)[0]))) == 64

    def test_scaled_reference_scales_peak(self):
        h = _cir_matrix(0.5 * REF, REF)
        assert abs(h[0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_too_short_stream_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            _cir_matrix(REF[:100], REF)

    def test_frame_length_and_magnitude_identity(self):
        rng = np.random.default_rng(0)
        rx = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
        h = _cir_matrix(rx, REF)
        assert h.shape == (2, N)
        assert np.all(np.abs(h) >= 0)
        assert np.allclose(
            np.abs(h), np.sqrt(h.real**2 + h.imag**2), rtol=0, atol=1e-15
        )

    def test_samples_per_chip_normalization(self):
        spc = 4
        ref4 = bpsk_modulate(CODE, spc)
        h = np.abs(_cir_matrix(ref4, ref4))
        assert h.shape == (1, N * spc)
        assert h[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_fft_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(5)
        rx = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        got = _cir_matrix(rx, REF)[0]
        assert np.allclose(got, direct_cir(rx, REF), rtol=1e-9, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        n_frames=st.integers(min_value=1, max_value=4),
        spc=st.integers(min_value=1, max_value=3),
        scale=st.floats(min_value=1e-6, max_value=1e6),
        complex64=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scale_by_reciprocal_energy_equals_division(
        self, n_frames, spc, scale, complex64, seed
    ):
        ref = bpsk_modulate(CODE, spc)
        rng = np.random.default_rng(seed)
        n = n_frames * len(ref) + int(rng.integers(len(ref)))
        rx = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if complex64:
            rx = rx.astype(np.complex64)
        # the complex-by-complex division _cir_matrix once ran
        frames = np.asarray(rx[: n_frames * len(ref)], dtype=np.complex128)
        spectra = np.fft.fft(frames.reshape(n_frames, len(ref)), axis=1)
        spectra *= np.conj(np.fft.fft(ref))
        want = np.fft.ifft(spectra, axis=1)
        want /= float(np.sum(ref * ref))
        assert np.array_equal(sounder._cir_matrix(rx, ref), want)


class TestPathGains:
    def test_unit_peak_zero_budget(self):
        assert _gains_from_abs(np.array([1.0, 0.1]))[0] == pytest.approx(0.0)

    def test_base_loss_peak(self):
        g = _gains_from_abs(np.array([10 ** (-57.55 / 20)]))
        assert g[0] == pytest.approx(-57.55)

    def test_zero_magnitude_maps_to_sentinel(self):
        assert _gains_from_abs(np.array([0.0, 1.0]))[0] <= -300

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(min_value=0.01, max_value=100))
    def test_scaling_shifts_gains_uniformly(self, alpha):
        rng = np.random.default_rng(2)
        rx = rng.standard_normal(N) * 0.1 + REF
        h1 = np.abs(_cir_matrix(rx, REF)[0])
        h2 = np.abs(_cir_matrix(alpha * rx, REF)[0])
        g1, g2 = _gains_from_abs(h1), _gains_from_abs(h2)
        assert np.allclose(g2 - g1, 20 * math.log10(alpha), atol=1e-9)
        assert np.argmax(h1) == np.argmax(h2)


def detect(frames, floor, fs=FS):
    """Columnar detections of frames' |h| rows, anchored on frame 0's peak."""
    gains = np.stack([_gains_from_abs(h) for h in frames])
    anchor = int(np.argmax(frames[0]))
    return _detect_in_gain_matrix(gains, anchor, floor, 6.0, fs)


class TestDetectTaps:
    def make_frames(self, peaks, n_frames=2, noise=1e-4, seed=0):
        """|h| of frames with given (lag, amplitude) peaks over weak noise."""
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(n_frames):
            h = noise * np.abs(
                rng.standard_normal(N) + 1j * rng.standard_normal(N)
            )
            for lag, amp in peaks:
                h[lag] = amp
            frames.append(h)
        return frames

    def test_four_tap_channel_delays(self):
        fs = 50e6
        peaks = [(0, 0.7), (64, 0.1), (100, 0.18), (200, 0.4)]
        frames = 2 * self.make_frames(peaks, 1)
        floor = estimate_noise_floor_gain_db(frames[0])
        det = detect(frames, floor, fs=fs)
        assert det.offsets.tolist() == [0, 4, 8]
        delays = det.delay_s[: det.offsets[1]]
        assert delays.tolist() == pytest.approx([0.0, 1.28e-6, 2e-6, 4e-6])
        assert np.array_equal(det.delay_s[4:], delays)

    def test_noise_only_frame_detects_nothing(self):
        rng = np.random.default_rng(3)
        h = 1e-3 * np.abs(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        det = detect([h], estimate_noise_floor_gain_db(h))
        assert det.offsets.tolist() == [0, 0]
        assert det.delay_s.size == det.gain_db.size == 0

    def test_peaks_three_lags_apart_are_both_kept(self):
        frames = self.make_frames([(100, 1.0), (103, 0.5)], 1)
        det = detect(frames, estimate_noise_floor_gain_db(frames[0]))
        lags = np.round(det.delay_s * FS + 100) % N
        assert lags.tolist() == [100, 103]

    def test_adjacent_weaker_sample_is_not_a_local_maximum(self):
        frames = self.make_frames([(100, 1.0), (101, 0.8)], 1)
        det = detect(frames, estimate_noise_floor_gain_db(frames[0]))
        assert det.offsets.tolist() == [0, 1]

    def test_threshold_must_be_positive(self):
        for threshold in (0.0, -6.0):
            with pytest.raises(ValueError, match="detection_threshold_db"):
                SoundingConfig(detection_threshold_db=threshold)

    @pytest.mark.parametrize("field", ["detection_threshold_db", "chunk_duration_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_and_chunk_are_rejected(self, field, value):
        # a NaN threshold used to pass the <= 0 test and detect nothing
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            SoundingConfig(**{field: value})

    def test_default_drops_the_warm_up_frame(self):
        # frame 0 is the emulator's zero-history warm-up frame
        report = sound(np.tile(REF, 3), SoundingConfig())
        assert report.first_frame_index == 1 and report.n_frames == 2
        assert report.frame_times_s().tolist() == pytest.approx([N / FS, 2 * N / FS])

    def test_negative_discard_is_rejected(self):
        with pytest.raises(ValueError, match="discard_frames must be >= 0, got -1"):
            SoundingConfig(discard_frames=-1)
        assert SoundingConfig(discard_frames=0).discard_frames == 0

    def test_delay_covariance_under_stream_delay(self):
        d = 17
        rx0 = np.tile(REF, 4)
        rxd = np.roll(rx0, d)
        cfg = SoundingConfig()
        r0 = sound(rx0, cfg)
        rd = sound(rxd, cfg)
        # anchors absorb the shift; absolute anchor lags differ by d
        assert (rd.anchor_lag - r0.anchor_lag) % N == d


def floor_with_np_median(h_abs):
    """``estimate_noise_floor_gain_db`` written with ``np.median``."""
    sigma = float(np.median(h_abs)) / math.sqrt(math.log(2.0))
    band_top = sigma * math.sqrt(math.log(len(h_abs)))
    return 20.0 * math.log10(band_top) if band_top > 0 else sounder._MIN_GAIN_DB


class TestNoiseFloor:
    @pytest.mark.parametrize("length", [1, 2, 255, 510])
    def test_equals_the_np_median_formula_bit_for_bit(self, length):
        rng = np.random.default_rng(length)
        for case in range(300):
            h = np.abs(rng.standard_normal(length) + 1j * rng.standard_normal(length))
            if case % 3 == 1:  # ties, the middle two among them
                h = rng.integers(0, 4, length) * 1e-3
            elif case % 3 == 2:  # a run of ties up to the middle
                h[: length // 2] = h[0]
            expected = floor_with_np_median(h)
            got = estimate_noise_floor_gain_db(h)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestSoundChunked:
    def build_capture(self, tmp_path, n_frames=686, noise_db=-45.0, seed=4):
        rx = np.tile(REF * 0.9, n_frames).astype(complex)
        rx += make_noise(len(rx), noise_db, seed)
        path = tmp_path / "capture.iq"
        write_capture(path, rx)
        return path, rx

    def test_chunked_equals_unchunked(self, tmp_path):
        path, _ = self.build_capture(tmp_path)
        # 0.06 s chunks over a 0.175 s capture: three chunks
        cfg = SoundingConfig(chunk_duration_s=0.06, discard_frames=0)
        chunked = sound_chunked(path, cfg, REF)
        single = sound(read_iq_file(path), cfg)
        assert chunked.n_frames == single.n_frames == 686
        assert chunked.anchor_lag == single.anchor_lag
        assert chunked.detections == single.detections

    def test_chunked_equals_single_pass_while_the_carry_grows(self, tmp_path):
        # blocks of 4 frames and 3 samples: the partial frame carried into
        # the next block grows by 3 samples a block, over 6 blocks
        x = np.tile(REF, 26)[: 6 * 1023 + 100].astype(complex)
        rx = 0.8 * x + (0.2 - 0.1j) * np.roll(x, 9) + make_noise(len(x), -40.0, 2)
        path = tmp_path / "capture.iq"
        write_capture(path, rx)
        cfg = SoundingConfig(chunk_duration_s=1023.5 / FS)
        assert int(cfg.chunk_duration_s * FS) == 1023 == 4 * N + 3
        chunked = sound_chunked(path, cfg, REF)
        single = sound(read_iq_file(path), cfg)
        assert chunked.n_frames == single.n_frames == 24 - 1
        assert chunked.anchor_lag == single.anchor_lag
        assert chunked.noise_floor_gain_db == single.noise_floor_gain_db
        assert chunked.detections == single.detections

    @settings(max_examples=60, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 40 * N + 100), max_size=12),
        extra=st.integers(0, N - 1),
        seed=st.integers(0, 5),
        handoff=st.sampled_from([1, 3 * N, helper.HANDOFF_SAMPLES]),
    )
    def test_any_block_split_equals_single_pass(self, cuts, extra, seed, handoff):
        # multipath plus noise so frames carry several detections; ``extra``
        # leaves a trailing partial frame; a low hand-off size splits the
        # frames of each block between two threads
        x = np.tile(REF, 41)[: 40 * N + extra].astype(complex)
        rx = 0.8 * x + (0.2 - 0.1j) * np.roll(x, 9) + 0.05j * np.roll(x, 40)
        rx += make_noise(len(rx), -40.0, seed)
        rx = rx.astype(np.complex64)
        edges = [0, *sorted(c for c in cuts if c < len(rx)), len(rx)]
        blocks = [rx[a:b] for a, b in zip(edges, edges[1:])]
        cfg = SoundingConfig()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(helper, "HANDOFF_SAMPLES", handoff)
            split = sound_blocks(blocks, cfg, REF, FS)
        single = sound(rx, cfg)
        assert split.detections == single.detections
        assert split.n_frames == single.n_frames == 39
        assert split.anchor_lag == single.anchor_lag
        assert split.noise_floor_gain_db == single.noise_floor_gain_db

    def test_frame_runs_on_two_threads_equal_single_pass(self, monkeypatch):
        # blocks of 4, 3, 4, 5 and 7 whole frames with partial frames carried;
        # a hand-off size of one frame makes each frame a piece of its own.
        # The caller's pieces wait until the helper has sounded a frame of
        # their block, so every block, the first one too, is split
        x = np.tile(REF, 24).astype(complex)
        rx = 0.8 * x + (0.3 + 0.2j) * np.roll(x, 17) + 0.04 * np.roll(x, 90)
        rx = (rx + make_noise(len(rx), -38.0, 7)).astype(np.complex64)
        bounds = np.cumsum([0, 4, 3, 4, 5, 7])  # first frame of each block
        edges = bounds * N + 11
        blocks = [rx[:11]] + [rx[a:b] for a, b in zip(edges, edges[1:])]
        heads = rx[: edges[-1] : N]  # first sample of each frame, all distinct
        sounded = []  # (on the helper, first frame, frame count) per call
        changed = threading.Condition()
        cir = sounder._cir_matrix

        def block_of(frame):
            return int(np.searchsorted(bounds, frame, side="right"))

        def recording(samples, ref):
            first = int(np.flatnonzero(heads == samples[0])[0])
            on_helper = threading.current_thread().name == "chansounder-helper"
            with changed:
                if not on_helper and first:  # frame 0 alone sets the anchor
                    assert changed.wait_for(
                        lambda: any(
                            h and block_of(f) == block_of(first) for h, f, _ in sounded
                        ),
                        timeout=30.0,
                    )
                sounded.append((on_helper, first, len(samples) // N))
                changed.notify_all()
            return cir(samples, ref)

        monkeypatch.setattr(sounder, "_cir_matrix", recording)
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", N)
        cfg = SoundingConfig()
        split = sound_blocks(blocks, cfg, REF, FS)
        monkeypatch.undo()
        single = sound(rx[: edges[-1]], cfg)
        assert split.detections == single.detections
        assert split.n_frames == single.n_frames == 22
        assert split.anchor_lag == single.anchor_lag
        assert split.noise_floor_gain_db == single.noise_floor_gain_db
        assert sounded[0] == (False, 0, 1)
        frames = [(h, f + i) for h, f, n in sounded[1:] for i in range(n)]
        assert sorted(f for _, f in frames) == list(range(1, bounds[-1]))
        for a, b in zip(bounds, bounds[1:]):
            by_helper = [f for h, f in frames if h and a <= f < b]
            by_caller = [f for h, f in frames if not h and a <= f < b]
            assert by_helper and by_caller
            assert max(by_helper) < min(by_caller)

    def test_error_on_the_helper_thread_reaches_the_caller(self, monkeypatch):
        detect = sounder._detect_in_gain_matrix
        helper_failed = threading.Event()
        calls = []

        def failing_on_helper(*args):
            if threading.current_thread().name == "chansounder-helper":
                helper_failed.set()
                raise FloatingPointError("raised on the helper")
            if calls:  # after frame 0, let the helper take a piece first
                helper_failed.wait(30.0)
            calls.append(args)
            return detect(*args)

        monkeypatch.setattr(sounder, "_detect_in_gain_matrix", failing_on_helper)
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        blocks = [np.tile(REF, 3), np.tile(REF, 4)]
        with pytest.raises(FloatingPointError, match="raised on the helper"):
            sound_blocks(blocks, SoundingConfig(), REF, FS)

    def test_stream_shorter_than_one_frame_is_an_error(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            sound_blocks([REF[:100], REF[100:200]], SoundingConfig(), REF, FS)

    @pytest.mark.parametrize(
        "reference",
        [REF.astype(complex), np.vstack([REF, REF]), np.empty(0),
         np.r_[REF[:-1], np.nan], np.r_[REF[:-1], np.inf]],
        ids=["complex", "2-D", "empty", "nan", "inf"],
    )
    def test_a_reference_that_is_not_a_finite_real_vector_is_an_error(self, reference):
        with pytest.raises(ValueError, match="^reference must be a non-empty, finite, 1-D real"):
            sound_blocks([np.tile(REF, 3)], SoundingConfig(), reference, FS)

    def test_capture_shorter_than_chunk(self, tmp_path):
        path, _ = self.build_capture(tmp_path, n_frames=3)
        cfg = SoundingConfig(chunk_duration_s=60.0, discard_frames=0)
        report = sound_chunked(path, cfg, REF)
        assert report.n_frames == 3

    def test_sample_rate_mismatch_rejected(self, tmp_path):
        path, _ = self.build_capture(tmp_path, n_frames=2)
        cfg = SoundingConfig(sample_rate_hz=2e6)
        with pytest.raises(ValueError, match="sample rate"):
            sound_chunked(path, cfg, REF)

    def test_bad_sidecar_rate_is_an_error_naming_it(self, tmp_path):
        # not sounded into a later "shorter than one frame" error
        path, _ = self.build_capture(tmp_path, n_frames=2)
        (tmp_path / "capture.iq.json").write_text('{"sample_rate_hz": -5}')
        with pytest.raises(ValueError, match="capture.iq.json: sample_rate_hz -5"):
            sound_chunked(path, SoundingConfig(), REF)

    def test_unreadable_capture_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sound_chunked(tmp_path / "nope.iq", SoundingConfig(), REF)

    def test_noise_free_gain_is_frame_stable(self, tmp_path):
        rx = np.tile(REF * 10 ** (-20 / 20), 50).astype(complex)
        path = tmp_path / "clean.iq"
        write_capture(path, rx)
        report = sound_chunked(path, SoundingConfig(), REF)
        _, _, gains = strongest_tap_series(report)
        assert np.std(gains) < 1e-6
        # absolute level limited by float32 capture quantization
        assert np.mean(gains) == pytest.approx(-20.0, abs=1e-5)


@st.composite
def gain_matrices(draw):
    """Small gain matrices with plateaus, equal neighbours and empty frames."""
    n_frames = draw(st.integers(0, 6))
    frame_len = draw(st.integers(3, 24))
    values = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0, 5.0]),
            min_size=n_frames * frame_len,
            max_size=n_frames * frame_len,
        )
    )
    return np.array(values).reshape(n_frames, frame_len)


class TestColumnarDetections:
    @settings(max_examples=200, deadline=None)
    @given(gains=gain_matrices(), data=st.data())
    def test_detector_equals_per_frame_oracle(self, gains, data):
        anchor = data.draw(st.integers(0, gains.shape[1] - 1))
        floor = data.draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.5]))
        threshold = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        fs = data.draw(st.sampled_from([1.0, 1e6, 3e7]))
        det = _detect_in_gain_matrix(gains, anchor, floor, threshold, fs)
        expected = detect_per_frame(gains, anchor, floor, threshold, fs)
        assert per_frame_lists(det) == expected

        # the strongest tap per frame is the first maximum, as max() picks it
        report = SoundingReport(det, gains.shape[1], fs, floor, anchor)
        _, delays, strongest = strongest_tap_series(report)
        for taps, d, g in zip(expected, delays, strongest):
            if taps:
                assert (d, g) == max(taps, key=lambda t: t[1])
            else:
                assert math.isnan(d) and math.isnan(g)

    def test_container_iterates_frames_and_compares_columns(self):
        det = Detections(
            np.array([0, 2, 2, 3]), np.array([0.0, 1e-6, 0.0]),
            np.array([-1.0, -9.0, -2.0]),
        )
        assert [len(rows) for rows in det] == [2, 0, 1]
        assert [rows.tolist() for rows in det][2] == [[0.0, -2.0]]
        assert det.frames(1) == Detections(
            np.array([0, 0, 1]), np.array([0.0]), np.array([-2.0])
        )
        assert Detections.concatenate([det.frames(0, 1), det.frames(1)]) == det
        moved = Detections(det.offsets, det.delay_s, det.gain_db + 1e-12)
        assert det != moved

    def test_csv_writer_equals_per_frame_writer(self, tmp_path):
        # more frames than one formatting batch, some of them empty
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 4, 70_000)
        n = int(counts.sum())
        det = Detections(
            np.r_[0, np.cumsum(counts)],
            rng.integers(0, 255, n) / 1e7,
            rng.normal(-60.0, 20.0, n),
        )
        report = SoundingReport(det, 255, 1e7, -80.0, 3, 1)
        write_report_csv(report, tmp_path / "new.csv")
        write_csv_per_frame(report, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("batch", [1, 7, 4096, 65536])
    def test_writers_give_the_same_bytes_at_any_batch_size(
        self, tmp_path, monkeypatch, batch
    ):
        # 5,000 frames: the last batch is not full at 7 and 4096, and
        # frames without detections sit inside and at the ends of batches
        rng = np.random.default_rng(23)
        counts = rng.integers(0, 4, 5000)
        counts[:3] = counts[-3:] = 0
        n = int(counts.sum())
        det = Detections(
            np.r_[0, np.cumsum(counts)],
            rng.integers(0, 255, n) / 1e7,
            rng.normal(-60.0, 20.0, n),
        )
        report = SoundingReport(det, 255, 1e7, -80.0, 3, 2)
        table = np.column_stack(
            (report.frame_times_s(), rng.normal(90.0, 5.0, 5000), rng.normal(90.0, 5.0, 5000))
        )
        table[::11, 1] = np.nan
        row_format = "%.9f,%.6f,%.6f\n"
        monkeypatch.setattr(sounder, "_WRITE_BATCH_ROWS", batch)
        write_report_csv(report, tmp_path / "report.csv")
        with open(tmp_path / "rows.csv", "w") as fh:
            sounder._write_rows(fh, row_format, table)

        write_csv_per_frame(report, tmp_path / "per_frame.csv")
        per_row = "".join(row_format % tuple(row) for row in table.tolist())
        assert (tmp_path / "report.csv").read_bytes() == (
            tmp_path / "per_frame.csv"
        ).read_bytes()
        assert (tmp_path / "rows.csv").read_text() == per_row
