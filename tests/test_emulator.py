"""Tests for the FIR channel emulator, noise generation, and IQ files."""

import json
import math
import os
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chansounder import emulator, helper
from chansounder.emulator import (
    EmulatorConfig,
    apply_channel,
    emulate_blocks,
    iq_file_sample_count,
    make_noise,
    noise_floor_db_for_dynamic_range,
    pair_base_loss_db,
    read_iq_file,
    read_iq_sidecar,
    write_iq_file,
)
from chansounder.tap_approx import TapFile

FS = 1e6
GRID = 1e-6  # one sample per grid step at FS


def tap_file_from(taps_per_ms, grid_dt_s=GRID, k=4, pair=(1, 2)):
    """taps_per_ms: list of tap tuples, one entry per millisecond; equal
    neighbours share one tap list, as in a built tap file."""
    lists, index = [], []
    for taps in taps_per_ms:
        if not lists or list(taps) != list(lists[-1]):
            lists.append(taps)
        index.append(len(lists) - 1)
    return TapFile(2, grid_dt_s, k, len(index), 0.0, lists, {pair: index})


def quiet_config(**kwargs):
    defaults = dict(base_loss_db=0.0, noise_floor_db=None, seed=1)
    defaults.update(kwargs)
    return EmulatorConfig(**defaults)


def rand_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def write_capture(path, samples):
    write_iq_file(path, [samples], FS)


class TestApplyChannel:
    def test_identity_filter(self):
        taps = tap_file_from([[(0, 1 + 0j)]] * 2)
        x = rand_stream(1500)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config())
        assert np.array_equal(y, x)

    def test_base_loss_scaling(self):
        taps = tap_file_from([[(0, 1 + 0j)]] * 2)
        x = rand_stream(1500)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config(base_loss_db=57.55))
        assert np.allclose(y, x * 10 ** (-57.55 / 20), rtol=1e-12)

    def test_single_tap_delays_input(self):
        d = 37
        taps = tap_file_from([[(d, 0.5 + 0j)]] * 3)
        x = rand_stream(2500)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config())
        assert np.allclose(y[d:], 0.5 * x[:-d], rtol=1e-12)
        assert np.allclose(y[:d], 0.0)
        # brute-force correlation oracle: the peak sits at lag d
        lags = range(0, 101)
        corr = [
            abs(np.vdot(x[: len(x) - k], y[k:]))
            for k in lags
        ]
        assert int(np.argmax(corr)) == d

    def test_linearity(self):
        taps = tap_file_from([[(0, 0.3 - 0.4j), (11, 0.2j)]] * 2)
        x = rand_stream(2000)
        alpha = 2.5 - 1.25j
        y1 = apply_channel(x, FS, taps, (1, 2), quiet_config())
        y2 = apply_channel(alpha * x, FS, taps, (1, 2), quiet_config())
        assert np.allclose(y2, alpha * y1, rtol=1e-12)

    def test_superposition_across_taps(self):
        x = rand_stream(2000)
        both = tap_file_from([[(3, 0.8 + 0j), (17, -0.1 + 0.2j)]] * 2)
        only_a = tap_file_from([[(3, 0.8 + 0j)]] * 2)
        only_b = tap_file_from([[(17, -0.1 + 0.2j)]] * 2)
        y = apply_channel(x, FS, both, (1, 2), quiet_config())
        ya = apply_channel(x, FS, only_a, (1, 2), quiet_config())
        yb = apply_channel(x, FS, only_b, (1, 2), quiet_config())
        assert np.allclose(y, ya + yb, rtol=1e-12)

    def test_shift_inside_coherence_interval(self):
        taps = tap_file_from([[(2, 0.7 + 0.1j)]])
        x = np.zeros(900, dtype=complex)
        x[:100] = np.exp(1j * np.linspace(0, 3, 100))
        m = 50
        shifted = np.roll(x, m)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config())
        ys = apply_channel(shifted, FS, taps, (1, 2), quiet_config())
        assert np.allclose(ys[m:], y[:-m], rtol=1e-12)

    def test_tap_update_step_at_millisecond_boundary(self):
        c = 0.4 + 0.3j
        taps = tap_file_from([[(0, c)], [(0, 2 * c)]])
        x = np.ones(2000, dtype=complex)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config())
        boundary = 1000  # 1 ms at 1 MS/s
        step_db = 20 * np.log10(
            abs(y[boundary]) / abs(y[boundary - 1])
        )
        assert step_db == pytest.approx(6.02, abs=0.005)
        assert np.all(y[:boundary] == y[0])
        assert np.all(y[boundary:] == y[boundary])

    def test_output_power_follows_base_loss(self):
        taps = tap_file_from([[(0, 1 + 0j)]] * 200)
        n = 200_000
        x = rand_stream(n)
        loss = 13.0
        y = apply_channel(x, FS, taps, (1, 2), quiet_config(base_loss_db=loss))
        p_in = np.mean(np.abs(x) ** 2)
        p_out = np.mean(np.abs(y) ** 2)
        ratio_db = 10 * np.log10(p_out / p_in)
        assert ratio_db == pytest.approx(-loss, abs=0.01)

    def test_missing_pair_rejected(self):
        taps = tap_file_from([[(0, 1 + 0j)]])
        with pytest.raises(ValueError, match="pair"):
            apply_channel(rand_stream(1000), FS, taps, (9, 9), quiet_config())

    def test_incompatible_grid_rejected(self):
        taps = tap_file_from([[(0, 1 + 0j)]], grid_dt_s=1.5e-6 / 2)
        with pytest.raises(ValueError, match="grid"):
            apply_channel(rand_stream(1000), FS, taps, (1, 2), quiet_config())

    def test_noise_is_deterministic_per_seed_and_pair(self):
        taps = tap_file_from([[(0, 1 + 0j)]] * 2, pair=(1, 2))
        x = rand_stream(1200)
        cfg = quiet_config(noise_floor_db=-30.0, seed=42)
        y1 = apply_channel(x, FS, taps, (1, 2), cfg)
        y2 = apply_channel(x, FS, taps, (1, 2), cfg)
        assert np.array_equal(y1, y2)

    def test_offset_origin_switches_taps_at_absolute_boundaries(self):
        # the stream starts at t = 0; the coefficient change at 1 ms must
        # land on sample 1000, the first sample of that millisecond
        taps = tap_file_from([[(0, 1 + 0j)], [(0, 2 + 0j)]])
        x = np.ones(2000, dtype=complex)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config())
        assert np.all(y[:1000] == 1.0)
        assert np.all(y[1000:] == 2.0)


class TestMakeNoise:
    def test_deterministic_per_seed(self):
        a = make_noise(1000, -20.0, 7)
        b = make_noise(1000, -20.0, 7)
        assert np.array_equal(a, b)
        c = make_noise(1000, -20.0, 8)
        assert not np.array_equal(a, c)

    def test_disabled_noise_is_silent(self):
        assert np.all(make_noise(100, None, 1) == 0)
        assert np.all(make_noise(100, float("-inf"), 1) == 0)

    def test_equals_interleaved_draws_exactly(self):
        power_db = -17.0
        z = np.random.default_rng(5).standard_normal(2 * 1001)
        sigma = math.sqrt(10 ** (power_db / 10) / 2)
        old = sigma * (z[0::2] + 1j * z[1::2])
        new = make_noise(1001, power_db, 5)
        assert new.tobytes() == old.tobytes()
        # chunk 0 of a link's key (seed, tx, rx) is the stream of that key
        z = np.random.default_rng((5, 1, 2)).standard_normal(2 * 1001)
        link = make_noise(1001, power_db, (5, 1, 2))
        assert link.tobytes() == (sigma * (z[0::2] + 1j * z[1::2])).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        chunk=st.sampled_from([5, 64, 1 << 16]),
        start=st.integers(0, 400),
        length=st.integers(0, 400),
    )
    def test_any_window_is_that_slice_of_the_whole(self, chunk, start, length):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emulator, "NOISE_CHUNK_SAMPLES", chunk)
            whole = make_noise(start + length, -10.0, (3, 1, 2))
            window = make_noise(length, -10.0, (3, 1, 2), start=start)
        assert window.tobytes() == whole[start:].tobytes()

    def test_pairs_and_chunks_draw_differently(self):
        chunk = emulator.NOISE_CHUNK_SAMPLES
        link = make_noise(2 * chunk, -10.0, (3, 1, 2))
        parts = [link[:chunk], link[chunk:]] + [
            make_noise(chunk, -10.0, key) for key in [(3, 2, 1), (4, 1, 2), (3, 1, 3)]
        ]
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                assert np.intersect1d(a.view(float), b.view(float)).size == 0

    def test_empirical_power_within_one_percent(self):
        power_db = -17.0
        n = make_noise(1_000_000, power_db, 11)
        measured = np.mean(np.abs(n) ** 2)
        assert measured == pytest.approx(10 ** (power_db / 10), rel=0.01)


class TestEmulatorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_loss_db", math.nan),
            ("base_loss_db", math.inf),
            ("base_loss_sd_db", -0.5),
            ("base_loss_sd_db", math.nan),
            ("noise_floor_db", math.nan),
            ("noise_floor_db", math.inf),
        ],
    )
    def test_bad_value_is_an_error_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            EmulatorConfig(**{field: value})

    @pytest.mark.parametrize("floor", [None, -math.inf])
    def test_no_noise_floor_emulates_without_noise(self, floor):
        taps = tap_file_from([[(0, 1 + 0j)]] * 2)
        x = rand_stream(1500)
        y = apply_channel(x, FS, taps, (1, 2), quiet_config(noise_floor_db=floor))
        assert np.array_equal(y, x)
        blocks = emulate_blocks(
            taps, (1, 2), quiet_config(noise_floor_db=floor), x, FS, 1500
        )
        assert np.concatenate(list(blocks)).tobytes() == x.astype(
            np.complex64
        ).tobytes()


class TestBaseLossPerturbation:
    def test_symmetric_across_link_direction(self):
        cfg = EmulatorConfig(base_loss_db=57.55, base_loss_sd_db=1.23, seed=3)
        assert pair_base_loss_db(cfg, 1, 2) == pair_base_loss_db(cfg, 2, 1)

    def test_distribution_statistics(self):
        cfg = EmulatorConfig(base_loss_db=57.55, base_loss_sd_db=1.23, seed=3)
        losses = [
            pair_base_loss_db(cfg, i, j)
            for i in range(1, 21)
            for j in range(i + 1, 21)
        ]
        assert np.mean(losses) == pytest.approx(57.55, abs=0.5)
        assert np.std(losses) == pytest.approx(1.23, abs=0.5)


class TestIqFiles:
    @pytest.mark.parametrize("rate", [-5.0, 0.0, math.nan, math.inf])
    def test_writer_refuses_a_bad_rate_before_touching_files(self, tmp_path, rate):
        path = tmp_path / "x.iq"
        write_capture(path, rand_stream(3))
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(ValueError, match=f"{path}: sample_rate_hz"):
            write_iq_file(path, [rand_stream(4)], rate)
        # the old capture and its sidecar stand, and no .partial was opened
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert np.allclose(read_iq_file(path), rand_stream(3), atol=1e-6)

    def test_round_trip(self, tmp_path):
        stream = rand_stream(777, seed=5)
        path = tmp_path / "capture.iq"
        write_capture(path, stream)
        back = read_iq_file(path)
        assert read_iq_sidecar(path) == FS
        assert back.dtype == np.complex64
        assert np.allclose(back, stream, atol=1e-6)

    def test_raw_layout_is_interleaved_float32_le(self, tmp_path):
        path = tmp_path / "capture.iq"
        write_capture(path, np.array([1 + 2j, 3 - 4j]))
        raw = np.fromfile(path, dtype="<f4")
        assert np.array_equal(raw, [1, 2, 3, -4])
        meta = json.loads((tmp_path / "capture.iq.json").read_text())
        assert meta == {"sample_rate_hz": FS}

    def test_missing_sidecar_is_an_error(self, tmp_path):
        path = tmp_path / "capture.iq"
        np.zeros(4, dtype="<f4").tofile(path)
        with pytest.raises(FileNotFoundError, match="sidecar"):
            read_iq_file(path)

    @pytest.mark.parametrize(
        "sidecar, error",
        [
            ("{not json", "not JSON"),
            ('{"origin_time_s": 0.0}', "no sample_rate_hz"),
            ('{"sample_rate_hz": -5}', "-5 is not a finite number > 0"),
            ('{"sample_rate_hz": NaN}', "nan is not a finite number > 0"),
            ('{"sample_rate_hz": Infinity}', "inf is not a finite number > 0"),
        ],
        ids=["not-json", "no-rate", "negative", "nan", "infinite"],
    )
    def test_bad_sidecar_is_an_error_naming_it(self, tmp_path, sidecar, error):
        path = tmp_path / "capture.iq"
        write_capture(path, rand_stream(3))
        (tmp_path / "capture.iq.json").write_text(sidecar)
        for read in (read_iq_sidecar, read_iq_file):
            with pytest.raises(ValueError, match=error) as info:
                read(path)
            assert str(info.value).startswith(f"{path}.json: ")

    def test_a_sidecar_that_is_not_utf8_is_an_error_naming_it(self, tmp_path):
        path = tmp_path / "capture.iq"
        write_capture(path, rand_stream(3))
        (tmp_path / "capture.iq.json").write_bytes(b'{"sample_rate_hz": 1e6\xff}')
        message = f"{path}.json: not UTF-8: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_iq_sidecar(path)

    def test_streaming_writer_matches_bulk(self, tmp_path):
        stream = rand_stream(1000, seed=9)
        bulk = tmp_path / "bulk.iq"
        streamed = tmp_path / "streamed.iq"
        write_capture(bulk, stream)
        write_iq_file(streamed, iter([stream[:300], stream[300:]]), FS)
        assert bulk.read_bytes() == streamed.read_bytes()
        assert iq_file_sample_count(streamed) == 1000

    def test_writer_lets_go_of_a_block_before_it_asks_for_the_next(self, tmp_path):
        stream = rand_stream(1000, seed=4).astype(np.complex64)
        checked = []

        def blocks():
            before = None
            for a in range(0, 1000, 250):
                block = stream[a : a + 250].copy()  # fresh, as emulate_blocks yields
                if before is not None:
                    assert before() is None, "the block before is still alive"
                    checked.append(a)
                before = weakref.ref(block)
                yield block

        path = tmp_path / "capture.iq"
        write_iq_file(path, blocks(), FS)
        assert checked == [250, 500, 750]
        assert np.array_equal(read_iq_file(path), stream)

    def test_aborted_writer_leaves_nothing(self, tmp_path):
        path = tmp_path / "capture.iq"

        def blocks():
            yield rand_stream(100)
            raise RuntimeError("emulation failed")

        with pytest.raises(RuntimeError, match="emulation failed"):
            write_iq_file(path, blocks(), FS)
        assert list(tmp_path.iterdir()) == []

    def test_open_writer_hides_the_old_capture(self, tmp_path):
        path = tmp_path / "capture.iq"
        write_capture(path, rand_stream(500, seed=1))
        new = rand_stream(200, seed=2)

        def blocks():
            yield new[:100]
            assert not path.exists()
            assert not (tmp_path / "capture.iq.json").exists()
            with pytest.raises(FileNotFoundError):
                read_iq_file(path)
            yield new[100:]

        write_iq_file(path, blocks(), FS)
        assert np.array_equal(read_iq_file(path), new.astype(np.complex64))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "capture.iq", "capture.iq.json"
        ]

    def test_partial_sample_is_an_error_naming_the_file(self, tmp_path):
        path = tmp_path / "torn.iq"
        write_capture(path, rand_stream(3))
        with open(path, "ab") as fh:
            fh.write(b"\0\0\0\0")  # half of a sample
        with pytest.raises(ValueError, match="torn.iq"):
            iq_file_sample_count(path)
        with pytest.raises(ValueError, match="torn.iq"):
            read_iq_file(path)


def emulate_oracle(taps, cfg, ref, total, fs=FS):
    """apply_channel on the repeated reference, as the capture stores it."""
    tiled = np.tile(ref, math.ceil(total / len(ref)))[:total]
    return apply_channel(tiled, fs, taps, (1, 2), cfg).astype(np.complex64)


class TestStreamingEmulation:
    def test_matches_in_memory_apply_channel(self, tmp_path):
        rng = np.random.default_rng(3)
        ref = np.sign(rng.standard_normal(255)).astype(float)
        taps = tap_file_from(
            [
                [(0, 0.7 + 0j), (64, 0.1j)],
                [(0, 0.5 + 0.2j), (64, 0.1j)],
                [(3, 1.0 + 0j)],
                [(3, 1.0 + 0j)],
            ]
        )
        total = 3700
        cfg = quiet_config(base_loss_db=7.0, noise_floor_db=-40.0, seed=5)
        out = tmp_path / "capture.iq"
        # tiny chunks force several boundary crossings
        blocks = emulate_blocks(taps, (1, 2), cfg, ref, FS, total, block_samples=611)
        write_iq_file(out, blocks, FS)
        assert out.read_bytes() == emulate_oracle(taps, cfg, ref, total).tobytes()

    def test_every_sample_takes_its_own_milliseconds_record(self):
        # 1.5 samples per ms: the ms edges fall between samples and on them
        fs = 1500.0
        n_ms = 12
        taps = tap_file_from([[(0, complex(m + 1))] for m in range(n_ms)], 1.0 / fs)
        total = int(n_ms * fs / 1000)
        expected = np.floor(np.arange(total) * 1000 / fs + 1e-9) + 1
        x = np.ones(total, dtype=complex)
        y = apply_channel(x, fs, taps, (1, 2), quiet_config())
        assert y.tolist() == expected.tolist()
        for block in (1, 5, total):
            blocks = emulate_blocks(taps, (1, 2), quiet_config(), np.ones(3), fs, total, block)
            assert np.concatenate(list(blocks)).tolist() == expected.tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        frame=st.integers(3, 40),
        samples_per_ms=st.integers(0, 60),
        extra_hz=st.integers(0, 999),
        pool=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 90),
                    st.complex_numbers(max_magnitude=2.0, allow_nan=False),
                ),
                max_size=4,
                unique_by=lambda t: t[0],
            ),
            min_size=1,
            max_size=3,
        ),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        total_frac=st.floats(0.0, 1.0),
        block=st.integers(1, 400),
        noise=st.booleans(),
        seed=st.integers(0, 3),
        handoff=st.sampled_from([1, 50, helper.HANDOFF_SAMPLES]),
        chunk=st.sampled_from([1, 37, 128, emulator.NOISE_CHUNK_SAMPLES]),
    )
    def test_blocks_equal_oracle_for_any_split(
        self, frame, samples_per_ms, extra_hz, pool, picks, total_frac, block, noise,
        seed, handoff, chunk,
    ):
        # consecutive equal picks make runs of identical records; a
        # millisecond is rarely a multiple of the frame, so taps change
        # mid-frame; a sample rate that is not whole samples per ms puts the
        # ms edges between samples, and below 1 kS/s some ms hold no sample;
        # delays up to 90 samples exceed short frames; a low hand-off size
        # draws the noise of some or all blocks on the helper; a low noise
        # chunk size spreads a link over several chunks and starts blocks
        # inside one
        fs = samples_per_ms * 1000.0 + extra_hz
        assume(fs > 0)
        records = [sorted(pool[i % len(pool)]) for i in picks]
        taps = tap_file_from(records, grid_dt_s=1.0 / fs)
        ref = np.sign(np.random.default_rng(seed).standard_normal(frame) + 0.1)
        total = max(1, int(total_frac * len(records) * fs / 1000.0))
        cfg = quiet_config(
            base_loss_db=3.0, noise_floor_db=-20.0 if noise else None, seed=seed
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(helper, "HANDOFF_SAMPLES", handoff)
            mp.setattr(emulator, "NOISE_CHUNK_SAMPLES", chunk)
            blocks = list(emulate_blocks(taps, (1, 2), cfg, ref, fs, total, block))
            expected = emulate_oracle(taps, cfg, ref, total, fs)
        assert all(b.dtype == np.complex64 for b in blocks)
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("handoff", [1, 1 << 15, 1 << 62])
    @pytest.mark.parametrize(
        "case, chunk",
        [
            ("delays longer than a frame", None),
            ("pieces inside the zero history", None),
            ("pieces inside the zero history", 3000),  # below _FILTER_SPAN
        ],
    )
    def test_blocks_equal_oracle_at_every_hand_off(
        self, monkeypatch, case, chunk, handoff
    ):
        ref = np.sign(np.random.default_rng(2).standard_normal(255) + 0.1)
        if case == "delays longer than a frame":
            # d_max is 700 samples, of a 255-sample frame; blocks of a bit
            # more than the hand-off size start inside noise chunks
            records = [[(0, 0.7 + 0.1j), (700, 0.2j)]] * 40 + [
                [(3, 1.0 + 0j), (300, -0.2 + 0j)]
            ] * 50
            total, block = 77_881, (1 << 15) + 1000
        else:
            # d_max is 50,000 samples: the second block, and its pieces,
            # start inside the zero history, and a filter span crosses its end
            records = [[(0, 0.8 + 0.1j), (50_000, 0.3j)]] * 60 + [
                [(7, 1.0 + 0j), (50_000, -0.2 + 0j)]
            ] * 60
            total, block = 120_000, 40_000
        assert 3000 < emulator._FILTER_SPAN
        if chunk is not None:
            monkeypatch.setattr(emulator, "NOISE_CHUNK_SAMPLES", chunk)
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", handoff)
        taps = tap_file_from(records)
        cfg = quiet_config(base_loss_db=4.0, noise_floor_db=-25.0, seed=3)
        blocks = list(emulate_blocks(taps, (1, 2), cfg, ref, FS, total, block))
        expected = emulate_oracle(taps, cfg, ref, total)
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == expected.tobytes()

    def test_stream_beyond_tap_file_is_an_error(self):
        taps = tap_file_from([[(0, 1 + 0j)]])
        with pytest.raises(KeyError, match="duration"):
            list(emulate_blocks(taps, (1, 2), quiet_config(), np.ones(7), FS, 1500))


def large_link(noise=True):
    """Blocks past the hand-off size; the taps change inside blocks 2 and 3."""
    rng = np.random.default_rng(11)
    ref = np.sign(rng.standard_normal(255) + 0.1)
    taps = tap_file_from(
        [[(0, 0.7 + 0.1j), (64, 0.1j)]] * 40
        + [[(3, 1.0 + 0j), (200, -0.2 + 0j)]] * 50
        + [[(0, 0.5 - 0.5j)]] * 20
    )
    cfg = quiet_config(
        base_loss_db=6.0, noise_floor_db=-30.0 if noise else None, seed=9
    )
    total = 3 * helper.HANDOFF_SAMPLES + 4321  # taps change at sample 40,000
    return taps, cfg, ref, total


def wait_or_fail(target, seconds=60.0):
    """Run ``target`` on a thread; fail instead of hanging the suite."""
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(target()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return outcome[0]


class TestHelperThread:
    @pytest.mark.parametrize("noise", [True, False])
    def test_large_blocks_equal_oracle(self, noise):
        taps, cfg, ref, total = large_link(noise)
        block = helper.HANDOFF_SAMPLES + 1000
        blocks = list(emulate_blocks(taps, (1, 2), cfg, ref, FS, total, block))
        assert [len(b) for b in blocks] == [block] * 3 + [total - 3 * block]
        expected = emulate_oracle(taps, cfg, ref, total)
        assert np.concatenate(blocks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [1000, emulator.NOISE_CHUNK_SAMPLES])
    def test_capture_bytes_equal_with_hand_off_on_and_off(
        self, tmp_path, monkeypatch, chunk
    ):
        # blocks of 2.5 chunks at the smaller chunk size start inside one
        monkeypatch.setattr(emulator, "NOISE_CHUNK_SAMPLES", chunk)
        taps, cfg, ref, total = large_link()
        captures = []
        for handoff in (1, 1 << 62):
            monkeypatch.setattr(helper, "HANDOFF_SAMPLES", handoff)
            path = tmp_path / f"handoff-{handoff}.iq"
            blocks = emulate_blocks(taps, (1, 2), cfg, ref, FS, total, block_samples=2500)
            write_iq_file(path, blocks, FS)
            captures.append(path.read_bytes())
        assert captures[0] == captures[1]
        assert captures[0] == emulate_oracle(taps, cfg, ref, total).tobytes()

    def test_closing_early_leaves_next_call_unchanged(self):
        taps, cfg, ref, total = large_link()
        block = helper.HANDOFF_SAMPLES
        expected = emulate_oracle(taps, cfg, ref, total)

        def close_after_first_block():
            blocks = emulate_blocks(taps, (1, 2), cfg, ref, FS, total, block)
            first = next(blocks)
            blocks.close()  # the helper is drawing the second block's noise
            return first

        first = wait_or_fail(close_after_first_block)
        assert first.tobytes() == expected[:block].tobytes()
        again = wait_or_fail(
            lambda: list(emulate_blocks(taps, (1, 2), cfg, ref, FS, total, block))
        )
        assert np.concatenate(again).tobytes() == expected.tobytes()

    def test_one_helper_for_all_calls(self, monkeypatch):
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        taps = tap_file_from([[(0, 1 + 0j)]])
        cfg = quiet_config(noise_floor_db=-20.0)

        def emulate():
            return list(emulate_blocks(taps, (1, 2), cfg, np.ones(7), FS, 500, 100))

        first = np.concatenate(emulate()).tobytes()
        threads = threading.active_count()
        for _ in range(50):
            assert np.concatenate(emulate()).tobytes() == first
        assert threading.active_count() == threads

    def test_concurrent_callers_share_one_helper(self, monkeypatch):
        # more callers than cores, all handing blocks off at once, with the
        # helper not yet started, so its creation races too
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        monkeypatch.setattr(helper, "_helper", None)
        taps = tap_file_from([[(0, 1 + 0j), (3, 0.5j)], [(1, -0.5 + 0j)]] * 2)
        ref = np.sign(np.random.default_rng(0).standard_normal(31) + 0.1)
        configs = [quiet_config(noise_floor_db=-20.0, seed=s) for s in range(6)]
        expected = [emulate_oracle(taps, c, ref, 3500).tobytes() for c in configs]
        before = set(threading.enumerate())
        correct = [None] * len(configs)

        def caller(i):
            correct[i] = all(
                np.concatenate(
                    list(emulate_blocks(taps, (1, 2), configs[i], ref, FS, 3500, 300))
                ).tobytes()
                == expected[i]
                for _ in range(5)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [
                threading.Thread(target=caller, args=(i,), daemon=True)
                for i in range(len(configs))
            ]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert correct == [True] * len(configs)
        started = [
            t for t in set(threading.enumerate()) - before
            if t.name == "chansounder-helper"
        ]
        assert len(started) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_helper(self, monkeypatch):
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        taps, cfg, ref, total = large_link()
        expected = emulate_oracle(taps, cfg, ref, total).tobytes()
        emulate = lambda: np.concatenate(
            list(emulate_blocks(taps, (1, 2), cfg, ref, FS, total, 5000))
        ).tobytes()
        assert emulate() == expected  # the parent's helper now exists
        pid = os.fork()
        if pid == 0:  # child: exit at once, never return into pytest
            try:
                os._exit(0 if emulate() == expected else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not done:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done, "the forked child hung"
        assert os.waitstatus_to_exitcode(status) == 0


def on_helper():
    return threading.current_thread().name == "chansounder-helper"


class TestScratch:
    def test_a_later_request_that_fits_gets_the_same_memory(self):
        first = helper.scratch("test.scratch", (4, 8), np.complex128)
        assert first.shape == (4, 8) and first.dtype == np.complex128
        again = helper.scratch("test.scratch", 10, np.float64)
        assert again.shape == (10,) and again.dtype == np.float64
        assert again.ctypes.data == first.ctypes.data
        grown = helper.scratch("test.scratch", 100, np.complex128)
        assert grown.size == 100
        assert helper.scratch("test.scratch", 3, np.int8).ctypes.data == grown.ctypes.data
        other = helper.scratch("test.scratch-other", 3, np.int8)
        assert not np.shares_memory(other, grown)

    def test_each_thread_has_its_own(self):
        here = helper.scratch("test.scratch", 16, np.float64)

        def on_a_thread():
            mine = helper.scratch("test.scratch", 16, np.float64)
            return mine, helper.scratch("test.scratch", 8, np.float64)

        there, again = wait_or_fail(on_a_thread)
        assert again.ctypes.data == there.ctypes.data
        assert not np.shares_memory(here, there)
        assert helper.scratch("test.scratch", 16, np.float64).ctypes.data == here.ctypes.data


class TestWorkQueue:
    """``helper.WorkQueue`` alone, over pieces (i, i + 1) that record i."""

    PIECES = [(i, i + 1) for i in range(100)]

    def test_every_piece_runs_exactly_once(self, monkeypatch):
        # a short switch interval interleaves the two threads' claims finely
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                ran = []
                wait_or_fail(
                    lambda: helper.WorkQueue(
                        self.PIECES, lambda a, b: ran.append(a)
                    ).finish()
                )
                assert sorted(ran) == list(range(100))
        finally:
            sys.setswitchinterval(interval)

    def test_split_cuts_whole_units_into_even_runs(self):
        frames = 1028  # a 2^18-sample block of 255-sample frames
        runs = helper.split(7, 7 + frames * 255 + 100, 255)  # a partial unit left
        assert len(runs) == 8 and runs[0][0] == 7 and runs[-1][1] == 7 + frames * 255
        assert all(b == c for (_, b), (c, _) in zip(runs, runs[1:]))
        assert {(b - a) // 255 for a, b in runs} == {128, 129}
        assert all((b - a) % 255 == 0 for a, b in runs)
        assert helper.split(0, 1000, 255) == [(0, 765)]
        assert helper.split(0, 254, 255) == []

    def test_split_gives_a_step_of_one_handoff_size_or_more_an_even_count(self):
        handoff = helper.HANDOFF_SAMPLES
        assert len(helper.split(0, handoff - 1, 1)) == 1
        for size in range(handoff, 20 * handoff, 997):
            runs = helper.split(0, size, 1)
            assert len(runs) >= 2 and len(runs) % 2 == 0, size
            assert 0.5 <= size / len(runs) / handoff < 1.5, size
        # 1 to 1.5 and about 2.5 hand-off sizes once gave one and three runs
        assert len(helper.split(0, handoff * 5 // 4, 255)) == 2
        assert len(helper.split(0, handoff * 5 // 2 + 4000, 255)) == 2
        assert len(helper.split(0, 1 << 18, 255)) == 8
        # whole units limit the count, rounded down to even
        assert helper.split(0, 3 * handoff, handoff) == [
            (0, handoff), (handoff, 3 * handoff)
        ]
        assert helper.split(0, 2 * handoff, 2 * handoff) == [(0, 2 * handoff)]

    def test_small_step_stays_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 101)
        ran = []
        helper.WorkQueue(self.PIECES, lambda a, b: ran.append(on_helper())).finish()
        assert ran == [False] * 100

    def test_helper_takes_a_prefix_and_the_caller_a_suffix(self, monkeypatch):
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        helper_started, caller_ran = threading.Event(), threading.Event()
        ran = []

        def piece(a, b):
            ran.append((on_helper(), a))
            if on_helper():  # hold the helper until the caller has a piece
                helper_started.set()
                caller_ran.wait(30.0)
            else:
                caller_ran.set()

        def run():
            queue = helper.WorkQueue(self.PIECES, piece)
            started = helper_started.wait(30.0)
            queue.finish()
            return started

        assert wait_or_fail(run)
        by_helper = [a for h, a in ran if h]
        by_caller = [a for h, a in ran if not h]
        k = len(by_helper)
        assert by_helper == list(range(k)) and k >= 1
        assert by_caller == list(range(99, k - 1, -1)) and k < 100

    @pytest.mark.parametrize("failing_on_helper", [True, False])
    def test_an_error_on_either_thread_reaches_the_caller(
        self, monkeypatch, failing_on_helper
    ):
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        helper_started = threading.Event()
        ran = []

        def piece(a, b):
            if on_helper():
                helper_started.set()
                time.sleep(0.001)
            else:  # let the helper take a piece first
                helper_started.wait(30.0)
            ran.append(a)
            if on_helper() == failing_on_helper:
                raise FloatingPointError(f"raised on piece {a}")

        def run():
            try:
                helper.WorkQueue(self.PIECES, piece).finish()
            except FloatingPointError as exc:
                return str(exc), len(ran)

        message, ran_at_return = wait_or_fail(run)
        assert message == f"raised on piece {0 if failing_on_helper else 99}"
        # the helper serves queues in order, so once a later queue is
        # finished no piece of this one is running or left to run
        wait_or_fail(lambda: helper.WorkQueue([(0, 1)], lambda a, b: None).finish())
        assert len(ran) == ran_at_return

    @pytest.mark.parametrize("call", ["finish", "cancel"])
    def test_waits_for_the_piece_in_flight(self, monkeypatch, call):
        monkeypatch.setattr(helper, "HANDOFF_SAMPLES", 1)
        in_flight, release = threading.Event(), threading.Event()
        ran = []

        def piece(a, b):
            if on_helper() and not in_flight.is_set():
                in_flight.set()
                release.wait(30.0)
            ran.append(a)

        queue = helper.WorkQueue(self.PIECES, piece)
        assert in_flight.wait(30.0)
        waiting = threading.Thread(target=getattr(queue, call), daemon=True)
        waiting.start()
        waiting.join(0.2)
        assert waiting.is_alive()  # piece 0 is still running
        release.set()
        waiting.join(30.0)
        assert not waiting.is_alive()
        # finish() ran every other piece; cancel() dropped them
        assert sorted(ran) == (list(range(100)) if call == "finish" else [0])


class TestNoiseCalibration:
    def test_correlated_noise_band_lands_at_target(self):
        # Push pure noise through the correlator arithmetic and check the
        # per-lag RMS matches the closed form used by the calibration.
        n_code, spc = 255, 1
        peak = 1.0
        power_db = noise_floor_db_for_dynamic_range(peak, n_code, spc, 43.0)
        noise = make_noise(255 * 4000, power_db, 123)
        frames = noise.reshape(4000, 255)
        ref = np.sign(np.random.default_rng(1).standard_normal(255))
        h = np.fft.ifft(
            np.fft.fft(frames, axis=1) * np.conj(np.fft.fft(ref)), axis=1
        ) / 255.0
        rms_lag = np.sqrt(np.mean(np.abs(h) ** 2))
        expected_rms = peak * 10 ** (-43 / 20) / math.sqrt(math.log(255))
        assert rms_lag == pytest.approx(expected_rms, rel=0.05)
