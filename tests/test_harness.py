"""Tests for validation scoring, heatmaps, and the scenario pipeline."""

import dataclasses
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import harness
from chansounder import mobility as mob
from chansounder.channel_model import noise_floor_dbm
from chansounder.emulator import (
    EmulatorConfig,
    emulate_repeated_reference_to_file,
    noise_floor_db_for_dynamic_range,
)
from chansounder.harness import (
    PipelineError,
    _truth_series_from_matrix,
    build_synthetic_tap_file,
    compare_to_ground_truth,
    pathloss_heatmap,
    run_scenario_pipeline,
)
from chansounder.sequences import bpsk_modulate, generate_glfsr
from chansounder.sounder import (
    Detections,
    SoundingConfig,
    SoundingReport,
    sound_chunked,
)
from chansounder.tap_approx import TapFile
from oracles import compare_per_frame, truth_series_per_frame

CODE = generate_glfsr(8)
REF = bpsk_modulate(CODE, 1)
FS = 1e6
GRID = 1.0 / FS


def run_loop(tmp_path, tap_file, pair=(1, 2), base_loss_db=0.0, noise=None,
             duration_s=0.01, seed=1, ref=REF):
    config = EmulatorConfig(
        base_loss_db=base_loss_db, noise_floor_db=noise, seed=seed
    )
    capture = tmp_path / "loop.iq"
    emulate_repeated_reference_to_file(
        tap_file, pair, config, ref, FS, int(duration_s * FS), capture
    )
    return sound_chunked(capture, SoundingConfig(), ref)


class TestCompareToGroundTruth:
    def test_noise_free_single_tap_closed_loop(self, tmp_path):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.passed
        assert validation.spurious == 0 and validation.missed == 0
        assert validation.max_abs_delay_error_s() == 0.0
        assert validation.max_abs_gain_error_db() < 1e-6

    def test_a_tap_off_delay_zero_is_matched_on_the_anchor_reference(self, tmp_path):
        taps = build_synthetic_tap_file([3 * GRID], [0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.passed
        assert validation.spurious == 0 and validation.missed == 0
        (stat,) = validation.tap_stats
        assert stat.truth_delay_s == 0.0 and stat.n_matched == validation.n_frames
        assert stat.delay_error_mean_s == stat.delay_error_max_s == 0.0

    def test_a_weak_tap_before_the_anchor_tap_wraps_modulo_the_frame(self, tmp_path):
        taps = build_synthetic_tap_file([2 * GRID, 5 * GRID], [10.0, 0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        assert report.anchor_lag == 5
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.passed
        assert validation.spurious == 0 and validation.missed == 0
        assert [t.truth_delay_s for t in validation.tap_stats] == pytest.approx([0.0, 252 / FS])
        assert all(t.delay_error_max_s == 0.0 for t in validation.tap_stats)

    @pytest.mark.parametrize(
        "grid_samples, samples_per_chip, indices",
        [(2, 1, [1, 4]), (1, 2, [2, 8])],
        ids=["grid-step-2-samples", "2-samples-per-chip"],
    )
    def test_delays_score_zero_in_whole_samples(
        self, tmp_path, grid_samples, samples_per_chip, indices
    ):
        grid = grid_samples / FS
        taps = build_synthetic_tap_file([i * grid for i in indices], [0.0, 6.0], grid, 12)
        report = run_loop(tmp_path, taps, ref=bpsk_modulate(CODE, samples_per_chip))
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.passed and validation.delay_tol_s == grid / 2
        assert validation.spurious == 0 and validation.missed == 0
        assert [t.truth_delay_s for t in validation.tap_stats] == pytest.approx([0.0, 6 / FS])
        assert all(t.delay_error_max_s == 0.0 for t in validation.tap_stats)

    def test_a_frame_across_a_record_change_is_mixed_not_scored(self, tmp_path):
        # the record changes at 1 ms, inside frame 3 (samples 765 to 1019):
        # that frame is sounded through both tap lists
        taps = TapFile(
            2, GRID, 4, 12, 0.0, [((0, 1 + 0j),), ((0, 1 + 0j), (4, 0.5 + 0j))],
            {(1, 2): np.array([0] + [1] * 11, dtype=np.int32)},
        )
        report = run_loop(tmp_path, taps)
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.n_frames == report.n_frames == 38
        assert (validation.spurious, validation.missed, validation.mixed_frames) == (0, 0, 1)
        assert validation.passed
        assert [t.n_matched for t in validation.tap_stats] == [37, 35]
        assert validation.to_dict()["mixed_frames"] == 1

    def test_a_frame_that_ends_past_the_tap_file_is_mixed(self, tmp_path):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        # 9 ms of truth: frame 35 starts at 8925 us and ends at 9179 us
        truth = dataclasses.replace(taps, duration_ms=9, index={(1, 2): taps.index[(1, 2)][:9]})
        validation = compare_to_ground_truth(report, truth, 0.0, pair=(1, 2))
        assert validation.n_frames == 35 and validation.mixed_frames == 1
        assert validation.spurious == validation.missed == 0 and validation.passed

    def test_a_detection_one_step_off_its_tap_is_spurious(self, tmp_path):
        sent = build_synthetic_tap_file([0.0, 4 * GRID], [0.0, 6.0], GRID, 12)
        truth = build_synthetic_tap_file([0.0, 3 * GRID], [0.0, 6.0], GRID, 12)
        report = run_loop(tmp_path, sent)
        validation = compare_to_ground_truth(report, truth, 0.0, pair=(1, 2))
        n = validation.n_frames
        assert validation.spurious == n and validation.missed == n
        assert [t.slot for t in validation.tap_stats] == [0]
        assert not validation.passed

    def test_corrections_restore_original_gains(self, tmp_path):
        taps = build_synthetic_tap_file(
            [0.0, 5e-6], [3.0, 10.0], GRID, 12, offset_db=20.0
        )
        base = 40.0
        report = run_loop(tmp_path, taps, base_loss_db=base)
        validation = compare_to_ground_truth(report, taps, base, pair=(1, 2))
        assert validation.passed
        # residual bias comes from the code's -1/N correlation sidelobes of
        # the other tap sitting under each peak, so it is not exactly zero
        for stat, expected in zip(validation.tap_stats, (-3.0, -10.0)):
            assert stat.truth_gain_db == pytest.approx(expected, abs=1e-9)
            assert abs(stat.gain_error_mean_db) < 0.1

    def test_offset_invariance(self, tmp_path):
        taps = build_synthetic_tap_file([0.0], [3.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        v0 = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        shifted = build_synthetic_tap_file([0.0], [3.0], GRID, 12, offset_db=6.0)
        report6 = run_loop(tmp_path, shifted)
        v6 = compare_to_ground_truth(report6, shifted, 0.0, pair=(1, 2))
        a = v0.tap_stats[0]
        b = v6.tap_stats[0]
        assert b.gain_error_mean_db == pytest.approx(a.gain_error_mean_db, abs=1e-6)

    def test_spurious_detection_fails_strict_mode(self, tmp_path):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        clean = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert clean.spurious == 0 and clean.passed
        # inject a detection far from any ground-truth tap at the end of the
        # first frame
        det = report.detections
        end = det.offsets[1]
        report.detections = Detections(
            np.r_[0, det.offsets[1:] + 1],
            np.insert(det.delay_s, end, 50e-6),
            np.insert(det.gain_db, end, -3.0),
        )
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.spurious == 1
        assert validation.missed == 0
        assert not validation.passed

    def test_no_overlapping_frames_is_an_error(self):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 1)
        report = SoundingReport(
            detections=Detections(np.array([0, 0]), np.empty(0), np.empty(0)),
            frame_len=500_000,  # 0.5 s
            sample_rate_hz=FS,
            noise_floor_gain_db=-60,
            anchor_lag=0,
            first_frame_index=10,  # first frame starts at 5 s, file is 1 ms
        )
        with pytest.raises(ValueError, match="overlap"):
            compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))

    def test_multi_pair_file_needs_explicit_pair(self, tmp_path):
        taps = TapFile(
            2, GRID, 4, 2, 0.0, [((0, 1 + 0j),)],
            {(1, 2): [0, 0], (2, 1): [0, 0]},
        )
        report = run_loop(tmp_path, taps, pair=(1, 2), duration_s=0.002)
        with pytest.raises(TypeError, match="pair"):
            compare_to_ground_truth(report, taps, 0.0)
        validation = compare_to_ground_truth(report, taps, 0.0, pair=(1, 2))
        assert validation.passed

    def test_a_tap_file_without_records_is_an_error_saying_so(self):
        report = SoundingReport(
            detections=Detections(np.array([0, 0]), np.empty(0), np.empty(0)),
            frame_len=len(REF),
            sample_rate_hz=FS,
            noise_floor_gain_db=-60,
            anchor_lag=0,
        )
        with pytest.raises(KeyError, match=r"^'no tap record for pair \(1,2\) at 0 ms'$"):
            compare_to_ground_truth(report, TapFile(2, GRID, 4, 3), 0.0, pair=(1, 2))


@st.composite
def scored_reports(draw):
    """A report and a tap file whose truth changes every millisecond.

    At 4096 S/s on a one-sample grid every delay is exact, so detections
    land exactly on the tolerance or halfway between two truth taps. Frames
    of 3 to 12 samples make truth taps before the anchor tap, and taps past
    the frame, wrap. Records may be empty or hold zero taps, repeat the
    previous record or take an earlier record's tap list back (ids A, B, A),
    and frames may run past the end of the file. A 12-sample frame spans
    about 3 ms, so its first and last samples may take one tap list with
    another between them.
    """
    fs = 4096.0
    grid = 1.0 / fs
    duration_ms = draw(st.integers(1, 12))
    coefs = st.sampled_from([0j, 1 + 0j, 0.5j, -0.25 + 0j, 2 + 2j, 1e-3 + 0j])
    # one tap list per ms, so equal taps also sit in different lists
    tap_lists = []
    prev = ()
    for ms in range(duration_ms):
        if ms and draw(st.booleans()):
            taps = prev
        else:
            idx = draw(st.lists(st.integers(0, 6), max_size=4, unique=True))
            taps = tuple((i, draw(coefs)) for i in sorted(idx))
        tap_lists.append(taps)
        prev = taps
    # a record may take the tap list of one of the two before it
    index = [draw(st.integers(max(0, ms - 2), ms)) for ms in range(duration_ms)]
    tap_file = TapFile(2, grid, 4, duration_ms, 0.0, tap_lists, {(1, 2): np.array(index)})

    n_frames = draw(st.integers(1, 16))
    counts = draw(st.lists(st.integers(0, 5), min_size=n_frames, max_size=n_frames))
    n = sum(counts)
    steps = st.sampled_from([0.0, 0.5, 1.0, -1.0, 0.25, 1.5, 3.0])
    delays = [
        max(0.0, draw(st.integers(0, 7)) + draw(steps)) * grid for _ in range(n)
    ]
    gains = draw(
        st.lists(
            st.sampled_from([-3.0, -6.0, 0.0, 2.5]) | st.floats(-60, 10),
            min_size=n, max_size=n,
        )
    )
    report = SoundingReport(
        detections=Detections(
            np.r_[0, np.cumsum(counts)].astype(np.intp),
            np.array(delays, dtype=float),
            np.array(gains, dtype=float),
        ),
        frame_len=draw(st.sampled_from([3, 4, 6, 8, 10, 12])),
        sample_rate_hz=fs,
        noise_floor_gain_db=-60.0,
        anchor_lag=0,
        first_frame_index=draw(st.sampled_from([0, 1, 2, 400])),
    )
    return report, tap_file


class TestValidationOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        case=scored_reports(),
        base=st.sampled_from([0.0, 57.55]),
        offset=st.sampled_from([0.0, 45.0]),
        tol=st.sampled_from([None, 0.5 / 4096, 2.0 / 4096]),
        strict=st.booleans(),
    )
    def test_equals_per_frame_oracle(self, case, base, offset, tol, strict):
        report, taps = case
        args = (report, dataclasses.replace(taps, offset_db=offset), base)
        kwargs = dict(pair=(1, 2), delay_tol_s=tol, gain_tol_db=1.0, strict=strict)
        try:
            expected = compare_per_frame(*args, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                compare_to_ground_truth(*args, **kwargs)
            return
        got = compare_to_ground_truth(*args, **kwargs)
        for name in ("frame_times_s", "strongest_loss_db", "truth_strongest_loss_db"):
            assert np.array_equal(
                getattr(got, name), getattr(expected, name), equal_nan=True
            ), name
        assert got.tap_stats == expected.tap_stats
        for name in ("spurious", "missed", "mixed_frames", "n_frames", "delay_tol_s",
                     "gain_tol_db", "strict", "passed"):
            assert getattr(got, name) == getattr(expected, name), name


class TestBatchedMatching:
    @pytest.mark.parametrize("batch", [1, 3, 1 << 62])
    def test_any_batch_size_equals_one_batch(self, monkeypatch, batch):
        fs = 6e6
        grid = 1 / fs
        taps = TapFile(
            2, grid, 4, 4, 0.0,
            [((0, 1 + 0j), (3, 0.5j), (7, 0.25 + 0j)), ((0, 0.8 + 0j), (5, 0.1 + 0j))],
            {(1, 2): np.array([0, 0, 1, 1])},
        )
        truth = [[0.0, 3 * grid, 7 * grid], [0.0, 5 * grid]]
        rng = np.random.default_rng(8)
        n_frames = 2400  # 10-sample frames, 600 a millisecond
        offsets, delays, gains = [0], [], []
        for f in range(n_frames):
            slots = truth[f * 4 // n_frames // 2]
            n = 0 if f % 50 == 7 else int(rng.integers(1, 6))  # some frames empty
            # frame 0 holds spurious detections only; a spurious one has no slot
            pick = rng.integers(0, len(slots) + 1, n) if f else np.full(n, len(slots))
            d = [slots[p] + rng.uniform(-0.4, 0.4) * grid if p < len(slots)
                 else 40 * grid + rng.uniform(0, 10) * grid for p in pick.tolist()]
            delays += sorted(max(0.0, x) for x in d)
            gains += rng.normal(-30.0, 3.0, n).tolist()
            offsets.append(len(delays))
        counts = np.diff(offsets)
        assert counts[0] > 0 and counts.max() > 3  # more detections than slots
        report = SoundingReport(
            Detections(np.array(offsets), np.array(delays), np.array(gains)),
            10, fs, -80.0, 0,
        )
        monkeypatch.setattr(harness, "_MATCH_BATCH_ROWS", 1 << 62)
        whole = compare_to_ground_truth(report, taps, 20.0, pair=(1, 2), strict=False)
        monkeypatch.setattr(harness, "_MATCH_BATCH_ROWS", batch)
        got = compare_to_ground_truth(report, taps, 20.0, pair=(1, 2), strict=False)
        assert whole.spurious > 0 and whole.missed > 0
        assert repr(got.tap_stats) == repr(whole.tap_stats)
        for name in ("frame_times_s", "strongest_loss_db", "truth_strongest_loss_db"):
            assert np.array_equal(getattr(got, name), getattr(whole, name), equal_nan=True)
        assert (got.spurious, got.missed, got.passed) == (
            whole.spurious, whole.missed, whole.passed
        )


TRUTH_SCENARIO = mob.Scenario(
    nodes=(
        mob.NodeSpec(1, "OBU", 1.5, mob.Trajectory(((0, 0), (60, 0)), 20.0)),
        mob.NodeSpec(2, "RSU", 4.0, mob.Trajectory(((30, 12),))),
    ),
    t_total_s=2.0,
    sample_interval_s=0.1,
)
TRUTH_MATRIX = mob.assemble_channel_matrix(TRUTH_SCENARIO)
TRUTH_POWER = {n.node_id: n.radio.tx_power_dbm for n in TRUTH_SCENARIO.nodes}
TRUTH_FLOOR = min(noise_floor_dbm(n.radio) for n in TRUTH_SCENARIO.nodes)


class TestTruthSeries:
    @settings(max_examples=150, deadline=None)
    @given(
        edges=st.lists(st.integers(0, TRUTH_MATRIX.n_samples + 3), max_size=20),
        others=st.lists(st.floats(0.0, 1.6), max_size=20),
        pair=st.sampled_from([(1, 2), (2, 1)]),
        ascending=st.booleans(),
    )
    def test_equals_per_frame_loop(self, edges, others, pair, ascending):
        # times exactly on sample edges, between them and past the last sample
        times = np.array([e * TRUTH_MATRIX.sample_interval_s for e in edges] + others)
        if ascending:
            times.sort()
        got = _truth_series_from_matrix(TRUTH_MATRIX, pair, times, TRUTH_POWER, TRUTH_FLOOR)
        expected = truth_series_per_frame(TRUTH_MATRIX, TRUTH_SCENARIO, pair, times)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_series_varies_over_samples(self):
        times = np.arange(0, 1.6, 0.05)
        got = _truth_series_from_matrix(TRUTH_MATRIX, (1, 2), times, TRUTH_POWER, TRUTH_FLOOR)
        assert np.isfinite(got).all() and len(np.unique(got)) > 5


class TestPathlossHeatmap:
    def test_two_nodes_reproduce_base_loss_exactly(self, tmp_path):
        config = EmulatorConfig(base_loss_db=57.55, noise_floor_db=None)
        heatmap = pathloss_heatmap(
            [1, 2], 0.005, config, CODE, FS, out_dir=tmp_path
        )
        off_diag = [heatmap.matrix_db[0, 1], heatmap.matrix_db[1, 0]]
        assert off_diag == pytest.approx([57.55, 57.55], abs=1e-4)
        assert math.isnan(heatmap.matrix_db[0, 0])

    def test_single_node_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2 nodes"):
            pathloss_heatmap([1], 0.005, EmulatorConfig(), CODE, out_dir=tmp_path)

    def test_reciprocal_configuration_is_symmetric(self, tmp_path):
        config = EmulatorConfig(
            base_loss_db=57.55,
            base_loss_sd_db=1.23,
            noise_floor_db=noise_floor_db_for_dynamic_range(
                10 ** (-57.55 / 20), 255, 1
            ),
            seed=5,
        )
        heatmap = pathloss_heatmap(
            [1, 2, 3], 0.005, config, CODE, FS, out_dir=tmp_path
        )
        m = heatmap.matrix_db
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(m[i, j] - m[j, i]) <= 0.2

    def test_leaves_no_temporary_directory(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        config = EmulatorConfig(base_loss_db=10.0, noise_floor_db=None)
        pathloss_heatmap([1, 2], 0.004, config, CODE, FS)
        assert list(scratch.iterdir()) == []

    def test_csv_export(self, tmp_path):
        config = EmulatorConfig(base_loss_db=10.0, noise_floor_db=None)
        heatmap = pathloss_heatmap([1, 2], 0.004, config, CODE, FS, out_dir=tmp_path)
        out = tmp_path / "heatmap.csv"
        heatmap.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows


def synthetic_config(tmp_path, duration_s=0.008):
    cfg = {
        "name": "synthetic-mini",
        "duration_s": duration_s,
        "seed": 3,
        "synthetic_taps": {
            "delays_us": [0.0, 5.0],
            "losses_db": [3.0, 10.0],
            "pair": [1, 2],
        },
        "taps": {"grid_dt_s": 1e-6, "k": 4, "offset_db": 0.0},
        "sounding": {
            "sample_rate_hz": 1e6,
            "sequence": {"family": "GLFSR", "degree": 8},
            "discard_frames": 1,
        },
        "emulator": {"base_loss_db": 20.0, "noise": True, "dyn_range_db": 43.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def mobility_config(tmp_path):
    cfg = {
        "name": "mobile-mini",
        "t_total_s": 3.0,
        "duration_s": 0.02,
        "sample_interval_s": 0.005,
        "seed": 3,
        "radio": {"tx_power_dbm": 20.0},
        "nodes": [
            {"id": 1, "kind": "OBU", "antenna_height_m": 1.5,
             "waypoints": [[30, 0], [60, 0]], "speed_mps": 10.0},
            {"id": 2, "kind": "RSU", "antenna_height_m": 4.0,
             "position": [0, 5]},
        ],
        "sounded_links": [[1, 2]],
        "taps": {"grid_dt_s": 1e-6, "k": 4, "offset_db": 60.0},
        "sounding": {
            "sample_rate_hz": 1e6,
            "sequence": {"family": "GLFSR", "degree": 8},
            "discard_frames": 1,
        },
        "emulator": {"base_loss_db": 57.55, "noise": True},
        "validation": {"gain_tol_db": 0.5},
    }
    path = tmp_path / "mobile.json"
    path.write_text(json.dumps(cfg))
    return path


class TestPipeline:
    def test_synthetic_loop_passes(self, tmp_path):
        result = run_scenario_pipeline(
            synthetic_config(tmp_path), tmp_path / "out"
        )
        assert result.passed
        validation = result.validations[(1, 2)]
        assert validation.max_abs_gain_error_db() <= 0.5
        assert validation.max_abs_delay_error_s() <= 1e-6
        for key in ("tap_file", "capture_1-2", "sounding_1-2", "validation_1-2"):
            assert key in result.artifacts

    def test_emulate_failure_names_stage(self, tmp_path):
        cfg = json.loads(synthetic_config(tmp_path).read_text())
        cfg["taps"]["grid_dt_s"] = 0.5e-6  # taps fine, but off the 1 MS/s samples
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(PipelineError, match="stage 'emulate'"):
            run_scenario_pipeline(path, tmp_path / "out")
        assert not list((tmp_path / "out").glob("*.iq*"))

    def test_mobility_loop_small_rmse(self, tmp_path):
        result = run_scenario_pipeline(mobility_config(tmp_path), tmp_path / "out")
        assert (1, 2) in result.validations
        assert result.rmse_db[(1, 2)] <= 1.0
        assert (tmp_path / "out" / "paths.jsonl").exists()
        series = (tmp_path / "out" / "pathloss_series_1-2.csv").read_text()
        assert series.startswith("time_s,truth_loss_db,sounded_loss_db")

    def test_empty_scenario_is_an_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"nodes": [], "t_total_s": 3,
                                    "sample_interval_s": 1}))
        with pytest.raises(PipelineError, match="no nodes"):
            run_scenario_pipeline(path, tmp_path / "out")

    def test_stage_failure_names_stage(self, tmp_path):
        cfg = json.loads(synthetic_config(tmp_path).read_text())
        cfg["synthetic_taps"]["delays_us"] = [0.0, 5.0001]  # off grid
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(PipelineError, match="stage 'taps'"):
            run_scenario_pipeline(path, tmp_path / "out")
