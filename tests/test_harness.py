"""Tests for validation scoring, heatmaps, and the scenario pipeline."""

import json
import math
import tempfile

import pytest

from chansounder.emulator import (
    EmulatorConfig,
    emulate_repeated_reference_to_file,
    noise_floor_db_for_dynamic_range,
)
from chansounder.harness import (
    PipelineError,
    build_synthetic_tap_file,
    compare_to_ground_truth,
    pathloss_heatmap,
    run_scenario_pipeline,
)
from chansounder.sequences import bpsk_modulate, generate_glfsr
from chansounder.sounder import DetectedTap, SoundingConfig, SoundingReport, sound_chunked

CODE = generate_glfsr(8)
REF = bpsk_modulate(CODE, 1).samples.real
FS = 1e6
GRID = 1.0 / FS


def run_loop(tmp_path, tap_file, pair=(1, 2), base_loss_db=0.0, noise=None,
             duration_s=0.01, seed=1):
    config = EmulatorConfig(
        base_loss_db=base_loss_db, noise_floor_db=noise, seed=seed
    )
    capture = tmp_path / "loop.iq"
    emulate_repeated_reference_to_file(
        tap_file, pair, config, REF, FS, int(duration_s * FS), capture
    )
    return sound_chunked(
        capture, SoundingConfig(discard_frames=1), CODE, 1
    )


class TestCompareToGroundTruth:
    def test_noise_free_single_tap_closed_loop(self, tmp_path):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        validation = compare_to_ground_truth(report, taps, 0.0, 0.0)
        assert validation.passed
        assert validation.spurious == 0 and validation.missed == 0
        assert validation.max_abs_delay_error_s() == 0.0
        assert validation.max_abs_gain_error_db() < 1e-6

    def test_corrections_restore_original_gains(self, tmp_path):
        taps = build_synthetic_tap_file(
            [0.0, 5e-6], [3.0, 10.0], GRID, 12, offset_db=20.0
        )
        base = 40.0
        report = run_loop(tmp_path, taps, base_loss_db=base)
        validation = compare_to_ground_truth(report, taps, base, 20.0)
        assert validation.passed
        # residual bias comes from the code's -1/N correlation sidelobes of
        # the other tap sitting under each peak, so it is not exactly zero
        for stat, expected in zip(validation.tap_stats, (-3.0, -10.0)):
            assert stat.truth_gain_db == pytest.approx(expected, abs=1e-9)
            assert abs(stat.gain_error_mean_db) < 0.1

    def test_offset_invariance(self, tmp_path):
        from chansounder.tap_approx import apply_offset

        taps = build_synthetic_tap_file([0.0], [3.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        v0 = compare_to_ground_truth(report, taps, 0.0, 0.0)
        shifted = apply_offset(taps, 6.0)
        report6 = run_loop(tmp_path, shifted)
        v6 = compare_to_ground_truth(report6, shifted, 0.0, 6.0)
        a = v0.tap_stats[0]
        b = v6.tap_stats[0]
        assert b.gain_error_mean_db == pytest.approx(a.gain_error_mean_db, abs=1e-6)

    def test_spurious_detection_fails_strict_mode(self, tmp_path):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 12)
        report = run_loop(tmp_path, taps)
        # inject a detection far from any ground-truth tap
        doctored = list(report.detections)
        doctored[0] = doctored[0] + [
            DetectedTap(delay_s=50e-6, gain_db=-3.0, frame_index=1)
        ]
        report.detections = doctored
        validation = compare_to_ground_truth(report, taps, 0.0, 0.0)
        assert validation.spurious == 1
        assert not validation.passed

    def test_no_overlapping_frames_is_an_error(self):
        taps = build_synthetic_tap_file([0.0], [0.0], GRID, 1)
        report = SoundingReport(
            detections=[[]],
            frame_duration_s=0.5,
            sample_rate_hz=FS,
            noise_floor_gain_db=-60,
            anchor_lag=0,
            n_frames=1,
            first_frame_index=10,  # first frame starts at 5 s, file is 1 ms
        )
        with pytest.raises(ValueError, match="overlap"):
            compare_to_ground_truth(report, taps, 0.0, 0.0)

    def test_multi_pair_file_needs_explicit_pair(self, tmp_path):
        from chansounder.tap_approx import TapFile, TapSet

        records = {}
        for ms in range(2):
            for pair in ((1, 2), (2, 1)):
                records[(ms, *pair)] = TapSet(((0, 1 + 0j),), GRID, ms)
        taps = TapFile(2, GRID, 4, 2, 0.0, records)
        report = run_loop(tmp_path, taps, pair=(1, 2), duration_s=0.002)
        with pytest.raises(ValueError, match="pair"):
            compare_to_ground_truth(report, taps, 0.0, 0.0)
        validation = compare_to_ground_truth(report, taps, 0.0, 0.0, pair=(1, 2))
        assert validation.passed


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
            pathloss_heatmap([1], 0.005, EmulatorConfig(), out_dir=tmp_path)

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
