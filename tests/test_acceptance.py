"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n (<name>): PASS/FAIL` line (visible with
`pytest -s`). The mobility criterion runs the bundled out-and-back config at
desk scale (30 s at 10 MS/s) and is the long pole of the suite; it is marked
``slow``, so ``pytest -m "not slow"`` skips it for a quick loop.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from chansounder import config
from chansounder import mobility as mob
from chansounder.channel_model import (
    RadioParams,
    noise_floor_dbm,
    path_coefficient,
)
from chansounder.emulator import (
    EmulatorConfig,
    apply_channel,
    emulate_repeated_reference_to_file,
    noise_floor_db_for_dynamic_range,
    read_iq_file,
    read_iq_sidecar,
    write_iq_file,
)
from chansounder.harness import (
    build_synthetic_tap_file,
    pathloss_heatmap,
    run_scenario_pipeline,
)
from chansounder.sequences import (
    bpsk_modulate,
    generate_glfsr,
    generate_gold,
    generate_golay_a,
    generate_ls,
)
from chansounder.sounder import (
    SoundingConfig,
    _cir_matrix,
    sound_blocks,
    sound_chunked,
)
from chansounder.tap_approx import (
    approximate_taps,
    read_tap_file,
    write_tap_file,
)

from oracles import link_path_loss_db, prune_paths

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    from conftest import record_acceptance

    line = f"ACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    record_acceptance(line)
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic4tap")
    t0 = time.monotonic()
    result = run_scenario_pipeline(CONFIG_DIR / "synthetic4tap.json", out)
    return result, time.monotonic() - t0, out


@pytest.fixture(scope="module")
def mobility_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("outandback")
    t0 = time.monotonic()
    result = run_scenario_pipeline(CONFIG_DIR / "outandback.json", out)
    return result, time.monotonic() - t0, out


class TestCriterion1SyntheticFourTapLoop:
    def test_delays_exact_and_gains_within_half_db(self, synth_run):
        result, runtime, _ = synth_run
        validation = result.validations[(1, 2)]
        max_delay_err = validation.max_abs_delay_error_s()
        gain_errs = [abs(t.gain_error_mean_db) for t in validation.tap_stats]
        truth_delays = sorted(t.truth_delay_s for t in validation.tap_stats)
        ok = (
            validation.passed
            and len(validation.tap_stats) == 4
            and truth_delays == pytest.approx([0.0, 1.28e-6, 2e-6, 4e-6])
            and max_delay_err < 20e-9
            and max(gain_errs) <= 0.5
            and validation.spurious == 0
            and validation.missed == 0
            and runtime < 120.0
        )
        report(
            1,
            "synthetic 4-tap loop",
            ok,
            f"delay err {max_delay_err * 1e9:.2f} ns, max tap gain err "
            f"{max(gain_errs):.3f} dB (<=0.5), runtime {runtime:.1f}s (<120)",
        )


class TestCriterion2GainStability:
    def test_tap_gain_dispersion_under_noise(self, synth_run):
        result, _, out = synth_run
        rep = sound_chunked(
            out / "capture_1-2.iq", SoundingConfig(),
            bpsk_modulate(generate_glfsr(8)),
        )
        fs = 5e7
        det = rep.detections
        lag = np.round(det.delay_s * fs)
        frame = det.frame_of_rows()
        at0, at64 = lag == 0, lag == 64
        both = np.intersect1d(frame[at0], frame[at64])
        strongest = det.gain_db[at0 & np.isin(frame, both)]
        weakest = det.gain_db[at64 & np.isin(frame, both)]
        spread_err = abs(np.mean(strongest - weakest) - 17.0)
        ok = (
            len(strongest) >= 1000
            and strongest.std() <= 0.05
            and weakest.std() <= 0.2
            and spread_err <= 0.6
        )
        report(
            2,
            "gain stability",
            ok,
            f"{len(strongest)} frames, strongest SD {strongest.std():.4f} dB "
            f"(<=0.05), weakest SD {weakest.std():.4f} dB (<=0.2), "
            f"spread err {spread_err:.3f} dB (<=0.6)",
        )


class TestCriterion3BaseLossHeatmap:
    def test_ten_node_zero_db_scenario(self, tmp_path):
        t0 = time.monotonic()
        config = EmulatorConfig(
            base_loss_db=57.55,
            base_loss_sd_db=1.23,
            noise_floor_db=noise_floor_db_for_dynamic_range(
                10 ** (-57.55 / 20), 255, 1, 43.0
            ),
            seed=1,
        )
        heatmap = pathloss_heatmap(
            list(range(1, 11)), 0.013, config,
            generate_glfsr(8), 1e6, out_dir=tmp_path,
        )
        runtime = time.monotonic() - t0
        ok = (
            abs(heatmap.mean_db - 57.55) <= 0.3
            and 0.8 <= heatmap.sd_db <= 1.7
            and runtime < 300.0
        )
        report(
            3,
            "base-loss heatmap",
            ok,
            f"mean {heatmap.mean_db:.3f} dB (57.55 +/- 0.3), "
            f"SD {heatmap.sd_db:.3f} dB (in [0.8, 1.7]), "
            f"runtime {runtime:.1f}s (<300)",
        )


class TestCriterion4SequenceOrdering:
    @staticmethod
    def sounded_ratio_db(code, noise_floor_db, seed):
        """Mean CIR peak-to-max-sidelobe ratio through the same channel."""
        fs = 1e6
        ref = bpsk_modulate(code, 1)
        frame_len = len(ref)
        n_frames = 60
        taps = build_synthetic_tap_file(
            [0.0], [0.0], 1.0 / fs, duration_ms=40
        )
        config = EmulatorConfig(
            base_loss_db=0.0, noise_floor_db=noise_floor_db, seed=seed
        )
        received = apply_channel(np.tile(ref, n_frames), fs, taps, (1, 2), config)
        ratios = []
        for h_abs in np.abs(_cir_matrix(received, ref)[1:]):
            peak_lag = int(np.argmax(h_abs))
            mask = np.ones(frame_len, dtype=bool)
            for g in range(-2, 3):
                mask[(peak_lag + g) % frame_len] = False
            ratios.append(
                20 * math.log10(h_abs[peak_lag] / np.max(h_abs[mask]))
            )
        return float(np.mean(ratios))

    def test_glfsr_ranks_first_under_identical_noisy_channel(self):
        noise_db = noise_floor_db_for_dynamic_range(1.0, 255, 1, 43.0)
        codes = {
            "GLFSR-255": generate_glfsr(8),
            "Gold-255": generate_gold(8),
            "Ga128": generate_golay_a(128),
            "LS": generate_ls(5),
        }
        ratios = {
            name: self.sounded_ratio_db(code, noise_db, seed=17)
            for name, code in codes.items()
        }
        others = {k: v for k, v in ratios.items() if k != "GLFSR-255"}
        ok = all(ratios["GLFSR-255"] > v for v in others.values())
        detail = ", ".join(f"{k} {v:.1f} dB" for k, v in ratios.items())
        report(4, "sequence ordering", ok, detail)


class TestCriterion5MobilityScenario:
    @pytest.mark.slow
    def test_u_shape_rmse_and_comoving_stability(self, mobility_run):
        result, runtime, _ = mobility_run

        # (a) ground-truth coherent loss series shows the U-shape in gain
        # terms: the 10-sample smoothed series decreases to the turnaround
        # and increases after it.
        scenario = config.load(CONFIG_DIR / "outandback.json").scenario
        matrix = mob.assemble_channel_matrix(scenario)
        floor = min(noise_floor_dbm(n.radio) for n in scenario.nodes)
        gain = -np.array(
            [
                link_path_loss_db(prune_paths(snap, floor), 20.0)
                for snap in matrix.entries[(2, 1)]
            ]
        )
        smoothed = np.convolve(gain, np.ones(10) / 10, mode="valid")
        vertex = int(np.argmin(smoothed))
        diffs = np.diff(smoothed)
        u_shape = (
            0 < vertex < len(smoothed) - 1
            and np.all(diffs[:vertex] < 0)
            and np.all(diffs[vertex:] > 0)
        )

        # (b) sounded strongest-tap loss tracks the coherent-sum series
        rmse = result.rmse_db[(2, 1)]

        # (c) the co-moving pair stays flat relative to the mobile swing
        v21 = result.validations[(2, 1)]
        v23 = result.validations[(2, 3)]
        swing = np.nanmax(v21.strongest_loss_db) - np.nanmin(v21.strongest_loss_db)
        sd_comoving = float(np.nanstd(v23.strongest_loss_db))

        ok = (
            u_shape
            and rmse <= 1.0
            and sd_comoving <= swing / 4
            and runtime < 600.0
        )
        report(
            5,
            "mobility out-and-back",
            ok,
            f"U-shape vertex at {vertex} (monotone both sides: {u_shape}), "
            f"rmse {rmse:.3f} dB (<=1), co-moving SD {sd_comoving:.3f} vs "
            f"swing/4 {swing / 4:.3f} dB, runtime {runtime:.0f}s (<600)",
        )


class TestCriterion6TapApproximation:
    def test_thousand_random_snapshots(self):
        rng = np.random.default_rng(2024)
        grid = 1e-8
        p_tx = 20.0
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            delays = rng.uniform(0, 8 * grid, n)
            losses = rng.uniform(0, 30, n)
            phases = rng.uniform(0, 2 * math.pi, n)
            taps = approximate_taps(
                delays, p_tx - losses, phases, p_tx, k=4, grid_dt_s=grid,
                dyn_range_db=math.inf,
            )
            assert len(taps) <= 4
            indices = [i for i, _ in taps]
            assert all(b > a for a, b in zip(indices, indices[1:]))
            truth = sum(
                path_coefficient(p_tx - l, p_tx, ph) for l, ph in zip(losses, phases)
            )
            got = sum(c for _, c in taps)
            if abs(truth) < 1e-9:
                continue
            worst = max(worst, abs(20 * math.log10(abs(got) / abs(truth))))
        ok = worst <= 1.0
        identity_ok = self._identity_on_grid_aligned(rng, grid, p_tx)
        report(
            6,
            "tap approximation",
            ok and identity_ok,
            f"worst coherent-sum error {worst:.2e} dB (<=1), "
            f"grid-aligned identity: {identity_ok}",
        )

    @staticmethod
    def _identity_on_grid_aligned(rng, grid, p_tx):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            idx = sorted(rng.choice(200, size=n, replace=False))
            losses = rng.uniform(0, 30, n)
            phases = rng.uniform(0, 2 * math.pi, n)
            delays = [int(i) * grid for i in idx]
            taps = approximate_taps(
                delays, p_tx - losses, phases, p_tx, k=4, grid_dt_s=grid,
                dyn_range_db=math.inf,
            )
            if [i for i, _ in taps] != [int(i) for i in idx]:
                return False
            expected = [
                path_coefficient(p_tx - l, p_tx, ph) for l, ph in zip(losses, phases)
            ]
            if not np.allclose([c for _, c in taps], expected, rtol=1e-9):
                return False
        return True


class TestCriterion7OracleEquivalences:
    def test_fft_vs_direct_chunked_vs_single_and_noise_floor(
        self, synth_run, tmp_path
    ):
        # FFT-accelerated correlation against the direct sum on 100 frames
        code = generate_glfsr(8)
        ref = bpsk_modulate(code, 1)
        rng = np.random.default_rng(9)
        worst = 0.0
        rx = rng.standard_normal((100, 255)) + 1j * rng.standard_normal((100, 255))
        for got, row in zip(_cir_matrix(rx.ravel(), ref), rx):
            direct = np.array(
                [np.sum(row * np.roll(ref, k)) / 255.0 for k in range(255)]
            )
            worst = max(
                worst,
                float(np.max(np.abs(got - direct)) / np.max(np.abs(direct))),
            )
        fft_ok = worst <= 1e-9

        # chunked and single-pass sounding agree exactly
        result, _, out = synth_run
        capture = out / "capture_1-2.iq"
        chunky = sound_chunked(
            capture, SoundingConfig(chunk_duration_s=0.002), ref
        )
        single = sound_blocks(
            [read_iq_file(capture)], SoundingConfig(), ref,
            read_iq_sidecar(capture),
        )
        chunk_ok = (
            chunky.n_frames == single.n_frames > 0
            and chunky.detections == single.detections
        )

        # receiver noise floor from the bandwidth/noise-density budget
        floor = noise_floor_dbm(
            RadioParams(
                bandwidth_hz=20e6, noise_density_dbm_hz=-172.8, noise_figure_db=0.0
            )
        )
        floor_ok = abs(floor - (-99.79)) <= 0.01

        ok = fft_ok and chunk_ok and floor_ok
        report(
            7,
            "oracle equivalences",
            ok,
            f"fft-vs-direct worst rel err {worst:.1e} (<=1e-9), "
            f"chunked==single: {chunk_ok}, noise floor {floor:.3f} dBm "
            f"(-99.79 +/- 0.01)",
        )


class TestCriterion8InvariantSuites:
    def test_cross_module_invariants(self, tmp_path):
        failures = []

        # m-sequence two-valued autocorrelation, degrees 3..12
        for degree in range(3, 13):
            chips = generate_glfsr(degree).chips.astype(float)
            n = len(chips)
            corr = np.array(
                [np.dot(chips, np.roll(chips, -k)) for k in range(n)]
            )
            if corr[0] != n or not np.all(corr[1:] == -1):
                failures.append(f"m-seq degree {degree}")

        # emulator linearity / superposition / delay covariance
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        cfg = EmulatorConfig(base_loss_db=0.0, noise_floor_db=None)
        tap_a = build_synthetic_tap_file([0.0], [1.0], 1e-6, 3)
        tap_b = build_synthetic_tap_file([25e-6], [7.0], 1e-6, 3)
        both = build_synthetic_tap_file([0.0, 25e-6], [1.0, 7.0], 1e-6, 3)
        ya = apply_channel(x, 1e6, tap_a, (1, 2), cfg)
        yb = apply_channel(x, 1e6, tap_b, (1, 2), cfg)
        yab = apply_channel(x, 1e6, both, (1, 2), cfg)
        if not np.allclose(yab, ya + yb, rtol=1e-12):
            failures.append("superposition")
        y2 = apply_channel(2j * x, 1e6, both, (1, 2), cfg)
        if not np.allclose(y2, 2j * yab, rtol=1e-12):
            failures.append("linearity")
        if not np.allclose(yb[25:], 10 ** (-7 / 20) * x[:-25]):
            failures.append("delay covariance")

        # Eq-style magnitude identity on sounded frames
        code = generate_glfsr(8)
        rx = rng.standard_normal(510) + 1j * rng.standard_normal(510)
        for h in _cir_matrix(rx, bpsk_modulate(code, 1)):
            if not np.allclose(
                np.abs(h), np.hypot(h.real, h.imag), rtol=0, atol=1e-15
            ):
                failures.append("h_abs identity")

        # channel-matrix stationary constancy and clamping
        scenario = mob.Scenario(
            nodes=(
                mob.NodeSpec(
                    1, "OBU", 1.5,
                    mob.Trajectory(((0, 0), (20, 0)), 5.0),
                ),
                mob.NodeSpec(2, "RSU", 4.0, mob.Trajectory(((0, 50),))),
            ),
            t_total_s=10.0,
            sample_interval_s=1.0,
        )
        matrix = mob.assemble_channel_matrix(scenario)
        entries = matrix.entries
        static_row = [snap.paths for snap in entries[(2, 1)]]
        if any(p != static_row[0] for p in static_row[1:]):
            failures.append("stationary constancy")
        clamped = [snap.paths for snap in entries[(1, 2)][4:10]]
        if any(p != clamped[0] for p in clamped[1:]):
            failures.append("trajectory clamping")

        # round-trip file I/O: tap file, IQ capture, paths file
        tf = build_synthetic_tap_file([0.0, 3e-6], [2.0, 9.0], 1e-6, 2)
        write_tap_file(tf, tmp_path / "t.csv")
        back = read_tap_file(tmp_path / "t.csv")
        if back.records != tf.records:
            failures.append("tap file round trip")
        stream = rng.standard_normal(64) + 0j
        write_iq_file(tmp_path / "x.iq", [stream], 1e6)
        if not np.allclose(read_iq_file(tmp_path / "x.iq"), stream, atol=1e-6):
            failures.append("iq file round trip")
        mob.write_paths_file(matrix, tmp_path / "p.jsonl")
        records = mob.read_paths_records(tmp_path / "p.jsonl")
        rebuilt = mob.assemble_channel_matrix(scenario, records)
        if rebuilt.entries[(1, 2)][2].paths != entries[(1, 2)][2].paths:
            failures.append("paths file round trip")

        report(
            8,
            "module invariant suites",
            not failures,
            "all invariant groups hold" if not failures else f"failed: {failures}",
        )
