"""Tests for ray-path snapshots and the channel link-budget math."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chansounder.channel_model import (
    ChannelSnapshot,
    PathTable,
    RadioParams,
    RayPath,
    coherent_loss_db,
    noise_floor_dbm,
    path_coefficient,
)
from oracles import link_path_loss_db, prune_paths, snapshot_to_cir


def snapshot_from(paths, tx=1, rx=2, s=1, t=0.0):
    return ChannelSnapshot(tx, rx, s, t, tuple(paths))


def table_of(snapshots):
    """A PathTable of ``snapshots``, one after another."""
    paths = [p for snap in snapshots for p in snap.paths]
    return PathTable.of_columns(
        [len(snap.paths) for snap in snapshots],
        [p.received_power_dbm for p in paths],
        [p.phase_rad for p in paths],
        [p.toa_s for p in paths],
    )


def kept_paths(snapshot, floor_dbm):
    """The paths of one snapshot that ``PathTable.coefficients`` keeps."""
    rows, _, _ = table_of([snapshot]).coefficients([0], [0.0], floor_dbm)
    return tuple(snapshot.paths[r] for r in rows.tolist())


def step_cir(snapshot, p_tx_dbm):
    """(delay_s, coefficient) of each path of one snapshot, by ``PathTable.coefficients``."""
    table = table_of([snapshot])
    rows, _, coeffs = table.coefficients([0], [p_tx_dbm])
    return list(zip(table.toa_s[rows].tolist(), coeffs.tolist()))


def loss_db(snapshot, p_tx_dbm):
    """The coherent loss of one snapshot, by ``coherent_loss_db``."""
    _, counts, coeffs = table_of([snapshot]).coefficients([0], [p_tx_dbm])
    return float(coherent_loss_db(coeffs, counts)[0])


finite_db = st.floats(min_value=-150, max_value=50, allow_nan=False)
phases = st.floats(min_value=0, max_value=2 * math.pi, exclude_max=True)


class TestRayPath:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            RayPath(received_power_dbm=-50, phase_rad=0.0, toa_s=-1e-9)

    def test_phase_normalized_to_two_pi(self):
        p = RayPath(received_power_dbm=-50, phase_rad=5 * math.pi, toa_s=0)
        assert 0 <= p.phase_rad < 2 * math.pi
        assert p.phase_rad == pytest.approx(math.pi)

    @pytest.mark.parametrize(
        "field", ["received_power_dbm", "phase_rad", "toa_s", "aoa_deg", "aod_deg"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_by_name(self, field, value):
        values = {"received_power_dbm": -50.0, "phase_rad": 1.0, "toa_s": 1e-6}
        values[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RayPath(**values)

    def test_absent_angles_are_allowed(self):
        p = RayPath(-50.0, 1.0, 1e-6, aoa_deg=None, aod_deg=12.5)
        assert (p.aoa_deg, p.aod_deg) == (None, 12.5)

    def test_snapshot_sorts_paths_by_delay(self):
        snap = snapshot_from(
            [
                RayPath(-60, 0.0, 2e-6),
                RayPath(-50, 0.0, 1e-6),
            ]
        )
        assert [p.toa_s for p in snap.paths] == [1e-6, 2e-6]


class TestNoiseFloor:
    def test_20mhz_budget_with_zero_noise_figure(self):
        # N_o + 10*log10(B) + F = -172.8 + 73.0103 + 0
        params = RadioParams(
            bandwidth_hz=20e6, noise_density_dbm_hz=-172.8, noise_figure_db=0
        )
        assert noise_floor_dbm(params) == pytest.approx(-99.79, abs=0.005)

    def test_unit_bandwidth(self):
        params = RadioParams(
            bandwidth_hz=1.0, noise_density_dbm_hz=-172.8, noise_figure_db=0
        )
        assert noise_floor_dbm(params) == pytest.approx(-172.8)

    def test_noise_figure_adds_directly(self):
        params = RadioParams(
            bandwidth_hz=20e6, noise_density_dbm_hz=-172.8, noise_figure_db=6
        )
        assert noise_floor_dbm(params) == pytest.approx(-93.79, abs=0.005)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            RadioParams(bandwidth_hz=0.0)


class TestPrunePaths:
    def test_all_above_floor_is_identity(self):
        snap = snapshot_from([RayPath(-90, 0, 0), RayPath(-95, 0, 1e-6)])
        out = kept_paths(snap, -99.79)
        assert out == snap.paths

    def test_below_floor_dropped(self):
        snap = snapshot_from([RayPath(-90, 0, 0), RayPath(-105, 0, 1e-6)])
        out = kept_paths(snap, -99.79)
        assert len(out) == 1
        assert out[0].received_power_dbm == -90

    def test_path_exactly_at_floor_retained(self):
        snap = snapshot_from([RayPath(-99.79, 0, 0)])
        out = kept_paths(snap, -99.79)
        assert len(out) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        powers=st.lists(finite_db, min_size=0, max_size=10),
        floor=finite_db,
    )
    def test_idempotent_and_never_grows(self, powers, floor):
        snap = snapshot_from(
            [RayPath(p, 0.0, i * 1e-9) for i, p in enumerate(powers)]
        )
        once = kept_paths(snap, floor)
        twice = kept_paths(snapshot_from(once), floor)
        assert len(once) <= len(snap.paths)
        assert twice == once


class TestPathCoefficient:
    def test_equal_powers_zero_phase(self):
        assert path_coefficient(20, 20, 0) == pytest.approx(1 + 0j)

    def test_minus_20db_at_pi(self):
        c = path_coefficient(0, 20, math.pi)
        assert abs(c) == pytest.approx(0.1)
        assert c == pytest.approx(-0.1 + 0j, abs=1e-12)

    def test_minus_60db_on_imaginary_axis(self):
        c = path_coefficient(-40, 20, math.pi / 2)
        assert c == pytest.approx(0.001j, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(p_rx=finite_db, p_tx=finite_db, shift=finite_db, phase=phases)
    def test_magnitude_depends_only_on_db_difference(self, p_rx, p_tx, shift, phase):
        a = path_coefficient(p_rx, p_tx, phase)
        b = path_coefficient(p_rx + shift, p_tx + shift, phase)
        assert abs(a) == pytest.approx(abs(b), rel=1e-9)


class TestLinkPathLoss:
    def test_single_path_unit_gain(self):
        snap = snapshot_from([RayPath(20, 0, 0)])
        assert loss_db(snap, 20) == pytest.approx(0.0)

    def test_single_path_60db_down(self):
        snap = snapshot_from([RayPath(-40, 0, 0)])
        assert loss_db(snap, 20) == pytest.approx(60.0)

    def test_destructive_null_flagged_as_infinite(self):
        # two |c| = 0.5 paths with opposite phases cancel coherently
        p_rx = 20 + 20 * math.log10(0.5)
        snap = snapshot_from(
            [RayPath(p_rx, 0.0, 0), RayPath(p_rx, math.pi, 1e-9)]
        )
        assert loss_db(snap, 20) == math.inf

    def test_snapshot_without_paths_reads_nan(self):
        assert math.isnan(loss_db(snapshot_from([]), 20))

    @settings(max_examples=50, deadline=None)
    @given(
        powers=st.lists(finite_db, min_size=1, max_size=8),
        phis=st.lists(phases, min_size=8, max_size=8),
        rotation=phases,
    )
    def test_invariant_under_global_phase_rotation(self, powers, phis, rotation):
        paths = [
            RayPath(p, phi, i * 1e-9)
            for i, (p, phi) in enumerate(zip(powers, phis))
        ]
        rotated = [
            RayPath(p.received_power_dbm, p.phase_rad + rotation, p.toa_s)
            for p in paths
        ]
        a = loss_db(snapshot_from(paths), 20)
        b = loss_db(snapshot_from(rotated), 20)
        if math.isinf(a) or math.isinf(b):
            return
        assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        powers=st.lists(finite_db, min_size=1, max_size=8),
        phis=st.lists(phases, min_size=8, max_size=8),
    )
    def test_cir_coherent_sum_matches_link_loss(self, powers, phis):
        snap = snapshot_from(
            [
                RayPath(p, phi, i * 1e-9)
                for i, (p, phi) in enumerate(zip(powers, phis))
            ]
        )
        cir = step_cir(snap, 20)
        total = sum(c for _, c in cir)
        loss = loss_db(snap, 20)
        if abs(total) == 0:
            assert math.isinf(loss)
        else:
            assert loss == pytest.approx(-20 * math.log10(abs(total)), abs=1e-9)


class TestSnapshotToCir:
    def test_single_unit_path(self):
        snap = snapshot_from([RayPath(20, 0, 0)])
        assert step_cir(snap, 20) == [(0.0, pytest.approx(1 + 0j))]

    def test_four_tap_synthetic_channel_magnitudes(self):
        delays = [0.0, 1.28e-6, 2e-6, 4e-6]
        losses = [3.0, 20.0, 15.0, 8.0]
        snap = snapshot_from(
            [RayPath(20 - loss, 0.0, d) for d, loss in zip(delays, losses)]
        )
        cir = step_cir(snap, 20)
        assert [d for d, _ in cir] == delays
        for (_, coeff), loss in zip(cir, losses):
            assert abs(coeff) == pytest.approx(10 ** (-loss / 20), rel=1e-12)

    def test_empty_snapshot_gives_empty_cir(self):
        assert step_cir(snapshot_from([]), 20) == []


class TestCoefficientsStep:
    """``PathTable.coefficients`` and ``coherent_loss_db`` against pruning,
    the impulse response and the link loss of one snapshot at a time."""

    @settings(max_examples=100, deadline=None)
    @given(
        snapshots=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([-100.0, -99.79, -60.0]) | finite_db,
                    phases,
                    st.sampled_from([0.0, 1e-7]) | st.floats(0.0, 1e-6),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
        floor=st.sampled_from([None, -99.79]) | finite_db,
    )
    @example(  # a path exactly at the floor, an empty snapshot, two powers
        snapshots=[[(-99.79, 1.0, 0.0), (-99.8, 2.0, 1e-7)], [], [(-60.0, 0.5, 0.0)]],
        data=None,
        floor=-99.79,
    )
    def test_step_equals_prune_then_cir_bit_for_bit(self, snapshots, data, floor):
        snaps = [snapshot_from(RayPath(*row) for row in rows) for rows in snapshots]
        if data is None:
            picks, p_tx = [0, 1, 2, 0], [20.0, 23.0, 7.5, 23.0]
        else:  # snapshots in any order, some more than once
            n = len(snaps)
            picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
            p_tx = data.draw(
                st.lists(st.sampled_from([20.0, 23.0, 7.5]) | finite_db,
                         min_size=len(picks), max_size=len(picks))
            )
        table = table_of(snaps)
        rows, counts, coeffs = table.coefficients(picks, p_tx, floor)
        losses = coherent_loss_db(coeffs, counts)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        for i, (b, power) in enumerate(zip(picks, p_tx)):
            snap = snaps[b] if floor is None else prune_paths(snaps[b], floor)
            a, z = bounds[i], bounds[i + 1]
            got = list(zip(table.toa_s[rows[a:z]].tolist(), coeffs[a:z].tolist()))
            # repr tells signed zeros apart
            assert repr(got) == repr(snapshot_to_cir(snap, power))
            want = link_path_loss_db(snap, power) if snap.paths else math.nan
            assert repr(float(losses[i])) == repr(want)
