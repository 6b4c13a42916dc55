"""Tests for trajectory sampling, path synthesis, and matrix assembly."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chansounder import config, mobility
from chansounder.channel_model import ChannelSnapshot, PathTable, RadioParams, RayPath
from chansounder.mobility import (
    MPH_TO_MPS,
    SPEED_OF_LIGHT,
    ChannelMatrix,
    NodeSpec,
    ReflectorPlane,
    Scenario,
    Trajectory,
    assemble_channel_matrix,
    free_space_loss_db,
    num_samples,
    read_paths_records,
    sample_trajectory,
    write_paths_file,
)

RADIO = RadioParams()
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def pair_paths(
    tx_pos, rx_pos, radio, rx_gain_dbi, reflectors=(), reflection_loss_db=6.0, max_bounces=4
):
    """The generator's paths between two positions as RayPaths: ``_ray_paths``
    on one link."""
    return mobility._ray_paths(
        np.asarray(tx_pos, dtype=float).reshape(1, 3),
        np.asarray(rx_pos, dtype=float).reshape(1, 3),
        [radio],
        [rx_gain_dbi],
        mobility._image_table(tuple(reflectors), max_bounces),
        reflection_loss_db,
    ).ray_paths(0)


def static_node(node_id, x, y, height=2.0, kind="STATIC"):
    return NodeSpec(node_id, kind, height, Trajectory(((x, y),)))


def mobile_node(node_id, waypoints, speed, height=2.0, loop_back=False):
    return NodeSpec(
        node_id, "OBU", height, Trajectory(tuple(waypoints), speed, loop_back)
    )


class TestNumSamples:
    def test_paper_scenario_duration(self):
        # floor((175 - 1)/0.447) + 1 evaluates to 390; the trajectory point
        # count of the matching course is what reaches 391 (see below).
        assert num_samples(175, 0.447) == math.floor(174 / 0.447) + 1 == 390

    def test_degenerate_one_second(self):
        assert num_samples(1, 0.5) == 1

    def test_two_seconds_unit_interval(self):
        assert num_samples(2, 1) == 2

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            num_samples(0.5, 1)
        with pytest.raises(ValueError):
            num_samples(10, 0)


class TestSampleTrajectory:
    def test_25mph_spacing_is_5m(self):
        v = 25 * MPH_TO_MPS  # 11.176 m/s
        traj = Trajectory(((0, 0), (1000, 0)), speed_mps=v)
        pts = sample_trajectory(traj, 0.447)
        spacing = np.linalg.norm(pts[1] - pts[0])
        assert spacing == pytest.approx(5.0, abs=0.01)

    def test_stationary_single_position(self):
        traj = Trajectory(((3, 4),))
        pts = sample_trajectory(traj, 0.447)
        assert pts.shape == (1, 3)
        assert tuple(pts[0][:2]) == (3, 4)

    def test_straight_100m_walk(self):
        traj = Trajectory(((0, 0), (100, 0)), speed_mps=10.0)
        pts = sample_trajectory(traj, 1.0)
        assert len(pts) == 11
        assert np.allclose(pts[:, 0], np.arange(0, 101, 10))

    def test_matched_out_and_back_course_has_391_points(self):
        # Out-and-back course whose arc length is exactly 390 spacings at
        # the 25 Mph / 447 ms operating point (~2 km total).
        v = 25 * MPH_TO_MPS
        spacing = v * 0.447
        half = 195 * spacing
        traj = Trajectory(((0, 0), (half, 0)), speed_mps=v, loop_back=True)
        pts = sample_trajectory(traj, 0.447)
        assert len(pts) == 391

    def test_consecutive_spacing_is_exact(self):
        traj = Trajectory(
            ((0, 0), (40, 0), (40, 55), (-20, 55)), speed_mps=7.0
        )
        pts = sample_trajectory(traj, 1.0)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        # corners bend the polyline, so check arc length via the walk itself:
        # all interior gaps at most D, straight-segment gaps exactly D
        assert np.all(gaps[:-1] <= 7.0 + 1e-9)
        assert gaps[0] == pytest.approx(7.0, abs=1e-9)

    def test_spacing_above_coherence_distance_warns(self):
        traj = Trajectory(((0, 0), (1000, 0)), speed_mps=40.0)
        with pytest.warns(UserWarning, match="coherence"):
            sample_trajectory(traj, 1.0)  # D = 40 m > 15 m

    def test_nonpositive_interval_rejected(self):
        traj = Trajectory(((0, 0), (10, 0)), speed_mps=1.0)
        with pytest.raises(ValueError):
            sample_trajectory(traj, 0.0)


class TestSynthesizePairPaths:
    def test_los_at_100m(self):
        radio = RadioParams(tx_power_dbm=20)
        paths = pair_paths(
            np.array([0.0, 0, 2]), np.array([100.0, 0, 2]), radio, 5.0
        )
        assert len(paths) == 1
        los = paths[0]
        expected_loss = 20 * math.log10(4 * math.pi * 100 * 5.915e9 / SPEED_OF_LIGHT)
        assert expected_loss == pytest.approx(87.89, abs=0.01)
        assert los.received_power_dbm == pytest.approx(20 + 5 + 5 - expected_loss)
        assert los.toa_s == pytest.approx(100 / SPEED_OF_LIGHT)
        assert los.toa_s == pytest.approx(333.6e-9, abs=0.1e-9)

    def test_doubling_distance_adds_6db_and_doubles_delay(self):
        radio = RadioParams()
        near = pair_paths(
            np.array([0.0, 0, 2]), np.array([100.0, 0, 2]), radio, 5.0
        )[0]
        far = pair_paths(
            np.array([0.0, 0, 2]), np.array([200.0, 0, 2]), radio, 5.0
        )[0]
        assert near.received_power_dbm - far.received_power_dbm == pytest.approx(
            20 * math.log10(2), abs=1e-9
        )
        assert far.toa_s == pytest.approx(2 * near.toa_s)

    def test_ground_reflection_arrives_later(self):
        radio = RadioParams()
        paths = pair_paths(
            np.array([0.0, 0, 2]),
            np.array([50.0, 0, 2]),
            radio,
            5.0,
            reflectors=(ReflectorPlane("z", 0.0),),
        )
        assert len(paths) == 2
        assert paths[1].toa_s > paths[0].toa_s

    def test_zero_distance_link_rejected(self):
        with pytest.raises(ValueError, match="zero-distance"):
            pair_paths(
                np.array([1.0, 2, 3]), np.array([1.0, 2, 3]), RadioParams(), 5.0
            )

    def test_source_cutoff_drops_buried_reflections(self):
        paths = pair_paths(
            np.array([0.0, 0, 2]),
            np.array([50.0, 0, 2]),
            RadioParams(),
            5.0,
            reflectors=(ReflectorPlane("z", 0.0),),
            reflection_loss_db=300.0,
        )
        assert len(paths) == 1  # reflection fell below the -250 dBm cutoff


def path_bytes(paths):
    return np.array(
        [[p.received_power_dbm, p.phase_rad, p.toa_s] for p in paths], dtype=float
    ).tobytes()


GROUND = ReflectorPlane("z", 0.0)
Y_MINUS = ReflectorPlane("y", -12.0)
Y_PLUS = ReflectorPlane("y", 12.0)
CANYON = (GROUND, Y_MINUS, Y_PLUS)


def paths_equal_to_the_oracle(*args):
    got = pair_paths(*args)
    assert path_bytes(got) == path_bytes(oracles.pair_paths_per_path(*args))
    return got


def image_of(point, *planes):
    for plane in planes:
        point = oracles.mirror(plane, point)
    return point


OFFSETS = (-12.0, -3.5, 0.0, 2.0, 12.0)  # shared, so planes and nodes meet
COORDS = st.one_of(
    st.sampled_from(OFFSETS), st.floats(min_value=-60.0, max_value=60.0)
)
POINTS = st.tuples(COORDS, COORDS, COORDS).map(np.array)
PLANES = st.lists(
    st.builds(ReflectorPlane, st.sampled_from("xyz"), st.sampled_from(OFFSETS)),
    max_size=4,
)
RADIOS = st.builds(
    RadioParams,
    tx_power_dbm=st.floats(min_value=-10.0, max_value=40.0),
    antenna_gain_tx_dbi=st.floats(min_value=-5.0, max_value=15.0),
    carrier_hz=st.floats(min_value=1e8, max_value=1e11),
)
# up to four bounces of 0-150 dB put image paths on both sides of the
# -250 dBm source cutoff
LOSSES = st.one_of(st.sampled_from([0.0, 6.0, 300.0]), st.floats(0.0, 150.0))


class TestImageMethodOracle:
    """The array generator against the per-path loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        tx=POINTS,
        rx=POINTS,
        radio=RADIOS,
        rx_gain=st.floats(min_value=-5.0, max_value=15.0),
        planes=PLANES,
        loss=LOSSES,
        max_bounces=st.integers(min_value=0, max_value=4),
    )
    @example(  # z, y-, z, y- cancels: the LOS geometry with four bounces
        tx=np.array([0.0, 5.25, 1.52]),
        rx=np.array([40.0, -1.75, 1.52]),
        radio=RadioParams(),
        rx_gain=5.0,
        planes=[ReflectorPlane("z", 0.0), ReflectorPlane("y", -12.0),
                ReflectorPlane("y", 12.0)],
        loss=6.0,
        max_bounces=4,
    )
    @example(  # a node on a plane: rx on the ground
        tx=np.array([0.0, 0.0, 2.0]),
        rx=np.array([30.0, 0.0, 0.0]),
        radio=RadioParams(),
        rx_gain=5.0,
        planes=[GROUND, Y_MINUS],
        loss=6.0,
        max_bounces=4,
    )
    @example(  # a leg that meets its plane at an end point: the corner
        tx=np.array([10.0, 0.0, 1.0]),
        rx=np.array([0.0, 0.0, 1.0]),
        radio=RadioParams(),
        rx_gain=5.0,
        planes=[GROUND, Y_MINUS],
        loss=6.0,
        max_bounces=2,
    )
    @example(  # a leg parallel to its plane
        tx=np.array([0.0, 5.0, 2.0]),
        rx=np.array([30.0, -5.0, 2.0]),
        radio=RadioParams(),
        rx_gain=5.0,
        planes=[ReflectorPlane("y", 0.0), GROUND],
        loss=6.0,
        max_bounces=3,
    )
    @example(  # two parallel walls
        tx=np.array([0.0, 5.25, 1.52]),
        rx=np.array([40.0, -1.75, 1.52]),
        radio=RadioParams(),
        rx_gain=5.0,
        planes=[Y_MINUS, Y_PLUS],
        loss=6.0,
        max_bounces=4,
    )
    @example(  # a node outside the canyon
        tx=np.array([0.0, -20.0, 2.0]),
        rx=np.array([40.0, 0.0, 2.0]),
        radio=RadioParams(),
        rx_gain=5.0,
        planes=list(CANYON),
        loss=6.0,
        max_bounces=4,
    )
    def test_pair_paths_equal_the_per_path_oracle(
        self, tx, rx, radio, rx_gain, planes, loss, max_bounces
    ):
        args = (tx, rx, radio, rx_gain, tuple(planes), loss, max_bounces)
        try:
            want = oracles.pair_paths_per_path(*args)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                pair_paths(*args)
            return
        got = pair_paths(*args)
        assert len(got) == len(want)
        assert path_bytes(got) == path_bytes(want)

    @pytest.mark.parametrize("axis", "xyz")
    def test_rx_on_an_image_is_a_zero_distance_link(self, axis):
        tx = np.array([3.0, -4.0, 1.5])
        planes = (ReflectorPlane("z", 0.0), ReflectorPlane(axis, 2.0))
        rx = oracles.mirror(planes[1], oracles.mirror(planes[0], tx))
        if axis == "z":  # z then z is no sequence; the image is one bounce
            rx = oracles.mirror(planes[1], tx)
        for synthesize in (oracles.pair_paths_per_path, pair_paths):
            with pytest.raises(ValueError, match="zero-distance"):
                synthesize(tx, rx, RadioParams(), 5.0, planes, 6.0, 2)

    def test_a_path_exactly_at_the_cutoff_is_dropped(self):
        tx, rx = np.array([0.0, 0.0, 2.0]), np.array([100.0, 0.0, 2.0])
        fspl = free_space_loss_db(100.0, RadioParams().carrier_hz)
        tx_power = fspl - 250.0
        while tx_power - fspl != -250.0:
            tx_power = math.nextafter(tx_power, math.inf)
        above = tx_power
        while above - fspl == -250.0:
            above = math.nextafter(above, math.inf)
        for power, kept in ((tx_power, 0), (above, 1)):
            radio = RadioParams(tx_power_dbm=power, antenna_gain_tx_dbi=0.0)
            for synthesize in (oracles.pair_paths_per_path, pair_paths):
                assert len(synthesize(tx, rx, radio, 0.0)) == kept

    def test_no_reflected_path_lands_at_the_los_delay(self):
        # (z, y-, z, y-) on orthogonal planes mirrors z twice and y twice,
        # so its image is the transmitter, and (z, y-) and (y-, z) share an
        # image; no ray takes the first, and only one of the other two
        tx, rx = np.array([0.0, 5.25, 1.52]), np.array([40.0, -1.75, 1.52])
        for planes in ((GROUND, Y_MINUS), CANYON):
            paths = paths_equal_to_the_oracle(
                tx, rx, RadioParams(), 5.0, planes, 6.0, 4
            )
            los = paths[0]
            assert los.toa_s == float(np.linalg.norm(rx - tx)) / SPEED_OF_LIGHT
            assert [p for p in paths if p.toa_s == los.toa_s] == [los]
            assert len({p.toa_s for p in paths}) == len(paths)


class TestVisibility:
    """Boundary cases of the back-trace, each against the per-path oracle."""

    @pytest.mark.parametrize(
        "tx, rx, plane",
        [
            ((0.0, 0.0, 2.0), (30.0, 0.0, 0.0), GROUND),  # rx on the ground
            ((0.0, -12.0, 2.0), (30.0, 0.0, 2.0), Y_MINUS),  # tx on a wall
        ],
    )
    def test_a_node_on_a_plane_takes_no_bounce_off_it(self, tx, rx, plane):
        tx, rx = np.array(tx), np.array(rx)
        paths = paths_equal_to_the_oracle(tx, rx, RadioParams(), 5.0, (plane,), 6.0, 1)
        assert len(paths) == 1  # the LOS only

    def test_a_leg_that_meets_its_plane_at_an_end_point_is_dropped(self):
        # rx -> the (z, y-) image (10, -24, -1) meets y = -12 at z = 0: the
        # corner, where the next leg starts on its own plane. (y-, z) meets
        # z = 0 at y = -12 the same way, so neither two-bounce path stays.
        tx, rx = np.array([10.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0])
        planes = (GROUND, Y_MINUS)
        paths = paths_equal_to_the_oracle(tx, rx, RadioParams(), 5.0, planes, 6.0, 2)
        assert len(paths) == 3  # LOS, z and y-
        # off the corner, exactly one of the two takes the shared image
        rx = np.array([0.0, 0.0, 1.5])
        paths = paths_equal_to_the_oracle(tx, rx, RadioParams(), 5.0, planes, 6.0, 2)
        assert len(paths) == 4

    def test_a_leg_parallel_to_its_plane_is_dropped_without_a_warning(self):
        # the y = 0 image of tx has rx's y: the leg runs along the plane
        tx, rx = np.array([0.0, 5.0, 2.0]), np.array([30.0, -5.0, 2.0])
        planes = (ReflectorPlane("y", 0.0), GROUND)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            paths = paths_equal_to_the_oracle(
                tx, rx, RadioParams(), 5.0, planes, 6.0, 3
            )
        wall = float(np.linalg.norm(rx - image_of(tx, planes[0]))) / SPEED_OF_LIGHT
        assert wall not in [p.toa_s for p in paths]
        assert len(paths) == 2  # LOS and ground; every wall sequence needs y = 0

    def test_two_parallel_walls_keep_every_alternating_sequence(self):
        tx, rx = np.array([0.0, 5.25, 1.52]), np.array([40.0, -1.75, 1.52])
        paths = paths_equal_to_the_oracle(
            tx, rx, RadioParams(), 5.0, (Y_MINUS, Y_PLUS), 6.0, 4
        )
        # LOS plus (y-, y+, ...) and (y+, y-, ...) at each of four depths
        assert len(paths) == 1 + 2 * 4
        assert len({p.toa_s for p in paths}) == len(paths)

    def test_a_node_outside_the_canyon_takes_no_bounce_off_its_side(self):
        # tx stands behind the y- wall: its y- image lies on rx's side of
        # the wall, so no leg from rx crosses y = -12 to reach it
        tx, rx = np.array([0.0, -20.0, 2.0]), np.array([40.0, 0.0, 2.0])
        paths = paths_equal_to_the_oracle(
            tx, rx, RadioParams(), 5.0, (Y_MINUS, Y_PLUS), 6.0, 1
        )
        toas = [p.toa_s for p in paths]
        for plane, seen in ((Y_MINUS, False), (Y_PLUS, True)):
            d = float(np.linalg.norm(rx - image_of(tx, plane)))
            assert (d / SPEED_OF_LIGHT in toas) is seen
        assert len(paths) == 2
        paths_equal_to_the_oracle(tx, rx, RadioParams(), 5.0, CANYON, 6.0, 4)


def mixed_scenario():
    """Stationary and moving transmitters, one moving node stopping early."""
    return Scenario(
        nodes=(
            NodeSpec(1, "RSU", 5.0, Trajectory(((0.0, 11.0),))),
            mobile_node(2, [(10, -1.75), (70, -1.75)], speed=12.0, height=1.52),
            static_node(3, 40.0, -11.0),
            mobile_node(4, [(60, 1.75), (50, 1.75)], speed=4.0, height=1.52),
            mobile_node(5, [(5, 5.25), (5, 5.25 - 1e-3), (35, 5.25)], speed=9.0),
        ),
        t_total_s=4.0,
        sample_interval_s=0.5,
        reflectors=(
            ReflectorPlane("z", 0.0),
            ReflectorPlane("y", -12.0),
            ReflectorPlane("y", 12.0),
            ReflectorPlane("x", 100.0),
        ),
        max_bounces=3,
    )


class TestMatrixOracle:
    def test_matrix_equals_the_per_pair_oracle(self, monkeypatch):
        scenario = mixed_scenario()
        synthesized = []  # (sample, transmitter ids) per synthesis
        synthesize_links = mobility._synthesize_links

        def recording(scenario, positions, table, s, links):
            synthesized.append((s, [tx.node_id for tx, _ in links]))
            return synthesize_links(scenario, positions, table, s, links)

        monkeypatch.setattr(mobility, "_synthesize_links", recording)
        matrix = assemble_channel_matrix(scenario)
        want = oracles.matrix_entries_per_pair(scenario)
        assert matrix.entries.keys() == want.keys()
        for pair, series in want.items():
            got = matrix.entries[pair]
            assert len(got) == len(series) == matrix.n_samples == 7
            for a, b in zip(got, series):
                assert (a.tx_id, a.rx_id, a.sample_index, a.time_s) == (
                    b.tx_id, b.rx_id, b.sample_index, b.time_s,
                )
                assert path_bytes(a.paths) == path_bytes(b.paths)
        # every pair at sample 1; later, moving transmitters only
        assert [s for s, _ in synthesized] == list(range(1, 8))
        assert sorted(synthesized[0][1]) == sorted([1, 2, 3, 4, 5] * 4)
        for s, txs in synthesized[1:]:
            assert sorted(txs) == sorted([2, 4, 5] * 4), s


def two_node_scenario(t_total=10.0, t_s=1.0):
    return Scenario(
        nodes=(static_node(1, 0, 0), static_node(2, 100, 0)),
        t_total_s=t_total,
        sample_interval_s=t_s,
    )


class TestAssembleChannelMatrix:
    def test_static_scenario_constant_over_samples(self):
        matrix = assemble_channel_matrix(two_node_scenario())
        assert matrix.n_samples == 10
        first, *rest = matrix.entries[(1, 2)]
        for s, snap in enumerate(rest, start=2):
            assert snap.paths == first.paths
            assert snap.time_s == (s - 1) * 1.0

    def test_sample_of_times_at_edges_and_past_the_last_sample(self):
        matrix = assemble_channel_matrix(two_node_scenario(t_total=1.75, t_s=0.25))
        assert matrix.n_samples == 4
        times = [0.0, 0.2499, 0.25, 0.5, 0.7499, 0.75, 0.9999, 1.0, 7.3]
        got = matrix.sample_of(times)
        assert got.dtype == np.int64
        assert got.tolist() == [1, 1, 2, 3, 3, 4, 4, 4, 4]
        assert matrix.sample_of(np.empty(0)).tolist() == []

    def test_short_mobile_trajectory_clamps_to_last_sample(self):
        # 5 trajectory positions inside a 10-sample scenario
        scenario = Scenario(
            nodes=(
                mobile_node(1, [(0, 0), (20, 0)], speed=5.0),
                static_node(2, 0, 50),
            ),
            t_total_s=10.0,
            sample_interval_s=1.0,
        )
        matrix = assemble_channel_matrix(scenario)
        snapshots = matrix.entries[(1, 2)]
        ref = snapshots[4]
        for s in range(6, 11):
            assert snapshots[s - 1].paths == ref.paths
            assert snapshots[s - 1].time_s == (s - 1) * 1.0
        assert snapshots[3].paths != ref.paths

    def test_four_nodes_have_sixteen_entries_per_sample(self):
        scenario = Scenario(
            nodes=tuple(static_node(i, 30 * i, 0) for i in range(1, 5)),
            t_total_s=3.0,
            sample_interval_s=1.0,
        )
        matrix = assemble_channel_matrix(scenario)
        assert len(matrix.entries) == 16
        assert all(len(v) == matrix.n_samples for v in matrix.entries.values())

    def test_diagonal_entries_are_empty_snapshots(self):
        matrix = assemble_channel_matrix(two_node_scenario())
        assert matrix.entries[(1, 1)][0].paths == ()

    def test_stationary_tx_reuses_sample_one_even_for_mobile_rx(self):
        # The reuse branch keys on the transmitter speed only.
        scenario = Scenario(
            nodes=(
                static_node(1, 0, 0),
                mobile_node(2, [(10, 0), (60, 0)], speed=10.0),
            ),
            t_total_s=6.0,
            sample_interval_s=1.0,
        )
        matrix = assemble_channel_matrix(scenario)
        first, *rest = matrix.entries[(1, 2)]
        assert all(snap.paths == first.paths for snap in rest)
        # the reverse direction has a moving transmitter and does vary
        delays = [snap.paths[0].toa_s for snap in matrix.entries[(2, 1)]]
        assert len(set(delays)) > 1

    def test_out_and_back_los_delays_are_palindrome(self):
        scenario = Scenario(
            nodes=(
                mobile_node(1, [(10, 0), (50, 0)], speed=10.0, loop_back=True),
                static_node(2, 0, 0),
            ),
            t_total_s=9.0,
            sample_interval_s=1.0,
        )
        matrix = assemble_channel_matrix(scenario)
        delays = [snap.paths[0].toa_s for snap in matrix.entries[(1, 2)]]
        assert delays == pytest.approx(delays[::-1])

    def test_times_follow_sample_index(self):
        matrix = assemble_channel_matrix(two_node_scenario(t_total=5, t_s=0.5))
        assert matrix.n_samples == 9
        for s, snap in enumerate(matrix.entries[(1, 2)], start=1):
            assert snap.time_s == (s - 1) * 0.5


class TestPathsFile:
    def test_round_trip_preserves_channels(self, tmp_path):
        # stationary and moving nodes, and a trajectory that ends early
        scenario = mixed_scenario()
        matrix = assemble_channel_matrix(scenario)
        path = tmp_path / "paths.jsonl"
        write_paths_file(matrix, path)
        rebuilt = assemble_channel_matrix(scenario, read_paths_records(path))
        assert (rebuilt.node_ids, rebuilt.n_samples, rebuilt.sample_interval_s) == (
            matrix.node_ids, matrix.n_samples, matrix.sample_interval_s,
        )
        assert rebuilt.index.keys() == matrix.index.keys()
        for pair, snapshots in matrix.index.items():
            again = rebuilt.index[pair]
            # the file holds a record per sample, so the snapshot numbers
            # differ; the entries that share a snapshot do not
            shared = np.unique(snapshots, return_inverse=True)[1]
            assert (np.unique(again, return_inverse=True)[1] == shared).all()
            rows, counts = matrix.paths.rows(snapshots)
            rows_again, counts_again = rebuilt.paths.rows(again)
            assert (counts_again == counts).all()
            for name in ("power_dbm", "phase_rad", "toa_s", "aoa_deg", "aod_deg"):
                want = getattr(matrix.paths, name)[rows]
                assert getattr(rebuilt.paths, name)[rows_again].tobytes() == want.tobytes()

    def test_a_file_of_a_shorter_run_is_an_error_naming_the_missing_sample(self, tmp_path):
        def scenario(t_total_s):
            nodes = (mobile_node(1, [(10, 0), (60, 0)], speed=10.0), static_node(2, 0, 5))
            return Scenario(nodes=nodes, t_total_s=t_total_s, sample_interval_s=1.0)

        path = tmp_path / "paths.jsonl"
        write_paths_file(assemble_channel_matrix(scenario(3.0)), path)
        records = read_paths_records(path)
        message = "paths records missing sample 4 for pair (1,2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble_channel_matrix(scenario(6.0), records)

    @pytest.mark.parametrize("name", ["canyon", "moving-first"])
    def test_a_file_cut_at_a_line_break_is_an_error_or_the_whole_file(self, tmp_path, name):
        # a cut file rebuilds the whole file's matrix only if the records it
        # lost are of a stationary transmitter's later samples; in the
        # two-node scenario the first transmitter is the moving one
        if name == "canyon":
            scenario = config.load(CONFIG_DIR / "canyon.json").require_scenario()
        else:
            nodes = (mobile_node(1, [(10, 0), (60, 0)], speed=10.0), static_node(2, 0, 5))
            scenario = Scenario(nodes=nodes, t_total_s=6.0, sample_interval_s=1.0)
        full, cut, again = (tmp_path / f for f in ("full.jsonl", "cut.jsonl", "again.jsonl"))
        write_paths_file(assemble_channel_matrix(scenario), full)
        data = full.read_bytes()
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        for end in ends:
            cut.write_bytes(data[:end])
            try:
                matrix = assemble_channel_matrix(scenario, read_paths_records(cut))
            except ValueError:
                continue
            write_paths_file(matrix, again)
            assert again.read_bytes() == data, f"the cut after byte {end} reads as valid"

    def test_record_layout(self, tmp_path):
        matrix = assemble_channel_matrix(two_node_scenario(t_total=2))
        path = tmp_path / "paths.jsonl"
        write_paths_file(matrix, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"tx", "rx", "s", "t_s", "paths"}
        assert set(first["paths"][0]) >= {"p_rx_dbm", "phase_rad", "toa_s"}

    def test_missing_sample_one_is_an_error(self, tmp_path):
        matrix = assemble_channel_matrix(two_node_scenario(t_total=3))
        path = tmp_path / "paths.jsonl"
        write_paths_file(matrix, path)
        records = read_paths_records(path)
        records.index.pop((1, 2, 1))
        scenario = two_node_scenario(t_total=3)
        # node 1's transmit records for sample 1 are gone for pair (1,2)
        with pytest.raises(ValueError, match="missing"):
            assemble_channel_matrix(scenario, records._replace(index={
                k: v for k, v in records.index.items() if k[0] != 1
            }))

    def test_writer_bytes_equal_json_dumps_of_each_record(self, tmp_path):
        matrix = assemble_channel_matrix(mixed_scenario())
        path, want = tmp_path / "paths.jsonl", tmp_path / "want.jsonl"
        write_paths_file(matrix, path)
        oracles.write_paths_per_record(matrix, want)
        assert path.read_bytes() == want.read_bytes()

    def test_equal_snapshots_share_one_body(self, tmp_path, monkeypatch):
        # (1, 2) and (2, 1) hold snapshots 0 and 1, equal by value, at every
        # sample; snapshot 2 differs from them in one angle only
        row = (-70.0, 0.5, 1e-7)
        table = PathTable.of_columns(
            [2, 2, 2], *zip(row, row, row, row, row, row),
            aoa_deg=[np.nan, 10.0, np.nan, 10.0, np.nan, -10.0],
        )
        index = {(1, 2): np.array([0, 0, 2]), (2, 1): np.array([1, 1, 1])}
        matrix = ChannelMatrix([1, 2], 3, 0.1, table, index)
        formatted = []
        path_objects = mobility._path_objects
        monkeypatch.setattr(
            mobility, "_path_objects",
            lambda table: formatted.append(len(table.power_dbm)) or path_objects(table),
        )
        path, want = tmp_path / "paths.jsonl", tmp_path / "want.jsonl"
        write_paths_file(matrix, path)
        assert formatted == [4]  # the rows of snapshots 0 and 2
        oracles.write_paths_per_record(matrix, want)
        assert path.read_bytes() == want.read_bytes()

    def test_reader_sorts_by_toa_keeps_angles_and_rewrites_them(self, tmp_path):
        # paths out of toa order, two at one toa (file order kept), angles
        # on some paths only, an int value and a phase to reduce
        paths = [
            {"p_rx_dbm": -70.0, "phase_rad": 7.0, "toa_s": 3e-7, "aod_deg": 12.5},
            {"p_rx_dbm": -61, "phase_rad": -1.0, "toa_s": 1e-7},
            {"p_rx_dbm": -65.0, "phase_rad": 0.5, "toa_s": 1e-7, "aoa_deg": -0.0},
        ]
        rec = {"tx": 1, "rx": 2, "s": 1, "t_s": 0.0, "paths": paths}
        path = tmp_path / "paths.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, "tx": 2, "rx": 1}) + "\n")
        scenario = two_node_scenario(t_total=1.0)
        matrix = assemble_channel_matrix(scenario, read_paths_records(path))
        want = tuple(
            sorted(
                (
                    RayPath(
                        p["p_rx_dbm"], p["phase_rad"], p["toa_s"],
                        p.get("aoa_deg"), p.get("aod_deg"),
                    )
                    for p in paths
                ),
                key=lambda p: p.toa_s,
            )
        )
        # the table holds floats, so -61 reads -61.0
        assert matrix.entries[(1, 2)][0].paths == want
        again, want_file = tmp_path / "again.jsonl", tmp_path / "want.jsonl"
        write_paths_file(matrix, again)
        oracles.write_paths_per_record(matrix, want_file)
        assert again.read_bytes() == want_file.read_bytes()
        assert '"aoa_deg": -0.0' in again.read_text()

    def test_a_compact_file_reads_as_the_writers(self, tmp_path):
        # compact separators and sorted keys: no line is of the writer's
        # form, so each is read whole
        scenario = mixed_scenario()
        path, compact = tmp_path / "paths.jsonl", tmp_path / "compact.jsonl"
        write_paths_file(assemble_channel_matrix(scenario), path)
        compact.write_text("".join(
            json.dumps(json.loads(line), separators=(",", ":"), sort_keys=True) + "\n"
            for line in path.read_text().splitlines()
        ))
        again = tmp_path / "again.jsonl"
        write_paths_file(assemble_channel_matrix(scenario, read_paths_records(compact)), again)
        assert again.read_bytes() == path.read_bytes()

    def test_stationary_samples_point_at_sample_one(self):
        matrix = assemble_channel_matrix(mixed_scenario())
        for (tx, rx), snapshots in matrix.index.items():
            if tx in (1, 3):  # the stationary nodes
                assert (snapshots == snapshots[0]).all()
        assert len(set(matrix.index[(2, 1)].tolist())) == matrix.n_samples

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "paths.jsonl"
        path.write_text('{"tx": 1, "rx": 2}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_paths_records(path)

    def test_errors_name_the_file_and_the_line(self, tmp_path):
        path = tmp_path / "paths.jsonl"
        good = '{"tx": 1, "rx": 2, "s": 1, "t_s": 0.0, "paths": []}'
        path.write_text(good + '\n\n{"tx": 1, "rx": 2, "s": 2, "paths": [{}]}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ")):
            read_paths_records(path)

    def test_a_byte_that_is_not_utf8_names_the_file_and_the_line(self, tmp_path):
        path = tmp_path / "paths.jsonl"
        record = b'{"tx": 1, "rx": 2, "s": %d, "t_s": 0.0, "paths": [%s]}\n'
        path.write_bytes(record % (1, b"") + record % (2, b"\xff"))
        message = "line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 49"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_paths_records(path)

    def test_second_record_for_a_key_names_both_lines(self, tmp_path):
        path = tmp_path / "paths.jsonl"
        record = '{{"tx": 1, "rx": 2, "s": {s}, "t_s": 0.0, "paths": []}}\n'
        path.write_text(record.format(s=1) + record.format(s=2) + record.format(s=1))
        with pytest.raises(ValueError) as err:
            read_paths_records(path)
        message = str(err.value)
        assert message.startswith(f"{path}: line 3: second record")
        assert "(1, 2, 1)" in message and "first is on line 1" in message

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("toa_s", "NaN", "toa_s"),
            ("p_rx_dbm", "NaN", "received_power_dbm"),
            ("phase_rad", "Infinity", "phase_rad"),
            ("aoa_deg", "-Infinity", "aoa_deg"),
            ("aod_deg", "NaN", "aod_deg"),
        ],
    )
    def test_non_finite_values_fail_naming_the_field(
        self, tmp_path, field, value, named
    ):
        values = {"p_rx_dbm": "-60.0", "phase_rad": "1.0", "toa_s": "1e-07"}
        values[field] = value
        path_json = ", ".join(f'"{k}": {v}' for k, v in values.items())
        path = tmp_path / "paths.jsonl"
        path.write_text(
            '{"tx": 1, "rx": 2, "s": 1, "t_s": 0.0, "paths": [{' + path_json + "}]}\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: ")) as err:
            read_paths_records(path)
        assert f"{named} must be finite" in str(err.value)

    @pytest.mark.parametrize(
        "bad_path, message",
        [
            ('{"p_rx_dbm": -60.0, "phase_rad": 1.0, "toa_s": -1e-09}', "toa_s must be >= 0"),
            ('{"p_rx_dbm": "-60", "phase_rad": 1.0, "toa_s": 1e-07}', "not str"),
            ('{"p_rx_dbm": -60.0, "phase_rad": null, "toa_s": 1e-07}', "'NoneType'"),
            ('{"p_rx_dbm": -60.0, "toa_s": 1e-07}', "'phase_rad'"),
            ('[-60.0, 1.0, 1e-07]', "list indices"),
        ],
    )
    def test_bad_path_values_name_the_line_after_good_ones(
        self, tmp_path, bad_path, message
    ):
        good = '{"p_rx_dbm": -60.0, "phase_rad": 1.0, "toa_s": 1e-07}'
        record = '{{"tx": 1, "rx": 2, "s": {s}, "t_s": 0.0, "paths": [{paths}]}}\n'
        path = tmp_path / "paths.jsonl"
        path.write_text(
            record.format(s=1, paths=good) + record.format(s=2, paths=f"{good}, {bad_path}")
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ")) as err:
            read_paths_records(path)
        assert message in str(err.value)


ROW_VALUES = {
    "power": st.one_of(
        st.floats(-200.0, 50.0), st.sampled_from([-0.0, 5e-324, 1.7e308, -70.0])
    ),
    "phase": st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-0.0, 2 * math.pi])),
    "toa": st.one_of(st.floats(0.0, 1e-5), st.sampled_from([-0.0, 5e-324, 1e-7])),
    "angle": st.one_of(st.just(math.nan), st.floats(-180.0, 180.0), st.just(-0.0)),
}


@st.composite
def path_matrix_parts(draw):
    """The fields of matrices of 2-3 nodes whose records share snapshots (by
    number and by value): paths at equal toa, phases to reduce, angles on
    some paths, signed zeros, subnormal and huge values."""
    rows = st.tuples(*(ROW_VALUES[v] for v in ("power", "phase", "toa", "angle", "angle")))
    snapshots = st.lists(rows, max_size=4).map(lambda snap: sorted(snap, key=lambda r: r[2]))
    pool = draw(st.lists(snapshots, min_size=1, max_size=4))
    pool.append(pool[draw(st.integers(0, len(pool) - 1))])  # equal by value
    flat = [row for snap in pool for row in snap]
    columns = list(zip(*flat)) if flat else [()] * 5
    table = PathTable.of_columns([len(snap) for snap in pool], *columns)
    node_ids = draw(st.sampled_from([[1, 2], [1, 2, 3], [7, 3]]))
    n_samples = draw(st.integers(1, 3))
    index = {
        (i, j): np.array(
            draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_samples, max_size=n_samples))
        )
        for i in node_ids for j in node_ids if i != j
    }
    interval = draw(st.sampled_from([1.0, 0.1, 0.04]))
    return node_ids, n_samples, interval, table, index


def path_matrices():
    return path_matrix_parts().map(lambda parts: ChannelMatrix(*parts))


PATHS_MUTATIONS = (
    "key_order", "path_order", "whitespace", "crlf", "blank", "empty_head", "repeated_paths",
    "bad_head", "repeat_record", "body_value", "missing_key", "non_list", "int_value",
)
VALUE = re.compile(r'"(p_rx_dbm|phase_rad|toa_s|aoa_deg|aod_deg)": ([^,}]+)')


def mutated_paths(text: str, data) -> str:
    """``text`` (a written paths file) with one to three records broken,
    repeated, reordered or padded, or with blank lines or CRLF line ends;
    a reordered record keeps its keys or paths in another order."""
    lines = text.splitlines()
    end = "\n"
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(PATHS_MUTATIONS))
        i = data.draw(st.integers(0, len(lines)))  # len(lines): after the last
        if kind == "crlf":
            end = "\r\n"
            continue
        if kind == "blank":
            lines.insert(i, data.draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "empty_head":
            body = data.draw(st.sampled_from(["[]", "[{}]"]))
            lines.insert(i, data.draw(st.sampled_from(["{", "{ "])) + ', "paths": ' + body + "}")
            continue
        if i == len(lines) or not lines[i].strip():
            continue
        line = lines[i]
        head, sep, tail = line.partition(', "paths": ')
        if kind == "repeat_record":
            lines.insert(data.draw(st.integers(i + 1, len(lines))), line)
        elif kind == "bad_head" and sep:
            # the body is parsed (and kept) from line i before this line
            bad = data.draw(
                st.sampled_from([
                    "{", '{"tx": 1, "rx": 2', '{"tx": [1], "rx": 2, "s": 1',
                    '{"tx": 1 "rx": 2, "s": 9', '{"tx": 1, "rx": 2, "s": 9,',
                ])
            )
            lines.insert(i + 1, bad + sep + tail)
        elif kind in ("key_order", "path_order"):
            try:
                rec = json.loads(line)
                if kind == "path_order":
                    rec["paths"].reverse()
                keys = data.draw(st.permutations(list(rec)))
                lines[i] = json.dumps({key: rec[key] for key in keys})
            except (ValueError, TypeError, KeyError, AttributeError):
                pass
        elif kind == "whitespace":
            where = data.draw(st.sampled_from(["ends", "sep", "body", "close"]))
            if where == "ends":
                lines[i] = " \t" + line + "  "
            elif where == "sep":
                lines[i] = line.replace(', "paths": ', ',  "paths":\t', 1)
            elif where == "body":
                lines[i] = line.replace('"paths": [', '"paths": [ ', 1)
            else:
                lines[i] = line[:-1] + " }"
        elif kind == "repeated_paths":
            extra = data.draw(st.sampled_from(["[]", '[{"p_rx_dbm": NaN}]']))
            if data.draw(st.booleans()):
                lines[i] = '{"paths": ' + extra + ", " + line[1:]
            else:
                lines[i] = line[:-1] + ', "paths": ' + extra + "}"
        elif kind == "non_list" and sep:
            lines[i] = head + sep + data.draw(st.sampled_from(["{}", "1", '"x"', "null"])) + "}"
        elif kind in ("body_value", "int_value", "missing_key"):
            values = list(VALUE.finditer(line))
            if not values:
                continue
            m = values[data.draw(st.integers(0, len(values) - 1))]
            if kind == "missing_key":
                cut = line[: m.start()] + line[m.end():]
                lines[i] = cut.replace("{, ", "{").replace(", }", "}")
                continue
            if kind == "int_value":
                new = data.draw(st.sampled_from(["0", "7", "-61", "100000000000000000000", "true"]))
            else:
                new = data.draw(
                    st.sampled_from(
                        ["NaN", "Infinity", "-Infinity", "-1e-09", '"1.0"', "null", "1e400"]
                    )
                )
            lines[i] = line[: m.start(2)] + new + line[m.end(2):]
    return "".join(line + end for line in lines)


def records_outcome(read, path):
    """What a reader makes of a paths file: its keys in file order and, per
    key, the dtypes and bytes of its snapshot's rows; or its error."""
    try:
        records = read(path)
    except Exception as exc:  # the two readers must fail alike
        return type(exc).__name__, str(exc)
    columns = ("offsets", "power_dbm", "phase_rad", "toa_s", "aoa_deg", "aod_deg")
    snapshots = [records.paths.take([b]) for b in records.index.values()]
    return repr(list(records.index)), [
        [(getattr(t, name).dtype.str, getattr(t, name).tobytes()) for name in columns]
        for t in snapshots
    ]


class TestDistinctSnapshots:
    @settings(max_examples=100, deadline=None)
    @given(parts=path_matrix_parts())
    def test_a_matrix_holds_each_distinct_snapshot_once(self, parts, tmp_path_factory):
        node_ids, n_samples, interval, table, index = parts
        matrix = ChannelMatrix(*parts)
        used = np.unique(np.concatenate(list(index.values())))
        assert len(matrix.paths.offsets) - 1 == len(table.distinct(used)[0])
        assert repr(matrix.entries) == repr({
            (i, j): [
                ChannelSnapshot(i, j, s, (s - 1) * interval, table.ray_paths(b))
                for s, b in enumerate(snapshots.tolist(), start=1)
            ]
            for (i, j), snapshots in index.items()
        })
        folder = tmp_path_factory.mktemp("paths")
        path, want = folder / "paths.jsonl", folder / "want.jsonl"
        write_paths_file(matrix, path)
        oracles.write_paths_per_record(matrix, want)
        assert path.read_bytes() == want.read_bytes()

    def test_a_multi_plane_matrix_and_its_paths_file_hold_equal_snapshots(self, tmp_path):
        scenario = mixed_scenario()
        matrix = assemble_channel_matrix(scenario)
        path = tmp_path / "paths.jsonl"
        write_paths_file(matrix, path)
        records = read_paths_records(path)
        rebuilt = assemble_channel_matrix(scenario, records)
        # reciprocal links and stationary transmitters share snapshots
        n_snapshots = len(matrix.paths.offsets) - 1
        assert len(rebuilt.paths.offsets) - 1 == n_snapshots < len(records.index)
        # each distinct body once; the matrix adds the diagonal's empty snapshot
        assert len(records.paths.offsets) - 1 == n_snapshots - 1


class TestPathsReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(matrix=path_matrices(), data=st.data())
    def test_reader_equals_the_per_line_reader(self, matrix, data, tmp_path_factory):
        folder = tmp_path_factory.mktemp("paths")
        path, want = folder / "paths.jsonl", folder / "want.jsonl"
        write_paths_file(matrix, path)
        oracles.write_paths_per_record(matrix, want)
        assert path.read_bytes() == want.read_bytes()
        path.write_bytes(mutated_paths(path.read_text(), data).encode())
        assert records_outcome(read_paths_records, path) == records_outcome(
            oracles.read_paths_records_per_line, path
        )

    @pytest.mark.parametrize(
        "text",
        [
            # a head of "{" reads as {} alone, but the line is no JSON
            '{, "paths": []}\n',
            'HEAD, "paths": [GOOD]}\n{ , "paths": [GOOD]}\n',
            # a good body, parsed once, behind heads that fail
            'HEAD, "paths": [GOOD]}\n{"tx": 1, "rx": 2, "paths": [GOOD]}\n',
            'HEAD, "paths": [GOOD]}\n{"tx": [1], "rx": 2, "s": 1, "paths": [GOOD]}\n',
            # the last "paths" key wins, NaN and all
            '{"paths": [{"p_rx_dbm": NaN}], "tx": 1, "rx": 2, "s": 1, "paths": [GOOD]}\n',
            'HEAD, "paths": [GOOD], "paths": [{"toa_s": NaN}]}\n',
            # values that are finite but sum past the largest float
            'HEAD, "paths": [HUGE, HUGE]}\n',
            'HEAD, "paths": [{"p_rx_dbm": NaN, "phase_rad": 0.0, "toa_s": 0.0}]}\n',
            'HEAD, "paths": [{"p_rx_dbm": true, "phase_rad": 0, "toa_s": 0}]}\n',
            'HEAD, "paths": [GOOD]}\r\n\r\n{"tx": 1.0, "rx": 2, "s": 1, "paths": [GOOD]}\r\n',
        ],
    )
    def test_examples_equal_the_per_line_reader(self, tmp_path, text):
        path = tmp_path / "paths.jsonl"
        for token, value in (
            ("HEAD", '{"tx": 1, "rx": 2, "s": 1'),
            ("GOOD", '{"p_rx_dbm": -60.0, "phase_rad": 7.0, "toa_s": 1e-07}'),
            ("HUGE", '{"p_rx_dbm": 1.7e308, "phase_rad": 0.0, "toa_s": 0.0}'),
        ):
            text = text.replace(token, value)
        path.write_bytes(text.encode())
        assert records_outcome(read_paths_records, path) == records_outcome(
            oracles.read_paths_records_per_line, path
        )


class TestScenarioConfig:
    def test_load_scenario_with_mph_speed(self, tmp_path):
        cfg = {
            "name": "demo",
            "t_total_s": 10,
            "sample_interval_s": 0.5,
            "radio": {"tx_power_dbm": 23.0},
            "reflectors": [{"axis": "z", "offset": 0.0}],
            "nodes": [
                {
                    "id": 1,
                    "kind": "RSU",
                    "antenna_height_m": 4.88,
                    "position": [0, 0],
                },
                {
                    "id": 2,
                    "kind": "OBU",
                    "antenna_height_m": 1.52,
                    "speed_mph": 25,
                    "waypoints": [[10, 0], [100, 0]],
                    "loop_back": True,
                },
            ],
            "sounded_links": [[2, 1]],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        cfg = config.load(path)
        scenario = cfg.scenario
        assert scenario.name == "demo"
        assert scenario.node(2).speed_mps == pytest.approx(25 * MPH_TO_MPS)
        assert scenario.node(1).radio.tx_power_dbm == 23.0
        assert scenario.reflectors == (ReflectorPlane("z", 0.0),)
        assert cfg.sounded_links == ((2, 1),)

    def test_negative_max_bounces_rejected(self):
        # the generator would run line of sight only, as with 0
        nodes = (static_node(1, 0, 0), static_node(2, 10, 0))
        with pytest.raises(ValueError, match="^max_bounces must be >= 0, got -1$"):
            Scenario(nodes, 1.0, 0.5, reflectors=(ReflectorPlane("z"),), max_bounces=-1)
        assert Scenario(nodes, 1.0, 0.5, max_bounces=0).max_bounces == 0

    def test_trajectory_speed_consistency_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(((0, 0), (10, 0)), speed_mps=0.0)
        with pytest.raises(ValueError):
            Trajectory(((0, 0),), speed_mps=5.0)
