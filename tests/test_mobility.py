"""Tests for trajectory sampling, path synthesis, and matrix assembly."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chansounder import config, mobility
from chansounder.channel_model import RadioParams
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
    synthesize_pair_paths,
    write_paths_file,
)

RADIO = RadioParams()


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
        paths = synthesize_pair_paths(
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
        near = synthesize_pair_paths(
            np.array([0.0, 0, 2]), np.array([100.0, 0, 2]), radio, 5.0
        )[0]
        far = synthesize_pair_paths(
            np.array([0.0, 0, 2]), np.array([200.0, 0, 2]), radio, 5.0
        )[0]
        assert near.received_power_dbm - far.received_power_dbm == pytest.approx(
            20 * math.log10(2), abs=1e-9
        )
        assert far.toa_s == pytest.approx(2 * near.toa_s)

    def test_ground_reflection_arrives_later(self):
        radio = RadioParams()
        paths = synthesize_pair_paths(
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
            synthesize_pair_paths(
                np.array([1.0, 2, 3]), np.array([1.0, 2, 3]), RadioParams(), 5.0
            )

    def test_source_cutoff_drops_buried_reflections(self):
        paths = synthesize_pair_paths(
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
    got = synthesize_pair_paths(*args)
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
                synthesize_pair_paths(*args)
            return
        got = synthesize_pair_paths(*args)
        assert len(got) == len(want)
        assert path_bytes(got) == path_bytes(want)

    @pytest.mark.parametrize("axis", "xyz")
    def test_rx_on_an_image_is_a_zero_distance_link(self, axis):
        tx = np.array([3.0, -4.0, 1.5])
        planes = (ReflectorPlane("z", 0.0), ReflectorPlane(axis, 2.0))
        rx = oracles.mirror(planes[1], oracles.mirror(planes[0], tx))
        if axis == "z":  # z then z is no sequence; the image is one bounce
            rx = oracles.mirror(planes[1], tx)
        for synthesize in (oracles.pair_paths_per_path, synthesize_pair_paths):
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
            for synthesize in (oracles.pair_paths_per_path, synthesize_pair_paths):
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
        first = matrix.snapshot(1, 2, 1)
        for s in range(2, 11):
            snap = matrix.snapshot(1, 2, s)
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
        ref = matrix.snapshot(1, 2, 5)
        for s in range(6, 11):
            snap = matrix.snapshot(1, 2, s)
            assert snap.paths == ref.paths
            assert snap.time_s == (s - 1) * 1.0
        assert matrix.snapshot(1, 2, 4).paths != ref.paths

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
        assert matrix.snapshot(1, 1, 1).paths == ()

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
        first = matrix.snapshot(1, 2, 1)
        assert all(
            matrix.snapshot(1, 2, s).paths == first.paths for s in range(2, 7)
        )
        # the reverse direction has a moving transmitter and does vary
        delays = [matrix.snapshot(2, 1, s).paths[0].toa_s for s in range(1, 7)]
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
        delays = [matrix.snapshot(1, 2, s).paths[0].toa_s for s in range(1, 10)]
        assert delays == pytest.approx(delays[::-1])

    def test_times_follow_sample_index(self):
        matrix = assemble_channel_matrix(two_node_scenario(t_total=5, t_s=0.5))
        assert np.allclose(matrix.times, np.arange(matrix.n_samples) * 0.5)
        for s in range(1, matrix.n_samples + 1):
            assert matrix.snapshot(1, 2, s).time_s == (s - 1) * 0.5


class TestPathsFile:
    def test_round_trip_preserves_channels(self, tmp_path):
        scenario = Scenario(
            nodes=(
                mobile_node(1, [(10, 0), (60, 0)], speed=10.0),
                static_node(2, 0, 5),
            ),
            t_total_s=5.0,
            sample_interval_s=1.0,
        )
        matrix = assemble_channel_matrix(scenario)
        path = tmp_path / "paths.jsonl"
        write_paths_file(matrix, path)
        records = read_paths_records(path)
        rebuilt = assemble_channel_matrix(scenario, records)
        for s in range(1, matrix.n_samples + 1):
            a = matrix.snapshot(1, 2, s)
            b = rebuilt.snapshot(1, 2, s)
            assert a.paths == b.paths

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
        records.pop((1, 2, 1))
        scenario = two_node_scenario(t_total=3)
        # node 1's transmit records for sample 1 are gone for pair (1,2)
        with pytest.raises(ValueError, match="missing"):
            assemble_channel_matrix(scenario, {
                k: v for k, v in records.items() if k[0] != 1
            })

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

    def test_trajectory_speed_consistency_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(((0, 0), (10, 0)), speed_mps=0.0)
        with pytest.raises(ValueError):
            Trajectory(((0, 0),), speed_mps=5.0)
