"""Tests for tap clustering, grid snapping, and tap file I/O."""

import cmath
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chansounder import tap_approx
from chansounder.channel_model import (
    ChannelSnapshot,
    PathTable,
    RayPath,
    path_coefficient,
)
from chansounder.mobility import ChannelMatrix
from chansounder.tap_approx import (
    TapFile,
    TapSet,
    approximate_taps,
    build_tap_file_from_matrix,
    read_tap_file,
    write_tap_file,
)
from chansounder.tap_approx import _kmeans_labels, _run_sums
from oracles import (
    columns_of,
    kmeans_per_centroid,
    prune_paths,
    read_tap_file_per_line,
    read_tap_file_per_record,
    taps_per_snapshot,
    write_tap_file_per_record,
)

P_TX = 20.0


def kmeans_clusters(delays, weights, k, tol):
    """The k-means of one segment as index arrays, one per nonempty cluster."""
    labels = _kmeans_labels(delays, weights, np.zeros(len(delays), int), k, tol)
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


def snapshot_from(paths):
    return ChannelSnapshot(1, 2, 1, 0.0, tuple(paths))


def taps_of(snapshot, p_tx_dbm, **kwargs):
    """``approximate_taps`` on the columns of a snapshot's paths."""
    return approximate_taps(*columns_of(snapshot), p_tx_dbm, **kwargs)


def delay_indices(taps):
    return [i for i, _ in taps]


def coefficients(taps):
    return [c for _, c in taps]


def coherent_path_sum(snapshot):
    """Brute-force oracle: coherent sum of all per-path coefficients."""
    return sum(
        path_coefficient(p.received_power_dbm, P_TX, p.phase_rad)
        for p in snapshot.paths
    )


@st.composite
def random_snapshots(draw, max_paths=32, grid_dt=1e-8, span_grids=8):
    n = draw(st.integers(min_value=1, max_value=max_paths))
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=span_grids * grid_dt),
            min_size=n,
            max_size=n,
        )
    )
    losses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=30.0), min_size=n, max_size=n
        )
    )
    phases = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
            min_size=n,
            max_size=n,
        )
    )
    return snapshot_from(
        RayPath(P_TX - loss, ph, d)
        for d, loss, ph in zip(delays, losses, phases)
    )


@st.composite
def kmeans_inputs(draw):
    """Delays from a grid (ties, equal distances), subnormals, or anywhere;
    up to 200 of them, so a cluster can hold more than 128 (the pairwise
    sums' block)."""
    delay = draw(
        st.sampled_from(
            [
                st.integers(min_value=0, max_value=12).map(lambda i: i * 1e-8),
                st.sampled_from([0.0, 5e-324, 1e-323, 1.5e-323, 2e-323]),
                st.floats(min_value=0.0, max_value=1e-6),
            ]
        )
    )
    weight = st.one_of(
        st.sampled_from([1.0, 0.5, 0.25]), st.floats(min_value=1e-6, max_value=1.0)
    )
    n = draw(st.integers(min_value=1, max_value=200))
    delays = np.array(draw(st.lists(delay, min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    return delays, weights


# the powers of test_cluster_left_empty_by_kmeans_is_dropped: a centroid
# ends with no members
EMPTY_CLUSTER = (
    np.array([0.0, 0.0, 0.0, 0.0, 5e-324]),
    np.array([10 ** ((p - 20.0) / 10) for p in (20.0, 20.0, 20.0, 18.0, 18.125)]),
)


class TestKmeansOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        inputs=kmeans_inputs(),
        k=st.integers(min_value=1, max_value=6),
        tol=st.sampled_from([0.0, 1e-12, 1e-10]),
    )
    @example(inputs=EMPTY_CLUSTER, k=4, tol=1e-10)
    def test_clusters_equal_the_per_centroid_loop(self, inputs, k, tol):
        delays, weights = inputs
        got = kmeans_clusters(delays, weights, k, tol)
        want = kmeans_per_centroid(delays, weights, k, tol)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=300
        ),
        data=st.data(),
    )
    def test_run_sums_equal_np_sum_of_each_run(self, values, data):
        # the centroids are these sums' ratios, so they must match the
        # oracle's to the bit even where the clusters would come out equal
        values = np.array([values, values[::-1]])
        n = values.shape[1]
        cuts = data.draw(st.lists(st.integers(1, max(1, n - 1)), max_size=5))
        starts = np.unique([0] + [c for c in cuts if c < n])
        edges = list(starts) + [n]
        want = [
            [np.sum(row[a:b]) for a, b in zip(edges, edges[1:])] for row in values
        ]
        assert _run_sums(values, starts).tobytes() == np.array(want).tobytes()
        # complex runs: np.sum pairs the interleaved parts its own way, so
        # the real and imaginary parts summed apart would differ
        values = values[0] + 1j * values[1]
        want = [np.sum(values[a:b]) for a, b in zip(edges, edges[1:])]
        assert _run_sums(values, starts).tobytes() == np.array(want).tobytes()

    def test_a_centroid_left_without_members_is_dropped(self):
        delays, weights = EMPTY_CLUSTER
        # seeds 0 and 5e-324; the second centroid moves to 1e-323, where
        # 5e-324 ties between the two and goes to the first, leaving it empty
        assert len(np.unique(delays[np.lexsort((delays, -weights))[:4]])) == 2
        clusters = kmeans_clusters(delays, weights, 4, 1e-10)
        assert [c.tolist() for c in clusters] == [[0, 1, 2, 3, 4]]


GRID = 1e-8


@st.composite
def snapshot_paths(draw):
    """One snapshot's (power_dbm, phase, toa) rows in toa order: up to 40
    paths on grid delays (ties), subnormal delays or anywhere, powers on a
    quarter-dB grid (tied weights) or anywhere."""
    delay = draw(
        st.sampled_from(
            [
                st.integers(min_value=0, max_value=12).map(lambda i: i * GRID),
                st.sampled_from([0.0, 5e-324, 1e-323, 1.5e-323, 2e-323]),
                st.floats(min_value=0.0, max_value=1e-6),
            ]
        )
    )
    power = st.one_of(
        st.integers(min_value=-480, max_value=-240).map(lambda i: i * 0.25),
        st.floats(min_value=-120.0, max_value=-60.0),
    )
    phase = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
    n = draw(st.integers(min_value=0, max_value=40))
    rows = draw(st.lists(st.tuples(power, phase, delay), min_size=n, max_size=n))
    return sorted(rows, key=lambda row: row[2])


def two_node_matrix(snapshots):
    """A matrix of nodes 1 and 2 at 1 ms samples: (1, 2) takes the first
    half of ``snapshots``, (2, 1) the second."""
    n_samples = len(snapshots) // 2
    rows = [row for snap in snapshots for row in snap]
    columns = list(zip(*rows)) if rows else [(), (), ()]
    table = PathTable.of_columns([len(s) for s in snapshots] + [0], *columns)
    empty = np.full(n_samples, len(snapshots))
    index = {
        (1, 1): empty,
        (1, 2): np.arange(n_samples),
        (2, 1): n_samples + np.arange(n_samples),
        (2, 2): empty,
    }
    return ChannelMatrix([1, 2], n_samples, 1e-3, table, index)


# a centroid left without members, clusters of 8 and more, k or fewer
# paths, equal delays and a snapshot that pruning empties
SEGMENT_EXAMPLE = [
    [(-100.0 + p, 0.0, d) for p, d in zip((20.0, 20.0, 20.0, 18.0, 18.125), EMPTY_CLUSTER[0])],
    [(-70.0 - i, 0.3 * i, (i % 3) * GRID) for i in range(12)],
    [(-80.0, 1.0, 2 * GRID), (-81.0, 2.0, 2 * GRID)],
    [(-118.0, 0.5, 0.0), (-119.0, 0.25, 5e-324)],
]


class TestSegmentedBuild:
    @settings(max_examples=150, deadline=None)
    @given(
        n_samples=st.integers(min_value=1, max_value=3),
        data=st.data(),
        k=st.integers(min_value=1, max_value=4),
        p_tx=st.tuples(*[st.sampled_from([20.0, 23.0, 7.5])] * 2),
        offset_db=st.sampled_from([0.0, 45.0, -3.5]),
        prune_floor_dbm=st.sampled_from([None, -100.0]),
    )
    @example(
        n_samples=2, data=None, k=4, p_tx=(20.0, 23.0), offset_db=45.0,
        prune_floor_dbm=-100.0,
    )
    def test_build_equals_each_snapshot_alone_and_the_oracle(
        self, n_samples, data, k, p_tx, offset_db, prune_floor_dbm
    ):
        if data is None:
            snapshots = SEGMENT_EXAMPLE
        else:
            snapshots = [data.draw(snapshot_paths()) for _ in range(2 * n_samples)]
        matrix = two_node_matrix(snapshots)
        power = {1: p_tx[0], 2: p_tx[1]}
        built = build_tap_file_from_matrix(
            matrix, power, matrix.n_samples, k=k, grid_dt_s=GRID,
            offset_db=offset_db, prune_floor_dbm=prune_floor_dbm,
        )
        for pair in ((1, 2), (2, 1)):
            snapshots = matrix.entries[pair]
            for ms, s in enumerate(matrix.sample_of(np.arange(matrix.n_samples) / 1000.0)):
                snap = snapshots[s - 1]
                if prune_floor_dbm is not None:
                    snap = prune_paths(snap, prune_floor_dbm)
                got = built.tap_lists[built.index[pair][ms]]
                alone = taps_of(
                    snap, power[pair[0]], k=k, grid_dt_s=GRID, offset_db=offset_db
                )
                want = taps_per_snapshot(
                    snap, power[pair[0]], k, GRID, 43.0, offset_db
                )
                # repr tells signed zeros apart
                assert repr(got) == repr(alone) == repr(want)


    def test_one_tap_list_per_distinct_snapshot(self):
        # six snapshots, equal by value, sent at one power
        matrix = two_node_matrix([[(-70.0, 0.5, 0.0)]] * 6)
        matrix.index[(1, 2)][:] = 0  # a stationary transmitter's samples
        built = build_tap_file_from_matrix(
            matrix, {1: P_TX, 2: P_TX}, matrix.n_samples, grid_dt_s=GRID
        )
        assert len(built.tap_lists) == 1
        assert built.index[(1, 2)].tolist() == [0, 0, 0]
        assert built.index[(2, 1)].tolist() == [0, 0, 0]

    def test_equal_snapshots_sent_at_two_powers_get_two_lists(self):
        matrix = two_node_matrix([[(-70.0, 0.5, 0.0)]] * 6)
        power = {1: P_TX, 2: P_TX + 3.0}
        built = build_tap_file_from_matrix(matrix, power, matrix.n_samples, grid_dt_s=GRID)
        assert len(built.tap_lists) == 2
        assert built.index[(1, 2)].tolist() == [0, 0, 0]
        assert built.index[(2, 1)].tolist() == [1, 1, 1]
        for pair in ((1, 2), (2, 1)):
            alone = taps_of(matrix.entries[pair][0], power[pair[0]], grid_dt_s=GRID)
            assert repr(built.tap_lists[built.index[pair][0]]) == repr(alone)

    @pytest.mark.parametrize("column", range(3))
    def test_snapshots_one_ulp_apart_get_their_own_lists(self, column):
        row = [-70.0, 0.5, 3e-8]
        nudged = list(row)
        nudged[column] = float(np.nextafter(row[column], math.inf))
        # (1, 2) holds the row and then the nudged row, (2, 1) the row twice
        snapshots = [[tuple(row)], [tuple(nudged)], [tuple(row)], [tuple(row)]]
        matrix = two_node_matrix(snapshots)
        built = build_tap_file_from_matrix(
            matrix, {1: P_TX, 2: P_TX}, matrix.n_samples, grid_dt_s=GRID
        )
        assert len(built.tap_lists) == 2
        assert built.index[(1, 2)].tolist() == [0, 1]
        assert built.index[(2, 1)].tolist() == [0, 0]


class TestApproximateTaps:
    def test_paths_already_on_grid_pass_through(self):
        grid = 1e-8
        snap = snapshot_from(
            [
                RayPath(P_TX - 3, 0.0, 0.0),
                RayPath(P_TX - 10, 0.5, 5 * grid),
                RayPath(P_TX - 6, 1.0, 9 * grid),
            ]
        )
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=grid)
        assert delay_indices(ts) == [0, 5, 9]
        expected = [
            path_coefficient(p.received_power_dbm, P_TX, p.phase_rad)
            for p in snap.paths
        ]
        assert np.allclose(coefficients(ts), expected, rtol=1e-12)

    def test_four_tap_synthetic_channel_grid_indices(self):
        delays_us = [0.0, 1.28, 2.0, 4.0]
        losses = [3.0, 20.0, 15.0, 8.0]
        snap = snapshot_from(
            RayPath(P_TX - loss, 0.0, d * 1e-6)
            for d, loss in zip(delays_us, losses)
        )
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=20e-9)
        assert delay_indices(ts) == [0, 64, 100, 200]

    def test_dense_paths_collapse_to_one_coherent_tap(self):
        rng = np.random.default_rng(7)
        delays = rng.uniform(0, 50e-9, 10)
        phases = rng.uniform(0, 2 * math.pi, 10)
        snap = snapshot_from(
            RayPath(P_TX - 10, ph, d) for d, ph in zip(delays, phases)
        )
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=1e-6)
        assert delay_indices(ts) == [0]
        assert coefficients(ts)[0] == pytest.approx(coherent_path_sum(snap))

    def test_empty_snapshot_is_a_silent_instant(self):
        ts = taps_of(snapshot_from([]), P_TX, k=4, grid_dt_s=1e-8)
        assert ts == ()

    @settings(max_examples=60, deadline=None)
    @given(snap=random_snapshots())
    def test_tap_count_bounded_and_indices_increasing(self, snap):
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=1e-8)
        assert len(ts) <= 4
        idx = delay_indices(ts)
        assert all(b > a for a, b in zip(idx, idx[1:]))

    @settings(max_examples=60, deadline=None)
    @given(snap=random_snapshots())
    def test_coherent_sum_preserved_within_1db(self, snap):
        # Before dynamic-range dropping the clustered taps partition the
        # paths, so their coherent sum matches the brute-force path sum.
        ts = taps_of(
            snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf
        )
        truth = coherent_path_sum(snap)
        got = sum(coefficients(ts), 0j)
        if abs(truth) < 1e-9:
            return
        assert abs(20 * math.log10(abs(got) / abs(truth))) <= 1.0

    def test_cluster_left_empty_by_kmeans_is_dropped(self):
        # k-means ends with a centroid that no path is nearest to; the empty
        # cluster used to become a NaN delay
        snap = snapshot_from(
            RayPath(p, 0.0, d)
            for p, d in zip(
                (20.0, 20.0, 20.0, 18.0, 18.125), (0.0, 0.0, 0.0, 0.0, 5e-324)
            )
        )
        ts = taps_of(
            snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf
        )
        assert delay_indices(ts) == [0]
        assert coefficients(ts)[0] == pytest.approx(coherent_path_sum(snap))

    @pytest.mark.parametrize("shift_db", [0.0, 0.5])
    def test_one_path_cluster_snaps_its_own_delay(self, shift_db):
        # a path half a grid step out lands on index 0 (round half to even)
        # and merges with the path at 0; the power-weighted mean w * d / w
        # used to miss 5e-9 s by an ulp, so the index followed the power
        snap = snapshot_from(
            RayPath(P_TX - loss + shift_db, 0.0, d)
            for loss, d in ((0.5, 0.0), (19.5, 5e-9))
        )
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf)
        assert delay_indices(ts) == [0]

    @settings(max_examples=40, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=1e-6),
        loss=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_snapping_moves_delay_at_most_half_grid(self, delay, loss):
        grid = 1e-8
        snap = snapshot_from([RayPath(P_TX - loss, 0.0, delay)])
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=grid)
        assert abs(delay_indices(ts)[0] * grid - delay) <= grid / 2 + 1e-15

    @settings(max_examples=40, deadline=None)
    @given(
        # exactly representable powers/shifts keep the dB arithmetic
        # bit-identical, so this tests the clustering itself rather than
        # last-ulp rounding of tied weights
        losses=st.lists(
            st.integers(min_value=0, max_value=120).map(lambda i: i * 0.25),
            min_size=1, max_size=16, unique=True,
        ),
        shift_steps=st.integers(min_value=-40, max_value=40),
        data=st.data(),
    )
    def test_uniform_power_shift_scales_coefficients_only(
        self, losses, shift_steps, data
    ):
        shift = shift_steps * 0.5
        delays = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=3200).map(lambda i: i * 2.5e-11),
                min_size=len(losses), max_size=len(losses), unique=True,
            )
        )
        snap = snapshot_from(
            RayPath(P_TX - loss, 0.0, d) for loss, d in zip(losses, delays)
        )
        shifted = snapshot_from(
            RayPath(p.received_power_dbm + shift, p.phase_rad, p.toa_s)
            for p in snap.paths
        )
        a = taps_of(snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf)
        b = taps_of(
            shifted, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf
        )
        assert delay_indices(a) == delay_indices(b)
        scale = 10 ** (shift / 20)
        assert np.allclose(
            np.array(coefficients(b)),
            np.array(coefficients(a)) * scale,
            rtol=1e-9,
        )

    def test_idempotent_on_grid_aligned_taps(self):
        grid = 1e-8
        snap = snapshot_from(
            [
                RayPath(P_TX - 3, 0.3, 0.0),
                RayPath(P_TX - 12, 2.1, 7 * grid),
                RayPath(P_TX - 8, 4.0, 15 * grid),
            ]
        )
        first = taps_of(snap, P_TX, k=4, grid_dt_s=grid)
        as_paths = snapshot_from(
            RayPath(
                P_TX + 20 * math.log10(abs(c)),
                cmath.phase(c) % (2 * math.pi),
                idx * grid,
            )
            for idx, c in first
        )
        second = taps_of(as_paths, P_TX, k=4, grid_dt_s=grid)
        assert delay_indices(second) == delay_indices(first)
        assert np.allclose(coefficients(second), coefficients(first), rtol=1e-9)

    def test_dynamic_range_dropping(self):
        grid = 1e-8
        snap = snapshot_from(
            [
                RayPath(P_TX - 3, 0.0, 0.0),
                RayPath(P_TX - 60, 0.0, 5 * grid),  # 57 dB below the strongest
            ]
        )
        ts = taps_of(snap, P_TX, k=4, grid_dt_s=grid, dyn_range_db=43.0)
        assert delay_indices(ts) == [0]

    @pytest.mark.parametrize("grid", [math.nan, math.inf, -math.inf, 0.0])
    def test_grid_must_be_finite_and_positive(self, grid):
        with pytest.raises(ValueError, match="grid_dt_s must be finite and > 0"):
            TapSet((), grid)
        with pytest.raises(ValueError, match="grid_dt_s must be finite and > 0"):
            taps_of(snapshot_from([]), P_TX, grid_dt_s=grid)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 8).map(lambda i: i * 1e-8),
                    st.floats(min_value=0.0, max_value=8e-8),
                ),
                st.floats(min_value=-10.0, max_value=30.0),
                st.floats(min_value=-10.0, max_value=10.0),
            ),
            max_size=32,
        ),
        k=st.integers(min_value=1, max_value=4),
        as_arrays=st.booleans(),
    )
    @example(
        rows=[(3e-8, 1.0, -7.5), (0.0, 0.0, 9.0), (3e-8, 2.0, 6.5), (1e-8, 4.0, -0.1),
              (0.0, 3.0, 2 * math.pi)],
        k=2, as_arrays=False,
    )
    def test_unsorted_unreduced_columns_equal_the_oracle(self, rows, k, as_arrays):
        toa, power, phase = ([d for d, _, _ in rows], [P_TX - l for _, l, _ in rows],
                             [ph for _, _, ph in rows])
        snap = snapshot_from(RayPath(p, ph, d) for d, p, ph in zip(toa, power, phase))
        columns = [np.array(c) for c in (toa, power, phase)] if as_arrays else [toa, power, phase]
        got = approximate_taps(*columns, P_TX, k=k, grid_dt_s=1e-8)
        # repr tells signed zeros apart
        assert repr(got) == repr(taps_per_snapshot(snap, P_TX, k, 1e-8, 43.0, 0.0))

    @pytest.mark.parametrize(
        "toa, power, phase",
        [
            ([0.0, math.inf], [-50.0, -60.0], [0.5, 7.0]),
            ([0.0, -1e-9], [-50.0, -60.0], [0.5, 7.0]),
            ([0.0, 1e-8], [-50.0, math.nan], [0.5, 7.0]),
            ([0.0, 1e-8], [-50.0, -math.inf], [0.5, 7.0]),
            ([0.0, 1e-8], [-50.0, -60.0], [0.5, math.inf]),
            ([0.0, 1e-8], [-50.0, -60.0], [math.nan, 7.0]),
            # the first bad path is named, not the first bad column
            ([-1e-9, 1e-8], [-50.0, math.nan], [0.5, 7.0]),
            ([1e-8, 0.0], [-50.0, -60.0], [math.inf, math.nan]),
        ],
    )
    def test_bad_columns_raise_the_error_of_the_first_bad_path(self, toa, power, phase):
        with pytest.raises(ValueError) as first:
            for p, ph, d in zip(power, phase, toa):
                RayPath(p, ph, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                approximate_taps(toa, power, phase, P_TX)
            with pytest.raises(ValueError) as from_arrays:
                approximate_taps(*map(np.array, (toa, power, phase)), P_TX)
        assert str(err.value) == str(from_arrays.value) == str(first.value)

    @pytest.mark.parametrize(
        "toa, power, phase",
        [
            ([0.0], [-50.0, -60.0], [0.5, 7.0]),
            ([0.0, 1e-8, 2e-8], [-50.0, -60.0], [0.5, 7.0]),
            ([0.0, 1e-8], [-50.0], [0.5, 7.0]),
            ([0.0, 1e-8], [-50.0, -60.0], []),
            # a bad value in the columns' common prefix is not reached first
            ([0.0, math.inf], [-50.0, -60.0], [0.5]),
        ],
    )
    def test_columns_of_unequal_length_raise(self, toa, power, phase):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^path columns differ in length: "):
                approximate_taps(toa, power, phase, P_TX)

    def test_a_snapshot_drives_the_records_from_its_time_on(self):
        # sample 2 of a 1.788 s grid holds from ms 1788; its tap list is the
        # snapshot's taps alone
        table = PathTable.of_columns([1, 1, 0], [0.0, -6.0], [0.0, 0.0], [0.0, 0.0])
        index = {(1, 2): [0, 1], (2, 1): [0, 1], (1, 1): [2, 2], (2, 2): [2, 2]}
        matrix = ChannelMatrix([1, 2], 2, 1.788, table, index)
        built = build_tap_file_from_matrix(matrix, {1: P_TX, 2: P_TX}, 1790)
        ids = built.index[(1, 2)]
        assert ids[0] == ids[1787] != ids[1788] == ids[1789]
        snap = matrix.entries[(1, 2)][1]
        assert snap.time_s == 1.788
        assert repr(built.tap_lists[ids[1788]]) == repr(taps_of(snap, P_TX))


def small_tap_file(offset_db=0.0):
    return TapFile(
        n_nodes=2,
        grid_dt_s=2e-8,
        k=4,
        duration_ms=3,
        offset_db=offset_db,
        tap_lists=[((0, 0.7 + 0j), (64, 0.1j))],
        index={(1, 2): [0, 0, 0], (2, 1): [0, 0, 0]},
    )


TWO_MS_HEADER = (
    "# n_nodes=2\n# grid_dt_s=2e-08\n# k=1\n# duration_ms=2\n# offset_db=0.0\n"
)


class TestTapFileIo:
    def test_a_read_checks_each_distinct_tap_list_once(self, tmp_path, monkeypatch):
        src = TapFile(
            3, 1e-8, 2, 4,
            tap_lists=[((0, 1 + 0j),), ((0, 1 + 0j), (3, -0.5j)), ()],
            index={(1, 2): [0, 1, 1, 0], (2, 1): [2, 2, 1, 0], (3, 1): [0, 0, 0, 0]},
        )
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        calls = []
        checked = tap_approx._checked_taps
        monkeypatch.setattr(
            tap_approx, "_checked_taps", lambda taps: calls.append(taps) or checked(taps)
        )
        back = read_tap_file(path)
        assert back.records == src.records
        assert len(calls) == len(back.tap_lists) == 3

    def test_round_trip(self, tmp_path):
        src = small_tap_file(offset_db=12.5)
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        back = read_tap_file(path)
        assert back.n_nodes == src.n_nodes
        assert back.grid_dt_s == src.grid_dt_s
        assert back.k == src.k
        assert back.duration_ms == src.duration_ms
        assert back.offset_db == src.offset_db
        assert back.records == src.records
        again = tmp_path / "again.csv"
        write_tap_file(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_too_many_taps_rejected(self, tmp_path):
        path = tmp_path / "taps.csv"
        header = (
            "# n_nodes=2\n# grid_dt_s=2e-08\n# k=4\n"
            "# duration_ms=1\n# offset_db=0.0\n"
        )
        row = "0,1,2," + ",".join(f"{i},1.0,0.0" for i in range(5))
        path.write_text(header + row + "\n")
        name = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{name}: line 6: 5 taps exceed K"):
            read_tap_file(path)

    def test_truncated_record_names_line(self, tmp_path):
        path = tmp_path / "taps.csv"
        header = (
            "# n_nodes=2\n# grid_dt_s=2e-08\n# k=4\n"
            "# duration_ms=1\n# offset_db=0.0\n"
        )
        path.write_text(header + "0,1,2,0,1.0\n")
        name = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{name}: line 6.*truncated"):
            read_tap_file(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "taps.csv"
        path.write_text("# n_nodes=2\n0,1,2\n")
        name = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{name}: malformed header"):
            read_tap_file(path)

    @pytest.mark.parametrize(
        "n_nodes, k, duration_ms, message",
        [(2, 0, 2, "k must be >= 1, got 0"), (2, 1, -3, "duration_ms must be >= 0, got -3"),
         (-2, 1, 2, "n_nodes must be >= 0, got -2")],
    )
    def test_constructor_rejects_bad_header_values(self, n_nodes, k, duration_ms, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TapFile(n_nodes, 1e-8, k, duration_ms)

    def test_empty_record_is_a_silent_millisecond(self, tmp_path):
        src = TapFile(2, 2e-8, 4, 2, 0.0, [((0, 1 + 0j),), ()], {(1, 2): [0, 1]})
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        back = read_tap_file(path)
        assert back.records[(1, 1, 2)].taps == ()

    def test_incomplete_coverage_rejected(self):
        tf = TapFile(2, 1e-8, 4, 2, 0.0, [((0, 1 + 0j),)], {(1, 2): [0, -1]})
        with pytest.raises(ValueError, match="missing record for pair \\(1, 2\\) at 1"):
            tf.validate()

    def test_too_many_taps_fail_validation(self):
        tf = TapFile(
            2, 1e-8, 1, 2, 0.0, [((0, 1j),), ((0, 1j), (3, 1j))], {(1, 2): [0, 1]}
        )
        with pytest.raises(ValueError, match="record \\(1,1,2\\) has 2 taps, max 1"):
            tf.validate()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,1,2,0,1.0,0.0", "1,1,2,0,1.0,0.0", "0,1,2,0,2.0,0.0"],
             "line 8: second record for \\(0,1,2\\), the first is on line 6"),
            (["0,1,2,0,1.0,0.0", "2,1,2,0,1.0,0.0"],
             "line 7: timestamp 2 ms outside the file's 0..1 ms"),
            (["-1,1,2,0,1.0,0.0"], "line 6: timestamp -1 ms outside"),
            (["0,1,2,0,1.0,0.0", "1,1,2,0,x,0.0"], "line 7: bad field"),
            (["0,1,2,3,1.0,0.0"], "missing record for pair \\(1, 2\\) at 1 ms"),
            (["0,7,7,0,1.0,0.0"], "line 6: tx and rx are both node 7, not a node pair"),
            (["0,9,7,0,1.0,0.0", "1,9,7,0,1.0,0.0", "0,7,9,0,1.0,0.0",
              "0,7,3,0,1.0,0.0"],
             "line 9: pair \\(7,3\\) brings the distinct node ids to 3, "
             "more than n_nodes=2"),
            # a header line repeated before the first row overrides the first
            (["# grid_dt_s=nan", "0,1,2,0,1.0,0.0", "1,1,2,0,1.0,0.0"],
             "grid_dt_s must be finite and > 0, got nan"),
            (["# grid_dt_s=inf", "0,1,2,0,1.0,0.0", "1,1,2,0,1.0,0.0"],
             "grid_dt_s must be finite and > 0, got inf"),
            (["# offset_db=nan", "0,1,2,0,1.0,0.0", "1,1,2,0,1.0,0.0"],
             "offset_db must be finite, got nan"),
            # the header is checked before any row is read
            (["# k=0", "0,1,2", "1,1,2"], "k must be >= 1, got 0"),
            (["# duration_ms=-3", "0,1,2,0,1.0,0.0"], "duration_ms must be >= 0, got -3"),
            (["# n_nodes=-2", "0,1,2,0,1.0,0.0", "1,1,2,0,1.0,0.0"],
             "n_nodes must be >= 0, got -2"),
        ],
    )
    def test_reader_errors_name_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "bad_taps.csv"
        path.write_text(TWO_MS_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_tap_file(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400", "infinity"])
    def test_non_finite_coefficient_names_file_and_line(self, tmp_path, cell):
        path = tmp_path / "taps.csv"
        rows = ["0,1,2,0,1.0,0.0", f"1,1,2,0,0.5,{cell}"]
        path.write_text(TWO_MS_HEADER + "\n".join(rows) + "\n")
        name = re.escape(str(path))
        with pytest.raises(
            ValueError, match=f"^{name}: line 7: tap coefficients must be finite, got "
        ):
            read_tap_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (TWO_MS_HEADER.encode() + b"0,1,2,0,1.0,0.0\n1,1,2,0,1.\xff,0.0\n",
             "line 7: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: "
             "invalid start byte"),
            (TWO_MS_HEADER.encode() + b"0,1,2,0,1.0,0.0\n\xe2\x82\n", "line 7: not UTF-8: "),
            (b"# n_nodes=2\xc3\n" + TWO_MS_HEADER.encode(), "line 1: not UTF-8: "),
            # the first offending line is named
            (TWO_MS_HEADER.encode() + b"0,1,2,0,1.0\n1,1,2,0,\xff,0.0\n",
             "line 6: truncated record"),
        ],
        ids=["in-a-row", "a-row-of-its-own", "in-the-header", "after-an-earlier-error"],
    )
    def test_a_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "taps.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_tap_file(path)

    def test_node_ids_are_not_bounded_by_the_node_count(self, tmp_path):
        # ids come from the scenario: two nodes may be 7 and 9
        path = tmp_path / "taps.csv"
        rows = ["0,9,7,0,1.0,0.0", "0,7,9,0,1.0,0.0",
                "1,9,7,0,1.0,0.0", "1,7,9,0,1.0,0.0"]
        path.write_text(TWO_MS_HEADER + "\n".join(rows) + "\n")
        assert sorted(read_tap_file(path).pairs()) == [(7, 9), (9, 7)]


class TestTapSetInvariants:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TapSet(((5, 1 + 0j), (5, 2 + 0j)), 1e-8, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            TapSet(((-1, 1 + 0j),), 1e-8, 0)

    @pytest.mark.parametrize(
        "coef", [complex("nan"), complex(0.5, math.inf), complex(-math.inf, 0.0)]
    )
    def test_non_finite_coefficient_rejected(self, coef):
        message = re.escape(f"tap coefficients must be finite, got {coef!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TapSet(((0, 1 + 0j), (3, coef)), 1e-8, 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TapFile(2, 1e-8, 2, 1, 0.0, [((0, 1 + 0j), (3, coef))], {(1, 2): [0]})


class TestTapRecordsView:
    def test_mapping_over_the_run_length_store(self):
        tf = TapFile(
            2, 1e-8, 2, 3, 0.0, [((0, 1j),), ((1, 2 + 0j),)],
            {(2, 1): [1, 1, 0], (1, 2): [0, -1, 0]},
        )
        assert len(tf.records) == 5
        assert list(tf.records) == [
            (0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1)
        ]
        assert tf.records[(1, 2, 1)] == TapSet(((1, 2 + 0j),), 1e-8, 1)
        assert (1, 1, 2) not in tf.records and (3, 2, 1) not in tf.records
        tf.records[(1, 1, 2)] = TapSet(((0, -1j),), 1e-8, 1)
        assert tf.records[(1, 1, 2)].taps == ((0, -1j),)
        assert tf.records[(0, 1, 2)].taps == ((0, 1j),)  # only one entry repointed
        tf.validate()
        del tf.records[(2, 2, 1)]
        with pytest.raises(ValueError, match="missing record for pair \\(2, 1\\) at 2"):
            tf.validate()
        with pytest.raises(KeyError):
            tf.records[(3, 1, 2)] = TapSet((), 1e-8, 3)

    def test_a_pair_without_records_is_refused(self):
        # (2, 1) has an index of -1 entries only, (1, 1) no index at all
        tf = TapFile(2, 1e-8, 2, 2, 0.0, [((0, 1j),)], {(1, 2): [0, 0], (2, 1): [-1, -1]})
        tf.require_pair((1, 2))
        for pair in ((2, 1), (1, 1)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'pair {pair}')} not present"):
                tf.require_pair(pair)
        with pytest.raises(ValueError, match=r"^t\.csv: pair \(2, 1\) not present"):
            tf.require_pair((2, 1), "t.csv: ")

    def test_lookups_by_time(self):
        tf = TapFile(2, 1e-8, 2, 2, 0.0, [((0, 1j),), ((1, 2 + 0j),)], {(1, 2): [1, 0]})
        assert tf.tap_lists[tf.tap_ids([0.0015], 1, 2)[0]] == ((0, 1j),)
        times = [0.0, 0.00099, 0.0009999999999, 0.001, 0.0019]  # 1e-9 ms of slack
        ids = tf.tap_ids(np.array(times), 1, 2).tolist()
        assert ids == [1, 1, 0, 0, 0]
        assert ids == [tf.tap_ids([t], 1, 2)[0] for t in times]
        assert [tf.tap_lists[i] for i in ids] == [
            tf.records[(ms, 1, 2)].taps for ms in (0, 0, 1, 1, 1)
        ]
        with pytest.raises(KeyError, match="outside tap file duration"):
            tf.tap_ids(np.array([0.0, 0.002]), 1, 2)
        with pytest.raises(KeyError, match="no tap record for pair \\(2,1\\) at 0 ms"):
            tf.tap_ids(np.array([0.0]), 2, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(-1, 2), st.integers(1, 60)), min_size=1, max_size=6),
        fs=st.integers(1, 5000),
        start=st.integers(0, 200),
        length=st.integers(0, 200),
        pair=st.sampled_from([(1, 2), (2, 1)]),
    )
    # 25 ms * 1.12 samples/ms rounds up past sample 28, the first of ms 25
    @example(runs=[(0, 25), (1, 5)], fs=1120, start=0, length=33, pair=(1, 2))
    # at 500 S/s, ms 1 holds no sample
    @example(runs=[(0, 1), (1, 1), (2, 1)], fs=500, start=0, length=2, pair=(1, 2))
    def test_sample_runs_equal_per_sample_lookups(self, runs, fs, start, length, pair):
        # runs of (tap list or -1, ms); -1 entries and samples past the file
        # must raise the error of the first such sample
        ids = [tid for tid, n_ms in runs for _ in range(n_ms)]
        tf = TapFile(2, 1e-8, 2, len(ids), 0.0, [(), ((0, 1j),), ((1, 2.0),)], {(1, 2): ids})
        stop = start + length
        try:
            expected = tf.tap_ids(np.arange(start, stop) / fs, *pair)
        except KeyError as exc:
            with pytest.raises(KeyError) as raised:
                tf.sample_runs(pair, float(fs), start, stop)
            assert str(raised.value) == str(exc)
            return
        edges, run_ids = tf.sample_runs(pair, float(fs), start, stop)
        assert edges[0] == start and edges[-1] == stop and (np.diff(edges) > 0).all()
        assert np.repeat(run_ids, np.diff(edges)).tolist() == expected.tolist()


COEFS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308, 0.1]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tap_files(draw):
    """Tap files whose records share tap lists across pairs and ms, with
    empty records, one-ms runs, signed zeros, subnormal and huge values."""
    k = draw(st.integers(1, 6))
    pool = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 300), st.builds(complex, COEFS, COEFS)
                ),
                max_size=k,
                unique_by=lambda t: t[0],
            ).map(sorted),
            min_size=1,
            max_size=5,
        )
    )
    duration_ms = draw(st.integers(1, 8))
    # node pairs: tx != rx, ids from the scenario (not bounded by n_nodes)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1, max_size=4, unique=True,
        )
    )
    n_nodes = len({i for p in pairs for i in p}) + draw(st.integers(0, 2))
    index = {
        pair: draw(
            st.lists(
                st.integers(0, len(pool) - 1),
                min_size=duration_ms, max_size=duration_ms,
            )
        )
        for pair in pairs
    }
    offset = draw(st.sampled_from([0.0, -0.0, 12.5, 1e-300]))
    grid = draw(st.sampled_from([1e-8, 2e-08, 1e-7 / 3]))
    return TapFile(n_nodes, grid, k, duration_ms, offset, pool, index)


class TestTapFileBytes:
    @settings(max_examples=150, deadline=None)
    @given(tf=tap_files())
    def test_writer_matches_per_record_writer_and_round_trips(
        self, tf, tmp_path_factory
    ):
        d = tmp_path_factory.mktemp("taps")
        write_tap_file(tf, d / "new.csv")
        write_tap_file_per_record(tf, d / "old.csv")
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
        back = read_tap_file(d / "new.csv")
        assert back.records == read_tap_file_per_record(d / "new.csv").records
        write_tap_file(back, d / "again.csv")
        assert (d / "again.csv").read_bytes() == (d / "new.csv").read_bytes()


MUTATIONS = (
    "drop_cell", "add_cell", "repeat_row", "timestamp", "tx_is_rx", "new_node",
    "coefficient", "blank", "spaces", "crlf",
)


def mutated(text: str, duration_ms: int, data) -> str:
    """``text`` (a written tap file) with one to three rows broken, repeated,
    padded or moved, or with blank lines or CRLF line ends added."""
    lines = text.splitlines()
    n_header = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    header, rows = lines[:n_header], lines[n_header:]
    end = "\n"
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(MUTATIONS))
        i = data.draw(st.integers(0, len(rows)))  # len(rows): after the last row
        if kind == "blank":
            rows.insert(i, data.draw(st.sampled_from(["", "  ", "\t", " \x0c ", "\x1c"])))
            continue
        if kind == "crlf":
            end = "\r\n"
            continue
        if i == len(rows):
            continue
        if kind == "repeat_row":
            rows.insert(data.draw(st.integers(i + 1, len(rows))), rows[i])
            continue
        if kind == "spaces":
            pad = st.sampled_from(["", " ", "\t", " \x0b"])
            rows[i] = data.draw(pad) + rows[i] + data.draw(pad)
            continue
        cells = rows[i].split(",")
        if len(cells) < 4 and kind in ("tx_is_rx", "new_node", "coefficient"):
            continue  # a blank or broken row
        if kind == "drop_cell":
            del cells[data.draw(st.integers(0, len(cells) - 1))]
        elif kind == "add_cell":
            cells.insert(data.draw(st.integers(0, len(cells))), data.draw(st.sampled_from(["0", "-1", "x"])))
        elif kind == "timestamp":
            cells[0] = data.draw(
                st.sampled_from(["-1", str(duration_ms), "x", "", " 0", "+0", "0_0", "00", "1e0"])
            )
        elif kind == "tx_is_rx":
            cells[2] = cells[1]
        elif kind == "new_node":
            cells[data.draw(st.sampled_from([1, 2]))] = "99"
        else:  # a coefficient, or a delay index
            cells[data.draw(st.integers(3, len(cells) - 1))] = data.draw(
                st.sampled_from(["x", "", "nan", "-inf", "1e400", "0x1", " 1.5 "])
            )
        rows[i] = ",".join(cells)
    return "".join(line + end for line in header + rows)


def read_outcome(read, path):
    """What a reader makes of a file: its records, or its error."""
    try:
        tf = read(path)
    except ValueError as exc:
        return str(exc)
    return (
        tf.n_nodes, tf.grid_dt_s, tf.k, tf.duration_ms, tf.offset_db,
        repr(tf.tap_lists), [(pair, ids.tolist()) for pair, ids in tf.index.items()],
    )


class TestReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        tf=tap_files(),
        data=st.data(),
        block_bytes=st.sampled_from([1, 2, 7, 64, 1 << 16]),
    )
    def test_reader_equals_the_per_line_reader(self, tf, data, block_bytes, tmp_path_factory):
        # rows straddle the edges of blocks a few bytes long, so every
        # block-wise check meets state from earlier blocks
        path = tmp_path_factory.mktemp("taps") / "taps.csv"
        write_tap_file(tf, path)
        path.write_bytes(mutated(path.read_text(), tf.duration_ms, data).encode())
        want = read_outcome(read_tap_file_per_line, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tap_approx, "_BLOCK_BYTES", block_bytes)
            assert read_outcome(read_tap_file, path) == want

    @pytest.mark.parametrize(
        "text",
        [
            # the first offending line of the file is named, whatever the checks
            "0,1,2,0,1.0,0.0\n0,1,2,0,x,0.0\n5,1,2,0,1.0,0.0\n",
            "0,1,2,0,1.0,0.0\n1,1,2,0,1.0\n0,1,2,0,1.0,0.0\n",
            "0,1,2,0,1.0,0.0\n1,2,2,0,1.0,0.0\nx,1,2,0,1.0,0.0\n",
            "0,1,2,0,1.0,0.0\n7,1,2,0,1.0,0.0\n-1,1,2,0,1.0,0.0\n",
            # the node count of a pair that breaks n_nodes counts no later pair
            "# n_nodes=3\n0,1,2,0,1.0,0.0\n0,4,5,0,1.0,0.0\n0,1,3,0,1.0,0.0\n",
            " 0,1,2,0,1.0,0.0 \r\n\r\n 1,1,2,0,1.0,0.0\r\n 1,1,2,0,1.0,0.0\r\n",
            # a lone CR ends a line, as in text mode
            "0,1,2,0,1.0,0.0\r1,1,2,0,1.0,0.0\r",
            "0,1,2,0,1.0,0.0\n99999999999999999999,1,2,0,1.0,0.0\n",
            "0,1,2,0,1.0,0.0\n1,1,2,0,1.0,0.0",
        ],
    )
    def test_examples_equal_the_per_line_reader(self, tmp_path, text):
        path = tmp_path / "taps.csv"
        path.write_bytes((TWO_MS_HEADER + text).encode())
        want = read_outcome(read_tap_file_per_line, path)
        for block_bytes in (1, 5, 1 << 16):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tap_approx, "_BLOCK_BYTES", block_bytes)
                assert read_outcome(read_tap_file, path) == want


@st.composite
def repeating_tap_files(draw):
    """Tap files whose milliseconds repeat in runs: all pairs share the
    change points, and at each one every pair draws its tap list again."""
    k = draw(st.integers(1, 4))
    pool = draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 300), st.builds(complex, COEFS, COEFS)),
                max_size=k,
                unique_by=lambda t: t[0],
            ).map(sorted),
            min_size=1,
            max_size=4,
        )
    )
    duration_ms = draw(st.integers(1, 40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1, max_size=4, unique=True,
        )
    )
    changes = draw(st.sets(st.integers(1, max(duration_ms - 1, 1)), max_size=4))
    edges = sorted({0, duration_ms} | (changes - {duration_ms}))
    lists = st.integers(0, len(pool) - 1)
    index = {
        pair: [i for a, b in zip(edges, edges[1:]) for i in [draw(lists)] * (b - a)]
        for pair in pairs
    }
    n_nodes = len({i for p in pairs for i in p}) + draw(st.integers(0, 2))
    return TapFile(n_nodes, 1e-8, k, duration_ms, 0.0, pool, index)


RUN_MUTATIONS = ("none", "repeat_ms", "drop_ms", "swap_rows", "zero_pad", "change_byte", "crlf")


def mutated_runs(text: str, data) -> str:
    """``text`` (a written tap file) with one or two milliseconds repeated
    later, dropped, or with two of their rows swapped, a timestamp written
    with a leading zero, one byte of a row changed, or CRLF line ends."""
    lines = text.splitlines()
    n_header = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    ms_rows = [
        list(rows)
        for _, rows in itertools.groupby(lines[n_header:], lambda row: row.split(",")[0])
    ]
    end = "\n"
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(RUN_MUTATIONS))
        if kind == "crlf":
            end = "\r\n"
        if kind in ("none", "crlf") or not ms_rows:
            continue
        i = data.draw(st.integers(0, len(ms_rows) - 1))
        rows = ms_rows[i]
        j = data.draw(st.integers(0, len(rows) - 1))
        if kind == "repeat_ms":
            ms_rows.insert(data.draw(st.integers(i + 1, len(ms_rows))), list(rows))
        elif kind == "drop_ms":
            del ms_rows[i]
        elif kind == "swap_rows":
            h = data.draw(st.integers(0, len(rows) - 1))
            rows[h], rows[j] = rows[j], rows[h]
        elif kind == "zero_pad":
            rows[j] = "0" + rows[j]
        else:  # one byte of the row after its timestamp
            at = data.draw(st.integers(rows[j].index(","), len(rows[j]) - 1))
            byte = data.draw(st.sampled_from(["0", "1", "9", ".", "-", "e", ",", "x", " "]))
            rows[j] = rows[j][:at] + byte + rows[j][at + 1 :]
    rows = [row for ms in ms_rows for row in ms]
    return "".join(line + end for line in lines[:n_header] + rows)


class TestRepeatedMilliseconds:
    @settings(max_examples=400, deadline=None)
    @given(
        tf=repeating_tap_files(),
        data=st.data(),
        block_bytes=st.sampled_from([1, 2, 7, 64, 300, 1 << 16]),
    )
    def test_reader_equals_the_per_line_reader(self, tf, data, block_bytes, tmp_path_factory):
        # runs of repeated milliseconds straddle the edges of blocks, and
        # the mutations break a run where it would be read by comparison
        path = tmp_path_factory.mktemp("taps") / "taps.csv"
        write_tap_file(tf, path)
        path.write_bytes(mutated_runs(path.read_text(), data).encode())
        want = read_outcome(read_tap_file_per_line, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tap_approx, "_BLOCK_BYTES", block_bytes)
            assert read_outcome(read_tap_file, path) == want

    @staticmethod
    def _row_path_calls(monkeypatch) -> list:
        """The lines of each call of the row path, as a list per call."""
        calls = []
        row_path = tap_approx._RowReader._ms
        monkeypatch.setattr(
            tap_approx._RowReader,
            "_ms",
            lambda self, block: calls.append(bytes(block).splitlines()) or row_path(self, block),
        )
        return calls

    @pytest.mark.parametrize("block_bytes", [7, 300, 1 << 16])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_only_the_changed_milliseconds_reach_the_row_path(
        self, tmp_path, monkeypatch, block_bytes, end
    ):
        pairs = [(tx, rx) for tx in range(1, 5) for rx in range(1, 5) if tx != rx]
        changes = [0, 17, 50, 53, 123, 190]  # pair (2, 3) changes at each
        lists = [((0, 1 + 0j),), ((2, 0.5j), (5, -0.25 + 0j)), ()]
        index = {pair: [0] * 200 for pair in pairs}
        for n, ms in enumerate(changes):
            index[(2, 3)][ms:] = [n % 3] * (200 - ms)
        src = TapFile(4, 1e-8, 2, 200, 0.0, lists, index)
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        calls = self._row_path_calls(monkeypatch)
        monkeypatch.setattr(tap_approx, "_BLOCK_BYTES", block_bytes)
        back = read_tap_file(path)
        assert back.records == src.records
        seen = [row for call in calls for row in call]
        assert sorted({int(row.split(b",")[0]) for row in seen}) == changes
        assert len(seen) == len(changes) * len(pairs)

    @pytest.mark.parametrize("block_bytes", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("duration_ms", [1, 9])
    def test_each_changed_millisecond_reaches_the_row_path_in_one_call(
        self, tmp_path, monkeypatch, block_bytes, duration_ms
    ):
        # the rows of each millisecond are longer than those before, so no
        # comparison reads ahead past them; a file of one millisecond ends
        # less than 64 bytes after the first refill
        lists = [((0, complex(0.5**ms, 0)),) for ms in range(duration_ms)]
        pairs = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        src = TapFile(3, 1e-8, 1, duration_ms, 0.0, lists,
                      {pair: list(range(duration_ms)) for pair in pairs})
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        calls = self._row_path_calls(monkeypatch)
        monkeypatch.setattr(tap_approx, "_BLOCK_BYTES", block_bytes)
        assert read_tap_file(path).records == src.records
        assert [[int(row.split(b",")[0]) for row in call] for call in calls] == [
            [ms] * len(pairs) for ms in range(duration_ms)
        ]

    @pytest.mark.parametrize(
        "n_nodes,block_bytes",
        [(3, block_bytes) for block_bytes in range(40, 700, 37)]
        + [(n_nodes, 1 << 16) for n_nodes in (10, 15, 21)],
    )
    def test_only_the_changed_milliseconds_reach_the_row_path_at_any_size(
        self, tmp_path, monkeypatch, n_nodes, block_bytes
    ):
        # refills from less than a row to more than a millisecond; with 90,
        # 210 and 420 pairs a millisecond's rows fill from a quarter of a
        # 64 KiB refill to more than one
        pairs = [(tx, rx) for tx in range(1, n_nodes + 1)
                 for rx in range(1, n_nodes + 1) if tx != rx]
        lists = [
            tuple((4 * i + t, complex(0.123456789012345 * (t + 1), -0.98765432101234 / (i + 2)))
                  for t in range(4))
            for i in range(3)
        ]
        index = {pair: [2] * 200 for pair in pairs}
        index[pairs[0]] = [n % 2 for n in range(12)] + [1] * 188  # ms 0 to 11 change
        src = TapFile(n_nodes, 1e-8, 4, 200, 0.0, lists, index)
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        calls = self._row_path_calls(monkeypatch)
        monkeypatch.setattr(tap_approx, "_BLOCK_BYTES", block_bytes)
        assert read_outcome(read_tap_file, path) == read_outcome(read_tap_file_per_line, path)
        assert sum(map(len, calls)) == 12 * len(pairs)
