"""Tests for tap clustering, grid snapping, and tap file I/O."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chansounder.channel_model import ChannelSnapshot, RayPath, path_coefficient
from chansounder.tap_approx import (
    TapFile,
    TapSet,
    approximate_taps,
    read_tap_file,
    write_tap_file,
)
from chansounder.tap_approx import _run_sums, _weighted_kmeans_1d
from oracles import (
    kmeans_per_centroid,
    read_tap_file_per_record,
    write_tap_file_per_record,
)

P_TX = 20.0


def snapshot_from(paths):
    return ChannelSnapshot(1, 2, 1, 0.0, tuple(paths))


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
        got = _weighted_kmeans_1d(delays, weights, k, tol)
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

    def test_a_centroid_left_without_members_is_dropped(self):
        delays, weights = EMPTY_CLUSTER
        # seeds 0 and 5e-324; the second centroid moves to 1e-323, where
        # 5e-324 ties between the two and goes to the first, leaving it empty
        assert len(np.unique(delays[np.lexsort((delays, -weights))[:4]])) == 2
        clusters = _weighted_kmeans_1d(delays, weights, 4, 1e-10)
        assert [c.tolist() for c in clusters] == [[0, 1, 2, 3, 4]]


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
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=grid)
        assert ts.delay_indices == [0, 5, 9]
        expected = [
            path_coefficient(p.received_power_dbm, P_TX, p.phase_rad)
            for p in snap.paths
        ]
        assert np.allclose(ts.coefficients, expected, rtol=1e-12)

    def test_four_tap_synthetic_channel_grid_indices(self):
        delays_us = [0.0, 1.28, 2.0, 4.0]
        losses = [3.0, 20.0, 15.0, 8.0]
        snap = snapshot_from(
            RayPath(P_TX - loss, 0.0, d * 1e-6)
            for d, loss in zip(delays_us, losses)
        )
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=20e-9)
        assert ts.delay_indices == [0, 64, 100, 200]

    def test_dense_paths_collapse_to_one_coherent_tap(self):
        rng = np.random.default_rng(7)
        delays = rng.uniform(0, 50e-9, 10)
        phases = rng.uniform(0, 2 * math.pi, 10)
        snap = snapshot_from(
            RayPath(P_TX - 10, ph, d) for d, ph in zip(delays, phases)
        )
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=1e-6)
        assert ts.delay_indices == [0]
        assert ts.coefficients[0] == pytest.approx(coherent_path_sum(snap))

    def test_empty_snapshot_is_a_silent_instant(self):
        ts = approximate_taps(snapshot_from([]), P_TX, k=4, grid_dt_s=1e-8)
        assert ts.taps == ()

    @settings(max_examples=60, deadline=None)
    @given(snap=random_snapshots())
    def test_tap_count_bounded_and_indices_increasing(self, snap):
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=1e-8)
        assert len(ts.taps) <= 4
        idx = ts.delay_indices
        assert all(b > a for a, b in zip(idx, idx[1:]))

    @settings(max_examples=60, deadline=None)
    @given(snap=random_snapshots())
    def test_coherent_sum_preserved_within_1db(self, snap):
        # Before dynamic-range dropping the clustered taps partition the
        # paths, so their coherent sum matches the brute-force path sum.
        ts = approximate_taps(
            snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf
        )
        truth = coherent_path_sum(snap)
        got = ts.coherent_sum()
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
        ts = approximate_taps(
            snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf
        )
        assert ts.delay_indices == [0]
        assert ts.coefficients[0] == pytest.approx(coherent_path_sum(snap))

    @pytest.mark.parametrize("shift_db", [0.0, 0.5])
    def test_one_path_cluster_snaps_its_own_delay(self, shift_db):
        # a path half a grid step out lands on index 0 (round half to even)
        # and merges with the path at 0; the power-weighted mean w * d / w
        # used to miss 5e-9 s by an ulp, so the index followed the power
        snap = snapshot_from(
            RayPath(P_TX - loss + shift_db, 0.0, d)
            for loss, d in ((0.5, 0.0), (19.5, 5e-9))
        )
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf)
        assert ts.delay_indices == [0]

    @settings(max_examples=40, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=1e-6),
        loss=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_snapping_moves_delay_at_most_half_grid(self, delay, loss):
        grid = 1e-8
        snap = snapshot_from([RayPath(P_TX - loss, 0.0, delay)])
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=grid)
        assert abs(ts.delay_indices[0] * grid - delay) <= grid / 2 + 1e-15

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
        a = approximate_taps(snap, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf)
        b = approximate_taps(
            shifted, P_TX, k=4, grid_dt_s=1e-8, dyn_range_db=math.inf
        )
        assert a.delay_indices == b.delay_indices
        scale = 10 ** (shift / 20)
        assert np.allclose(
            np.array(b.coefficients),
            np.array(a.coefficients) * scale,
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
        first = approximate_taps(snap, P_TX, k=4, grid_dt_s=grid)
        as_paths = snapshot_from(
            RayPath(
                P_TX + 20 * math.log10(abs(c)),
                cmath.phase(c) % (2 * math.pi),
                idx * grid,
            )
            for idx, c in first.taps
        )
        second = approximate_taps(as_paths, P_TX, k=4, grid_dt_s=grid)
        assert second.delay_indices == first.delay_indices
        assert np.allclose(second.coefficients, first.coefficients, rtol=1e-9)

    def test_dynamic_range_dropping(self):
        grid = 1e-8
        snap = snapshot_from(
            [
                RayPath(P_TX - 3, 0.0, 0.0),
                RayPath(P_TX - 60, 0.0, 5 * grid),  # 57 dB below the strongest
            ]
        )
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=grid, dyn_range_db=43.0)
        assert ts.delay_indices == [0]

    def test_timestamp_defaults_to_snapshot_time(self):
        snap = ChannelSnapshot(1, 2, 5, 1.788, (RayPath(0.0, 0.0, 0.0),))
        ts = approximate_taps(snap, P_TX, k=4, grid_dt_s=1e-8)
        assert ts.timestamp_ms == 1788


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

    def test_empty_record_is_a_silent_millisecond(self, tmp_path):
        src = TapFile(2, 2e-8, 4, 2, 0.0, [((0, 1 + 0j),), ()], {(1, 2): [0, 1]})
        path = tmp_path / "taps.csv"
        write_tap_file(src, path)
        back = read_tap_file(path)
        assert back.tapset(1, 1, 2).taps == ()

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
        ],
    )
    def test_reader_errors_name_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "bad_taps.csv"
        path.write_text(TWO_MS_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_tap_file(path)
        assert str(info.value).startswith(f"{path}: ")

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
        assert tf.tapset(1, 1, 2).taps == ((0, -1j),)
        assert tf.tapset(0, 1, 2).taps == ((0, 1j),)  # only one entry repointed
        tf.validate()
        del tf.records[(2, 2, 1)]
        with pytest.raises(ValueError, match="missing record for pair \\(2, 1\\) at 2"):
            tf.validate()
        with pytest.raises(KeyError):
            tf.records[(3, 1, 2)] = TapSet((), 1e-8, 3)

    def test_lookups_by_time(self):
        tf = TapFile(2, 1e-8, 2, 2, 0.0, [((0, 1j),), ((1, 2 + 0j),)], {(1, 2): [1, 0]})
        assert tf.active_tapset(0.0015, 1, 2).taps == ((0, 1j),)
        times = [0.0, 0.00099, 0.0009999999999, 0.001, 0.0019]  # 1e-9 ms of slack
        ids = tf.tap_ids(np.array(times), 1, 2).tolist()
        assert ids == [1, 1, 0, 0, 0]
        assert [tf.tap_lists[i] for i in ids] == [
            tf.active_tapset(t, 1, 2).taps for t in times
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
