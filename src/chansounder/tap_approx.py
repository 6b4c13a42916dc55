"""Reduce dense multipath snapshots to a few grid-aligned FIR taps.

Channel emulators accept only a small number of filter taps (4 here by
default) on a fixed delay grid, while a ray source may report dozens of
paths at arbitrary delays. Paths are clustered along the delay axis with a
power-weighted 1-D k-means, each cluster is merged coherently (complex sum,
so the link path loss of the snapshot is preserved), and cluster delays are
snapped to the nearest grid index. Tap files carry one record per node pair
per millisecond; in memory a :class:`TapFile` holds its tap lists once each
(when built, one per (snapshot, transmit power) of a channel matrix, which
holds each distinct snapshot once; when read, one per distinct row body)
and one index array per pair that points every millisecond at one. A tap
list is a tuple of (delay index, coefficient); ``TapFile.records`` of
:class:`TapSet` is the one per-record view.
"""

from __future__ import annotations

import math
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import helper
from .channel_model import PathTable, checked_phase

__all__ = [
    "TapSet",
    "TapFile",
    "approximate_taps",
    "write_tap_file",
    "read_tap_file",
    "build_tap_file_from_matrix",
]

DEFAULT_MAX_TAPS = 4
DEFAULT_DYN_RANGE_DB = 43.0

_KMEANS_MAX_ITER = 50


def _ms_of(times_s):
    """The millisecond whose record drives each time: the records are held
    (zero-order hold) from their millisecond until the next, and a time
    within 1e-9 ms below an edge counts as on it."""
    return np.floor(np.asarray(times_s, dtype=float) * 1000.0 + 1e-9)


def _checked_taps(taps) -> tuple[tuple[int, complex], ...]:
    """A tap list as (int, complex) pairs; delay indices must be >= 0 and
    rise, and coefficients must be finite."""
    taps = tuple((int(i), complex(c)) for i, c in taps)
    indices = [i for i, _ in taps]
    if any(i < 0 for i in indices):
        raise ValueError("delay indices must be >= 0")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("delay indices must be strictly increasing")
    for _, c in taps:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"tap coefficients must be finite, got {c!r}")
    return taps


@dataclass(frozen=True)
class TapSet:
    """Grid-aligned complex FIR taps for one pair at one millisecond."""

    taps: tuple[tuple[int, complex], ...]
    grid_dt_s: float
    timestamp_ms: int = 0

    def __post_init__(self):
        taps = _checked_taps(self.taps)
        if not (math.isfinite(self.grid_dt_s) and self.grid_dt_s > 0):
            raise ValueError(f"grid_dt_s must be finite and > 0, got {self.grid_dt_s}")
        object.__setattr__(self, "taps", taps)

    @classmethod
    def _of_checked(cls, taps, grid_dt_s: float, timestamp_ms: int) -> "TapSet":
        """A record of a TapFile, whose tap lists and grid are checked already."""
        ts = object.__new__(cls)
        object.__setattr__(ts, "taps", taps)
        object.__setattr__(ts, "grid_dt_s", grid_dt_s)
        object.__setattr__(ts, "timestamp_ms", timestamp_ms)
        return ts


@dataclass(eq=False)
class TapFile:
    """Per-millisecond tap records for every node pair, stored run-length.

    ``tap_lists`` holds the tap lists, as checked (delay_idx, coef) tuples:
    the build makes one per distinct (snapshot content, transmit power) and
    the reader one per distinct row body, so records with equal content
    share one. ``index[(tx, rx)]`` is an int32 array of length ``duration_ms``
    whose entry at ``ms`` is the position in ``tap_lists`` of that pair's
    record, or -1 where the pair has no record. ``records`` shows the same
    data as a mapping (ms, tx, rx) -> TapSet.
    """

    n_nodes: int
    grid_dt_s: float
    k: int
    duration_ms: int
    offset_db: float = 0.0
    tap_lists: list = field(default_factory=list)
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_grid_and_k(self.grid_dt_s, self.k)
        for name in ("duration_ms", "n_nodes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not math.isfinite(self.offset_db):
            raise ValueError(f"offset_db must be finite, got {self.offset_db}")
        self.tap_lists = [_checked_taps(taps) for taps in self.tap_lists]
        index = {}
        for (tx, rx), ids in self.index.items():
            ids = np.asarray(ids)
            if ids.shape != (self.duration_ms,):
                raise ValueError(
                    f"index of pair ({tx},{rx}) has shape {ids.shape}, "
                    f"not ({self.duration_ms},)"
                )
            if ids.size and (
                ids.dtype.kind not in "iu"
                or ids.min() < -1
                or ids.max() >= len(self.tap_lists)
            ):
                raise ValueError(
                    f"index of pair ({tx},{rx}) must hold integers from -1 to "
                    f"{len(self.tap_lists) - 1}"
                )
            index[(int(tx), int(rx))] = ids.astype(np.int32)
        self.index = index

    @classmethod
    def _of_checked(cls, **fields) -> "TapFile":
        """A tap file whose fields are checked already: header values, tap
        lists as :func:`_checked_taps` returns them, int32 index arrays."""
        tap_file = object.__new__(cls)
        vars(tap_file).update(fields)
        return tap_file

    @property
    def records(self) -> "TapRecords":
        return TapRecords(self)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p, ids in self.index.items() if (ids >= 0).any())

    def require_pair(self, pair: tuple[int, int], where: str = "") -> None:
        """Raise a ValueError, its message led by ``where``, unless ``pair`` has records."""
        if pair not in self.pairs():
            raise ValueError(f"{where}pair {pair} not present in tap file")

    def used_tap_lists(self, pair: Optional[tuple[int, int]] = None) -> list:
        """The tap lists that records point at (of one pair, or of all), once each."""
        arrays = [self.index[pair]] if pair is not None else self.index.values()
        used = set().union(*(ids.tolist() for ids in arrays)) - {-1}
        return [self.tap_lists[i] for i in sorted(used)]

    def tap_ids(self, times_s: np.ndarray, tx: int, rx: int) -> np.ndarray:
        """Position in ``tap_lists`` of the record active at each time.

        A record holds from its millisecond until the next; the first time
        without a record raises a KeyError naming it.
        """
        times_s = np.asarray(times_s, dtype=float)
        ms = _ms_of(times_s)
        inside = (ms >= 0) & (ms < self.duration_ms)
        ids = np.full(len(times_s), -1, dtype=np.int32)
        pair_ids = self.index.get((tx, rx))
        if pair_ids is not None:
            ids[inside] = pair_ids[ms[inside].astype(np.intp)]
        bad = np.flatnonzero(ids < 0)
        if bad.size:
            i = bad[0]
            if not inside[i]:
                raise KeyError(f"time {float(times_s[i])} s outside tap file duration")
            raise KeyError(f"no tap record for pair ({tx},{rx}) at {int(ms[i])} ms")
        return ids

    def sample_runs(
        self, pair: tuple[int, int], fs: float, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Runs of one tap list over samples ``start <= n < stop`` at ``fs``.

        Sample n is at time n / fs and takes its record as in :meth:`tap_ids`.
        Returns ``edges``, rising from ``start`` to ``stop``, and ``ids``, one
        fewer: samples ``edges[i]`` to ``edges[i + 1] - 1`` take tap list
        ``ids[i]``. The work grows with the milliseconds spanned, not with the
        samples; a sample without a record raises as :meth:`tap_ids` does.
        """
        if stop <= start:
            return np.array([start]), np.empty(0, dtype=np.int32)
        first, last = (int(_ms_of(n / fs)) for n in (start, stop - 1))
        pair_ids = self.index.get(pair)
        changes = np.empty(0, dtype=np.int64)
        if pair_ids is not None:
            # past the file reads as no record; tap_ids tells the two apart
            ids = np.append(pair_ids[first : last + 1], -1)[: last - first + 1]
            changes = first + 1 + np.flatnonzero(ids[1:] != ids[:-1])
        # step each estimate to the first sample of its millisecond by the rule
        n = np.ceil(changes * (fs / 1000.0)).astype(np.int64)
        while (
            fix := (_ms_of(n / fs) < changes) * 1 - (_ms_of((n - 1) / fs) >= changes)
        ).any():
            n += fix
        edges = np.r_[start, n, stop]
        # below 1 kS/s a millisecond may hold no sample: drop its empty run
        edges = edges[np.r_[edges[1:] > edges[:-1], True]]
        return edges, self.tap_ids(edges[:-1] / fs, *pair)

    def validate(self) -> None:
        """Check completeness (every pair, every millisecond) and tap bounds.

        The first offending record in (pair, ms) order is named; a pair
        without any record is not missing any.
        """
        pairs = sorted(self.index)
        if not pairs:
            return
        ids = np.stack([self.index[p] for p in pairs])
        # a trailing False is the verdict on the -1 entries (no record)
        over = np.array([len(t) > self.k for t in self.tap_lists] + [False])[ids]
        if over.any():
            row, ms = np.unravel_index(over.argmax(), over.shape)
            tx, rx = pairs[row]
            n_taps = len(self.tap_lists[ids[row, ms]])
            raise ValueError(f"record ({ms},{tx},{rx}) has {n_taps} taps, max {self.k}")
        missing = (ids < 0) & (ids >= 0).any(axis=1, keepdims=True)
        if missing.any():
            row, ms = np.unravel_index(missing.argmax(), missing.shape)
            raise ValueError(f"missing record for pair {pairs[row]} at {ms} ms")


class TapRecords(MutableMapping):
    """A TapFile's records as a mapping (ms, tx, rx) -> TapSet, in key order.

    Each TapSet is built on access. Setting a record appends its tap list
    to the file and points one index entry at it; deleting one sets the
    entry to -1.
    """

    def __init__(self, tap_file: TapFile):
        self._file = tap_file

    def __getitem__(self, key) -> TapSet:
        ms, tx, rx = key
        ids = self._file.index.get((tx, rx))
        if ids is None or not 0 <= ms < len(ids) or ids[ms] < 0:
            raise KeyError(key)
        return TapSet._of_checked(
            self._file.tap_lists[ids[ms]], self._file.grid_dt_s, int(ms)
        )

    def __setitem__(self, key, ts: TapSet) -> None:
        ms, tx, rx = key
        f = self._file
        if not 0 <= ms < f.duration_ms:
            raise KeyError(f"record at {ms} ms outside 0..{f.duration_ms - 1} ms")
        if ts.grid_dt_s != f.grid_dt_s:
            raise ValueError(
                f"record grid {ts.grid_dt_s} s differs from the file's {f.grid_dt_s} s"
            )
        ids = f.index.get((tx, rx))
        if ids is None:
            ids = f.index[(tx, rx)] = np.full(f.duration_ms, -1, dtype=np.int32)
        f.tap_lists.append(ts.taps)
        ids[ms] = len(f.tap_lists) - 1

    def __delitem__(self, key) -> None:
        if key not in self:
            raise KeyError(key)
        ms, tx, rx = key
        self._file.index[(tx, rx)][ms] = -1

    def __iter__(self):
        pairs = sorted(self._file.index)
        if not pairs:
            return iter(())
        ids = np.stack([self._file.index[p] for p in pairs], axis=1)
        ms, col = np.nonzero(ids >= 0)
        return ((m, *pairs[c]) for m, c in zip(ms.tolist(), col.tolist()))

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(ids >= 0)) for ids in self._file.index.values())


def _run_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.sum`` of each run ``values[..., starts[i]:starts[i + 1]]``, bit for bit.

    ``np.sum`` adds a run's pairwise sum to 0.0, while ``np.add.reduceat``
    starts from the run's first element and adds the others' pairwise sum,
    which rounds differently from three elements on; a 0.0 put in front of
    each run makes the two the same. Works for float and complex values.
    """
    n = values.shape[-1]
    shift = np.zeros(n, dtype=np.intp)
    shift[starts] = 1
    padded = np.zeros(values.shape[:-1] + (n + len(starts),), dtype=values.dtype)
    padded[..., np.arange(n) + shift.cumsum()] = values
    return np.add.reduceat(padded, starts + np.arange(len(starts)), axis=-1)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique`` of each row, ascending, padded with +inf on the right."""
    rows = np.sort(rows, axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.inf
    return np.sort(rows, axis=1)


def _nearest(delays: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each delay's nearest centroid in its row of ``centroids`` (the first
    of a tie; the +inf padding never wins)."""
    return np.abs(delays[:, None] - centroids).argmin(axis=1)


def _kmeans_labels(
    delays: np.ndarray, weights: np.ndarray, seg: np.ndarray, k: int, tol: float
) -> np.ndarray:
    """Weighted 1-D k-means of every segment at once; the cluster of each delay.

    ``seg`` numbers the segments 0, 1, ... and does not fall. Each segment
    runs the per-snapshot k-means: seeded with the delays of its k
    strongest paths (ties broken on delay, so the seeding is invariant
    under uniform power scaling), made unique; each delay joins its nearest
    centroid; the new centroids are the unique power-weighted means of the
    nonempty clusters; a segment stops when its centroid count holds and
    no centroid moves by ``tol`` or more, or after ``_KMEANS_MAX_ITER``
    rounds. The label of a delay is its final centroid's rank; a centroid
    that no delay is nearest to (e.g. with subnormal delays) gets no label.
    """
    n_seg = int(seg[-1]) + 1 if seg.size else 0
    first = np.searchsorted(seg, np.arange(n_seg))
    order = np.lexsort((delays, -weights, seg))
    rank = np.arange(len(seg)) - first[seg]
    seeds = rank < k
    centroids = np.full((n_seg, k), np.inf)
    centroids[seg[seeds], rank[seeds]] = delays[order[seeds]]
    centroids = _unique_rows(centroids)
    terms = np.stack([weights * delays, weights])
    active = np.ones(n_seg, dtype=bool)  # segments still iterating
    for _ in range(_KMEANS_MAX_ITER):
        if not active.any():
            break
        members = np.flatnonzero(active[seg])
        s = (np.cumsum(active) - 1)[seg[members]]  # rank among the active
        label = _nearest(delays[members], centroids[active][s])
        order = np.lexsort((label, s))
        starts = _run_starts(s[order] * k + label[order])
        weighted, total = _run_sums(terms[:, members[order]], starts)
        run_seg = s[order[starts]]
        run_rank = np.arange(len(starts)) - np.searchsorted(run_seg, run_seg)
        new = np.full((active.sum(), k), np.inf)
        new[run_seg, run_rank] = weighted / total
        new = _unique_rows(new)
        old = centroids[active]
        finite = np.isfinite(old)
        same = (finite == np.isfinite(new)).all(axis=1)
        moved = np.abs(np.subtract(new, old, out=np.zeros_like(new), where=finite))
        converged = same & (moved.max(axis=1) < tol)
        centroids[active] = new
        active[np.flatnonzero(active)[converged]] = False
    return _nearest(delays, centroids[seg])


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values of ``key`` (>= 0) begins."""
    return np.flatnonzero(np.diff(key, prepend=-1))


def _segment_taps(
    delays: np.ndarray,
    coeffs: np.ndarray,
    counts: np.ndarray,
    k: int,
    grid_dt_s: float,
    dyn_range_db: float,
    offset_db: float,
) -> list[tuple]:
    """The tap list of each segment of consecutive paths, ``counts[i]`` long.

    A segment of at most k paths keeps each path as a cluster, in path
    order; a longer one is clustered by :func:`_kmeans_labels` (with
    ``tol`` a hundredth of the grid), its clusters in centroid order. A
    cluster's delay is its path's delay or the power-weighted mean of its
    members', and its coefficient the sum of theirs; it lands on the
    nearest grid index, and clusters on the same index merge in cluster
    order. Then the dB offset is applied and taps more than
    ``dyn_range_db`` below the segment's strongest are dropped.
    """
    counts = np.asarray(counts, dtype=np.intp)
    seg = np.repeat(np.arange(len(counts)), counts)
    # normalized to each segment's strongest path so the clustering
    # arithmetic does not depend on the absolute power scale
    weights = np.abs(coeffs) ** 2
    starts = np.cumsum(counts) - counts
    strongest = np.zeros(len(counts))
    nonempty = counts > 0
    strongest[nonempty] = np.maximum.reduceat(weights, starts[nonempty])
    weights = weights / strongest[seg]

    label = np.arange(len(seg)) - starts[seg]  # each path its own cluster
    big = counts[seg] > k
    if big.any():
        label[big] = _kmeans_labels(
            delays[big], weights[big], np.cumsum(counts > k)[seg[big]] - 1, k,
            tol=grid_dt_s / 100.0,
        )
    order = np.lexsort((label, seg))
    runs = _run_starts(seg[order] * k + label[order])
    size = np.diff(runs, append=len(order))
    weighted, total = _run_sums(np.stack([weights * delays, weights])[:, order], runs)
    # a one-path cluster keeps its delay: w * d / w can miss d by an ulp
    centroid = delays[order[runs]]
    np.divide(weighted, total, out=centroid, where=size > 1)
    position = (centroid / grid_dt_s).tolist()
    cluster_sum = _run_sums(coeffs[order], runs).tolist()
    run_bounds = np.searchsorted(seg[order[runs]], np.arange(len(counts) + 1)).tolist()

    scale = 10.0 ** (offset_db / 20.0)
    cut = 10.0 ** (-dyn_range_db / 20.0)
    out = []
    for a, b in zip(run_bounds, run_bounds[1:]):
        by_index: dict[int, complex] = {}
        for x, c in zip(position[a:b], cluster_sum[a:b]):
            idx = round(x)
            by_index[idx] = by_index.get(idx, 0j) + c
        taps = [(idx, c * scale) for idx, c in sorted(by_index.items())]
        if taps:
            floor = max(abs(c) for _, c in taps) * cut
            taps = [(idx, c) for idx, c in taps if abs(c) >= floor]
        out.append(tuple(taps))
    return out


def approximate_taps(
    toa_s, power_dbm, phase_rad, p_tx_dbm: float, k: int = DEFAULT_MAX_TAPS,
    grid_dt_s: float = 1e-8, dyn_range_db: float = DEFAULT_DYN_RANGE_DB,
    offset_db: float = 0.0,
) -> tuple:
    """The tap list of one (pruned) snapshot, given as path columns.

    The three columns must be equal in length, and each path must pass
    :func:`~chansounder.channel_model.checked_phase`, which reduces its
    phase; then the paths are stably sorted by toa.
    Paths are clustered over delay by power-weighted k-means (seeded with
    the k strongest paths), each cluster is summed coherently, and the
    power-weighted cluster delay is snapped to the nearest grid index;
    clusters landing on the same index merge. After the dB offset is
    applied, taps more than ``dyn_range_db`` below the strongest tap are
    dropped. An empty snapshot is a valid deep-fade instant and yields no
    taps. This is the tap build on a table of one snapshot.
    """
    _check_grid_and_k(grid_dt_s, k)
    toa, power, phase = (np.asarray(c, dtype=float) for c in (toa_s, power_dbm, phase_rad))
    if not len(toa) == len(power) == len(phase):
        raise ValueError(f"path columns differ in length: {len(toa)}, {len(power)}, {len(phase)}")
    paths = zip(power.tolist(), phase.tolist(), toa.tolist())
    reduced = np.array([checked_phase(*path) for path in paths], dtype=float)
    order = np.argsort(toa, kind="stable")
    table = PathTable.of_columns([len(order)], power[order], reduced[order], toa[order])
    rows, counts, coeffs = table.coefficients([0], [p_tx_dbm])
    return _segment_taps(
        table.toa_s[rows], coeffs, counts, k, grid_dt_s, dyn_range_db, offset_db
    )[0]


def _check_grid_and_k(grid_dt_s: float, k: int) -> None:
    if not (math.isfinite(grid_dt_s) and grid_dt_s > 0):
        raise ValueError(f"grid_dt_s must be finite and > 0, got {grid_dt_s}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _row_body(taps, k: int) -> str:
    """The cells of a row after timestamp_ms,tx,rx, each with its leading comma."""
    cells = "".join(f",{i},{c.real!r},{c.imag!r}" for i, c in taps)
    return cells + ",-1,0,0" * (k - len(taps))


def write_tap_file(tap_file: TapFile, path) -> None:
    """CSV writer: '#key=value' header lines then one row per record.

    Row layout: timestamp_ms,tx,rx then K (delay_idx, re, im) triples with
    unused slots as -1,0,0. Rows run in (timestamp_ms, tx, rx) order. Each
    distinct tap list is formatted once, and the row tails (',tx,rx' and
    the cells after) of each distinct index row are built once, so a
    millisecond's rows are one join of its timestamp with them.
    """
    tap_file.validate()
    pairs = tap_file.pairs()
    with helper.output(path, "wb") as fh:
        fh.write(
            f"# n_nodes={tap_file.n_nodes}\n# grid_dt_s={tap_file.grid_dt_s!r}\n"
            f"# k={tap_file.k}\n# duration_ms={tap_file.duration_ms}\n"
            f"# offset_db={tap_file.offset_db!r}\n".encode()
        )
        if not pairs:
            return
        # validate() guarantees every listed pair a record at every ms
        ids = np.stack([tap_file.index[p] for p in pairs], axis=1)
        body = [_row_body(taps, tap_file.k) for taps in tap_file.tap_lists]
        heads = [f",{tx},{rx}" for tx, rx in pairs]
        tails: dict[tuple, list[bytes]] = {}  # index row -> b"", then its row tails
        for ms, row in enumerate(map(tuple, ids.tolist())):
            cells = tails.get(row)
            if cells is None:
                cells = tails[row] = [
                    b"", *(f"{h}{body[i]}\n".encode() for h, i in zip(heads, row))
                ]
            fh.write((b"%d" % ms).join(cells))


def _parse_row_body(cells: list[str], k: int) -> tuple:
    taps = []
    for t in range(k):
        idx = int(cells[3 * t])
        re = float(cells[3 * t + 1])
        im = float(cells[3 * t + 2])
        if idx >= 0:
            taps.append((idx, complex(re, im)))
    return tuple(taps)


# A refill reads at least this many bytes, extended to the next newline.
_BLOCK_BYTES = 1 << 16


class _Lines:
    """The unread part of a binary file, buffered as whole lines.

    ``buf[pos:]`` is unread and ends in a newline; other offsets count from
    ``pos``. A refill reads ``_BLOCK_BYTES`` or as many more bytes as are
    asked for, whichever is more, extended to the next newline, so the
    buffer holds at most about one millisecond's rows and one block.
    '\\r\\n' and a lone '\\r' end a line, as in text mode, and a last line
    without a newline reads as if it had one.
    """

    def __init__(self, fh):
        self.fh = fh
        self.buf = b""
        self.pos = 0

    def more(self, n: int) -> bool:
        """Whether ``n`` unread bytes are buffered, reading more if need be."""
        while len(self.buf) - self.pos < n:
            block = self.fh.read(max(n - len(self.buf) + self.pos, _BLOCK_BYTES))
            if not block:
                return False
            rest = b"" if block.endswith(b"\n") else self.fh.readline()
            if b"\r" in block or b"\r" in rest or not (rest or block).endswith(b"\n"):
                # seldom: line ends to convert, or a last line without one
                block = (block + rest).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                rest = b"" if block.endswith(b"\n") else b"\n"
            # one copy of the unread bytes, the block and the rest of its line
            self.buf = b"".join((memoryview(self.buf)[self.pos :], block, rest))
            self.pos = 0
        return True

    def startswith(self, prefix: bytes) -> bool:
        return self.more(len(prefix)) and self.buf.startswith(prefix, self.pos)

    def take(self, n: int) -> memoryview:
        """The next ``n`` unread bytes, which are read then."""
        self.pos += n
        return memoryview(self.buf)[self.pos - n : self.pos]

    def ms_end(self) -> int:
        """The end of the run of lines at the head of the buffer whose
        timestamp cells (the text before the first comma) are equal."""
        buf, pos = self.buf, self.pos
        end = buf.index(b"\n", pos) + 1 - pos
        comma = buf.find(b",", pos, pos + end)
        if comma < 0:
            return end
        head = buf[pos : comma + 1]
        while True:
            buf, p = self.buf, self.pos + end
            while buf.startswith(head, p):
                p = buf.index(b"\n", p) + 1
            end = p - self.pos
            # the buffer ends at p: read on to see the line there
            if p < len(buf) or not self.more(end + 1):
                return end


def _first_line_of(path, key: tuple[int, int, int]) -> int:
    """The line of the first row of a tap file for ``key``, (timestamp_ms,
    tx, rx); every line before the row asked for is a header line, a blank
    line or a valid row."""
    with open(path, errors="surrogateescape") as fh:
        return next(
            lineno
            for lineno, line in enumerate(fh, start=1)
            if not line.startswith("#")
            and line.strip()
            and tuple(map(int, line.split(",", 3)[:3])) == key
        )


class _RowReader:
    """A tap file's rows, read millisecond by millisecond into a (pair, ms) index.

    A millisecond whose bytes are the writer's join of its timestamp with
    the row tails (tx,rx,body) of the millisecond before is recorded by one
    comparison (:meth:`_repeat`). Any other run of lines with equal
    timestamp cells reaches :meth:`_ms`, which checks its lines one by one
    with the rules of a per-line reader and names the first line that
    breaks one. Each distinct row tail is parsed once, and each distinct
    body gives one tap list, in the order the bodies first appear. A
    millisecond recorded by comparison is one whose rows :meth:`_ms` would
    record, so the two give the same result.
    """

    def __init__(self, path, n_nodes: int, k: int, duration_ms: int, lineno: int):
        self.path = path
        self.n_nodes, self.k, self.duration_ms = n_nodes, k, duration_ms
        self.lineno = lineno  # of the next line
        self.tap_lists: list = []
        self.list_of_body: dict[str, int] = {}
        # per row tail that passed the checks: its pair's row of the index
        # and its tap list
        self.tail_of: dict[bytes, tuple[int, int]] = {}
        self.row_of_pair: dict[tuple[int, int], int] = {}
        self.nodes: set[int] = set()  # distinct node ids of the pairs so far
        # per pair row: the tap list of each ms (-1: none yet); no record
        # lies at or after ms `end`
        self.ids = np.full((0, duration_ms), -1, dtype=np.int32)
        self.end = 0
        # the rows expected at next_ms and on: the tails of the millisecond
        # last recorded, with their rows of the index and tap lists
        self.next_ms = 0
        self.tails: list[bytes] = []
        self.rows = self.lists = np.empty(0, dtype=np.intp)

    def read(self, lines: _Lines) -> None:
        """Record the rows of ``lines``: each millisecond that repeats the one
        before by :meth:`_repeat`, any other (:meth:`_Lines.ms_end`) by
        :meth:`_ms`."""
        while True:
            self._repeat(lines)
            if not lines.more(1):
                return
            self._ms(lines.take(lines.ms_end()))

    def _repeat(self, lines: _Lines) -> None:
        """Record the milliseconds at the head of ``lines`` whose rows are
        the expected ones, each checked by one comparison of its bytes with
        the rows as the writer joins them (the timestamp and a comma before
        each tail) and recorded for every pair at once. The run stops before
        a millisecond outside the file or with a record already, whose rows
        :meth:`_ms` then checks."""
        ms = first = self.next_ms
        if not self.tails or ms >= self.duration_ms:
            return
        expect = self._rows_of(ms, self.tails)
        if not lines.startswith(expect):
            return
        taken = (self.ids[self.rows, first : max(self.end, first + 1)] >= 0).any(axis=0)
        stop = first + int(taken.argmax()) if taken.any() else self.duration_ms
        while ms < stop:
            lines.pos += len(expect)
            ms += 1
            expect = self._rows_of(ms, self.tails)
            if not lines.startswith(expect):
                break
        if ms > first:
            self.ids[self.rows, first:ms] = self.lists[:, None]
            self.lineno += (ms - first) * len(self.tails)
            self.next_ms, self.end = ms, max(self.end, ms)

    @staticmethod
    def _rows_of(ms: int, tails: list) -> bytes:
        """Rows with these tails at ``ms``, as the writer joins them."""
        head = b"%d," % ms
        return head + (b"\n" + head).join(tails) + b"\n"

    def _ms(self, block) -> None:
        """Record ``block``, whole lines whose timestamp cells are equal, and
        expect its rows to repeat next.

        The first line, and each line whose row tail is new, goes through
        :meth:`_check`; a line with a tail that passed before needs only the
        duplicate check, as its timestamp is the first line's.
        """
        lines = bytes(block).split(b"\n")[:-1]
        cut = lines[0].find(b",") + 1  # where the row tails begin
        ms = None  # the timestamp, once the first row is checked
        tails, rows, lists = [], [], []
        for lineno, line in enumerate(lines, self.lineno):
            tail = line[cut:]
            known = self.tail_of.get(tail)
            if known is None or ms is None:
                try:
                    checked = self._check(line)
                except ValueError as exc:
                    raise ValueError(f"{self.path}: line {lineno}: {exc}") from None
                if checked is None:
                    continue  # a blank line, alone in its block
                if ms is None:
                    ms = checked[0]
                    column = self.ids[:, ms].tolist()
                known = self.tail_of[tail] = checked[1:]
                column += [-1] * (len(self.row_of_pair) - len(column))
            row, list_id = known
            if column[row] >= 0:
                tx, rx = list(self.row_of_pair)[row]
                raise ValueError(
                    f"{self.path}: line {lineno}: second record for ({ms},{tx},{rx}), "
                    f"the first is on line {_first_line_of(self.path, (ms, tx, rx))}"
                )
            column[row] = list_id
            tails.append(tail)
            rows.append(row)
            lists.append(list_id)
        self.lineno += len(lines)
        if ms is None:
            return
        if len(self.row_of_pair) > len(self.ids):
            cap = min(2 * len(self.ids), self.n_nodes * (self.n_nodes - 1))
            grown = np.full(
                (max(cap, len(self.row_of_pair)), self.duration_ms), -1, dtype=np.int32
            )
            grown[: len(self.ids)] = self.ids
            self.ids = grown
        self.ids[rows, ms] = lists
        self.tails, self.rows, self.lists = tails, np.array(rows), np.array(lists)
        self.next_ms, self.end = ms + 1, max(self.end, ms + 1)

    def _check(self, line: bytes) -> Optional[tuple[int, int, int]]:
        """A row's timestamp, its pair's row of the index and its tap list,
        or None for a blank line. The rules are a per-line reader's, in its
        order; the first the line breaks raises, and a new pair of a row
        that breaks none gets a row of the index."""
        try:
            text = line.decode().strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"not UTF-8: {exc}") from None
        if not text:
            return None
        n_cells = text.count(",") + 1
        if n_cells > 3 + 3 * self.k:
            raise ValueError(f"{(n_cells - 3) // 3} taps exceed K={self.k}")
        if n_cells < 3 + 3 * self.k:
            raise ValueError("truncated record")
        cells = text.split(",", 3)
        body = cells[3]
        try:
            ms, tx, rx = int(cells[0]), int(cells[1]), int(cells[2])
            list_id = self.list_of_body.get(body)
            if list_id is None:
                taps = _parse_row_body(body.split(","), self.k)
        except ValueError as exc:
            raise ValueError(f"bad field: {exc}") from None
        if list_id is None:
            self.tap_lists.append(_checked_taps(taps))
            list_id = self.list_of_body[body] = len(self.tap_lists) - 1
        if not 0 <= ms < self.duration_ms:
            raise ValueError(
                f"timestamp {ms} ms outside the file's 0..{self.duration_ms - 1} ms"
            )
        row = self.row_of_pair.get((tx, rx))
        if row is None:
            if tx == rx:
                raise ValueError(f"tx and rx are both node {tx}, not a node pair")
            nodes = self.nodes | {tx, rx}
            if len(nodes) > self.n_nodes:
                raise ValueError(
                    f"pair ({tx},{rx}) brings the distinct node ids to "
                    f"{len(nodes)}, more than n_nodes={self.n_nodes}"
                )
            self.nodes = nodes
            row = self.row_of_pair[(tx, rx)] = len(self.row_of_pair)
        return ms, row, list_id


def read_tap_file(path) -> TapFile:
    """Parse a tap file; errors name the file and the offending line.

    The header is read line by line and the rows one millisecond at a time:
    by one byte comparison where it repeats the millisecond before, else
    line by line (see :class:`_RowReader`). A line that is not UTF-8, a row outside 0 <=
    timestamp_ms < duration_ms, a second row for the same (timestamp_ms,
    tx, rx), a row with tx == rx and rows naming more distinct node ids
    than n_nodes are errors; the first offending line of the file is
    named. The ids themselves are the scenario's and are not bounded by
    n_nodes. Blank lines are skipped, and a line reads as its text stripped
    of whitespace. Each tap list is checked once, when its row body is
    parsed.
    """
    header: dict[str, str] = {}
    with open(path, "rb") as fh:
        lines = _Lines(fh)
        lineno = 1
        while lines.startswith(b"#"):
            raw = lines.take(lines.buf.index(b"\n", lines.pos) + 1 - lines.pos)
            try:
                line = str(raw, "utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not UTF-8: {exc}") from None
            body = line[1:].strip()
            if "=" not in body:
                raise ValueError(
                    f"{path}: malformed header line {lineno}: {line.strip()!r}"
                )
            key, _, value = body.partition("=")
            header[key.strip()] = value.strip()
            lineno += 1
        required = ("n_nodes", "grid_dt_s", "k", "duration_ms", "offset_db")
        missing = [k for k in required if k not in header]
        if missing:
            raise ValueError(f"{path}: malformed header: missing {missing}")
        try:
            n_nodes = int(header["n_nodes"])
            grid_dt_s = float(header["grid_dt_s"])
            k = int(header["k"])
            duration_ms = int(header["duration_ms"])
            offset_db = float(header["offset_db"])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed header value: {exc}")
        try:  # the header's values are checked before any row
            TapFile(n_nodes, grid_dt_s, k, duration_ms, offset_db)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}")
        reader = _RowReader(path, n_nodes, k, duration_ms, lineno)
        reader.read(lines)

    try:
        tap_file = TapFile._of_checked(
            n_nodes=n_nodes,
            grid_dt_s=grid_dt_s,
            k=k,
            duration_ms=duration_ms,
            offset_db=offset_db,
            tap_lists=reader.tap_lists,
            index={pair: reader.ids[row] for pair, row in reader.row_of_pair.items()},
        )
        tap_file.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    return tap_file


def build_tap_file_from_matrix(
    matrix,
    tx_power_dbm: dict,
    duration_ms: int,
    k: int = DEFAULT_MAX_TAPS,
    grid_dt_s: float = 1e-8,
    dyn_range_db: float = DEFAULT_DYN_RANGE_DB,
    offset_db: float = 0.0,
    pairs: Optional[Sequence[tuple[int, int]]] = None,
    prune_floor_dbm: Optional[float] = None,
) -> TapFile:
    """Expand a channel matrix into per-millisecond tap records.

    Each channel sample's tap set is held for the whole sample interval
    (records at every millisecond repeat it until the next sample). The
    matrix holds each distinct snapshot once, so every distinct (snapshot,
    transmit power) is pruned (paths below ``prune_floor_dbm`` dropped) and
    given coefficients by :meth:`PathTable.coefficients`, then approximated
    as by :func:`approximate_taps`, all in one :func:`_segment_taps` pass;
    it gets one tap list, which each of its records points at.
    ``tx_power_dbm`` is {node_id: dBm}.
    """
    _check_grid_and_k(grid_dt_s, k)
    if pairs is None:
        pairs = [
            (i, j) for i in matrix.node_ids for j in matrix.node_ids if i != j
        ]
    sample_of_ms = matrix.sample_of(np.arange(duration_ms) / 1000.0)
    # ms ascend, so samples never fall; samples are >= 1, so ms 0 starts one
    new_sample = np.diff(sample_of_ms, prepend=0) != 0
    samples = sample_of_ms[new_sample] - 1
    list_of_ms = np.cumsum(new_sample) - 1

    # pairs with other transmitters may share a snapshot but not a tap list
    shape = (len(pairs), len(samples))
    snapshots = np.array([matrix.index[pair][samples] for pair in pairs]).reshape(shape)
    p_tx = np.array([tx_power_dbm[tx] for tx, _ in pairs], dtype=float)
    keys = np.stack([snapshots, np.broadcast_to(p_tx[:, None], shape)], axis=-1)
    keys, group = np.unique(keys.reshape(-1, 2), axis=0, return_inverse=True)
    rows, counts, coeffs = matrix.paths.coefficients(
        keys[:, 0].astype(np.intp), keys[:, 1], prune_floor_dbm
    )
    taps = _segment_taps(
        matrix.paths.toa_s[rows], coeffs, counts, k, grid_dt_s, dyn_range_db, offset_db
    )
    return TapFile(
        n_nodes=len(matrix.node_ids),
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=duration_ms,
        offset_db=offset_db,
        tap_lists=taps,
        index=dict(zip(pairs, group.reshape(shape)[:, list_of_ms])),
    )
