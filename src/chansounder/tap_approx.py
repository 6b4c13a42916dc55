"""Reduce dense multipath snapshots to a few grid-aligned FIR taps.

Channel emulators accept only a small number of filter taps (4 here by
default) on a fixed delay grid, while a ray source may report dozens of
paths at arbitrary delays. Paths are clustered along the delay axis with a
power-weighted 1-D k-means, each cluster is merged coherently (complex sum,
so the link path loss of the snapshot is preserved), and cluster delays are
snapped to the nearest grid index. Tap files carry one record per node pair
per millisecond; in memory a :class:`TapFile` holds each distinct tap list
once and one index array per pair that points every millisecond at one.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channel_model import ChannelSnapshot, snapshot_to_cir

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
    """A tap list as (int, complex) pairs; delay indices must be >= 0 and rise."""
    taps = tuple((int(i), complex(c)) for i, c in taps)
    indices = [i for i, _ in taps]
    if any(i < 0 for i in indices):
        raise ValueError("delay indices must be >= 0")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("delay indices must be strictly increasing")
    return taps


@dataclass(frozen=True)
class TapSet:
    """Grid-aligned complex FIR taps for one pair at one millisecond."""

    taps: tuple[tuple[int, complex], ...]
    grid_dt_s: float
    timestamp_ms: int = 0

    def __post_init__(self):
        taps = _checked_taps(self.taps)
        if self.grid_dt_s <= 0:
            raise ValueError("grid_dt_s must be > 0")
        object.__setattr__(self, "taps", taps)

    @classmethod
    def _of_checked(cls, taps, grid_dt_s: float, timestamp_ms: int) -> "TapSet":
        """A record of a TapFile, whose tap lists and grid are checked already."""
        ts = object.__new__(cls)
        object.__setattr__(ts, "taps", taps)
        object.__setattr__(ts, "grid_dt_s", grid_dt_s)
        object.__setattr__(ts, "timestamp_ms", timestamp_ms)
        return ts

    @property
    def delay_indices(self) -> list[int]:
        return [i for i, _ in self.taps]

    @property
    def coefficients(self) -> list[complex]:
        return [c for _, c in self.taps]

    def coherent_sum(self) -> complex:
        return sum((c for _, c in self.taps), 0j)


@dataclass(eq=False)
class TapFile:
    """Per-millisecond tap records for every node pair, stored run-length.

    ``tap_lists`` holds each tap list once, as checked (delay_idx, coef)
    tuples. ``index[(tx, rx)]`` is an int32 array of length ``duration_ms``
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
        if not (math.isfinite(self.grid_dt_s) and self.grid_dt_s > 0):
            raise ValueError(
                f"grid_dt_s must be finite and > 0, got {self.grid_dt_s}"
            )
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

    @property
    def records(self) -> "TapRecords":
        return TapRecords(self)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p, ids in self.index.items() if (ids >= 0).any())

    def used_tap_lists(self, pair: Optional[tuple[int, int]] = None) -> list:
        """The tap lists that records point at (of one pair, or of all), once each."""
        arrays = [self.index[pair]] if pair is not None else self.index.values()
        used = set().union(*(ids.tolist() for ids in arrays)) - {-1}
        return [self.tap_lists[i] for i in sorted(used)]

    def tapset(self, timestamp_ms: int, tx: int, rx: int) -> TapSet:
        try:
            return self.records[(timestamp_ms, tx, rx)]
        except KeyError:
            raise KeyError(
                f"no tap record for pair ({tx},{rx}) at {timestamp_ms} ms"
            )

    def active_tapset(self, time_s: float, tx: int, rx: int) -> TapSet:
        """Record active at a capture time (zero-order hold per millisecond)."""
        ms = int(_ms_of(time_s))
        if not 0 <= ms < self.duration_ms:
            raise KeyError(f"time {time_s} s outside tap file duration")
        return self.tapset(ms, tx, rx)

    def tap_ids(self, times_s: np.ndarray, tx: int, rx: int) -> np.ndarray:
        """Position in ``tap_lists`` of the record active at each time.

        Times map to milliseconds as in :meth:`active_tapset`, and the first
        time without a record raises the KeyError that it would raise.
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
        """Check completeness (every pair, every millisecond) and tap bounds."""
        # a trailing 0 gives the -1 entries (no record) a tap count
        n_taps = np.array([len(t) for t in self.tap_lists] + [0])
        for tx, rx in sorted(self.index):
            ids = self.index[(tx, rx)]
            over = np.flatnonzero(n_taps[ids] > self.k)
            if over.size:
                ms = int(over[0])
                raise ValueError(
                    f"record ({ms},{tx},{rx}) has {n_taps[ids[ms]]} taps, max {self.k}"
                )
        for pair in self.pairs():
            missing = np.flatnonzero(self.index[pair] < 0)
            if missing.size:
                raise ValueError(
                    f"missing record for pair {pair} at {int(missing[0])} ms"
                )


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
    each run makes the two the same.
    """
    n = values.shape[-1]
    shift = np.zeros(n, dtype=np.intp)
    shift[starts] = 1
    padded = np.zeros(values.shape[:-1] + (n + len(starts),))
    padded[..., np.arange(n) + shift.cumsum()] = values
    return np.add.reduceat(padded, starts + np.arange(len(starts)), axis=-1)


def _clusters(delays: np.ndarray, centroids: np.ndarray) -> tuple:
    """Each delay's nearest centroid (the first of a tie), grouped: ``order``
    lists the members of each nonempty cluster in turn, ascending within one,
    and ``starts`` marks where each cluster's run begins."""
    assign = np.abs(delays[:, None] - centroids[None, :]).argmin(axis=1)
    order = assign.argsort(kind="stable")
    label = assign[order]
    starts = np.concatenate(([0], (label[1:] != label[:-1]).nonzero()[0] + 1))
    return order, starts


def _weighted_kmeans_1d(
    delays: np.ndarray, weights: np.ndarray, k: int, tol: float
) -> list[np.ndarray]:
    """Cluster delays into <= k groups; returns nonempty index arrays.

    A centroid can end with no members (no delay is nearest to it, e.g.
    with subnormal delays); such clusters are dropped.
    """
    # seed with the k strongest paths' delays; ties break on delay so the
    # seeding is invariant under uniform power scaling
    order = np.lexsort((delays, -weights))
    centroids = np.unique(delays[order[:k]])
    terms = np.stack([weights * delays, weights])
    for _ in range(_KMEANS_MAX_ITER):
        order, starts = _clusters(delays, centroids)
        weighted, total = _run_sums(terms[:, order], starts)
        new_centroids = np.unique(weighted / total)
        converged = len(new_centroids) == len(centroids) and np.max(
            np.abs(new_centroids - centroids)
        ) < tol
        centroids = new_centroids
        if converged:
            break
    order, starts = _clusters(delays, centroids)
    return np.split(order, starts[1:])


def approximate_taps(
    snapshot: ChannelSnapshot,
    p_tx_dbm: float,
    k: int = DEFAULT_MAX_TAPS,
    grid_dt_s: float = 1e-8,
    dyn_range_db: float = DEFAULT_DYN_RANGE_DB,
    offset_db: float = 0.0,
    timestamp_ms: Optional[int] = None,
) -> TapSet:
    """Approximate a (pruned) snapshot by <= k grid-aligned complex taps.

    Paths are clustered over delay by power-weighted k-means (seeded with
    the k strongest paths), each cluster is summed coherently, and the
    power-weighted cluster delay is snapped to the nearest grid index;
    clusters landing on the same index merge. After the dB offset is
    applied, taps more than ``dyn_range_db`` below the strongest tap are
    dropped. An empty snapshot is a valid deep-fade instant and yields an
    empty tap set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if grid_dt_s <= 0:
        raise ValueError("grid_dt_s must be > 0")
    if timestamp_ms is None:
        timestamp_ms = int(round(snapshot.time_s * 1000.0))
    cir = snapshot_to_cir(snapshot, p_tx_dbm)
    if not cir:
        return TapSet((), grid_dt_s, timestamp_ms)

    delays = np.array([tau for tau, _ in cir])
    coeffs = np.array([c for _, c in cir], dtype=complex)
    # normalized to the strongest path so the clustering arithmetic does not
    # depend on the absolute power scale
    weights = np.abs(coeffs) ** 2
    weights = weights / weights.max()

    if len(delays) <= k:
        clusters = [np.array([i]) for i in range(len(delays))]
    else:
        clusters = _weighted_kmeans_1d(delays, weights, k, tol=grid_dt_s / 100.0)

    by_index: dict[int, complex] = {}
    for members in clusters:
        w = weights[members]
        if members.size == 1:  # w * d / w can miss d by an ulp
            centroid = float(delays[members[0]])
        else:
            centroid = float(np.sum(w * delays[members]) / np.sum(w))
        idx = int(round(centroid / grid_dt_s))
        by_index[idx] = by_index.get(idx, 0j) + complex(np.sum(coeffs[members]))

    scale = 10.0 ** (offset_db / 20.0)
    taps = [(idx, c * scale) for idx, c in sorted(by_index.items())]

    mags = [abs(c) for _, c in taps]
    if mags:
        floor = max(mags) * 10.0 ** (-dyn_range_db / 20.0)
        taps = [(idx, c) for idx, c in taps if abs(c) >= floor]
    return TapSet(tuple(taps), grid_dt_s, timestamp_ms)


def _row_body(taps, k: int) -> str:
    """The cells of a row after timestamp_ms,tx,rx, each with its leading comma."""
    cells = "".join(f",{i},{c.real!r},{c.imag!r}" for i, c in taps)
    return cells + ",-1,0,0" * (k - len(taps))


def write_tap_file(tap_file: TapFile, path) -> None:
    """CSV writer: '#key=value' header lines then one row per record.

    Row layout: timestamp_ms,tx,rx then K (delay_idx, re, im) triples with
    unused slots as -1,0,0. Rows run in (timestamp_ms, tx, rx) order; each
    distinct tap list is formatted once.
    """
    tap_file.validate()
    pairs = tap_file.pairs()
    with open(path, "w") as fh:
        fh.write(f"# n_nodes={tap_file.n_nodes}\n")
        fh.write(f"# grid_dt_s={tap_file.grid_dt_s!r}\n")
        fh.write(f"# k={tap_file.k}\n")
        fh.write(f"# duration_ms={tap_file.duration_ms}\n")
        fh.write(f"# offset_db={tap_file.offset_db!r}\n")
        if not pairs:
            return
        # validate() guarantees every listed pair a record at every ms
        ids = np.stack([tap_file.index[p] for p in pairs], axis=1)
        body = [_row_body(taps, tap_file.k) for taps in tap_file.tap_lists]
        heads = [f",{tx},{rx}" for tx, rx in pairs]
        for ms, row in enumerate(ids.tolist()):
            fh.write("".join(f"{ms}{h}{body[i]}\n" for h, i in zip(heads, row)))


def _parse_row_body(cells: list[str], k: int) -> tuple:
    taps = []
    for t in range(k):
        idx = int(cells[3 * t])
        re = float(cells[3 * t + 1])
        im = float(cells[3 * t + 2])
        if idx >= 0:
            taps.append((idx, complex(re, im)))
    return tuple(taps)


def read_tap_file(path) -> TapFile:
    """Parse a tap file; errors name the file and the offending line.

    Each distinct row body (the cells after timestamp_ms,tx,rx) is parsed
    once. A row outside 0 <= timestamp_ms < duration_ms, a second row for
    the same (timestamp_ms, tx, rx), a row with tx == rx and rows naming
    more distinct node ids than n_nodes are errors. The ids themselves are
    the scenario's and are not bounded by n_nodes.
    """
    header: dict[str, str] = {}
    with open(path) as fh:
        lines = enumerate(fh, start=1)
        first_row = []
        for lineno, line in lines:
            if not line.startswith("#"):
                first_row = [(lineno, line)]
                break
            body = line[1:].strip()
            if "=" not in body:
                raise ValueError(
                    f"{path}: malformed header line {lineno}: {line.strip()!r}"
                )
            key, _, value = body.partition("=")
            header[key.strip()] = value.strip()
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

        width = 3 + 3 * k
        tap_lists: list = []
        list_of_body: dict[str, int] = {}
        # per pair: tap list of each ms (-1: none yet) and the line it came from
        rows: dict[tuple[int, int], tuple[array, array]] = {}
        nodes: set[int] = set()  # distinct node ids of the pairs so far
        for lineno, line in itertools.chain(first_row, lines):
            line = line.strip()
            if not line:
                continue
            n_cells = line.count(",") + 1
            if n_cells > width:
                raise ValueError(
                    f"{path}: line {lineno}: {(n_cells - 3) // 3} taps exceed K={k}"
                )
            if n_cells < width:
                raise ValueError(f"{path}: line {lineno}: truncated record")
            cells = line.split(",", 3)
            body = cells[3] if k > 0 else ""
            try:
                ms, tx, rx = int(cells[0]), int(cells[1]), int(cells[2])
                tid = list_of_body.get(body)
                if tid is None:
                    taps = _parse_row_body(body.split(","), k)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad field: {exc}")
            if tid is None:
                try:
                    tap_lists.append(_checked_taps(taps))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}")
                tid = list_of_body[body] = len(tap_lists) - 1
            if not 0 <= ms < duration_ms:
                raise ValueError(
                    f"{path}: line {lineno}: timestamp {ms} ms outside the "
                    f"file's 0..{duration_ms - 1} ms"
                )
            pair_rows = rows.get((tx, rx))
            if pair_rows is None:
                if tx == rx:
                    raise ValueError(
                        f"{path}: line {lineno}: tx and rx are both node {tx}, "
                        "not a node pair"
                    )
                nodes.update((tx, rx))
                if len(nodes) > n_nodes:
                    raise ValueError(
                        f"{path}: line {lineno}: pair ({tx},{rx}) brings the "
                        f"distinct node ids to {len(nodes)}, more than "
                        f"n_nodes={n_nodes}"
                    )
                pair_rows = rows[(tx, rx)] = (
                    array("i", [-1]) * duration_ms,
                    array("q", [0]) * duration_ms,
                )
            ids, from_line = pair_rows
            if ids[ms] >= 0:
                raise ValueError(
                    f"{path}: line {lineno}: second record for ({ms},{tx},{rx}), "
                    f"the first is on line {from_line[ms]}"
                )
            ids[ms] = tid
            from_line[ms] = lineno

    try:
        tap_file = TapFile(
            n_nodes=n_nodes,
            grid_dt_s=grid_dt_s,
            k=k,
            duration_ms=duration_ms,
            offset_db=offset_db,
            tap_lists=tap_lists,
            index={pair: ids for pair, (ids, _) in rows.items()},
        )
        tap_file.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    return tap_file


def build_tap_file_from_matrix(
    matrix,
    tx_power_dbm: dict | float,
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
    (records at every millisecond repeat it until the next sample), so
    every (pair, sample) gets one tap list and the records point at it.
    ``tx_power_dbm`` is a single value or {node_id: dBm}.
    """
    from .channel_model import prune_paths

    if pairs is None:
        pairs = [
            (i, j) for i in matrix.node_ids for j in matrix.node_ids if i != j
        ]
    sample_of_ms = matrix.sample_of(np.arange(duration_ms) / 1000.0)
    # ms ascend, so samples never fall; samples are >= 1, so ms 0 starts one
    new_sample = np.diff(sample_of_ms, prepend=0) != 0
    first_ms = np.flatnonzero(new_sample)
    list_of_ms = np.cumsum(new_sample) - 1
    tap_lists: list = []
    index = {}
    for tx, rx in pairs:
        p_tx = tx_power_dbm[tx] if isinstance(tx_power_dbm, dict) else tx_power_dbm
        index[(tx, rx)] = len(tap_lists) + list_of_ms
        for s, ms in zip(sample_of_ms[first_ms].tolist(), first_ms.tolist()):
            snap = matrix.snapshot(tx, rx, s)
            if prune_floor_dbm is not None:
                snap = prune_paths(snap, prune_floor_dbm)
            ts = approximate_taps(
                snap,
                p_tx,
                k=k,
                grid_dt_s=grid_dt_s,
                dyn_range_db=dyn_range_db,
                offset_db=offset_db,
                timestamp_ms=ms,
            )
            tap_lists.append(ts.taps)
    return TapFile(
        n_nodes=matrix.n_nodes,
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=duration_ms,
        offset_db=offset_db,
        tap_lists=tap_lists,
        index=index,
    )
