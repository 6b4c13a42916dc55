"""Reduce dense multipath snapshots to a few grid-aligned FIR taps.

Channel emulators accept only a small number of filter taps (4 here by
default) on a fixed delay grid, while a ray source may report dozens of
paths at arbitrary delays. Paths are clustered along the delay axis with a
power-weighted 1-D k-means, each cluster is merged coherently (complex sum,
so the link path loss of the snapshot is preserved), and cluster delays are
snapped to the nearest grid index. Tap files carry one record per node pair
per millisecond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .channel_model import ChannelSnapshot, snapshot_to_cir

__all__ = [
    "TapSet",
    "TapFile",
    "approximate_taps",
    "apply_offset",
    "write_tap_file",
    "read_tap_file",
    "build_tap_file_from_matrix",
]

DEFAULT_MAX_TAPS = 4
DEFAULT_DYN_RANGE_DB = 43.0
TAP_RECORD_INTERVAL_MS = 1

_KMEANS_MAX_ITER = 50


@dataclass(frozen=True)
class TapSet:
    """Grid-aligned complex FIR taps for one pair at one millisecond."""

    taps: tuple[tuple[int, complex], ...]
    grid_dt_s: float
    timestamp_ms: int = 0

    def __post_init__(self):
        taps = tuple((int(i), complex(c)) for i, c in self.taps)
        indices = [i for i, _ in taps]
        if any(i < 0 for i in indices):
            raise ValueError("delay indices must be >= 0")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("delay indices must be strictly increasing")
        if self.grid_dt_s <= 0:
            raise ValueError("grid_dt_s must be > 0")
        object.__setattr__(self, "taps", taps)

    @property
    def delay_indices(self) -> list[int]:
        return [i for i, _ in self.taps]

    @property
    def coefficients(self) -> list[complex]:
        return [c for _, c in self.taps]

    def coherent_sum(self) -> complex:
        return sum((c for _, c in self.taps), 0j)


@dataclass
class TapFile:
    """Per-millisecond tap records for every node pair in a scenario."""

    n_nodes: int
    grid_dt_s: float
    k: int
    duration_ms: int
    offset_db: float = 0.0
    records: dict = field(default_factory=dict)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted({(tx, rx) for (_, tx, rx) in self.records})

    def tapset(self, timestamp_ms: int, tx: int, rx: int) -> TapSet:
        try:
            return self.records[(timestamp_ms, tx, rx)]
        except KeyError:
            raise KeyError(
                f"no tap record for pair ({tx},{rx}) at {timestamp_ms} ms"
            )

    def active_tapset(self, time_s: float, tx: int, rx: int) -> TapSet:
        """Record active at a capture time (zero-order hold per millisecond)."""
        ms = int(math.floor(time_s * 1000.0 + 1e-9))
        if not 0 <= ms < self.duration_ms:
            raise KeyError(f"time {time_s} s outside tap file duration")
        return self.tapset(ms, tx, rx)

    def validate(self) -> None:
        """Check completeness (every pair, every millisecond) and tap bounds."""
        pairs = self.pairs()
        for (ms, tx, rx), ts in self.records.items():
            if len(ts.taps) > self.k:
                raise ValueError(
                    f"record ({ms},{tx},{rx}) has {len(ts.taps)} taps, max {self.k}"
                )
        for pair in pairs:
            for ms in range(self.duration_ms):
                if (ms, pair[0], pair[1]) not in self.records:
                    raise ValueError(
                        f"missing record for pair {pair} at {ms} ms"
                    )


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
    for _ in range(_KMEANS_MAX_ITER):
        assign = np.argmin(np.abs(delays[:, None] - centroids[None, :]), axis=1)
        new_centroids = []
        for ci in range(len(centroids)):
            members = assign == ci
            if not members.any():
                continue
            w = weights[members]
            new_centroids.append(float(np.sum(w * delays[members]) / np.sum(w)))
        new_centroids = np.unique(new_centroids)
        if len(new_centroids) == len(centroids) and np.max(
            np.abs(np.sort(new_centroids) - np.sort(centroids))
        ) < tol:
            centroids = new_centroids
            break
        centroids = new_centroids
    assign = np.argmin(np.abs(delays[:, None] - centroids[None, :]), axis=1)
    clusters = [np.flatnonzero(assign == ci) for ci in range(len(centroids))]
    return [members for members in clusters if members.size]


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


def apply_offset(tap_file: TapFile, offset_db: float) -> TapFile:
    """Scale every tap magnitude by 10**(offset/20); header tracks the total."""
    scale = 10.0 ** (offset_db / 20.0)
    records = {
        key: replace(ts, taps=tuple((i, c * scale) for i, c in ts.taps))
        for key, ts in tap_file.records.items()
    }
    return TapFile(
        n_nodes=tap_file.n_nodes,
        grid_dt_s=tap_file.grid_dt_s,
        k=tap_file.k,
        duration_ms=tap_file.duration_ms,
        offset_db=tap_file.offset_db + offset_db,
        records=records,
    )


def write_tap_file(tap_file: TapFile, path) -> None:
    """CSV writer: '#key=value' header lines then one row per record.

    Row layout: timestamp_ms,tx,rx then K (delay_idx, re, im) triples with
    unused slots as -1,0,0.
    """
    tap_file.validate()
    with open(path, "w") as fh:
        fh.write(f"# n_nodes={tap_file.n_nodes}\n")
        fh.write(f"# grid_dt_s={tap_file.grid_dt_s!r}\n")
        fh.write(f"# k={tap_file.k}\n")
        fh.write(f"# duration_ms={tap_file.duration_ms}\n")
        fh.write(f"# offset_db={tap_file.offset_db!r}\n")
        for (ms, tx, rx) in sorted(tap_file.records):
            ts = tap_file.records[(ms, tx, rx)]
            cells = [str(ms), str(tx), str(rx)]
            for i, c in ts.taps:
                cells += [str(i), repr(c.real), repr(c.imag)]
            for _ in range(tap_file.k - len(ts.taps)):
                cells += ["-1", "0", "0"]
            fh.write(",".join(cells) + "\n")


def read_tap_file(path) -> TapFile:
    """Parse a tap file; errors name the offending line."""
    header: dict[str, str] = {}
    records: dict = {}
    with open(path) as fh:
        lines = fh.readlines()
    n_header = 0
    for line in lines:
        if not line.startswith("#"):
            break
        n_header += 1
        body = line[1:].strip()
        if "=" not in body:
            raise ValueError(f"malformed header line {n_header}: {line.strip()!r}")
        key, _, value = body.partition("=")
        header[key.strip()] = value.strip()
    required = ("n_nodes", "grid_dt_s", "k", "duration_ms", "offset_db")
    missing = [k for k in required if k not in header]
    if missing:
        raise ValueError(f"malformed header: missing {missing}")
    try:
        n_nodes = int(header["n_nodes"])
        grid_dt_s = float(header["grid_dt_s"])
        k = int(header["k"])
        duration_ms = int(header["duration_ms"])
        offset_db = float(header["offset_db"])
    except ValueError as exc:
        raise ValueError(f"malformed header value: {exc}")

    width = 3 + 3 * k
    for lineno, line in enumerate(lines[n_header:], start=n_header + 1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) > width:
            raise ValueError(
                f"line {lineno}: {((len(cells) - 3) // 3)} taps exceed K={k}"
            )
        if len(cells) < width:
            raise ValueError(f"line {lineno}: truncated record")
        try:
            ms, tx, rx = int(cells[0]), int(cells[1]), int(cells[2])
            taps = []
            for t in range(k):
                idx = int(cells[3 + 3 * t])
                re = float(cells[4 + 3 * t])
                im = float(cells[5 + 3 * t])
                if idx >= 0:
                    taps.append((idx, complex(re, im)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad field: {exc}")
        try:
            records[(ms, tx, rx)] = TapSet(tuple(taps), grid_dt_s, ms)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")

    tap_file = TapFile(
        n_nodes=n_nodes,
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=duration_ms,
        offset_db=offset_db,
        records=records,
    )
    tap_file.validate()
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
    (records at every millisecond repeat it until the next sample).
    ``tx_power_dbm`` is a single value or {node_id: dBm}.
    """
    from .channel_model import prune_paths

    if pairs is None:
        pairs = [
            (i, j) for i in matrix.node_ids for j in matrix.node_ids if i != j
        ]
    records = {}
    t_s = matrix.sample_interval_s
    for tx, rx in pairs:
        p_tx = tx_power_dbm[tx] if isinstance(tx_power_dbm, dict) else tx_power_dbm
        per_sample: dict[int, TapSet] = {}
        for ms in range(duration_ms):
            s = min(int(math.floor(ms / 1000.0 / t_s)) + 1, matrix.n_samples)
            if s not in per_sample:
                snap = matrix.snapshot(tx, rx, s)
                if prune_floor_dbm is not None:
                    snap = prune_paths(snap, prune_floor_dbm)
                per_sample[s] = approximate_taps(
                    snap,
                    p_tx,
                    k=k,
                    grid_dt_s=grid_dt_s,
                    dyn_range_db=dyn_range_db,
                    offset_db=offset_db,
                    timestamp_ms=ms,
                )
            records[(ms, tx, rx)] = replace(per_sample[s], timestamp_ms=ms)
    return TapFile(
        n_nodes=matrix.n_nodes,
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=duration_ms,
        offset_db=offset_db,
        records=records,
    )
