"""Per-path, per-centroid, per-frame and per-record reference implementations.

These are the Python loops that the image-method generator, path pruning
and coefficients, the tap k-means, detection, validation, the truth series,
the paths-file reader and tap-file I/O ran before they worked on whole
arrays, columns, run-length arrays and distinct bodies. Tests hold the
vectorized code to them exactly: same paths and clusters, same detections,
same tie-breaking, same statistics bit for bit, same file bytes and tables.
"""

import csv
import dataclasses
import itertools
import json
import math
from array import array

import numpy as np

from chansounder import mobility as mob
from chansounder.channel_model import (
    TWO_PI,
    ChannelSnapshot,
    PathTable,
    RayPath,
    noise_floor_dbm,
    path_coefficient,
)
from chansounder.harness import TapErrorStats, ValidationReport
from chansounder.tap_approx import TapFile, TapSet, _checked_taps, _parse_row_body


def columns_of(snapshot):
    """The toa, power and phase columns of a snapshot's paths, the first
    arguments of ``tap_approx.approximate_taps``."""
    paths = snapshot.paths
    return (
        [p.toa_s for p in paths],
        [p.received_power_dbm for p in paths],
        [p.phase_rad for p in paths],
    )


def prune_paths(snapshot, floor_dbm):
    """Drop paths weaker than the noise floor; a path exactly at it is kept."""
    kept = tuple(p for p in snapshot.paths if p.received_power_dbm >= floor_dbm)
    return ChannelSnapshot(
        snapshot.tx_id, snapshot.rx_id, snapshot.sample_index, snapshot.time_s, kept
    )


def snapshot_to_cir(snapshot, p_tx_dbm):
    """Impulse-response view: one (delay_s, complex coefficient) per path."""
    return [
        (p.toa_s, path_coefficient(p.received_power_dbm, p_tx_dbm, p.phase_rad))
        for p in snapshot.paths
    ]


def link_path_loss_db(snapshot, p_tx_dbm):
    """Coherent link path loss: -20*log10 |sum of path coefficients|.

    Returns +inf for a destructive null (coefficients sum to zero) rather
    than raising; an empty snapshot is an error.
    """
    if not snapshot.paths:
        raise ValueError("no propagation paths")
    coefficients = [c for _, c in snapshot_to_cir(snapshot, p_tx_dbm)]
    total = sum(coefficients)
    magnitude = abs(total)
    if magnitude <= 1e-12 * sum(abs(c) for c in coefficients):
        return float("inf")
    return -20.0 * math.log10(magnitude)


def mirror(plane, point):
    """``point`` reflected in an axis-aligned plane."""
    idx = "xyz".index(plane.axis)
    out = point.copy()
    out[idx] = 2.0 * plane.offset - out[idx]
    return out


def bounce_sequences(planes, max_bounces):
    """Ordered reflector sequences, no immediate plane repeats."""
    seqs = [(p,) for p in planes]
    out = list(seqs)
    for _ in range(max_bounces - 1):
        seqs = [s + (p,) for s in seqs for p in planes if p != s[-1]]
        out.extend(seqs)
    return out


def ray_can_take(seq, images, rx_pos):
    """Whether a ray meets the planes of ``seq`` in order, traced back from
    the receiver: the leg to ``images[k]`` (the image after the first k
    bounces) must cross plane ``seq[k - 1]`` strictly between its end points,
    and the crossing point starts the leg to ``images[k - 1]``."""
    point = [float(c) for c in rx_pos]
    for k in range(len(seq), 0, -1):
        a, off = "xyz".index(seq[k - 1].axis), seq[k - 1].offset
        image = [float(c) for c in images[k]]
        p, q = point[a], image[a]
        if not (p < off < q or q < off < p):
            return False
        t = (off - p) / (q - p)
        point = [point[j] + t * (image[j] - point[j]) for j in range(3)]
    return True


def pair_paths_per_path(
    tx_pos, rx_pos, radio, rx_gain_dbi, reflectors=(), reflection_loss_db=6.0,
    max_bounces=4,
):
    """The generator's paths of one link (``mobility._ray_paths`` on one
    transmitter and receiver) as one image and one path at a time.

    Every image is checked for zero distance, but only the sequences a ray
    can take yield a path.
    """
    tx_pos = np.asarray(tx_pos, dtype=float)
    rx_pos = np.asarray(rx_pos, dtype=float)
    f = radio.carrier_hz
    gains = radio.antenna_gain_tx_dbi + rx_gain_dbi

    def make_path(image, bounces):
        d = float(np.linalg.norm(image - rx_pos))
        if d == 0.0:
            raise ValueError("zero-distance link between tx and rx")
        p_rx = (
            radio.tx_power_dbm
            + gains
            - mob.free_space_loss_db(d, f)
            - bounces * reflection_loss_db
        )
        if p_rx <= mob.RAY_POWER_CUTOFF_DBM:
            return None
        phase = (-2.0 * math.pi * f * d / mob.SPEED_OF_LIGHT + bounces * math.pi) % (
            2.0 * math.pi
        )
        return RayPath(p_rx, phase, d / mob.SPEED_OF_LIGHT)

    paths = [make_path(tx_pos, 0)]
    if reflectors and max_bounces > 0:
        for seq in bounce_sequences(tuple(reflectors), max_bounces):
            images = [tx_pos]
            for plane in seq:
                images.append(mirror(plane, images[-1]))
            path = make_path(images[-1], len(seq))
            if ray_can_take(seq, images, rx_pos):
                paths.append(path)
    return tuple(sorted((p for p in paths if p is not None), key=lambda p: p.toa_s))


def matrix_entries_per_pair(scenario):
    """``assemble_channel_matrix(scenario).entries`` one pair at a time."""
    positions = mob._node_positions(scenario)
    n_s = mob.num_samples(scenario.t_total_s, scenario.sample_interval_s)
    entries = {}
    for s in range(1, n_s + 1):
        t = (s - 1) * scenario.sample_interval_s
        for tx in scenario.nodes:
            for rx in scenario.nodes:
                i, j = tx.node_id, rx.node_id
                if i == j:
                    snap = ChannelSnapshot(i, j, s, t, ())
                elif tx.speed_mps == 0 and s > 1:
                    snap = dataclasses.replace(
                        entries[(i, j)][0], sample_index=s, time_s=t
                    )
                else:
                    tx_pts, rx_pts = positions[i], positions[j]
                    paths = pair_paths_per_path(
                        tx_pts[min(s, len(tx_pts)) - 1],
                        rx_pts[min(s, len(rx_pts)) - 1],
                        tx.radio,
                        rx.radio.antenna_gain_rx_dbi,
                        scenario.reflectors,
                        scenario.reflection_loss_db,
                        scenario.max_bounces,
                    )
                    snap = ChannelSnapshot(i, j, s, t, paths)
                entries.setdefault((i, j), []).append(snap)
    return entries


def kmeans_per_centroid(delays, weights, k, tol, max_iter=50):
    """The k-means of ``tap_approx._kmeans_labels`` on one segment, as a loop
    over centroids; returns the nonempty clusters' index arrays."""
    order = np.lexsort((delays, -weights))
    centroids = np.unique(delays[order[:k]])
    for _ in range(max_iter):
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


def taps_per_snapshot(snapshot, p_tx_dbm, k, grid_dt_s, dyn_range_db, offset_db):
    """``tap_approx.approximate_taps`` on one snapshot, clustered by
    ``kmeans_per_centroid``; returns the tap tuple."""
    cir = snapshot_to_cir(snapshot, p_tx_dbm)
    if not cir:
        return ()
    delays = np.array([tau for tau, _ in cir])
    coeffs = np.array([c for _, c in cir], dtype=complex)
    weights = np.abs(coeffs) ** 2
    weights = weights / weights.max()
    if len(delays) <= k:
        clusters = [np.array([i]) for i in range(len(delays))]
    else:
        clusters = kmeans_per_centroid(delays, weights, k, grid_dt_s / 100.0)
    by_index = {}
    for members in clusters:
        w = weights[members]
        if members.size == 1:
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
    return tuple(taps)


def write_paths_per_record(matrix, path):
    """``mobility.write_paths_file`` as one ``json.dumps`` per record."""
    entries = matrix.entries
    with open(path, "w") as fh:
        for s in range(1, matrix.n_samples + 1):
            for i in matrix.node_ids:
                for j in matrix.node_ids:
                    if i == j:
                        continue
                    snap = entries[(i, j)][s - 1]
                    paths = []
                    for p in snap.paths:
                        rec = {
                            "p_rx_dbm": p.received_power_dbm,
                            "phase_rad": p.phase_rad,
                            "toa_s": p.toa_s,
                        }
                        if p.aoa_deg is not None:
                            rec["aoa_deg"] = p.aoa_deg
                        if p.aod_deg is not None:
                            rec["aod_deg"] = p.aod_deg
                        paths.append(rec)
                    rec = {"tx": i, "rx": j, "s": s, "t_s": snap.time_s, "paths": paths}
                    fh.write(json.dumps(rec) + "\n")


def read_paths_records_per_line(path):
    """``mobility.read_paths_records`` as one ``json.loads`` per line: a
    JSON-Lines paths file parsed into one snapshot per record.

    Each record's paths are stably sorted by toa and their phases reduced
    as RayPath reduces them. Errors name the file and the line: a malformed
    record, a value that is not finite, a negative toa, and a second record
    for a (tx, rx, s), which names the line of the first as well.
    """
    index = {}
    from_line = {}
    counts = []
    columns = ([], [], [], [], [])
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                try:
                    cols = mob._path_columns(rec["paths"])
                    plain = mob._plain(cols)
                except (KeyError, TypeError):
                    plain = False
                if not plain:
                    # RayPath raises the error of the first bad path, as it did
                    for p in rec["paths"]:
                        RayPath(
                            p["p_rx_dbm"], p["phase_rad"], p["toa_s"],
                            p.get("aoa_deg"), p.get("aod_deg"),
                        )
                    cols = mob._path_columns(rec["paths"])
                key = (rec["tx"], rec["rx"], rec["s"])
                first = from_line.setdefault(key, lineno)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}: line {lineno}: malformed paths record: {exc}"
                )
            if first != lineno:
                raise ValueError(
                    f"{path}: line {lineno}: second record for (tx, rx, s) = "
                    f"{key}, the first is on line {first}"
                )
            index[key] = len(counts)
            counts.append(len(cols[0]))
            for column, values in zip(columns, cols):
                column += values
    power, phase, toa, aoa, aod = (np.array(c, dtype=float) for c in columns)
    order = np.lexsort((toa, np.repeat(np.arange(len(counts)), counts)))
    table = PathTable.of_columns(
        counts,
        power[order],
        np.remainder(phase[order], TWO_PI),
        *(c[order] for c in (toa, aoa, aod)),
    )
    return mob.PathRecords(table, index)


def detect_per_frame(gains, anchor, floor_db, threshold_db, sample_rate_hz):
    """Per-frame lists of (delay_s, gain_db) of every strict circular local
    maximum at or above the level, one frame at a time."""
    level = floor_db + threshold_db
    is_max = (
        (gains > np.roll(gains, 1, axis=1))
        & (gains > np.roll(gains, -1, axis=1))
        & (gains >= level)
    )
    frame_len = gains.shape[1]
    detections = []
    for f, row in enumerate(is_max):
        lags = sorted(np.flatnonzero(row).tolist(), key=lambda l: (l - anchor) % frame_len)
        detections.append([
            (((lag - anchor) % frame_len) / sample_rate_hz, float(gains[f, lag]))
            for lag in lags
        ])
    return detections


def per_frame_lists(detections):
    """A ``Detections`` container as per-frame lists of (delay_s, gain_db)."""
    bounds = detections.offsets.tolist()
    delays = detections.delay_s.tolist()
    gains = detections.gain_db.tolist()
    return [
        list(zip(delays[a:b], gains[a:b])) for a, b in zip(bounds, bounds[1:])
    ]


def strongest_tap_series(report):
    """(times, delays, gains) of the strongest detected tap per frame.

    Frames with no detection carry NaN entries; among equal gains the
    first (smallest delay) wins.
    """
    det = report.detections
    delays = np.full(len(det), np.nan)
    gains = np.full(len(det), np.nan)
    best = det.strongest_rows()
    frames = np.flatnonzero(np.diff(det.offsets))
    delays[frames] = det.delay_s[best]
    gains[frames] = det.gain_db[best]
    return report.frame_times_s(), delays, gains


def write_csv_per_frame(report, path):
    """``write_report_csv`` as one csv.writer row per frame."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, taps in enumerate(per_frame_lists(report.detections)):
            frame_index = report.first_frame_index + i
            row = [frame_index, f"{frame_index * report.frame_duration_s:.9f}"]
            for delay, gain in taps:
                row += [f"{delay:.12g}", f"{gain:.6f}"]
            writer.writerow(row)


def _anchor_index(taps, pair):
    """Grid index of the strongest nonzero tap at t = 0, the lowest on ties;
    0 without one."""
    best = None
    for idx, c in taps.tap_lists[taps.tap_ids([0.0], pair[0], pair[1])[0]]:
        if abs(c) > 0 and (best is None or (abs(c), -idx) > (abs(best[1]), -best[0])):
            best = (idx, c)
    return 0 if best is None else best[0]


def _truth_taps_at(taps, pair, time_s, offset_db, fs, frame_len):
    """The nonzero taps at ``time_s``: delay in whole samples after the
    anchor tap's, wrapped modulo the frame, over ``fs``; gain in dB."""
    step = round(taps.grid_dt_s * fs)
    anchor = _anchor_index(taps, pair) * step
    tap_list = taps.tap_lists[taps.tap_ids([time_s], pair[0], pair[1])[0]]
    return [
        ((idx * step - anchor) % frame_len / fs, 20.0 * math.log10(abs(c)) - offset_db)
        for idx, c in tap_list
        if abs(c) > 0
    ]


def compare_per_frame(
    report, taps, base_loss_db, *, pair, delay_tol_s=None, gain_tol_db=0.5,
    strict=True,
):
    """``compare_to_ground_truth`` as a loop over frames and detections.

    A frame whose last sample takes another tap record than its start, or
    lies past the file, is mixed: it is counted, and its detections and
    truth taps are left out of the matching."""
    if delay_tol_s is None:
        delay_tol_s = taps.grid_dt_s / 2
    fs = report.sample_rate_hz
    frame_len = round(report.frame_duration_s * fs)
    duration_s = taps.duration_ms / 1000.0
    offset_db = taps.offset_db

    per_slot = {}
    spurious = 0
    missed = 0
    mixed = 0
    n_frames = 0
    frame_times = []
    strongest = []
    truth_strongest = []

    for i, detections in enumerate(per_frame_lists(report.detections)):
        t = (report.first_frame_index + i) * report.frame_duration_s
        if t >= duration_s:
            break
        truth = sorted(_truth_taps_at(taps, pair, t, offset_db, fs, frame_len))
        n_frames += 1
        frame_times.append(t)
        corrected = [
            (delay, gain + base_loss_db - offset_db) for delay, gain in detections
        ]
        if corrected:
            strongest.append(-max(g for _, g in corrected))
        else:
            strongest.append(float("nan"))
        if truth:
            truth_strongest.append(-max(g for _, g in truth))
        else:
            truth_strongest.append(float("nan"))

        last = ((report.first_frame_index + i + 1) * frame_len - 1) / fs
        if math.floor(last * 1000.0 + 1e-9) >= taps.duration_ms or (
            taps.tap_ids([last], *pair)[0] != taps.tap_ids([t], *pair)[0]
        ):
            mixed += 1
            continue
        matched_truth = set()
        for delay, gain in corrected:
            best = None
            for slot, (td, tg) in enumerate(truth):
                err = abs(delay - td)
                if err <= delay_tol_s and (best is None or err < best[0]):
                    best = (err, slot, td, tg)
            if best is None:
                spurious += 1
                continue
            _, slot, td, tg = best
            matched_truth.add(slot)
            per_slot.setdefault(slot, []).append((delay - td, gain - tg, td, tg))
        missed += len(truth) - len(matched_truth)

    if n_frames == 0:
        raise ValueError("no frames overlap the tap file time axis")

    tap_stats = []
    for slot in sorted(per_slot):
        rows = per_slot[slot]
        d_err = np.array([r[0] for r in rows])
        g_err = np.array([r[1] for r in rows])
        tap_stats.append(
            TapErrorStats(
                slot=slot,
                truth_delay_s=float(np.mean([r[2] for r in rows])),
                truth_gain_db=float(np.mean([r[3] for r in rows])),
                n_matched=len(rows),
                delay_error_mean_s=float(np.mean(d_err)),
                delay_error_sd_s=float(np.std(d_err)),
                delay_error_max_s=float(np.max(np.abs(d_err))),
                gain_error_mean_db=float(np.mean(g_err)),
                gain_error_sd_db=float(np.std(g_err)),
                gain_error_max_db=float(np.max(np.abs(g_err))),
            )
        )

    passed = bool(tap_stats) and all(
        abs(t.gain_error_mean_db) <= gain_tol_db
        and t.delay_error_max_s <= delay_tol_s
        for t in tap_stats
    )
    if strict and (spurious or missed):
        passed = False

    return ValidationReport(
        tap_stats=tap_stats,
        spurious=spurious,
        missed=missed,
        n_frames=n_frames,
        mixed_frames=mixed,
        frame_times_s=np.asarray(frame_times),
        strongest_loss_db=np.asarray(strongest),
        truth_strongest_loss_db=np.asarray(truth_strongest),
        delay_tol_s=delay_tol_s,
        gain_tol_db=gain_tol_db,
        strict=strict,
        passed=passed,
    )


def truth_series_per_frame(matrix, scenario, pair, frame_times):
    """``harness._truth_series_from_matrix`` as a loop over frames."""
    tx_power = {n.node_id: n.radio.tx_power_dbm for n in scenario.nodes}
    floors = {n.node_id: noise_floor_dbm(n.radio) for n in scenario.nodes}
    t_s = matrix.sample_interval_s
    losses = np.empty(len(frame_times))
    snapshots = matrix.entries[pair]
    cache = {}
    for i, t in enumerate(frame_times):
        s = min(int(math.floor(t / t_s)) + 1, matrix.n_samples)
        if s not in cache:
            snap = prune_paths(snapshots[s - 1], min(floors.values()))
            cache[s] = (
                link_path_loss_db(snap, tx_power[pair[0]])
                if snap.paths
                else float("nan")
            )
        losses[i] = cache[s]
    return losses


def write_tap_file_per_record(tap_file, path):
    """``write_tap_file`` as one formatted row per record."""
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


def read_tap_file_per_record(path):
    """``read_tap_file`` as one TapSet per row, without the range and
    duplicate checks."""
    header = {}
    records = {}
    with open(path) as fh:
        lines = fh.readlines()
    n_header = 0
    for line in lines:
        if not line.startswith("#"):
            break
        n_header += 1
        key, _, value = line[1:].strip().partition("=")
        header[key.strip()] = value.strip()
    grid_dt_s = float(header["grid_dt_s"])
    k = int(header["k"])
    for line in lines[n_header:]:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        ms, tx, rx = int(cells[0]), int(cells[1]), int(cells[2])
        taps = []
        for t in range(k):
            idx = int(cells[3 + 3 * t])
            re = float(cells[4 + 3 * t])
            im = float(cells[5 + 3 * t])
            if idx >= 0:
                taps.append((idx, complex(re, im)))
        records[(ms, tx, rx)] = TapSet(tuple(taps), grid_dt_s, ms)
    tap_file = TapFile(
        n_nodes=int(header["n_nodes"]),
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=int(header["duration_ms"]),
        offset_db=float(header["offset_db"]),
    )
    tap_file.records.update(records)
    tap_file.validate()
    return tap_file


def read_tap_file_per_line(path) -> TapFile:
    """``read_tap_file`` as one pass over the lines of a text-mode file;
    errors name the file and the offending line.

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
        try:  # the header's values are checked before any row
            TapFile(n_nodes, grid_dt_s, k, duration_ms, offset_db)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}")

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
            body = cells[3]
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
