"""Per-frame and per-record reference implementations.

These are the Python loops that detection, validation, the truth series and
tap-file I/O ran before their data was stored as columns and run-length
arrays. Tests hold the vectorized code to them exactly: same detections,
same tie-breaking, same statistics bit for bit, same tap-file bytes.
"""

import csv
import math

import numpy as np

from chansounder.channel_model import link_path_loss_db, noise_floor_dbm, prune_paths
from chansounder.harness import TapErrorStats, ValidationReport
from chansounder.tap_approx import TapFile, TapSet


def detect_per_frame(gains, anchor, floor_db, threshold_db, guard, sample_rate_hz):
    """Per-frame lists of (delay_s, gain_db), one frame at a time."""
    level = floor_db + threshold_db
    is_max = (
        (gains > np.roll(gains, 1, axis=1))
        & (gains > np.roll(gains, -1, axis=1))
        & (gains >= level)
    )
    n_frames, frame_len = gains.shape
    detections = [[] for _ in range(n_frames)]
    frame_idx, lag_idx = np.nonzero(is_max)
    boundaries = np.searchsorted(frame_idx, np.arange(n_frames + 1))
    for f in range(n_frames):
        lags = lag_idx[boundaries[f] : boundaries[f + 1]]
        if lags.size == 0:
            continue
        g = gains[f, lags]
        order = np.argsort(g)[::-1]
        kept = []
        for o in order:
            lag = int(lags[o])
            clash = any(
                min((lag - kl) % frame_len, (kl - lag) % frame_len) < guard
                for kl in kept
            )
            if not clash:
                kept.append(lag)
        detections[f] = [
            (((lag - anchor) % frame_len) / sample_rate_hz, float(gains[f, lag]))
            for lag in sorted(kept, key=lambda l: (l - anchor) % frame_len)
        ]
    return detections


def per_frame_lists(detections):
    """A ``Detections`` container as per-frame lists of (delay_s, gain_db)."""
    bounds = detections.offsets.tolist()
    delays = detections.delay_s.tolist()
    gains = detections.gain_db.tolist()
    return [
        list(zip(delays[a:b], gains[a:b])) for a, b in zip(bounds, bounds[1:])
    ]


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


def _truth_taps_at(taps, pair, time_s, offset_db):
    ts = taps.active_tapset(time_s, pair[0], pair[1])
    return [
        (idx * taps.grid_dt_s, 20.0 * math.log10(abs(c)) - offset_db)
        for idx, c in ts.taps
        if abs(c) > 0
    ]


def compare_per_frame(
    report, taps, base_loss_db, offset_db, pair=None, delay_tol_s=None,
    gain_tol_db=0.5, strict=True,
):
    """``compare_to_ground_truth`` as a loop over frames and detections."""
    pairs = taps.pairs()
    if pair is None:
        if len(pairs) != 1:
            raise ValueError("tap file has multiple pairs; specify one")
        pair = pairs[0]
    if delay_tol_s is None:
        delay_tol_s = taps.grid_dt_s
    duration_s = taps.duration_ms / 1000.0

    per_slot = {}
    spurious = 0
    missed = 0
    n_frames = 0
    frame_times = []
    strongest = []
    truth_strongest = []

    for i, detections in enumerate(per_frame_lists(report.detections)):
        t = (report.first_frame_index + i) * report.frame_duration_s
        if t >= duration_s:
            break
        truth = sorted(_truth_taps_at(taps, pair, t, offset_db))
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

        matched_truth = set()
        for delay, gain in corrected:
            best = None
            for slot, (td, tg) in enumerate(truth):
                err = abs(delay - td)
                if err <= delay_tol_s + 1e-15 and (best is None or err < best[0]):
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
    cache = {}
    for i, t in enumerate(frame_times):
        s = min(int(math.floor(t / t_s)) + 1, matrix.n_samples)
        if s not in cache:
            snap = matrix.snapshot(pair[0], pair[1], s)
            snap = prune_paths(snap, min(floors.values()))
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
