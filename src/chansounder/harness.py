"""Orchestration and validation: ground-truth comparison, heatmaps, pipeline.

Ties the toolchain together: scenario configs are expanded into channel
matrices and tap files, captures are emulated and sounded, and detections
are scored against the tap-file ground truth. Detected gains are corrected
by adding back the emulation base loss and removing the dB offset the tap
file records, then matched to ground-truth taps by nearest delay within
half a grid step, both delays on the sounder's anchor reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import helper
from . import mobility as mob
from .channel_model import coherent_loss_db
from .config import PipelineConfig
from .config import load as load_config
from .emulator import (
    EmulatorConfig,
    _grid_step_samples,
    emulate_blocks,
    emulate_repeated_reference_to_file,
    pair_base_loss_db,
)
from .sequences import CodeSequence, bpsk_modulate
from .sounder import (
    SoundingConfig,
    SoundingReport,
    _write_rows,
    sound_blocks,
    sound_chunked,
    write_report_csv,
    write_report_json,
)
from .tap_approx import TapFile, _ms_of, write_tap_file

__all__ = [
    "PipelineError",
    "TapErrorStats",
    "ValidationReport",
    "PathLossHeatmap",
    "PipelineResult",
    "compare_to_ground_truth",
    "pathloss_heatmap",
    "build_synthetic_tap_file",
    "run_scenario_pipeline",
]


_MATCH_BATCH_ROWS = 1 << 12  # detections matched per batch in validation


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage and cause."""


@dataclass(frozen=True)
class TapErrorStats:
    """Error statistics of one truth tap slot, ordered by anchor-reference delay."""

    slot: int
    truth_delay_s: float
    truth_gain_db: float
    n_matched: int
    delay_error_mean_s: float
    delay_error_sd_s: float
    delay_error_max_s: float
    gain_error_mean_db: float
    gain_error_sd_db: float
    gain_error_max_db: float


@dataclass
class ValidationReport:
    """Detections scored against tap-file ground truth."""

    tap_stats: list
    spurious: int
    missed: int
    n_frames: int
    mixed_frames: int
    frame_times_s: np.ndarray
    strongest_loss_db: np.ndarray
    truth_strongest_loss_db: np.ndarray
    delay_tol_s: float
    gain_tol_db: float
    strict: bool
    passed: bool

    def max_abs_gain_error_db(self) -> float:
        if not self.tap_stats:
            return float("nan")
        return max(t.gain_error_max_db for t in self.tap_stats)

    def max_abs_delay_error_s(self) -> float:
        if not self.tap_stats:
            return float("nan")
        return max(t.delay_error_max_s for t in self.tap_stats)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "spurious": self.spurious,
            "missed": self.missed,
            "n_frames": self.n_frames,
            "mixed_frames": self.mixed_frames,
            "delay_tol_s": self.delay_tol_s,
            "gain_tol_db": self.gain_tol_db,
            "taps": [dataclasses.asdict(t) for t in self.tap_stats],
        }


@dataclass
class PathLossHeatmap:
    """Mean sounded path loss per ordered node pair; diagonal is NaN."""

    node_ids: list
    matrix_db: np.ndarray
    mean_db: float
    sd_db: float

    def write_csv(self, path) -> None:
        with helper.output(path) as fh:
            fh.write("tx\\rx," + ",".join(str(i) for i in self.node_ids) + "\n")
            for r, tx in enumerate(self.node_ids):
                cells = [
                    "" if math.isnan(self.matrix_db[r, c]) else f"{self.matrix_db[r, c]:.4f}"
                    for c in range(len(self.node_ids))
                ]
                fh.write(f"{tx}," + ",".join(cells) + "\n")


def _truth_runs(
    taps: TapFile, pair: tuple[int, int], times_s: np.ndarray, last_s: np.ndarray,
    fs: float, frame_len: int,
) -> tuple[np.ndarray, list, np.ndarray]:
    """Ground truth at each frame time, built once per run of one tap list.

    Returns each frame's run number; per run, the sorted (delay_s,
    original gain_db) list of its nonzero taps, the file's offset removed;
    and whether each frame is mixed: its last sample, at time ``last_s``,
    takes another record than its start, or lies past the file.
    A delay is as the sounder reports it: in whole samples after the anchor
    tap (the strongest nonzero tap at t = 0, the lowest index on ties, as
    ``np.argmax`` picks the anchor lag; delay 0 without one), wrapped modulo
    the ``frame_len``-sample frame, over ``fs``. ``TapFile.tap_ids`` picks
    each frame's record and reports a frame start outside the file.
    """
    step = _grid_step_samples(taps.grid_dt_s, fs)
    first = taps.tap_lists[taps.tap_ids([0.0], *pair)[0]]
    anchor = -max(((abs(c), -i) for i, c in first if abs(c) > 0), default=(0, 0))[1]
    ids = taps.tap_ids(times_s, pair[0], pair[1])
    last_ids = np.full_like(ids, -1)
    inside = _ms_of(last_s) < taps.duration_ms
    last_ids[inside] = taps.tap_ids(last_s[inside], pair[0], pair[1])
    starts = np.r_[True, ids[1:] != ids[:-1]]
    runs = [
        sorted(
            ((idx - anchor) * step % frame_len / fs,
             20.0 * math.log10(abs(c)) - taps.offset_db)
            for idx, c in taps.tap_lists[tid]
            if abs(c) > 0
        )
        for tid in ids[starts].tolist()
    ]
    return np.cumsum(starts) - 1, runs, last_ids != ids


def compare_to_ground_truth(
    report: SoundingReport,
    taps: TapFile,
    base_loss_db: float,
    *,
    pair: tuple[int, int],
    delay_tol_s: Optional[float] = None,
    gain_tol_db: float = 0.5,
    strict: bool = True,
) -> ValidationReport:
    """Score the detections of link ``pair`` against the tap file that drove
    its emulation.

    Detected gains are corrected by +base_loss and by -``taps.offset_db``,
    the offset the tap file was installed with. Truth delays are on the
    sounder's anchor reference (``_truth_runs``), so a detection on its tap
    has delay error 0.0. Each detection is matched to the nearest truth tap
    whose delay error is at most ``delay_tol_s`` (half a grid step by
    default), so every matched frame is inside the delay tolerance. A frame
    time at which ``pair`` has no record is a KeyError naming the pair and
    the millisecond. Unmatched detections count as spurious and unmatched
    truth taps as missed; in strict mode either fails the report. A mixed
    frame, whose last sample (at n / fs, as the emulator times sample n)
    takes another record than its start or lies past the file, was sounded
    through two channels: it counts in ``mixed_frames`` and ``n_frames``
    and the loss series, but its detections and truth taps go unscored. The gain
    tolerance applies to each tap's measured gain (its mean over frames, as
    in the accuracy figures it mirrors); per-frame noise dispersion is
    reported via the SD fields.

    Detections are matched ``_MATCH_BATCH_ROWS`` rows at a time, which
    bounds the (rows, truth slots) temporaries of a long run; the matched
    columns are reduced once, in frame order, so the statistics do not
    depend on the batch size.
    """
    if delay_tol_s is None:
        delay_tol_s = taps.grid_dt_s / 2
    duration_s = taps.duration_ms / 1000.0
    offset_db = taps.offset_db

    # frames are in time order, so the ones inside the tap file are a prefix
    times = report.frame_times_s()
    n_frames = int(np.count_nonzero(times < duration_s))
    if n_frames == 0:
        raise ValueError("no frames overlap the tap file time axis")
    times = times[:n_frames]
    det = report.detections.frames(0, n_frames)
    fs = report.sample_rate_hz
    frame_len = round(report.frame_duration_s * fs)
    last = ((report.first_frame_index + np.arange(1, n_frames + 1)) * frame_len - 1) / fs
    frame_run, runs, mixed = _truth_runs(taps, pair, times, last, fs, frame_len)

    k = max(1, *(len(r) for r in runs))  # one empty slot keeps argmin defined
    truth_delay = np.full((len(runs), k), np.nan)
    truth_gain = np.full((len(runs), k), np.nan)
    for r, truth in enumerate(runs):
        if truth:
            truth_delay[r, : len(truth)], truth_gain[r, : len(truth)] = zip(*truth)
    n_truth = np.array([len(r) for r in runs])

    # each frame's strongest-tap loss, made before the matching's columns
    strongest = np.full(n_frames, np.nan)
    strongest[np.diff(det.offsets) > 0] = -(
        det.gain_db[det.strongest_rows()] + base_loss_db - offset_db
    )
    frame = det.frame_of_rows()
    delay = det.delay_s
    gain = det.gain_db + base_loss_db - offset_db

    # nearest truth slot within tolerance; argmin takes the lowest slot on
    # ties; rows go in batches, so the (rows, k) temporaries stay small
    matched = np.empty(delay.size, dtype=bool)
    slot = np.empty(delay.size, dtype=np.intp)
    for a in range(0, delay.size, _MATCH_BATCH_ROWS):
        b = a + _MATCH_BATCH_ROWS
        err = np.abs(delay[a:b, None] - truth_delay[frame_run[frame[a:b]]])
        in_tol = err <= delay_tol_s
        matched[a:b] = in_tol.any(axis=1)
        slot[a:b] = np.argmin(np.where(in_tol, err, np.inf), axis=1)
    scored = ~mixed[frame]  # a mixed frame's rows are neither matched nor spurious
    matched &= scored
    slot = slot[matched]
    frame = frame[matched]
    spurious = int(np.count_nonzero(scored) - np.count_nonzero(matched))
    run = frame_run[frame]
    td = truth_delay[run, slot]
    tg = truth_gain[run, slot]
    d_err = delay[matched] - td
    g_err = gain[matched] - tg
    hit = np.zeros((n_frames, k), dtype=bool)
    hit[frame, slot] = True
    missed = int(np.sum(n_truth[frame_run[~mixed]]) - np.count_nonzero(hit))

    run_strongest = np.array([-max(g for _, g in r) if r else np.nan for r in runs])

    tap_stats = []
    for s in np.flatnonzero(np.bincount(slot, minlength=k)).tolist():
        rows = slot == s
        tap_stats.append(
            TapErrorStats(
                slot=s,
                truth_delay_s=float(np.mean(td[rows])),
                truth_gain_db=float(np.mean(tg[rows])),
                n_matched=int(np.count_nonzero(rows)),
                delay_error_mean_s=float(np.mean(d_err[rows])),
                delay_error_sd_s=float(np.std(d_err[rows])),
                delay_error_max_s=float(np.max(np.abs(d_err[rows]))),
                gain_error_mean_db=float(np.mean(g_err[rows])),
                gain_error_sd_db=float(np.std(g_err[rows])),
                gain_error_max_db=float(np.max(np.abs(g_err[rows]))),
            )
        )

    passed = bool(tap_stats) and all(
        abs(t.gain_error_mean_db) <= gain_tol_db for t in tap_stats
    )
    if strict and (spurious or missed):
        passed = False

    return ValidationReport(
        tap_stats=tap_stats,
        spurious=spurious,
        missed=missed,
        n_frames=n_frames,
        mixed_frames=int(np.count_nonzero(mixed)),
        frame_times_s=times,
        strongest_loss_db=strongest,
        truth_strongest_loss_db=run_strongest[frame_run],
        delay_tol_s=delay_tol_s,
        gain_tol_db=gain_tol_db,
        strict=strict,
        passed=passed,
    )


def build_synthetic_tap_file(
    delays_s: Sequence[float],
    losses_db: Sequence[float],
    grid_dt_s: float,
    duration_ms: int,
    pair: tuple[int, int] = (1, 2),
    phases_rad: Optional[Sequence[float]] = None,
    k: int = 4,
    offset_db: float = 0.0,
    n_nodes: int = 2,
) -> TapFile:
    """Static tap file from explicit per-tap delays and losses."""
    if len(delays_s) != len(losses_db):
        raise ValueError("delays and losses must have equal length")
    if phases_rad is None:
        phases_rad = [0.0] * len(delays_s)
    taps = []
    scale = 10.0 ** (offset_db / 20.0)
    for d, loss, ph in zip(delays_s, losses_db, phases_rad):
        idx = int(round(d / grid_dt_s))
        if abs(idx * grid_dt_s - d) > 1e-12 + 1e-9 * abs(d):
            raise ValueError(f"delay {d} s is not on the {grid_dt_s} s grid")
        mag = 10.0 ** (-loss / 20.0) * scale
        taps.append((idx, mag * complex(math.cos(ph), math.sin(ph))))
    taps.sort()
    return TapFile(
        n_nodes=n_nodes,
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=duration_ms,
        offset_db=offset_db,
        tap_lists=[taps],
        index={pair: np.zeros(duration_ms, dtype=np.int32)},
    )


def pathloss_heatmap(
    node_ids: Sequence[int],
    window_s: float,
    emulator_config: EmulatorConfig,
    sequence: CodeSequence,
    sample_rate_hz: float = 1e6,
    out_dir: Optional[Path] = None,
) -> PathLossHeatmap:
    """Mean sounded path loss for every ordered pair in a 0 dB scenario.

    Each link sends ``sequence`` at one sample per chip through a unit tap
    at delay zero; the cell value is the mean strongest-tap loss over
    ``window_s`` of reception, so an ideal chain reproduces the configured
    base loss in every cell. Links are emulated and sounded in memory;
    ``out_dir`` is accepted for compatibility and unused.
    """
    node_ids = list(node_ids)
    if len(node_ids) < 2:
        raise ValueError("heatmap needs at least 2 nodes")
    ref = bpsk_modulate(sequence)
    frame_len = len(ref)
    total_samples = max(frame_len * 2, int(round(window_s * sample_rate_hz)))
    duration_ms = int(math.ceil(total_samples / sample_rate_hz * 1000.0)) + 1
    grid_dt_s = 1.0 / sample_rate_hz

    n = len(node_ids)
    matrix = np.full((n, n), np.nan)
    sconfig = SoundingConfig(sample_rate_hz=sample_rate_hz)
    for r, tx in enumerate(node_ids):
        for c, rx in enumerate(node_ids):
            if tx == rx:
                continue
            taps = build_synthetic_tap_file(
                [0.0], [0.0], grid_dt_s, duration_ms, pair=(tx, rx),
                n_nodes=n,
            )
            blocks = emulate_blocks(
                taps, (tx, rx), emulator_config, ref, sample_rate_hz, total_samples
            )
            det = sound_blocks(blocks, sconfig, ref, sample_rate_hz).detections
            matrix[r, c] = -float(np.mean(det.gain_db[det.strongest_rows()]))

    off_diag = matrix[~np.isnan(matrix)]
    return PathLossHeatmap(
        node_ids=node_ids,
        matrix_db=matrix,
        mean_db=float(np.mean(off_diag)),
        sd_db=float(np.std(off_diag)),
    )


@dataclass
class PipelineResult:
    """Artifacts and outcomes of one scenario pipeline run."""

    out_dir: Path
    artifacts: dict
    validations: dict
    rmse_db: dict
    passed: bool


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a PipelineError naming ``name``."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage '{name}' failed: {exc}") from exc


def run_scenario_pipeline(config_path, out_dir, seed: Optional[int] = None) -> PipelineResult:
    """Execute mobility -> taps -> emulate -> sound -> validate for a config.

    ``config_path`` is a scenario JSON, or the ``PipelineConfig`` parsed from
    one; it is parsed before any output is made. Writes the paths file, tap
    file, IQ captures with sidecars, sounding reports (JSON + per-frame CSV),
    validation reports, and a per-link time-vs-path-loss CSV comparing ground
    truth with the sounded series. Synthetic-tap configs (key
    "synthetic_taps") skip the mobility stage.
    """
    with _stage("load"):
        cfg = config_path
        if not isinstance(cfg, PipelineConfig):
            cfg = load_config(config_path)
        st = cfg.synthetic_taps
        scenario = cfg.require_scenario() if st is None else None
    matrix = None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}

    if st is None:
        paths_path = out_dir / "paths.jsonl"
        with _stage("mobility"):
            matrix = mob.assemble_channel_matrix(scenario)
            mob.write_paths_file(matrix, paths_path)
        artifacts["paths_file"] = str(paths_path)
    tap_path = out_dir / "taps.csv"
    with _stage("taps"):
        if st is None:
            tap_file = cfg.build_tap_file(matrix)
        else:
            tap_file = build_synthetic_tap_file(
                [d * 1e-6 for d in st.delays_us], st.losses_db, cfg.taps.grid_dt_s,
                cfg.duration_ms, pair=st.pair, phases_rad=st.phases_rad, k=cfg.taps.k,
                offset_db=cfg.taps.offset_db,
            )
        write_tap_file(tap_file, tap_path)
    artifacts["tap_file"] = str(tap_path)
    emulator_config = cfg.emulator_config(tap_file, seed)
    ref = cfg.reference()

    validations: dict = {}
    rmse: dict = {}
    for pair in cfg.sounded_links:
        validations[pair], rmse[pair] = _run_link(
            cfg, tap_file, matrix, emulator_config, ref, pair, out_dir, artifacts
        )
    passed = all(v.passed for v in validations.values())
    return PipelineResult(out_dir, artifacts, validations, rmse, passed)


def _run_link(cfg, tap_file, matrix, emulator_config, ref, pair, out_dir, artifacts):
    """Emulate, sound and validate one link; its validation and RMSE.

    Each link runs in a call of its own, so its report, truth series and
    payloads are freed before the next link starts. Adds the link's outputs
    to ``artifacts``.
    """
    tag = f"{pair[0]}-{pair[1]}"
    capture = out_dir / f"capture_{tag}.iq"
    with _stage("emulate"):
        emulate_repeated_reference_to_file(
            tap_file, pair, emulator_config, ref, cfg.sounding.sample_rate_hz,
            cfg.total_samples, capture,
        )
    artifacts[f"capture_{tag}"] = str(capture)

    report_json = out_dir / f"sounding_{tag}.json"
    with _stage("sound"):
        report = sound_chunked(capture, cfg.sounding, ref)
        write_report_json(report, report_json)
        write_report_csv(report, out_dir / f"sounding_{tag}.csv")
    artifacts[f"sounding_{tag}"] = str(report_json)

    with _stage("validate"):
        validation = compare_to_ground_truth(
            report, tap_file, pair_base_loss_db(emulator_config, *pair), pair=pair,
            gain_tol_db=cfg.validation.gain_tol_db, strict=cfg.validation.strict,
        )

    # Ground-truth coherent (all-path) loss series vs sounded strongest tap.
    truth = validation.truth_strongest_loss_db
    if matrix is not None:
        build = cfg.tap_build_kwargs()  # the tap build's powers and floor
        truth = _truth_series_from_matrix(
            matrix, pair, validation.frame_times_s,
            build["tx_power_dbm"], build["prune_floor_dbm"],
        )
    sounded = validation.strongest_loss_db
    ok = ~(np.isnan(truth) | np.isnan(sounded))
    rmse = (
        float(np.sqrt(np.mean((truth[ok] - sounded[ok]) ** 2)))
        if ok.any()
        else float("nan")
    )
    series_path = out_dir / f"pathloss_series_{tag}.csv"
    with helper.output(series_path) as fh:
        fh.write("time_s,truth_loss_db,sounded_loss_db\n")
        _write_rows(
            fh, "%.9f,%.6f,%.6f\n",
            np.column_stack((validation.frame_times_s, truth, sounded)),
        )
    artifacts[f"pathloss_series_{tag}"] = str(series_path)

    vpath = out_dir / f"validation_{tag}.json"
    payload = validation.to_dict()
    payload["rmse_strongest_vs_truth_db"] = rmse
    with helper.output(vpath) as fh:
        json.dump(payload, fh, indent=2)
    artifacts[f"validation_{tag}"] = str(vpath)
    return validation, rmse


def _truth_series_from_matrix(matrix, pair, frame_times, tx_power_dbm, prune_floor_dbm):
    """Coherent link path loss at each frame time, from the channel matrix.

    Each sample's snapshot is pruned at ``prune_floor_dbm`` and given its
    path coefficients by the tap build's step, :meth:`PathTable.coefficients`;
    its loss is their coherent sum. A frame at time t takes the loss of
    sample ``matrix.sample_of(t)``. ``tx_power_dbm`` maps node ids to
    transmit power.
    """
    _, counts, coeffs = matrix.paths.coefficients(
        matrix.index[pair], np.full(matrix.n_samples, tx_power_dbm[pair[0]]), prune_floor_dbm
    )
    return coherent_loss_db(coeffs, counts)[matrix.sample_of(frame_times) - 1]
