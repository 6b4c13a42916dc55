"""Orchestration and validation: ground-truth comparison, heatmaps, pipeline.

Ties the toolchain together: scenario configs are expanded into channel
matrices and tap files, captures are emulated and sounded, and detections
are scored against the tap-file ground truth. Detected gains are corrected
by adding back the emulation base loss and removing any dB offset applied
when the tap file was installed, then matched to ground-truth taps by
nearest delay within one grid step.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import mobility as mob
from . import sequences as seq
from .channel_model import link_path_loss_db, noise_floor_dbm, prune_paths
from .emulator import (
    EmulatorConfig,
    emulate_blocks,
    emulate_repeated_reference_to_file,
    noise_floor_db_for_dynamic_range,
    pair_base_loss_db,
)
from .sounder import (
    SoundingConfig,
    SoundingReport,
    sound_blocks,
    sound_chunked,
    write_report_csv,
    write_report_json,
)
from .tap_approx import (
    TapFile,
    TapSet,
    build_tap_file_from_matrix,
    write_tap_file,
)

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


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage and cause."""


@dataclass(frozen=True)
class TapErrorStats:
    """Error statistics for one ground-truth tap slot (sorted by delay)."""

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
        with open(path, "w") as fh:
            fh.write("tx\\rx," + ",".join(str(i) for i in self.node_ids) + "\n")
            for r, tx in enumerate(self.node_ids):
                cells = [
                    "" if math.isnan(self.matrix_db[r, c]) else f"{self.matrix_db[r, c]:.4f}"
                    for c in range(len(self.node_ids))
                ]
                fh.write(f"{tx}," + ",".join(cells) + "\n")


def _truth_taps_at(
    taps: TapFile, pair: tuple[int, int], time_s: float, offset_db: float
) -> list[tuple[float, float]]:
    """Ground-truth (delay_s, original gain_db) list active at a time."""
    ts = taps.active_tapset(time_s, pair[0], pair[1])
    return [
        (idx * taps.grid_dt_s, 20.0 * math.log10(abs(c)) - offset_db)
        for idx, c in ts.taps
        if abs(c) > 0
    ]


def compare_to_ground_truth(
    report: SoundingReport,
    taps: TapFile,
    base_loss_db: float,
    offset_db: float,
    pair: Optional[tuple[int, int]] = None,
    delay_tol_s: Optional[float] = None,
    gain_tol_db: float = 0.5,
    strict: bool = True,
) -> ValidationReport:
    """Score detections against the tap file that drove the emulation.

    Detected gains are corrected by +base_loss and -offset; each detection
    is matched to the nearest ground-truth tap within one grid step (or
    ``delay_tol_s``). Unmatched detections count as spurious and unmatched
    truth taps as missed; in strict mode either fails the report. The gain
    tolerance applies to each tap's measured gain (its mean over frames, as
    in the accuracy figures it mirrors); per-frame noise dispersion is
    reported via the SD fields. Delay errors must stay inside the tolerance
    on every frame.
    """
    pairs = taps.pairs()
    if pair is None:
        if len(pairs) != 1:
            raise ValueError("tap file has multiple pairs; specify one")
        pair = pairs[0]
    if delay_tol_s is None:
        delay_tol_s = taps.grid_dt_s
    duration_s = taps.duration_ms / 1000.0

    per_slot: dict[int, list[tuple[float, float, float, float]]] = {}
    spurious = 0
    missed = 0
    n_frames = 0
    frame_times = []
    strongest = []
    truth_strongest = []

    for i, detections in enumerate(report.detections):
        t = report.frame_time_s(report.first_frame_index + i)
        if t >= duration_s:
            break
        truth = sorted(_truth_taps_at(taps, pair, t, offset_db))
        n_frames += 1
        frame_times.append(t)
        corrected = [
            (d.delay_s, d.gain_db + base_loss_db - offset_db) for d in detections
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
    records = {}
    for ms in range(duration_ms):
        records[(ms, pair[0], pair[1])] = TapSet(tuple(taps), grid_dt_s, ms)
    return TapFile(
        n_nodes=n_nodes,
        grid_dt_s=grid_dt_s,
        k=k,
        duration_ms=duration_ms,
        offset_db=offset_db,
        records=records,
    )


def pathloss_heatmap(
    node_ids: Sequence[int],
    window_s: float,
    emulator_config: EmulatorConfig,
    sequence=None,
    sample_rate_hz: float = 1e6,
    samples_per_chip: int = 1,
    out_dir: Optional[Path] = None,
) -> PathLossHeatmap:
    """Mean sounded path loss for every ordered pair in a 0 dB scenario.

    Each link gets a unit tap at delay zero; the cell value is the mean
    strongest-tap loss over ``window_s`` of reception, so an ideal chain
    reproduces the configured base loss in every cell. Links are emulated
    and sounded in memory; ``out_dir`` is accepted for compatibility and
    unused.
    """
    node_ids = list(node_ids)
    if len(node_ids) < 2:
        raise ValueError("heatmap needs at least 2 nodes")
    if sequence is None:
        sequence = seq.generate_glfsr(8)
    ref = seq.bpsk_modulate(sequence, samples_per_chip).samples.real
    frame_len = len(ref)
    total_samples = max(frame_len * 2, int(round(window_s * sample_rate_hz)))
    duration_ms = int(math.ceil(total_samples / sample_rate_hz * 1000.0)) + 1
    grid_dt_s = 1.0 / sample_rate_hz

    n = len(node_ids)
    matrix = np.full((n, n), np.nan)
    sconfig = SoundingConfig(sample_rate_hz=sample_rate_hz, discard_frames=1)
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
            report = sound_blocks(
                blocks, sconfig, sequence, sample_rate_hz, samples_per_chip
            )
            _, _, gains = report.strongest_tap_series()
            valid = ~np.isnan(gains)
            matrix[r, c] = -float(np.mean(gains[valid]))

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


def _stage(name: str):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(f"stage '{name}' failed: {exc}") from exc

        return run

    return wrap


def _sequence_from_config(cfg: dict):
    family = cfg.get("family", "GLFSR").upper()
    if family == "GLFSR":
        return seq.generate_glfsr(
            cfg.get("degree", 8), cfg.get("mask", 0), cfg.get("seed", 1)
        )
    if family == "GOLD":
        return seq.generate_gold(
            cfg.get("degree", 8),
            cfg.get("poly_a"),
            cfg.get("poly_b"),
            cfg.get("shift", 0),
        )
    if family == "GOLAY_A":
        return seq.generate_golay_a(cfg.get("length", 128))
    if family == "LS":
        return seq.generate_ls(cfg.get("order", 5))
    raise ValueError(f"unknown sequence family {family!r}")


def run_scenario_pipeline(
    config_path,
    out_dir,
    seed: Optional[int] = None,
) -> PipelineResult:
    """Execute mobility -> taps -> emulate -> sound -> validate for a config.

    Writes the paths file, tap file, IQ captures with sidecars, sounding
    reports (JSON + per-frame CSV), validation reports, and a per-link
    time-vs-path-loss CSV comparing ground truth with the sounded series.
    Synthetic-tap configs (key "synthetic_taps") skip the mobility stage.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = Path(config_path)
    cfg = json.loads(config_path.read_text())
    if not cfg.get("nodes") and "synthetic_taps" not in cfg:
        raise PipelineError("stage 'load' failed: scenario declares no nodes")

    snd_cfg = cfg.get("sounding", {})
    emu_cfg = cfg.get("emulator", {})
    tap_cfg = cfg.get("taps", {})
    fs = float(snd_cfg.get("sample_rate_hz", 1e6))
    spc = int(snd_cfg.get("samples_per_chip", 1))
    sequence = _sequence_from_config(snd_cfg.get("sequence", {}))
    ref = seq.bpsk_modulate(sequence, spc).samples.real
    grid_dt_s = float(tap_cfg.get("grid_dt_s", 1.0 / fs))
    offset_db = float(tap_cfg.get("offset_db", 0.0))
    duration_s = float(cfg.get("duration_s", cfg.get("t_total_s", 1.0)))
    duration_ms = int(round(duration_s * 1000.0))
    if seed is None:
        seed = int(cfg.get("seed", 0))

    artifacts: dict = {}

    matrix = None
    scenario = None
    if "synthetic_taps" in cfg:
        st = cfg["synthetic_taps"]
        build = _stage("taps")(build_synthetic_tap_file)
        tap_file = build(
            [d * 1e-6 for d in st["delays_us"]],
            st["losses_db"],
            grid_dt_s,
            duration_ms,
            pair=tuple(st.get("pair", (1, 2))),
            phases_rad=st.get("phases_rad"),
            k=int(tap_cfg.get("k", 4)),
            offset_db=offset_db,
        )
        sounded_links = [tuple(st.get("pair", (1, 2)))]
    else:
        load = _stage("mobility")(lambda: mob.load_scenario(config_path))
        scenario = load()
        build_matrix = _stage("mobility")(mob.assemble_channel_matrix)
        matrix = build_matrix(scenario)
        paths_path = out_dir / "paths.jsonl"
        _stage("mobility")(mob.write_paths_file)(matrix, paths_path)
        artifacts["paths_file"] = str(paths_path)

        sounded_links = [tuple(p) for p in cfg.get("sounded_links", [])]
        if not sounded_links:
            ids = scenario.node_ids
            sounded_links = [(i, j) for i in ids for j in ids if i != j]
        tx_power = {n.node_id: n.radio.tx_power_dbm for n in scenario.nodes}
        floors = {
            n.node_id: noise_floor_dbm(n.radio) for n in scenario.nodes
        }
        build = _stage("taps")(build_tap_file_from_matrix)
        tap_file = build(
            matrix,
            tx_power,
            duration_ms,
            k=int(tap_cfg.get("k", 4)),
            grid_dt_s=grid_dt_s,
            dyn_range_db=float(tap_cfg.get("dyn_range_db", 43.0)),
            offset_db=offset_db,
            pairs=sounded_links,
            prune_floor_dbm=min(floors.values()),
        )

    tap_path = out_dir / "taps.csv"
    _stage("taps")(write_tap_file)(tap_file, tap_path)
    artifacts["tap_file"] = str(tap_path)

    base_loss_db = float(emu_cfg.get("base_loss_db", 57.55))
    noise_floor = None
    if emu_cfg.get("noise", True):
        peak_amp = max(
            (abs(c) for ts in tap_file.records.values() for _, c in ts.taps),
            default=0.0,
        )
        if peak_amp > 0:
            noise_floor = noise_floor_db_for_dynamic_range(
                peak_amp * 10.0 ** (-base_loss_db / 20.0),
                sequence.length,
                spc,
                float(emu_cfg.get("dyn_range_db", 43.0)),
            )
    emulator_config = EmulatorConfig(
        base_loss_db=base_loss_db,
        base_loss_sd_db=float(emu_cfg.get("base_loss_sd_db", 0.0)),
        noise_floor_db=noise_floor,
        seed=seed,
    )
    total_samples = int(round(duration_s * fs))

    sounding_config = SoundingConfig(
        sample_rate_hz=fs,
        detection_threshold_db=float(snd_cfg.get("detection_threshold_db", 6.0)),
        chunk_duration_s=float(snd_cfg.get("chunk_duration_s", 60.0)),
        guard_samples=int(snd_cfg.get("guard_samples", 2)),
        discard_frames=int(snd_cfg.get("discard_frames", 1)),
    )

    validations: dict = {}
    rmse: dict = {}
    passed = True
    for pair in sounded_links:
        tag = f"{pair[0]}-{pair[1]}"
        capture = out_dir / f"capture_{tag}.iq"
        _stage("emulate")(emulate_repeated_reference_to_file)(
            tap_file, pair, emulator_config, ref, fs, total_samples, capture
        )
        artifacts[f"capture_{tag}"] = str(capture)

        report = _stage("sound")(sound_chunked)(
            capture, sounding_config, sequence, spc
        )
        report_json = out_dir / f"sounding_{tag}.json"
        report_csv = out_dir / f"sounding_{tag}.csv"
        _stage("sound")(write_report_json)(report, report_json)
        _stage("sound")(write_report_csv)(report, report_csv)
        artifacts[f"sounding_{tag}"] = str(report_json)

        validation = _stage("validate")(compare_to_ground_truth)(
            report,
            tap_file,
            base_loss_db=pair_base_loss_db(emulator_config, *pair),
            offset_db=offset_db,
            pair=pair,
            gain_tol_db=float(cfg.get("validation", {}).get("gain_tol_db", 0.5)),
            strict=bool(cfg.get("validation", {}).get("strict", True)),
        )
        validations[pair] = validation
        passed = passed and validation.passed

        # Ground-truth coherent (all-path) loss series vs sounded strongest tap.
        if matrix is not None:
            truth = _truth_series_from_matrix(
                matrix, scenario, pair, validation.frame_times_s
            )
        else:
            truth = validation.truth_strongest_loss_db
        sounded = validation.strongest_loss_db
        ok = ~(np.isnan(truth) | np.isnan(sounded))
        rmse[pair] = (
            float(np.sqrt(np.mean((truth[ok] - sounded[ok]) ** 2)))
            if ok.any()
            else float("nan")
        )
        series_path = out_dir / f"pathloss_series_{tag}.csv"
        with open(series_path, "w") as fh:
            fh.write("time_s,truth_loss_db,sounded_loss_db\n")
            for t, lt, ls in zip(validation.frame_times_s, truth, sounded):
                fh.write(f"{t:.9f},{lt:.6f},{ls:.6f}\n")
        artifacts[f"pathloss_series_{tag}"] = str(series_path)

        vpath = out_dir / f"validation_{tag}.json"
        payload = validation.to_dict()
        payload["rmse_strongest_vs_truth_db"] = rmse[pair]
        vpath.write_text(json.dumps(payload, indent=2))
        artifacts[f"validation_{tag}"] = str(vpath)

    return PipelineResult(
        out_dir=out_dir,
        artifacts=artifacts,
        validations=validations,
        rmse_db=rmse,
        passed=passed,
    )


def _truth_series_from_matrix(matrix, scenario, pair, frame_times):
    """Coherent link path loss at each frame time, from the channel matrix."""
    tx_power = {n.node_id: n.radio.tx_power_dbm for n in scenario.nodes}
    floors = {n.node_id: noise_floor_dbm(n.radio) for n in scenario.nodes}
    t_s = matrix.sample_interval_s
    losses = np.empty(len(frame_times))
    cache: dict[int, float] = {}
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
