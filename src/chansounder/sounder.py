"""Cross-correlation channel sounder: CIR frames, path gains, tap detection.

The received stream is segmented into frames of one code period. Per frame
the in-phase and quadrature CIR components are the circular correlations of
the received I and Q samples with the real BPSK reference, both normalized
by the reference inner product, so a frame containing exactly the reference
has a correlation peak of 1.0. Correlation runs over FFTs; tests hold it to
the direct-sum definition at 1e-9 relative.

Every sounding path runs through one block consumer, ``sound_blocks``:
long streams arrive in blocks of any size, and chunked and single-pass
runs produce identical detections while peak memory stays bounded by one
block.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .emulator import (
    DEFAULT_BLOCK_SAMPLES,
    IqStream,
    iq_file_sample_count,
    read_iq_file,
    read_iq_sidecar,
)
from .sequences import CodeSequence

__all__ = [
    "CirFrame",
    "DetectedTap",
    "SoundingConfig",
    "SoundingReport",
    "compute_cir_frames",
    "path_gains_db",
    "estimate_noise_floor_gain_db",
    "detect_taps",
    "sound_blocks",
    "sound_stream",
    "sound_chunked",
    "write_report_json",
    "write_report_csv",
]

DEFAULT_DETECTION_THRESHOLD_DB = 6.0
DEFAULT_GUARD_SAMPLES = 2

_MIN_GAIN_DB = -400.0  # stands in for -inf when taking log of zero


@dataclass(frozen=True)
class CirFrame:
    """One code period's channel impulse response estimate."""

    frame_index: int
    lag_axis_s: np.ndarray
    h_i: np.ndarray
    h_q: np.ndarray
    h_abs: np.ndarray


@dataclass(frozen=True)
class DetectedTap:
    """A detected channel tap: delay relative to the anchor peak, gain."""

    delay_s: float
    gain_db: float
    frame_index: int

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


@dataclass(frozen=True)
class SoundingConfig:
    """Sounder processing parameters.

    p_t_db / g_t_db / g_r_db are the transmit power and amplifier gains
    subtracted from correlation magnitudes when forming path gains; all are
    dB-relative quantities. ``chunk_duration_s`` caps the block length
    :func:`sound_chunked` reads from a capture, which bounds its memory.
    """

    p_t_db: float = 0.0
    g_t_db: float = 0.0
    g_r_db: float = 0.0
    sample_rate_hz: float = 0.0
    detection_threshold_db: float = DEFAULT_DETECTION_THRESHOLD_DB
    chunk_duration_s: float = 60.0
    guard_samples: int = DEFAULT_GUARD_SAMPLES
    discard_frames: int = 0

    def __post_init__(self):
        if self.chunk_duration_s <= 0:
            raise ValueError("chunk_duration_s must be > 0")


@dataclass
class SoundingReport:
    """Detections and statistics for one sounded capture."""

    detections: list
    frame_duration_s: float
    sample_rate_hz: float
    noise_floor_gain_db: float
    anchor_lag: int
    n_frames: int
    first_frame_index: int = 0

    def frame_time_s(self, frame_index: int) -> float:
        return frame_index * self.frame_duration_s

    def strongest_tap_series(self):
        """(times, delays, gains) of the strongest detected tap per frame.

        Frames with no detection carry NaN entries.
        """
        times = np.empty(len(self.detections))
        delays = np.full(len(self.detections), np.nan)
        gains = np.full(len(self.detections), np.nan)
        for i, taps in enumerate(self.detections):
            times[i] = self.frame_time_s(self.first_frame_index + i)
            if taps:
                best = max(taps, key=lambda t: t.gain_db)
                delays[i] = best.delay_s
                gains[i] = best.gain_db
        return times, delays, gains


def _reference(sequence: CodeSequence, samples_per_chip: int) -> np.ndarray:
    if samples_per_chip < 1:
        raise ValueError("samples_per_chip must be >= 1")
    return np.repeat(sequence.chips.astype(np.float64), samples_per_chip)


def _cir_matrix(samples: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Circular cross-correlation of each frame row with the reference.

    h[f, k] = sum_n r_f(n) * ref((n - k) mod L) / sum_n ref(n)^2
    """
    frame_len = len(ref)
    n_frames = len(samples) // frame_len
    if n_frames == 0:
        raise ValueError(
            f"received stream shorter than one frame ({frame_len} samples)"
        )
    frames = samples[: n_frames * frame_len].reshape(n_frames, frame_len)
    energy = float(np.sum(ref * ref))
    ref_fft = np.fft.fft(ref)
    return np.fft.ifft(np.fft.fft(frames, axis=1) * np.conj(ref_fft), axis=1) / energy


def compute_cir_frames(
    received: IqStream, sequence: CodeSequence, samples_per_chip: int = 1
) -> list[CirFrame]:
    """Segment a stream into code periods and estimate each period's CIR."""
    ref = _reference(sequence, samples_per_chip)
    h = _cir_matrix(received.samples, ref)
    lag_axis = np.arange(h.shape[1]) / received.sample_rate_hz
    return [
        CirFrame(
            frame_index=f,
            lag_axis_s=lag_axis,
            h_i=h[f].real.copy(),
            h_q=h[f].imag.copy(),
            h_abs=np.abs(h[f]),
        )
        for f in range(h.shape[0])
    ]


def _gains_from_abs(h_abs: np.ndarray, config: SoundingConfig) -> np.ndarray:
    with np.errstate(divide="ignore"):
        g = 20.0 * np.log10(h_abs)
    g = np.where(np.isfinite(g), g, _MIN_GAIN_DB)
    return g - config.p_t_db - config.g_t_db - config.g_r_db


def path_gains_db(frame: CirFrame, config: SoundingConfig) -> np.ndarray:
    """Per-lag path gains: 20*log10 |h| minus power and amplifier gains."""
    return _gains_from_abs(frame.h_abs, config)


def estimate_noise_floor_gain_db(frame: CirFrame, config: SoundingConfig) -> float:
    """Measured noise floor of a gain profile, as the top of the noise band.

    The median of |h| estimates the Rayleigh noise scale robustly against a
    few strong taps; the band top is the expected maximum over the frame,
    sigma * sqrt(ln(frame_len)).
    """
    frame_len = len(frame.h_abs)
    sigma = float(np.median(frame.h_abs)) / math.sqrt(math.log(2.0))
    band_top = sigma * math.sqrt(math.log(frame_len))
    if band_top <= 0:
        return _MIN_GAIN_DB
    return (
        20.0 * math.log10(band_top)
        - config.p_t_db
        - config.g_t_db
        - config.g_r_db
    )


def _detect_in_gain_matrix(
    gains: np.ndarray,
    anchor: int,
    floor_db: float,
    threshold_db: float,
    guard: int,
    sample_rate_hz: float,
    first_frame_index: int,
) -> list:
    """Vectorized local-maxima detection over a (frames, lags) gain matrix."""
    level = floor_db + threshold_db
    is_max = (
        (gains > np.roll(gains, 1, axis=1))
        & (gains > np.roll(gains, -1, axis=1))
        & (gains >= level)
    )
    n_frames, frame_len = gains.shape
    detections: list = [[] for _ in range(n_frames)]
    frame_idx, lag_idx = np.nonzero(is_max)
    boundaries = np.searchsorted(frame_idx, np.arange(n_frames + 1))
    for f in range(n_frames):
        lags = lag_idx[boundaries[f] : boundaries[f + 1]]
        if lags.size == 0:
            continue
        g = gains[f, lags]
        order = np.argsort(g)[::-1]
        kept: list[int] = []
        for o in order:
            lag = int(lags[o])
            clash = any(
                min((lag - kl) % frame_len, (kl - lag) % frame_len) < guard
                for kl in kept
            )
            if not clash:
                kept.append(lag)
        taps = [
            DetectedTap(
                delay_s=((lag - anchor) % frame_len) / sample_rate_hz,
                gain_db=float(gains[f, lag]),
                frame_index=first_frame_index + f,
            )
            for lag in sorted(kept, key=lambda l: (l - anchor) % frame_len)
        ]
        detections[f] = taps
    return detections


def detect_taps(
    frames: Sequence[CirFrame],
    noise_floor_db: float,
    threshold_db: float,
    guard: int = DEFAULT_GUARD_SAMPLES,
    config: Optional[SoundingConfig] = None,
    sample_rate_hz: Optional[float] = None,
    anchor: Optional[int] = None,
) -> list:
    """Local maxima above the detection level, per frame.

    Peaks must clear noise_floor_db + threshold_db and be separated by at
    least ``guard`` samples (the stronger of a clashing pair wins). Delays
    are reported relative to the strongest peak of the first frame, which
    defines lag zero for the whole capture.
    """
    if threshold_db <= 0:
        raise ValueError("threshold_db must be > 0")
    if not frames:
        return []
    config = config or SoundingConfig()
    if sample_rate_hz is None:
        lag = frames[0].lag_axis_s
        sample_rate_hz = 1.0 / (lag[1] - lag[0]) if len(lag) > 1 else 1.0
    if anchor is None:
        anchor = int(np.argmax(frames[0].h_abs))
    gains = np.stack([_gains_from_abs(f.h_abs, config) for f in frames])
    return _detect_in_gain_matrix(
        gains,
        anchor,
        noise_floor_db,
        threshold_db,
        guard,
        sample_rate_hz,
        frames[0].frame_index,
    )


def sound_blocks(
    blocks: Iterable[np.ndarray],
    config: SoundingConfig,
    sequence: CodeSequence,
    fs: float,
    samples_per_chip: int = 1,
) -> SoundingReport:
    """Sound a received stream delivered as consecutive sample blocks.

    Blocks may have any length: a partial frame is carried into the next
    block, and a trailing partial frame is dropped. Each block is upcast to
    complex128 before correlation. The anchor lag and noise floor come from
    frame 0 and hold for every frame, so delays stay on one reference and
    the detections do not depend on how the stream was split.
    """
    ref = _reference(sequence, samples_per_chip)
    frame_len = len(ref)
    carry = np.empty(0, dtype=np.complex128)
    anchor = floor = None
    detections: list = []
    f0 = 0
    for block in blocks:
        x = np.asarray(block, dtype=np.complex128)
        if carry.size:
            x = np.concatenate([carry, x])
        n_frames = len(x) // frame_len
        carry = x[n_frames * frame_len :].copy()
        if n_frames == 0:
            continue
        h = _cir_matrix(x[: n_frames * frame_len], ref)
        if anchor is None:
            first = CirFrame(
                0, np.arange(frame_len) / fs, h[0].real, h[0].imag, np.abs(h[0])
            )
            anchor = int(np.argmax(first.h_abs))
            floor = estimate_noise_floor_gain_db(first, config)
        gains = _gains_from_abs(np.abs(h), config)
        detections.extend(
            _detect_in_gain_matrix(
                gains, anchor, floor, config.detection_threshold_db,
                config.guard_samples, fs, f0,
            )
        )
        f0 += n_frames
    if anchor is None:
        raise ValueError(
            f"received stream shorter than one frame ({frame_len} samples)"
        )
    detections = detections[config.discard_frames :]
    return SoundingReport(
        detections=detections,
        frame_duration_s=frame_len / fs,
        sample_rate_hz=fs,
        noise_floor_gain_db=floor,
        anchor_lag=anchor,
        n_frames=len(detections),
        first_frame_index=config.discard_frames,
    )


def sound_stream(
    received: IqStream,
    config: SoundingConfig,
    sequence: CodeSequence,
    samples_per_chip: int = 1,
) -> SoundingReport:
    """Single-pass sounding of an in-memory stream."""
    return sound_blocks(
        [received.samples], config, sequence, received.sample_rate_hz,
        samples_per_chip,
    )


def sound_chunked(
    capture_path,
    config: SoundingConfig,
    sequence: CodeSequence,
    samples_per_chip: int = 1,
) -> SoundingReport:
    """Sound a capture file read in blocks.

    A block is ``chunk_duration_s`` long but at most ``DEFAULT_BLOCK_SAMPLES``
    samples. Gives exactly the detections of single-pass sounding while peak
    memory stays bounded by one block.
    """
    meta = read_iq_sidecar(capture_path)
    fs = float(meta["sample_rate_hz"])
    if config.sample_rate_hz and abs(config.sample_rate_hz - fs) > 1e-6 * fs:
        raise ValueError(
            f"capture sample rate {fs} differs from configured "
            f"{config.sample_rate_hz}"
        )
    total = iq_file_sample_count(capture_path)
    block = max(1, min(int(config.chunk_duration_s * fs), DEFAULT_BLOCK_SAMPLES))
    blocks = (
        read_iq_file(capture_path, start, min(block, total - start)).samples
        for start in range(0, total, block)
    )
    return sound_blocks(blocks, config, sequence, fs, samples_per_chip)


def write_report_json(report: SoundingReport, path) -> None:
    """Summary JSON: capture metadata plus strongest-tap statistics."""
    times, delays, gains = report.strongest_tap_series()
    valid = ~np.isnan(gains)
    payload = {
        "n_frames": report.n_frames,
        "frame_duration_s": report.frame_duration_s,
        "sample_rate_hz": report.sample_rate_hz,
        "noise_floor_gain_db": report.noise_floor_gain_db,
        "anchor_lag": report.anchor_lag,
        "first_frame_index": report.first_frame_index,
        "strongest_tap": {
            "mean_gain_db": float(np.mean(gains[valid])) if valid.any() else None,
            "sd_gain_db": float(np.std(gains[valid])) if valid.any() else None,
            "mean_delay_s": float(np.mean(delays[valid])) if valid.any() else None,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def write_report_csv(report: SoundingReport, path) -> None:
    """Per-frame CSV: frame_index, time_s, then (delay_s, gain_db) per tap."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, taps in enumerate(report.detections):
            frame_index = report.first_frame_index + i
            row = [frame_index, f"{report.frame_time_s(frame_index):.9f}"]
            for tap in taps:
                row += [f"{tap.delay_s:.12g}", f"{tap.gain_db:.6f}"]
            writer.writerow(row)
