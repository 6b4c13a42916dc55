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
block. Frame 0 is sounded first, alone, for the anchor and the floor; the
other frames go in runs through a ``helper.WorkQueue``, which may split a
block between two threads. Frames are independent once the anchor and
floor are set, so the detections are identical to a single-threaded run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from . import helper
from .emulator import (
    DEFAULT_BLOCK_SAMPLES,
    _read_iq_samples,
    iq_file_sample_count,
    read_iq_sidecar,
)
from .sequences import CodeSequence, bpsk_modulate

__all__ = [
    "Detections",
    "SoundingConfig",
    "SoundingReport",
    "estimate_noise_floor_gain_db",
    "sound_blocks",
    "sound_chunked",
    "write_report_json",
    "write_report_csv",
]

DEFAULT_DETECTION_THRESHOLD_DB = 6.0
DEFAULT_GUARD_SAMPLES = 2

_MIN_GAIN_DB = -400.0  # stands in for -inf when taking log of zero
_WRITE_BATCH_ROWS = 1 << 16  # frames per formatting batch; bounds writer memory


@dataclass(frozen=True)
class SoundingConfig:
    """Sounder processing parameters.

    ``chunk_duration_s`` caps the block length :func:`sound_chunked` reads
    from a capture, which bounds its memory.
    """

    sample_rate_hz: float = 0.0
    detection_threshold_db: float = DEFAULT_DETECTION_THRESHOLD_DB
    chunk_duration_s: float = 60.0
    guard_samples: int = DEFAULT_GUARD_SAMPLES
    discard_frames: int = 0

    def __post_init__(self):
        if self.chunk_duration_s <= 0:
            raise ValueError("chunk_duration_s must be > 0")
        if self.detection_threshold_db <= 0:
            raise ValueError("detection_threshold_db must be > 0")


@dataclass(frozen=True, eq=False)
class Detections:
    """Detected taps of consecutive frames, stored as CSR columns.

    Frame ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of ``delay_s`` (delay
    relative to the anchor peak) and ``gain_db``, in increasing delay order.
    Iterating yields one ``(n, 2)`` array of (delay_s, gain_db) rows per
    frame; two containers are equal only if all three columns are.
    """

    offsets: np.ndarray
    delay_s: np.ndarray
    gain_db: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        rows = np.column_stack((self.delay_s, self.gain_db))
        bounds = self.offsets.tolist()
        return (rows[a:b] for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        return (
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.delay_s, other.delay_s)
            and np.array_equal(self.gain_db, other.gain_db)
        )

    @classmethod
    def concatenate(cls, parts: Sequence["Detections"]) -> "Detections":
        """Frames of ``parts`` one after another."""
        counts = [np.diff(p.offsets) for p in parts]
        return cls(
            np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
            np.concatenate([p.delay_s for p in parts]),
            np.concatenate([p.gain_db for p in parts]),
        )

    def frames(self, start: int, stop: int | None = None) -> "Detections":
        """Frames ``start:stop`` as a container of their own."""
        stop = len(self) if stop is None else min(stop, len(self))
        start = min(start, stop)
        a, b = self.offsets[start], self.offsets[stop]
        return Detections(
            self.offsets[start : stop + 1] - a, self.delay_s[a:b], self.gain_db[a:b]
        )

    def frame_of_rows(self) -> np.ndarray:
        """Frame position (0-based) of every row."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def strongest_rows(self) -> np.ndarray:
        """Row of the strongest tap of each non-empty frame, in frame order.

        Among equal gains the first row, the smallest delay, wins.
        """
        counts = np.diff(self.offsets)
        starts = self.offsets[:-1][counts > 0]
        if starts.size == 0:
            return starts
        peak = np.maximum.reduceat(self.gain_db, starts)
        at_peak = self.gain_db == np.repeat(peak, counts[counts > 0])
        n = self.gain_db.size
        return np.minimum.reduceat(np.where(at_peak, np.arange(n), n), starts)


@dataclass
class SoundingReport:
    """Detections and statistics for one sounded capture."""

    detections: Detections
    frame_duration_s: float
    sample_rate_hz: float
    noise_floor_gain_db: float
    anchor_lag: int
    first_frame_index: int = 0

    @property
    def n_frames(self) -> int:
        """Number of kept frames."""
        return len(self.detections)

    def frame_times_s(self) -> np.ndarray:
        """Start time of every kept frame."""
        first = self.first_frame_index
        return np.arange(first, first + len(self.detections)) * self.frame_duration_s

    def strongest_tap_series(self):
        """(times, delays, gains) of the strongest detected tap per frame.

        Frames with no detection carry NaN entries; among equal gains the
        first (smallest delay) wins.
        """
        det = self.detections
        delays = np.full(len(det), np.nan)
        gains = np.full(len(det), np.nan)
        best = det.strongest_rows()
        frames = np.flatnonzero(np.diff(det.offsets))
        delays[frames] = det.delay_s[best]
        gains[frames] = det.gain_db[best]
        return self.frame_times_s(), delays, gains


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
    frames = np.asarray(samples[: n_frames * frame_len], dtype=np.complex128)
    energy = float(np.sum(ref * ref))
    spectra = np.fft.fft(frames.reshape(n_frames, frame_len), axis=1)
    del frames  # free the upcast before ifft allocates its output
    spectra *= np.conj(np.fft.fft(ref))
    h = np.fft.ifft(spectra, axis=1)
    # numpy divides complex by complex; a real scale on the float view is
    # the same multiply by 1/energy that division by a real comes to
    h.view(np.float64)[...] *= 1.0 / energy
    return h


def _gains_from_abs(h_abs: np.ndarray) -> np.ndarray:
    """Per-lag path gains 20*log10 |h|; a zero magnitude maps to _MIN_GAIN_DB."""
    with np.errstate(divide="ignore"):
        g = np.log10(h_abs)
    g *= 20.0
    g[~np.isfinite(g)] = _MIN_GAIN_DB
    return g


def estimate_noise_floor_gain_db(h_abs: np.ndarray) -> float:
    """Measured noise floor of one frame's |h|, as the top of the noise band.

    The median of |h| estimates the Rayleigh noise scale robustly against a
    few strong taps; the band top is the expected maximum over the frame,
    sigma * sqrt(ln(frame_len)).
    """
    frame_len = len(h_abs)
    sigma = float(np.median(h_abs)) / math.sqrt(math.log(2.0))
    band_top = sigma * math.sqrt(math.log(frame_len))
    if band_top <= 0:
        return _MIN_GAIN_DB
    return 20.0 * math.log10(band_top)


def _detect_in_gain_matrix(
    gains: np.ndarray,
    anchor: int,
    floor_db: float,
    threshold_db: float,
    guard: int,
    sample_rate_hz: float,
) -> Detections:
    """Local maxima above the detection level over a (frames, lags) matrix.

    A peak is a strict circular local maximum at or above floor_db +
    threshold_db. Peaks closer than ``guard`` lags clash and the stronger
    wins, greedily from the strongest down; two strict local maxima are
    never adjacent, so only ``guard > 2`` can drop one and run the greedy
    pass. Delays are taken relative to ``anchor``.
    """
    n_frames, frame_len = gains.shape
    # the level test first: few lags pass it, so only they meet the
    # circular neighbour test; nonzero keeps (frame, lag) order
    frame, lag = np.nonzero(gains >= floor_db + threshold_db)
    g = gains[frame, lag]
    is_max = (g > gains[frame, lag - 1]) & (g > gains[frame, (lag + 1) % frame_len])
    frame, lag = frame[is_max], lag[is_max]
    if guard > 2:
        keep = np.ones(frame.size, dtype=bool)
        bounds = np.searchsorted(frame, np.arange(n_frames + 1)).tolist()
        for f, (a, b) in enumerate(zip(bounds, bounds[1:])):
            keep[a:b] = _greedy_guard(lag[a:b], gains[f, lag[a:b]], guard, frame_len)
        frame, lag = frame[keep], lag[keep]
    rel = (lag - anchor) % frame_len
    order = np.lexsort((rel, frame))
    frame, lag, rel = frame[order], lag[order], rel[order]
    return Detections(
        offsets=np.searchsorted(frame, np.arange(n_frames + 1)),
        delay_s=rel / sample_rate_hz,
        gain_db=gains[frame, lag],
    )


def _greedy_guard(
    lags: np.ndarray, g: np.ndarray, guard: int, frame_len: int
) -> np.ndarray:
    """Keep mask of one frame's peaks: strongest first, skip any within guard."""
    kept: list[int] = []
    for o in np.argsort(g)[::-1]:
        lag = int(lags[o])
        if not any(
            min((lag - kl) % frame_len, (kl - lag) % frame_len) < guard
            for kl in kept
        ):
            kept.append(lag)
    return np.isin(lags, kept)


def sound_blocks(
    blocks: Iterable[np.ndarray],
    config: SoundingConfig,
    sequence: CodeSequence,
    fs: float,
    samples_per_chip: int = 1,
) -> SoundingReport:
    """Sound a received stream delivered as consecutive sample blocks.

    Blocks may have any length: a partial frame is carried into the next
    block, and a trailing partial frame is dropped. Samples are upcast to
    complex128 before correlation. The anchor lag and noise floor come from
    frame 0 and hold for every frame, so delays stay on one reference and
    the detections do not depend on how the stream was split, nor on which
    thread sounded which frames.
    """
    ref = bpsk_modulate(sequence, samples_per_chip)
    frame_len = len(ref)
    carry = np.empty(0, dtype=np.complex128)
    anchor = floor = None
    parts: list[Detections] = []

    def detect(h):
        return _detect_in_gain_matrix(
            _gains_from_abs(np.abs(h)), anchor, floor,
            config.detection_threshold_db, config.guard_samples, fs,
        )

    def sound_frames(x, found, a, b):
        found[a] = detect(_cir_matrix(x[a:b], ref))

    for block in blocks:
        x = np.asarray(block)
        if carry.size:
            x = np.concatenate([carry, x])
        end = len(x) // frame_len * frame_len
        carry = x[end:].copy()
        if end and anchor is None:
            # frame 0 alone first: every frame is detected on its anchor and floor
            h = _cir_matrix(x[:frame_len], ref)
            h_abs = np.abs(h[0])
            anchor = int(np.argmax(h_abs))
            floor = estimate_noise_floor_gain_db(h_abs)
            parts.append(detect(h))
            x, end = x[frame_len:], end - frame_len
        runs = helper.split(0, end, frame_len)  # each run fills its own slot
        found = {}
        helper.WorkQueue(runs, partial(sound_frames, x, found)).finish()
        parts += [found[a] for a, _ in runs]
    if anchor is None:
        raise ValueError(
            f"received stream shorter than one frame ({frame_len} samples)"
        )
    detections = Detections.concatenate(parts).frames(config.discard_frames)
    return SoundingReport(
        detections=detections,
        frame_duration_s=frame_len / fs,
        sample_rate_hz=fs,
        noise_floor_gain_db=floor,
        anchor_lag=anchor,
        first_frame_index=config.discard_frames,
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
    fs = read_iq_sidecar(capture_path)
    if config.sample_rate_hz and abs(config.sample_rate_hz - fs) > 1e-6 * fs:
        raise ValueError(
            f"capture sample rate {fs} differs from configured "
            f"{config.sample_rate_hz}"
        )
    total = iq_file_sample_count(capture_path)
    block = max(1, min(int(config.chunk_duration_s * fs), DEFAULT_BLOCK_SAMPLES))
    blocks = (
        _read_iq_samples(capture_path, start, min(block, total - start))
        for start in range(0, total, block)
    )
    return sound_blocks(blocks, config, sequence, fs, samples_per_chip)


def _write_rows(fh, row_format: str, table: np.ndarray) -> None:
    """Write each row of a 2-D float table through one printf-style format.

    Rows are formatted in batches, one ``%`` per batch, which bounds memory.
    """
    for a in range(0, len(table), _WRITE_BATCH_ROWS):
        rows = table[a : a + _WRITE_BATCH_ROWS]
        fh.write((row_format * len(rows)) % tuple(rows.ravel().tolist()))


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
    """Per-frame CSV: frame_index, time_s, then (delay_s, gain_db) per tap.

    Lines end in CRLF, as the csv module writes them. Frames are formatted
    in batches, each with one ``%`` over a template built from the columns;
    the frame index travels as a float, exact below 2**53.
    """
    det = report.detections
    times = report.frame_times_s()
    with open(path, "w", newline="") as fh:
        for a in range(0, len(det), _WRITE_BATCH_ROWS):
            b = min(a + _WRITE_BATCH_ROWS, len(det))
            lo, hi = int(det.offsets[a]), int(det.offsets[b])
            heads = np.arange(b - a) + det.offsets[a:b] - lo
            is_head = np.zeros(b - a + hi - lo, dtype=bool)
            is_head[heads] = True
            cells = np.flatnonzero(~is_head)
            values = np.empty(2 * is_head.size)
            values[2 * heads] = np.arange(a, b) + report.first_frame_index
            values[2 * heads + 1] = times[a:b]
            values[2 * cells] = det.delay_s[lo:hi]
            values[2 * cells + 1] = det.gain_db[lo:hi]
            template = "".join(
                np.where(is_head, "\r\n%d,%.9f", ",%.12g,%.6f").tolist()
            )
            fh.write((template % tuple(values.tolist()))[2:] + "\r\n")
