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
block. Each block is copied after the carried partial frame into one frame
buffer per call, and ``sound_chunked`` reads a capture into one reused
block buffer. Frame 0 is sounded first, alone, for the anchor and the
floor; the other frames go in runs through a ``helper.WorkQueue``, which
may split a block between two threads. A run's correlation, magnitudes and
gains are computed in place in its thread's ``helper.scratch``. Frames are
independent once the anchor and floor are set, so the detections are
identical to a single-threaded run.
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
    _read_iq_blocks,
    iq_file_sample_count,
    read_iq_sidecar,
)

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

_MIN_GAIN_DB = -400.0  # stands in for -inf when taking log of zero
_WRITE_BATCH_ROWS = 1 << 12  # frames per formatting batch; bounds writer memory


@dataclass(frozen=True)
class SoundingConfig:
    """Sounder processing parameters.

    ``chunk_duration_s`` caps the block length :func:`sound_chunked` reads
    from a capture, which bounds its memory. The first ``discard_frames``
    frames are left out of the report once frame 0 has set the anchor and
    the floor; the default 1 drops the emulator's zero-history warm-up frame.
    """

    sample_rate_hz: float = 0.0
    detection_threshold_db: float = DEFAULT_DETECTION_THRESHOLD_DB
    chunk_duration_s: float = 60.0
    discard_frames: int = 1

    def __post_init__(self):
        for name in ("chunk_duration_s", "detection_threshold_db"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.discard_frames < 0:
            raise ValueError(f"discard_frames must be >= 0, got {self.discard_frames}")


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
    frame_len: int
    sample_rate_hz: float
    noise_floor_gain_db: float
    anchor_lag: int
    first_frame_index: int = 0

    @property
    def n_frames(self) -> int:
        """Number of kept frames."""
        return len(self.detections)

    @property
    def frame_duration_s(self) -> float:
        return self.frame_len / self.sample_rate_hz

    def frame_times_s(self) -> np.ndarray:
        """Start time of every kept frame."""
        first = self.first_frame_index
        return np.arange(first, first + len(self.detections)) * self.frame_duration_s


def _cir_matrix(samples: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Circular cross-correlation of each frame row with the reference.

    h[f, k] = sum_n r_f(n) * ref((n - k) mod L) / sum_n ref(n)^2

    The frames are upcast into the thread's ``helper.scratch`` and
    transformed there in place, so ``h`` is valid only until the thread's
    next call.
    """
    frame_len = len(ref)
    n_frames = len(samples) // frame_len
    if n_frames == 0:
        raise ValueError(
            f"received stream shorter than one frame ({frame_len} samples)"
        )
    h = helper.scratch("sounder.cir", (n_frames, frame_len), np.complex128)
    h.reshape(-1)[...] = samples[: n_frames * frame_len]
    energy = float(np.sum(ref * ref))
    np.fft.fft(h, axis=1, out=h)
    h *= np.conj(np.fft.fft(ref))
    np.fft.ifft(h, axis=1, out=h)
    # numpy divides complex by complex; a real scale on the float view is
    # the same multiply by 1/energy that division by a real comes to
    h.view(np.float64)[...] *= 1.0 / energy
    return h


def _gains_from_abs(h_abs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-lag path gains 20*log10 |h|; a zero magnitude maps to _MIN_GAIN_DB.

    ``out``, which may be ``h_abs`` itself, receives the gains.
    """
    with np.errstate(divide="ignore"):
        g = np.log10(h_abs, out=out)
    g *= 20.0
    g[~np.isfinite(g)] = _MIN_GAIN_DB
    return g


def estimate_noise_floor_gain_db(h_abs: np.ndarray) -> float:
    """Measured noise floor of one frame's |h|, as the top of the noise band.

    The median of |h| estimates the Rayleigh noise scale robustly against a
    few strong taps; the band top is the expected maximum over the frame,
    sigma * sqrt(ln(frame_len)). The median is taken with ``np.partition``,
    as ``np.median`` takes it and to the same bits (the middle element, or
    the two middle ones as ``(a + b) / 2.0``), without the lazy import of
    ``numpy.ma`` that ``np.median`` makes.
    """
    frame_len = len(h_abs)
    lo, hi = (frame_len - 1) // 2, frame_len // 2
    mid = np.partition(h_abs, [lo, hi])
    median = mid[hi] if lo == hi else (mid[lo] + mid[hi]) / 2.0
    sigma = float(median) / math.sqrt(math.log(2.0))
    band_top = sigma * math.sqrt(math.log(frame_len))
    if band_top <= 0:
        return _MIN_GAIN_DB
    return 20.0 * math.log10(band_top)


def _detect_in_gain_matrix(
    gains: np.ndarray,
    anchor: int,
    floor_db: float,
    threshold_db: float,
    sample_rate_hz: float,
) -> Detections:
    """Taps detected over a (frames, lags) gain matrix.

    A detection is a strict circular local maximum at or above floor_db +
    threshold_db, so two detections of one frame are at least 2 lags
    apart. Delays are taken relative to ``anchor``.
    """
    n_frames, frame_len = gains.shape
    # the level test first: few lags pass it, so only they meet the
    # circular neighbour test; nonzero keeps (frame, lag) order
    frame, lag = np.nonzero(gains >= floor_db + threshold_db)
    g = gains[frame, lag]
    is_max = (g > gains[frame, lag - 1]) & (g > gains[frame, (lag + 1) % frame_len])
    frame, lag = frame[is_max], lag[is_max]
    rel = (lag - anchor) % frame_len
    order = np.lexsort((rel, frame))
    frame, lag, rel = frame[order], lag[order], rel[order]
    return Detections(
        offsets=np.searchsorted(frame, np.arange(n_frames + 1)),
        delay_s=rel / sample_rate_hz,
        gain_db=gains[frame, lag],
    )


def sound_blocks(
    blocks: Iterable[np.ndarray],
    config: SoundingConfig,
    reference: np.ndarray,
    fs: float,
) -> SoundingReport:
    """Sound a received stream delivered as consecutive sample blocks.

    Each frame is one ``reference`` long and is correlated against it:
    the real waveform of one code period that the emulator sent, as
    ``PipelineConfig.reference()`` gives it; any other reference than a
    non-empty, finite, 1-D real array is a ValueError. Blocks may have any
    length: each is copied, after the partial frame carried from the one
    before, into one frame buffer, so the producer may reuse a block's
    memory once the next is asked for; a trailing partial frame is
    dropped. Samples are upcast to complex128 before correlation.
    The anchor lag and noise floor come from frame 0 and hold for every
    frame, so delays stay on one reference and the detections do not depend
    on how the stream was split, nor on which thread sounded which frames.
    """
    ref = np.asarray(reference)
    if not (ref.ndim == 1 and ref.size and ref.dtype.kind in "iuf" and np.isfinite(ref).all()):
        raise ValueError("reference must be a non-empty, finite, 1-D real array")
    ref = ref.astype(np.float64, copy=False)
    frame_len = len(ref)
    buf = np.empty(0, dtype=np.complex64)  # the carry, then the block
    carry = 0
    anchor = floor = None
    parts: list[Detections] = []

    def detect(h):
        g = helper.scratch("sounder.gains", h.shape, np.float64)
        np.abs(h, out=g)
        return _detect_in_gain_matrix(
            _gains_from_abs(g, out=g), anchor, floor,
            config.detection_threshold_db, fs,
        )

    def sound_frames(x, found, a, b):
        found[a] = detect(_cir_matrix(x[a:b], ref))

    for block in blocks:
        block = np.asarray(block)
        n = carry + len(block)
        dtype = np.result_type(buf, block)
        if n > len(buf) or dtype != buf.dtype:
            # a frame of headroom: the carry differs from block to block
            grown = np.empty(n + frame_len, dtype=dtype)
            grown[:carry] = buf[:carry]
            buf = grown
        buf[carry:n] = block
        end = n // frame_len * frame_len
        carry = n - end
        x = buf[:end]
        if end and anchor is None:
            # frame 0 alone first: every frame is detected on its anchor and floor
            h = _cir_matrix(x[:frame_len], ref)
            h_abs = np.abs(h[0])
            anchor = int(np.argmax(h_abs))
            floor = estimate_noise_floor_gain_db(h_abs)
            parts.append(detect(h))
            x = x[frame_len:]
        runs = helper.split(0, len(x), frame_len)  # each run fills its own slot
        found = {}
        helper.WorkQueue(runs, partial(sound_frames, x, found)).finish()
        parts += [found[a] for a, _ in runs]
        buf[:carry] = buf[end:n]
    if anchor is None:
        raise ValueError(
            f"received stream shorter than one frame ({frame_len} samples)"
        )
    detections = Detections.concatenate(parts).frames(config.discard_frames)
    return SoundingReport(
        detections=detections,
        frame_len=frame_len,
        sample_rate_hz=fs,
        noise_floor_gain_db=floor,
        anchor_lag=anchor,
        first_frame_index=config.discard_frames,
    )


def sound_chunked(
    capture_path, config: SoundingConfig, reference: np.ndarray
) -> SoundingReport:
    """Sound a capture file read in blocks, against ``reference``.

    A block is ``chunk_duration_s`` long but at most ``DEFAULT_BLOCK_SAMPLES``
    samples, and every block is read into one buffer. Gives exactly the
    detections of single-pass sounding while peak memory stays bounded by
    one block.
    """
    fs = read_iq_sidecar(capture_path)
    if config.sample_rate_hz and abs(config.sample_rate_hz - fs) > 1e-6 * fs:
        raise ValueError(
            f"capture sample rate {fs} differs from configured "
            f"{config.sample_rate_hz}"
        )
    total = iq_file_sample_count(capture_path)
    block = max(1, min(int(config.chunk_duration_s * fs), DEFAULT_BLOCK_SAMPLES))
    blocks = _read_iq_blocks(capture_path, total, block)
    return sound_blocks(blocks, config, reference, fs)


def _write_rows(fh, row_format: str, table: np.ndarray) -> None:
    """Write each row of a 2-D float table through one printf-style format.

    Rows are formatted in batches of ``_WRITE_BATCH_ROWS``, one ``%`` per
    batch, so the batch's values, format and text are all the writer holds
    beyond the table; the bytes do not depend on the batch size.
    """
    for a in range(0, len(table), _WRITE_BATCH_ROWS):
        rows = table[a : a + _WRITE_BATCH_ROWS]
        fh.write((row_format * len(rows)) % tuple(rows.ravel().tolist()))


def write_report_json(report: SoundingReport, path) -> None:
    """Summary JSON: capture metadata plus strongest-tap statistics.

    The statistics run over the strongest tap of each frame that has one,
    ``Detections.strongest_rows``, in frame order.
    """
    det = report.detections
    best = det.strongest_rows()
    gains, delays = det.gain_db[best], det.delay_s[best]
    payload = {
        "n_frames": report.n_frames,
        "frame_duration_s": report.frame_duration_s,
        "sample_rate_hz": report.sample_rate_hz,
        "noise_floor_gain_db": report.noise_floor_gain_db,
        "anchor_lag": report.anchor_lag,
        "first_frame_index": report.first_frame_index,
        "strongest_tap": {
            "mean_gain_db": float(np.mean(gains)) if best.size else None,
            "sd_gain_db": float(np.std(gains)) if best.size else None,
            "mean_delay_s": float(np.mean(delays)) if best.size else None,
        },
    }
    with helper.output(path) as fh:
        json.dump(payload, fh, indent=2)


def write_report_csv(report: SoundingReport, path) -> None:
    """Per-frame CSV: frame_index, time_s, then (delay_s, gain_db) per tap.

    Lines end in CRLF, as the csv module writes them. Frames are formatted
    in batches, each with one ``%`` over a template built from the columns;
    the frame index travels as a float, exact below 2**53.
    """
    det = report.detections
    times = report.frame_times_s()
    with helper.output(path, newline="") as fh:
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
