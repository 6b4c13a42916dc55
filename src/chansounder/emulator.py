"""Software FIR channel emulator over IQ sample streams.

Applies the tapped-delay-line filter described by a tap file to a complex
baseband stream, holding each millisecond's taps constant until the next
update (zero-order hold), then scaling by a configurable base insertion
loss and adding seeded complex white Gaussian noise. Delays are realized at
integer sample resolution only; a tap grid that does not land on input
samples is rejected rather than interpolated.

The first max(delay) output samples are filter warm-up (zero history) and
should be excluded from sounding statistics.

``apply_channel`` filters an in-memory stream and is the reference for
``emulate_blocks``, which streams a repeated sounding reference through a
link as bounded complex64 blocks: the exact contents of a capture. For
blocks of at least ``helper.HANDOFF_SAMPLES`` samples, the helper thread
draws each block's noise while the calling thread filters it; the draws
come from the one seeded stream in block order, so the output is the same
byte for byte whichever thread draws.

IQ captures are raw interleaved 32-bit little-endian floats (I then Q per
sample, no header) with a JSON sidecar carrying the sample rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import helper
from .tap_approx import TapFile, TapSet

__all__ = [
    "IqStream",
    "EmulatorConfig",
    "apply_channel",
    "make_noise",
    "noise_floor_db_for_dynamic_range",
    "pair_base_loss_db",
    "write_iq_file",
    "read_iq_file",
    "read_iq_sidecar",
    "iq_file_sample_count",
    "IqFileWriter",
    "emulate_blocks",
    "emulate_repeated_reference_to_file",
]

DEFAULT_BASE_LOSS_DB = 57.55
DEFAULT_BASE_LOSS_SD_DB = 1.23
DEFAULT_DYNAMIC_RANGE_DB = 43.0
MIN_TAP_UPDATE_INTERVAL_S = 0.001
DEFAULT_BLOCK_SAMPLES = 1 << 18

_GRID_TOL = 1e-6


@dataclass
class IqStream:
    """Complex baseband samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: float
    origin_time_s: float = 0.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be > 0")
        self.samples = np.asarray(self.samples, dtype=np.complex128)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class EmulatorConfig:
    """Emulation chain settings.

    ``noise_floor_db`` is the absolute per-sample complex noise power in dB
    (10*log10 of E|n|^2); None disables noise. Use
    :func:`noise_floor_db_for_dynamic_range` to place the sounded noise
    floor a given dynamic range below a reference tap. ``base_loss_sd_db``
    adds a per-pair Gaussian perturbation to the base loss (seeded
    symmetrically, so reciprocal links share a value).
    """

    base_loss_db: float = DEFAULT_BASE_LOSS_DB
    base_loss_sd_db: float = 0.0
    noise_floor_db: Optional[float] = None
    tap_update_interval_s: float = MIN_TAP_UPDATE_INTERVAL_S
    seed: int = 0

    def __post_init__(self):
        if self.tap_update_interval_s < MIN_TAP_UPDATE_INTERVAL_S:
            raise ValueError(
                f"tap_update_interval_s must be >= {MIN_TAP_UPDATE_INTERVAL_S}"
            )


def pair_base_loss_db(config: EmulatorConfig, tx: int, rx: int) -> float:
    """Base loss for one link, with the optional per-pair perturbation.

    The perturbation is drawn from N(0, sd) keyed on the unordered pair, so
    the two directions of a link see the same loss.
    """
    if config.base_loss_sd_db == 0:
        return config.base_loss_db
    lo, hi = (tx, rx) if tx <= rx else (rx, tx)
    rng = np.random.default_rng((config.seed, 0xBA5E, lo, hi))
    return config.base_loss_db + config.base_loss_sd_db * rng.standard_normal()


def make_noise(length: int, floor_db_rel: Optional[float], seed) -> np.ndarray:
    """Circularly-symmetric Gaussian samples with total power 10**(dB/10).

    Deterministic per seed; None or -inf power yields zeros.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if floor_db_rel is None or floor_db_rel == float("-inf"):
        return np.zeros(length, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(10.0 ** (floor_db_rel / 10.0) / 2.0)
    return sigma * _complex_normal(rng, length)


def _complex_normal(rng: np.random.Generator, length: int) -> np.ndarray:
    # Interleaved I/Q draws keep chunked generation identical to one bulk
    # draw from the same generator state.
    return rng.standard_normal(2 * length).view(np.complex128)


def noise_floor_db_for_dynamic_range(
    peak_amplitude: float,
    code_length: int,
    samples_per_chip: int = 1,
    dyn_range_db: float = DEFAULT_DYNAMIC_RANGE_DB,
) -> float:
    """Time-domain noise power placing the sounded floor below a peak tap.

    The sounder's correlation spreads per-sample noise power sigma^2 down to
    sigma^2 / (N * spc) per lag; the visible top of the noise band in a
    gain profile sits near the expected maximum over the frame,
    sigma_lag * sqrt(ln(frame_len)). This sets sigma^2 so that band top is
    ``dyn_range_db`` below a tap of ``peak_amplitude``.
    """
    if peak_amplitude <= 0:
        raise ValueError("peak_amplitude must be > 0")
    frame_len = code_length * samples_per_chip
    floor_amp = peak_amplitude * 10.0 ** (-dyn_range_db / 20.0)
    sigma_lag = floor_amp / math.sqrt(math.log(frame_len))
    power = sigma_lag**2 * code_length * samples_per_chip
    return 10.0 * math.log10(power)


def _grid_step_samples(grid_dt_s: float, sample_rate_hz: float) -> int:
    step = grid_dt_s * sample_rate_hz
    if abs(step - round(step)) > _GRID_TOL or round(step) < 1:
        raise ValueError(
            f"tap grid step {grid_dt_s} s does not land on integer samples "
            f"at {sample_rate_hz} S/s"
        )
    return int(round(step))


def _tapset_delays_coeffs(ts: TapSet, step: int):
    delays = np.array([i * step for i, _ in ts.taps], dtype=int)
    coeffs = np.array([c for _, c in ts.taps], dtype=complex)
    return delays, coeffs


def apply_channel(
    input_stream: IqStream,
    taps: TapFile,
    pair: tuple[int, int],
    config: EmulatorConfig,
) -> IqStream:
    """Filter an IQ stream through a link's time-varying taps.

    output[n] = sum_k c_k(t_n) * input[n - d_k], with zero prefix history,
    scaled by the base loss, plus noise. Output length equals input length.
    """
    tx, rx = pair
    if pair not in taps.pairs():
        raise ValueError(f"pair {pair} not present in tap file")
    fs = input_stream.sample_rate_hz
    step = _grid_step_samples(taps.grid_dt_s, fs)
    x = input_stream.samples
    n = len(x)
    if n == 0:
        return IqStream(x.copy(), fs, input_stream.origin_time_s)

    interval = config.tap_update_interval_s
    max_idx = max((i for t in taps.used_tap_lists(pair) for i, _ in t), default=0)
    d_max = max_idx * step
    xp = np.concatenate([np.zeros(d_max, dtype=complex), x])
    y = np.empty(n, dtype=np.complex128)

    # blocks follow the absolute update boundaries, so a stream starting
    # mid-interval still switches taps at the file's millisecond edges
    t0 = input_stream.origin_time_s
    m0 = int(math.floor(t0 / interval + 1e-9))
    m1 = int(math.ceil((t0 + n / fs) / interval - 1e-9))
    for m in range(m0, m1):
        n0 = max(int(round((m * interval - t0) * fs)), 0)
        n1 = min(int(round(((m + 1) * interval - t0) * fs)), n)
        if n0 >= n1:
            continue
        ts = taps.active_tapset(t0 + n0 / fs, tx, rx)
        block = np.zeros(n1 - n0, dtype=np.complex128)
        delays, coeffs = _tapset_delays_coeffs(ts, step)
        for d, c in zip(delays, coeffs):
            block += c * xp[d_max + n0 - d : d_max + n1 - d]
        y[n0:n1] = block

    loss = pair_base_loss_db(config, tx, rx)
    y *= 10.0 ** (-loss / 20.0)
    if config.noise_floor_db is not None:
        y += make_noise(n, config.noise_floor_db, (config.seed, tx, rx))
    return IqStream(y, fs, input_stream.origin_time_s)


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_iq_file(stream: IqStream, path) -> None:
    """Raw interleaved float32 I/Q plus a JSON sidecar with the sample rate."""
    with IqFileWriter(path, stream.sample_rate_hz, stream.origin_time_s) as writer:
        writer.append(stream.samples)


def read_iq_sidecar(path) -> dict:
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(f"missing IQ sidecar metadata: {sidecar}")
    return json.loads(sidecar.read_text())


def iq_file_sample_count(path) -> int:
    """Samples in a capture; a byte count that is not whole samples is an error."""
    size = Path(path).stat().st_size
    if size % 8:
        raise ValueError(
            f"IQ capture {path} holds {size} bytes, not a whole number of "
            "8-byte samples (truncated?)"
        )
    return size // 8


def read_iq_file(path, start_sample: int = 0, count: Optional[int] = None) -> IqStream:
    """Read a capture (or a sample range of it) back into an IqStream."""
    meta = read_iq_sidecar(path)
    fs = meta["sample_rate_hz"]
    origin = meta.get("origin_time_s", 0.0)
    total = iq_file_sample_count(path)
    if count is None:
        count = total - start_sample
    samples = _read_iq_samples(path, start_sample, count)
    return IqStream(samples, fs, origin + start_sample / fs)


def _read_iq_samples(path, start_sample: int, count: int) -> np.ndarray:
    """A sample range of a capture as stored: complex64, no metadata."""
    return np.fromfile(path, dtype="<c8", count=count, offset=8 * start_sample)


class IqFileWriter:
    """Streaming capture writer: append sample blocks, sidecar on close.

    If the ``with`` block raises, the partial capture is deleted and no
    sidecar is written, so a truncated capture never looks valid.
    """

    def __init__(self, path, sample_rate_hz: float, origin_time_s: float = 0.0):
        self.path = Path(path)
        self.sample_rate_hz = sample_rate_hz
        self.origin_time_s = origin_time_s
        self._fh = open(path, "wb")
        self.samples_written = 0

    def append(self, samples: np.ndarray) -> None:
        np.asarray(samples, dtype="<c8").tofile(self._fh)
        self.samples_written += len(samples)

    def close(self) -> None:
        self._fh.close()
        _sidecar_path(self.path).write_text(
            json.dumps(
                {
                    "sample_rate_hz": self.sample_rate_hz,
                    "origin_time_s": self.origin_time_s,
                }
            )
        )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()
            self.path.unlink(missing_ok=True)


def emulate_blocks(
    taps: TapFile,
    pair: tuple[int, int],
    config: EmulatorConfig,
    reference: np.ndarray,
    fs: float,
    total_samples: int,
    block_samples: int = DEFAULT_BLOCK_SAMPLES,
) -> Iterator[np.ndarray]:
    """Yield a repeated reference sent through one link, as complex64 blocks.

    The blocks concatenate to apply_channel on the infinitely repeated
    reference, truncated to ``total_samples`` and cast to complex64: the
    exact bytes of a capture. Every block holds ``block_samples`` samples
    but the last. The input is tiled on the fly and filter history is
    carried across block edges; noise is drawn per block from the one
    seeded generator stream, so the output does not depend on the block
    size. Large blocks have their noise drawn on the helper thread, the
    next block's while the consumer handles this one; closing the
    generator early waits for that draw.
    """
    tx, rx = pair
    if pair not in taps.pairs():
        raise ValueError(f"pair {pair} not present in tap file")
    if block_samples < 1:
        raise ValueError("block_samples must be >= 1")
    step = _grid_step_samples(taps.grid_dt_s, fs)
    ref = np.asarray(reference, dtype=np.complex128)
    frame = len(ref)
    max_idx = max((i for t in taps.used_tap_lists(pair) for i, _ in t), default=0)
    d_max = max_idx * step
    scale = 10.0 ** (-pair_base_loss_db(config, tx, rx) / 20.0)
    rng = np.random.default_rng((config.seed, tx, rx))
    sigma = None
    if config.noise_floor_db is not None and config.noise_floor_db != float("-inf"):
        sigma = math.sqrt(10.0 ** (config.noise_floor_db / 10.0) / 2.0)

    interval = config.tap_update_interval_s
    # buffers reused by every block: input with d_max samples of filter
    # history in front, filtered output, interleaved noise draws
    size = max(min(block_samples, total_samples), 0)
    xp = np.zeros(d_max + size, dtype=np.complex128)
    y = np.empty(size, dtype=np.complex128)
    z = np.empty(2 * size)

    def draw_noise(count):
        rng.standard_normal(out=z[: 2 * count])
        z[: 2 * count] *= sigma

    def prefetch_noise(pos):
        # the helper draws a large block's noise while the caller filters it
        count = min(size, total_samples - pos)
        if sigma is None or count < helper.HANDOFF_SAMPLES:
            return None
        return helper.submit(partial(draw_noise, count))

    pos = 0
    drawing = prefetch_noise(0)
    try:
        while pos < total_samples:
            count = min(size, total_samples - pos)
            if pos and d_max:  # every block before this one held `size` samples
                xp[:d_max] = xp[size : size + d_max]
            _tile_into(xp[d_max : d_max + count], ref, pos % frame)
            m0 = int(math.floor(pos / (interval * fs) + 1e-9))
            m1 = int(math.ceil((pos + count) / (interval * fs) - 1e-9))
            for m in range(m0, m1):
                n0 = max(int(round(m * interval * fs)), pos)
                n1 = min(int(round((m + 1) * interval * fs)), pos + count)
                if n0 >= n1:
                    continue
                ts = taps.active_tapset(n0 / fs, tx, rx)
                delays, coeffs = _tapset_delays_coeffs(ts, step)
                seg = y[n0 - pos : n1 - pos]
                seg[...] = 0
                for d, c in zip(delays, coeffs):
                    a = d_max + (n0 - pos) - d
                    seg += c * xp[a : a + (n1 - n0)]
            y[:count] *= scale
            if sigma is not None:
                if drawing is None:
                    draw_noise(count)
                else:
                    drawing.result()
                y[:count] += z[: 2 * count].view(np.complex128)
                # z is free again: draw the next block's noise meanwhile
                drawing = prefetch_noise(pos + count)
            yield y[:count].astype(np.complex64)
            pos += count
    finally:  # also when the consumer stops early: leave nothing running
        if drawing is not None:
            drawing.wait()


def _tile_into(out: np.ndarray, ref: np.ndarray, phase: int) -> None:
    """Fill ``out`` with the reference repeated from ``phase`` on."""
    frame = len(ref)
    head = min(frame - phase, len(out))
    out[:head] = ref[phase : phase + head]
    periods, rest = divmod(len(out) - head, frame)
    out[head : head + periods * frame].reshape(periods, frame)[...] = ref
    out[head + periods * frame :] = ref[:rest]


def emulate_repeated_reference_to_file(
    taps: TapFile,
    pair: tuple[int, int],
    config: EmulatorConfig,
    reference: np.ndarray,
    sample_rate_hz: float,
    total_samples: int,
    out_path,
    chunk_samples: int = DEFAULT_BLOCK_SAMPLES,
) -> None:
    """Write :func:`emulate_blocks` to a capture file with its sidecar."""
    with IqFileWriter(out_path, sample_rate_hz, 0.0) as writer:
        for block in emulate_blocks(
            taps, pair, config, reference, sample_rate_hz, total_samples, chunk_samples
        ):
            writer.append(block)
