"""Software FIR channel emulator over IQ sample streams.

Applies the tapped-delay-line filter described by a tap file to a complex
baseband stream, holding each millisecond's taps constant until the next
update (zero-order hold), then scaling by a configurable base insertion
loss and adding seeded complex white Gaussian noise. Delays are realized at
integer sample resolution only; a tap grid that does not land on input
samples is rejected rather than interpolated.

The first max(delay) output samples are filter warm-up (zero history) and
should be excluded from sounding statistics.

The noise of a link is keyed by (seed, tx, rx, chunk): chunk c, samples
[c * NOISE_CHUNK_SAMPLES, (c + 1) * NOISE_CHUNK_SAMPLES), has its own seeded
generator (see ``make_noise``), so any window of a link's noise can be drawn
without the samples before it, by any thread.

``apply_channel`` filters an in-memory stream and is the reference for
``emulate_blocks``, which streams a repeated sounding reference through a
link as bounded complex64 blocks: the exact contents of a capture. A
block's noise chunks are the pieces of a ``helper.WorkQueue``; each piece
draws its noise, filters and casts its samples on whichever thread claims
it, in that thread's ``helper.scratch``, so a block step allocates nothing
of the block's size but the block it yields. The output is the same byte
for byte whichever thread runs a piece.

IQ captures are raw interleaved 32-bit little-endian floats (I then Q per
sample, no header) with a JSON sidecar carrying only ``sample_rate_hz``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import helper
from .tap_approx import TapFile

__all__ = [
    "EmulatorConfig",
    "apply_channel",
    "make_noise",
    "noise_floor_db_for_dynamic_range",
    "pair_base_loss_db",
    "read_iq_file",
    "read_iq_sidecar",
    "iq_file_sample_count",
    "write_iq_file",
    "emulate_blocks",
    "emulate_repeated_reference_to_file",
]

DEFAULT_BASE_LOSS_DB = 57.55
DEFAULT_BASE_LOSS_SD_DB = 1.23
DEFAULT_DYNAMIC_RANGE_DB = 43.0
DEFAULT_BLOCK_SAMPLES = 1 << 17
NOISE_CHUNK_SAMPLES = 1 << 16  # noise samples drawn from one generator key

_GRID_TOL = 1e-6
_FILTER_SPAN = 1 << 13  # samples filtered per step: 128 KiB products


@dataclass(frozen=True)
class EmulatorConfig:
    """Emulation chain settings.

    ``noise_floor_db`` is the absolute per-sample complex noise power in dB
    (10*log10 of E|n|^2); None disables noise. Use
    :func:`noise_floor_db_for_dynamic_range` to place the sounded noise
    floor a given dynamic range below a reference tap. ``base_loss_sd_db``
    adds a per-pair Gaussian perturbation to the base loss (seeded
    symmetrically, so reciprocal links share a value). A NaN or infinite
    setting, or a negative SD, raises a ``ValueError`` naming the field; a
    -inf noise floor means no noise, as None does.
    """

    base_loss_db: float = DEFAULT_BASE_LOSS_DB
    base_loss_sd_db: float = 0.0
    noise_floor_db: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.base_loss_db):
            raise ValueError(f"base_loss_db must be finite, got {self.base_loss_db}")
        if not (math.isfinite(self.base_loss_sd_db) and self.base_loss_sd_db >= 0):
            raise ValueError(
                f"base_loss_sd_db must be finite and >= 0, got {self.base_loss_sd_db}"
            )
        floor = self.noise_floor_db
        if floor is not None and (math.isnan(floor) or floor == float("inf")):
            raise ValueError(
                f"noise_floor_db must be finite, -inf or None, got {floor}"
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


def make_noise(
    length: int, floor_db_rel: Optional[float], seed, start: int = 0
) -> np.ndarray:
    """Samples [start, start + length) of keyed complex Gaussian noise.

    The noise is circularly symmetric with total power 10**(dB/10); None or
    -inf power yields zeros. ``seed`` is an int or a tuple of ints, the key.
    Chunk c of the stream, samples [c * NOISE_CHUNK_SAMPLES,
    (c + 1) * NOISE_CHUNK_SAMPLES), draws interleaved I/Q from
    ``np.random.default_rng((*key, c))``, so a window equals that slice of
    the whole stream however it is cut. A seed sequence ignores trailing
    zero words up to four, so chunk 0 of a key of at most three 32-bit words
    is the stream of ``default_rng(key)`` itself.
    """
    if length < 0 or start < 0:
        raise ValueError("length and start must be >= 0")
    sigma = _noise_sigma(floor_db_rel)
    if sigma is None:
        return np.zeros(length, dtype=np.complex128)
    z = np.empty(2 * length)
    _draw_noise(z, seed if isinstance(seed, tuple) else (seed,), start, sigma)
    return z.view(np.complex128)


def _noise_sigma(floor_db: Optional[float]) -> Optional[float]:
    """Per-component noise amplitude; None when the power disables noise."""
    if floor_db is None or floor_db == float("-inf"):
        return None
    return math.sqrt(10.0 ** (floor_db / 10.0) / 2.0)


def _draw_noise(out: np.ndarray, key: tuple, start: int, sigma: float) -> None:
    """Fill interleaved I/Q ``out`` with the keyed noise from sample ``start``."""
    chunk = NOISE_CHUNK_SAMPLES
    n, stop = start, start + len(out) // 2
    while n < stop:
        end = min((n // chunk + 1) * chunk, stop)
        part = out[2 * (n - start) : 2 * (end - start)]
        _chunk_rng(key, n).standard_normal(out=part)
        part *= sigma
        n = end


def _chunk_rng(key: tuple, n: int) -> np.random.Generator:
    """The generator of the noise chunk that holds sample n, at sample n.

    A window that starts inside a chunk draws and drops that chunk's head:
    interleaved draws split anywhere equal one bulk draw from the same state.
    """
    c, head = divmod(n, NOISE_CHUNK_SAMPLES)
    rng = np.random.default_rng((*key, c))
    if head:
        rng.standard_normal(2 * head)
    return rng


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


def apply_channel(
    samples: np.ndarray,
    fs: float,
    taps: TapFile,
    pair: tuple[int, int],
    config: EmulatorConfig,
) -> np.ndarray:
    """Filter samples at rate ``fs`` through a link's time-varying taps.

    output[n] = sum_k c_k(t_n) * input[n - d_k], with zero prefix history,
    scaled by the base loss, plus noise: a complex128 array as long as the
    input. Sample n, at t_n = n / fs, takes the record that
    ``TapFile.tap_ids`` gives for t_n.
    """
    tx, rx = pair
    taps.require_pair(pair)
    step = _grid_step_samples(taps.grid_dt_s, fs)
    x = np.asarray(samples, dtype=np.complex128)
    n = len(x)
    if n == 0:
        return x.copy()

    max_idx = max((i for t in taps.used_tap_lists(pair) for i, _ in t), default=0)
    d_max = max_idx * step
    xp = np.concatenate([np.zeros(d_max, dtype=complex), x])
    y = np.empty(n, dtype=np.complex128)

    # each sample's record, looked up by its own time; filtered per run
    ids = taps.tap_ids(np.arange(n) / fs, tx, rx)
    starts = np.flatnonzero(np.diff(ids, prepend=-1)).tolist()
    for n0, n1 in zip(starts, starts[1:] + [n]):
        block = np.zeros(n1 - n0, dtype=np.complex128)
        for i, c in taps.tap_lists[ids[n0]]:
            block += c * xp[d_max + n0 - i * step : d_max + n1 - i * step]
        y[n0:n1] = block

    loss = pair_base_loss_db(config, tx, rx)
    y *= 10.0 ** (-loss / 20.0)
    if config.noise_floor_db is not None:
        y += make_noise(n, config.noise_floor_db, (config.seed, tx, rx))
    return y


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def read_iq_sidecar(path) -> float:
    """The sample rate in a capture's sidecar; errors name the sidecar."""
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(f"missing IQ sidecar metadata: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{sidecar}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar}: not JSON: {exc}") from None
    if not isinstance(meta, dict) or "sample_rate_hz" not in meta:
        raise ValueError(f"{sidecar}: no sample_rate_hz")
    rate = meta["sample_rate_hz"]
    is_number = isinstance(rate, (int, float)) and not isinstance(rate, bool)
    if not (is_number and math.isfinite(rate) and rate > 0):
        raise ValueError(
            f"{sidecar}: sample_rate_hz {rate!r} is not a finite number > 0"
        )
    return float(rate)


def iq_file_sample_count(path) -> int:
    """Samples in a capture; a byte count that is not whole samples is an error."""
    size = Path(path).stat().st_size
    if size % 8:
        raise ValueError(
            f"IQ capture {path} holds {size} bytes, not a whole number of "
            "8-byte samples (truncated?)"
        )
    return size // 8


def read_iq_file(path) -> np.ndarray:
    """The samples of a complete capture (one with its sidecar), as stored."""
    read_iq_sidecar(path)
    return np.fromfile(path, dtype="<c8", count=iq_file_sample_count(path))


def _read_iq_blocks(path, total: int, block: int) -> Iterator[np.ndarray]:
    """The first ``total`` samples of a capture as stored, ``block`` at a time.

    Every block is read into one buffer, so a block is valid only until the
    next is asked for. A file that ends early is an error naming it.
    """
    buf = np.empty(min(block, total), dtype="<c8")
    with open(path, "rb") as fh:
        for start in range(0, total, block):
            view = buf[: min(block, total - start)]
            if fh.readinto(view) != view.nbytes:
                raise ValueError(
                    f"IQ capture {path} ended before sample {start + len(view)}"
                )
            yield view


def write_iq_file(path, blocks, sample_rate_hz: float) -> None:
    """Write sample blocks as a capture, then its sidecar, each through
    :func:`helper.output`, so an unfinished capture never looks valid. A bad
    sample rate is refused before any file is touched; the old sidecar goes
    first. Each block is let go once written, before the next is asked for,
    so a producer of fresh blocks can reuse its memory for the one after."""
    path = Path(path)
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(
            f"{path}: sample_rate_hz {sample_rate_hz!r} is not a finite number > 0"
        )
    _sidecar_path(path).unlink(missing_ok=True)
    with helper.output(path, "wb") as fh:
        for block in blocks:
            np.asarray(block, dtype="<c8").tofile(fh)
            del block
    with helper.output(_sidecar_path(path)) as fh:
        json.dump({"sample_rate_hz": sample_rate_hz}, fh)


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
    but the last, and is a new array that the caller owns. A sample past the
    tap file raises before the first block is made.

    A block's noise chunks are the pieces of a ``helper.WorkQueue``, and a
    piece does the whole step for its samples on whichever thread claims
    it, in spans of at most ``_FILTER_SPAN`` samples inside one run of a tap
    list (``TapFile.sample_runs``): it filters the tiled reference, scales,
    adds the keyed noise of ``make_noise`` and casts into the block. Those
    are the operations of ``apply_channel`` in its order, and split noise
    draws equal one bulk draw, so the output depends neither on the block
    size nor on the thread. A piece works in its thread's ``helper.scratch``,
    so a step allocates no block-sized array but the block. The next
    block's queue starts before a block is yielded; closing the generator
    early waits only for the piece in flight.
    """
    tx, rx = pair
    taps.require_pair(pair)
    if block_samples < 1:
        raise ValueError("block_samples must be >= 1")
    step = _grid_step_samples(taps.grid_dt_s, fs)
    ref = np.asarray(reference, dtype=np.complex128)
    frame = len(ref)
    max_idx = max((i for t in taps.used_tap_lists(pair) for i, _ in t), default=0)
    d_max = max_idx * step
    # tiled[m + d_max] is input sample m: d_max zeros of history, then the
    # reference repeated, long enough that every span's inputs are a slice
    tiled = np.concatenate(
        [np.zeros(d_max, dtype=np.complex128), np.resize(ref, frame + _FILTER_SPAN + d_max)]
    )
    scale = 10.0 ** (-pair_base_loss_db(config, tx, rx) / 20.0)
    key = (config.seed, tx, rx)
    sigma = _noise_sigma(config.noise_floor_db)
    chunk = NOISE_CHUNK_SAMPLES

    edges, run_ids = taps.sample_runs(pair, fs, 0, total_samples)
    edges, run_ids = edges.tolist(), run_ids.tolist()
    # each tap list's (delay in samples, coefficient) pairs, built once
    filters = {
        tid: [(i * step, c) for i, c in taps.tap_lists[tid]] for tid in set(run_ids)
    }

    def piece(out, pos, n0, n1):
        # samples [n0, n1), inside one noise chunk, into `out` from `pos` on
        rng = None if sigma is None else _chunk_rng(key, n0)
        span = min(_FILTER_SPAN, n1 - n0)
        fir = helper.scratch("emulator.fir", span, np.complex128)
        products = helper.scratch("emulator.product", span, np.complex128)
        draws = helper.scratch("emulator.noise", 2 * span, np.float64)
        for r in range(bisect_right(edges, n0) - 1, bisect_left(edges, n1)):
            stop = min(edges[r + 1], n1)
            for a in range(max(edges[r], n0), stop, _FILTER_SPAN):
                n = min(a + _FILTER_SPAN, stop) - a
                y, product = fir[:n], products[:n]
                # inputs from sample a - d_max on: in the zero history, or at
                # their phase of the reference
                base = a if a < d_max else d_max + (a - d_max) % frame
                y[...] = 0
                for d, c in filters[run_ids[r]]:
                    x = tiled[base + d_max - d : base + d_max - d + n]
                    y += np.multiply(c, x, out=product)
                y *= scale
                if rng is not None:
                    z = draws[: 2 * n]
                    rng.standard_normal(out=z)
                    z *= sigma
                    y += z.view(np.complex128)
                out[a - pos : a - pos + n] = y

    def start(pos):
        # the block from `pos` on, cut at noise chunk edges
        stop = min(pos + block_samples, total_samples)
        out = np.empty(stop - pos, dtype=np.complex64)
        cuts = [pos, *range(pos - pos % chunk + chunk, stop, chunk), stop]
        return out, helper.WorkQueue(zip(cuts, cuts[1:]), partial(piece, out, pos))

    pos = 0
    queue = None
    try:
        if total_samples > 0:
            out, queue = start(0)
        while queue is not None:
            queue.finish()
            block, pos, queue = out, pos + len(out), None
            if pos < total_samples:
                out, queue = start(pos)  # runs on the helper while we yield
            yield block
    finally:  # also when the consumer stops early: leave nothing running
        if queue is not None:
            queue.cancel()


def emulate_repeated_reference_to_file(
    taps: TapFile,
    pair: tuple[int, int],
    config: EmulatorConfig,
    reference: np.ndarray,
    sample_rate_hz: float,
    total_samples: int,
    out_path,
) -> None:
    """Write :func:`emulate_blocks` to a capture file with its sidecar."""
    blocks = emulate_blocks(taps, pair, config, reference, sample_rate_hz, total_samples)
    write_iq_file(out_path, blocks, sample_rate_hz)
