"""Sounding code generation: GLFSR m-sequences, Gold, Golay-A, and LS codes.

All generators emit bipolar chip sequences in {-1, +1}. Chips use the
(-1)**bit convention (register bit 0 maps to +1), which gives m-sequences
the classic two-valued periodic autocorrelation (N at lag 0, -1 elsewhere)
and Gold codes the three-valued cross-correlation spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import helper

__all__ = [
    "CodeSequence",
    "CorrelationProfile",
    "generate_glfsr",
    "generate_gold",
    "generate_golay_a",
    "generate_golay_pair",
    "generate_ls",
    "ls_codeset_with_gap",
    "bpsk_modulate",
    "periodic_correlation",
    "is_primitive",
    "default_polynomial",
    "write_sequence",
    "read_sequence",
    "DEFAULT_GOLD_PAIRS",
]


# Primitive polynomials over GF(2), one per degree, as integer bit masks
# (bit i = coefficient of x^i, top bit = x^degree). Each entry was checked
# for primitivity (order of x equals 2^degree - 1).
_PRIMITIVE_POLY = {
    2: 0x7,  # x^2 + x + 1
    3: 0xB,  # x^3 + x + 1
    4: 0x13,  # x^4 + x + 1
    5: 0x25,  # x^5 + x^2 + 1
    6: 0x43,  # x^6 + x + 1
    7: 0x83,  # x^7 + x + 1
    8: 0x11D,  # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,  # x^9 + x^4 + 1
    10: 0x409,  # x^10 + x^3 + 1
    11: 0x805,  # x^11 + x^2 + 1
    12: 0x1053,  # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,  # x^13 + x^4 + x^3 + x + 1
    14: 0x402B,  # x^14 + x^5 + x^3 + x + 1
    15: 0x8003,  # x^15 + x + 1
    16: 0x1002D,  # x^16 + x^5 + x^3 + x^2 + 1
    17: 0x20009,  # x^17 + x^3 + 1
    18: 0x40081,  # x^18 + x^7 + 1
    19: 0x80027,  # x^19 + x^5 + x^2 + x + 1
    20: 0x100009,  # x^20 + x^3 + 1
    21: 0x200005,  # x^21 + x^2 + 1
    22: 0x400003,  # x^22 + x + 1
    23: 0x800021,  # x^23 + x^5 + 1
    24: 0x100001B,  # x^24 + x^4 + x^3 + x + 1
    25: 0x2000009,  # x^25 + x^3 + 1
    26: 0x4000047,  # x^26 + x^6 + x^2 + x + 1
    27: 0x8000027,  # x^27 + x^5 + x^2 + x + 1
    28: 0x10000009,  # x^28 + x^3 + 1
    29: 0x20000005,  # x^29 + x^2 + 1
    30: 0x40000053,  # x^30 + x^6 + x^4 + x + 1
    31: 0x80000009,  # x^31 + x^3 + 1
    32: 0x1000000C5,  # x^32 + x^7 + x^6 + x^2 + 1
}

# Default polynomial pairs for Gold generation. Degree 5/6/7/9/10/11 pairs
# are preferred pairs (verified three-valued cross-correlation); degree 8
# has no preferred pair (degree divisible by 4), so its default is an
# ordinary primitive pair with a worse correlation spectrum.
DEFAULT_GOLD_PAIRS = {
    5: (0x25, 0x3D),
    6: (0x43, 0x5B),
    7: (0x89, 0x8F),
    8: (0x11D, 0x187),
    9: (0x211, 0x21B),
    10: (0x409, 0x46F),
    11: (0x805, 0x82B),
}

# Golay delay/weight recursion vectors (802.11ad-style Ga sequences).
_GOLAY_VECTORS = {
    32: ((1, 4, 8, 2, 16), (-1, 1, -1, 1, -1)),
    64: ((2, 1, 4, 8, 16, 32), (1, 1, -1, -1, 1, -1)),
    128: ((1, 8, 2, 4, 16, 32, 64), (-1, -1, -1, -1, 1, -1, -1)),
}

_LS_MIN_ORDER = 3
_LS_MAX_ORDER = 8


@dataclass(frozen=True)
class CodeSequence:
    """A bipolar chip sequence; its config section records how it was made."""

    chips: np.ndarray
    family: str

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=np.int8)
        if chips.ndim != 1 or chips.size == 0:
            raise ValueError("chips must be a non-empty 1-D sequence")
        if not np.all(np.abs(chips) == 1):
            raise ValueError("all chips must be -1 or +1")
        object.__setattr__(self, "chips", chips)
        chips.setflags(write=False)

    @property
    def length(self) -> int:
        return int(self.chips.size)


@dataclass(frozen=True)
class CorrelationProfile:
    """Circular correlation values over all lags with peak/sidelobe stats."""

    lags: np.ndarray
    values: np.ndarray
    peak_value: float
    max_sidelobe: float
    peak_to_sidelobe_db: float


def _factorize(m: int) -> set[int]:
    factors = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    return factors


def _poly_mul_mod(a: int, b: int, poly: int, degree: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> degree) & 1:
            a ^= poly
    return r


def _poly_pow_mod(base: int, exp: int, poly: int, degree: int) -> int:
    r = 1
    while exp:
        if exp & 1:
            r = _poly_mul_mod(r, base, poly, degree)
        base = _poly_mul_mod(base, base, poly, degree)
        exp >>= 1
    return r


def is_primitive(poly: int, degree: int) -> bool:
    """True iff ``poly`` is a primitive polynomial of ``degree`` over GF(2)."""
    if poly >> degree != 1 or not poly & 1:
        return False
    order = (1 << degree) - 1
    x = 0b10
    if _poly_pow_mod(x, order, poly, degree) != 1:
        return False
    return all(
        _poly_pow_mod(x, order // q, poly, degree) != 1 for q in _factorize(order)
    )


def default_polynomial(degree: int) -> int:
    """Built-in primitive polynomial for a register degree."""
    try:
        return _PRIMITIVE_POLY[degree]
    except KeyError:
        raise ValueError(f"no built-in primitive polynomial for degree {degree}")


def _glfsr_bits(mask: int, seed: int, degree: int, length: int) -> np.ndarray:
    state = seed & ((1 << degree) - 1)
    bits = np.empty(length, dtype=np.int8)
    for i in range(length):
        bit = state & 1
        bits[i] = bit
        state >>= 1
        if bit:
            state ^= mask
    return bits


def generate_glfsr(degree: int, mask: int = 0, seed: int = 1) -> CodeSequence:
    """Maximal-length sequence from a Galois LFSR.

    ``mask`` selects the feedback taps of the right-shift Galois register;
    0 picks the built-in primitive polynomial for ``degree``. ``seed`` is
    the nonzero initial register state.
    """
    if not 2 <= degree <= 32:
        raise ValueError(f"degree must be in [2, 32], got {degree}")
    if seed & ((1 << degree) - 1) == 0:
        raise ValueError("degenerate LFSR state: seed must be nonzero")
    if mask == 0:
        poly = default_polynomial(degree)
        mask = poly >> 1  # x*M(x) + 1 = poly, so M = (poly - 1)/x
    bits = _glfsr_bits(mask, seed, degree, (1 << degree) - 1)
    return CodeSequence(1 - 2 * bits, "GLFSR")


def _fibonacci_mseq_bits(poly: int, degree: int, seed: int = 1) -> np.ndarray:
    state = seed & ((1 << degree) - 1)
    taps = poly & ((1 << degree) - 1)
    length = (1 << degree) - 1
    bits = np.empty(length, dtype=np.int8)
    for i in range(length):
        bits[i] = state & 1
        fb = bin(state & taps).count("1") & 1
        state = (state >> 1) | (fb << (degree - 1))
    return bits


def generate_gold(
    degree: int,
    poly_a: int | None = None,
    poly_b: int | None = None,
    shift: int = 0,
) -> CodeSequence:
    """Gold code: chip-wise product of two m-sequences, one cyclically shifted.

    Polynomials are integer bit masks including the x^degree term; both must
    be primitive. ``None`` selects the default pair for the degree. Note the
    degree-8 default is not a preferred pair (none exists for degrees
    divisible by 4), so its correlation spectrum is worse than a true
    preferred pair's.
    """
    if poly_a is None or poly_b is None:
        if degree not in DEFAULT_GOLD_PAIRS:
            raise ValueError(f"no default polynomial pair for degree {degree}")
        poly_a, poly_b = DEFAULT_GOLD_PAIRS[degree]
    length = (1 << degree) - 1
    if not 0 <= shift <= length - 1:
        raise ValueError(f"shift must be in [0, {length - 1}], got {shift}")
    for name, poly in (("poly_a", poly_a), ("poly_b", poly_b)):
        if not is_primitive(poly, degree):
            raise ValueError(f"{name}=0x{poly:x} is not primitive of degree {degree}")
    bits_a = _fibonacci_mseq_bits(poly_a, degree)
    bits_b = _fibonacci_mseq_bits(poly_b, degree)
    bits = bits_a ^ np.roll(bits_b, -shift)
    return CodeSequence(1 - 2 * bits, "GOLD")


def generate_golay_pair(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Complementary (Ga, Gb) pair via the delay/weight recursion."""
    if length not in _GOLAY_VECTORS:
        raise ValueError(
            f"unsupported Golay length {length}; supported: {sorted(_GOLAY_VECTORS)}"
        )
    delays, weights = _GOLAY_VECTORS[length]
    a = np.array([1.0])
    b = np.array([1.0])
    for d, w in zip(delays, weights):
        n = len(a) + d
        a_next = np.zeros(n)
        b_next = np.zeros(n)
        a_next[: len(a)] += w * a
        a_next[d : d + len(b)] += b
        b_next[: len(a)] += w * a
        b_next[d : d + len(b)] -= b
        a, b = a_next, b_next
    return a.astype(np.int8), b.astype(np.int8)


def generate_golay_a(length: int) -> CodeSequence:
    """Ga sequence of the complementary Golay pair, lengths 32/64/128."""
    ga, _ = generate_golay_pair(length)
    return CodeSequence(ga, "GOLAY_A")


def _basic_golay_pair(order: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([1], dtype=np.int8)
    b = np.array([1], dtype=np.int8)
    for _ in range(order):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return a, b


def ls_codeset_with_gap(order: int) -> list[np.ndarray]:
    """Both LS codeset members including the interference-free window.

    Each code is [half_a, zero gap, half_b] with gap = 2^order / 2; the
    second member is the Golay mate of the first. Values are in {-1, 0, +1};
    the zero gap is what gives the zero-correlation zone around lag 0.
    """
    if not _LS_MIN_ORDER <= order <= _LS_MAX_ORDER:
        raise ValueError(
            f"LS order must be in [{_LS_MIN_ORDER}, {_LS_MAX_ORDER}], got {order}"
        )
    a, b = _basic_golay_pair(order)
    mate_a, mate_b = b[::-1].copy(), (-a[::-1]).copy()
    gap = np.zeros(len(a) // 2, dtype=np.int8)
    return [
        np.concatenate([a, gap, b]),
        np.concatenate([mate_a, gap, mate_b]),
    ]


def generate_ls(order: int) -> CodeSequence:
    """First LS codeset member with the interference-free window removed."""
    codes = ls_codeset_with_gap(order)
    chips = codes[0][codes[0] != 0]
    return CodeSequence(chips, "LS")


def bpsk_modulate(code: CodeSequence, samples_per_chip: int = 1) -> np.ndarray:
    """BPSK baseband, Q = 0, so real: each chip held for samples_per_chip samples."""
    if samples_per_chip < 1:
        raise ValueError("samples_per_chip must be >= 1")
    return np.repeat(code.chips.astype(np.float64), samples_per_chip)


def periodic_correlation(a: CodeSequence, b: CodeSequence) -> CorrelationProfile:
    """Circular correlation over all lags: values[k] = sum_n a[n] * b[n+k].

    FFT-accelerated; matches the direct sum to better than 1e-9 relative.
    Peak statistics are referenced to lag 0.
    """
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} != {b.length}")
    xa = a.chips.astype(np.float64)
    xb = b.chips.astype(np.float64)
    values = np.fft.ifft(np.conj(np.fft.fft(xa)) * np.fft.fft(xb)).real
    lags = np.arange(a.length)
    peak = float(values[0])
    max_side = float(np.max(np.abs(values[1:])))
    if max_side > 0 and peak > 0:
        ratio_db = 20.0 * np.log10(peak / max_side)
    else:
        ratio_db = float("inf")
    return CorrelationProfile(lags, values, peak, max_side, ratio_db)


def write_sequence(code: CodeSequence, path) -> None:
    """Export chips as a one-chip-per-line signed-integer text file."""
    with helper.output(path) as fh:
        for chip in code.chips:
            fh.write(f"{int(chip)}\n")


def read_sequence(path, family: str = "IMPORTED") -> CodeSequence:
    """Load a one-chip-per-line sequence file; errors name the file."""
    try:
        chips = np.loadtxt(path, dtype=np.int8, ndmin=1)
        return CodeSequence(chips, family)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
