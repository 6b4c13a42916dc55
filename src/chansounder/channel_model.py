"""Multipath channel representation: ray paths, snapshots, and link budgets.

A channel between one node pair at one sample instant is a set of ray paths,
each carrying received power (dBm), phase, and time of arrival. From these
the module derives complex path coefficients, the channel impulse response,
and coherent link path loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "RayPath",
    "ChannelSnapshot",
    "RadioParams",
    "noise_floor_dbm",
    "prune_paths",
    "path_coefficient",
    "link_path_loss_db",
    "snapshot_to_cir",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RayPath:
    """One propagation path: power, phase, delay, optional angular metadata.

    Angles are carried through parsing but never consumed by the emulation
    math. Every value given must be finite.
    """

    received_power_dbm: float
    phase_rad: float
    toa_s: float
    aoa_deg: Optional[float] = None
    aod_deg: Optional[float] = None

    def __post_init__(self):
        for name in ("received_power_dbm", "phase_rad", "toa_s", "aoa_deg", "aod_deg"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.toa_s < 0:
            raise ValueError(f"toa_s must be >= 0, got {self.toa_s}")
        object.__setattr__(self, "phase_rad", self.phase_rad % TWO_PI)


@dataclass(frozen=True)
class ChannelSnapshot:
    """All ray paths between one ordered node pair at one sample instant."""

    tx_id: int
    rx_id: int
    sample_index: int
    time_s: float
    paths: tuple[RayPath, ...] = field(default_factory=tuple)

    def __post_init__(self):
        paths = tuple(sorted(self.paths, key=lambda p: p.toa_s))
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class RadioParams:
    """Link-budget inputs for one radio node."""

    tx_power_dbm: float = 20.0
    antenna_gain_tx_dbi: float = 5.0
    antenna_gain_rx_dbi: float = 5.0
    carrier_hz: float = 5.915e9
    bandwidth_hz: float = 20e6
    noise_density_dbm_hz: float = -172.8
    noise_figure_db: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")


def noise_floor_dbm(params: RadioParams) -> float:
    """Receiver noise floor: noise density + 10*log10(bandwidth) + figure."""
    return (
        params.noise_density_dbm_hz
        + 10.0 * math.log10(params.bandwidth_hz)
        + params.noise_figure_db
    )


def prune_paths(snapshot: ChannelSnapshot, floor_dbm: float) -> ChannelSnapshot:
    """Drop paths weaker than the noise floor; a path exactly at it is kept."""
    kept = tuple(p for p in snapshot.paths if p.received_power_dbm >= floor_dbm)
    return ChannelSnapshot(
        snapshot.tx_id, snapshot.rx_id, snapshot.sample_index, snapshot.time_s, kept
    )


def path_coefficient(p_rx_dbm: float, p_tx_dbm: float, phase_rad: float) -> complex:
    """Complex path gain: 10**((P_rx - P_tx)/20) * exp(j*phase)."""
    magnitude = 10.0 ** ((p_rx_dbm - p_tx_dbm) / 20.0)
    return magnitude * complex(math.cos(phase_rad), math.sin(phase_rad))


def link_path_loss_db(snapshot: ChannelSnapshot, p_tx_dbm: float) -> float:
    """Coherent link path loss: -20*log10 |sum of path coefficients|.

    Returns +inf for a destructive null (coefficients sum to zero) rather
    than raising; an empty snapshot is an error.
    """
    if not snapshot.paths:
        raise ValueError("no propagation paths")
    coefficients = [
        path_coefficient(p.received_power_dbm, p_tx_dbm, p.phase_rad)
        for p in snapshot.paths
    ]
    total = sum(coefficients)
    magnitude = abs(total)
    # Cancellation down to machine precision is a destructive null, not a
    # finite fade; flag it as infinite loss instead of a huge number.
    if magnitude <= 1e-12 * sum(abs(c) for c in coefficients):
        return float("inf")
    return -20.0 * math.log10(magnitude)


def snapshot_to_cir(
    snapshot: ChannelSnapshot, p_tx_dbm: float
) -> list[tuple[float, complex]]:
    """Impulse-response view: one (delay_s, complex coefficient) per path."""
    return [
        (p.toa_s, path_coefficient(p.received_power_dbm, p_tx_dbm, p.phase_rad))
        for p in snapshot.paths
    ]
