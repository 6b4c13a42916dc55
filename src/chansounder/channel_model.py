"""Multipath channel representation: ray paths, snapshots, and link budgets.

A channel between one node pair at one sample instant is a set of ray paths,
each carrying received power (dBm), phase, and time of arrival. From these
the module derives complex path coefficients and coherent link path loss.
A :class:`PathTable` holds the paths of many snapshots as columns, and
:meth:`PathTable.coefficients` is the one prune-and-coefficient step that
the tap build and the truth series share; :func:`checked_phase` checks one
path. :class:`RayPath` and :class:`ChannelSnapshot` view one snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "RayPath",
    "ChannelSnapshot",
    "PathTable",
    "checked_phase",
    "RadioParams",
    "noise_floor_dbm",
    "path_coefficient",
    "coherent_loss_db",
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
        values = (getattr(self, name) for name in _PATH_FIELDS)
        object.__setattr__(self, "phase_rad", checked_phase(*values))

    @classmethod
    def _of_checked(cls, *values) -> "RayPath":
        """A row of a PathTable, whose values are checked and reduced already."""
        path = object.__new__(cls)
        for name, value in zip(_PATH_FIELDS, values):
            object.__setattr__(path, name, value)
        return path


_PATH_FIELDS = ("received_power_dbm", "phase_rad", "toa_s", "aoa_deg", "aod_deg")


def checked_phase(power_dbm, phase_rad, toa_s, aoa_deg=None, aod_deg=None):
    """One path's phase reduced with ``%`` 2*pi, once every value given (not
    None) is finite and toa >= 0; the first value to break a rule raises."""
    for name, value in zip(_PATH_FIELDS, (power_dbm, phase_rad, toa_s, aoa_deg, aod_deg)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if toa_s < 0:
        raise ValueError(f"toa_s must be >= 0, got {toa_s}")
    return phase_rad % TWO_PI


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


@dataclass(frozen=True, eq=False)
class PathTable:
    """The ray paths of many snapshots, stored as CSR columns.

    Snapshot ``b`` owns rows ``offsets[b]:offsets[b + 1]`` of the columns
    ``power_dbm``, ``phase_rad``, ``toa_s``, ``aoa_deg`` and ``aod_deg``, in
    toa order (stable). The values obey :func:`checked_phase`'s rules:
    finite, toa >= 0, and phases reduced with ``%`` 2*pi by whoever fills
    the table. An angle is NaN where a path carries none.
    """

    offsets: np.ndarray
    power_dbm: np.ndarray
    phase_rad: np.ndarray
    toa_s: np.ndarray
    aoa_deg: np.ndarray
    aod_deg: np.ndarray

    @classmethod
    def of_columns(cls, counts, power_dbm, phase_rad, toa_s, aoa_deg=None, aod_deg=None):
        """A table of ``len(counts)`` snapshots from rows already in order;
        angles default to none. A value that breaks a path's rules raises
        the ValueError of :func:`checked_phase`, checked column by column."""
        columns = [np.asarray(c, dtype=float) for c in (power_dbm, phase_rad, toa_s)]
        n = len(columns[0])
        columns += [
            np.full(n, np.nan) if c is None else np.asarray(c, dtype=float)
            for c in (aoa_deg, aod_deg)
        ]
        for name, column in zip(_PATH_FIELDS, columns):
            bad = np.isinf(column) if name in ("aoa_deg", "aod_deg") else ~np.isfinite(column)
            if bad.any():
                raise ValueError(f"{name} must be finite, got {column[bad][0]}")
        if (columns[2] < 0).any():
            raise ValueError(f"toa_s must be >= 0, got {columns[2][columns[2] < 0][0]}")
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return cls(offsets, *columns)

    @classmethod
    def concat(cls, tables) -> "PathTable":
        """The snapshots of ``tables``, one table after another."""
        counts = np.concatenate([np.diff(t.offsets) for t in tables])
        return cls(
            np.concatenate(([0], np.cumsum(counts))),
            *(
                np.concatenate([getattr(t, name) for t in tables])
                for name in _COLUMNS
            ),
        )

    def rows(self, snapshots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``snapshots``, one snapshot after another, and the
        number of rows of each."""
        snapshots = np.asarray(snapshots, dtype=np.intp)
        start = self.offsets[snapshots]
        counts = self.offsets[snapshots + 1] - start
        first = np.cumsum(counts) - counts  # where each snapshot's rows begin
        return np.arange(counts.sum()) + np.repeat(start - first, counts), counts

    def take(self, snapshots) -> "PathTable":
        """A table of ``snapshots``, in their order; one may come more than once."""
        rows, counts = self.rows(snapshots)
        return PathTable(
            np.concatenate(([0], np.cumsum(counts))),
            *(getattr(self, name)[rows] for name in _COLUMNS),
        )

    def distinct(self, snapshots) -> tuple[np.ndarray, np.ndarray]:
        """Group ``snapshots`` by content: their rows of all five columns,
        byte for byte. :class:`~chansounder.mobility.ChannelMatrix` keeps
        each group once.

        Returns the position in ``snapshots`` of each group's first member,
        groups numbered in order of first appearance, and the group of
        each snapshot.
        """
        rows, counts = self.rows(snapshots)
        data = np.stack([getattr(self, name)[rows] for name in _COLUMNS], axis=1).tobytes()
        bounds = (8 * len(_COLUMNS) * np.concatenate(([0], np.cumsum(counts)))).tolist()
        group_of: dict[bytes, int] = {}
        group = [group_of.setdefault(data[a:b], len(group_of)) for a, b in zip(bounds, bounds[1:])]
        return np.unique(group, return_index=True)[1], np.array(group, dtype=np.intp)

    def coefficients(
        self, snapshots, p_tx_dbm, floor_dbm: Optional[float] = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The paths of ``snapshots`` at or above ``floor_dbm`` and their
        complex coefficients, snapshot ``snapshots[i]`` sent at ``p_tx_dbm[i]``.

        A path exactly at the floor is kept; without a floor every path is.
        Returns the kept rows, one snapshot after another, the number kept
        of each snapshot, and each kept path's :func:`path_coefficient`.
        """
        rows, counts = self.rows(snapshots)
        p_tx = np.repeat(np.asarray(p_tx_dbm, dtype=float), counts)
        if floor_dbm is not None:
            kept = self.power_dbm[rows] >= floor_dbm
            seg = np.repeat(np.arange(len(counts)), counts)
            counts = np.bincount(seg[kept], minlength=len(counts))
            rows, p_tx = rows[kept], p_tx[kept]
        power, phase = self.power_dbm[rows].tolist(), self.phase_rad[rows].tolist()
        coeffs = map(path_coefficient, power, p_tx.tolist(), phase)
        return rows, counts, np.fromiter(coeffs, complex, len(rows))

    def ray_paths(self, b: int) -> tuple[RayPath, ...]:
        """Snapshot ``b`` as RayPaths (an angle of NaN reads None)."""
        a, z = self.offsets[b], self.offsets[b + 1]
        values = [getattr(self, name)[a:z].tolist() for name in _COLUMNS]
        for angles in values[3:]:
            angles[:] = [None if x != x else x for x in angles]
        return tuple(map(RayPath._of_checked, *values))


_COLUMNS = ("power_dbm", "phase_rad", "toa_s", "aoa_deg", "aod_deg")


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


def path_coefficient(p_rx_dbm: float, p_tx_dbm: float, phase_rad: float) -> complex:
    """Complex path gain: 10**((P_rx - P_tx)/20) * exp(j*phase)."""
    magnitude = 10.0 ** ((p_rx_dbm - p_tx_dbm) / 20.0)
    return magnitude * complex(math.cos(phase_rad), math.sin(phase_rad))


def coherent_loss_db(coeffs: np.ndarray, counts) -> np.ndarray:
    """Coherent link path loss, -20*log10 |sum of path coefficients|, of each
    run of ``counts[i]`` consecutive coefficients.

    Each run is summed with Python's ``sum``, in path order. A destructive
    null (the coefficients cancel) reads +inf and a run without paths NaN.
    """
    values = coeffs.tolist()
    bounds = np.cumsum(np.r_[0, counts]).tolist()
    losses = np.full(len(bounds) - 1, np.nan)
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a < b:
            magnitude = abs(sum(values[a:b]))
            # Cancellation down to machine precision is a destructive null, not
            # a finite fade; flag it as infinite loss instead of a huge number.
            null = magnitude <= 1e-12 * sum(map(abs, values[a:b]))
            losses[i] = math.inf if null else -20.0 * math.log10(magnitude)
    return losses
