"""Node mobility: trajectory sampling, synthetic ray paths, channel matrix.

Trajectories are sampled spatially at D = speed * sample_interval so that
successive channel realizations stay inside the configured coherence
distance. A deterministic free-space + image-method generator stands in for
a ray tracer: it emits a line-of-sight path plus one specular path per
reflector-plane bounce sequence, each as (received power, phase, delay).
The per-pair snapshots are assembled into a (node, node, sample) channel
matrix with stationary-transmitter reuse and per-node sample clamping.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .channel_model import ChannelSnapshot, RadioParams, RayPath

__all__ = [
    "SPEED_OF_LIGHT",
    "MPH_TO_MPS",
    "Trajectory",
    "NodeSpec",
    "ReflectorPlane",
    "Scenario",
    "ChannelMatrix",
    "num_samples",
    "sample_trajectory",
    "free_space_loss_db",
    "synthesize_pair_paths",
    "synthesize_paths",
    "assemble_channel_matrix",
    "write_paths_file",
    "read_paths_records",
    "load_scenario",
]

SPEED_OF_LIGHT = 299_792_458.0
MPH_TO_MPS = 0.44704
DEFAULT_COHERENCE_DISTANCE_M = 15.0
RAY_POWER_CUTOFF_DBM = -250.0


@dataclass(frozen=True)
class Trajectory:
    """Ground-track polyline with a constant speed.

    ``loop_back`` doubles the polyline into an out-and-back course. A
    stationary node is a single waypoint at speed zero.
    """

    waypoints: tuple
    speed_mps: float = 0.0
    loop_back: bool = False

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) + (0.0,) * (3 - len(p)) for p in self.waypoints)
        if not pts:
            raise ValueError("trajectory needs at least one waypoint")
        if any(len(p) != 3 for p in pts):
            raise ValueError("waypoints must be 2-D or 3-D points")
        object.__setattr__(self, "waypoints", pts)
        if self.speed_mps < 0:
            raise ValueError("speed_mps must be >= 0")
        distinct = len(set(pts)) > 1
        if self.speed_mps == 0 and distinct:
            raise ValueError("zero speed requires a single effective position")
        if self.speed_mps > 0 and not distinct:
            raise ValueError("moving node requires at least two distinct waypoints")

    def polyline(self) -> np.ndarray:
        pts = list(self.waypoints)
        if self.loop_back and len(pts) > 1:
            pts = pts + pts[-2::-1]
        return np.asarray(pts, dtype=float)


@dataclass(frozen=True)
class NodeSpec:
    """One radio node: identity, antenna height, motion, radio parameters."""

    node_id: int
    kind: str
    antenna_height_m: float
    trajectory: Trajectory
    radio: RadioParams = field(default_factory=RadioParams)

    _KINDS = ("RSU", "OBU", "STATIC")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.antenna_height_m <= 0:
            raise ValueError("antenna_height_m must be > 0")

    @property
    def speed_mps(self) -> float:
        return self.trajectory.speed_mps


@dataclass(frozen=True)
class ReflectorPlane:
    """Axis-aligned specular reflector: the plane {axis coordinate = offset}."""

    axis: str
    offset: float = 0.0

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError("axis must be 'x', 'y', or 'z'")

    def mirror(self, point: np.ndarray) -> np.ndarray:
        idx = "xyz".index(self.axis)
        out = point.copy()
        out[idx] = 2.0 * self.offset - out[idx]
        return out


@dataclass(frozen=True)
class Scenario:
    """A full mobility scenario: nodes, geometry, and sampling cadence."""

    nodes: tuple[NodeSpec, ...]
    t_total_s: float
    sample_interval_s: float
    reflectors: tuple[ReflectorPlane, ...] = ()
    reflection_loss_db: float = 6.0
    max_bounces: int = 4
    coherence_distance_m: float = DEFAULT_COHERENCE_DISTANCE_M
    name: str = "scenario"
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [n.node_id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate node ids in scenario")

    def node(self, node_id: int) -> NodeSpec:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")

    @property
    def node_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes]


@dataclass
class ChannelMatrix:
    """3-D channel structure: one snapshot per (tx, rx, sample)."""

    node_ids: list[int]
    n_samples: int
    sample_interval_s: float
    entries: dict
    times: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def snapshot(self, tx_id: int, rx_id: int, s: int) -> ChannelSnapshot:
        """Snapshot for a pair at 1-based sample index s."""
        if not 1 <= s <= self.n_samples:
            raise IndexError(f"sample index {s} outside 1..{self.n_samples}")
        return self.entries[(tx_id, rx_id)][s - 1]


def num_samples(total_duration_s: float, sample_interval_s: float) -> int:
    """Sample count over a scenario: floor((T_total - 1)/T_s) + 1."""
    if total_duration_s < 1:
        raise ValueError("total_duration_s must be >= 1")
    if sample_interval_s <= 0:
        raise ValueError("sample_interval_s must be > 0")
    return int(math.floor((total_duration_s - 1.0) / sample_interval_s)) + 1


def sample_trajectory(
    traj: Trajectory,
    sample_interval_s: float,
    coherence_distance_m: float = DEFAULT_COHERENCE_DISTANCE_M,
) -> np.ndarray:
    """Positions spaced D = speed * interval along the polyline arc length.

    The start point is always included; a final sub-spacing remainder keeps
    the endpoint. A stationary trajectory yields a single position. Spacings
    above the coherence distance break spatial consistency and raise a
    warning.
    """
    if sample_interval_s <= 0:
        raise ValueError("sample_interval_s must be > 0")
    line = traj.polyline()
    if traj.speed_mps == 0:
        return line[:1].copy()
    spacing = traj.speed_mps * sample_interval_s
    if spacing > coherence_distance_m:
        warnings.warn(
            f"sample spacing {spacing:.2f} m exceeds coherence distance "
            f"{coherence_distance_m:.2f} m; channel samples may decorrelate",
            stacklevel=2,
        )
    seg = np.linalg.norm(np.diff(line, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    n_whole = int(math.floor(total / spacing + 1e-12))
    targets = [k * spacing for k in range(n_whole + 1)]
    if total - targets[-1] > 1e-9 * max(1.0, total):
        targets.append(total)
    targets = np.asarray(targets)
    coords = np.stack(
        [np.interp(targets, cum, line[:, k]) for k in range(3)], axis=1
    )
    return coords


def free_space_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c)."""
    if distance_m <= 0 or frequency_hz <= 0:
        raise ValueError("distance and frequency must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


def _bounce_sequences(planes: tuple[ReflectorPlane, ...], max_bounces: int):
    """Ordered reflector sequences, no immediate plane repeats."""
    seqs = [(p,) for p in planes]
    out = list(seqs)
    for _ in range(max_bounces - 1):
        seqs = [s + (p,) for s in seqs for p in planes if p != s[-1]]
        out.extend(seqs)
    return out


def synthesize_pair_paths(
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    radio: RadioParams,
    rx_gain_dbi: float,
    reflectors: tuple[ReflectorPlane, ...] = (),
    reflection_loss_db: float = 6.0,
    max_bounces: int = 4,
) -> tuple[RayPath, ...]:
    """LOS plus image-method specular paths between two positions.

    Received power is P_tx + G_t + G_r - FSPL(d) - bounces * reflection
    loss; delay is d/c and the phase is the carrier phase -2*pi*d/lambda
    with a pi flip per bounce. Paths weaker than the ray-source cutoff
    (-250 dBm) are discarded here, before any noise-floor pruning.
    """
    tx_pos = np.asarray(tx_pos, dtype=float)
    rx_pos = np.asarray(rx_pos, dtype=float)
    f = radio.carrier_hz
    gains = radio.antenna_gain_tx_dbi + rx_gain_dbi

    def make_path(image: np.ndarray, bounces: int) -> Optional[RayPath]:
        d = float(np.linalg.norm(image - rx_pos))
        if d == 0.0:
            raise ValueError("zero-distance link between tx and rx")
        p_rx = (
            radio.tx_power_dbm
            + gains
            - free_space_loss_db(d, f)
            - bounces * reflection_loss_db
        )
        if p_rx <= RAY_POWER_CUTOFF_DBM:
            return None
        phase = (-2.0 * math.pi * f * d / SPEED_OF_LIGHT + bounces * math.pi) % (
            2.0 * math.pi
        )
        return RayPath(
            received_power_dbm=p_rx,
            phase_rad=phase,
            toa_s=d / SPEED_OF_LIGHT,
        )

    paths = []
    los = make_path(tx_pos, 0)
    if los is not None:
        paths.append(los)
    if reflectors and max_bounces > 0:
        for seq in _bounce_sequences(tuple(reflectors), max_bounces):
            image = tx_pos.copy()
            for plane in seq:
                image = plane.mirror(image)
            p = make_path(image, len(seq))
            if p is not None:
                paths.append(p)
    return tuple(sorted(paths, key=lambda p: p.toa_s))


def _node_positions(scenario: Scenario) -> dict:
    """Sampled antenna positions per node (antenna height added on z)."""
    out = {}
    for node in scenario.nodes:
        pts = sample_trajectory(
            node.trajectory, scenario.sample_interval_s, scenario.coherence_distance_m
        )
        pts = pts.copy()
        pts[:, 2] += node.antenna_height_m
        out[node.node_id] = pts
    return out


def synthesize_paths(
    scenario: Scenario, sample_index: int, positions: Optional[dict] = None
) -> dict:
    """Snapshots for every ordered pair of distinct nodes at one sample.

    Trajectories shorter than the requested index are clamped to their last
    position.
    """
    if sample_index < 1:
        raise ValueError("sample_index is 1-based")
    if positions is None:
        positions = _node_positions(scenario)
    t = (sample_index - 1) * scenario.sample_interval_s
    snapshots = {}
    for tx in scenario.nodes:
        tx_pts = positions[tx.node_id]
        tx_pos = tx_pts[min(sample_index, len(tx_pts)) - 1]
        for rx in scenario.nodes:
            if rx.node_id == tx.node_id:
                continue
            rx_pts = positions[rx.node_id]
            rx_pos = rx_pts[min(sample_index, len(rx_pts)) - 1]
            paths = synthesize_pair_paths(
                tx_pos,
                rx_pos,
                tx.radio,
                rx.radio.antenna_gain_rx_dbi,
                scenario.reflectors,
                scenario.reflection_loss_db,
                scenario.max_bounces,
            )
            snapshots[(tx.node_id, rx.node_id)] = ChannelSnapshot(
                tx.node_id, rx.node_id, sample_index, t, paths
            )
    return snapshots


def _restamp(snapshot: ChannelSnapshot, s: int, t: float) -> ChannelSnapshot:
    return dataclasses.replace(snapshot, sample_index=s, time_s=t)


def assemble_channel_matrix(
    scenario: Scenario, records: Optional[dict] = None
) -> ChannelMatrix:
    """Build the (node, node, sample) channel matrix.

    A stationary transmitter's entries are copied from sample 1 for every
    later sample; otherwise per-node sample indices are clamped to the last
    available trajectory (or file) sample. ``records`` maps
    (tx_id, rx_id, s) to path tuples read from a paths file; when omitted
    the synthetic generator supplies them.
    """
    n_s = num_samples(scenario.t_total_s, scenario.sample_interval_s)
    t_s = scenario.sample_interval_s
    ids = scenario.node_ids
    entries = {(i, j): [None] * n_s for i in ids for j in ids}

    if records is None:
        positions = _node_positions(scenario)
        max_tx = {i: len(positions[i]) for i in ids}
        max_rx = dict(max_tx)
    else:
        max_tx = {}
        max_rx = {}
        for tx, rx, s in records:
            max_tx[tx] = max(max_tx.get(tx, 0), s)
            max_rx[rx] = max(max_rx.get(rx, 0), s)
        for i in ids:
            if i not in max_tx or i not in max_rx:
                raise ValueError(f"paths records missing node {i}")

    speed = {n.node_id: n.speed_mps for n in scenario.nodes}

    for s in range(1, n_s + 1):
        t = (s - 1) * t_s
        synthesized = None
        for i in ids:
            for j in ids:
                if i == j:
                    entries[(i, j)][s - 1] = ChannelSnapshot(i, j, s, t, ())
                    continue
                if speed[i] == 0 and s > 1:
                    entries[(i, j)][s - 1] = _restamp(entries[(i, j)][0], s, t)
                    continue
                if records is None:
                    if synthesized is None or synthesized_s != s:
                        synthesized = synthesize_paths(scenario, s, positions)
                        synthesized_s = s
                    entries[(i, j)][s - 1] = synthesized[(i, j)]
                else:
                    x = min(s, max_tx[i])
                    y = min(s, max_rx[j])
                    s_eff = min(x, y)
                    try:
                        paths = records[(i, j, s_eff)]
                    except KeyError:
                        raise ValueError(
                            f"paths records missing sample {s_eff} for pair ({i},{j})"
                        )
                    entries[(i, j)][s - 1] = ChannelSnapshot(i, j, s, t, tuple(paths))

    times = np.arange(n_s) * t_s
    return ChannelMatrix(ids, n_s, t_s, entries, times)


def write_paths_file(matrix: ChannelMatrix, path) -> None:
    """Write the matrix as JSON-Lines, one record per (tx, rx, sample)."""
    with open(path, "w") as fh:
        for s in range(1, matrix.n_samples + 1):
            for i in matrix.node_ids:
                for j in matrix.node_ids:
                    if i == j:
                        continue
                    snap = matrix.snapshot(i, j, s)
                    rec = {
                        "tx": i,
                        "rx": j,
                        "s": s,
                        "t_s": snap.time_s,
                        "paths": [
                            {
                                "p_rx_dbm": p.received_power_dbm,
                                "phase_rad": p.phase_rad,
                                "toa_s": p.toa_s,
                                **(
                                    {"aoa_deg": p.aoa_deg}
                                    if p.aoa_deg is not None
                                    else {}
                                ),
                                **(
                                    {"aod_deg": p.aod_deg}
                                    if p.aod_deg is not None
                                    else {}
                                ),
                            }
                            for p in snap.paths
                        ],
                    }
                    fh.write(json.dumps(rec) + "\n")


def read_paths_records(path) -> dict:
    """Parse a JSON-Lines paths file into {(tx, rx, s): tuple of RayPath}."""
    records = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                paths = tuple(
                    RayPath(
                        received_power_dbm=p["p_rx_dbm"],
                        phase_rad=p["phase_rad"],
                        toa_s=p["toa_s"],
                        aoa_deg=p.get("aoa_deg"),
                        aod_deg=p.get("aod_deg"),
                    )
                    for p in rec["paths"]
                )
                records[(rec["tx"], rec["rx"], rec["s"])] = paths
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"malformed paths record at line {lineno}: {exc}")
    return records


def _radio_from_dict(d: dict, base: Optional[RadioParams] = None) -> RadioParams:
    base = base or RadioParams()
    kwargs = {f.name: getattr(base, f.name) for f in dataclasses.fields(RadioParams)}
    kwargs.update(d)
    return RadioParams(**kwargs)


def load_scenario(path) -> Scenario:
    """Load a scenario config (JSON) into a Scenario.

    Node speeds are meters/second via "speed_mps" or miles/hour via
    "speed_mph". Keys not consumed here (emulation, sounding, validation
    settings) are preserved in Scenario.extras for the pipeline.
    """
    path = Path(path)
    cfg = json.loads(path.read_text())
    base_radio = _radio_from_dict(cfg.get("radio", {}))
    nodes = []
    for nd in cfg["nodes"]:
        speed = nd.get("speed_mps", 0.0)
        if "speed_mph" in nd:
            speed = nd["speed_mph"] * MPH_TO_MPS
        if "waypoints" in nd:
            waypoints = nd["waypoints"]
        elif "position" in nd:
            waypoints = [nd["position"]]
        else:
            raise ValueError(f"node {nd.get('id')}: needs waypoints or position")
        traj = Trajectory(
            waypoints=tuple(tuple(w) for w in waypoints),
            speed_mps=speed,
            loop_back=nd.get("loop_back", False),
        )
        nodes.append(
            NodeSpec(
                node_id=nd["id"],
                kind=nd.get("kind", "STATIC"),
                antenna_height_m=nd.get("antenna_height_m", 1.5),
                trajectory=traj,
                radio=_radio_from_dict(nd.get("radio", {}), base_radio),
            )
        )
    reflectors = tuple(
        ReflectorPlane(axis=r["axis"], offset=r.get("offset", 0.0))
        for r in cfg.get("reflectors", [])
    )
    consumed = {
        "nodes",
        "radio",
        "reflectors",
        "t_total_s",
        "sample_interval_s",
        "reflection_loss_db",
        "max_bounces",
        "coherence_distance_m",
        "name",
        "seed",
    }
    extras = {k: v for k, v in cfg.items() if k not in consumed}
    return Scenario(
        nodes=tuple(nodes),
        t_total_s=cfg["t_total_s"],
        sample_interval_s=cfg["sample_interval_s"],
        reflectors=reflectors,
        reflection_loss_db=cfg.get("reflection_loss_db", 6.0),
        max_bounces=cfg.get("max_bounces", 4),
        coherence_distance_m=cfg.get("coherence_distance_m", DEFAULT_COHERENCE_DISTANCE_M),
        name=cfg.get("name", path.stem),
        seed=cfg.get("seed", 0),
        extras=extras,
    )
