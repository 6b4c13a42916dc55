"""Node mobility: trajectory sampling, synthetic ray paths, channel matrix.

Trajectories are sampled spatially at D = speed * sample_interval so that
successive channel realizations stay inside the configured coherence
distance. A deterministic free-space + image-method generator stands in for
a ray tracer: it emits a line-of-sight path plus one specular path per
reflector-plane bounce sequence, each as (received power, phase, delay).
It works on arrays: the images of every transmitter of a sample are built
one bounce depth at a time, and every (link, image) path at once. The
per-pair snapshots are assembled into a (node, node, sample) channel
matrix with stationary-transmitter reuse and per-node sample clamping.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
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
    "assemble_channel_matrix",
    "write_paths_file",
    "read_paths_records",
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

    def sample_of(self, times_s) -> np.ndarray:
        """The 1-based sample in force at each time: floor(t / T_s) + 1,
        clipped to the last sample."""
        s = np.floor(np.asarray(times_s, dtype=float) / self.sample_interval_s)
        return np.minimum(s.astype(np.int64) + 1, self.n_samples)

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


def _image_table(planes: tuple[ReflectorPlane, ...], max_bounces: int) -> tuple:
    """The images of every bounce sequence, one bounce depth after another.

    Row 0 is the transmitter itself. The rows of depth k mirror rows of depth
    k - 1 in every plane but the one their sequence last bounced off (an
    equal plane counts as the same), in the order of ``planes``. Returns
    per-row arrays ``parent``, ``axis``, ``offset`` (of the plane) and
    ``bounces`` (row 0 holds zeros), and ``edges``: depth k is rows
    ``edges[k - 1]`` to ``edges[k] - 1``.
    """
    parent, axis, offset, bounces = [0], [0], [0.0], [0]
    edges = [1]
    level = [(0, None)]  # (row, plane it last bounced off) of the last depth
    for depth in range(1, max_bounces + 1 if planes else 1):
        nxt = []
        for row, last in level:
            for plane in planes:
                if depth > 1 and plane == last:
                    continue
                parent.append(row)
                axis.append("xyz".index(plane.axis))
                offset.append(plane.offset)
                bounces.append(depth)
                nxt.append((len(bounces) - 1, plane))
        level = nxt
        edges.append(len(bounces))
    return (
        np.array(parent, dtype=np.intp),
        np.array(axis, dtype=np.intp),
        np.array(offset, dtype=float),
        np.array(bounces, dtype=float),
        edges,
    )


def _visible(images: np.ndarray, rx_pos: np.ndarray, table: tuple) -> np.ndarray:
    """(m, rows) mask of the images whose bounce sequence a ray can take.

    Every (link, image) row is traced back from the receiver one leg at a
    time: a leg aims at the next image up the row's parent chain (the row's
    own image first) and must cross that image's plane strictly between its
    end points. The crossing point starts the next leg. A leg that misses
    its plane, runs parallel to it or only touches it at an end point drops
    the row. The line of sight (row 0) is always kept.
    """
    parent, axis, offset = table[:3]
    n_rows, m = images.shape[:2]
    visible = np.zeros((m, n_rows), dtype=bool)
    visible[:, 0] = True
    link = np.repeat(np.arange(m), n_rows - 1)
    row = np.tile(np.arange(1, n_rows), m)
    cur, point = row, rx_pos[link]
    while link.size:
        at, a, off = np.arange(link.size), axis[cur], offset[cur]
        image = images[cur, link]
        p, q = point[at, a], image[at, a]
        crosses = ((p < off) & (off < q)) | ((q < off) & (off < p))
        t = np.divide(off - p, q - p, out=np.zeros_like(p), where=crosses)
        point = point + t[:, None] * (image - point)
        cur = parent[cur]
        done = crosses & (cur == 0)
        visible[link[done], row[done]] = True
        go = crosses & (cur != 0)
        link, row, cur, point = link[go], row[go], cur[go], point[go]
    return visible


def _image_distances(
    tx_pos: np.ndarray, rx_pos: np.ndarray, table: tuple
) -> tuple:
    """(m, rows) distances from each link's receiver to its transmitter's
    images, and the (m, rows) mask of the images a ray can take.

    The images are made one bounce depth at a time as 2 * offset -
    coordinate, and each distance is the square root of a stacked dot
    product: the BLAS ddot that ``np.linalg.norm`` calls.
    """
    parent, axis, offset, _, edges = table
    images = np.empty((len(parent), len(tx_pos), 3))
    images[0] = tx_pos
    for a, b in zip(edges, edges[1:]):
        rows, par, ax = np.arange(a, b), parent[a:b], axis[a:b]
        images[a:b] = images[par]
        images[rows, :, ax] = 2.0 * offset[a:b, None] - images[par, :, ax]
    diff = (images - rx_pos).transpose(1, 0, 2)  # (m, rows, 3)
    d = np.sqrt(diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    return d, _visible(images, rx_pos, table)


def _ray_paths(
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    radios: list,
    rx_gains_dbi: list,
    table: tuple,
    reflection_loss_db: float,
) -> list:
    """LOS plus image-method paths of m links at once, one tuple per link.

    ``tx_pos`` and ``rx_pos`` are (m, 3); link i transmits with ``radios[i]``
    and receives with gain ``rx_gains_dbi[i]``. Only the images a ray can
    take get a path. Every step is the IEEE operation of the per-path
    formula, in its order, with the FSPL through ``math.log10`` and the
    phase through ``np.remainder`` (Python's ``%``).
    """
    d, visible = _image_distances(tx_pos, rx_pos, table)
    if (d == 0.0).any():
        raise ValueError("zero-distance link between tx and rx")
    f = np.array([r.carrier_hz for r in radios], dtype=float)
    if (f <= 0).any():
        raise ValueError("distance and frequency must be positive")
    p0 = np.array(
        [
            r.tx_power_dbm + (r.antenna_gain_tx_dbi + g)
            for r, g in zip(radios, rx_gains_dbi)
        ],
        dtype=float,
    )
    link, row = np.nonzero(visible)
    d, f, p0, bounces = d[link, row], f[link], p0[link], table[3][row]
    arg = 4.0 * math.pi * d * f / SPEED_OF_LIGHT
    fspl = 20.0 * np.fromiter(map(math.log10, arg), float, arg.size)
    power = p0 - fspl - bounces * float(reflection_loss_db)
    phase = np.remainder(
        -2.0 * math.pi * f * d / SPEED_OF_LIGHT + bounces * math.pi, 2.0 * math.pi
    )
    toa = d / SPEED_OF_LIGHT
    # the kept paths of each link, in toa order (stable)
    kept = ~(power <= RAY_POWER_CUTOFF_DBM)
    link, power, phase, toa = link[kept], power[kept], phase[kept], toa[kept]
    order = np.lexsort((toa, link))
    paths = list(map(RayPath, *(x[order].tolist() for x in (power, phase, toa))))
    bounds = np.cumsum(np.bincount(link, minlength=len(radios))).tolist()
    return [tuple(paths[a:b]) for a, b in zip([0] + bounds, bounds)]


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
    return _ray_paths(
        np.asarray(tx_pos, dtype=float).reshape(1, 3),
        np.asarray(rx_pos, dtype=float).reshape(1, 3),
        [radio],
        [rx_gain_dbi],
        _image_table(tuple(reflectors), max_bounces),
        reflection_loss_db,
    )[0]


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


def _synthesize_links(
    scenario: Scenario,
    positions: dict,
    table: tuple,
    sample_index: int,
    links: list,
) -> list:
    """Path tuples of the (tx, rx) node pairs ``links`` at one sample, at once.

    Trajectories shorter than the sample index are clamped to their last
    position.
    """
    if not links:
        return []

    def at(node):
        pts = positions[node.node_id]
        return pts[min(sample_index, len(pts)) - 1]

    return _ray_paths(
        np.array([at(tx) for tx, _ in links]),
        np.array([at(rx) for _, rx in links]),
        [tx.radio for tx, _ in links],
        [rx.radio.antenna_gain_rx_dbi for _, rx in links],
        table,
        scenario.reflection_loss_db,
    )


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
        table = _image_table(scenario.reflectors, scenario.max_bounces)
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
        if records is None:
            # a stationary transmitter's later entries are restamped below
            links = [
                (tx, rx)
                for tx in scenario.nodes
                for rx in scenario.nodes
                if rx.node_id != tx.node_id and (s == 1 or tx.speed_mps != 0)
            ]
            synthesized = dict(
                zip(
                    [(tx.node_id, rx.node_id) for tx, rx in links],
                    _synthesize_links(scenario, positions, table, s, links),
                )
            )
        for i in ids:
            for j in ids:
                if i == j:
                    entries[(i, j)][s - 1] = ChannelSnapshot(i, j, s, t, ())
                    continue
                if speed[i] == 0 and s > 1:
                    entries[(i, j)][s - 1] = _restamp(entries[(i, j)][0], s, t)
                    continue
                if records is None:
                    snap = ChannelSnapshot(i, j, s, t, synthesized[(i, j)])
                    entries[(i, j)][s - 1] = snap
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
    """Parse a JSON-Lines paths file into {(tx, rx, s): tuple of RayPath}.

    Errors name the file and the line; a second record for a (tx, rx, s)
    names the line of the first as well.
    """
    records = {}
    from_line = {}
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
                key = (rec["tx"], rec["rx"], rec["s"])
                first = from_line.setdefault(key, lineno)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}: line {lineno}: malformed paths record: {exc}"
                )
            if first != lineno:
                raise ValueError(
                    f"{path}: line {lineno}: second record for (tx, rx, s) = "
                    f"{key}, the first is on line {first}"
                )
            records[key] = paths
    return records
