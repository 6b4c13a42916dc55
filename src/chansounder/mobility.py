"""Node mobility: trajectory sampling, synthetic ray paths, channel matrix.

Trajectories are sampled spatially at D = speed * sample_interval so that
successive channel realizations stay inside the configured coherence
distance. A deterministic free-space + image-method generator stands in for
a ray tracer: it emits a line-of-sight path plus one specular path per
reflector-plane bounce sequence, each as (received power, phase, delay).
It works on arrays: the images of every transmitter of a sample are built
one bounce depth at a time, and every (link, image) path at once. The
generator and the paths-file reader both give :class:`PathRecords`, one
columnar table of snapshots; one indexing loop makes it a (node, node,
sample) channel matrix, so stationary-transmitter reuse points at a
snapshot instead of copying it. The matrix holds each distinct snapshot
once, so the paths-file writer formats each once; the reader parses each
distinct ``"paths"`` body once. ``ChannelMatrix.entries`` is the one
object view of the paths, built on access.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from . import helper
from .channel_model import TWO_PI, ChannelSnapshot, PathTable, RadioParams, checked_phase

__all__ = [
    "SPEED_OF_LIGHT",
    "MPH_TO_MPS",
    "Trajectory",
    "NodeSpec",
    "ReflectorPlane",
    "Scenario",
    "ChannelMatrix",
    "PathRecords",
    "num_samples",
    "sample_trajectory",
    "free_space_loss_db",
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
        if self.max_bounces < 0:
            raise ValueError(f"max_bounces must be >= 0, got {self.max_bounces}")

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
    """3-D channel structure: one snapshot per (tx, rx, sample).

    ``index[(tx, rx)]`` is an array of length ``n_samples`` whose entry
    s - 1 is the snapshot of ``paths`` in force at sample s. The constructor
    keeps only the snapshots the index uses, each distinct content (by
    :meth:`PathTable.distinct`) once, and renumbers the index to match, so
    entries with equal snapshots (a stationary transmitter's samples, the
    two directions of a link) hold one number. ``entries`` shows the same
    data as {(tx, rx): [ChannelSnapshot at sample 1, 2, ...]}.
    """

    node_ids: list[int]
    n_samples: int
    sample_interval_s: float
    paths: PathTable
    index: dict

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.intp) for a in self.index.values()]
        flat = np.concatenate([np.zeros(0, np.intp), *arrays])
        used, inverse = np.unique(flat, return_inverse=True)
        firsts, group = self.paths.distinct(used)
        self.paths = self.paths.take(used[firsts])
        ends = np.cumsum([len(a) for a in arrays])[:-1]
        self.index = dict(zip(self.index, np.split(group[inverse], ends)))

    def sample_of(self, times_s) -> np.ndarray:
        """The 1-based sample in force at each time: floor(t / T_s) + 1,
        clipped to the last sample."""
        s = np.floor(np.asarray(times_s, dtype=float) / self.sample_interval_s)
        return np.minimum(s.astype(np.int64) + 1, self.n_samples)

    @property
    def entries(self) -> dict:
        """Every snapshot, built on access: {(tx, rx): [sample 1, 2, ...]}."""
        t_s = self.sample_interval_s
        return {
            (tx, rx): [
                ChannelSnapshot(tx, rx, s, (s - 1) * t_s, self.paths.ray_paths(b))
                for s, b in enumerate(ids.tolist(), start=1)
            ]
            for (tx, rx), ids in self.index.items()
        }


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
) -> PathTable:
    """LOS plus image-method paths of m links at once, one snapshot per link.

    ``tx_pos`` and ``rx_pos`` are (m, 3); link i transmits with ``radios[i]``
    and receives with gain ``rx_gains_dbi[i]``. Only the images a ray can
    take get a path: power P_tx + G_t + G_r - FSPL(d) - bounces * reflection
    loss, delay d/c, phase -2*pi*d/lambda with a pi flip per bounce; paths
    at or below the ray-source cutoff (-250 dBm) are dropped. Every step is
    the IEEE operation of the per-path formula, in its order, with the FSPL
    through ``math.log10`` and the phase through ``np.remainder`` (Python's
    ``%``), applied a second time as ``checked_phase`` applies it.
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
    return PathTable.of_columns(
        np.bincount(link, minlength=len(radios)),
        power[order],
        np.remainder(phase[order], TWO_PI),
        toa[order],
    )


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
) -> PathTable:
    """The snapshots of the (tx, rx) node pairs ``links`` at one sample, at
    once, in the order of ``links``.

    Trajectories shorter than the sample index are clamped to their last
    position.
    """
    if not links:
        return PathTable.of_columns([], [], [], [])

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


class PathRecords(NamedTuple):
    """Ray-path records, read from a paths file or made by the generator:
    ``index[(tx, rx, s)]`` is the snapshot of ``paths`` that the record
    holds; records may share one."""

    paths: PathTable
    index: dict


def _synthesize_records(scenario: Scenario, n_samples: int) -> PathRecords:
    """The generator's records: every pair at sample 1, and later samples
    of moving transmitters only."""
    positions = _node_positions(scenario)
    table = _image_table(scenario.reflectors, scenario.max_bounces)
    parts = []
    index = {}
    for s in range(1, n_samples + 1):
        links = [
            (tx, rx)
            for tx in scenario.nodes
            for rx in scenario.nodes
            if rx.node_id != tx.node_id and (s == 1 or tx.speed_mps != 0)
        ]
        for tx, rx in links:
            index[(tx.node_id, rx.node_id, s)] = len(index)
        parts.append(_synthesize_links(scenario, positions, table, s, links))
    return PathRecords(PathTable.concat(parts), index)


def assemble_channel_matrix(
    scenario: Scenario, records: Optional[PathRecords] = None
) -> ChannelMatrix:
    """Build the (node, node, sample) channel matrix.

    ``records`` are read from a paths file; when omitted the synthetic
    generator makes them. Either way a moving transmitter's sample s takes
    its record for sample s, and a stationary one's every sample takes its
    record for sample 1; a missing record is an error.
    """
    n_s = num_samples(scenario.t_total_s, scenario.sample_interval_s)
    if records is None:
        records = _synthesize_records(scenario, n_s)
    ids = scenario.node_ids
    # the last snapshot is the empty one of the diagonal
    paths = PathTable.concat([records.paths, PathTable.of_columns([0], [], [], [])])
    index = {
        (i, j): np.full(n_s, len(paths.offsets) - 2, dtype=np.intp) for i in ids for j in ids
    }
    moving = {n.node_id for n in scenario.nodes if n.speed_mps != 0}
    pairs = [(i, j) for i in ids for j in ids if i != j]
    for s in range(1, n_s + 1):
        for i, j in pairs:
            s_eff = s if i in moving else 1
            try:
                index[(i, j)][s - 1] = records.index[(i, j, s_eff)]
            except KeyError:
                raise ValueError(f"paths records missing sample {s_eff} for pair ({i},{j})")
    return ChannelMatrix(ids, n_s, scenario.sample_interval_s, paths, index)


def _path_objects(table: PathTable) -> list[str]:
    """Each row of ``table`` as the JSON object ``json.dumps`` writes for it."""
    objects = [
        f'{{"p_rx_dbm": {p!r}, "phase_rad": {ph!r}, "toa_s": {t!r}'
        for p, ph, t in zip(
            table.power_dbm.tolist(), table.phase_rad.tolist(), table.toa_s.tolist()
        )
    ]
    for name in ("aoa_deg", "aod_deg"):
        column = getattr(table, name)
        for r in np.flatnonzero(~np.isnan(column)).tolist():
            objects[r] += f', "{name}": {float(column[r])!r}'
    return [o + "}" for o in objects]


def write_paths_file(matrix: ChannelMatrix, path) -> None:
    """Write the matrix as JSON-Lines, one record per (tx, rx, sample).

    Each line holds the bytes ``json.dumps`` gives the record
    {"tx", "rx", "s", "t_s", "paths": [{"p_rx_dbm", "phase_rad", "toa_s",
    and "aoa_deg"/"aod_deg" where given}]}. Each snapshot of the matrix
    (each distinct content) is formatted once, and records that hold it
    share its body string.
    """
    pairs = [(i, j) for i in matrix.node_ids for j in matrix.node_ids if i != j]
    objects = _path_objects(matrix.paths)
    bounds = matrix.paths.offsets.tolist()
    bodies = [", ".join(objects[a:b]) for a, b in zip(bounds, bounds[1:])]
    # per sample, the snapshot of each pair's record
    series = np.array([matrix.index[pair] for pair in pairs]).T.tolist()
    with helper.output(path) as fh:
        for s, row in enumerate(series, start=1):
            head = f'"s": {s}, "t_s": {(s - 1) * matrix.sample_interval_s!r}'
            fh.write(
                "".join(
                    f'{{"tx": {i}, "rx": {j}, {head}, "paths": [{bodies[g]}]}}\n'
                    for (i, j), g in zip(pairs, row)
                )
            )


def _path_columns(paths: list) -> tuple:
    """The power, phase, toa, aoa and aod columns of a record's paths."""
    columns = tuple(
        list(map(itemgetter(name), paths)) for name in ("p_rx_dbm", "phase_rad", "toa_s")
    )
    if sum(map(len, paths)) == 3 * len(paths):  # no path names an angle
        return columns + ([None] * len(paths),) * 2
    return columns + tuple([p.get(name) for p in paths] for name in ("aoa_deg", "aod_deg"))


def _plain(columns: tuple) -> bool:
    """Whether every value is a finite number and every toa >= 0; False may
    be a false alarm (a sum that overflows)."""
    power, phase, toa, aoa, aod = columns
    angles = [a for a in aoa + aod if a is not None]
    try:
        finite = math.isfinite(sum(power) + sum(phase) + sum(toa) + sum(angles))
    except (TypeError, OverflowError):
        return False
    return finite and min(toa, default=0) >= 0


def _parsed_record(line: str) -> tuple:
    """A record's (tx, rx, s) key and path columns, by ``json.loads`` of
    the whole line; if a value is not plain, ``checked_phase`` raises the
    error of the first bad path."""
    rec = json.loads(line)
    try:
        cols = _path_columns(rec["paths"])
        plain = _plain(cols)
    except (KeyError, TypeError):
        plain = False
    if not plain:
        for p in rec["paths"]:
            checked_phase(
                p["p_rx_dbm"], p["phase_rad"], p["toa_s"], p.get("aoa_deg"), p.get("aod_deg")
            )
        cols = _path_columns(rec["paths"])
    return (rec["tx"], rec["rx"], rec["s"]), cols


class _Bodies:
    """The path lists of a paths file's records, each distinct body text
    once, as columns in file order."""

    def __init__(self):
        self.counts: list[int] = []
        self.columns = ([], [], [], [], [])
        self.of_text: dict[str, int] = {}

    def add(self, cols: tuple) -> int:
        self.counts.append(len(cols[0]))
        for column, values in zip(self.columns, cols):
            column += values
        return len(self.counts) - 1

    def read_line(self, line: str) -> Optional[tuple]:
        """The (tx, rx, s) key and body of a line of the writer's form,
        ``{head, "paths": [...]}``: the head is read as ``head + "}"`` and
        each distinct body text once. None if the line is not of that form
        or any part fails; a head of ``{`` reads as ``{}``, which has no
        "tx", so the whole line is read again and its error raised."""
        head, sep, tail = line.partition(', "paths": ')
        if not (sep and tail.startswith("[") and tail.endswith("]}")):
            return None
        body = tail[:-1]
        try:
            b = self.of_text.get(body)
            if b is None:
                cols = _path_columns(json.loads(body))
                if not _plain(cols):
                    return None
                b = self.of_text[body] = self.add(cols)
            rec = json.loads(head + "}")
            return (rec["tx"], rec["rx"], rec["s"]), b
        except (KeyError, ValueError, TypeError):
            return None

    def table(self) -> PathTable:
        """One snapshot per body, its paths stably sorted by toa and their
        phases reduced as ``checked_phase`` reduces them."""
        power, phase, toa, aoa, aod = (np.array(c, dtype=float) for c in self.columns)
        order = np.lexsort((toa, np.repeat(np.arange(len(self.counts)), self.counts)))
        return PathTable.of_columns(
            self.counts,
            power[order],
            np.remainder(phase[order], TWO_PI),
            *(c[order] for c in (toa, aoa, aod)),
        )


def read_paths_records(path) -> PathRecords:
    """Parse a JSON-Lines paths file into records that point at snapshots.

    Each record's paths are stably sorted by toa and their phases reduced
    as ``checked_phase`` reduces them. Each distinct body text of a line of the
    writer's form is parsed and checked once (:meth:`_Bodies.read_line`)
    and held once in the table, and every record with that body points at
    it; any other line is read whole and holds a snapshot of its own.
    Errors name the file and the line: a line that is not UTF-8, a
    malformed record, a value that is not finite, a negative toa, and a
    second record for a (tx, rx, s), which names the line of the first as
    well.
    """
    index = {}
    from_line = {}
    bodies = _Bodies()
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:  # a byte that is not UTF-8 reads as a lone surrogate
                    line.encode(errors="surrogateescape").decode()
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}: line {lineno}: not UTF-8: {exc}") from None
            line = line.strip()
            if not line:
                continue
            try:
                found = bodies.read_line(line)
                if found is None:
                    key, cols = _parsed_record(line)
                    found = key, bodies.add(cols)
                key, b = found
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
            index[key] = b
    return PathRecords(bodies.table(), index)
