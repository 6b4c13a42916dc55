"""Scenario configs: one strict parse of the scenario JSON into frozen types.

``KEYS`` lists every key a config may hold, with its default; any other key
is an error that names the file and the key path, for example
``cfg.json: unknown key 'nodes[1].radio.tx_power_dbmm'``. An integer key
below its least value in ``_MINIMUM`` (``taps.k`` below 1, say) is an error
of the same form.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from . import sequences as seq
from . import tap_approx
from .channel_model import RadioParams, noise_floor_dbm
from .emulator import EmulatorConfig, noise_floor_db_for_dynamic_range
from .mobility import DEFAULT_COHERENCE_DISTANCE_M, MPH_TO_MPS
from .mobility import NodeSpec, ReflectorPlane, Scenario, Trajectory
from .sounder import SoundingConfig

__all__ = ["KEYS", "PipelineConfig", "load"]

# Every accepted key and its default, by section; a value must have the JSON
# type of a bool, int, float or str default. None: absent unless given ("name" is
# then the file stem, "duration_s" is "t_total_s" or 1.0, "taps.grid_dt_s" one
# sample) or required where the section is used. A node's "radio" takes the
# "radio" keys, over the top-level radio.
KEYS = {
    "": {"name": None, "t_total_s": None, "duration_s": None, "sample_interval_s": None,
         "seed": 0, "coherence_distance_m": DEFAULT_COHERENCE_DISTANCE_M, "radio": {},
         "reflectors": [], "reflection_loss_db": 6.0, "max_bounces": 4, "nodes": [],
         "sounded_links": [], "taps": {}, "sounding": {}, "emulator": {},
         "validation": {}, "synthetic_taps": None},
    "radio": {f.name: f.default for f in dataclasses.fields(RadioParams)},
    "reflectors[]": {"axis": None, "offset": 0.0},
    "nodes[]": {"id": None, "kind": "STATIC", "antenna_height_m": 1.5, "speed_mps": 0.0,
                "speed_mph": None, "waypoints": None, "position": None,
                "loop_back": False, "radio": {}},
    "taps": {"k": 4, "grid_dt_s": None, "dyn_range_db": 43.0, "offset_db": 0.0},
    "sounding": {"sample_rate_hz": 1e6, "samples_per_chip": 1, "sequence": {},
                 "detection_threshold_db": 6.0, "chunk_duration_s": 60.0,
                 "guard_samples": 2, "discard_frames": 1},
    "sounding.sequence": {"family": "GLFSR", "degree": 8, "mask": 0, "seed": 1,
                          "poly_a": None, "poly_b": None, "shift": 0, "length": 128,
                          "order": 5},
    "emulator": {"base_loss_db": 57.55, "base_loss_sd_db": 0.0, "noise": True,
                 "dyn_range_db": 43.0},
    "validation": {"gain_tol_db": 0.5, "strict": True},
    "synthetic_taps": {"delays_us": None, "losses_db": None, "pair": [1, 2],
                       "phases_rad": None},
}

# The least value of each integer key that has one, by key path.
_MINIMUM = {"max_bounces": 0, "taps.k": 1, "sounding.samples_per_chip": 1,
           "sounding.guard_samples": 0, "sounding.discard_frames": 0}

# One frozen record per plain section; its fields are the section's keys.
TapsSection, EmulatorSection, ValidationSection, SyntheticTapsSection = (
    dataclasses.make_dataclass(name + "Section", list(KEYS[section]), frozen=True)
    for name, section in (("Taps", "taps"), ("Emulator", "emulator"),
                          ("Validation", "validation"), ("SyntheticTaps", "synthetic_taps"))
)


@dataclasses.dataclass(frozen=True, eq=False)
class PipelineConfig:
    """One parsed scenario JSON. ``scenario`` is None without nodes;
    ``sounded_links`` is the synthetic pair, else the configured links, else
    every ordered pair of the scenario's nodes."""

    path: Path
    scenario: Optional[Scenario]
    sequence: seq.CodeSequence
    sounding: SoundingConfig
    samples_per_chip: int
    duration_s: float
    seed: int
    sounded_links: tuple
    taps: TapsSection
    emulator: EmulatorSection
    validation: ValidationSection
    synthetic_taps: Optional[SyntheticTapsSection]

    @property
    def duration_ms(self) -> int:
        return int(round(self.duration_s * 1000.0))

    @property
    def total_samples(self) -> int:
        return int(round(self.duration_s * self.sounding.sample_rate_hz))

    def reference(self) -> np.ndarray:
        """The real BPSK reference waveform of one code period."""
        return seq.bpsk_modulate(self.sequence, self.samples_per_chip)

    def require_scenario(self) -> Scenario:
        if self.scenario is None:
            raise ValueError(f"{self.path}: scenario declares no nodes")
        return self.scenario

    def emulator_config(self, tap_file, seed: Optional[int] = None) -> EmulatorConfig:
        """Emulator settings; with noise on, the floor sits ``dyn_range_db``
        below the tap file's peak tap after the base loss."""
        emu = self.emulator
        used = tap_file.used_tap_lists() if emu.noise else []
        peak = max((abs(c) for taps in used for _, c in taps), default=0.0)
        floor = None
        if peak > 0:
            floor = noise_floor_db_for_dynamic_range(
                peak * 10.0 ** (-emu.base_loss_db / 20.0), self.sequence.length,
                self.samples_per_chip, emu.dyn_range_db,
            )
        return EmulatorConfig(emu.base_loss_db, emu.base_loss_sd_db, floor,
                              seed=self.seed if seed is None else seed)

    def tap_build_kwargs(self) -> dict:
        """Keyword arguments of ``tap_approx.build_tap_file_from_matrix``."""
        nodes = self.require_scenario().nodes
        return dict(
            tx_power_dbm={n.node_id: n.radio.tx_power_dbm for n in nodes},
            duration_ms=self.duration_ms,
            **dataclasses.asdict(self.taps),
            pairs=list(self.sounded_links),
            prune_floor_dbm=min(noise_floor_dbm(n.radio) for n in nodes),
        )

    def build_tap_file(self, matrix) -> tap_approx.TapFile:
        """The scenario's tap file; the builder is looked up at call time."""
        return tap_approx.build_tap_file_from_matrix(matrix, **self.tap_build_kwargs())


def load(path) -> PipelineConfig:
    """Parse a scenario JSON; every error is a ValueError naming the file."""
    path = Path(path)
    try:
        return _parse(json.loads(path.read_text()), path)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# What a key with a default of each type accepts: the JSON types of the
# default (an integer is a number too, a bool is neither), and their name.
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _finite(value) -> bool:
    """False if ``value`` is or holds a NaN or infinite number."""
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, list) or all(map(_finite, value))


def _section(raw, where: str, table: dict) -> dict:
    """``raw`` over the defaults in ``table``; a value must have its default's type."""
    if not isinstance(raw, dict):
        raise ValueError(f"'{where or 'the config'}' must be a JSON object")
    out = dict(table)
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        if key not in table:
            raise ValueError(f"unknown key '{name}'")
        kind = type(table[key])
        if kind in _JSON_TYPES:
            accepted, what = _JSON_TYPES[kind]
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
                raise ValueError(f"'{name}' must be {what}, not {json.dumps(value)}")
            value = kind(value)
        if not _finite(value):
            raise ValueError(f"'{name}' must be finite, not {json.dumps(value)}")
        if name in _MINIMUM and value < _MINIMUM[name]:
            raise ValueError(f"'{name}' must be >= {_MINIMUM[name]}, not {json.dumps(value)}")
        out[key] = value
    return out


def _require(section: dict, prefix: str, *keys: str) -> None:
    for key in keys:
        if section[key] is None:
            raise ValueError(f"missing key '{prefix}{key}'")


def _node(raw, where: str, radio: dict) -> NodeSpec:
    nd = _section(raw, where, KEYS["nodes[]"])
    _require(nd, f"{where}.", "id")
    if nd["waypoints"] is None and nd["position"] is None:
        raise ValueError(f"{where} (node {nd['id']}): needs waypoints or position")
    radio = _section(nd["radio"], f"{where}.radio", radio)
    speed = nd["speed_mps"] if nd["speed_mph"] is None else nd["speed_mph"] * MPH_TO_MPS
    waypoints = nd["waypoints"] if nd["waypoints"] is not None else [nd["position"]]
    try:
        trajectory = Trajectory(tuple(map(tuple, waypoints)), speed, nd["loop_back"])
        return NodeSpec(nd["id"], nd["kind"], nd["antenna_height_m"], trajectory,
                        RadioParams(**radio))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _scenario(cfg: dict, path: Path) -> Optional[Scenario]:
    radio = _section(cfg["radio"], "radio", KEYS["radio"])
    reflectors = []
    for i, r in enumerate(cfg["reflectors"]):
        r = _section(r, f"reflectors[{i}]", KEYS["reflectors[]"])
        _require(r, f"reflectors[{i}].", "axis")
        reflectors.append(ReflectorPlane(r["axis"], r["offset"]))
    if not cfg["nodes"]:
        return None
    _require(cfg, "", "t_total_s", "sample_interval_s")
    RadioParams(**radio)  # the top-level radio must be valid on its own
    same = ("t_total_s", "sample_interval_s", "reflection_loss_db", "max_bounces",
            "coherence_distance_m")  # keys named as Scenario fields
    return Scenario(
        nodes=tuple(_node(nd, f"nodes[{i}]", radio) for i, nd in enumerate(cfg["nodes"])),
        reflectors=tuple(reflectors),
        name=path.stem if cfg["name"] is None else cfg["name"],
        **{key: cfg[key] for key in same},
    )


def _sequence(raw) -> seq.CodeSequence:
    """The code a ``sounding.sequence`` section names, by family."""
    s = _section(raw, "sounding.sequence", KEYS["sounding.sequence"])
    family = s["family"].upper()
    if family == "GLFSR":
        return seq.generate_glfsr(s["degree"], s["mask"], s["seed"])
    if family == "GOLD":
        return seq.generate_gold(s["degree"], s["poly_a"], s["poly_b"], s["shift"])
    if family == "GOLAY_A":
        return seq.generate_golay_a(s["length"])
    if family == "LS":
        return seq.generate_ls(s["order"])
    raise ValueError(f"unknown sequence family {family!r} in 'sounding.sequence.family'")


def _parse(raw, path: Path) -> PipelineConfig:
    cfg = _section(raw, "", KEYS[""])
    snd, taps, emu, val = (
        _section(cfg[name], name, KEYS[name])
        for name in ("sounding", "taps", "emulator", "validation")
    )
    synthetic = None
    if cfg["synthetic_taps"] is not None:
        st = _section(cfg["synthetic_taps"], "synthetic_taps", KEYS["synthetic_taps"])
        _require(st, "synthetic_taps.", "delays_us", "losses_db")
        synthetic = SyntheticTapsSection(
            **{k: None if v is None else tuple(v) for k, v in st.items()}
        )
    scenario = _scenario(cfg, path)

    if synthetic is not None:
        links = (synthetic.pair,)
    elif cfg["sounded_links"]:
        links = tuple(map(tuple, cfg["sounded_links"]))
    else:
        ids = scenario.node_ids if scenario is not None else []
        links = tuple((i, j) for i in ids for j in ids if i != j)
    if any(len(p) != 2 for p in links):
        raise ValueError("each sounded link must be a [tx, rx] pair")

    grid_dt_s = taps["grid_dt_s"]
    taps["grid_dt_s"] = 1.0 / snd["sample_rate_hz"] if grid_dt_s is None else float(grid_dt_s)
    duration_s = cfg["duration_s"]
    if duration_s is None:
        duration_s = 1.0 if cfg["t_total_s"] is None else cfg["t_total_s"]
    sequence, samples_per_chip = _sequence(snd.pop("sequence")), snd.pop("samples_per_chip")
    if snd.pop("guard_samples") > 2:  # unused; accepted while bench configs set it
        raise ValueError("'sounding.guard_samples' above 2 is not supported: detections "
                         "are strict local maxima, always at least 2 lags apart")
    return PipelineConfig(
        path=path,
        scenario=scenario,
        sequence=sequence,
        samples_per_chip=samples_per_chip,
        sounding=SoundingConfig(**snd),  # the keys left are its fields
        duration_s=float(duration_s),
        seed=cfg["seed"],
        sounded_links=links,
        taps=TapsSection(**taps),
        emulator=EmulatorSection(**emu),
        validation=ValidationSection(**val),
        synthetic_taps=synthetic,
    )
