"""Benchmark workloads: seeded inputs, the timed calls and the output checks.

Each workload drives the package only through its public entry points:

* ``outandback``: ``harness.run_scenario_pipeline`` on a shortened copy of the
  out-and-back mobility scenario (two sounded links at 10 MS/s). The emulator,
  the sounder and validation do nearly all of the work.
* ``canyon-taps``: ``cli.main build-scenario`` then ``approximate-taps
  --paths-file`` on a generated 10-node street canyon (ground plus two walls,
  four bounces, about 45 paths per snapshot so the k-means reduction runs),
  then ``tap_approx.read_tap_file``. Mobility and the tap layer do all of the
  work; the emulator and the sounder are idle.
* ``heatmap``: ``harness.pathloss_heatmap``, the base-loss heatmap of
  acceptance criterion 3 with hundreds of 13 ms links, so per-call fixed cost
  of the emulator and the sounder dominates.

Inputs are generated here from the workload seed; the program receives only
the generated files and arguments. Input generation needs neither numpy nor
the package, so ``run.py`` can run it before any workload process starts.
The functions that touch the package take the modules as arguments and are
called only inside a workload process.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("outandback", "canyon-taps", "heatmap")

# "full" is what the benchmark measures; "tiny" keeps the self-test quick.
SIZES = {
    "full": {
        "outandback": {"duration_s": 0.5, "t_total_s": 2.0, "sample_rate_hz": 1e7},
        "canyon-taps": {"nodes": 10, "duration_s": 0.6, "t_total_s": 1.2, "sample_interval_s": 0.04},
        "heatmap": {"nodes": 20},
    },
    "tiny": {
        "outandback": {"duration_s": 1.0, "t_total_s": 1.0, "sample_rate_hz": 1e6},
        "canyon-taps": {"nodes": 4, "duration_s": 1.0, "t_total_s": 1.0, "sample_interval_s": 0.25},
        "heatmap": {"nodes": 10},
    },
}

# Acceptance tolerances the checks apply; none is invented here.
RMSE_TOL_DB = 1.0  # criterion 5: sounded strongest tap vs coherent truth
HEATMAP_CELL_TOL_DB = 0.3  # criterion 3 mean tolerance, applied per cell
HEATMAP_BASE_LOSS_DB = 57.55
HEATMAP_BASE_LOSS_SD_DB = 1.23
HEATMAP_SD_RANGE_DB = (0.8, 1.7)  # criterion 3
HEATMAP_WINDOW_S = 0.013
HEATMAP_SAMPLE_RATE_HZ = 1e6
CODE_LENGTH = 255  # GLFSR degree 8 at one sample per chip

_RADIO = {
    "tx_power_dbm": 20.0,
    "antenna_gain_tx_dbi": 5.0,
    "antenna_gain_rx_dbi": 5.0,
    "carrier_hz": 5.915e9,
    "bandwidth_hz": 2e7,
    "noise_density_dbm_hz": -172.8,
    "noise_figure_db": 0.0,
}


def _sounding(sample_rate_hz: float) -> dict:
    return {
        "sample_rate_hz": sample_rate_hz,
        "samples_per_chip": 1,
        "sequence": {"family": "GLFSR", "degree": 8, "mask": 0, "seed": 1},
        "detection_threshold_db": 6.0,
        "guard_samples": 2,
        "discard_frames": 1,
        "chunk_duration_s": 2.0,
    }


def make_inputs(workload: str, seed: int, size: str, in_dir: Path) -> dict:
    """Write the workload's input files and return its spec (JSON-able).

    The same (workload, seed, size) always yields byte-identical inputs.
    Input sizes do not depend on the seed, so runs with different seeds do
    the same amount of work on different data.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    params = SIZES[size][workload]
    in_dir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "size": size, "params": params}
    if workload == "outandback":
        cfg = _outandback_config(rng, params)
        spec["noise_seed"] = cfg["seed"]
        links = len(cfg["sounded_links"])
        total_samples = int(round(cfg["duration_s"] * params["sample_rate_hz"]))
        discard = cfg["sounding"]["discard_frames"]
        spec["expected_frames"] = total_samples // CODE_LENGTH - discard
        spec["input_sizes"] = {
            "link_ms": links * int(round(cfg["duration_s"] * 1000)),
            "iq_samples": links * total_samples,
            "tap_records": links * int(round(cfg["duration_s"] * 1000)),
        }
    elif workload == "canyon-taps":
        cfg = _canyon_config(rng, params)
        n = len(cfg["nodes"])
        spec["pairs"] = [
            [a["id"], b["id"]] for a in cfg["nodes"] for b in cfg["nodes"] if a is not b
        ]
        spec["input_sizes"] = {
            "link_ms": n * (n - 1) * int(round(cfg["duration_s"] * 1000)),
            "tap_records": n * (n - 1) * int(round(cfg["duration_s"] * 1000)),
            "iq_samples": 0,
        }
    else:
        cfg = None
        n = params["nodes"]
        spec["emulator_seed"] = rng.randrange(2**31)
        # pathloss_heatmap's own sizing of each link's capture and tap file
        samples = max(2 * CODE_LENGTH, int(round(HEATMAP_WINDOW_S * HEATMAP_SAMPLE_RATE_HZ)))
        duration_ms = math.ceil(samples / HEATMAP_SAMPLE_RATE_HZ * 1000.0) + 1
        spec["input_sizes"] = {
            "link_ms": n * (n - 1) * int(round(HEATMAP_WINDOW_S * 1000)),
            "iq_samples": n * (n - 1) * samples,
            "tap_records": n * (n - 1) * duration_ms,
        }
    if cfg is not None:
        path = in_dir / f"{workload}.json"
        path.write_text(json.dumps(cfg, indent=1))
        spec["config"] = str(path)
    return spec


def _outandback_config(rng: random.Random, params: dict) -> dict:
    """The bundled out-and-back scenario, shortened; the seed picks the noise.

    The geometry stays that of the bundled config: criterion 5 is set for
    it, and shifted start points put a weak tap of link (2,1) at the
    detection threshold, where its mean gain misses the tolerance.
    """
    fs = params["sample_rate_hz"]
    return {
        "name": "outandback-bench",
        "t_total_s": params["t_total_s"],
        "duration_s": params["duration_s"],
        "sample_interval_s": 0.447,
        "seed": rng.randrange(2**31),
        "coherence_distance_m": 15.0,
        "radio": dict(_RADIO),
        "reflectors": [{"axis": "z", "offset": 0.0}],
        "reflection_loss_db": 18.0,
        "max_bounces": 4,
        "nodes": [
            {"id": 1, "kind": "RSU", "antenna_height_m": 4.88, "position": [0, 5]},
            {
                "id": 2,
                "kind": "OBU",
                "antenna_height_m": 1.52,
                "speed_mph": 30,
                "waypoints": [[10, 0], [210, 0]],
                "loop_back": True,
            },
            {
                "id": 3,
                "kind": "OBU",
                "antenna_height_m": 1.52,
                "speed_mph": 30,
                "waypoints": [[-15, 0], [185, 0]],
                "loop_back": True,
            },
        ],
        "sounded_links": [[2, 1], [2, 3]],
        "taps": {"grid_dt_s": 1.0 / fs, "k": 4, "offset_db": 45.0, "dyn_range_db": 43.0},
        "sounding": _sounding(fs),
        "emulator": {
            "base_loss_db": 57.55,
            "base_loss_sd_db": 0.0,
            "noise": True,
            "dyn_range_db": 43.0,
        },
        "validation": {"gain_tol_db": 1.0, "strict": False},
    }


def _canyon_config(rng: random.Random, params: dict) -> dict:
    """A street canyon along x: ground plane, two walls, RSUs and lanes.

    Two roadside units sit near the walls; the other nodes drive in four
    lanes, two per direction. Vehicles in one lane share a speed, so no two
    nodes ever occupy the same point.
    """
    half_width = 12.0
    lanes = (-5.25, -1.75, 1.75, 5.25)
    n_nodes = params["nodes"]
    nodes = []
    for y in (-(half_width - 1.0), half_width - 1.0)[: min(2, n_nodes)]:
        nodes.append(
            {
                "id": len(nodes) + 1,
                "kind": "RSU",
                "antenna_height_m": round(rng.uniform(4.0, 6.0), 3),
                "position": [round(rng.uniform(0.0, 200.0), 3), y],
            }
        )
    vehicles = n_nodes - len(nodes)
    per_lane = [vehicles // len(lanes) + (i < vehicles % len(lanes)) for i in range(len(lanes))]
    for lane, (y, count) in enumerate(zip(lanes, per_lane)):
        speed = round(rng.uniform(20.0, 35.0), 3)
        direction = 1.0 if lane >= len(lanes) // 2 else -1.0
        # evenly spaced slots with jitter keep same-lane vehicles apart
        for slot in range(count):
            x0 = round(slot * 200.0 / max(count, 1) + rng.uniform(0.0, 150.0 / max(count, 1)), 3)
            nodes.append(
                {
                    "id": len(nodes) + 1,
                    "kind": "OBU",
                    "antenna_height_m": 1.52,
                    "speed_mph": speed,
                    "waypoints": [[x0, y], [round(x0 + direction * 300.0, 3), y]],
                }
            )
    return {
        "name": "canyon-bench",
        "t_total_s": params["t_total_s"],
        "duration_s": params["duration_s"],
        "sample_interval_s": params["sample_interval_s"],
        "seed": rng.randrange(2**31),
        "coherence_distance_m": 15.0,
        "radio": dict(_RADIO),
        "reflectors": [
            {"axis": "z", "offset": 0.0},
            {"axis": "y", "offset": -half_width},
            {"axis": "y", "offset": half_width},
        ],
        "reflection_loss_db": 6.0,
        "max_bounces": 4,
        "nodes": nodes,
        "taps": {"grid_dt_s": 1e-7, "k": 4, "offset_db": 45.0, "dyn_range_db": 43.0},
        "sounding": _sounding(1e7),
    }


class Outcome:
    """Operations attempted and failed by one iteration, plus a digest.

    The digest holds the iteration's deterministic outputs; iterations of
    one seed must produce equal digests, traced or not.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: list = []
        self.values: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def fail_all(self, n: int, what: str) -> None:
        for _ in range(n):
            self.check(False, what)


def n_operations(spec: dict) -> int:
    """Operations one iteration attempts (used when the timed calls raise)."""
    if spec["workload"] == "outandback":
        return 2
    if spec["workload"] == "canyon-taps":
        return len(spec["pairs"])
    n = spec["params"]["nodes"]
    return n * (n - 1) + 1


def prepare(spec: dict, pkg) -> dict:
    """Set-up inside the workload process: build call arguments.

    For ``canyon-taps`` the tap file that ``approximate-taps`` builds is kept
    (by reference, outside any span) so the check can compare the file read
    back with it.
    """
    ctx = {"spec": spec, "built": None}
    if spec["workload"] == "canyon-taps":
        build = pkg.tap_approx.build_tap_file_from_matrix

        def keep_built(*args, **kwargs):
            ctx["built"] = built = build(*args, **kwargs)
            return built

        pkg.tap_approx.build_tap_file_from_matrix = keep_built
    if spec["workload"] == "heatmap":
        em = pkg.emulator
        ctx["emulator_config"] = em.EmulatorConfig(
            base_loss_db=HEATMAP_BASE_LOSS_DB,
            base_loss_sd_db=HEATMAP_BASE_LOSS_SD_DB,
            noise_floor_db=em.noise_floor_db_for_dynamic_range(
                10 ** (-HEATMAP_BASE_LOSS_DB / 20), 255, 1, 43.0
            ),
            seed=spec["emulator_seed"],
        )
        ctx["sequence"] = pkg.sequences.generate_glfsr(8)
    return ctx


def run(ctx: dict, pkg, out_dir: Path, span):
    """The timed calls. ``span(name)`` is a context manager around each."""
    spec = ctx["spec"]
    if spec["workload"] == "outandback":
        with span("harness.run_scenario_pipeline"):
            return pkg.harness.run_scenario_pipeline(
                spec["config"], out_dir, seed=spec["noise_seed"]
            )
    if spec["workload"] == "canyon-taps":
        cfg = spec["config"]
        with span("cli.build-scenario"):
            rc_build = pkg.cli.main(["build-scenario", "--config", cfg, "--out-dir", str(out_dir)])
        with span("cli.approximate-taps"):
            rc_taps = pkg.cli.main(
                [
                    "approximate-taps",
                    "--config", cfg,
                    "--paths-file", str(out_dir / "paths.jsonl"),
                    "--out-dir", str(out_dir),
                ]
            )
        if rc_build or rc_taps:
            raise RuntimeError(f"cli exit codes {rc_build}, {rc_taps}")
        return pkg.tap_approx.read_tap_file(out_dir / "taps.csv")
    n = spec["params"]["nodes"]
    with span("harness.pathloss_heatmap"):
        return pkg.harness.pathloss_heatmap(
            list(range(1, n + 1)),
            HEATMAP_WINDOW_S,
            ctx["emulator_config"],
            ctx["sequence"],
            HEATMAP_SAMPLE_RATE_HZ,
            out_dir=out_dir,
        )


def check(ctx: dict, pkg, result, outcome: Outcome) -> None:
    """Score one iteration's outputs, one operation per link, pair or cell."""
    spec = ctx["spec"]
    if spec["workload"] == "outandback":
        check_outandback(spec, result, outcome)
    elif spec["workload"] == "canyon-taps":
        check_canyon(spec, ctx["built"], result, outcome)
    else:
        check_heatmap(spec, ctx["emulator_config"], pkg.emulator, result, outcome)


def check_outandback(spec: dict, result, outcome: Outcome) -> None:
    """A link passes when its validation passed and RMSE <= 1 dB, and every
    frame of the capture was sounded and scored (a lost capture block shows
    as missing frames)."""
    for pair in sorted(result.validations):
        v = result.validations[pair]
        rmse = result.rmse_db[pair]
        outcome.check(
            v.passed
            and math.isfinite(rmse)
            and rmse <= RMSE_TOL_DB
            and v.n_frames == spec["expected_frames"],
            f"link {pair}: passed={v.passed} rmse={rmse:.4f} dB "
            f"frames={v.n_frames}/{spec['expected_frames']}",
        )
        outcome.digest.append([list(pair), repr(rmse), v.spurious, v.missed, v.n_frames])
    outcome.values["harness.max_rmse_db"] = max(result.rmse_db.values())


def check_canyon(spec: dict, built, read, outcome: Outcome) -> None:
    """A pair passes when its read-back records equal the built ones, cover
    every millisecond and hold at most K taps each; the whole file must also
    pass ``TapFile.validate()``."""
    try:
        read.validate()
        valid = True
    except ValueError as exc:
        valid = False
        outcome.failures.append(f"validate(): {exc}")
    by_pair: dict = {}
    for key, ts in read.records.items():
        by_pair.setdefault((key[1], key[2]), {})[key[0]] = ts
    built_by_pair: dict = {}
    if built is not None:
        for key, ts in built.records.items():
            built_by_pair.setdefault((key[1], key[2]), {})[key[0]] = ts
    full = set(range(read.duration_ms))
    for tx, rx in spec["pairs"]:
        got = by_pair.get((tx, rx), {})
        want = built_by_pair.get((tx, rx))
        ok = (
            valid
            and want is not None
            and set(got) == full
            and all(len(ts.taps) <= read.k for ts in got.values())
            and got.keys() == want.keys()
            and all(got[ms].taps == want[ms].taps for ms in got)
        )
        outcome.check(ok, f"pair ({tx},{rx}): read-back tap records differ or are invalid")
    outcome.digest.append([len(read.records), read.k, read.duration_ms])


def check_heatmap(spec: dict, config, emulator, heatmap, outcome: Outcome) -> None:
    """A cell passes within 0.3 dB of its pair's configured base loss; the
    heatmap's mean and SD must meet criterion 3 as one more operation."""
    ids = heatmap.node_ids
    worst = 0.0
    for r, tx in enumerate(ids):
        for c, rx in enumerate(ids):
            if tx == rx:
                continue
            cell = float(heatmap.matrix_db[r, c])
            err = abs(cell - emulator.pair_base_loss_db(config, tx, rx))
            ok = math.isfinite(err) and err <= HEATMAP_CELL_TOL_DB
            worst = max(worst, err) if math.isfinite(err) else math.inf
            outcome.check(ok, f"cell ({tx},{rx}): {cell:.4f} dB, error {err:.4f} dB")
    lo, hi = HEATMAP_SD_RANGE_DB
    outcome.check(
        abs(heatmap.mean_db - HEATMAP_BASE_LOSS_DB) <= HEATMAP_CELL_TOL_DB
        and lo <= heatmap.sd_db <= hi,
        f"heatmap mean {heatmap.mean_db:.4f} dB, sd {heatmap.sd_db:.4f} dB",
    )
    outcome.digest.append([repr(heatmap.mean_db), repr(heatmap.sd_db)])
    outcome.values["max_cell_error_db"] = worst
