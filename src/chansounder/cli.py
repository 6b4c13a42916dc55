"""Command-line interface for the channel generation and sounding toolchain.

Exit codes: 0 on success/pass, 2 when a validation tolerance fails, 1 on
any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, mobility, sequences, sounder, tap_approx
from .emulator import (
    EmulatorConfig,
    emulate_repeated_reference_to_file,
    noise_floor_db_for_dynamic_range,
    pair_base_loss_db,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TOLERANCE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override RNG seed")
    parser.add_argument(
        "--out-dir", type=Path, default=Path("out"), help="artifact directory"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansounder",
        description="Generate, emulate, and sound multipath channel scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-sequence", help="emit a sounding code sequence")
    _add_common(p)
    p.add_argument(
        "--family",
        choices=["glfsr", "gold", "golay-a", "ls"],
        default="glfsr",
    )
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--mask", type=lambda s: int(s, 0), default=0)
    p.add_argument("--lfsr-seed", type=lambda s: int(s, 0), default=1)
    p.add_argument("--poly-a", type=lambda s: int(s, 0), default=None)
    p.add_argument("--poly-b", type=lambda s: int(s, 0), default=None)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--length", type=int, default=128, help="Golay length")
    p.add_argument("--order", type=int, default=5, help="LS construction order")
    p.add_argument("--seq-out", type=Path, required=True)

    p = sub.add_parser("build-scenario", help="sample mobility into a paths file")
    _add_common(p)

    p = sub.add_parser("approximate-taps", help="paths/matrix -> emulator tap file")
    _add_common(p)
    p.add_argument("--paths-file", type=Path, help="use an existing paths file")

    p = sub.add_parser("emulate", help="run one link's capture through the channel")
    _add_common(p)
    p.add_argument("--taps", type=Path, required=True)
    p.add_argument("--pair", type=str, required=True, help="tx,rx node ids")

    p = sub.add_parser("sound", help="estimate CIR taps from a capture")
    _add_common(p)
    p.add_argument("--capture", type=Path, required=True)

    p = sub.add_parser("validate", help="sound a capture and score vs tap file")
    _add_common(p)
    p.add_argument("--capture", type=Path, required=True)
    p.add_argument("--taps", type=Path, required=True)
    p.add_argument("--pair", type=str, default=None)
    p.add_argument("--base-loss-db", type=float, default=None)
    p.add_argument("--gain-tol-db", type=float, default=0.5)

    p = sub.add_parser("heatmap", help="all-pairs base-loss heatmap")
    _add_common(p)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--window-s", type=float, default=0.013)
    p.add_argument("--base-loss-db", type=float, default=57.55)
    p.add_argument("--base-loss-sd-db", type=float, default=1.23)
    p.add_argument("--sample-rate-hz", type=float, default=1e6)

    p = sub.add_parser("pipeline", help="full scenario run: mobility to validation")
    _add_common(p)

    return parser


def _load_cfg(args) -> dict:
    if not args.config:
        raise ValueError("this command needs --config")
    return json.loads(Path(args.config).read_text())


def _sounding_setup(cfg: dict):
    snd = cfg.get("sounding", {})
    fs = float(snd.get("sample_rate_hz", 1e6))
    spc = int(snd.get("samples_per_chip", 1))
    sequence = harness._sequence_from_config(snd.get("sequence", {}))
    config = sounder.SoundingConfig(
        sample_rate_hz=fs,
        detection_threshold_db=float(snd.get("detection_threshold_db", 6.0)),
        chunk_duration_s=float(snd.get("chunk_duration_s", 60.0)),
        guard_samples=int(snd.get("guard_samples", 2)),
        discard_frames=int(snd.get("discard_frames", 1)),
    )
    return fs, spc, sequence, config


def _cmd_generate_sequence(args) -> int:
    if args.family == "glfsr":
        code = sequences.generate_glfsr(args.degree, args.mask, args.lfsr_seed)
    elif args.family == "gold":
        code = sequences.generate_gold(args.degree, args.poly_a, args.poly_b, args.shift)
    elif args.family == "golay-a":
        code = sequences.generate_golay_a(args.length)
    else:
        code = sequences.generate_ls(args.order)
    sequences.write_sequence(code, args.seq_out)
    print(f"{code.family} length {code.length} -> {args.seq_out}")
    return EXIT_OK


def _cmd_build_scenario(args) -> int:
    scenario = mobility.load_scenario(args.config)
    matrix = mobility.assemble_channel_matrix(scenario)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    paths_path = args.out_dir / "paths.jsonl"
    mobility.write_paths_file(matrix, paths_path)
    print(
        f"scenario '{scenario.name}': {matrix.n_nodes} nodes, "
        f"{matrix.n_samples} samples -> {paths_path}"
    )
    return EXIT_OK


def _cmd_approximate_taps(args) -> int:
    cfg = _load_cfg(args)
    scenario = mobility.load_scenario(args.config)
    if args.paths_file:
        records = mobility.read_paths_records(args.paths_file)
        matrix = mobility.assemble_channel_matrix(scenario, records)
    else:
        matrix = mobility.assemble_channel_matrix(scenario)
    fs, spc, sequence, _ = _sounding_setup(cfg)
    tap_cfg = cfg.get("taps", {})
    duration_s = float(cfg.get("duration_s", cfg.get("t_total_s", 1.0)))
    from .channel_model import noise_floor_dbm

    tap_file = tap_approx.build_tap_file_from_matrix(
        matrix,
        {n.node_id: n.radio.tx_power_dbm for n in scenario.nodes},
        int(round(duration_s * 1000)),
        k=int(tap_cfg.get("k", 4)),
        grid_dt_s=float(tap_cfg.get("grid_dt_s", 1.0 / fs)),
        dyn_range_db=float(tap_cfg.get("dyn_range_db", 43.0)),
        offset_db=float(tap_cfg.get("offset_db", 0.0)),
        pairs=[tuple(p) for p in cfg.get("sounded_links", [])] or None,
        prune_floor_dbm=min(noise_floor_dbm(n.radio) for n in scenario.nodes),
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tap_path = args.out_dir / "taps.csv"
    tap_approx.write_tap_file(tap_file, tap_path)
    print(f"{len(tap_file.records)} tap records -> {tap_path}")
    return EXIT_OK


def _emulator_config(cfg: dict, tap_file, sequence, spc: int, seed) -> EmulatorConfig:
    emu = cfg.get("emulator", {})
    base = float(emu.get("base_loss_db", 57.55))
    noise_floor = None
    if emu.get("noise", True):
        peak = max(
            (abs(c) for taps in tap_file.used_tap_lists() for _, c in taps),
            default=0.0,
        )
        if peak > 0:
            noise_floor = noise_floor_db_for_dynamic_range(
                peak * 10.0 ** (-base / 20.0),
                sequence.length,
                spc,
                float(emu.get("dyn_range_db", 43.0)),
            )
    return EmulatorConfig(
        base_loss_db=base,
        base_loss_sd_db=float(emu.get("base_loss_sd_db", 0.0)),
        noise_floor_db=noise_floor,
        seed=seed if seed is not None else int(cfg.get("seed", 0)),
    )


def _cmd_emulate(args) -> int:
    cfg = _load_cfg(args)
    tap_file = tap_approx.read_tap_file(args.taps)
    fs, spc, sequence, _ = _sounding_setup(cfg)
    pair = tuple(int(x) for x in args.pair.split(","))
    config = _emulator_config(cfg, tap_file, sequence, spc, args.seed)
    duration_s = float(cfg.get("duration_s", cfg.get("t_total_s", 1.0)))
    ref = sequences.bpsk_modulate(sequence, spc).samples.real
    args.out_dir.mkdir(parents=True, exist_ok=True)
    capture = args.out_dir / f"capture_{pair[0]}-{pair[1]}.iq"
    emulate_repeated_reference_to_file(
        tap_file, pair, config, ref, fs, int(round(duration_s * fs)), capture
    )
    print(f"emulated {duration_s} s for pair {pair} -> {capture}")
    return EXIT_OK


def _cmd_sound(args) -> int:
    cfg = _load_cfg(args)
    _, spc, sequence, config = _sounding_setup(cfg)
    report = sounder.sound_chunked(args.capture, config, sequence, spc)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.capture).stem
    sounder.write_report_json(report, args.out_dir / f"sounding_{stem}.json")
    sounder.write_report_csv(report, args.out_dir / f"sounding_{stem}.csv")
    print(f"{report.n_frames} frames sounded -> {args.out_dir}/sounding_{stem}.*")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load_cfg(args)
    _, spc, sequence, sconfig = _sounding_setup(cfg)
    tap_file = tap_approx.read_tap_file(args.taps)
    report = sounder.sound_chunked(args.capture, sconfig, sequence, spc)
    pair = tuple(int(x) for x in args.pair.split(",")) if args.pair else None
    econfig = _emulator_config(cfg, tap_file, sequence, spc, args.seed)
    base = args.base_loss_db
    if base is None:
        p = pair or tap_file.pairs()[0]
        base = pair_base_loss_db(econfig, *p)
    validation = harness.compare_to_ground_truth(
        report,
        tap_file,
        base_loss_db=base,
        offset_db=tap_file.offset_db,
        pair=pair,
        gain_tol_db=args.gain_tol_db,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "validation.json"
    out.write_text(json.dumps(validation.to_dict(), indent=2))
    status = "PASS" if validation.passed else "FAIL"
    print(
        f"{status}: max gain err "
        f"{validation.max_abs_gain_error_db():.4f} dB, "
        f"spurious {validation.spurious}, missed {validation.missed} -> {out}"
    )
    return EXIT_OK if validation.passed else EXIT_TOLERANCE


def _cmd_heatmap(args) -> int:
    config = EmulatorConfig(
        base_loss_db=args.base_loss_db,
        base_loss_sd_db=args.base_loss_sd_db,
        noise_floor_db=noise_floor_db_for_dynamic_range(
            10.0 ** (-args.base_loss_db / 20.0), 255, 1
        ),
        seed=args.seed if args.seed is not None else 0,
    )
    heatmap = harness.pathloss_heatmap(
        list(range(1, args.nodes + 1)),
        args.window_s,
        config,
        sample_rate_hz=args.sample_rate_hz,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "heatmap.csv"
    heatmap.write_csv(csv_path)
    stats = {"mean_db": heatmap.mean_db, "sd_db": heatmap.sd_db}
    (args.out_dir / "heatmap_stats.json").write_text(json.dumps(stats, indent=2))
    print(f"heatmap mean {heatmap.mean_db:.2f} dB sd {heatmap.sd_db:.2f} dB -> {csv_path}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    if not args.config:
        raise ValueError("pipeline needs --config")
    result = harness.run_scenario_pipeline(args.config, args.out_dir, seed=args.seed)
    for pair, validation in result.validations.items():
        status = "PASS" if validation.passed else "FAIL"
        print(
            f"link {pair[0]}->{pair[1]}: {status}, "
            f"rmse {result.rmse_db[pair]:.3f} dB, "
            f"spurious {validation.spurious}, missed {validation.missed}"
        )
    print(f"artifacts in {result.out_dir}")
    return EXIT_OK if result.passed else EXIT_TOLERANCE


_COMMANDS = {
    "generate-sequence": _cmd_generate_sequence,
    "build-scenario": _cmd_build_scenario,
    "approximate-taps": _cmd_approximate_taps,
    "emulate": _cmd_emulate,
    "sound": _cmd_sound,
    "validate": _cmd_validate,
    "heatmap": _cmd_heatmap,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, harness.PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
