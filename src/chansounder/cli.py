"""Command-line interface for the channel generation and sounding toolchain.

Exit codes: 0 on success/pass, 2 when a validation tolerance fails, 1 on
any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import harness, helper, mobility, sequences, sounder, tap_approx
from .config import PipelineConfig
from .config import load as load_config
from .emulator import (
    EmulatorConfig,
    emulate_repeated_reference_to_file,
    noise_floor_db_for_dynamic_range,
    pair_base_loss_db,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TOLERANCE = 2


_COMMON = {
    "--config": dict(type=Path, help="scenario config (JSON)"),
    "--seed": dict(type=int, default=None, help="override RNG seed"),
    "--out-dir": dict(type=Path, default=Path("out"), help="artifact directory"),
}


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Give a command those of the shared flags that it reads."""
    for flag in flags:
        parser.add_argument(flag, **_COMMON[flag])


def _pair(text: str) -> tuple[int, int]:
    """The ``--pair`` value: two comma-separated node ids."""
    try:
        tx, rx = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two node ids 'tx,rx', not {text!r}"
        ) from None
    return tx, rx


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="chansounder",
        description="Generate, emulate, and sound multipath channel scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-sequence", help="write the config's sounding code")
    _add_common(p, "--config", "--out-dir")

    p = sub.add_parser("build-scenario", help="sample mobility into a paths file")
    _add_common(p, "--config", "--out-dir")

    p = sub.add_parser("approximate-taps", help="paths/matrix -> emulator tap file")
    _add_common(p, "--config", "--out-dir")
    p.add_argument("--paths-file", type=Path, help="use an existing paths file")

    p = sub.add_parser("emulate", help="run one link's capture through the channel")
    _add_common(p, "--config", "--seed", "--out-dir")
    p.add_argument("--taps", type=Path, required=True)
    p.add_argument("--pair", type=_pair, required=True, help="tx,rx node ids")

    p = sub.add_parser("sound", help="estimate CIR taps from a capture")
    _add_common(p, "--config", "--out-dir")
    p.add_argument("--capture", type=Path, required=True)

    p = sub.add_parser("validate", help="sound a capture and score vs tap file")
    _add_common(p, "--config", "--seed", "--out-dir")
    p.add_argument("--capture", type=Path, required=True)
    p.add_argument("--taps", type=Path, required=True)
    p.add_argument("--pair", type=_pair, default=None, help="tx,rx node ids")
    p.add_argument("--base-loss-db", type=float, default=None)

    p = sub.add_parser("heatmap", help="all-pairs base-loss heatmap")
    _add_common(p, "--seed", "--out-dir")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--window-s", type=float, default=0.013)
    p.add_argument("--base-loss-db", type=float, default=57.55)
    p.add_argument("--base-loss-sd-db", type=float, default=1.23)
    p.add_argument("--sample-rate-hz", type=float, default=1e6)

    p = sub.add_parser("pipeline", help="full scenario run: mobility to validation")
    _add_common(p, "--config", "--seed", "--out-dir")

    return parser


def _cmd_generate_sequence(args, cfg: PipelineConfig) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    seq_path = args.out_dir / "sequence.txt"
    sequences.write_sequence(cfg.sequence, seq_path)
    print(f"{cfg.sequence.family} length {cfg.sequence.length} -> {seq_path}")
    return EXIT_OK


def _cmd_build_scenario(args, cfg: PipelineConfig) -> int:
    scenario = cfg.require_scenario()
    matrix = mobility.assemble_channel_matrix(scenario)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    paths_path = args.out_dir / "paths.jsonl"
    mobility.write_paths_file(matrix, paths_path)
    print(
        f"scenario '{scenario.name}': {len(matrix.node_ids)} nodes, "
        f"{matrix.n_samples} samples -> {paths_path}"
    )
    return EXIT_OK


def _cmd_approximate_taps(args, cfg: PipelineConfig) -> int:
    scenario = cfg.require_scenario()
    records = mobility.read_paths_records(args.paths_file) if args.paths_file else None
    try:
        matrix = mobility.assemble_channel_matrix(scenario, records)
    except ValueError as exc:  # records that do not cover the scenario
        raise ValueError(f"{args.paths_file}: {exc}") from None
    tap_file = cfg.build_tap_file(matrix)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tap_path = args.out_dir / "taps.csv"
    tap_approx.write_tap_file(tap_file, tap_path)
    print(f"{len(tap_file.records)} tap records -> {tap_path}")
    return EXIT_OK


def _cmd_emulate(args, cfg: PipelineConfig) -> int:
    tap_file = tap_approx.read_tap_file(args.taps)
    tap_file.require_pair(args.pair, f"{args.taps}: ")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    capture = args.out_dir / "capture_{}-{}.iq".format(*args.pair)
    emulate_repeated_reference_to_file(
        tap_file, args.pair, cfg.emulator_config(tap_file, args.seed), cfg.reference(),
        cfg.sounding.sample_rate_hz, cfg.total_samples, capture,
    )
    print(f"emulated {cfg.duration_s} s for pair {args.pair} -> {capture}")
    return EXIT_OK


def _cmd_sound(args, cfg: PipelineConfig) -> int:
    report = sounder.sound_chunked(args.capture, cfg.sounding, cfg.reference())
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.capture).stem
    sounder.write_report_json(report, args.out_dir / f"sounding_{stem}.json")
    sounder.write_report_csv(report, args.out_dir / f"sounding_{stem}.csv")
    print(f"{report.n_frames} frames sounded -> {args.out_dir}/sounding_{stem}.*")
    return EXIT_OK


def _cmd_validate(args, cfg: PipelineConfig) -> int:
    tap_file = tap_approx.read_tap_file(args.taps)
    pairs = tap_file.pairs()
    if args.pair is not None:
        tap_file.require_pair(args.pair, f"{args.taps}: ")
        pairs = [args.pair]
    if not pairs:
        raise ValueError(f"{args.taps}: no tap records to validate against")
    if len(pairs) > 1:
        raise ValueError(
            f"{args.taps}: tap file has multiple pairs; specify one with --pair"
        )
    (pair,) = pairs
    report = sounder.sound_chunked(args.capture, cfg.sounding, cfg.reference())
    base = args.base_loss_db
    if base is None:
        base = pair_base_loss_db(cfg.emulator_config(tap_file, args.seed), *pair)
    validation = harness.compare_to_ground_truth(
        report, tap_file, base, pair=pair,
        gain_tol_db=cfg.validation.gain_tol_db, strict=cfg.validation.strict,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "validation.json"
    with helper.output(out) as fh:
        json.dump(validation.to_dict(), fh, indent=2)
    status = "PASS" if validation.passed else "FAIL"
    print(
        f"{status}: max gain err "
        f"{validation.max_abs_gain_error_db():.4f} dB, "
        f"spurious {validation.spurious}, missed {validation.missed} -> {out}"
    )
    return EXIT_OK if validation.passed else EXIT_TOLERANCE


def _cmd_heatmap(args, cfg=None) -> int:
    code = sequences.generate_glfsr(8)
    config = EmulatorConfig(
        base_loss_db=args.base_loss_db,
        base_loss_sd_db=args.base_loss_sd_db,
        noise_floor_db=noise_floor_db_for_dynamic_range(
            10.0 ** (-args.base_loss_db / 20.0), code.length
        ),
        seed=args.seed if args.seed is not None else 0,
    )
    heatmap = harness.pathloss_heatmap(
        list(range(1, args.nodes + 1)), args.window_s, config, code, args.sample_rate_hz
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "heatmap.csv"
    heatmap.write_csv(csv_path)
    stats = {"mean_db": heatmap.mean_db, "sd_db": heatmap.sd_db}
    with helper.output(args.out_dir / "heatmap_stats.json") as fh:
        json.dump(stats, fh, indent=2)
    print(f"heatmap mean {heatmap.mean_db:.2f} dB sd {heatmap.sd_db:.2f} dB -> {csv_path}")
    return EXIT_OK


def _print_summary(result: harness.PipelineResult, runtime_s: float) -> None:
    """Per link: frames, RMSE vs truth, the sounded strongest-tap loss swing
    and SD, spurious, missed and mixed-frame counts; then a row per truth tap
    slot with its gain errors, and the link's largest delay error."""
    for (tx, rx), validation in result.validations.items():
        losses = validation.strongest_loss_db
        swing = sd = float("nan")
        if not np.isnan(losses).all():  # a link without detections has no swing
            swing, sd = np.nanmax(losses) - np.nanmin(losses), np.nanstd(losses)
        print(
            f"link {tx}->{rx}: {'PASS' if validation.passed else 'FAIL'}, "
            f"{validation.n_frames} frames, rmse {result.rmse_db[(tx, rx)]:.3f} dB, "
            f"loss swing {swing:.2f} dB, sd {sd:.3f} dB, "
            f"spurious {validation.spurious}, missed {validation.missed}, "
            f"mixed {validation.mixed_frames}"
        )
        print("  tap  truth delay  truth gain   mean err     sd        max err")
        for t in validation.tap_stats:
            print(
                f"    {t.slot}   {t.truth_delay_s * 1e6:7.2f} us  "
                f"{t.truth_gain_db:+8.2f} dB  {t.gain_error_mean_db:+8.4f}  "
                f"{t.gain_error_sd_db:8.4f}  {t.gain_error_max_db:8.4f} dB"
            )
        print(f"  max delay err {validation.max_abs_delay_error_s() * 1e9:.1f} ns")
    print(
        f"{'PASS' if result.passed else 'FAIL'} in {runtime_s:.1f} s; "
        f"artifacts in {result.out_dir}"
    )


def _cmd_pipeline(args, cfg: PipelineConfig) -> int:
    t0 = time.monotonic()
    result = harness.run_scenario_pipeline(cfg, args.out_dir, seed=args.seed)
    _print_summary(result, time.monotonic() - t0)
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
        cfg = None  # a command with --config reads it, parsed before any output
        if "config" in vars(args):
            if not args.config:
                raise ValueError(f"{args.command} needs --config")
            cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (ValueError, OSError, KeyError, harness.PipelineError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
