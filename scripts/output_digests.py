#!/usr/bin/env python3
"""Print the SHA-256 of every output of one fixed list of inputs, as JSON.

The manifest is ``{input: {file: sha256}}``. Two checkouts that make equal
manifests make byte-equal outputs on all of these inputs:

* bench canyon seeds 1, 2 and 4242 through the CLI: ``paths.jsonl``, and
  ``taps.csv`` built directly and from the paths file;
* ``configs/outandback.json`` and ``configs/canyon.json`` the same way;
* every ``run_scenario_pipeline`` output of bench outandback seeds 1 and
  4242, of ``configs/synthetic4tap.json`` and of ``configs/canyon.json``
  (20 multi-tap links: about 3 s and 0.4 GB of temporary captures);
* the path-loss heatmap CSV of bench heatmap seed 1.

The bench inputs come from ``bench/workloads.py`` at its full size.
``--handoff N`` sets ``helper.HANDOFF_SAMPLES``, the smallest step the work
queue hands to its second thread; the outputs must not depend on it. A
change that must keep every output compares its manifest with its parent's:

    python scripts/output_digests.py --handoff 1 > digests.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "bench"))

import workloads  # noqa: E402

from chansounder import cli, emulator, harness, helper, sequences  # noqa: E402

CANYON_SEEDS = (1, 2, 4242)
OUTANDBACK_SEEDS = (1, 4242)
HEATMAP_SEED = 1


def digests(out_dir: Path) -> dict:
    """SHA-256 of every file under ``out_dir``, by path relative to it."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def taps_through_cli(config: Path, out_dir: Path) -> None:
    """The paths file, and the tap file built directly and from it."""
    cfg = str(config)
    for argv in (
        ["build-scenario", "--config", cfg, "--out-dir", str(out_dir)],
        ["approximate-taps", "--config", cfg, "--out-dir", str(out_dir / "direct")],
        [
            "approximate-taps", "--config", cfg,
            "--paths-file", str(out_dir / "paths.jsonl"),
            "--out-dir", str(out_dir / "from-file"),
        ],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv):
                raise SystemExit(f"chansounder {' '.join(argv)} failed")


def heatmap(seed: int, work: Path, out_dir: Path) -> None:
    """The bench heatmap's cells, written as the CLI writes them."""
    spec = workloads.make_inputs("heatmap", seed, "full", work)
    pkg = argparse.Namespace(emulator=emulator, sequences=sequences)
    ctx = workloads.prepare(spec, pkg)
    n = spec["params"]["nodes"]
    result = harness.pathloss_heatmap(
        list(range(1, n + 1)),
        workloads.HEATMAP_WINDOW_S,
        ctx["emulator_config"],
        ctx["sequence"],
        workloads.HEATMAP_SAMPLE_RATE_HZ,
    )
    out_dir.mkdir(parents=True)
    result.write_csv(out_dir / "heatmap.csv")


def manifest(work: Path) -> dict:
    runs = {}
    for seed in CANYON_SEEDS:
        spec = workloads.make_inputs("canyon-taps", seed, "full", work / f"canyon-{seed}")
        runs[f"bench canyon-taps seed {seed}"] = lambda out, c=spec["config"]: (
            taps_through_cli(Path(c), out)
        )
    for name in ("outandback", "canyon"):
        runs[f"configs/{name}.json"] = lambda out, n=name: taps_through_cli(
            REPO / "configs" / f"{n}.json", out
        )
    for seed in OUTANDBACK_SEEDS:
        spec = workloads.make_inputs(
            "outandback", seed, "full", work / f"outandback-{seed}"
        )
        runs[f"bench outandback seed {seed} pipeline"] = (
            lambda out, s=spec: harness.run_scenario_pipeline(
                s["config"], out, seed=s["noise_seed"]
            )
        )
    for name in ("synthetic4tap", "canyon"):
        runs[f"configs/{name}.json pipeline"] = lambda out, n=name: (
            harness.run_scenario_pipeline(REPO / "configs" / f"{n}.json", out)
        )
    runs[f"bench heatmap seed {HEATMAP_SEED}"] = lambda out: heatmap(
        HEATMAP_SEED, work / f"heatmap-{HEATMAP_SEED}", out
    )
    result = {}
    for i, (name, run) in enumerate(runs.items()):
        out = work / f"out-{i}"
        run(out)
        result[name] = digests(out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--handoff", type=int, default=helper.HANDOFF_SAMPLES,
        help="helper.HANDOFF_SAMPLES for the run (default %(default)s)",
    )
    args = parser.parse_args()
    if args.handoff < 1:
        parser.error("--handoff must be >= 1")
    helper.HANDOFF_SAMPLES = args.handoff
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        result = manifest(Path(work))
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
