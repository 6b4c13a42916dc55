#!/usr/bin/env python3
"""All-pairs base-loss heatmap for an n-node 0 dB scenario.

Every ordered pair gets a unit tap; each cell is that link's mean sounded
path loss, so the heatmap recovers the configured base loss plus its
per-pair perturbation.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from chansounder.emulator import (  # noqa: E402
    EmulatorConfig,
    noise_floor_db_for_dynamic_range,
)
from chansounder.harness import pathloss_heatmap  # noqa: E402
from chansounder.helper import output  # noqa: E402
from chansounder.sequences import generate_glfsr  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--window-s", type=float, default=0.013)
    parser.add_argument("--base-loss-db", type=float, default=57.55)
    parser.add_argument("--base-loss-sd-db", type=float, default=1.23)
    parser.add_argument("--dyn-range-db", type=float, default=43.0)
    parser.add_argument("--sample-rate-hz", type=float, default=1e6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=Path("out/heatmap"))
    args = parser.parse_args()

    config = EmulatorConfig(
        base_loss_db=args.base_loss_db,
        base_loss_sd_db=args.base_loss_sd_db,
        noise_floor_db=noise_floor_db_for_dynamic_range(
            10 ** (-args.base_loss_db / 20), 255, 1, args.dyn_range_db
        ),
        seed=args.seed,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    heatmap = pathloss_heatmap(
        list(range(1, args.nodes + 1)),
        args.window_s,
        config,
        generate_glfsr(8),
        args.sample_rate_hz,
    )
    heatmap.write_csv(args.out_dir / "heatmap.csv")
    stats = {"mean_db": heatmap.mean_db, "sd_db": heatmap.sd_db}
    with output(args.out_dir / "heatmap_stats.json") as fh:
        json.dump(stats, fh, indent=2)
    print(
        f"{args.nodes} nodes: mean {heatmap.mean_db:.2f} dB, "
        f"sd {heatmap.sd_db:.2f} dB -> {args.out_dir / 'heatmap.csv'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
