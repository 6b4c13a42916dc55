#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; run from the checkout root.

    python3 bench/selftest.py

Checks that every run prints each metric named in BENCHMARK.json with its
unit and passes its output checks, that inputs repeat per seed, that the
traced outandback run accounts for its wall time layer by layer, that a
corrupted output is counted as a failed operation, and that the benchmark
refuses to run without the package source. Scratch files go under
``.bench_run/selftest`` and are removed. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_run" / "selftest"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

# The tiny heatmap has 10 nodes like criterion 3; with 45 independent pair
# losses the heatmap mean meets criterion 3 on this seed.
SEED = 3


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def check_metrics_and_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                          "--trace", str(trace), "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0, proc.stdout
            assert out["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for m in out["metrics"].values():
                assert isinstance(m["value"], (int, float)), m
            print(f"ok: {workload} trace={trace} prints {len(got)} metrics")


def check_layer_accounting() -> None:
    """Traced outandback: layers plus harness self time = traced wall."""
    rec = json.loads(
        (ROOT / ".bench_run" / "records" / f"outandback-seed{SEED}-trace1.json").read_text()
    )
    m = {name: v["value"] for name, v in rec["metrics"].items()}
    parts = (
        "emulator.emulate_s", "sounder.sound_s", "sounder.report_write_s",
        "harness.validate_s", "harness.truth_series_s", "harness.self_s",
        "tap_approx.build_s", "tap_approx.write_s",
        "mobility.matrix_s", "mobility.paths_write_s",
    )
    traced = rec["chosen_traced_wall_s"]
    assert abs(sum(m[p] for p in parts) - traced) <= 1e-3 * traced, (m, traced)
    untraced = traced - m["trace.overhead_s"]
    print(f"ok: outandback layers sum to traced wall {traced:.4f} s "
          f"(untraced {untraced:.4f} s + overhead {m['trace.overhead_s']:.4f} s)")


def check_seeded_inputs() -> None:
    def body(spec):  # the spec without its input file path
        return {k: v for k, v in spec.items() if k != "config"}

    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 7, "tiny", SCRATCH / "a")
        b = workloads.make_inputs(workload, 7, "tiny", SCRATCH / "b")
        c = workloads.make_inputs(workload, 8, "tiny", SCRATCH / "c")
        assert body(a) == body(b)
        if "config" in a:
            assert Path(a["config"]).read_bytes() == Path(b["config"]).read_bytes()
            assert Path(a["config"]).read_bytes() != Path(c["config"]).read_bytes()
        else:
            assert body(a) != body(c)
        assert a["input_sizes"] == c["input_sizes"]
    print("ok: inputs repeat per seed and differ across seeds, at equal size")


def _run_in_process(pkg, workload: str, tag: str, corrupt=None):
    spec = workloads.make_inputs(workload, SEED, "tiny", SCRATCH / tag / "in")
    ctx = workloads.prepare(spec, pkg)
    out_dir = SCRATCH / tag / "out"
    out_dir.mkdir(parents=True)
    if corrupt is not None:
        corrupt(pkg, out_dir)
    result = workloads.run(ctx, pkg, out_dir, lambda name: nullcontext())
    return ctx, result


def check_corruption_is_counted(pkg) -> None:
    # canyon-taps: flip the sign of one tap coefficient in the file read back
    ctx, read = _run_in_process(pkg, "canyon-taps", "canyon")
    clean = workloads.Outcome()
    workloads.check(ctx, pkg, read, clean)
    assert clean.failed == 0, clean.failures
    key = next(k for k, ts in sorted(read.records.items()) if ts.taps)
    ts = read.records[key]
    (idx, c), *rest = ts.taps
    read.records[key] = type(ts)(((idx, -c), *rest), ts.grid_dt_s, ts.timestamp_ms)
    bad = workloads.Outcome()
    workloads.check(ctx, pkg, read, bad)
    assert bad.failed == 1 and bad.attempted == clean.attempted, bad.failures
    print(f"ok: canyon-taps counts one flipped tap coefficient as 1 failed of {bad.attempted}")

    # heatmap: one cell 0.5 dB off its pair's base loss
    ctx, heatmap = _run_in_process(pkg, "heatmap", "heatmap")
    clean = workloads.Outcome()
    workloads.check(ctx, pkg, heatmap, clean)
    assert clean.failed == 0, clean.failures
    heatmap.matrix_db[0, 1] += 0.5
    bad = workloads.Outcome()
    workloads.check(ctx, pkg, heatmap, bad)
    assert bad.failed == 1, bad.failures
    print(f"ok: heatmap counts one corrupted cell as 1 failed of {bad.attempted}")

    # outandback: drop one block of samples from the (2,1) capture before
    # it is sounded
    def drop_block(pkg, out_dir):
        emulate = pkg.harness.emulate_repeated_reference_to_file

        def emulate_then_drop(taps, pair, *args, **kwargs):
            emulate(taps, pair, *args, **kwargs)
            if tuple(pair) == (2, 1):
                path = out_dir / "capture_2-1.iq"
                data = path.read_bytes()
                block = 8 * 4096  # 4096 complex float32 samples
                mid = len(data) // 2
                path.write_bytes(data[:mid] + data[mid + block:])

        pkg.harness.emulate_repeated_reference_to_file = emulate_then_drop

    original = pkg.harness.emulate_repeated_reference_to_file
    try:
        ctx, result = _run_in_process(pkg, "outandback", "outandback-bad", drop_block)
    finally:
        pkg.harness.emulate_repeated_reference_to_file = original
    bad = workloads.Outcome()
    workloads.check(ctx, pkg, result, bad)
    assert bad.failed == 1 and bad.attempted == 2, bad.failures
    print(f"ok: outandback counts a dropped capture block as 1 failed link: {bad.failures[0]}")


def check_refuses_without_source() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heatmap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_seeded_inputs()
        check_refuses_without_source()
        check_corruption_is_counted(worker.load_package())
        check_metrics_and_units()
        check_layer_accounting()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
