#!/usr/bin/env python3
"""Benchmark of the chansounder toolchain: one workload, one seed, one run.

Usage::

    python3 bench/run.py --workload {outandback,canyon-taps,heatmap} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout. The package is imported from
``src/``; nothing is installed or built. Each iteration runs in its own fresh
process with every thread pool pinned to one thread, and iterations run one
at a time until ``--seconds`` have passed (at least three). Artifacts of each
iteration are deleted as soon as it has been measured.

With ``--trace 0`` the run reports the end-to-end metrics (medians over
iterations); with ``--trace 1`` it alternates untraced and traced iterations
and reports the per-layer metrics of the median traced iteration, plus the
tracing overhead against the untraced median. Every iteration's outputs are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record (versions,
input sizes, every iteration, and the spans of traced iterations) is written
under ``.bench_run/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "disk_written_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "emulator.emulate_s": "s",
    "emulator.msamples_per_s": "Msample/s",
    "emulator.calls": "count",
    "emulator.capture_mb": "MB",
    "sounder.sound_s": "s",
    "sounder.frames_per_s": "1/s",
    "sounder.frames": "count",
    "sounder.detections": "count",
    "sounder.report_write_s": "s",
    "harness.validate_s": "s",
    "harness.truth_series_s": "s",
    "harness.match_ratio": "ratio",
    "harness.spurious": "count",
    "harness.missed": "count",
    "harness.max_rmse_db": "dB",
    "harness.self_s": "s",
    "tap_approx.build_s": "s",
    "tap_approx.write_s": "s",
    "tap_approx.read_s": "s",
    "tap_approx.records_per_s": "1/s",
    "tap_approx.records": "count",
    "tap_approx.kmeans_snapshots": "count",
    "tap_approx.file_mb": "MB",
    "mobility.matrix_s": "s",
    "mobility.paths_write_s": "s",
    "mobility.paths_read_s": "s",
    "mobility.snapshots_per_s": "1/s",
    "mobility.ray_paths": "count",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}

MIN_ITERATIONS = 3  # per kind of iteration (untraced, traced)
SETUP_SAMPLES = 7  # set-up is sampled at least this often per run
RUN_DEADLINE_S = 170.0  # a run gives up (exit 1) rather than overrun 180 s

# Thread pools numpy or its BLAS might start; the FFT is single-threaded.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(spec_path: Path, mode: str, run_dir: Path, deadline: float):
    """Run one worker process; return (set-up seconds, result record)."""
    result_path = run_dir / "result.json"
    out_dir = run_dir / "out"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), mode,
           str(result_path), str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, RUN_DEADLINE_S)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} iteration overran the {RUN_DEADLINE_S:.0f} s run deadline")
    finally:
        if proc.poll() is None:  # interrupted: never leave a worker behind
            proc.kill()
            proc.wait()
        shutil.rmtree(out_dir, ignore_errors=True)
    if first.strip() != b"ready" or proc.returncode != 0:
        tail = err.decode(errors="replace")[-2000:]
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(result_path.read_text())


def _commit() -> str:
    """The checked-out commit when the tree is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git work tree)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chansounder").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run the iterations of one benchmark run and aggregate them."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = ROOT / ".bench_run" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        spec = workloads.make_inputs(workload, seed, size, run_dir / "inputs")
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        # warm-up: byte-compiles the package and fills the page cache
        _spawn(spec_path, "setup", run_dir, deadline)
        kinds = ("untraced", "traced") if trace else ("untraced",)
        setups: list[float] = []
        iterations: list[dict] = []
        t_measure = time.monotonic()
        while True:
            counts = [sum(1 for it in iterations if it["mode"] == k) for k in kinds]
            if min(counts) >= MIN_ITERATIONS and time.monotonic() - t_measure >= seconds:
                break
            mode = kinds[len(iterations) % len(kinds)]
            setup_s, record = _spawn(spec_path, mode, run_dir, deadline)
            setups.append(setup_s)
            iterations.append(record)
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(spec_path, "setup", run_dir, deadline)[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    # one more operation: every iteration of a seed, traced or not, must
    # produce the same outputs
    consistent = all(it["digest"] == iterations[0]["digest"] for it in iterations)
    attempted += 1
    failed += 0 if consistent else 1

    untraced = [it for it in iterations if it["mode"] == "untraced"]
    wall_untraced = statistics.median(it["wall_s"] for it in untraced)
    if trace:
        traced = sorted((it for it in iterations if it["mode"] == "traced"),
                        key=lambda it: it["wall_s"])
        chosen = traced[len(traced) // 2]
        values = dict(chosen["layers"])
        values["harness.max_rmse_db"] = chosen["values"].get("harness.max_rmse_db", 0.0)
        values["process.cpu_s"] = chosen["cpu_s"]
        values["trace.overhead_s"] = chosen["wall_s"] - wall_untraced
        values["fail_ratio"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        chosen = None
        values = {
            "wall_s": wall_untraced,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
            "disk_written_mb": statistics.median(it["disk_written_mb"] for it in untraced),
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "versions": iterations[0]["versions"],
        "nproc": os.cpu_count(),
        "input_sizes": spec["input_sizes"],
        "params": spec["params"],
        "run_s": time.monotonic() - started,
        "setup_samples_s": setups,
        "consistent_outputs": consistent,
        "iterations": [
            {k: v for k, v in it.items() if k != "spans"} for it in iterations
        ],
        "metrics": metrics,
    }
    if chosen is not None:
        record["chosen_traced_wall_s"] = chosen["wall_s"]
        record["absent_layers"] = chosen["absent_layers"]
        record["spans"] = [it["spans"] for it in iterations if it["mode"] == "traced"]
    records = ROOT / ".bench_run" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    failures = [f for it in iterations for f in it["failures"]]
    errors = [it["error"] for it in iterations if it["error"]]
    return {
        "summary": {
            "iterations": len(iterations),
            "input_sizes": spec["input_sizes"],
            "absent_layers": record.get("absent_layers", []),
            "consistent_outputs": consistent,
            "failures": failures[:10],
            "errors": errors[:2],
        },
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running worker is stopped and
    # the run directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "chansounder" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'chansounder'}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
