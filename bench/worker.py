"""One benchmark iteration in a fresh, single-threaded process.

Usage: ``python3 bench/worker.py SPEC_JSON MODE RESULT_JSON OUT_DIR`` where
MODE is ``setup`` (import and prepare, then exit), ``untraced`` or
``traced``. The process prints ``ready`` on standard output once the package
is imported and the workload can be called; the parent times set-up up to
that line. The result goes to RESULT_JSON, not to standard output, because
the CLI workload prints there.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy

import tracing
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def _wchar() -> int:
    """Bytes this process has handed to write() so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def load_package() -> SimpleNamespace:
    """Import the package from the checkout's ``src`` directory."""
    sys.path.insert(0, str(SRC))
    from chansounder import cli, emulator, harness, mobility, sequences, sounder, tap_approx

    return SimpleNamespace(
        cli=cli, emulator=emulator, harness=harness, mobility=mobility,
        sequences=sequences, sounder=sounder, tap_approx=tap_approx,
    )


def main(spec_path: str, mode: str, result_path: str, out_dir: str) -> int:
    pkg = load_package()
    spec = json.loads(Path(spec_path).read_text())
    tracer = tracing.Tracer()
    if mode == "traced":
        tracer.install(pkg)
    ctx = workloads.prepare(spec, pkg)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outcome = workloads.Outcome()
    error = None
    span = tracer.span if mode == "traced" else (lambda name: nullcontext())
    w0, c0, t0 = _wchar(), _cpu_s(), time.perf_counter()
    try:
        result = workloads.run(ctx, pkg, out, span)
    except Exception:  # the program failed: count it, keep the record
        result = None
        error = traceback.format_exc(limit=5)
    t1, c1, w1 = time.perf_counter(), _cpu_s(), _wchar()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if result is None:
        outcome.fail_all(workloads.n_operations(spec), "timed calls raised")
    else:
        workloads.check(ctx, pkg, result, outcome)
    record = {
        "mode": mode,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "disk_written_mb": (w1 - w0) / 1e6,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "error": error,
        "digest": outcome.digest,
        "values": outcome.values,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if mode == "traced":
        tracer.uninstall()
        record["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        record["absent_layers"] = tracing.absent_layers(tracer.spans)
        record["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[2] not in ("setup", "untraced", "traced"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
