"""Spans around the package's layer functions, recorded from outside it.

The tracer replaces each traced function under every name a caller looks it
up by: ``harness`` imports ``emulate_repeated_reference_to_file``,
``sound_chunked``, ``build_tap_file_from_matrix`` and others by name, while
``cli`` calls through module attributes (``mobility.*``, ``tap_approx.*``).
Spans (name, start, end, parent) stay in memory; counts are taken at the same
boundaries from the arguments and results. Nothing inside the package is
changed on disk.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _after_matrix(c, args, kwargs, matrix):
    ids = matrix.node_ids
    c["mobility.snapshots"] += matrix.n_samples * len(ids) * (len(ids) - 1)
    c["mobility.ray_paths"] += sum(
        len(snap.paths)
        for (i, j), series in matrix.entries.items()
        if i != j
        for snap in series
    )


def _after_build(c, args, kwargs, tap_file):
    c["tap_approx.records"] += len(tap_file.records)


def _after_write_taps(c, args, kwargs, _):
    c["tap_approx.file_bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _after_approximate(c, args, kwargs, _):
    # approximate_taps clusters with k-means only when a snapshot has more
    # paths than taps
    if len(_arg(args, kwargs, 0, "snapshot").paths) > _arg(args, kwargs, 2, "k", 4):
        c["tap_approx.kmeans_snapshots"] += 1


def _after_emulate(c, args, kwargs, _):
    c["emulator.calls"] += 1
    c["emulator.capture_bytes"] += Path(_arg(args, kwargs, 6, "out_path")).stat().st_size


def _after_sound(c, args, kwargs, report):
    c["sounder.frames"] += report.n_frames
    c["sounder.detections"] += sum(len(d) for d in report.detections)


def _after_validate(c, args, kwargs, v):
    c["harness.matched"] += sum(t.n_matched for t in v.tap_stats)
    c["harness.spurious"] += v.spurious
    c["harness.missed"] += v.missed


# (module, function, span name or None for count-only, count hook)
TRACED = (
    ("mobility", "assemble_channel_matrix", "mobility.matrix", _after_matrix),
    ("mobility", "write_paths_file", "mobility.paths_write", None),
    ("mobility", "read_paths_records", "mobility.paths_read", None),
    ("tap_approx", "build_tap_file_from_matrix", "tap_approx.build", _after_build),
    ("tap_approx", "write_tap_file", "tap_approx.write", _after_write_taps),
    ("tap_approx", "read_tap_file", "tap_approx.read", None),
    ("tap_approx", "approximate_taps", None, _after_approximate),
    ("emulator", "emulate_repeated_reference_to_file", "emulator.emulate", _after_emulate),
    ("sounder", "sound_chunked", "sounder.sound", _after_sound),
    ("sounder", "write_report_json", "sounder.report_write", None),
    ("sounder", "write_report_csv", "sounder.report_write", None),
    ("harness", "compare_to_ground_truth", "harness.validate", _after_validate),
    ("harness", "_truth_series_from_matrix", "harness.truth_series", None),
)

# Modules whose namespaces may hold a traced function under its own name.
NAMESPACES = ("harness", "cli", "mobility", "tap_approx", "emulator", "sounder")


class Tracer:
    """Records spans and counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, pkg) -> None:
        """Wrap every traced function in every namespace that holds it."""
        for module, fname, name, hook in TRACED:
            original = getattr(getattr(pkg, module), fname)
            wrapped = self._wrap(original, name, hook)
            for ns_name in NAMESPACES:
                ns = getattr(pkg, ns_name)
                if getattr(ns, fname, None) is original:
                    self._patched.append((ns, fname, original))
                    setattr(ns, fname, wrapped)

    def uninstall(self) -> None:
        for ns, fname, original in reversed(self._patched):
            setattr(ns, fname, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], counts: Counter) -> dict:
    """Per-layer totals of one traced iteration, by metric name.

    A layer the workload never called reports zero for its times and counts.
    """
    total: defaultdict = defaultdict(float)  # seconds per span name
    for s in spans:
        total[s[0]] += s[2] - s[1]
    selfs = self_times(spans)
    harness_self = sum(
        (t for s, t in zip(spans, selfs) if s[3] is None and s[0].startswith("harness.")),
        0.0,
    )

    def rate(n, t):
        return n / t if t > 0 else 0.0

    emulate_s = total["emulator.emulate"]
    sound_s = total["sounder.sound"]
    tap_s = total["tap_approx.build"] + total["tap_approx.write"] + total["tap_approx.read"]
    matched = counts["harness.matched"]
    detected = matched + counts["harness.spurious"]
    return {
        "emulator.emulate_s": emulate_s,
        "emulator.msamples_per_s": rate(counts["emulator.capture_bytes"] / 8 / 1e6, emulate_s),
        "emulator.calls": counts["emulator.calls"],
        "emulator.capture_mb": counts["emulator.capture_bytes"] / 1e6,
        "sounder.sound_s": sound_s,
        "sounder.frames_per_s": rate(counts["sounder.frames"], sound_s),
        "sounder.frames": counts["sounder.frames"],
        "sounder.detections": counts["sounder.detections"],
        "sounder.report_write_s": total["sounder.report_write"],
        "harness.validate_s": total["harness.validate"],
        "harness.truth_series_s": total["harness.truth_series"],
        "harness.match_ratio": matched / detected if detected else 0.0,
        "harness.spurious": counts["harness.spurious"],
        "harness.missed": counts["harness.missed"],
        "harness.self_s": harness_self,
        "tap_approx.build_s": total["tap_approx.build"],
        "tap_approx.write_s": total["tap_approx.write"],
        "tap_approx.read_s": total["tap_approx.read"],
        "tap_approx.records_per_s": rate(counts["tap_approx.records"], tap_s),
        "tap_approx.records": counts["tap_approx.records"],
        "tap_approx.kmeans_snapshots": counts["tap_approx.kmeans_snapshots"],
        "tap_approx.file_mb": counts["tap_approx.file_bytes"] / 1e6,
        "mobility.matrix_s": total["mobility.matrix"],
        "mobility.paths_write_s": total["mobility.paths_write"],
        "mobility.paths_read_s": total["mobility.paths_read"],
        "mobility.snapshots_per_s": rate(counts["mobility.snapshots"], total["mobility.matrix"]),
        "mobility.ray_paths": counts["mobility.ray_paths"],
    }


LAYERS = ("mobility", "tap_approx", "emulator", "sounder", "harness")


def absent_layers(spans: list[list]) -> list[str]:
    """Layers with no span in this iteration (not an error)."""
    seen = {s[0].split(".")[0] for s in spans}
    return [layer for layer in LAYERS if layer not in seen]
