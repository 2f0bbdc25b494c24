"""Spans and counters around calls into the ``selbounds`` modules.

The package uses ``from .x import y``, so each wrapper replaces the name in
the module that *calls* it (``selbounds.cli.transform_unique``, not
``selbounds.transform.transform_unique``).  Methods are wrapped on the
class, which every importer shares.  Spans stay in memory and are written
out once, after the run.

A span's layer is the prefix of its name (``bounds.upper`` -> ``bounds``).
Self time is a span's duration minus that of its direct children, so the
per-layer self times of one ``cli.main`` span sum to its duration.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: Bytes per materialized distribution entry: ``probs`` (float64) plus
#: ``original_index`` (int64) of each ``SortedDistribution``.
DIST_ENTRY_BYTES = 16


def _inc(counts: dict, key: str, value: float = 1) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_composites(counts, args, kwargs, result):
    _inc(counts, "composites", result.n_prime)


def _count_hmin_grid(counts, args, kwargs, result):
    n, m, pis = args[:3]
    _inc(counts, "hmin_cells", len(pis) * (n - m))


def _count_hmin_scalar(counts, args, kwargs, result):
    n, m = args[:2]
    _inc(counts, "hmin_calls")
    _inc(counts, "hmin_cells", n - m)


def _count_calls(counts, args, kwargs, result):
    _inc(counts, "calls")


def _count_records(counts, args, kwargs, result):
    _inc(counts, "records", len(result[0]))


def _count_trials(counts, args, kwargs, result):
    _inc(counts, "trials", args[0].trials)


def _count_candidates(counts, args, kwargs, result):
    _inc(counts, "candidates", len(result.candidates))
    _inc(counts, "bytes_materialized", len(result.candidates) * args[0].n * DIST_ENTRY_BYTES)


def _count_curve(counts, args, kwargs, result):
    _inc(counts, "curve_points", len(result))
    _inc(counts, "bytes_materialized", len(result) * args[0].n * DIST_ENTRY_BYTES)


_CORE = {
    "read_weights": "core.read_weights",
    "make_distribution": "core.make_distribution",
    "entropy": "core.entropy",
    "entropy_bits": "core.entropy",
    "tail_probability": "core.tail_probability",
    "SortedDistribution": "core.SortedDistribution",
}
_TRANSFORM = {
    "transform_unique": ("transform.unique", _count_composites),
    "transform_repeated": ("transform.repeated", _count_composites),
}

#: (module, attribute) -> span name or (span name, counter).  Only names
#: the module actually imports are wrapped.
PATCHES: dict[str, dict] = {
    "selbounds.cli": {
        **_CORE,
        **_TRANSFORM,
        "bounds_for_k": "bounds.bounds_for_k",
        "build_report": "bounds.build_report",
        "min_entropy": ("extrema.min_entropy", _count_candidates),
        "piecewise_curve": ("extrema.curve", _count_curve),
        "max_entropy_distribution": "extrema.max_entropy_distribution",
        "run_sweep": ("oracle.run_sweep", _count_records),
        "records_to_csv": "oracle.csv",
        "parse_scenario_config": "scenarios.parse_config",
        "run_scenario": ("scenarios.run", _count_trials),
    },
    "selbounds.bounds": {
        **_CORE,
        **_TRANSFORM,
        "build_report": "bounds.build_report",
        "min_entropy_values": ("extrema.hmin_grid", _count_hmin_grid),
        "min_entropy_value": ("extrema.hmin_scalar", _count_hmin_scalar),
    },
    "selbounds.oracle": {
        **_CORE,
        "pi_lower_bound": "bounds.analytic",
        "pi_upper_bound": "bounds.analytic",
        "sample_distribution": "oracle.sample",
        "summarize": "oracle.summarize",
    },
    "selbounds.scenarios": {
        **_CORE,
        **_TRANSFORM,
        "build_report": "bounds.build_report",
    },
    "selbounds.extrema": _CORE,
    "selbounds.transform": _CORE,
}

#: Methods wrapped on ``selbounds.bounds.TightInverter``.
INVERTER_PATCHES = {
    "__init__": ("bounds.inverter_build", _count_calls),
    "upper": ("bounds.upper", _count_calls),
    "lower": ("bounds.lower", _count_calls),
}


class Tracer:
    """In-memory span recorder; ``patched()`` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, counter):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if counter is not None:
                    counter(rec["counts"], args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, table in PATCHES.items():
                module = importlib.import_module(module_name)
                for attr, spec in table.items():
                    if not hasattr(module, attr):
                        continue
                    name, counter = spec if isinstance(spec, tuple) else (spec, None)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, counter))
            inverter = importlib.import_module("selbounds.bounds").TightInverter
            for attr, (name, counter) in INVERTER_PATCHES.items():
                original = inverter.__dict__[attr]
                saved.append((inverter, attr, original))
                setattr(inverter, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-span-name totals, per-layer self times and summed counters."""
        child_time: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            total[rec["name"]] += dur
            self_time[rec["name"].split(".")[0]] += dur - child_time[rec["id"]]
            for key, value in rec["counts"].items():
                counts[f"{rec['name']}.{key}"] += value
        return {"total_s": dict(total), "self_s": dict(self_time), "counts": dict(counts)}

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n", encoding="utf-8")
