"""Benchmark of the ``selbounds`` CLI; see ``perfbench/NOTES.md``.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout (the package is imported from ``src/``).  With
``--trace 0`` each round of the workload runs as real CLI subprocesses and
the end-to-end metrics are reported; with ``--trace 1`` the same
invocations run in this process through ``selbounds.cli.main``, once
plain and once wrapped by :mod:`tracing`, and the per-layer metrics are
reported.  ``--workload all`` runs every workload in turn.  Progress and
details go to stdout as ``#`` lines; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer
from workloads import Output, Verdict, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s``, spread between the rounds so
#: they sample the whole run; one more before them only warms the file
#: cache and bytecode and is dropped.
SETUP_SAMPLES = 12
SETUP_CODE = ("import time; t = time.perf_counter(); import selbounds.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t)")
#: A fixed task that imports nothing from the package, timed in a fresh
#: interpreter next to every setup sample.  On a shared box the speed of the
#: CPU drifts by tens of percent over minutes; the timed metrics are scaled
#: by ``CALIBRATION_REF_S / median(calibration)`` so that a run in a slow
#: phase and one in a fast phase report the same seconds.  Raw values are
#: printed in the report.
CALIBRATION_CODE = ("import time; t = time.perf_counter(); import numpy as np; "
                    "x = sorted(np.random.default_rng(0).random(100_000).tolist()); "
                    "print(time.perf_counter() - t)")
#: Median of the calibration task on the reference machine (2-core Xeon,
#: Python 3.11, NumPy 2.4): a scaled second is a second on that machine.
CALIBRATION_REF_S = 0.15
#: Every round after the first is compared byte for byte, and the median
#: needs more than one sample.
MIN_ROUNDS = 2

LAYERS = ("cli", "core", "transform", "extrema", "bounds", "oracle", "scenarios")


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SELBOUNDS_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def report(line: str) -> None:
    print(f"# {line}", flush=True)


# ----------------------------------------------------------- untraced rounds

def invoke(argv: list[str], out: Path, err: Path, env: dict) -> tuple[Output, float, float]:
    """Run one CLI subprocess; returns its output, wall seconds and peak RSS (MB)."""
    with open(err, "wb") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "selbounds.cli", *argv, "--out", str(out)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err_file, env=env, cwd=out.parent)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    body = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return Output(proc.returncode, body, err.read_bytes()), wall, usage.ru_maxrss / 1024.0


def time_fresh(code: str, env: dict, tmp: Path) -> float:
    """Seconds a fresh interpreter reports for ``code``."""
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def check_round(work: Workload, outs: dict[str, Output]) -> Verdict:
    """Check one round; a crash in the checker is a failed check, not an abort."""
    failed = [label for label, o in outs.items() if o.returncode != 0]
    if failed:
        v = Verdict()
        for label in failed:
            v.add(f"{label}.exit", False, outs[label].stderr.decode(errors="replace")[-300:])
        return v
    try:
        return work.check(outs)
    except Exception:
        v = Verdict()
        v.add("check.crashed", False, traceback.format_exc(limit=3))
        return v


def measure(work: Workload, seconds: float, tmp: Path) -> dict:
    env = child_env()
    time_fresh(SETUP_CODE, env, tmp)
    setup, calibration, walls, rss, outputs = [], [], [], [], []

    def sample_setup():
        setup.append(time_fresh(SETUP_CODE, env, tmp))
        calibration.append(time_fresh(CALIBRATION_CODE, env, tmp))

    attempted = failed = 0
    # Start a round only while it is expected to end within the budget.
    while len(walls) < MIN_ROUNDS or sum(walls) + statistics.median(walls) <= seconds:
        outs, wall, peak = {}, 0.0, 0.0
        for label, argv in work.invocations.items():
            outs[label], w, r = invoke(argv, tmp / f"{label}.out", tmp / f"{label}.err", env)
            wall, peak = wall + w, max(peak, r)
            attempted += 1
            failed += outs[label].returncode != 0
        walls.append(wall)
        rss.append(peak)
        outputs.append(outs)
        while len(setup) < SETUP_SAMPLES * min(1.0, sum(walls) / seconds):
            sample_setup()
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    verdict = check_round(work, outputs[0])
    same = all(o == outputs[0] for o in outputs[1:])
    verdict.add("rerun.byte_identical", same, f"{len(outputs)} rounds")
    # Every round is byte-identical to the checked one, so its records are too.
    attempted += verdict.records * len(walls)
    failed += verdict.bad_records * len(walls)
    failed = min(failed + sum(not ok for _, ok, _ in verdict.checks), attempted)
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    wall = statistics.median(walls) * scale
    report(f"rounds={len(walls)} raw wall_s={[round(x, 4) for x in walls]} "
           f"peak_rss_mb={[round(x, 1) for x in rss]}")
    report(f"setup samples={len(setup)} raw setup_s median={statistics.median(setup):.4f} "
           f"calibration median={statistics.median(calibration):.4f} -> time scale {scale:.4f}")
    return {
        "verdict": verdict,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": (wall, "s"),
            "items_per_s": (verdict.items / wall, "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setup) * scale, "s"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        },
    }


# --------------------------------------------------------------- traced run

def run_inprocess(work: Workload, tmp: Path, tracer: Tracer | None) -> tuple[dict, float]:
    import selbounds.cli as cli

    outs, elapsed = {}, 0.0
    for label, argv in work.invocations.items():
        out = tmp / f"{label}.out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main([*argv, "--out", str(out)])
            else:
                with tracer.span("cli.main"):
                    code = cli.main([*argv, "--out", str(out)])
            elapsed += time.perf_counter() - start
        body = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        outs[label] = Output(code, body, err.getvalue().encode())
    return outs, elapsed


def layer_metrics(tracer: Tracer, out_bytes: int) -> dict:
    s = tracer.summary()
    total, counts, self_s = s["total_s"], s["counts"], s["self_s"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(*names):
        return sum(counts.get(n, 0) for n in names)

    metrics = {
        "cli.main_s": (t("cli.main"), "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "core.read_weights_s": (t("core.read_weights"), "s"),
        "core.make_distribution_s": (t("core.make_distribution"), "s"),
        "core.entropy_s": (t("core.entropy"), "s"),
        "core.sorted_distribution_s": (t("core.SortedDistribution"), "s"),
        "transform.unique_s": (t("transform.unique"), "s"),
        "transform.repeated_s": (t("transform.repeated"), "s"),
        "transform.composites": (c("transform.unique.composites",
                                   "transform.repeated.composites"), "count"),
        "extrema.min_entropy_s": (t("extrema.min_entropy"), "s"),
        "extrema.candidates": (c("extrema.min_entropy.candidates"), "count"),
        "extrema.curve_s": (t("extrema.curve"), "s"),
        "extrema.curve_points": (c("extrema.curve.curve_points"), "count"),
        "extrema.bytes_materialized": (c("extrema.min_entropy.bytes_materialized",
                                         "extrema.curve.bytes_materialized"), "bytes"),
        "extrema.hmin_kernel_s": (t("extrema.hmin_grid", "extrema.hmin_scalar"), "s"),
        "bounds.upper_s": (t("bounds.upper"), "s"),
        "bounds.upper_calls": (c("bounds.upper.calls"), "count"),
        "bounds.hmin_calls": (c("extrema.hmin_scalar.hmin_calls"), "count"),
        "bounds.hmin_cells": (c("extrema.hmin_grid.hmin_cells",
                                "extrema.hmin_scalar.hmin_cells"), "count"),
        "bounds.inverter_build_s": (t("bounds.inverter_build"), "s"),
        "bounds.inverter_builds": (c("bounds.inverter_build.calls"), "count"),
        "bounds.lower_s": (t("bounds.lower"), "s"),
        "bounds.lower_calls": (c("bounds.lower.calls"), "count"),
        "bounds.analytic_s": (t("bounds.analytic"), "s"),
        "bounds.report_s": (t("bounds.build_report"), "s"),
        "oracle.sweep_s": (t("oracle.run_sweep"), "s"),
        "oracle.sample_s": (t("oracle.sample"), "s"),
        "oracle.summarize_s": (t("oracle.summarize"), "s"),
        "oracle.csv_s": (t("oracle.csv"), "s"),
        "oracle.records": (c("oracle.run_sweep.records"), "count"),
        "scenarios.run_s": (t("scenarios.run"), "s"),
        "scenarios.trials": (c("scenarios.run.trials"), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return metrics


def trace(work: Workload, seconds: float, tmp: Path, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("SELBOUNDS_")]:
        del os.environ[key]
    plain, traced, per_pass = [], [], []
    verdict, unchanged = None, True
    start = time.perf_counter()
    # Start another pass only while it is expected to end within the budget.
    while not per_pass or (time.perf_counter() - start) * (1 + 1 / len(per_pass)) <= seconds:
        # Alternate which side runs first so warm-up does not favour one.
        order = ("plain", "traced") if len(per_pass) % 2 == 0 else ("traced", "plain")
        for side in order:
            if side == "plain":
                plain_outs, elapsed = run_inprocess(work, tmp, None)
                plain.append(elapsed)
            else:
                tracer = Tracer()
                with tracer.patched():
                    traced_outs, elapsed = run_inprocess(work, tmp, tracer)
                traced.append(elapsed)
        out_bytes = sum(len(o.out) + len(o.stderr) for o in traced_outs.values())
        per_pass.append(layer_metrics(tracer, out_bytes))
        if verdict is None:
            verdict, first = check_round(work, plain_outs), plain_outs
        unchanged &= plain_outs == first and traced_outs == first
    tracer.write(ROOT / ".perfbench_out" / f"trace-{work.name}-{seed}.json",
                 {"workload": work.name, "seed": seed, **environment()})
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    verdict.add("trace.output_unchanged", unchanged,
                f"{len(per_pass)} traced and untraced passes byte-identical")
    main_s = metrics["cli.main_s"][0]
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    ratio = self_sum / main_s
    verdict.add("trace.self_sum", abs(ratio - 1.0) <= 0.05, f"sum of layer self times / cli.main = {ratio:.4f}")
    metrics["trace.untraced_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    report(f"passes={len(per_pass)} untraced_s={[round(x, 4) for x in plain]} "
           f"traced_s={[round(x, 4) for x in traced]}")
    attempted = len(work.invocations) * 2 * len(per_pass) + verdict.records * 2 * len(per_pass)
    failed = sum(not ok for _, ok, _ in verdict.checks) + verdict.bad_records * 2 * len(per_pass)
    return {"verdict": verdict, "attempted": attempted, "failed": min(failed, attempted),
            "metrics": metrics}


# ---------------------------------------------------------------------- main

def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    scratch = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        work = wl.WORKLOADS[name](seed, scratch)
        if traced:
            result = trace(work, seconds, scratch, seed)
        else:
            result = measure(work, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    for check, ok, detail in result["verdict"].checks:
        report(f"{name} check {check}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    for metric, (value, unit) in result["metrics"].items():
        report(f"{name} {metric} = {value:.6g} {unit}")
    report(f"{name} fail_frac = {result['failed'] / result['attempted']:.6g} "
           f"({result['failed']} of {result['attempted']})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selbounds" / "cli.py").is_file():
        print(f"error: no selbounds sources under {SRC}", file=sys.stderr)
        return 2
    report(" ".join(f"{k}={v}" for k, v in environment().items()))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    prefix = args.workload == "all"
    print(json.dumps({
        "correct": all(ok for r in results.values() for _, ok, _ in r["verdict"].checks),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in results.items() for metric, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
