"""walfcal benchmark: run one workload for one seed and print one JSON result.

    python3 perfbench/run.py --workload drive_large --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; walfcal is imported from ./src.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  The lines before it list every metric with its unit,
including the ones that cannot be bounded (op_s_tail, fail_ratio), and the
report fingerprint.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One client process and no extra threads: pin the BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402
from tracing import EMIT_SPANS, layer_stats  # noqa: E402

SETUP_SAMPLES = 15
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def measure_setup(samples: int, scratch: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import walfcal.cli, raw and scaled."""
    cmd = [sys.executable, "-c", "import walfcal.cli"]
    subprocess.run(cmd, check=True)  # writes the bytecode cache, as any install does
    probe = Probe("python", scratch)
    raw, scaled = [], []
    for _ in range(samples):
        before = probe.around(raw[-1] if raw else 0.0)
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * probe.scale(before, probe.around(raw[-1])))
    return raw, scaled


def tail(op_s: list[float]):
    """(percentile, seconds) at the highest ladder percentile with >= 10 ops beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(op_s) * (1.0 - pct / 100.0) >= 10.0:
            return pct, statistics.quantiles(op_s, n=1000, method="inclusive")[round(pct * 10) - 1]
    return None


def end_to_end(setup: list[float], outcome) -> dict:
    """The end-to-end metrics of an untraced run, by name, at reference speed."""
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(outcome.scaled_s),
        "rows_per_s": outcome.rows / sum(outcome.scaled_s),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass by name, and layers missing from walfcal.

    Span statistics are named <span>.<stat>; a layer that never ran has none.
    """
    stats: dict = {}
    absent: set = set()
    evaluated = distinct = 0
    for dump in outcome.dumps:
        for name, values in layer_stats(dump["spans"]).items():
            merged = stats.setdefault(name, {})
            for key, value in values.items():
                merged[key] = merged.get(key, 0.0) + value
        absent.update(dump["absent"])
        evaluated += dump["basis_rows_evaluated"]
        distinct += dump["basis_rows_distinct"]
    spanned = sum(s["self_s"] for s in stats.values())
    traced = outcome.pass_traced_s
    traced_p50 = statistics.median(outcome.traced_op_s)
    untraced_p50 = statistics.median(outcome.op_s)
    derived = {
        "cli.emit.self_s": sum(stats.get(name, {}).get("self_s", 0.0) for name in EMIT_SPANS),
        "cli.emit.bytes": outcome.emitted[0],
        "cli.emit.rows": outcome.emitted[1],
        "cli.emit.files": outcome.emitted[2],
        "basis.rows_evaluated": evaluated,
        "basis.useful_ratio": distinct / evaluated if evaluated else 0.0,
        "trace.op_s_p50": traced_p50,
        "trace.untraced_op_s_p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.spanned_share": spanned / traced if traced else 0.0,
        "trace.unspanned_s": traced - spanned,
        "bench.inputs_rss_mb": outcome.inputs_rss_mb,
    }
    for span, values in stats.items():
        for stat, value in values.items():
            derived.setdefault(f"{span}.{stat}", value)
    return derived, sorted(absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="walfcal benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "walfcal" / "cli.py").is_file():
        print(f"run.py: walfcal sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # One core for the benchmark and its children, so probe and op see the same one.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "inputs"
    data.mkdir(parents=True)
    try:
        setup_raw, setup = measure_setup(SETUP_SAMPLES, work)
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(data)], check=True)
        import walfcal

        if not Path(walfcal.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"run.py: walfcal was imported from {walfcal.__file__}", file=sys.stderr)
            return 2
        workload = workloads.make(args.workload, inputs.load(data), work, data)
        outcome = workload.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not outcome.op_s or (args.trace and not outcome.traced_op_s):
        print("run.py: no op succeeded", *outcome.failures[:5], sep="\n", file=sys.stderr)
        return 1
    problems = list(outcome.failures)
    lines = [f"workload {args.workload}, seed {args.seed}: {outcome.attempted} ops attempted "
             f"({len(outcome.op_s)} timed untraced, {len(outcome.traced_op_s)} traced), "
             f"{len(outcome.failures)} failed"]
    if args.trace:
        found, absent = per_layer(outcome)
        if "calib.calibrate" not in absent:
            errors = found.get("calib.calibrate.domain_errors", 0)
            if errors != outcome.injected:
                problems.append(f"calib.calibrate.domain_errors is {errors:g}, "
                                f"but {outcome.injected} campaigns were injected")
        lines.append(f"per-layer values are totals over one traced pass of "
                     f"{outcome.pass_ops} ops; absent layers: {', '.join(absent) or 'none'}")
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(outcome.dumps))
        lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        found = end_to_end(setup, outcome)
        lines.append(f"op_s_p50 over {len(outcome.op_s)} ops; setup_s median of {len(setup)}; "
                     f"times are scaled to the probe's reference speed (probe.py)")
        lines.append(f"unscaled wall times: op_s_p50 {statistics.median(outcome.op_s):.6f} s, "
                     f"setup_s {statistics.median(setup_raw):.6f} s, rows_per_s "
                     f"{outcome.rows / sum(outcome.op_s):.1f}")
        tail_at = tail(outcome.scaled_s)
        if tail_at is None:
            lines.append(f"op_s_tail: omitted, {len(outcome.op_s)} ops leave no percentile "
                         f"in {TAIL_PERCENTILES} with 10 ops beyond it")
        else:
            lines.append(f"op_s_tail: p{tail_at[0]:g} = {tail_at[1]:.6f} s "
                         f"over {len(outcome.op_s)} ops")
        lines.append(f"fail_ratio: {len(outcome.failures) / outcome.attempted:.6f} "
                     f"({len(outcome.failures)} of {outcome.attempted} ops)")
        lines.append(f"report fingerprint (sha256, {len(outcome.digests)} inputs): "
                     f"{outcome.fingerprint()}")
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        lines.append(f"  {name:44s} {metric['value']:>16.6f} {metric['unit']}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
