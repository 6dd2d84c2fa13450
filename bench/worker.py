"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  --setup-only  set up, print the set-up time and exit
  (default)     set up, then run the closed loop for --seconds and print the
                end-to-end measurements
  --trace PATH  set up, run items untraced for a share of --seconds, run the
                same items again with the tracer installed, print the
                per-layer measurements and write the trace to PATH

The result is printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# share of --seconds spent on the untraced pass of a traced run; the traced
# pass then repeats the same items
UNTRACED_SHARE = 0.25
# calibration time as a share of item time: a sample is taken whenever the
# samples so far fall below it
CALIBRATION_SHARE = 0.1
CALIBRATE_AROUND_SETUP = 3


def set_up(name: str, seed: int, corrupt: bool):
    """Import the package, warm its caches and build the inputs.

    Returns the workload, the set-up time scaled to the reference host speed
    by calibration samples taken just before and just after, and the raw time.
    """
    from workloads import WORKLOADS

    kind = WORKLOADS[name]
    cal = [kind.calibrate() for _ in range(CALIBRATE_AROUND_SETUP)]
    t0 = time.perf_counter()
    import treecolor  # noqa: F401

    w = kind(seed, corrupt)
    w.setup()
    setup_s = time.perf_counter() - t0
    cal += [kind.calibrate() for _ in range(CALIBRATE_AROUND_SETUP)]
    # the inputs live as long as the run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    return w, setup_s * w.reference_s / statistics.mean(cal), setup_s


@dataclass
class Loop:
    lat: list = field(default_factory=list)  # seconds per item
    items: list = field(default_factory=list)
    failed: int = 0
    first_failure: tuple | None = None
    cal: list = field(default_factory=list)  # calibration samples, seconds


def closed_loop(check, stream, seconds: float, limit: int | None = None, calibrate=None) -> Loop:
    """Run items back to back until the time is up (or `limit` items ran),
    interleaving calibration samples when `calibrate` is given."""
    run = Loop()
    clock = time.perf_counter
    deadline = clock() + seconds
    cal_s = item_s = 0.0
    for item in stream:
        if calibrate is not None and cal_s <= CALIBRATION_SHARE * item_s:
            run.cal.append(calibrate())
            cal_s += run.cal[-1]
        t = clock()
        try:
            ok = check(item)
            why = "mismatch"
        except Exception as e:  # any raise counts as a failed item
            ok = False
            why = f"{type(e).__name__}: {e}"
        done = clock()
        run.lat.append(done - t)
        item_s += done - t
        run.items.append(item)
        if not ok:
            run.failed += 1
            if run.first_failure is None:
                run.first_failure = (item, why)
        if (limit is not None and len(run.lat) >= limit) or (limit is None and done >= deadline):
            break
    return run


def tail_percentile(n: int) -> float:
    """The highest of these percentiles with at least ten samples beyond it."""
    best = 50.0
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def quantile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(1, math.ceil(p / 100 * len(sorted_vals))) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def failure_text(w, first_failure) -> str | None:
    if first_failure is None:
        return None
    item, why = first_failure
    return f"{w.describe(item)}: {why}"


def measure(w, seconds: float) -> dict:
    run = closed_loop(w.check, w.stream(), seconds, calibrate=w.calibrate)
    work_s = sum(run.lat)
    cal_s = statistics.mean(run.cal)
    lat_ms = sorted(x * 1000.0 for x in run.lat)
    p_tail = tail_percentile(len(lat_ms))
    children = w.name == "cli-mix"
    return {
        "attempted": len(run.lat),
        "failed": run.failed,
        "first_failure": failure_text(w, run.first_failure),
        "work_s": work_s,
        "raw_items_per_s": len(run.lat) / work_s,
        "calibration_s": cal_s,
        "calibration_samples": len(run.cal),
        "reference_s": w.reference_s,
        # at the reference host speed: scaled by how slow the kernel ran meanwhile
        "items_per_s": len(run.lat) / work_s * cal_s / w.reference_s,
        "peak_rss_mb": peak_rss_mb(children),
        "peak_rss_of": "cli child processes" if children else "this process",
        # per item: one command on cli-mix, one in-process check on a sweep
        "cmd_p50_ms": quantile(lat_ms, 50.0),
        "cmd_tail_ms": quantile(lat_ms, p_tail),
        "tail_percentile": p_tail,
    }


def fresh_import_s(statement: str, repeats: int = 3) -> float:
    """Median time of `statement` in a fresh interpreter."""
    code = (
        "import time\nt = time.perf_counter()\n"
        f"{statement}\nprint(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=60
        ).stdout
        times.append(float(out.split()[-1]))
    times.sort()
    return times[len(times) // 2]


def trace(w, seconds: float, out_path: str) -> dict:
    from tracer import Tracer, per_layer_names

    from treecolor import trees

    check = w.check_in_process if w.name == "cli-mix" else w.check
    if w.name == "cli-mix":
        # first in-process calls pay for lazy imports; keep that out of both passes
        for i in range(len(w.commands)):
            check(i)
    untraced = closed_loop(check, w.stream(), seconds * UNTRACED_SHARE)
    items = untraced.items

    tracer = Tracer()
    tracer.install()

    def traced_check(item):
        tracer.item += 1
        return check(item)

    try:
        traced = closed_loop(traced_check, iter(items), 0, limit=len(items))
    finally:
        tracer.uninstall()
    untraced_s, traced_s = sum(untraced.lat), sum(traced.lat)

    metrics = tracer.metrics()
    info = trees._all_trees.cache_info()
    metrics["trees.all_trees.hit_ratio"] = info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
    # start-up cost of a query, whatever the workload: measured in fresh interpreters
    metrics["cli.import_s"] = fresh_import_s("import treecolor.cli")
    metrics["cli.networkx_import_s"] = fresh_import_s("import networkx")
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    missing = [name for name, _ in per_layer_names() if name not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    tracer.write(out_path, {"workload": w.name, "items": len(items), "untraced_s": untraced_s, "traced_s": traced_s})
    return {
        "attempted": len(items) * 2,
        "failed": untraced.failed + traced.failed,
        "first_failure": failure_text(w, untraced.first_failure or traced.first_failure),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "per_layer": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="PATH")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    w, setup_s, raw_setup_s = set_up(args.workload, args.seed, args.corrupt)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "inputs": w.sizes}
    if args.trace:
        result.update(trace(w, args.seconds, args.trace))
    elif not args.setup_only:
        result.update(measure(w, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
