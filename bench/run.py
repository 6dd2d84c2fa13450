"""The treecolor benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, one after another
    python3 bench/run.py --self-test      # the checks must catch a wrong value

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (closed loop, one client, no threads in the measured
process):

  balance-sweep     seeded sample of the sorted criterion-05 word set
  colorgraph-sweep  seeded vectors of lengths 6-9 plus the 1^m 2 1^n family
  pair-sweep        seeded tree pairs with 5-7 carets plus one exhaustive
                    max_coloring_search(9, bound=9)
  cli-mix           the README commands, each spawned as python -m treecolor.cli

On cli-mix an item is one command, so items_per_s is the rate of one
client issuing commands back to back.  cli-mix also prints cmd_p50_ms and
cmd_tail_ms, unscaled, on its human-readable lines; they are not in the
JSON line because a fresh interpreter's start-up time drifts with the host
by more than any fixed regression bound.

Every workload runs in fresh processes: SETUP_SAMPLES processes set up
(import, cache warm-up, input generation) and report their set-up time, the
last of them then runs the timed loop for --seconds.  With --trace 1 the
timed loop is replaced by an untraced pass and a traced pass over the same
items, which give the per-layer metrics and the tracing overhead.

End-to-end metrics (fail_frac is failed / attempted on the last line):

  items_per_s   items checked per second of item time
  setup_s       median set-up time
  peak_rss_mb   peak resident memory (cli-mix: the largest child)
  cmd_p50_ms    cli-mix, printed only: median command time, spawn to exit
  cmd_tail_ms   cli-mix, printed only: the highest percentile with ten
                commands beyond it

items_per_s and setup_s are scaled to a reference host speed.  Each
workload samples the host's current speed with a fixed reference task that
imports nothing from the library (calibration.py): a pure-Python kernel for
the sweeps, a fresh interpreter for cli-mix, whose items are processes.
Samples are taken around each set-up and between items (CALIBRATION_SHARE
of item time), and a time t is reported as t * reference / mean sample (a
rate r as r * mean sample / reference).  The unscaled values are printed as
raw_items_per_s and raw_setup_s and kept in the result files.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Full results (seed,
input sizes, environment) and traces are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import per_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ["balance-sweep", "colorgraph-sweep", "pair-sweep", "cli-mix"]
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set and dict layout follow the hash seed: fix it per run so a seed repeats
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing:\n{err.strip()}")
    return json.loads(lines[-1])


def environment() -> dict:
    import importlib.metadata as md

    try:
        nx_version = md.version("networkx")
    except md.PackageNotFoundError:
        nx_version = None
    return {
        "python": platform.python_version(),
        "networkx": nx_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, corrupt: bool = False, setup_samples: int = SETUP_SAMPLES
) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = child_env(seed)
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    os.makedirs(OUT, exist_ok=True)
    if traced:
        trace_out = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        res = run_worker(base + ["--trace", trace_out], env, deadline)
        res["trace_file"] = os.path.relpath(trace_out, ROOT)
        return res
    setups = [run_worker(base + ["--setup-only"], env, deadline) for _ in range(setup_samples - 1)]
    res = run_worker(base + (["--corrupt"] if corrupt else []), env, deadline)
    setups.append(res)
    res["raw_setup_samples_s"] = [r["raw_setup_s"] for r in setups]
    res["setup_samples_s"] = [r["setup_s"] for r in setups]
    res["raw_setup_s"] = statistics.median(res["raw_setup_samples_s"])
    res["setup_s"] = statistics.median(res["setup_samples_s"])
    return res


def report(name: str, seed: int, seconds: float, traced: bool, res: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}")
    print(f"inputs {json.dumps(res['inputs'], sort_keys=True)}")
    print(f"environment {json.dumps(res['environment'], sort_keys=True)}")
    if traced:
        metrics = {m: {"value": res["per_layer"][m], "unit": u} for m, u in per_layer_names()}
        print(f"traced {attempted // 2} items: untraced {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s")
        print(f"trace written to {res['trace_file']}")
    else:
        metrics = {m: {"value": res[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
        for m, u in END_TO_END_UNITS.items():
            print(f"{m:<12} {res[m]:.6g} {u}")
        if name == "cli-mix":
            print(f"cmd_p50_ms   {res['cmd_p50_ms']:.6g} ms")
            print(f"cmd_tail_ms  {res['cmd_tail_ms']:.6g} ms (p{res['tail_percentile']:g} of {attempted} commands)")
        print(f"  unscaled: raw_items_per_s {res['raw_items_per_s']:.6g} 1/s, raw_setup_s {res['raw_setup_s']:.6g} s; "
              f"calibration sample {res['calibration_s'] * 1000:.3g} ms (reference {res['reference_s'] * 1000:g} ms)")
        print(f"  setup samples {', '.join(f'{s:.3f}' for s in res['setup_samples_s'])} s; "
              f"peak_rss_mb over {res['peak_rss_of']}")
    print(f"fail_frac    {failed / attempted:.6g} ({failed} of {attempted} items)")
    if res["first_failure"]:
        print(f"first failure: {res['first_failure']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def save(name: str, seed: int, traced: bool, res: dict) -> None:
    path = os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(res, workload=name, seed=seed), f, indent=1, sort_keys=True)


def one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    res = run_workload(name, seed, seconds, traced)
    res["environment"] = environment()
    save(name, seed, traced, res)
    return report(name, seed, seconds, traced, res)


def self_test(seed: int) -> int:
    """Each workload with one wrong expected value must report fail_frac > 0
    and keep running past the failing item."""
    ok = True
    for name in WORKLOADS:
        res = run_workload(name, seed, 5.0, traced=False, corrupt=True, setup_samples=1)
        frac = res["failed"] / res["attempted"]
        caught = res["failed"] >= 1 and res["attempted"] > res["failed"]
        ok = ok and caught
        print(f"self-test {name}: fail_frac {frac:.4g} ({res['failed']} of {res['attempted']}) "
              f"{'caught' if caught else 'MISSED'}: {res['first_failure']}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="treecolor benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="timed phase length (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if "ASSOC_COLOR_MAX_D" in os.environ:
        print("refusing to run: ASSOC_COLOR_MAX_D changes what color_graph accepts", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "treecolor", "__init__.py")):
        print(f"no treecolor sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    if args.self_test:
        try:
            return self_test(args.seed)
        except BenchError as e:
            print(f"self-test failed: {e}", file=sys.stderr)
            return 1
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            seconds = json.load(f)["run_seconds"]
    if seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            print(json.dumps(one(args.workload, args.seed, seconds, bool(args.trace))))
            return 0
        results = {}
        for name in WORKLOADS:
            results[name] = one(name, args.seed, seconds, bool(args.trace))
            print()
        print(json.dumps(results))
        return 0
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
