"""Benchmark entry point.

    python3 perfbench/run.py --workload {certify,krige,field}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each workload runs in its own
processes with BLAS threads capped at the number of usable cores: first
SETUPS fresh interpreters that each import variobern and write the seeded
inputs (set-up time is their median), then one worker that runs whole
rounds of CLI jobs for S seconds and checks every output. The last line of
standard output is one JSON object with correct, attempted, failed and the
metrics: end-to-end ones with --trace 0, per-layer ones with --trace 1.
Results and spans are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, SIZES_MB, SPAN_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
DEADLINE_S = 170.0

# first job kind of each workload: the one job_s.p50 is taken over
MAIN_KIND = {"certify": "validate", "krige": "dense", "field": "simulate"}


def fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def call(argv, env, deadline) -> tuple[float, str]:
    """Run a child to completion; (wall seconds, last stdout line)."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before " + argv[1])
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"{argv[1]} did not finish in time")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"{argv[1]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{argv[1]} printed nothing")
    return wall, lines[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(MAIN_KIND))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "variobern" / "__init__.py").is_file():
        fail(f"no variobern sources under {ROOT / 'src'}; run from a source checkout")

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    py = sys.executable

    setup_s, layer_setup, digests = [], [], set()
    for k in range(SETUPS):
        out = work / f"inputs{k}"
        wall, line = call([py, str(HERE / "prepare.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--out", str(out),
                           "--trace", str(args.trace)], env, deadline)
        info = json.loads(line)
        setup_s.append(wall)
        layer_setup.append(info["self_times"].get("kernels.spectral_variogram", 0.0))
        digests.add(info["digest"])
        if k:
            shutil.rmtree(out)
    inputs = work / "inputs0"

    spans = work / "spans.jsonl"
    _, line = call([py, str(HERE / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--inputs", str(inputs),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--spans", str(spans)], env, deadline)
    res = json.loads(line)
    shutil.rmtree(inputs)

    if args.trace:
        # every layer metric is printed; a layer a workload never calls reads 0
        unit = (dict.fromkeys(SPAN_METRICS.values(), "s") | dict.fromkeys(COUNTERS, "count")
                | dict.fromkeys(SIZES_MB, "MB") | {"trace.overhead_s": "s"})
        layers = dict.fromkeys(unit, 0.0) | res["per_layer"]
        layers["kernels.spectral_variogram_s"] = statistics.median(layer_setup)
        layers["trace.overhead_s"] = res["overhead_s"]
        metrics = {k: metric(layers[k], u) for k, u in unit.items()}
    else:
        times = res["job_times"]
        main_p50 = statistics.median(times[MAIN_KIND[args.workload]])
        # the dense/sparse split exists on krige only; elsewhere every job
        # assembles a dense matrix and both fall back to the main median
        dense = statistics.median(times["dense"]) if "dense" in times else main_p50
        sparse = statistics.median(times["sparse"]) if "sparse" in times else main_p50
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "run_s": metric(statistics.median(res["round_s"]), "s"),
            "job_s.p50": metric(main_p50, "s"),
            "dense_job_s.p50": metric(dense, "s"),
            "sparse_job_s.p50": metric(sparse, "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    correct = res["correct"] and len(digests) == 1
    summary = {"correct": correct, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    detail = dict(summary, rounds=res["rounds"], reasons=res["reasons"],
                  setup_runs_s=setup_s, inputs_identical=len(digests) == 1,
                  round_s=res["round_s"], job_times=res["job_times"])
    (work / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    for reason in res["reasons"]:
        sys.stderr.write(f"perfbench: {reason}\n")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
