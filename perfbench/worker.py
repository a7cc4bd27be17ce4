"""The measured process of one workload: rounds of CLI jobs, run in-process.

Run as ``python3 perfbench/worker.py --workload W --seed N --inputs DIR
--seconds S --trace T [--spans FILE]``. Each job calls
``variobern.cli.main(argv)`` with the argv a user would type and is timed
around that call alone; its output is then checked outside the timed
region. Whole rounds run until S seconds have passed. With tracing on,
the rounds after the first alternate traced and untraced, so the traced
run also measures its own overhead. Prints one JSON line with the raw
figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import inputs
import verify
from spans import SPAN_METRICS, Tracer


class Checker:
    """Checks each job's output; returns ('ok' | 'failed' | 'wrong', reason)."""

    def __init__(self, base: str):
        from variobern import models

        self.base = base
        self.models = models
        self._sites = {}
        self._field = {}
        self.witnesses = 0
        self.distinct_lags = 0

    def sites(self, name):
        if name not in self._sites:
            self._sites[name] = inputs.read_sites(os.path.join(self.base, name))
        return self._sites[name]

    def check(self, job: dict, code: int) -> tuple[str, str | None]:
        kind = job["kind"]
        try:
            with open(job["out"], encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            text = None
        if kind == "forged":
            payload = None if text is None else json.loads(text)
            status = verify.check_forged(code, payload)
            if payload is not None:
                self._count_witnesses(payload)
            reason = None if status == "ok" else (
                f"{job['id']}: a forged certificate was accepted" if status == "failed"
                else f"{job['id']}: unexpected result (exit {code})")
            return status, reason
        if text is None:
            return "failed", f"{job['id']}: no output (exit {code})"
        coords, values = self.sites(job["sites"])
        if kind == "validate":
            payload = json.loads(text)
            self._count_witnesses(payload)
            if job["expect"] == "witness":
                reason = verify.check_witness(code, payload, coords)
            else:
                reason = verify.check_pass(code, payload)
        elif kind == "spectral":
            payload = json.loads(text)
            self._count_witnesses(payload)
            iu, ju = np.triu_indices(len(coords), k=1)
            lags = (coords[iu] - coords[ju])[:, 0]
            self.distinct_lags += np.unique(
                np.abs(coords[:, None, 0] - coords[None, :, 0])).size
            model = self.models.model_from_json(payload["config"]["model"])
            reason = verify.check_spectral(code, payload, lags, model(lags[:, None]))
        elif kind in ("dense", "sparse"):
            if kind == "dense":
                kernel = lambda r: verify.ma_product_closed_form(r, *inputs.MA_RATES)
                steps = inputs.DENSE_TARGETS
            else:
                kernel = lambda r: verify.wendland_closed_form(
                    r, inputs.WENDLAND_RADIUS, inputs.WENDLAND_L)
                steps = inputs.SPARSE_TARGETS
            reason = verify.check_krige(code, json.loads(text), coords, values,
                                        kernel, job["check_target"], steps * steps)
        elif kind == "simulate":
            if job["sites"] not in self._field:
                self._field[job["sites"]] = verify.FieldReference(
                    coords, inputs.FIELD_RATE, inputs.FIELD_BINS,
                    inputs.FIELD_REPLICATES)
            reason = verify.check_field(code, verify.parse_field_csv(text),
                                        self._field[job["sites"]])
        else:
            raise ValueError(kind)
        return ("ok", None) if reason is None else ("wrong", f"{job['id']}: {reason}")

    def _count_witnesses(self, payload: dict) -> None:
        self.witnesses += sum(1 for rep in payload.get("reports", [])
                              for c in rep["checks"] if c.get("witness"))


def run(args) -> dict:
    from variobern import cli

    with open(os.path.join(args.inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    checker = Checker(args.inputs)
    tracer = Tracer()
    job_times: dict[str, list[float]] = {}
    plain_rounds, traced_rounds, layer_rounds = [], [], []
    attempted = failed = 0
    reasons: list[str] = []
    correct = True
    start = time.perf_counter()
    r = 0
    while True:
        # round 0 warms up lazy imports and thread pools; after it a traced
        # run alternates traced and untraced rounds
        traced = bool(args.trace) and r % 2 == 1
        jobs = inputs.round_jobs(manifest, args.inputs, r)
        first_span = len(tracer.spans)
        tracer.reset_counts()
        checker.witnesses = checker.distinct_lags = 0
        round_s = 0.0
        patch = tracer.installed() if traced else contextlib.nullcontext()
        with patch:
            for job in jobs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(job["out"])
                tracer.job = f"{r}:{job['id']}"
                err = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stderr(err):
                        if traced:
                            tracer.active = True
                            with tracer.span("cli.main"):
                                code = cli.main(job["argv"])
                        else:
                            code = cli.main(job["argv"])
                except Exception:  # a crash is a failed operation, reported
                    code = None
                    reasons.append(f"{job['id']}: {traceback.format_exc(limit=3)}")
                finally:
                    tracer.active = False
                dt = time.perf_counter() - t0
                round_s += dt
                attempted += 1
                if code is None:
                    failed += 1
                    continue
                status, reason = checker.check(job, code)
                if status != "ok":
                    reasons.append(reason + (f" [{err.getvalue().strip()}]"
                                             if err.getvalue() else ""))
                if status == "wrong":
                    correct = False
                elif status == "failed":
                    failed += 1
                if not traced and job["main"]:
                    job_times.setdefault(job["kind"], []).append(dt)
        if traced:
            traced_rounds.append(round_s)
            layer = {SPAN_METRICS[k]: v for k, v in tracer.self_times(first_span).items()}
            layer.update(tracer.counts)
            layer.update(tracer.sizes)
            layer["checks.witnesses"] = checker.witnesses
            layer["algebra.spectral_lags_distinct"] = checker.distinct_lags
            layer_rounds.append(layer)
        else:
            plain_rounds.append(round_s)
        r += 1
        if time.perf_counter() - start >= args.seconds and r >= (3 if args.trace else 1):
            break

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "reasons": sorted(set(reasons)), "rounds": r,
        "round_s": plain_rounds, "job_times": job_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        names = sorted({k for layer in layer_rounds for k in layer})
        result["per_layer"] = {
            k: statistics.median(layer.get(k, 0.0) for layer in layer_rounds)
            for k in names}
        result["overhead_s"] = (statistics.median(traced_rounds)
                                - statistics.median(plain_rounds[1:]))
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for name, t0, t1, parent, job in tracer.spans:
                    fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                         "parent": parent, "job": job}) + "\n")
    return result


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans")
    args = p.parse_args()
    print(json.dumps(run(args)))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
