"""Traced jobs: spans nest, self times account for each job, and the
program is left unpatched afterwards."""

import subprocess
import sys
from pathlib import Path

import inputs
from spans import SPAN_METRICS, Tracer
from variobern import checks, cli, kriging, points


def _traced_jobs(tmp_path):
    manifests = {}
    for workload, seed in (("krige", 1), ("field", 2), ("certify", 3)):
        base = tmp_path / workload
        manifests[workload] = (inputs.write_fixed(workload, seed, str(base)), base)
    tracer = Tracer()
    with tracer.installed():
        for workload, (manifest, base) in manifests.items():
            jobs = inputs.round_jobs(manifest, str(base), 0)
            if workload == "certify":
                jobs = [j for j in jobs if j["kind"] == "spectral"
                        or j["id"] == "failing_product"]
            else:
                jobs = jobs[:2]
            for job in jobs:
                argv = list(job["argv"])
                if job["kind"] == "simulate":
                    argv[argv.index("--replicates") + 1] = "50"
                tracer.job = f"{workload}:{job['id']}"
                tracer.active = True
                with tracer.span("cli.main"):
                    assert cli.main(argv) == (1 if job["id"] == "failing_product" else 0)
                tracer.active = False
    return tracer


def test_spans_nest_and_account_for_each_job(tmp_path):
    tracer = _traced_jobs(tmp_path)
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"points.min_separation", "kriging.build_gamma_matrix.sparse",
            "kriging.empirical_variogram", "algebra.spectral_eval",
            "checks.cnd"} <= names
    assert names <= set(SPAN_METRICS)
    for name, start, end, parent, job in spans:
        assert end >= start
        if parent is None:
            assert name == "cli.main"
            continue
        p = spans[parent]
        assert p[1] <= start and end <= p[2] and p[4] == job
    roots = [k for k, s in enumerate(spans) if s[3] is None] + [len(spans)]
    for k, stop in zip(roots, roots[1:]):
        assert all(s[4] == spans[k][4] for s in spans[k:stop])
        job_s = spans[k][2] - spans[k][1]
        assert abs(sum(tracer.self_times(k, stop).values()) - job_s) < 1e-9


def test_counters_follow_the_work(tmp_path):
    tracer = _traced_jobs(tmp_path)
    assert tracer.counts["kriging.targets"] == (inputs.DENSE_TARGETS ** 2
                                                + inputs.SPARSE_TARGETS ** 2)
    assert tracer.counts["kriging.sparse_nnz"] > inputs.SPARSE_GRID ** 2
    n = inputs.FIELD_GRID ** 2
    assert tracer.counts["kriging.pairs_binned"] == 2 * 50 * n * (n - 1) // 2
    assert tracer.counts["algebra.spectral_lags_requested"] == inputs.SPECTRAL_JOBS * (
        3 * inputs.SPECTRAL_SITES ** 2 + 1)
    assert tracer.sizes["points.lag_tensor_mb"] == inputs.SPARSE_GRID ** 4 * 2 * 8 / 1e6


def test_patches_are_removed():
    originals = (cli.read_points_csv, points.PointSet.lags, checks.cnd_check,
                 kriging.build_gamma_matrix)
    tracer = Tracer()
    with tracer.installed():
        assert cli.read_points_csv is not originals[0]
        assert points.PointSet.lags is not originals[1]
    assert (cli.read_points_csv, points.PointSet.lags, checks.cnd_check,
            kriging.build_gamma_matrix) == originals
    assert tracer.spans == []


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parents[1]
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in here.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((here.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
