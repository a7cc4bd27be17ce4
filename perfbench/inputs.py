"""Seeded inputs for the three workloads.

Everything here is derived from the run seed through numpy SeedSequences, so
one seed always gives the same files. The program sees only what is written:
site CSVs (header ``x1,...,xd[,value]``) and model JSON files. Model JSON is
made with the library's own constructors, as a user would make it; site sets
are drawn here and never with the library's ``sample_point_sets``.

``write_fixed`` writes the inputs that stay the same for the whole run
(models and site sets) and a manifest. ``round_jobs`` returns the job list
of one round, writing that round's fresh inputs where a workload needs them
(spectral site sets, simulation seeds).
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("certify", "krige", "field")

# sizes: one round of each workload takes a few seconds on two cores
CERTIFY_GRID = 32            # 32 x 32 = 1024 sites in d = 2
CERTIFY_SPACING = 0.6
FORGED_SITES = 20            # seed-independent site set for the forged models
SPECTRAL_SITES = 40          # d = 1, a fresh set for every job
SPECTRAL_JOBS = 2            # per certify round
SPECTRAL_SPACING = 0.25
DENSE_GRID, DENSE_SPACING = 24, 0.5      # 576 sites, ma_product
DENSE_TARGETS = 4                        # 4 x 4 target grid
SPARSE_GRID, SPARSE_SPACING = 45, 1.0    # 2025 sites, Wendland
SPARSE_TARGETS = 2                       # 2 x 2 target grid
WENDLAND_RADIUS, WENDLAND_L = 2.5, 2
MA_RATES = (0.5, 1.5)
FIELD_GRID, FIELD_SPACING = 14, 0.75     # 196 sites
FIELD_RATE = 0.5
FIELD_REPLICATES = 1000
FIELD_BINS = 12
FIELD_JOBS = 4

# stream tags for SeedSequence([seed, tag, ...])
_SITES, _VALUES, _ROUND, _TARGET = 1, 2, 3, 4


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def jittered_grid(k: int, spacing: float, d: int, rng) -> np.ndarray:
    """k^d sites, one uniform draw in the middle 80% of each grid cell.

    Constant density, and no two sites closer than 0.2 * spacing, which keeps
    the oracles and solvers away from near-duplicate degeneracy.
    """
    axes = np.meshgrid(*[np.arange(k)] * d, indexing="ij")
    cells = np.stack([a.ravel() for a in axes], axis=-1).astype(float)
    return (cells + rng.uniform(0.1, 0.9, size=cells.shape)) * spacing


def write_sites(path, coords, values=None) -> None:
    coords = np.asarray(coords, dtype=float)
    head = [f"x{i + 1}" for i in range(coords.shape[1])]
    if values is not None:
        head.append("value")
    lines = [",".join(head)]
    for i, row in enumerate(coords):
        cells = [repr(float(c)) for c in row]
        if values is not None:
            cells.append(repr(float(values[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sites(path):
    """(coords, values or None) from a site CSV, independently of the program."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if head[-1] == "value":
        return data[:, :-1], data[:, -1]
    return data, None


def _dump(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def _trend(coords, rng, scale) -> np.ndarray:
    x, y = coords[:, 0] / scale, coords[:, 1] / scale
    return 10.0 + np.sin(x) + np.cos(0.7 * y) + 0.2 * rng.standard_normal(len(coords))


# ----------------------------------------------------------------------
# the fixed part of each workload

def _certify_models():
    import variobern as vb
    from variobern import algebra as alg, models

    log1p = alg.catalog("log1p")
    cauchy = alg.catalog("cauchy", {"alpha": 0.5, "beta": 1.0})
    e1 = alg.catalog("exp_one_minus", {"a": 1.0})
    axioms = {
        "ma_product": vb.ma_product(1.0, 2.0, d=2),
        "schur_product_extended": vb.schur_product_extended(
            log1p, cauchy, 0.5, 0.5, d=2),
        "cbf_variograms": vb.cbf_variograms(log1p, "ratio", d=2),
        "composition_products": vb.composition_products(
            log1p, alg.catalog("sqrt_arctan"), d=2),
        "matern_complement": models.variogram_from_covariance(
            vb.matern_covariance(1.0, 1.5, d=2)),
    }
    pd = {
        "matern": vb.matern_covariance(1.0, 1.5, d=2),
        "exponential": vb.exponential_covariance(1.0, d=2),
        "wendland": vb.wendland(3.0, 2, 2),
    }
    failing = vb.make_variogram(vb.fprod(e1, e1), d=2)
    sine = models.model_to_json(vb.make_variogram(alg.catalog("sine"), d=2))
    sine["certified"] = True
    power_cov = models.covariance_from_variogram(
        vb.make_variogram(alg.catalog("power", {"a": 1.0}), d=2), sill=1.0)
    to_json = models.model_to_json
    return ({k: to_json(m) for k, m in axioms.items()},
            {k: to_json(m) for k, m in pd.items()},
            to_json(failing), sine, to_json(power_cov))


def _fixed_certify(seed, out):
    from variobern import algebra as alg, kernels, models

    axioms, pd, failing, sine, power_cov = _certify_models()
    _dump(os.path.join(out, "spectral.json"),
          models.model_to_json(kernels.spectral_variogram(alg.catalog("log1p"))))
    sites = jittered_grid(CERTIFY_GRID, CERTIFY_SPACING, 2, rng_for(seed, _SITES))
    write_sites(os.path.join(out, "sites.csv"), sites)
    # the forged-certificate operations use inputs that no seed changes
    forged = rng_for(0, _SITES).uniform(0.0, 3.0, size=(FORGED_SITES, 2))
    write_sites(os.path.join(out, "forged_sites.csv"), forged)
    jobs = []
    for name, m in axioms.items():
        _dump(os.path.join(out, f"{name}.json"), m)
        jobs.append({"id": name, "kind": "validate", "main": True,
                     "model": f"{name}.json", "sites": "sites.csv",
                     "expect": "pass"})
    for name, m in pd.items():
        _dump(os.path.join(out, f"{name}.json"), m)
        jobs.append({"id": name, "kind": "validate", "main": True,
                     "model": f"{name}.json", "sites": "sites.csv",
                     "expect": "pass"})
    _dump(os.path.join(out, "failing_product.json"), failing)
    jobs.append({"id": "failing_product", "kind": "validate", "main": True,
                 "model": "failing_product.json", "sites": "sites.csv",
                 "expect": "witness"})
    _dump(os.path.join(out, "forged_sine.json"), sine)
    _dump(os.path.join(out, "forged_power_cov.json"), power_cov)
    for name in ("forged_sine", "forged_power_cov"):
        jobs.append({"id": name, "kind": "forged", "main": False,
                     "model": f"{name}.json", "sites": "forged_sites.csv"})
    return jobs


def _fixed_krige(seed, out):
    import variobern as vb
    from variobern import models

    dense = jittered_grid(DENSE_GRID, DENSE_SPACING, 2, rng_for(seed, _SITES, 0))
    sparse = jittered_grid(SPARSE_GRID, SPARSE_SPACING, 2, rng_for(seed, _SITES, 1))
    write_sites(os.path.join(out, "dense_sites.csv"), dense,
                _trend(dense, rng_for(seed, _VALUES, 0), 2.0))
    write_sites(os.path.join(out, "sparse_sites.csv"), sparse,
                _trend(sparse, rng_for(seed, _VALUES, 1), 4.0))
    _dump(os.path.join(out, "ma_product.json"),
          models.model_to_json(vb.ma_product(*MA_RATES, d=2)))
    _dump(os.path.join(out, "wendland.json"),
          models.model_to_json(vb.wendland(WENDLAND_RADIUS, WENDLAND_L, 2)))
    jobs = []
    for kind, model, sites, k, spacing, steps in (
            ("dense", "ma_product.json", "dense_sites.csv", DENSE_GRID,
             DENSE_SPACING, DENSE_TARGETS),
            ("sparse", "wendland.json", "sparse_sites.csv", SPARSE_GRID,
             SPARSE_SPACING, SPARSE_TARGETS)):
        lo, hi = 2.0 * spacing, (k - 2) * spacing
        axis = f"{lo!r}:{hi!r}:{steps}"
        check = int(rng_for(seed, _TARGET, len(jobs)).integers(steps * steps))
        jobs.append({"id": kind, "kind": kind, "main": True, "model": model,
                     "sites": sites, "grid": f"{axis},{axis}",
                     "check_target": check})
    return jobs


def _fixed_field(seed, out):
    import variobern as vb
    from variobern import models

    sites = jittered_grid(FIELD_GRID, FIELD_SPACING, 2, rng_for(seed, _SITES))
    write_sites(os.path.join(out, "sites.csv"), sites)
    _dump(os.path.join(out, "exponential.json"),
          models.model_to_json(vb.exponential_covariance(FIELD_RATE, d=2)))
    return []


_FIXED = {"certify": _fixed_certify, "krige": _fixed_krige, "field": _fixed_field}


def write_fixed(workload: str, seed: int, out: str) -> dict:
    """Write the run-long inputs of a workload and its manifest.json."""
    os.makedirs(out, exist_ok=True)
    manifest = {"workload": workload, "seed": seed,
                "jobs": _FIXED[workload](seed, out)}
    _dump(os.path.join(out, "manifest.json"), manifest)
    return manifest


# ----------------------------------------------------------------------
# one round

def _argv(job: dict, base: str, out: str) -> list[str]:
    path = lambda name: os.path.join(base, name)
    kind = job["kind"]
    if kind in ("validate", "forged", "spectral"):
        return ["validate", "--model", path(job["model"]),
                "--points", path(job["sites"]), "--out", out]
    if kind in ("dense", "sparse"):
        return ["krige", "--model", path(job["model"]),
                "--points", path(job["sites"]), "--grid", job["grid"],
                "--mode", kind, "--out", out]
    if kind == "simulate":
        return ["simulate", "--model", path(job["model"]),
                "--points", path(job["sites"]),
                "--replicates", str(FIELD_REPLICATES),
                "--grid", str(FIELD_BINS), "--seed", str(job["sim_seed"]),
                "--out", out]
    raise ValueError(f"unknown job kind {kind!r}")


def round_jobs(manifest: dict, base: str, r: int) -> list[dict]:
    """Jobs of round r, each with the argv a user would type.

    The spectral jobs of certify get fresh sites every round, so each meets
    a cold quadrature cache as a command-line user would; simulation jobs
    get a fresh seed. Every other job repeats the same inputs every round.
    """
    workload, seed = manifest["workload"], manifest["seed"]
    jobs = [dict(j) for j in manifest["jobs"]]
    if workload == "certify":
        for k in range(SPECTRAL_JOBS):
            sites = jittered_grid(SPECTRAL_SITES, SPECTRAL_SPACING, 1,
                                  rng_for(seed, _ROUND, r, k))
            name = f"round_sites_{k}.csv"
            write_sites(os.path.join(base, name), sites)
            jobs.append({"id": f"spectral_{k}", "kind": "spectral",
                         "main": False, "model": "spectral.json", "sites": name})
    elif workload == "field":
        seeds = rng_for(seed, _ROUND, r).integers(0, 2**31, size=FIELD_JOBS)
        for k, s in enumerate(seeds):
            jobs.append({"id": f"simulate_{k}", "kind": "simulate",
                         "main": True, "model": "exponential.json",
                         "sites": "sites.csv", "sim_seed": int(s)})
    for k, job in enumerate(jobs):
        ext = "csv" if job["kind"] == "simulate" else "json"
        job["out"] = os.path.join(base, f"out_{k}.{ext}")
        job["argv"] = _argv(job, base, job["out"])
    return jobs
