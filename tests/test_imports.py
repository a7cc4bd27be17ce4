"""Start-up cost: scipy is imported by the functions that use it, not by the
package, so a command loads only the scipy modules it runs.

The test process holds every module that earlier tests imported, so each
case runs in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import variobern as vb

REPO = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import variobern, variobern.cli
argv = json.loads(sys.argv[1])
code = variobern.cli.main(argv) if argv else None
exec(sys.argv[2])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def fresh_run(*argv, then: str = "") -> tuple[int | None, set[str]]:
    """Exit code of cli.main(argv) (None without argv) in a new interpreter
    that first imports variobern and its CLI, and the scipy modules loaded
    once the Python statements then have run after it."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(list(argv)), then],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(14)
    coords = rng.uniform(0.0, 6.0, size=(40, 2))
    vb.write_points_csv(vb.PointSet(coords, np.sin(coords).sum(axis=1)),
                        tmp_path / "sites.csv")
    for name, model in (("ma_product", vb.ma_product(0.5, 1.5, d=2)),
                        ("wendland", vb.wendland(2.5, 2, 2)),
                        ("exponential", vb.exponential_covariance(0.5, d=2)),
                        ("matern", vb.matern_covariance(1.0, 1.5, d=2))):
        (tmp_path / f"{name}.json").write_text(json.dumps(vb.model_to_json(model)))
    return lambda name: str(tmp_path / name)


def test_importing_the_package_and_cli_loads_no_scipy():
    assert fresh_run() == (None, set())


def test_dense_krige_loads_no_scipy(inputs, tmp_path):
    code, modules = fresh_run("krige", "--model", inputs("ma_product.json"),
                              "--points", inputs("sites.csv"), "--grid", "1:5:2,1:5:2",
                              "--mode", "dense", "--out", str(tmp_path / "out.json"))
    assert code == 0 and modules == set()


def test_sparse_krige_loads_the_sparse_solver(inputs, tmp_path):
    code, modules = fresh_run("krige", "--model", inputs("wendland.json"),
                              "--points", inputs("sites.csv"), "--grid", "1:5:2,1:5:2",
                              "--mode", "sparse", "--out", str(tmp_path / "out.json"))
    assert code == 0
    assert {"scipy.sparse.linalg", "scipy.spatial"} <= modules


def test_validate_on_a_radial_variogram_loads_only_the_eigensolver(inputs, tmp_path):
    code, modules = fresh_run("validate", "--model", inputs("ma_product.json"),
                              "--points", inputs("sites.csv"),
                              "--out", str(tmp_path / "out.json"))
    subpackages = {m.split(".")[1] for m in modules if "." in m}
    assert code == 0 and "linalg" in subpackages
    assert not subpackages & {"integrate", "optimize", "sparse", "spatial", "special"}


def test_simulate_and_grid_on_the_exponential_covariance_load_no_scipy(inputs, tmp_path):
    """exp(-t x^(1/2)) builds power(1/2)'s Levy triple, whose constant
    a / Gamma(1 - a) comes from math.gamma, not scipy.special."""
    code, modules = fresh_run("simulate", "--model", inputs("exponential.json"),
                              "--points", inputs("sites.csv"), "--grid", "6",
                              "--out", str(tmp_path / "field.csv"))
    assert code == 0 and modules == set()
    code, modules = fresh_run("grid", "--model", inputs("exponential.json"),
                              "--grid", "-1:1:3,0:1:2", "--out", str(tmp_path / "grid.csv"))
    assert code == 0 and modules == set()


def test_validate_on_the_exponential_covariance_loads_no_special_functions(
        inputs, tmp_path):
    code, modules = fresh_run("validate", "--model", inputs("exponential.json"),
                              "--points", inputs("sites.csv"),
                              "--out", str(tmp_path / "out.json"))
    assert code == 0
    assert "scipy.linalg" in modules and "scipy.special" not in modules


def test_validate_on_a_half_integer_matern_loads_no_special_functions(inputs, tmp_path):
    """nu = 3/2 evaluates in closed form, (1 + z) e^(-z), without K_nu."""
    code, modules = fresh_run("validate", "--model", inputs("matern.json"),
                              "--points", inputs("sites.csv"),
                              "--out", str(tmp_path / "out.json"))
    assert code == 0
    assert "scipy.linalg" in modules and "scipy.special" not in modules


def test_building_and_loading_a_spectral_variogram_loads_no_scipy():
    """Both gate the Levy carrier with the package's own quadrature."""
    assert fresh_run(then="import variobern as vb\n"
                          "m = vb.spectral_variogram(vb.catalog('log1p'))\n"
                          "vb.model_from_json(vb.model_to_json(m))") == (None, set())


def test_validate_on_a_spectral_variogram_loads_no_integrator(tmp_path):
    model = tmp_path / "spectral.json"
    model.write_text(json.dumps(vb.model_to_json(vb.spectral_variogram(vb.catalog("log1p")))))
    vb.write_points_csv(vb.PointSet(np.linspace(0.0, 5.0, 12)[:, None]), tmp_path / "line.csv")
    code, modules = fresh_run("validate", "--model", str(model),
                              "--points", str(tmp_path / "line.csv"),
                              "--out", str(tmp_path / "out.json"))
    assert code == 0
    assert "scipy.linalg" in modules and "scipy.integrate" not in modules


def test_levy_eval_on_a_density_loads_no_scipy():
    assert fresh_run(then="import variobern as vb\n"
                          "vb.levy_eval(vb.catalog('log1p').levy, [0.5, 2.0])") == (None, set())
