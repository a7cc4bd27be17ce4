"""Start-up cost: scipy is imported by the functions that use it, not by the
package, so a command loads only the scipy modules it runs.

pytest itself imports scipy.integrate (pyproject's filterwarnings names its
IntegrationWarning), so each case runs in a fresh interpreter.
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
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def fresh_run(*argv) -> tuple[int | None, set[str]]:
    """Exit code of cli.main(argv) (None without argv) in a new interpreter
    that first imports variobern and its CLI, and the scipy modules loaded."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(list(argv))],
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
                        ("wendland", vb.wendland(2.5, 2, 2))):
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
