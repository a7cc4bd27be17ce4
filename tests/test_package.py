"""Package surface: one export list, and demos that run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

import variobern as vb
from variobern import algebra, checks, errors, kernels, kriging, models, points

REPO = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_package_all_is_the_union_of_the_submodule_lists():
    submodules = (algebra, checks, errors, kernels, kriging, models, points)
    union = {name for m in submodules for name in m.__all__}
    assert len(vb.__all__) == len(set(vb.__all__))
    assert set(vb.__all__) == union | {"__version__"}
    assert isinstance(vb.__version__, str)
    for m in submodules:
        for name in m.__all__:
            assert getattr(vb, name) is getattr(m, name), name


def test_spectral_internals_stay_out_of_the_export_list():
    for name in ("spectral_measure", "check_mu_integrability"):
        assert name not in algebra.__all__ and name not in vb.__all__
        assert not hasattr(algebra, name)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(REPO / "src")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
