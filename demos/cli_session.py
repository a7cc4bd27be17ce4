"""A scripted session with the command-line interface.

Runs constructions, validation, kriging and simulation through the
`variobern` entry point, showing the JSON/CSV surfaces and the exit-code
contract (0 = pass, 1 = a check failed, 2 = usage or input error). Work
files go into a temporary directory.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

CLI = [sys.executable, "-c", "from variobern.cli import entry; entry()"]


def run(*args):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    print(f"$ variobern {' '.join(args)}")
    print(f"  exit {proc.returncode}")
    return proc


tmp = pathlib.Path(tempfile.mkdtemp(prefix="variobern_demo_"))
sites_path = tmp / "sites.csv"
sites_path.write_text("x1,value\n0.0,1.0\n1.0,2.0\n2.5,0.5\n4.0,1.5\n")

print("construct a certified product variogram from a recipe")
recipe = {"constructor": "ma_product", "args": {"a1": 1.0, "a2": 0.5, "d": 1}}
built_path = tmp / "built.json"
run("construct", "--model", json.dumps(recipe), "--out", str(built_path))
payload = json.loads(built_path.read_text())
print(f"  certified: {payload['certified']}   "
      f"mode: {payload['model']['mode']}")
print(f"  certificate: {payload['model']['certificate']}")
model_path = tmp / "model.json"
model_path.write_text(json.dumps(payload["model"]))

print()
print("validate it on observed sites")
proc = run("validate", "--model", str(model_path), "--checks", "cnd,axioms",
           "--points", str(sites_path))
for report in json.loads(proc.stdout)["reports"]:
    print(f"  {report['check']:8s} {report['verdict']}")

print()
print("a model that is not a variogram exits 1 and carries a witness")
cubic = {"type": "variogram", "mode": "squared_norm", "d": 1,
         "profile": {"op": "power", "alpha": 1.5,
                     "args": [{"atom": "power", "params": {"a": 1.0}}]}}
proc = run("validate", "--model", json.dumps(cubic), "--checks", "cnd",
           "--points", str(sites_path))
report = json.loads(proc.stdout)["reports"][0]
wit = report["checks"][0]["witness"]
print(f"  verdict {report['verdict']}; the witness contrast has "
      f"quadratic form {wit['quadratic_form']:.4f} > 0")

print()
print("tabulate values on a grid (first rows of the CSV)")
grid_path = tmp / "grid.csv"
run("grid", "--model", str(model_path), "--grid", "0:3:7",
    "--out", str(grid_path))
for line in grid_path.read_text().splitlines()[1:5]:
    print(f"  {line}")

print()
print("krige at two targets")
proc = run("krige", "--model", str(model_path), "--points", str(sites_path),
           "--grid", "1.7:3.2:2")
for pred in json.loads(proc.stdout)["predictions"]:
    print(f"  target {pred['target'][0]:.1f}  "
          f"prediction {pred['prediction']:.6f}  "
          f"weight sum {sum(pred['weights']):.10f}")

print()
print("simulate replicates and bin the empirical variogram")
exp_cov = {"constructor": "wendland", "args": {"r": 3.0, "l": 1, "d": 1}}
run("construct", "--model", json.dumps(exp_cov), "--out", str(built_path))
cov_path = tmp / "cov.json"
cov_path.write_text(json.dumps(json.loads(built_path.read_text())["model"]))
sim_path = tmp / "empirical.csv"
run("simulate", "--model", str(cov_path), "--points", str(sites_path),
    "--seed", "11", "--replicates", "2000", "--grid", "4",
    "--out", str(sim_path))
for line in sim_path.read_text().splitlines()[1:]:
    print(f"  {line}")

print()
print(f"work files kept under {tmp}")
