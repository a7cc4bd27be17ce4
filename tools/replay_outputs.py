"""Replay the CLI jobs of the benchmark, and a few more, through one checkout
and keep every output.

    python3 tools/replay_outputs.py --src CHECKOUT/src --out DIR

``variobern`` is imported from ``--src``; the workload inputs come from
``perfbench/inputs.py`` beside this script, which is read and not changed.
Each workload's inputs are written into one fixed work directory under the
system temporary directory, so the ``--points`` and ``--out`` paths that the
outputs echo are the same for every checkout. The inputs are those of seed
SEED, and every job of rounds 0 .. ROUNDS-1 runs through
``variobern.cli.main`` in this process, as the benchmark runs it, and lands in ``DIR/<workload>/round<r>/`` as
``<job id>.json`` or ``<job id>.csv`` (its output file, if it wrote one),
``<job id>.exit`` (the exit code) and ``<job id>.stderr``. The commands no
benchmark job runs (catalog, grid, construct with a model and with a kernel
recipe, and the two refusals of a model without compact support:
eventual_constancy and a sparse krige on a variogram), two dense krige jobs
(the Wendland covariance, which the benchmark krige-solves only sparsely,
and the power(a=1) variogram |xi|^2, whose kriging system is singular on
more than d + 2 sites), six d = 1 grids that hold 0 and points on both
sides of an atom's switch between two formulas (Matern of orders 1, 1.2, 2
and 60.3 across its small-z series, log_over_gap across its series and
gamma_tail across its asymptotic series) and four malformed commands
(krige without --points, construct with a misspelt recipe arg and with a
misspelt top-level recipe key, and validate with a --checks that names no
check) run once on the fixed inputs of ``EXTRA`` and land the same way in
``DIR/extra/``. So do eight dense krige jobs on site files that the site
reader reads off its common path or refuses: quoted numbers, blank rows of
whitespace or commas, ``3_0``, CRLF endings, a header without rows, a
ragged row, an ``inf`` cell and a ``-0.0`` duplicate of ``0.0``. So do the
model-JSON cases: a validate of a spectral variogram on a free-standing Lévy
triple (``{"op": "spectral", "rule": "levy", ...}``) on d = 1 sites, a grid
of a spectral variogram whose log1p atom carries the removed per-node
``"levy"`` key, and grids of a spherical covariance with ``support_radius``,
``A`` or ``type`` misspelt. Replaying two
checkouts into two directories and running ``diff -r`` on them shows every
byte a change moved. Because the work directory is shared, replays run one
after the other: a replay holds a lock on it and refuses to start while
another holds it.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")
WORK = os.path.join(tempfile.gettempdir(), "variobern-replay")
SEED = 7
ROUNDS = 2


def _load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(PERFBENCH, "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str]) -> tuple[str, str]:
    """(exit code, stderr) of one cli.main call; a crash is kept as text."""
    from variobern import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:  # an argparse usage error
            code = str(exc.code)
        except Exception:
            code = "raised"
            err.write(traceback.format_exc(limit=0))
    return code, err.getvalue()


def _keep(argv: list[str], out_file: str, stem: str) -> None:
    """Run one job and keep its output file, exit code and stderr at stem."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_file)
    code, err = _run(argv)
    if os.path.exists(out_file):
        shutil.copyfile(out_file, stem + os.path.splitext(out_file)[1])
    with open(stem + ".exit", "w", encoding="utf-8") as fh:
        fh.write(code + "\n")
    with open(stem + ".stderr", "w", encoding="utf-8") as fh:
        fh.write(err)


# the extra jobs' inputs: a spherical variogram in d = 2, which both
# compact-support rules refuse since it is not a covariance, the two dense
# krige models, and site CSVs: three sites, a 4 x 4 lattice and the reader
# cases
SPHERICAL = json.dumps({"type": "variogram", "mode": "norm", "d": 2,
                        "profile": {"atom": "spherical_profile",
                                    "params": {"range": 1.5}}})
WENDLAND = json.dumps({"type": "covariance", "mode": "norm", "d": 2,
                       "profile": {"atom": "wendland_profile",
                                   "params": {"r": 1.5, "l": 2}}})
SQUARED_NORM = json.dumps({"type": "variogram", "mode": "squared_norm", "d": 2,
                           "profile": {"atom": "power", "params": {"a": 1.0}}})
# frac_linear(1)'s Levy density, as a spectral variogram's free-standing
# carrier with drift 0.5, and as the removed "levy" key on a log1p atom
FRAC_DENSITY = {"op": "product", "args": [{"atom": "const", "params": {"c": 1.0}},
                                          {"atom": "exp_decay", "params": {"a": 1.0}}]}
SPECTRAL_TRIPLE = json.dumps({"type": "variogram", "mode": "norm", "d": 1, "profile": {
    "op": "spectral", "rule": "levy", "drift": 0.5, "args": [FRAC_DENSITY]}})
LEVY_KEY = json.dumps({"type": "variogram", "mode": "norm", "d": 1, "profile": {
    "op": "spectral", "args": [{"atom": "log1p", "params": {},
                                "levy": {"density": FRAC_DENSITY}}]}})
# the anisotropic spherical covariance with one key misspelt each
SPHERICAL_COV = {"type": "covariance", "mode": "norm", "d": 2, "A": [[2.0, 0.0], [0.0, 1.0]],
                 "support_radius": 1.5, "profile": {
                     "op": "affine", "scale": -1.0, "shift": 1.0,
                     "args": [{"atom": "spherical_profile", "params": {"range": 1.5}}]}}
TYPOS = {typo: json.dumps({typo if k == key else k: v for k, v in SPHERICAL_COV.items()})
         for key, typo in (("support_radius", "suport_radius"), ("A", "a"), ("type", "tpye"))}


def _line(atom: str, params: dict, mode: str) -> str:
    """A d = 1 variogram of one atom, whose grid lags reach it unscaled."""
    return json.dumps({"type": "variogram", "mode": mode, "d": 1,
                       "profile": {"atom": atom, "params": params}})


# lag grids across each switch: Matern's series below z = alpha |h| = 1e-4,
# log_over_gap's below x/a = h^2 = 1e-4, gamma_tail's asymptotic series from
# a x = |h| = 50
SWITCH_GRIDS = {
    **{f"grid_matern_{nu}": (_line("matern", {"alpha": 1.0, "nu": nu},
                                   "squared_norm"), "0:2e-4:9")
       for nu in (1.0, 1.2, 2.0, 60.3)},
    "grid_log_over_gap": (_line("log_over_gap", {"a": 1.0}, "squared_norm"),
                          "0:0.02:9"),
    "grid_gamma_tail": (_line("gamma_tail", {"a": 1.0, "nu": 0.5}, "norm"),
                        "0:100:21"),
}
# site files off the reader's common path, read or refused
READER_CASES = {
    "QUOTED": 'x1,x2,value\n"0.0",0.0,1.0\n1.0,"0.0",2.0\n0.0,1.0," 0.5"\n',
    "BLANK_ROWS": "x1,x2,value\n0.0,0.0,1.0\n   \n1.0,0.0,2.0\n,,\n , \n0.0,1.0,0.5\n",
    "UNDERSCORE": "x1,x2,value\n0.0,0.0,1.0\n1.0,0.0,2.0\n0.0,1.0,3_0\n",
    "CRLF": "x1,x2,value\r\n0.0,0.0,1.0\r\n1.0,0.0,2.0\r\n0.0,1.0,0.5\r\n",
    "HEADER_ONLY": "x1,x2,value\n",
    "RAGGED": "x1,x2,value\n0.0,0.0,1.0\n1.0,0.0\n0.0,1.0,0.5\n",
    "INF_CELL": "x1,x2,value\n0.0,0.0,1.0\n1.0,inf,2.0\n0.0,1.0,0.5\n",
    "NEGATIVE_ZERO": "x1,x2,value\n0.0,0.0,1.0\n1.0,0.0,2.0\n-0.0,0.0,0.5\n",
}
SITE_SETS = {
    "SITES": "x1,x2,value\n0.0,0.0,1.0\n1.0,0.0,2.0\n0.0,1.0,0.5\n",
    "LATTICE": "x1,x2,value\n" + "".join(
        f"{0.5 * i},{0.5 * j},{(i * j) % 3 + 0.25 * i}\n"
        for i in range(4) for j in range(4)),
    "LINE": "x1\n" + "".join(f"{0.37 * i * i}\n" for i in range(9)),
    **READER_CASES,
}
# job id -> (output suffix, argv without --out; a SITE_SETS key is its CSV path)
EXTRA = {
    "catalog": (".txt", ["catalog"]),
    "grid": (".csv", ["grid", "--model", SPHERICAL, "--grid", "-1:2:4,0:1:3"]),
    "construct_model": (".json", ["construct", "--model", json.dumps(
        {"constructor": "wendland", "args": {"r": 2.5, "l": 2, "d": 2}})]),
    "construct_kernel": (".json", ["construct", "--model", json.dumps(
        {"constructor": "difference_kernel",
         "args": {"base": json.loads(SPHERICAL), "eta": [0.5, 0.25]}})]),
    "eventual_constancy_variogram": (".json", [
        "validate", "--model", SPHERICAL, "--checks", "eventual_constancy"]),
    "krige_sparse_variogram": (".json", [
        "krige", "--model", SPHERICAL, "--points", "SITES",
        "--grid", "0:1:2,0:1:2", "--mode", "sparse"]),
    "krige_dense_wendland": (".json", [
        "krige", "--model", WENDLAND, "--points", "LATTICE",
        "--grid", "0.1:1.4:3,0.2:1.3:3"]),
    "krige_dense_squared_norm": (".json", [
        "krige", "--model", SQUARED_NORM, "--points", "LATTICE",
        "--grid", "0.1:1.4:3,0.2:1.3:3"]),
    "krige_without_points": (".json", [
        "krige", "--model", SPHERICAL, "--grid", "0:1:2,0:1:2"]),
    "construct_misspelt_arg": (".json", ["construct", "--model", json.dumps(
        {"constructor": "spherical", "args": {"rnage": 2.0, "d": 2}})]),
    "construct_misspelt_key": (".json", ["construct", "--model", json.dumps(
        {"constructor": "spherical", "arg": {"range": 2.0, "d": 2}})]),
    "validate_no_checks": (".json", ["validate", "--model", SPHERICAL,
                                     "--checks", ","]),
    **{job: (".csv", ["grid", "--model", model, "--grid", grid])
       for job, (model, grid) in SWITCH_GRIDS.items()},
    **{f"krige_{sites.lower()}": (".json", [
        "krige", "--model", SPHERICAL, "--points", sites, "--grid", "0:1:2,0:1:2"])
       for sites in READER_CASES},
    "validate_spectral_triple": (".json", ["validate", "--model", SPECTRAL_TRIPLE,
                                           "--points", "LINE"]),
    "grid_levy_key": (".csv", ["grid", "--model", LEVY_KEY, "--grid", "0:4:5"]),
    **{f"grid_typo_{typo}": (".csv", ["grid", "--model", model, "--grid", "0:2:3,0:1:2"])
       for typo, model in TYPOS.items()},
}


def replay_extra(out: str) -> int:
    """Run the EXTRA jobs into out/extra; returns the number of jobs run."""
    base = os.path.join(WORK, "extra")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    paths = {}
    for name, text in SITE_SETS.items():
        paths[name] = os.path.join(base, name.lower() + ".csv")
        with open(paths[name], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    dest = os.path.join(out, "extra")
    os.makedirs(dest, exist_ok=True)
    for job, (suffix, argv) in EXTRA.items():
        out_file = os.path.join(base, job + suffix)
        argv = [paths.get(a, a) for a in argv] + ["--out", out_file]
        _keep(argv, out_file, os.path.join(dest, job))
    return len(EXTRA)


def replay(inputs, out: str) -> int:
    """Run every job of every workload; returns the number of jobs run."""
    n = 0
    for workload in inputs.WORKLOADS:
        base = os.path.join(WORK, workload)
        shutil.rmtree(base, ignore_errors=True)
        manifest = inputs.write_fixed(workload, SEED, base)
        for r in range(ROUNDS):
            dest = os.path.join(out, workload, f"round{r}")
            os.makedirs(dest, exist_ok=True)
            for job in inputs.round_jobs(manifest, base, r):
                _keep(job["argv"], job["out"], os.path.join(dest, job["id"]))
                n += 1
    return n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True,
                   help="the checkout's src directory, which holds variobern")
    p.add_argument("--out", required=True, help="directory for the outputs")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    # argparse wraps a usage error at the terminal's width; one fixed width
    # keeps the stderr of two replays comparable wherever they run
    os.environ["COLUMNS"] = "80"
    import variobern

    if os.path.dirname(os.path.dirname(os.path.abspath(variobern.__file__))) != src:
        raise SystemExit(f"variobern was imported from {variobern.__file__}, not {src}")
    # a concurrent replay would overwrite this one's inputs and outputs in WORK
    with open(WORK + ".lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit(f"another replay is using {WORK}; "
                             "run replays one after the other") from None
        t0 = time.perf_counter()
        n = replay(_load_inputs(), args.out)
        n_extra = replay_extra(args.out)
    print(f"{n} benchmark jobs and {n_extra} extra jobs in "
          f"{time.perf_counter() - t0:.1f} s from {src} -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
