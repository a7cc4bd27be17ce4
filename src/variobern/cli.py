"""Command-line front door.

Subcommands: catalog, validate, construct, grid, krige, simulate. Every
output embeds the effective configuration so a run can be reproduced from
its own artifact. Exit status: 0 success (validate: all checks pass),
1 a check failed, 2 inconclusive or error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import algebra as alg
from . import checks, kernels, kriging, models
from .atoms import CBF_TABLE, REGISTRY, _number, validate_params
from .errors import VarioBernError
from .points import PointSet, read_points_csv

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


# ----------------------------------------------------------------------
# shared plumbing

def _load_json_arg(text: str, what: str) -> dict:
    """Accept inline JSON (starts with '{') or a path to a JSON file."""
    s = text.strip()
    if not s.startswith("{"):
        try:
            with open(s, "r", encoding="utf-8") as fh:
                s = fh.read()
        except OSError as exc:
            raise VarioBernError(f"cannot read {what} file {text!r}: {exc}")
    try:
        return json.loads(s)
    except json.JSONDecodeError as exc:
        raise VarioBernError(f"malformed {what} JSON: {exc}")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_grid_spec(spec: str, d: int) -> np.ndarray:
    """'lo:hi:n[,lo:hi:n...]' -> (N, d) row-major grid coordinates."""
    parts = spec.split(",")
    if len(parts) != d:
        raise VarioBernError(
            f"grid spec has {len(parts)} axis range(s) but the model is "
            f"{d}-dimensional; expected {d} comma-separated lo:hi:n ranges"
        )
    axes = []
    for part in parts:
        bits = part.split(":")
        if len(bits) != 3:
            raise VarioBernError(f"bad grid range {part!r}: expected lo:hi:n")
        try:
            lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise VarioBernError(f"bad grid range {part!r}: {exc}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise VarioBernError(f"bad grid range {part!r}: lo and hi must be finite")
        if n < 1:
            raise VarioBernError(f"bad grid range {part!r}: need n >= 1")
        axes.append(np.linspace(lo, hi, n))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _load_model(text: str):
    return models.model_from_json(_load_json_arg(text, "model"))


def _fmt(v: float) -> str:
    return repr(float(v))


# ----------------------------------------------------------------------
# catalog

def _sample_params(spec) -> dict:
    out = {}
    for p in spec.params:
        if p.integer:
            v = p.low if not p.low_open else p.low + 1
            v = max(v, 1.0)
        elif math.isfinite(p.high):
            v = p.high if not p.high_open else 0.5 * (max(p.low, 0.0) + p.high)
        else:
            v = max(p.low, 0.0) + 1.0
        out[p.name] = float(v)
    return out


def catalog_text() -> str:
    lines = ["# variobern atom catalog", ""]
    for name, spec in REGISTRY.items():
        params = _sample_params(spec)
        tags = sorted(alg.infer_class(alg.catalog(name, params)))
        ranges = "; ".join(p.describe() for p in spec.params) or "none"
        lines.append(f"{name}  [{spec.group}]")
        lines.append(f"    formula: {spec.formula}")
        lines.append(f"    params:  {ranges}")
        shown = "" if not spec.params else f" at {json.dumps(params, sort_keys=True)}"
        lines.append(f"    class:   {', '.join(tags) or 'none'}{shown}")
        lines.append(f"    family:  {spec.provenance}")
        lines.append("")
    lines.append("# complete Bernstein table profiles (pinned parameters)")
    lines.append("")
    for name, params in CBF_TABLE:
        shown = json.dumps(params, sort_keys=True)
        lines.append(f"{name}  params={shown}")
    lines.append("")
    return "\n".join(lines)


def cmd_catalog(args) -> int:
    config = {"command": "catalog", "out": args.out}
    text = f"# config: {json.dumps(config, sort_keys=True)}\n" + catalog_text()
    _emit(text, args.out)
    return EXIT_PASS


# ----------------------------------------------------------------------
# validate

_POINT_CHECKS = ("cnd", "pd", "axioms", "sqrt_subadditivity")
_PROFILE_CHECKS = ("cm", "bernstein", "polya", "profile_shape",
                   "eventual_constancy")
CHECK_NAMES = _POINT_CHECKS + _PROFILE_CHECKS


def _run_check(name: str, model, pts, tol: float, claimed: bool):
    if name in _POINT_CHECKS and pts is None:
        raise VarioBernError(f"check '{name}' needs --points")
    if name == "cnd":
        return checks.cnd_check(model, pts, tol)
    if name == "pd":
        return checks.pd_check(model, pts, tol)
    if name == "axioms":
        return checks.variogram_axioms(model, pts, tol)
    if name == "sqrt_subadditivity":
        return checks.sqrt_subadditivity_check(model, pts, tol)

    if name in ("cm", "bernstein"):
        grid = np.logspace(-2, 2, 33)
        f = lambda x: alg.evaluate(model.profile, x)
        if name == "cm":
            return checks.cm_check(f, grid, tol=tol)
        return checks.bernstein_check(f, grid, tol=tol)
    if name == "polya":
        grid = np.linspace(0.05, 8.0, 64)
        phi = lambda t: model.norm_profile(np.abs(t))
        return checks.polya_check(phi, grid, tol=tol)
    if name == "profile_shape":
        # the shape theorem constrains the squared-radius profile
        grid = np.linspace(0.0, 8.0, 65)
        f = lambda x: model.norm_profile(np.sqrt(x))
        return checks.profile_shape_check(f, grid, tol=tol)
    if name == "eventual_constancy":
        if not isinstance(model, models.StationaryCovariance) or \
                not math.isfinite(model.support_radius):
            raise VarioBernError(
                "eventual_constancy needs a covariance model with a finite "
                "support radius"
            )
        gamma = models.variogram_from_covariance(model)
        r = model.support_radius
        # only squared_norm certificates are dimension-free; a spherical or
        # Wendland certificate is specific to its d and plateaus legitimately.
        # A certificate the input only claims is put to the same test.
        all_d = (model.certified or claimed) and model.mode == "squared_norm"
        return checks.eventual_constancy_check(
            gamma.norm_profile, inner=r, outer=3.0 * r, tol=tol,
            all_d_certified=all_d)
    raise VarioBernError(
        f"unknown check '{name}'; available: {', '.join(CHECK_NAMES)}")


def cmd_validate(args) -> int:
    doc = _load_json_arg(args.model, "model")
    model = models.model_from_json(doc)
    claimed = doc.get("certified") is True
    pts = read_points_csv(args.points) if args.points else None
    if args.checks:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
    elif isinstance(model, models.StationaryCovariance):
        selected = ["pd"]
    else:
        selected = ["axioms"]
    config = {
        "command": "validate", "model": models.model_to_json(model),
        "points": args.points, "checks": selected, "tol": args.tol,
        "out": args.out,
    }
    reports = [_run_check(name, model, pts, args.tol, claimed) for name in selected]
    verdict = checks.PermissibilityReport(
        tuple(rec for rep in reports for rec in rep.checks)).verdict
    payload = {"config": config, "verdict": verdict,
               "reports": [{"check": name, **rep.to_json()}
                           for name, rep in zip(selected, reports)]}
    _emit(_json_text(payload), args.out)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_ERROR}[verdict]


# ----------------------------------------------------------------------
# construct

def _arg(d: dict, key: str, default, kind=float):
    return _number(d.get(key, default), f"recipe arg '{key}'", kind)


def _expr_arg(d, key: str) -> alg.FunctionExpr:
    if key not in d:
        raise VarioBernError(f"recipe args are missing '{key}'")
    return alg.expr_from_json(d[key])


def _shift_kernel_recipe(ctor: str, args: dict) -> dict:
    if "base" not in args or "eta" not in args:
        raise VarioBernError(f"{ctor} recipe needs 'base' and 'eta'")
    base = models.model_from_json(args["base"])
    eta = _number(args["eta"], "recipe arg 'eta'",
                  lambda v: np.asarray(v, dtype=float).reshape(base.d))
    # construct to surface any gate errors, then describe
    getattr(kernels, ctor)(base, eta)
    return {
        "kind": ctor,
        "base": models.model_to_json(base),
        "eta": eta.tolist(),
        # the shift theorems cover variogram bases only
        "certified": isinstance(base, models.Variogram) and base.certified,
    }


# constructor name -> builder from the recipe args; builders return a
# radial model, except the shift kernels, which return a payload dict
_RECIPES = {
    "ma_product": lambda a: models.ma_product(
        _arg(a, "a1", 1.0), _arg(a, "a2", 1.0),
        d=_arg(a, "d", 1, int), A=a.get("A")),
    "schur_product_extended": lambda a: models.schur_product_extended(
        _expr_arg(a, "g1"), _expr_arg(a, "g2"),
        _arg(a, "alpha", 0.5), _arg(a, "beta", 0.5),
        d=_arg(a, "d", 1, int), A=a.get("A")),
    "cbf_variograms": lambda a: models.cbf_variograms(
        _expr_arg(a, "g"), str(a.get("which", "ratio")),
        d=_arg(a, "d", 1, int), A=a.get("A")),
    "composition_products": lambda a: models.composition_products(
        _expr_arg(a, "g1"), _expr_arg(a, "g2"),
        alg.expr_from_json(a["g3"]) if "g3" in a else None,
        which=str(a.get("which", "two_factor")),
        d=_arg(a, "d", 1, int), A=a.get("A")),
    "difference_kernel": lambda a: _shift_kernel_recipe("difference_kernel", a),
    "sum_kernel": lambda a: _shift_kernel_recipe("sum_kernel", a),
    "spectral_variogram": lambda a: kernels.spectral_variogram(_expr_arg(a, "f")),
    "wendland": lambda a: models.wendland(
        _arg(a, "r", 1.0), _arg(a, "l", 1, int), _arg(a, "d", 1, int),
        A=a.get("A")),
    "spherical": lambda a: models.spherical(
        _arg(a, "range", 1.0), _arg(a, "d", 1, int), A=a.get("A")),
}


def _build_recipe(recipe: dict):
    """Return ('model', radial model) or ('kernel', payload dict)."""
    ctor = recipe.get("constructor")
    args = recipe.get("args", {})
    if not isinstance(args, dict):
        raise VarioBernError("recipe 'args' must be an object")
    build = _RECIPES.get(ctor) if isinstance(ctor, str) else None
    if build is None:
        raise VarioBernError(
            f"unknown constructor {ctor!r}; available: {', '.join(_RECIPES)}")
    built = build(args)
    return ("kernel" if isinstance(built, dict) else "model"), built


def cmd_construct(args) -> int:
    recipe = _load_json_arg(args.model, "recipe")
    config = {"command": "construct", "recipe": recipe, "out": args.out}
    kind, built = _build_recipe(recipe)
    if kind == "model":
        payload = {"config": config, "model": models.model_to_json(built),
                   "certified": built.certified}
    else:
        payload = {"config": config, "kernel": built,
                   "certified": built["certified"]}
    _emit(_json_text(payload), args.out)
    return EXIT_PASS


# ----------------------------------------------------------------------
# grid

def cmd_grid(args) -> int:
    model = _load_model(args.model)
    if not args.grid:
        raise VarioBernError("grid command needs --grid lo:hi:n[,lo:hi:n...]")
    coords = _parse_grid_spec(args.grid, model.d)
    values = np.asarray(model(coords), dtype=float)
    config = {"command": "grid", "model": models.model_to_json(model),
              "grid": args.grid, "out": args.out}
    header = ",".join(f"x{i + 1}" for i in range(model.d)) + ",value"
    lines = [f"# config: {json.dumps(config, sort_keys=True)}", header]
    for row, v in zip(coords, values):
        lines.append(",".join(_fmt(c) for c in row) + "," + _fmt(v))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


# ----------------------------------------------------------------------
# krige / simulate

def cmd_krige(args) -> int:
    model = _load_model(args.model)
    if not args.points:
        raise VarioBernError("krige command needs --points with a value column")
    if not args.grid:
        raise VarioBernError(
            "krige command needs --grid lo:hi:n[,...] for the target sites")
    pts = read_points_csv(args.points)
    targets = _parse_grid_spec(args.grid, model.d)
    config = {"command": "krige", "model": models.model_to_json(model),
              "points": args.points, "grid": args.grid, "mode": args.mode,
              "out": args.out}
    results = kriging.krige_many(model, pts, targets, mode=args.mode)
    preds = [{"target": t.tolist(), **res.to_json(), "variance": res.variance,
              "residual": res.residual} for t, res in zip(targets, results)]
    payload = {"config": config, "predictions": preds}
    _emit(_json_text(payload), args.out)
    return EXIT_PASS


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    if not args.points:
        raise VarioBernError("simulate command needs --points for the sites")
    pts = read_points_csv(args.points)
    sites = PointSet(pts.coords)  # values, if present, are ignored
    spec = kriging.SimulationSpec(model=model, sites=sites, seed=args.seed,
                                  n_replicates=args.replicates)
    bins = _number(args.grid, "simulate --grid bin count", int) if args.grid else 10
    if bins < 1:
        raise VarioBernError(f"simulate --grid needs a bin count >= 1, got {bins}")
    reps, info = kriging.simulate_field(spec, tol=args.tol)
    rows = kriging.empirical_variogram(reps, sites, bins)
    config = {"command": "simulate", "model": models.model_to_json(model),
              "points": args.points, "seed": args.seed,
              "replicates": args.replicates, "bins": bins, "tol": args.tol,
              "diag_shift": info["diag_shift"],
              "min_eigenvalue": info["min_eigenvalue"],
              # JSON has no infinity: a singular shifted Gram matrix is null
              "cond": info["cond"] if math.isfinite(info["cond"]) else None,
              "out": args.out}
    lines = [f"# config: {json.dumps(config, sort_keys=True)}",
             "lag_lo,lag_hi,count,gamma_hat"]
    for lo, hi, count, gh in rows:
        gtxt = "nan" if math.isnan(gh) else _fmt(gh)
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{int(count)},{gtxt}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


# ----------------------------------------------------------------------
# parser / entry

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="variobern",
        description="Variogram and covariance construction, validation, "
                    "kriging and simulation.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=False, points=False, grid=False, mode=False,
               tol=False, seed=False):
        if model:
            sp.add_argument("--model", required=True,
                            help="model/recipe JSON, inline or a file path")
        if points:
            sp.add_argument("--points", help="sites CSV (header x1,...,xd[,value])")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-8,
                            help="relative tolerance (default 1e-8)")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument("--out", help="output path (default stdout)")
        if grid:
            sp.add_argument("--grid", help="axis spec lo:hi:n[,lo:hi:n...]")
        if mode:
            sp.add_argument("--mode", choices=("dense", "sparse"),
                            default="dense", help="system assembly mode")

    sp = sub.add_parser("catalog", help="list atoms and table profiles")
    common(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("validate", help="run permissibility checks")
    common(sp, model=True, points=True, tol=True)
    sp.add_argument("--checks",
                    help="comma-separated subset of: " + ", ".join(CHECK_NAMES))
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("construct", help="materialize a constructor recipe")
    common(sp, model=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("grid", help="tabulate model values on a grid")
    common(sp, model=True, grid=True)
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("krige", help="ordinary kriging at grid targets")
    common(sp, model=True, points=True, grid=True, mode=True)
    sp.set_defaults(func=cmd_krige)

    sp = sub.add_parser("simulate",
                        help="simulate replicates, emit empirical variogram")
    common(sp, model=True, points=True, grid=True, tol=True, seed=True)
    sp.add_argument("--replicates", type=int, default=200,
                    help="number of replicates (default 200)")
    sp.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VarioBernError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())
