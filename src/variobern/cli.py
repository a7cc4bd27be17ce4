"""Command-line front door.

Subcommands: catalog, validate, construct, grid, krige, simulate. Every
output embeds the effective configuration so a run can be reproduced from
its own artifact. A command returns (exit code, config, body), and ``main``
adds "command" and "out" to the config and writes the frame (``_emit``).
The parser is built from two tables: ``_COMMANDS`` gives each command its
runner, help and required and optional flags, and ``_FLAGS`` each flag its
``add_argument`` keywords.
Exit status: 0 success (validate: all checks pass), 1 a check failed,
2 inconclusive or error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import algebra as alg
from . import checks, kernels, kriging, models
from .atoms import CBF_TABLE, REGISTRY, _number, validate_params
from .errors import VarioBernError
from .points import PointSet, _expected_header, read_points_csv

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


def _emit(config: dict, body, out_path) -> None:
    """The output frame: JSON for a dict body, else text lines under the config."""
    if isinstance(body, dict):
        text = _json_text({"config": config, **body})
    else:
        text = "\n".join([f"# config: {json.dumps(config, sort_keys=True)}", *body, ""])
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# json's C encoder: it runs only without ``indent``
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _json_text(payload: dict) -> str:
    """The command's JSON document: byte for byte
    ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    ``indent`` forces json's pure-Python encoder: 20 ms for a dense krige
    job's 16 x 576 weights, against 14 ms here, nearly all of it the floats'
    repr. Dicts and nested lists are laid out here; a list of scalars
    (numbers, booleans, nulls) goes through the C encoder in one call and is
    split at its commas, which no scalar's text contains. Every other list
    and leaf is laid out item by item, so the bytes are json's at any depth.
    """
    out: list[str] = []
    _lay_out(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _lay_out(o, nl: str, out: list[str]) -> None:
    """Append the indented JSON text of o; nl is a newline and o's indent."""
    inner = nl + "  "
    if isinstance(o, dict) and o:
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                if not (k is None or isinstance(k, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {type(k).__name__}")
                k = _COMPACT.encode(k)
            out.append(sep + _COMPACT.encode(k) + ": ")
            _lay_out(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        if not isinstance(o[0], (dict, list, tuple, str)):
            text = _COMPACT.encode(o)
            if '"' not in text and "{" not in text and "[" not in text[1:]:
                out.append("[" + inner + text[1:-1].replace(",", "," + inner)
                           + nl + "]")
                return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _lay_out(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(_COMPACT.encode(o))


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


def cmd_catalog(args) -> tuple[int, dict, list[str]]:
    return EXIT_PASS, {}, catalog_text().splitlines()


# ----------------------------------------------------------------------
# validate

def _eventual_constancy(model, pts, tol: float, claimed: bool):
    r = models._finite_support(model, "eventual_constancy")
    gamma = models.variogram_from_covariance(model)
    # only squared_norm certificates are dimension-free; a spherical or
    # Wendland certificate is specific to its d and plateaus legitimately.
    # A certificate the input only claims is put to the same test.
    all_d = (model.certified or claimed) and model.mode == "squared_norm"
    return checks.eventual_constancy_check(
        gamma.norm_profile, inner=r, outer=3.0 * r, tol=tol,
        all_d_certified=all_d)


# check name -> runner(model, pts, tol, claimed), where pts is the --points
# set; each runner looks its oracle up in checks when it runs, so a wrapper
# set on the checks module later is the one called
_CHECKS = {
    "cnd": lambda m, pts, tol, _: checks.cnd_check(m, pts, tol),
    "pd": lambda m, pts, tol, _: checks.pd_check(m, pts, tol),
    "axioms": lambda m, pts, tol, _: checks.variogram_axioms(m, pts, tol),
    "sqrt_subadditivity": lambda m, pts, tol, _: checks.sqrt_subadditivity_check(
        m, pts, tol),
    "cm": lambda m, pts, tol, _: checks.cm_check(m.profile, np.logspace(-2, 2, 33), tol=tol),
    "bernstein": lambda m, pts, tol, _: checks.bernstein_check(
        m.profile, np.logspace(-2, 2, 33), tol=tol),
    "polya": lambda m, pts, tol, _: checks.polya_check(
        lambda t: m.norm_profile(np.abs(t)), np.linspace(0.05, 8.0, 64), tol=tol),
    # the shape theorem constrains the squared-radius profile
    "profile_shape": lambda m, pts, tol, _: checks.profile_shape_check(
        lambda x: m.norm_profile(np.sqrt(x)), np.linspace(0.0, 8.0, 65), tol=tol),
    "eventual_constancy": _eventual_constancy,
}
# the checks whose runner reads the --points sites
_SITE_CHECKS = frozenset({"cnd", "pd", "axioms", "sqrt_subadditivity"})


def _selected_checks(names: str | None, model, pts) -> list[str]:
    """The checks --checks names (without it, pd for a covariance and axioms
    otherwise), refused as a whole before any oracle runs if they are none,
    hold an unknown name, or hold a site check and there is no --points."""
    selected = ([c.strip() for c in names.split(",") if c.strip()] if names else
                ["pd" if isinstance(model, models.StationaryCovariance) else "axioms"])
    available = f"available: {', '.join(_CHECKS)}"
    if not selected:
        raise VarioBernError(f"--checks names no check; {available}")
    for name in selected:
        if name not in _CHECKS:
            raise VarioBernError(f"unknown check '{name}'; {available}")
        if name in _SITE_CHECKS and pts is None:
            raise VarioBernError(f"check '{name}' needs --points")
    return selected


def cmd_validate(args) -> tuple[int, dict, dict]:
    doc = _load_json_arg(args.model, "model")
    model = models.model_from_json(doc)
    claimed = doc.get("certified") is True
    pts = read_points_csv(args.points) if args.points else None
    selected = _selected_checks(args.checks, model, pts)
    config = {"model": models.model_to_json(model), "points": args.points,
              "checks": selected, "tol": args.tol}
    reports = [_CHECKS[name](model, pts, args.tol, claimed) for name in selected]
    verdict = checks.PermissibilityReport(
        tuple(rec for rep in reports for rec in rep.checks)).verdict
    code = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_ERROR}[verdict]
    return code, config, {"verdict": verdict,
                          "reports": [{"check": name, **rep.to_json()}
                                      for name, rep in zip(selected, reports)]}


# ----------------------------------------------------------------------
# construct

def _arg(d: dict, key: str, default, kind=float):
    return _number(d.get(key, default), f"recipe arg '{key}'", kind)


def _placement(d: dict) -> dict:
    """The dimension and anisotropy keywords every radial recipe takes."""
    return {"d": _arg(d, "d", 1, int), "A": d.get("A")}


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


_PLACED = ("d", "A")  # the keys _placement reads
# constructor name -> (its arg keys, builder from the recipe args); builders
# return a radial model, except the shift kernels, which return a payload dict
_RECIPES = {
    "ma_product": (("a1", "a2", *_PLACED), lambda a: models.ma_product(
        _arg(a, "a1", 1.0), _arg(a, "a2", 1.0), **_placement(a))),
    "schur_product_extended": (("g1", "g2", "alpha", "beta", *_PLACED),
                               lambda a: models.schur_product_extended(
        _expr_arg(a, "g1"), _expr_arg(a, "g2"),
        _arg(a, "alpha", 0.5), _arg(a, "beta", 0.5), **_placement(a))),
    "cbf_variograms": (("g", "which", *_PLACED), lambda a: models.cbf_variograms(
        _expr_arg(a, "g"), str(a.get("which", "ratio")), **_placement(a))),
    "composition_products": (("g1", "g2", "g3", "which", *_PLACED),
                             lambda a: models.composition_products(
        _expr_arg(a, "g1"), _expr_arg(a, "g2"),
        alg.expr_from_json(a["g3"]) if "g3" in a else None,
        which=str(a.get("which", "two_factor")), **_placement(a))),
    "difference_kernel": (("base", "eta"),
                          lambda a: _shift_kernel_recipe("difference_kernel", a)),
    "sum_kernel": (("base", "eta"), lambda a: _shift_kernel_recipe("sum_kernel", a)),
    "spectral_variogram": (("f",), lambda a: kernels.spectral_variogram(_expr_arg(a, "f"))),
    "wendland": (("r", "l", *_PLACED), lambda a: models.wendland(
        _arg(a, "r", 1.0), _arg(a, "l", 1, int), **_placement(a))),
    "spherical": (("range", *_PLACED),
                  lambda a: models.spherical(_arg(a, "range", 1.0), **_placement(a))),
}


def _build_recipe(recipe: dict):
    """The radial model, or a shift kernel's payload dict, the recipe builds;
    a key the recipe or its constructor's args do not take is refused."""
    if not isinstance(recipe, dict):
        raise VarioBernError(f"recipe JSON must be an object, got {recipe!r}")
    alg._known_keys(recipe, ("constructor", "args"), "recipe")
    ctor = recipe.get("constructor")
    args = recipe.get("args", {})
    if not isinstance(args, dict):
        raise VarioBernError("recipe 'args' must be an object")
    if not isinstance(ctor, str) or ctor not in _RECIPES:
        raise VarioBernError(
            f"unknown constructor {ctor!r}; available: {', '.join(_RECIPES)}")
    keys, build = _RECIPES[ctor]
    alg._known_keys(args, keys, f"constructor '{ctor}'")
    return build(args)


def cmd_construct(args) -> tuple[int, dict, dict]:
    recipe = _load_json_arg(args.model, "recipe")
    built = _build_recipe(recipe)
    kind, body = (("kernel", built) if isinstance(built, dict)
                  else ("model", models.model_to_json(built)))
    return EXIT_PASS, {"recipe": recipe}, {kind: body, "certified": body["certified"]}


# ----------------------------------------------------------------------
# grid

def cmd_grid(args) -> tuple[int, dict, list[str]]:
    model = _load_model(args.model)
    if not args.grid:
        raise VarioBernError("grid command needs --grid lo:hi:n[,lo:hi:n...]")
    coords = _parse_grid_spec(args.grid, model.d)
    values = np.asarray(model(coords), dtype=float)
    config = {"model": models.model_to_json(model), "grid": args.grid}
    lines = [",".join(_expected_header(model.d, True))]
    for row, v in zip(coords, values):
        lines.append(",".join(_fmt(c) for c in row) + "," + _fmt(v))
    return EXIT_PASS, config, lines


# ----------------------------------------------------------------------
# krige / simulate

def cmd_krige(args) -> tuple[int, dict, dict]:
    model = _load_model(args.model)
    if not args.grid:
        raise VarioBernError(
            "krige command needs --grid lo:hi:n[,...] for the target sites")
    pts = read_points_csv(args.points)
    targets = _parse_grid_spec(args.grid, model.d)
    config = {"model": models.model_to_json(model), "points": args.points,
              "grid": args.grid, "mode": args.mode}
    results = kriging.krige_many(model, pts, targets, mode=args.mode)
    preds = [{"target": t.tolist(), **res.to_json(), "variance": res.variance,
              "residual": res.residual} for t, res in zip(targets, results)]
    return EXIT_PASS, config, {"predictions": preds}


def cmd_simulate(args) -> tuple[int, dict, list[str]]:
    model = _load_model(args.model)
    pts = read_points_csv(args.points)
    sites = PointSet(pts.coords)  # values, if present, are ignored
    spec = kriging.SimulationSpec(model=model, sites=sites, seed=args.seed,
                                  n_replicates=args.replicates)
    bins = _number(args.grid, "simulate --grid bin count", int) if args.grid else 10
    if bins < 1:
        raise VarioBernError(f"simulate --grid needs a bin count >= 1, got {bins}")
    reps, info = kriging.simulate_field(spec, tol=args.tol)
    rows = kriging.empirical_variogram(reps, sites, bins)
    config = {"model": models.model_to_json(model),
              "points": args.points, "seed": args.seed,
              "replicates": args.replicates, "bins": bins, "tol": args.tol,
              "diag_shift": info["diag_shift"],
              "min_eigenvalue": info["min_eigenvalue"],
              # JSON has no infinity: a singular shifted Gram matrix is null
              "cond": info["cond"] if math.isfinite(info["cond"]) else None}
    lines = ["lag_lo,lag_hi,count,gamma_hat"]
    for lo, hi, count, gh in rows:
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{int(count)},{_fmt(gh)}")  # empty bin: nan
    return EXIT_PASS, config, lines


# ----------------------------------------------------------------------
# parser / entry

# flag -> its add_argument keywords
_FLAGS = {
    "--model": {"help": "model/recipe JSON, inline or a file path"},
    "--points": {"help": "sites CSV (header x1,...,xd[,value])"},
    "--tol": {"type": float, "default": 1e-8, "help": "relative tolerance (default 1e-8)"},
    "--seed": {"type": int, "default": 0, "help": "master seed"},
    "--out": {"help": "output path (default stdout)"},
    "--grid": {"help": "grid, krige: axis spec lo:hi:n[,lo:hi:n...]; "
                       "simulate: number of lag bins (default 10)"},
    "--mode": {"choices": ("dense", "sparse"), "default": "dense",
               "help": "system assembly mode"},
    "--checks": {"help": "comma-separated subset of: " + ", ".join(_CHECKS)},
    "--replicates": {"type": int, "default": 200, "help": "number of replicates (default 200)"},
}

# command -> (runner, help, required flags, optional flags)
_COMMANDS = {
    "catalog": (cmd_catalog, "list atoms and table profiles", (), ("--out",)),
    "validate": (cmd_validate, "run permissibility checks", ("--model",),
                 ("--points", "--tol", "--out", "--checks")),
    "construct": (cmd_construct, "materialize a constructor recipe", ("--model",), ("--out",)),
    "grid": (cmd_grid, "tabulate model values on a grid", ("--model",), ("--out", "--grid")),
    "krige": (cmd_krige, "ordinary kriging at grid targets", ("--model", "--points"),
              ("--out", "--grid", "--mode")),
    "simulate": (cmd_simulate, "simulate replicates, emit empirical variogram",
                 ("--model", "--points"), ("--tol", "--seed", "--out", "--grid", "--replicates")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="variobern", allow_abbrev=False,
        description="Variogram and covariance construction, validation, "
                    "kriging and simulation.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help, required, optional) in _COMMANDS.items():
        # no flag abbreviations: _join_negative_grid knows only '--grid'
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        for flag in required + optional:
            sp.add_argument(flag, required=flag in required, **_FLAGS[flag])
    return p


def _join_negative_grid(argv: list[str]) -> list[str]:
    """'--grid V' as '--grid=V' when V starts with '-' and a digit or '.',
    a range with a negative lower bound that argparse would take for a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--grid" and re.match(r"-[0-9.]", tok):
            out[-1] = f"--grid={tok}"
        else:
            out.append(tok)
    return out


# argparse keeps no state between parse_args calls, so in-process callers of
# main (tests, library users, replays) share one parser, built on first use
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(_join_negative_grid(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        code, config, body = args.func(args)
        _emit({**config, "command": args.command, "out": args.out}, body, args.out)
        return code
    except (VarioBernError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())
