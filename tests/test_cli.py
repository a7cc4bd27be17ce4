"""End-to-end CLI: exit codes, JSON payloads, CSV formats, reproducibility."""

import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import variobern as vb
from variobern import cli
from variobern.cli import _CHECKS, _json_text, main
from variobern.errors import VarioBernError


def model_arg(m) -> str:
    return json.dumps(vb.model_to_json(m))


def write_sites(path, coords, values=None):
    pts = vb.PointSet(np.asarray(coords, float),
                      None if values is None else np.asarray(values, float))
    vb.write_points_csv(pts, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CUBIC = model_arg(vb.make_variogram(
    vb.fpow(vb.catalog("power", {"a": 1.0}), 1.5), d=1))
EXP_COV = model_arg(vb.exponential_covariance(1.0, d=1))


# ----------------------------------------------------------------------
# catalog

def test_catalog_lists_atoms_and_table(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "dagum" in out and "matern" in out and "spherical_profile" in out
    table_lines = [l for l in out.splitlines() if "params={" in l]
    assert len(table_lines) == 12
    assert out.startswith("# config:")


def test_catalog_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["catalog", "--out", str(a)]) == 0
    assert main(["catalog", "--out", str(b)]) == 0
    # identical except for the echoed output path in the config line
    ta = a.read_text().replace(str(a), "OUT")
    tb = b.read_text().replace(str(b), "OUT")
    assert ta == tb


# ----------------------------------------------------------------------
# validate

def test_validate_exponential_passes(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 5, 8)[:, None])
    code, out, _ = run(capsys, "validate", "--model", EXP_COV,
                       "--points", sites)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["reports"][0]["check"] == "pd"  # covariance default


def test_validate_cubic_fails_with_witness(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 5, 8)[:, None])
    code, out, _ = run(capsys, "validate", "--model", CUBIC,
                       "--points", sites)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    cnd = [c for r in payload["reports"] for c in r["checks"]
           if c["name"] == "cnd"][0]
    assert cnd["verdict"] == "fail"
    w = cnd["witness"]
    assert abs(sum(w["contrast"])) < 1e-9 and w["quadratic_form"] > 0


def test_validate_malformed_csv_is_diagnosed(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    code, out, err = run(capsys, "validate", "--model", CUBIC,
                         "--points", str(bad))
    assert code == 2
    assert "x1" in err


def test_validate_point_check_requires_points(capsys):
    code, _, err = run(capsys, "validate", "--model", CUBIC,
                       "--checks", "cnd")
    assert code == 2
    assert "--points" in err


@pytest.mark.parametrize("selection,message", [
    ("cm,magic", "unknown check 'magic'"),
    ("cm,cnd", "check 'cnd' needs --points"),
    ("cm,,profile_shape,magic,cnd", "unknown check 'magic'"),
])
def test_validate_refuses_its_selection_before_any_oracle_runs(
        capsys, monkeypatch, selection, message):
    ran = []
    for name in ("cm_check", "profile_shape_check", "cnd_check"):
        monkeypatch.setattr(vb.checks, name, lambda *a, name=name, **kw: ran.append(name))
    code, out, err = run(capsys, "validate", "--model", EXP_COV, "--checks", selection)
    assert (code, out, ran) == (2, "", [])
    assert message in err


def test_validate_profile_checks_run_without_points(capsys):
    # cm applies to the covariance profile, profile_shape to a variogram's
    code, out, _ = run(capsys, "validate", "--model", EXP_COV,
                       "--checks", "cm")
    assert code == 0
    assert json.loads(out)["reports"][0]["check"] == "cm"
    v = model_arg(vb.make_variogram(vb.catalog("power", {"a": 0.5}), d=1))
    code, out, _ = run(capsys, "validate", "--model", v,
                       "--checks", "profile_shape")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["reports"][0]["checks"]]
    assert names == ["increasing", "concave", "subadditive"]


def test_validate_profile_shape_rejects_covariance_shape(capsys):
    """A decreasing covariance profile is not a variogram profile; the
    check reports that rather than silently passing."""
    code, out, _ = run(capsys, "validate", "--model", EXP_COV,
                       "--checks", "profile_shape")
    assert code == 1


def test_validate_profile_shape_squared_norm_convention(capsys):
    """gamma = |xi|^2 has squared-radius profile f(x) = x, which the shape
    theorem allows; the check must test f, not the norm profile r^2."""
    v = model_arg(vb.make_variogram(vb.catalog("power", {"a": 1.0}), d=2))
    code, out, _ = run(capsys, "validate", "--model", v,
                       "--checks", "profile_shape")
    assert code == 0


def test_validate_bernstein_check_on_variogram_profile(capsys):
    v = model_arg(vb.make_variogram(vb.catalog("log1p"), d=1))
    code, out, _ = run(capsys, "validate", "--model", v,
                       "--checks", "bernstein")
    assert code == 0


def test_validate_bernstein_passes_a_certified_affine_profile(capsys):
    v = vb.make_variogram(vb.affine(vb.catalog("power", {"a": 1.0}), shift=1.0))
    assert v.certified
    code, _, _ = run(capsys, "validate", "--model", model_arg(v),
                     "--checks", "bernstein")
    assert code == 0


def test_validate_eventual_constancy(capsys):
    """The spherical plateau is fine for a d <= 3 certificate; no
    all-dimension contradiction is raised for norm-mode models."""
    sph = model_arg(vb.spherical_covariance(1.0, d=2))
    code, out, _ = run(capsys, "validate", "--model", sph,
                       "--checks", "eventual_constancy")
    assert code == 0
    payload = json.loads(out)
    recs = payload["reports"][0]["checks"]
    assert [c["name"] for c in recs] == ["constant_on_annulus"]


def test_validate_eventual_constancy_catches_forged_certificate(capsys):
    """A compactly supported covariance whose JSON claims an all-dimension
    (squared_norm) certificate is internally contradictory."""
    forged = json.dumps({
        "type": "covariance",
        "profile": {"op": "affine", "shift": 1.0, "scale": -1.0,
                    "args": [{"atom": "spherical_profile",
                              "params": {"range": 1.0}}]},
        "mode": "squared_norm",
        "d": 1,
        "certified": True,
        "sill": 1.0,
        "support_radius": 1.0,
    })
    code, out, _ = run(capsys, "validate", "--model", forged,
                       "--checks", "eventual_constancy")
    assert code == 1
    recs = json.loads(out)["reports"][0]["checks"]
    contradiction = [c for c in recs if c["name"] == "all_d_consistency"][0]
    assert contradiction["verdict"] == "fail"
    assert "incompatible" in contradiction["detail"]


def test_validate_unknown_check(capsys):
    code, _, err = run(capsys, "validate", "--model", CUBIC,
                       "--checks", "magic")
    assert code == 2
    assert "unknown check" in err


def test_validate_unknown_check_lists_exactly_the_check_table(capsys):
    code, _, err = run(capsys, "validate", "--model", CUBIC, "--checks", "magic")
    assert code == 2
    assert err.rstrip("\n").split("available: ")[1].split(", ") == list(_CHECKS)


def test_validate_looks_its_oracle_up_when_the_check_runs(capsys, tmp_path, monkeypatch):
    """A wrapper set on checks.cnd_check after import is the oracle that
    validate runs, as for the benchmark's span wrappers."""
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0], [2.5]])
    ran = []
    real = vb.checks.cnd_check

    def recording(*args, **kw):
        ran.append(args[1].n)
        return real(*args, **kw)

    monkeypatch.setattr(vb.checks, "cnd_check", recording)
    model = model_arg(vb.make_variogram(vb.catalog("power", {"a": 0.5}), d=1))
    code, out, err = run(capsys, "validate", "--model", model, "--points", sites,
                         "--checks", "cnd")
    assert code == 0, err
    assert ran == [3]
    assert json.loads(out)["reports"][0]["check"] == "cnd"


# ----------------------------------------------------------------------
# construct

def test_construct_ma_product(capsys):
    recipe = json.dumps({"constructor": "ma_product",
                         "args": {"a1": 1.0, "a2": 2.0, "d": 2}})
    code, out, _ = run(capsys, "construct", "--model", recipe)
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["model"]["mode"] == "squared_norm"
    # the emitted model JSON round-trips through the library
    m = vb.model_from_json(payload["model"])
    assert m.certified


def test_construct_schur_gate(capsys):
    g = vb.expr_to_json(vb.catalog("exp_one_minus", {"a": 1.0}))
    recipe = json.dumps({"constructor": "schur_product_extended",
                         "args": {"g1": g, "g2": g,
                                  "alpha": 0.9, "beta": 0.9}})
    code, _, err = run(capsys, "construct", "--model", recipe)
    assert code == 2
    assert "alpha + beta <= 1" in err


def test_construct_wendland_gate_names_bound(capsys):
    recipe = json.dumps({"constructor": "wendland",
                         "args": {"r": 1.0, "l": 1, "d": 3}})
    code, _, err = run(capsys, "construct", "--model", recipe)
    assert code == 2
    assert "floor(d/2)+1 = 2" in err


def test_construct_spectral(capsys):
    recipe = json.dumps({"constructor": "spectral_variogram",
                         "args": {"f": {"atom": "log1p", "params": {}}}})
    code, out, _ = run(capsys, "construct", "--model", recipe)
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_construct_difference_kernel(capsys):
    base = vb.model_to_json(vb.ma_product(1.0, 1.0, d=2))
    recipe = json.dumps({"constructor": "difference_kernel",
                         "args": {"base": base, "eta": [1.0, 0.0]}})
    code, out, _ = run(capsys, "construct", "--model", recipe)
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel"]["kind"] == "difference_kernel"
    assert payload["kernel"]["eta"] == [1.0, 0.0]


def test_construct_unknown_constructor(capsys):
    code, _, err = run(capsys, "construct", "--model",
                       json.dumps({"constructor": "magic", "args": {}}))
    assert code == 2
    assert "unknown constructor" in err


# ----------------------------------------------------------------------
# grid

def test_grid_spherical_plateau(capsys):
    sph = model_arg(vb.spherical(1.0, d=1))
    code, out, _ = run(capsys, "grid", "--model", sph, "--grid", "0:2:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "x1,value"
    vals = [float(l.split(",")[1]) for l in lines[2:]]
    assert vals[0] == 0.0
    assert vals[2:] == [1.0, 1.0, 1.0]  # radii 1, 1.5, 2 sit on the sill


def test_grid_two_dim_row_count(capsys):
    v = model_arg(vb.ma_product(1.0, 1.0, d=2))
    code, out, _ = run(capsys, "grid", "--model", v, "--grid", "0:1:3,0:1:4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "x1,x2,value"
    assert len(lines) == 2 + 3 * 4


def test_grid_axis_count_mismatch(capsys):
    v = model_arg(vb.ma_product(1.0, 1.0, d=2))
    code, _, err = run(capsys, "grid", "--model", v, "--grid", "0:1:3")
    assert code == 2
    assert "2-dimensional" in err


@pytest.mark.parametrize("spec", ["1:inf:2,1:2:2", "nan:1:2,1:2:2", "1:2:2,-inf:1:3"])
@pytest.mark.parametrize("command", ["grid", "krige"])
def test_grid_spec_rejects_a_non_finite_bound(capsys, tmp_path, command, spec):
    """A non-finite lo or hi is named as a bad range, before any warning."""
    sites = write_sites(tmp_path / "s.csv", [[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0])
    argv = ["--model", model_arg(vb.ma_product(1.0, 1.0, d=2)), "--grid", spec]
    if command == "krige":
        argv += ["--points", sites]
    bad = next(part for part in spec.split(",")
               if "inf" in part or "nan" in part)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad grid range {bad!r}: lo and hi must be finite\n"


@pytest.mark.parametrize("command", ["grid", "krige"])
def test_grid_range_with_a_negative_lower_bound_may_follow_as_its_own_token(
        capsys, tmp_path, command):
    """'--grid -1:1:2,...' reads as '--grid=-1:1:2,...', not as a flag."""
    sites = write_sites(tmp_path / "s.csv", [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                        [1.0, 2.0, 3.0])
    argv = [command, "--model", model_arg(vb.ma_product(1.0, 1.0, d=2))]
    if command == "krige":
        argv += ["--points", sites]
    outs = []
    for spec in (["--grid", "-1:1:2,0:1:2"], ["--grid=-1:1:2,0:1:2"],
                 ["--grid", "-.5:1:2,0:1:2"]):
        code, out, err = run(capsys, *argv, *spec, "--out", str(tmp_path / "o"))
        assert code == 0, err
        outs.append((tmp_path / "o").read_text())
    assert outs[0] == outs[1] != outs[2]
    assert '"grid": "-1:1:2,0:1:2"' in outs[0]


@pytest.mark.parametrize("command", ["grid", "krige"])
def test_grid_followed_by_a_flag_is_still_a_usage_error(capsys, command):
    argv = [command, "--model", EXP_COV] + (["--points", "s.csv"] if command == "krige" else [])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--grid", "--out", "x"])
    assert exc.value.code == 2
    assert "argument --grid: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["grid", "krige"])
@pytest.mark.parametrize("spec", ["-1:1:2,0:1:2", "0:1:2,0:1:2"])
def test_an_abbreviated_flag_is_a_usage_error(capsys, tmp_path, command, spec):
    """'--gri' once passed with a nonnegative range and failed with a
    negative one; only the full spelling '--grid' is read."""
    sites = write_sites(tmp_path / "s.csv", [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                        [1.0, 2.0, 3.0])
    argv = [command, "--model", model_arg(vb.ma_product(1.0, 1.0, d=2))]
    if command == "krige":
        argv += ["--points", sites]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--gri", spec])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --gri {spec}" in capsys.readouterr().err
    code, _, err = run(capsys, *argv, "--grid", spec)
    assert code == 0, err


# ----------------------------------------------------------------------
# krige

def test_krige_single_site_echo(capsys, tmp_path):
    sites = write_sites(tmp_path / "one.csv", [[2.0]], [5.0])
    code, out, _ = run(capsys, "krige", "--model", EXP_COV,
                       "--points", sites, "--grid", "0:4:3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["predictions"]) == 3
    for p in payload["predictions"]:
        assert p["prediction"] == pytest.approx(5.0)
        assert p["weights"] == [pytest.approx(1.0)]


def test_krige_sparse_gate(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0]], [0.0, 1.0])
    code, _, err = run(capsys, "krige", "--model", EXP_COV,
                       "--points", sites, "--grid", "0:1:2",
                       "--mode", "sparse")
    assert code == 2
    assert "finite support radius" in err


def test_krige_sparse_compact_support(capsys, tmp_path):
    w = model_arg(vb.wendland(2.0, 2, d=1))
    sites = write_sites(tmp_path / "s.csv",
                        np.linspace(0, 5, 6)[:, None],
                        np.arange(6.0))
    code, out, _ = run(capsys, "krige", "--model", w, "--points", sites,
                       "--grid", "0.5:4.5:3", "--mode", "sparse")
    assert code == 0
    payload = json.loads(out)
    assert all(p["mode"] == "sparse" for p in payload["predictions"])


def test_krige_needs_value_column(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0]])
    code, _, err = run(capsys, "krige", "--model", EXP_COV,
                       "--points", sites, "--grid", "0:1:2")
    assert code == 2


# ----------------------------------------------------------------------
# simulate

def test_simulate_seeded_and_deterministic(tmp_path):
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 4, 5)[:, None])
    out_path = tmp_path / "emp.csv"
    argv = ["simulate", "--model", EXP_COV, "--points", sites,
            "--seed", "7", "--replicates", "50", "--grid", "4",
            "--out", str(out_path)]
    assert main(argv) == 0
    first = out_path.read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[1] == "lag_lo,lag_hi,count,gamma_hat"
    assert len(lines) == 2 + 4
    cfg = json.loads(lines[0].split("# config: ", 1)[1])
    assert cfg["seed"] == 7 and cfg["replicates"] == 50
    assert "diag_shift" in cfg


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not standard JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("coords", [np.linspace(0, 4, 5)[:, None], [[0.0], [0.0], [1.0]]],
                         ids=["distinct", "duplicate"])
def test_simulate_header_reports_conditioning(capsys, tmp_path, coords):
    sites = write_sites(tmp_path / "s.csv", coords)
    code, out, _ = run(capsys, "simulate", "--model", EXP_COV, "--points", sites,
                       "--seed", "3", "--replicates", "4")
    assert code == 0
    cfg = _strict_json(out.splitlines()[0].split("# config: ", 1)[1])
    spec = vb.SimulationSpec(vb.exponential_covariance(1.0, d=1),
                             vb.PointSet(np.asarray(coords, float)), 3, 4)
    _, info = vb.simulate_field(spec)
    assert cfg["diag_shift"] == info["diag_shift"]
    assert cfg["min_eigenvalue"] == info["min_eigenvalue"]
    assert cfg["cond"] == (info["cond"] if np.isfinite(info["cond"]) else None)


def test_simulate_header_writes_infinite_cond_as_null(capsys, tmp_path, monkeypatch):
    real = vb.kriging.simulate_field

    def singular(spec, tol):
        reps, info = real(spec, tol)
        return reps, {**info, "cond": float("inf")}

    monkeypatch.setattr(vb.kriging, "simulate_field", singular)
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0]])
    code, out, _ = run(capsys, "simulate", "--model", EXP_COV, "--points", sites)
    assert code == 0
    assert _strict_json(out.splitlines()[0].split("# config: ", 1)[1])["cond"] is None


def test_simulate_different_seed_changes_output(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 4, 5)[:, None])
    _, out1, _ = run(capsys, "simulate", "--model", EXP_COV,
                     "--points", sites, "--seed", "1")
    _, out2, _ = run(capsys, "simulate", "--model", EXP_COV,
                     "--points", sites, "--seed", "2")
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(out1) != strip(out2)


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_simulate_rejects_a_tol_that_is_not_positive_and_finite(capsys, tmp_path, tol):
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 4, 5)[:, None])
    code, out, err = run(capsys, "simulate", "--model", EXP_COV,
                         "--points", sites, "--tol", tol)
    assert code == 2
    assert out == "" and "tol must be positive and finite" in err


def test_simulate_rejects_a_negative_seed(capsys, tmp_path):
    """--seed -1 used to escape main as a bare ValueError with a traceback."""
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 4, 5)[:, None])
    code, out, err = run(capsys, "simulate", "--model", EXP_COV,
                         "--points", sites, "--seed", "-1")
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_simulate_empty_bin_prints_nan(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [4.0]])
    code, out, _ = run(capsys, "simulate", "--model", EXP_COV,
                       "--points", sites, "--grid", "3",
                       "--replicates", "5")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[2:]]
    # the only pair sits at distance 4, in the final closed bin
    assert rows[0][2] == "0" and rows[0][3] == "nan"
    assert rows[2][2] == "1"


# ----------------------------------------------------------------------
# top-level behavior

def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_error_goes_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, "validate", "--model", "{broken")
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_construct_unknown_constructor_lists_every_recipe(capsys):
    for ctor in ("magic", ["ma_product"]):
        code, _, err = run(capsys, "construct", "--model",
                           json.dumps({"constructor": ctor, "args": {}}))
        assert code == 2 and "unknown constructor" in err
    for name in ("ma_product", "schur_product_extended", "cbf_variograms",
                 "composition_products", "difference_kernel", "sum_kernel",
                 "spectral_variogram", "wendland", "spherical"):
        assert name in err


def test_construct_two_factor_with_g3_exits_2(capsys):
    recipe = {"constructor": "composition_products",
              "args": {"g1": {"atom": "power", "params": {"a": 1.0}},
                       "g2": {"atom": "log1p"},
                       "g3": {"atom": "power", "params": {"a": 0.5}},
                       "which": "two_factor"}}
    code, out, err = run(capsys, "construct", "--model", json.dumps(recipe))
    assert code == 2 and out == ""
    assert "two_factor takes no g3" in err


@pytest.mark.parametrize("recipe, key", [
    ({"constructor": "spherical", "args": {"rnage": 2.0, "d": 2}}, "rnage"),
    ({"constructor": "spherical", "arg": {"range": 2.0, "d": 2}}, "arg"),
    ({"constructor": "difference_kernel",
      "args": {"base": vb.model_to_json(vb.make_variogram(vb.catalog("log1p"), d=1)),
               "eta": [1.0], "etta": [2.0]}}, "etta"),
], ids=["arg", "top_level", "kernel_arg"])
def test_construct_refuses_an_unknown_recipe_key(capsys, recipe, key):
    """A misspelt key once built the default model without a word."""
    code, out, err = run(capsys, "construct", "--model", json.dumps(recipe))
    assert code == 2 and out == ""
    assert f"unknown key(s) '{key}'" in err


@pytest.mark.parametrize("text", ["[1, 2]", "3"])
def test_construct_refuses_a_recipe_that_is_not_an_object(capsys, tmp_path, text):
    """A recipe file holding a JSON list or number once raised a traceback."""
    path = tmp_path / "recipe.json"
    path.write_text(text)
    code, out, err = run(capsys, "construct", "--model", str(path))
    assert code == 2 and out == ""
    assert "recipe JSON must be an object" in err


@pytest.mark.parametrize("command", ["krige", "simulate"])
def test_krige_and_simulate_require_points(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", EXP_COV])
    assert exc.value.code == 2
    assert "the following arguments are required: --points" in capsys.readouterr().err


def test_simulate_help_says_grid_is_a_bin_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "simulate: number of lag bins (default 10)" in text


@pytest.mark.parametrize("command, own_keys", [
    ("catalog", set()),
    ("validate", {"model", "points", "checks", "tol"}),
    ("construct", {"recipe"}),
    ("grid", {"model", "grid"}),
    ("krige", {"model", "points", "grid", "mode"}),
    ("simulate", {"model", "points", "seed", "replicates", "bins", "tol",
                  "diag_shift", "min_eigenvalue", "cond"}),
])
def test_every_command_embeds_command_and_out(tmp_path, command, own_keys):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0], [2.5]], [1.0, 2.0, 0.0])
    argv = {
        "catalog": [],
        "validate": ["--model", EXP_COV, "--points", sites],
        "construct": ["--model", json.dumps({"constructor": "spherical",
                                             "args": {"range": 2.0}})],
        "grid": ["--model", EXP_COV, "--grid", "0:2:3"],
        "krige": ["--model", EXP_COV, "--points", sites, "--grid", "0:2:3"],
        "simulate": ["--model", EXP_COV, "--points", sites, "--replicates", "4",
                     "--grid", "2"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    if command in ("catalog", "grid", "simulate"):
        head, _, _ = text.partition("\n")
        assert head.startswith("# config: ")
        config = json.loads(head[len("# config: "):])
    else:
        config = json.loads(text)["config"]
    assert config == {**config, "command": command, "out": str(out)}
    assert set(config) == own_keys | {"command", "out"}


def test_krige_reports_variance_and_residual(capsys, tmp_path):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0], [3.0]], [1.0, 2.0, 0.0])
    code, out, _ = run(capsys, "krige", "--model", EXP_COV,
                       "--points", sites, "--grid", "0:3:4")
    assert code == 0
    preds = json.loads(out)["predictions"]
    assert len(preds) == 4
    # targets 0, 1, 2, 3: all but 2 are data sites
    assert [p["variance"] == pytest.approx(0.0, abs=1e-10) for p in preds] == [
        True, True, False, True]
    assert preds[2]["variance"] > 0.0
    assert all(0.0 <= p["residual"] < 1e-10 for p in preds)


@pytest.mark.parametrize("model, checks", [
    (vb.ma_product(1.0, 2.0, d=1), "sqrt_subadditivity"),
    (vb.wendland(1.5, 1, 1), "eventual_constancy"),
    (vb.ma_product(1.0, 2.0, d=1), "cnd"),
    *[(vb.make_variogram(vb.catalog("log1p"), d=1), name)
      for name in ("cm", "bernstein", "polya", "profile_shape")],
])
def test_validate_rejects_a_nonpositive_tol(capsys, tmp_path, model, checks):
    """A negative tolerance is an input error (exit 2), never a verdict."""
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 5, 8)[:, None])
    code, out, err = run(capsys, "validate", "--model", model_arg(model),
                         "--points", sites, "--checks", checks, "--tol", "-0.001")
    assert code == 2
    assert out == "" and "tol must be positive" in err


@pytest.mark.parametrize("model, tol", [
    # an infinite tol used to pass a non-CND product (exit 0)
    (vb.make_variogram(vb.fprod(*[vb.catalog("exp_one_minus", {"a": 1.0})] * 2), d=1),
     "inf"),
    # a NaN tol used to fail a certified variogram (exit 1)
    (vb.ma_product(1.0, 2.0, d=1), "nan"),
])
def test_validate_rejects_a_non_finite_tol(capsys, tmp_path, model, tol):
    sites = write_sites(tmp_path / "s.csv", np.linspace(0, 5, 8)[:, None])
    code, out, err = run(capsys, "validate", "--model", model_arg(model),
                         "--points", sites)
    assert code == (0 if tol == "nan" else 1)
    code, out, err = run(capsys, "validate", "--model", model_arg(model),
                         "--points", sites, "--tol", tol)
    assert code == 2
    assert out == "" and "tol must be positive and finite" in err


@pytest.mark.parametrize("ctor", ["difference_kernel", "sum_kernel"])
def test_construct_shift_kernel_of_a_covariance_is_not_certified(capsys, ctor):
    """The shift theorems cover variogram bases only; a certified covariance
    base must not lend its certificate to the shift kernel."""
    for base, certified in ((vb.exponential_covariance(1.0, d=1), False),
                            (vb.make_variogram(vb.catalog("log1p"), d=1), True)):
        recipe = json.dumps({"constructor": ctor,
                             "args": {"base": vb.model_to_json(base), "eta": [1.0]}})
        code, out, _ = run(capsys, "construct", "--model", recipe)
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is payload["kernel"]["certified"] is certified


def test_difference_kernel_of_a_covariance_fails_pd():
    k = vb.difference_kernel(vb.exponential_covariance(1.0, d=1), [1.0])
    pts = vb.PointSet(np.linspace(0, 5, 12)[:, None])
    assert vb.pd_check(k, pts, tol=1e-8).verdict == "fail"


@pytest.mark.parametrize("command, flag, value", [
    ("krige", "--tol", "1e-3"), ("grid", "--seed", "1"),
    ("validate", "--seed", "1"), ("catalog", "--tol", "1e-3"),
    ("construct", "--seed", "1")])
def test_flags_exist_only_where_they_are_read(capsys, tmp_path, command, flag, value):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0]], [1.0, 2.0])
    argv = {"catalog": [], "construct": ["--model", "{}"],
            "validate": ["--model", EXP_COV],
            "grid": ["--model", EXP_COV, "--grid", "0:1:2"],
            "krige": ["--model", EXP_COV, "--points", sites, "--grid", "0:1:2"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *argv[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_validate_with_no_checks_is_refused(capsys):
    """A selection that names no check would pass vacuously, even for a
    model that is no variogram."""
    sine = json.dumps({"type": "variogram", "mode": "norm", "d": 1,
                       "profile": {"atom": "sine", "params": {}}})
    for model in (CUBIC, sine):
        code, out, err = run(capsys, "validate", "--model", model, "--checks", ",")
        assert code == 2 and out == ""
        assert "--checks names no check; available: " in err


def _with(model, **fields) -> str:
    doc = vb.model_to_json(model)
    doc.update(fields)
    return json.dumps(doc)


POWER_HALF = vb.make_variogram(vb.catalog("power", {"a": 0.5}))


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", EXP_COV, "--points", "SITES", "--grid", "0:3:7"],
    ["simulate", "--model", EXP_COV, "--points", "SITES", "--grid", "0"],
    ["grid", "--model", _with(POWER_HALF, d="two"), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, A="eye"), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": {"a": "x"}}), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "op": "power", "alpha": "x", "args": [{"atom": "log1p", "params": {}}]}),
     "--grid", "0:1:3"],
    ["construct", "--model", json.dumps({"constructor": "ma_product",
                                         "args": {"a1": "x"}})],
], ids=["simulate_bins", "simulate_zero_bins", "model_d", "model_A",
        "atom_param", "op_alpha", "recipe_arg"])
def test_malformed_numbers_exit_2_with_one_error_line(capsys, tmp_path, argv):
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0], [2.0]])
    code, out, err = run(capsys, *[sites if a == "SITES" else a for a in argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["grid", "--model", _with(POWER_HALF, d=2.5, A=np.eye(2).tolist()),
     "--grid", "0:1:3,0:1:3"],
    ["construct", "--model", json.dumps({"constructor": "wendland",
                                         "args": {"r": 1, "l": 2.5, "d": 1}})],
    ["construct", "--model", json.dumps({"constructor": "ma_product",
                                         "args": {"d": 1.5}})],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": {"a": 0.5}, "tags": 5}), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": {"a": 0.5}, "tags": ["x", 5]}), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": "x"}), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": ["power"], "params": {"a": 0.5}}), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={"op": "sum", "args": 5}),
     "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": {"a": 0.5}, "levy": {"drift": "x"}}), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": {"a": 0.5}, "levy": [1.0]}), "--grid", "0:1:3"],
], ids=["model_d_fraction", "recipe_l_fraction", "recipe_d_fraction",
        "tags_number", "tags_member", "params_string", "atom_list", "args_number",
        "levy_drift", "levy_list"])
def test_malformed_integers_and_expression_json_exit_2(capsys, tmp_path, argv):
    """Integers are never truncated, and expression JSON of the wrong
    structure is a ParameterError, not a traceback."""
    sites = write_sites(tmp_path / "s.csv", [[0.0], [1.0], [2.0]])
    code, out, err = run(capsys, *[sites if a == "SITES" else a for a in argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("l", ["NaN", "Infinity", "1e400"])
def test_non_finite_integer_atom_parameter_exits_2(capsys, l):
    """A non-finite integer parameter is a usage error, not a traceback."""
    model = _with(vb.wendland(2.0, 2, 2), profile={
        "atom": "wendland_profile", "params": {"r": 2.0, "l": "L"}})
    code, out, err = run(capsys, "validate", "--model", model.replace('"L"', l))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_nan_support_radius_exits_2(capsys):
    code, out, err = run(capsys, "validate", "--model",
                         _with(vb.wendland(2.0, 2, 2), support_radius=math.nan))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "support_radius" in err


def test_integral_floats_still_read_as_integers(capsys):
    code, out, _ = run(capsys, "grid", "--model", _with(POWER_HALF, d=1.0),
                       "--grid", "0:1:3")
    assert code == 0
    assert '"d": 1' in out.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["grid", "--model", _with(POWER_HALF, d=True), "--grid", "0:1:3"],
    ["grid", "--model", _with(POWER_HALF, profile={
        "atom": "power", "params": {"a": True}}), "--grid", "0:1:3"],
    ["construct", "--model", json.dumps({"constructor": "wendland",
                                         "args": {"r": 1, "l": True, "d": 1}})],
    ["grid", "--model", _with(POWER_HALF, d=2, A=[[True, False], [False, True]]),
     "--grid", "0:1:3,0:1:3"],
    ["grid", "--model", _with(POWER_HALF, d=2, A=[[1.0, 0.0], [0.0, True]]),
     "--grid", "0:1:3,0:1:3"],
], ids=["model_d", "atom_param", "recipe_l", "anisotropy", "anisotropy_entry"])
def test_booleans_are_not_numbers(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "boolean" in err


# ----------------------------------------------------------------------
# the JSON writer: json.dumps(indent=2, sort_keys=True), byte for byte

def _reference_json(o) -> str:
    return json.dumps(o, indent=2, sort_keys=True) + "\n"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | \
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308])
_NUMBERS = (st.booleans() | st.integers() | st.integers(-10**40, 10**40)
            | _FLOATS | _FLOATS.map(np.float64))
_LEAVES = st.none() | _NUMBERS | st.text()
_TREES = st.recursive(
    _LEAVES | st.lists(_NUMBERS) | st.lists(_NUMBERS).map(tuple),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_json_text_is_json_dumps_with_indent(tree):
    assert _json_text(tree) == _reference_json(tree)
    assert _json_text({"payload": tree}) == _reference_json({"payload": tree})


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[]], [{}], [1, []], [1, {}],
    [1, "a,b"], ["x", 1.5], [True, False, None, 1, 2.5], [[1, 2], [3.0]],
    {"k": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]},
    {"ü": "naïve ☃", "a\"b": ["\n", "\u2028"]}, [np.float64(0.1), 10**30],
    {2: "int key", 1.5: "float key"}, {None: "null key"}, {True: 1},
])
def test_json_text_edge_cases(tree):
    assert _json_text(tree) == _reference_json(tree)


def test_json_text_rejects_what_json_rejects():
    for bad in ({(1, 2): 0}, [np.int64(1)], {"a": object()}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            _reference_json(bad)
        with pytest.raises(TypeError):
            _json_text(bad)


def test_command_outputs_are_indented_sorted_json(tmp_path):
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 3.0, size=(12, 2))
    sites = write_sites(tmp_path / "s.csv", coords, rng.standard_normal(12))
    ma = model_arg(vb.ma_product(0.5, 1.5, d=2))
    recipe = json.dumps({"constructor": "ma_product", "args": {"a1": 1.0, "a2": 2.0, "d": 2}})
    cubic2 = model_arg(vb.make_variogram(
        vb.fpow(vb.catalog("power", {"a": 1.0}), 1.5), d=2))
    runs = {
        "validate": ["validate", "--model", cubic2, "--points", sites,
                     "--checks", "axioms,pd"],
        "krige": ["krige", "--model", ma, "--points", sites, "--grid", "0:3:3,0:3:2"],
        "krige_sparse": ["krige", "--model", model_arg(vb.wendland(2.0, 2, 2)),
                         "--points", sites, "--grid", "0:3:2,0:3:2", "--mode", "sparse"],
        "construct": ["construct", "--model", recipe],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) in (0, 1, 2)
        text = out.read_text(encoding="utf-8")
        assert text == _reference_json(json.loads(text)), name


# ----------------------------------------------------------------------
# input errors that name what is wrong

SPHERICAL_2D = model_arg(vb.spherical(1.5, d=2))


@pytest.mark.parametrize("call, message", [
    (lambda: cli._load_json_arg("no/such/model.json", "model"),
     "cannot read model file 'no/such/model.json': "),
    (lambda: cli._parse_grid_spec("0:1", 1), "bad grid range '0:1': expected lo:hi:n"),
    (lambda: cli._parse_grid_spec("0:one:3", 1),
     "bad grid range '0:one:3': could not convert string to float: 'one'"),
    (lambda: cli._parse_grid_spec("0:1:0", 1), "bad grid range '0:1:0': need n >= 1"),
    (lambda: cli._build_recipe({"constructor": "spectral_variogram", "args": {}}),
     "recipe args are missing 'f'"),
    (lambda: cli._build_recipe({"constructor": "sum_kernel", "args": {"eta": [0.5]}}),
     "sum_kernel recipe needs 'base' and 'eta'"),
    (lambda: cli._build_recipe({"constructor": "wendland", "args": [1.5, 2]}),
     "recipe 'args' must be an object"),
    (lambda: cli.cmd_grid(cli.build_parser().parse_args(["grid", "--model", SPHERICAL_2D])),
     "grid command needs --grid lo:hi:n[,lo:hi:n...]"),
    (lambda: cli.cmd_krige(cli.build_parser().parse_args(
        ["krige", "--model", SPHERICAL_2D, "--points", "sites.csv"])),
     "krige command needs --grid lo:hi:n[,...] for the target sites"),
])
def test_cli_input_errors_name_the_input(call, message):
    with pytest.raises(VarioBernError) as info:
        call()
    assert str(info.value).startswith(message)


# ----------------------------------------------------------------------
# one parser per process

def _command_sequence(tmp_path, capsys) -> list:
    """Exit code, stderr and output bytes of krige, a usage error, simulate,
    validate and krige again, each one in-process main call."""
    rng = np.random.default_rng(5)
    sites = write_sites(tmp_path / "sites.csv", rng.uniform(0, 3, size=(12, 1)),
                        rng.normal(size=12))
    out = str(tmp_path / "out.txt")
    calls = [
        ["krige", "--model", EXP_COV, "--points", sites, "--grid", "0:3:4", "--out", out],
        ["krige", "--model", EXP_COV, "--points", sites, "--seed", "3", "--out", out],
        ["simulate", "--model", EXP_COV, "--points", sites, "--replicates", "20",
         "--seed", "4", "--grid", "3", "--out", out],
        ["validate", "--model", CUBIC, "--points", sites, "--checks", "axioms",
         "--out", out],
        ["krige", "--model", EXP_COV, "--points", sites, "--grid", "-1:2:3",
         "--out", out],
    ]
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                written = fh.read()
            os.remove(out)
        seen.append((code, capsys.readouterr().err, written))
    return seen


def test_main_answers_as_a_fresh_parser_does_call_after_call(tmp_path, capsys,
                                                              monkeypatch):
    shared = _command_sequence(tmp_path, capsys)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _command_sequence(tmp_path, capsys)
    assert [c for c, _, _ in shared] == [0, 2, 0, 1, 0]
    assert "unrecognized arguments: --seed 3" in shared[1][1]
    assert shared[1][2] is None
    assert shared == fresh
