"""End-to-end CLI: exit codes, JSON payloads, CSV formats, reproducibility."""

import json
import warnings

import numpy as np
import pytest

import variobern as vb
from variobern.cli import main


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


def test_validate_with_no_checks_passes(capsys):
    code, out, _ = run(capsys, "validate", "--model", CUBIC, "--checks", ",")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["reports"] == []


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
