"""Model certificates: derived from the profile, never stored or loaded.

Each forged or uncovered case below must come back uncertified, and each
constructor must name the theorem that covers it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import variobern as vb
from variobern.cli import main
from variobern.errors import ConstructionError, DegenerateSystemError, ParameterError

from conftest import certified_variogram_zoo, covariance_catalog, seeded_sets

BF_ALL_D = "Bernstein profile of |A xi|^2: variogram in every dimension"
CM_ALL_D = ("completely monotone profile of |A xi|^2: covariance in every "
            "dimension (Schoenberg)")
SPHERICAL_3 = "spherical_profile of |A xi|: variogram for d <= 3"


def bare(cls, profile, mode, d, **kw):
    return cls(profile=profile, mode=mode, anisotropy=None, d=d, **kw)


# ----------------------------------------------------------------------
# the reason string of every constructor

@pytest.mark.parametrize("build, reason", [
    (lambda: vb.make_variogram(vb.catalog("log1p"), d=2), BF_ALL_D),
    (lambda: vb.ma_product(1.0, 2.0, d=2), BF_ALL_D),
    (lambda: vb.schur_product_extended(
        vb.catalog("log1p"), vb.catalog("exp_one_minus", {"a": 1.0}),
        0.25, 0.5, d=2), BF_ALL_D),
    (lambda: vb.cbf_variograms(vb.catalog("log1p"), "inv_arg", d=2), BF_ALL_D),
    (lambda: vb.composition_products(
        vb.catalog("log1p"), vb.catalog("sqrt_arctan"), d=2), BF_ALL_D),
    (lambda: vb.wendland(1.0, 2, 3),
     "wendland_profile of |A xi|: covariance for d <= 3"),
    (lambda: vb.spherical(1.0, 3), SPHERICAL_3),
    (lambda: vb.spherical_covariance(1.0, 2),
     f"sill - gamma with gamma <= sill a variogram [{SPHERICAL_3}]"),
    (lambda: vb.exponential_covariance(1.0, d=2), CM_ALL_D),
    (lambda: vb.matern_covariance(1.0, 1.5, d=2),
     f"sill - gamma with gamma <= sill a variogram [{BF_ALL_D}]"),
    (lambda: vb.variogram_from_covariance(vb.exponential_covariance(1.0, d=2)),
     f"C(0) - C with C a covariance [{CM_ALL_D}]"),
    (lambda: vb.covariance_from_variogram(
        vb.make_variogram(vb.catalog("frac_linear", {"lam": 2.0}), d=2), sill=3.0),
     f"sill - gamma with gamma <= sill a variogram [{BF_ALL_D}]"),
    (lambda: vb.spectral_variogram(vb.catalog("log1p")),
     "spectral representation of |A xi|: variogram in d = 1"),
])
def test_constructor_certificate_reason(build, reason):
    m = build()
    assert m.certificate == reason
    assert m.certified
    j = vb.model_to_json(m)
    assert j["certificate"] == reason and j["certified"] is True
    assert vb.model_from_json(j).certificate == reason


def test_reference_models_all_carry_a_certificate():
    """The test zoo, the covariance catalog and the models the benchmark's
    certify workload expects to pass are all certified."""
    log1p = vb.catalog("log1p")
    passing = [
        vb.ma_product(1.0, 2.0, d=2),
        vb.schur_product_extended(
            log1p, vb.catalog("cauchy", {"alpha": 0.5, "beta": 1.0}), 0.5, 0.5, d=2),
        vb.cbf_variograms(log1p, "ratio", d=2),
        vb.composition_products(log1p, vb.catalog("sqrt_arctan"), d=2),
        vb.variogram_from_covariance(vb.matern_covariance(1.0, 1.5, d=2)),
        vb.matern_covariance(1.0, 1.5, d=2),
        vb.exponential_covariance(1.0, d=2),
        vb.wendland(3.0, 2, 2),
    ]
    models = ([v for _, v in certified_variogram_zoo()]
              + [c for _, c, _ in covariance_catalog()] + passing)
    for m in models:
        assert m.certificate is not None, m.construction


def test_certified_is_not_a_field():
    for cls in (vb.Variogram, vb.StationaryCovariance):
        assert "certified" not in {f.name for f in dataclasses.fields(cls)}
        with pytest.raises(TypeError):
            bare(cls, vb.catalog("sine"), "squared_norm", 1, certified=True)


# ----------------------------------------------------------------------
# forged certificates

def test_covariance_of_an_unbounded_variogram_is_uncertified():
    """1 - |xi|^2 is no covariance: power(a=1) has no finite sup."""
    v = vb.make_variogram(vb.catalog("power", {"a": 1.0}), d=2)
    assert v.certified
    c = vb.covariance_from_variogram(v, sill=1.0)
    assert not c.certified and c.certificate is None


def test_covariance_of_an_approximated_limit_is_uncertified():
    """log(2 + x) is unbounded, though evaluating its x/f(x) node at inf
    substitutes a finite point and returns about 690.8."""
    h = vb.compose(vb.catalog("log1p"),
                   vb.dualize(vb.catalog("frac_linear", {"lam": 1.0}), "x_over_f"))
    assert vb.evaluate(h, np.inf) < 700.0
    v = vb.make_variogram(h, d=2)
    assert v.certificate == BF_ALL_D
    assert not vb.covariance_from_variogram(v, sill=700.0).certified
    u = vb.composition_products(vb.catalog("frac_linear", {"lam": 1.0}),
                                vb.catalog("log1p"), d=2)
    assert u.certified
    assert not vb.covariance_from_variogram(u, sill=1e300).certified


def _one_node_of_each_kind():
    f, g = vb.catalog("frac_linear", {"lam": 1.0}), vb.catalog("log1p")
    # e^-t log(1 + t) / t: a decreasing, integrable density read through f(x)/x
    density = vb.fprod(vb.catalog("exp_decay", {"a": 1.0}), vb.dualize(g, "f_over_x"))
    return [f, vb.affine(f, shift=1.0, scale=-1.0), vb.fsum(f, g), vb.fprod(f, g),
            vb.compose(g, f), vb.fpow(f, 0.5),
            *(vb.combine(f, g, rule, 0.5) for rule in vb.algebra.COMBINE_RULES),
            *(vb.dualize(f, rule) for rule in vb.algebra.DUALIZE_RULES),
            vb.affine(vb.dualize(f, "x_over_f"), shift=1.0, scale=2.0),
            vb.uchiyama(g, f, g), vb.spectral_node(g), vb.spectral_node(f),
            vb.spectral_node(vb.LevyTriple(density=density))]


@pytest.mark.parametrize("x", [0.0, np.inf])
def test_an_endpoint_evaluated_by_substitution_is_never_an_exact_limit(monkeypatch, x):
    """Whenever evaluation at 0 or inf goes through _sub_endpoints, the
    certificates' _exact_limit is None there."""
    alg = vb.algebra
    calls = []
    real = alg._sub_endpoints
    monkeypatch.setattr(alg, "_sub_endpoints", lambda v: calls.append(v) or real(v))
    substituted = []
    for e in _one_node_of_each_kind():
        calls.clear()
        try:
            vb.evaluate(e, x)
        except vb.EvaluationError:
            pass
        if calls:
            substituted.append(vb.describe(e))
            assert alg._exact_limit(e, x) is None, vb.describe(e)
    # x/f(x), f(x)/x, the affine above x/f(x) and uchiyama; at inf also the
    # spectral node whose density reads f(x)/x at 0
    assert len(substituted) == (5 if x == np.inf else 4), substituted


def test_a_spectral_node_is_exactly_zero_at_zero_whatever_its_density_reads():
    """A spectral node reads its Levy density only at x = inf, so at 0 its
    limit is exact even when the density is f(x)/x; below another node the
    spectral argument need not be 0 (1/x sends 0 to inf), so the density
    is searched there."""
    alg = vb.algebra
    g = vb.catalog("log1p")
    density = vb.fprod(vb.catalog("exp_decay", {"a": 1.0}), vb.dualize(g, "f_over_x"))
    node = vb.spectral_node(vb.LevyTriple(density=density))
    assert alg._exact_limit(node, 0.0) == 0.0
    assert alg._exact_limit(node, np.inf) is None
    assert alg._exact_limit(vb.compose(node, vb.catalog("recip")), 0.0) is None


def test_derived_tags_cannot_be_set():
    e = vb.catalog("one_minus_cos")
    with pytest.raises(ValueError):
        dataclasses.replace(e, derived=frozenset({"BF"}))
    with pytest.raises(TypeError):
        vb.FunctionExpr("atom", "one_minus_cos", derived=frozenset({"BF"}))
    with pytest.raises(TypeError):
        vb.FunctionExpr("atom", "one_minus_cos", tags=frozenset({"CBF"}))


def test_spectral_carrier_is_gated_on_every_construction():
    node = vb.spectral_node(vb.catalog("log1p").levy)
    rising = vb.catalog("power", {"a": 0.5})
    with pytest.raises(ParameterError, match="decreasing"):
        dataclasses.replace(node, children=(rising,))
    with pytest.raises(ParameterError, match="decreasing"):
        vb.FunctionExpr("spectral", "levy", (("drift", 0.0),), (rising,))
    atom = vb.spectral_node(vb.catalog("log1p"))
    with pytest.raises(ConstructionError, match="catalog atom carrying a Levy triple"):
        dataclasses.replace(atom, children=(vb.affine(vb.catalog("log1p")),))
    with pytest.raises(ConstructionError, match="catalog atom carrying a Levy triple"):
        dataclasses.replace(atom, params=(("drift", 5.0),))


def test_levy_triple_cannot_be_set():
    """A node's Levy triple is derived like its tags: an atom's from the
    catalog, None on every other node; nothing can attach another."""
    e = vb.catalog("log1p")
    with pytest.raises(ValueError):
        dataclasses.replace(e, levy=vb.LevyTriple(drift=5.0))
    with pytest.raises(TypeError):
        vb.FunctionExpr("atom", "log1p", levy=vb.LevyTriple(drift=5.0))
    assert dataclasses.replace(e).levy == e.levy and e.levy.density is not None
    assert vb.affine(e).levy is None and vb.spectral_node(e).levy is None
    assert [n for n in vb.__all__ if "levy" in n.lower()] == ["LevyTriple", "levy_eval"]


def test_certificate_is_computed_once():
    c = vb.matern_covariance(1.0, 1.5, d=2)
    assert c.certificate is c.certificate
    assert "certificate" in vars(c)


def test_json_certified_flag_is_not_read():
    j = vb.model_to_json(vb.make_variogram(vb.catalog("sine"), d=2))
    j["certified"] = True
    j["certificate"] = BF_ALL_D
    m = vb.model_from_json(j)
    assert not m.certified
    assert vb.model_to_json(m)["certified"] is False


def test_declared_tags_do_not_certify():
    with pytest.raises(ParameterError, match="derived from the tree"):
        vb.expr_from_json({"atom": "one_minus_cos", "params": {}, "tags": ["CBF"]})
    e = vb.catalog("one_minus_cos")
    assert vb.infer_class(e) == e.derived == frozenset()
    assert not vb.make_variogram(e, d=2).certified


def test_rising_density_carrier_is_refused_by_spectral_node():
    with pytest.raises(ParameterError, match="decreasing"):
        vb.spectral_node(vb.LevyTriple(density=vb.catalog("power", {"a": 0.5})))


# ----------------------------------------------------------------------
# rules that must not fire

def test_squared_norm_covariance_needs_complete_monotonicity():
    c = bare(vb.StationaryCovariance, vb.catalog("log1p"), "squared_norm", 2)
    assert not c.certified


def test_completely_monotone_profile_with_a_pole_is_uncertified():
    c = bare(vb.StationaryCovariance, vb.catalog("cm_pole_example"),
             "squared_norm", 2)
    assert "CM" in c.profile.derived and not c.certified


def test_declared_model_type_is_respected():
    sph = vb.catalog("spherical_profile", {"range": 1.0})
    assert not bare(vb.StationaryCovariance, sph, "norm", 2).certified
    assert bare(vb.Variogram, sph, "norm", 2).certified
    assert not bare(vb.Variogram, sph, "squared_norm", 2).certified


def test_wendland_profile_certifies_only_up_to_its_dimension_bound():
    w = vb.catalog("wendland_profile", {"r": 1.0, "l": 1.0})
    assert bare(vb.StationaryCovariance, w, "norm", 1).certified
    assert not bare(vb.StationaryCovariance, w, "norm", 2).certified
    assert not bare(vb.Variogram, w, "norm", 1).certified


def test_covariance_complement_needs_the_sill_above_the_bound():
    v = vb.make_variogram(vb.catalog("matern", {"alpha": 1.0, "nu": 1.5}), d=2)
    assert vb.covariance_from_variogram(v, sill=1.0).certified
    assert not vb.covariance_from_variogram(v, sill=0.5).certified


def test_variogram_complement_needs_the_shift_at_c0():
    c = vb.exponential_covariance(1.0, d=2)
    for shift, ok in ((1.0, True), (2.0, False), (0.5, False)):
        v = bare(vb.Variogram, vb.affine(c.profile, shift=shift, scale=-1.0),
                 "squared_norm", 2)
        assert v.certified is ok, shift


def test_spectral_node_certifies_only_its_own_norm_in_one_dimension():
    node = vb.spectral_node(vb.catalog("log1p"))
    assert bare(vb.Variogram, node, "norm", 1).certified
    assert not bare(vb.Variogram, node, "squared_norm", 1).certified
    assert not bare(vb.Variogram, node, "norm", 2).certified


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_spectral_node_tends_to_its_carrier_density_at_zero(lam):
    """mu has total mass m(0+) = lam^2 for frac_linear, the variogram's limit."""
    node = vb.spectral_node(vb.catalog("frac_linear", {"lam": lam}))
    assert vb.evaluate(node, np.inf) == pytest.approx(lam ** 2, rel=1e-14)
    assert vb.evaluate(node, 100.0 * lam) == pytest.approx(lam ** 2, rel=2e-4)


@pytest.mark.parametrize("carrier", [
    vb.catalog("power", {"a": 1.0}),  # drift > 0
    vb.catalog("log1p"),  # m(t) = e^-t / t is unbounded at 0
])
def test_unbounded_spectral_node_has_no_finite_limit(carrier):
    with pytest.raises(vb.EvaluationError, match="non-finite"):
        vb.evaluate(vb.spectral_node(carrier), np.inf)


def test_bounded_spectral_variogram_complement_needs_the_sill_above_the_limit():
    v = vb.spectral_variogram(vb.catalog("frac_linear", {"lam": 1.0}))
    c = vb.covariance_from_variogram(v, sill=1.0)
    assert c.certificate == (
        "sill - gamma with gamma <= sill a variogram "
        "[spectral representation of |A xi|: variogram in d = 1]")
    assert not vb.covariance_from_variogram(v, sill=0.5).certified
    assert not vb.covariance_from_variogram(
        vb.spectral_variogram(vb.catalog("log1p")), sill=10.0).certified


# ----------------------------------------------------------------------
# derived tags in the algebra

def test_split_power_of_bernstein_children_derives_bf():
    f = vb.catalog("exp_one_minus", {"a": 1.0})
    g = vb.catalog("matern", {"alpha": 1.0, "nu": 1.5})
    assert "BF" in vb.combine(f, g, "split_power", 0.3).derived
    assert "BF" not in vb.combine(f, g, "geometric", 0.3).derived
    assert vb.combine(f, vb.catalog("sine"), "split_power", 0.3).derived == frozenset()


def test_schur_product_is_the_split_power_composition():
    g1 = vb.catalog("exp_one_minus", {"a": 1.0})
    g2 = vb.catalog("log1p")
    v = vb.schur_product_extended(g1, g2, 0.25, 0.5, d=1)
    x = np.linspace(0.0, 5.0, 11)
    want = vb.evaluate(g1, x ** 0.25) * vb.evaluate(g2, x ** 0.5)
    assert np.allclose(vb.evaluate(v.profile, x), want, rtol=1e-13, atol=0)
    zero = vb.schur_product_extended(g1, g2, 0.0, 0.0, d=1)
    assert zero.profile.kind == "atom" and zero.profile.name == "const"
    assert vb.evaluate(zero.profile, 3.0) == vb.evaluate(g1, 1.0) * vb.evaluate(g2, 1.0)


def test_expr_json_writes_only_declared_tags():
    e = vb.catalog("log1p")
    assert "tags" not in vb.expr_to_json(e)


# ----------------------------------------------------------------------
# declared metadata and singular anisotropy

def test_support_radius_must_be_a_support_of_the_profile():
    exp_vario = vb.variogram_from_covariance(vb.exponential_covariance(1.0, d=2))
    with pytest.raises(ParameterError, match="does not vanish"):
        vb.covariance_from_variogram(exp_vario, sill=1.0, support_radius=0.3)
    sph = vb.spherical(1.0, d=2)
    assert vb.covariance_from_variogram(sph, sill=1.0, support_radius=1.0).certified
    with pytest.raises(ParameterError, match="does not vanish"):
        vb.covariance_from_variogram(sph, sill=1.0, support_radius=0.9)
    j = vb.model_to_json(vb.wendland(2.0, 2, 2))
    j["support_radius"] = 1.5
    with pytest.raises(ParameterError, match="does not vanish"):
        vb.model_from_json(j)


def test_nan_support_radius_is_refused():
    j = vb.model_to_json(vb.wendland(2.0, 2, 2))
    j["support_radius"] = math.nan
    with pytest.raises(ParameterError, match="support_radius must be positive"):
        vb.model_from_json(j)
    with pytest.raises(ParameterError, match="support_radius must be positive"):
        dataclasses.replace(vb.wendland(2.0, 2, 2), support_radius=math.nan)


def test_nan_sill_is_refused():
    with pytest.raises(ParameterError, match="sill must be nonnegative"):
        vb.covariance_from_variogram(vb.spherical(1.0, d=2), sill=math.nan)


def test_singular_anisotropy_keeps_its_certificate():
    """f(|0 xi|^2) = f(0) is a (constant) variogram: certified and conditionally
    negative definite, but it cannot separate sites for kriging."""
    v = vb.make_variogram(vb.catalog("log1p"), A=np.zeros((2, 2)), d=2)
    assert v.certificate == BF_ALL_D
    pts = seeded_sets(1, 8, 2, seed=3, box=5.0)[0]
    assert vb.cnd_check(v, pts, tol=1e-8).passed
    sites = vb.PointSet(pts.coords, np.arange(8.0))
    with pytest.raises(DegenerateSystemError):
        vb.ordinary_kriging(v, sites, np.array([0.5, 0.5]))


# ----------------------------------------------------------------------
# command line

def test_construct_shows_the_certificate(capsys):
    recipe = json.dumps({"constructor": "wendland",
                         "args": {"r": 1.0, "l": 2, "d": 2}})
    assert main(["construct", "--model", recipe]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is True
    assert payload["model"]["certificate"] == (
        "wendland_profile of |A xi|: covariance for d <= 3")


def test_validate_reports_a_forged_model_as_uncertified(capsys, tmp_path):
    """1 - |xi|^2 flagged certified in its JSON: reported uncertified, and
    the oracle rejects it."""
    forged = vb.model_to_json(vb.covariance_from_variogram(
        vb.make_variogram(vb.catalog("power", {"a": 1.0}), d=2), sill=1.0))
    forged["certified"] = True
    sites = tmp_path / "sites.csv"
    vb.write_points_csv(seeded_sets(1, 6, 2, seed=5, box=3.0)[0], sites)
    code = main(["validate", "--model", json.dumps(forged), "--checks", "pd",
                 "--points", str(sites)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["model"]["certified"] is False
    assert payload["config"]["model"]["certificate"] is None
    assert code == 1 and payload["verdict"] == "fail"
