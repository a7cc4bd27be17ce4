"""Model constructors: values against closed forms, certification flags,
construction gates, JSON round trips.
"""

import math

import numpy as np
import pytest

import variobern as vb
from variobern.errors import ConstructionError, ParameterError

from conftest import certified_variogram_zoo, covariance_catalog, seeded_sets


def norms(lags):
    return np.sqrt((np.asarray(lags) ** 2).sum(axis=-1))


# ----------------------------------------------------------------------
# make_variogram

def test_make_variogram_values_and_flag():
    v = vb.make_variogram(vb.catalog("power", {"a": 0.5}), d=2)
    assert v.certified and v.mode == "squared_norm"
    lags = np.array([[0.0, 0.0], [3.0, 4.0], [-1.0, 1.0]])
    assert np.allclose(v(lags), [0.0, 5.0, math.sqrt(2.0)], rtol=1e-14)


def test_make_variogram_norm_mode_not_certified():
    v = vb.make_variogram(vb.catalog("power", {"a": 1.0}), d=1, mode="norm")
    assert not v.certified
    assert np.allclose(v(np.array([[2.0]])), [2.0])


def test_make_variogram_untagged_profile_not_certified():
    assert not vb.make_variogram(vb.catalog("one_minus_cos"), d=1).certified


def test_make_variogram_mode_gate():
    with pytest.raises(ParameterError, match="mode"):
        vb.make_variogram(vb.catalog("log1p"), mode="radius")


def test_anisotropy_values():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    v = vb.make_variogram(vb.catalog("power", {"a": 0.5}), A=a, d=2)
    lags = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(v(lags), [2.0, 1.0, math.sqrt(5.0)], rtol=1e-14)


def test_anisotropy_gates():
    with pytest.raises(ParameterError, match="2x2"):
        vb.make_variogram(vb.catalog("log1p"), A=np.eye(3), d=2)
    with pytest.raises(ParameterError, match="finite"):
        vb.make_variogram(vb.catalog("log1p"), A=[[np.inf]], d=1)
    v = vb.make_variogram(vb.catalog("log1p"), d=2)
    with pytest.raises(ParameterError, match="trailing"):
        v(np.zeros((4, 3)))


@pytest.mark.parametrize("mode", ["squared_norm", "norm"])
def test_isotropic_radial_argument_keeps_the_bits_of_the_identity_product(mode):
    """A = I skips the product with A; r^2 is bitwise what lag @ I gives."""
    rng = np.random.default_rng(5)
    lags = np.concatenate([rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-8, 8, (50, 1)),
                           [[-0.0, 0.0, -0.0], [-0.0, 1.5, -2.0], [0.0, -0.0, 3.0]]])
    v = vb.make_variogram(vb.catalog("log1p"), d=3, mode=mode)
    y = lags @ np.eye(3)
    r2 = np.einsum("...i,...i->...", y, y)
    assert np.array_equal(v.radial_argument(lags), r2 if mode == "squared_norm"
                          else np.sqrt(r2))
    assert np.array_equal(np.signbit(v.radial_argument(lags)), np.zeros(len(lags), bool))


def test_radial_argument_applies_a_non_identity_anisotropy():
    c, s = math.cos(0.3), math.sin(0.3)
    lags = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -2.0]])
    for a in ([[2.0, 0.0], [0.0, 1.0]], [[c, -s], [s, c]]):
        a = np.array(a)
        v = vb.make_variogram(vb.catalog("log1p"), A=a, d=2)
        y = lags @ a.T
        assert np.array_equal(v.radial_argument(lags), np.einsum("...i,...i->...", y, y))
    v = vb.make_variogram(vb.catalog("log1p"), A=[[2.0, 0.0], [0.0, 1.0]], d=2)
    assert np.array_equal(v.radial_argument(lags), [4.0, 1.0, 8.0])


def test_norm_profile_matches_call():
    v = vb.make_variogram(vb.catalog("log1p"), d=2)
    r = np.linspace(0.0, 4.0, 9)
    lags = np.stack([r, np.zeros_like(r)], axis=-1)
    assert np.allclose(v.norm_profile(r), v(lags), rtol=1e-14)


# ----------------------------------------------------------------------
# product variograms

def test_ma_product_closed_form():
    v = vb.ma_product(0.5, 2.0, d=2)
    assert v.certified
    lags = np.array([[1.0, 1.0], [0.0, 0.5], [3.0, -4.0]])
    r = norms(lags)
    want = -np.expm1(-0.5 * r) * -np.expm1(-2.0 * r)
    assert np.allclose(v(lags), want, rtol=1e-12)
    assert float(v(np.zeros((1, 2)))[0]) == 0.0


def test_ma_product_rate_gate():
    with pytest.raises(ParameterError, match="nonnegative"):
        vb.ma_product(-0.1, 1.0)


def test_ma_product_limit_recovers_absolute_value():
    """(1 - e^(-a r)) / a -> r with error O(a), uniformly on [0, 5]."""
    r = np.linspace(0.0, 5.0, 101)
    lags = r[:, None]
    errs = []
    for a in (1.0, 0.1, 0.01):
        prof = vb.affine(vb.catalog("exp_one_minus", {"a": a}), scale=1.0 / a)
        v = vb.make_variogram(prof, d=1, mode="norm")
        err = float(np.abs(v(lags) - r).max())
        # sup |(1 - e^(-a r))/a - r| <= a r^2 / 2 <= 12.5 a on [0, 5]
        assert err <= 12.5 * a
        errs.append(err)
    assert errs[2] < errs[1] < errs[0]


def test_schur_product_closed_form():
    g1 = vb.catalog("exp_one_minus", {"a": 1.0})
    g2 = vb.catalog("exp_one_minus", {"a": 2.0})
    v = vb.schur_product_extended(g1, g2, 0.25, 0.5, d=1)
    assert v.certified
    x = np.array([[0.3], [1.7], [4.0]])
    x2 = (x[:, 0]) ** 2
    want = -np.expm1(-x2 ** 0.25) * -np.expm1(-2.0 * x2 ** 0.5)
    assert np.allclose(v(x), want, rtol=1e-12)


def test_schur_product_zero_exponent_freezes_factor():
    g1 = vb.catalog("exp_one_minus", {"a": 1.0})
    g2 = vb.catalog("exp_one_minus", {"a": 2.0})
    v = vb.schur_product_extended(g1, g2, 0.0, 0.5, d=1)
    x = np.array([[2.0]])
    want = -np.expm1(-1.0) * -np.expm1(-2.0 * 2.0)
    assert np.allclose(v(x), want, rtol=1e-12)


def test_schur_product_exponent_gates():
    g = vb.catalog("exp_one_minus", {"a": 1.0})
    with pytest.raises(ParameterError, match=r"alpha \+ beta <= 1"):
        vb.schur_product_extended(g, g, 0.9, 0.9)
    with pytest.raises(ParameterError, match=r"\[0, 1\]"):
        vb.schur_product_extended(g, g, -0.1, 0.5)


def test_schur_product_unverified_without_bernstein_factors():
    g = vb.catalog("one_minus_cos")
    v = vb.schur_product_extended(g, g, 0.25, 0.25)
    assert not v.certified


# ----------------------------------------------------------------------
# complete-Bernstein derived variograms

def test_cbf_ratio_values():
    v = vb.cbf_variograms(vb.catalog("log1p"), "ratio", d=1)
    assert v.certified
    x = np.array([[1.0], [2.0], [3.0]])
    x2 = x[:, 0] ** 2
    assert np.allclose(v(x), x2 / np.log1p(x2), rtol=1e-12)


def test_cbf_inv_arg_values():
    # g(x) = x/(1+x): 1 / g(1/x) = 1 + x
    v = vb.cbf_variograms(vb.catalog("frac_linear", {"lam": 1.0}), "inv_arg")
    assert v.certified
    x = np.array([[0.5], [1.5]])
    assert np.allclose(v(x), 1.0 + x[:, 0] ** 2, rtol=1e-12)


def test_cbf_inv_arg_ratio_values():
    # x * g(1/x) = x/(1+x) for the fractional-linear profile
    v = vb.cbf_variograms(vb.catalog("frac_linear", {"lam": 1.0}),
                          "inv_arg_ratio")
    assert v.certified
    x = np.array([[0.5], [2.0]])
    x2 = x[:, 0] ** 2
    assert np.allclose(v(x), x2 / (1.0 + x2), rtol=1e-12)


def test_cbf_variograms_gates():
    with pytest.raises(ParameterError, match="which"):
        vb.cbf_variograms(vb.catalog("log1p"), "dual")
    with pytest.raises(ConstructionError):
        vb.cbf_variograms(vb.catalog("const", {"c": 0.0}), "ratio")


def test_composition_two_factor_values():
    g1 = vb.catalog("frac_linear", {"lam": 1.0})
    g2 = vb.catalog("log1p")
    v = vb.composition_products(g1, g2, which="two_factor", d=1)
    assert v.certified
    x = np.array([[0.7], [1.9]])
    x2 = x[:, 0] ** 2
    want = x2 / (1.0 + x2) * np.log1p(1.0 + x2)
    assert np.allclose(v(x), want, rtol=1e-12)


def test_composition_three_factor_values():
    g1 = vb.catalog("frac_linear", {"lam": 1.0})
    g2 = vb.catalog("log1p")
    g3 = vb.catalog("power", {"a": 0.5})
    v = vb.composition_products(g1, g2, g3, which="three_factor", d=1)
    assert v.certified
    x = np.array([[1.3]])
    x2 = x[0, 0] ** 2
    want = math.sqrt(x2 / (1.0 + x2)) * math.log1p(1.0 + x2)
    assert float(v(x)[0]) == pytest.approx(want, rel=1e-12)


def test_composition_gates():
    g = vb.catalog("log1p")
    with pytest.raises(ParameterError, match="g3"):
        vb.composition_products(g, g, which="three_factor")
    with pytest.raises(ParameterError, match="which"):
        vb.composition_products(g, g, which="four_factor")


def test_composition_two_factor_refuses_g3():
    """two_factor has no third factor, so a given g3 is an error, not
    dropped while the construction string still names it."""
    g = vb.catalog("log1p")
    with pytest.raises(ParameterError, match="two_factor takes no g3"):
        vb.composition_products(g, g, vb.catalog("power", {"a": 0.5}),
                                which="two_factor")


# ----------------------------------------------------------------------
# compactly supported and classical families

def test_wendland_values_and_support():
    c = vb.wendland(2.0, 3, d=3)
    assert c.certified and c.support_radius == 2.0 and c.sill == 1.0
    lags = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                     [1.5, 1.5, 1.5]])
    want = np.array([1.0, (1.0 - 0.5) ** 3, 0.0, 0.0])
    assert np.allclose(c(lags), want, atol=0)


@pytest.mark.parametrize("d", range(1, 7))
def test_wendland_exponent_bound_by_dimension(d):
    bound = d // 2 + 1
    ok = vb.wendland(1.0, bound, d=d)
    assert ok.certified
    if bound > 1:
        with pytest.raises(ParameterError) as err:
            vb.wendland(1.0, bound - 1, d=d)
        assert f"floor(d/2)+1 = {bound}" in str(err.value)


def test_wendland_nan_exponent_is_a_parameter_error():
    with pytest.raises(ParameterError, match=r"parameter 'l' must satisfy 1 <= integer l \(got nan\)"):
        vb.wendland(1.0, float("nan"), 2)


def test_wendland_rejects_fractional_exponent():
    with pytest.raises(ParameterError, match="integer"):
        vb.wendland(1.0, 2.5, d=2)
    with pytest.raises(ParameterError, match="positive"):
        vb.wendland(-1.0, 2, d=2)


def test_spherical_plateau_and_certification():
    v = vb.spherical(1.5, d=2)
    assert v.certified
    r = np.array([0.0, 0.75, 1.5, 4.0])
    lags = np.stack([r, np.zeros_like(r)], axis=-1)
    vals = v(lags)
    assert vals[0] == 0.0
    assert vals[2] == 1.0 and vals[3] == 1.0
    # certification stops past dimension three but evaluation still works
    v4 = vb.spherical(1.5, d=4)
    assert not v4.certified


def test_spherical_covariance_complements_variogram():
    c = vb.spherical_covariance(1.0, d=2)
    v = vb.spherical(1.0, d=2)
    lags = np.array([[0.0, 0.0], [0.3, 0.4], [2.0, 0.0]])
    assert np.allclose(c(lags) + v(lags), 1.0, rtol=1e-14)
    assert c.support_radius == 1.0
    assert float(c(np.array([[5.0, 0.0]]))[0]) == 0.0


def test_exponential_covariance_closed_form():
    c = vb.exponential_covariance(0.8, d=2)
    assert c.certified and math.isinf(c.support_radius)
    lags = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert np.allclose(c(lags), [1.0, math.exp(-4.0)], rtol=1e-13)
    with pytest.raises(ParameterError):
        vb.exponential_covariance(0.0)


def test_matern_half_matches_exponential():
    m = vb.matern_covariance(1.0, 0.5, d=2)
    e = vb.exponential_covariance(1.0, d=2)
    lags = np.array([[0.5, 0.5], [1.0, -2.0], [4.0, 3.0]])
    assert np.allclose(m(lags), e(lags), rtol=1e-12)


def test_matern_smoothness_changes_shape():
    rough = vb.matern_covariance(1.0, 0.5, d=1)
    smooth = vb.matern_covariance(1.0, 2.5, d=1)
    h = np.array([[0.1]])
    # higher nu means a flatter covariance near the origin
    assert float(smooth(h)[0]) > float(rough(h)[0])


# ----------------------------------------------------------------------
# variogram / covariance conversions

def test_variogram_from_covariance_round_trip():
    for name, c, d in covariance_catalog():
        v = vb.variogram_from_covariance(c)
        assert v.certified == c.certified
        lags = np.linspace(-2.0, 2.0, 7).reshape(-1, 1) * np.ones(d)
        assert np.allclose(v(lags) + c(lags), c.sill, rtol=1e-12), name
        back = vb.covariance_from_variogram(v, sill=c.sill,
                                            support_radius=c.support_radius)
        assert np.allclose(back(lags), c(lags), atol=1e-15), name
        assert back.support_radius == c.support_radius


def test_covariance_from_variogram_gate():
    v = vb.spherical(1.0, d=1)
    with pytest.raises(ParameterError, match="sill"):
        vb.covariance_from_variogram(v, sill=-1.0)


# ----------------------------------------------------------------------
# JSON round trips

def test_model_json_round_trip_variograms():
    lags = np.array([[0.0, 0.0], [0.4, -1.2], [2.5, 0.1]])
    for name, v in certified_variogram_zoo():
        back = vb.model_from_json(vb.model_to_json(v))
        assert isinstance(back, vb.Variogram), name
        assert back.certified == v.certified, name
        assert back.mode == v.mode and back.d == v.d
        assert np.array_equal(back(lags), v(lags)), name


def test_model_json_round_trip_covariances():
    for name, c, d in covariance_catalog():
        j = vb.model_to_json(c)
        assert j["type"] == "covariance"
        if math.isinf(c.support_radius):
            assert j["support_radius"] is None
        back = vb.model_from_json(j)
        assert isinstance(back, vb.StationaryCovariance), name
        assert back.sill == c.sill
        assert back.support_radius == c.support_radius
        lags = np.zeros((2, d))
        lags[1] = 0.7
        assert np.array_equal(back(lags), c(lags)), name


def test_model_json_errors():
    with pytest.raises(ParameterError, match="missing"):
        vb.model_from_json({"mode": "norm", "d": 1})
    j = vb.model_to_json(vb.spherical(1.0, d=1))
    j["type"] = "drift"
    with pytest.raises(ParameterError, match="unknown model type"):
        vb.model_from_json(j)


_MODEL_KEYS = ("type, profile, mode, A, d, certified, certificate, construction, "
               "support_radius, sill")


@pytest.mark.parametrize("right, typo", [
    ("support_radius", "suport_radius"), ("A", "a"), ("type", "tpye"),
])
def test_model_json_refuses_a_misspelt_key(right, typo):
    """Each typo used to load another model: a spherical covariance with
    infinite support, an isotropic model, and a variogram."""
    j = vb.model_to_json(vb.spherical_covariance(1.0, d=2, A=np.diag([2.0, 1.0])))
    j[typo] = j.pop(right)
    with pytest.raises(ParameterError, match=rf"^model JSON has unknown key\(s\) '{typo}'; "
                                             rf"it takes {_MODEL_KEYS}$"):
        vb.model_from_json(j)


def test_model_json_needs_its_type_and_only_its_type_keys():
    j = vb.model_to_json(vb.spherical(1.0, d=2))
    del j["type"]
    with pytest.raises(ParameterError, match="missing the 'type' field"):
        vb.model_from_json(j)
    v = vb.model_to_json(vb.spherical(1.0, d=2))
    with pytest.raises(ParameterError, match="unknown key\\(s\\) 'support_radius'"):
        vb.model_from_json({**v, "support_radius": 1.0})


# ----------------------------------------------------------------------
# the zoo is actually certified and actually permissible

def test_zoo_flags():
    for name, v in certified_variogram_zoo():
        assert v.certified, name


def test_zoo_passes_axioms_on_seeded_sites():
    for name, v in certified_variogram_zoo():
        for pts in seeded_sets(2, 8, v.d, seed=7):
            rep = vb.variogram_axioms(v, pts, tol=1e-8)
            assert rep.passed, (name, rep.to_json())


def test_covariance_catalog_positive_definite():
    for name, c, d in covariance_catalog():
        for pts in seeded_sets(2, 8, d, seed=11, box=4.0):
            rep = vb.pd_check(c, pts, tol=1e-8)
            assert rep.passed, name


def test_squared_norm_constructors_certify_exactly_the_bf_tag():
    """The four squared-norm constructors certify through make_variogram,
    so the flag is the BF tag of the profile they build, covered or not."""
    bf = [vb.catalog("log1p"), vb.catalog("exp_one_minus", {"a": 1.5}),
          vb.catalog("frac_linear", {"lam": 1.0})]
    other = [vb.catalog("sine"), vb.catalog("one_minus_cos")]
    models = [vb.ma_product(a1, a2, d=2) for a1, a2 in ((1.0, 2.0), (0.0, 0.5))]
    for g1 in bf + other:
        for g2 in bf + other:
            models.append(vb.schur_product_extended(g1, g2, 0.5, 0.25, d=2))
            models.append(vb.composition_products(g1, g2, which="two_factor", d=2))
        for which in ("ratio", "inv_arg", "inv_arg_ratio"):
            models.append(vb.cbf_variograms(g1, which, d=2))
    for m in models:
        assert m.mode == "squared_norm"
        assert m.certified == ("BF" in vb.infer_class(m.profile)), m.construction
    assert {m.certified for m in models} == {True, False}


# ----------------------------------------------------------------------
# the sill is C(0), computed from the profile

def test_sill_is_the_profile_at_radius_zero():
    for name, c, d in covariance_catalog():
        assert c.sill == float(c.norm_profile(0.0)) == float(c(np.zeros((1, d)))[0]), name
    c = vb.covariance_from_variogram(vb.spherical(1.0, d=2), sill=2.5)
    assert c.sill == 2.5


def test_sill_is_not_a_constructor_argument():
    c = vb.exponential_covariance(1.0, d=2)
    with pytest.raises(TypeError, match="sill"):
        vb.StationaryCovariance(profile=c.profile, mode=c.mode, anisotropy=None,
                                d=2, sill=2.0)


def test_model_json_ignores_and_omits_the_sill():
    c = vb.exponential_covariance(1.0, d=2)
    j = vb.model_to_json(c)
    assert "sill" not in j
    rng = np.random.default_rng(3)
    pts = vb.PointSet(rng.uniform(0, 3, (12, 2)), rng.normal(size=12))
    targets = rng.uniform(0, 3, (5, 2))
    variances = []
    for sill in (5.0, 1.0):
        back = vb.model_from_json({**j, "sill": sill})
        assert back.sill == 1.0 and back.certified
        variances.append([r.variance for r in vb.krige_many(back, pts, targets)])
    assert variances[0] == variances[1]


@pytest.mark.parametrize("build, message", [
    (lambda: vb.make_variogram(vb.catalog("power", {"a": 1.0}), d=0),
     "dimension must be >= 1"),
    (lambda: vb.model_from_json([{"type": "variogram"}]), "model JSON must be an object"),
])
def test_model_errors_name_the_input(build, message):
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == message
