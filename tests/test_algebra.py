"""Expression algebra: atom numerics, cone certificates, combinators, JSON.

Reference values are frozen from closed forms (checked against mpmath at 30
digits where special functions are involved).
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import variobern as vb
from variobern.atoms import COMPLEX_ATOMS, REGISTRY
from variobern.cli import _sample_params
from variobern.errors import (
    ConstructionError,
    EvaluationError,
    ParameterError,
    QuadratureError,
)

RT = 1e-12


# ----------------------------------------------------------------------
# atom numerics

@pytest.mark.parametrize("name,params,x,want", [
    ("matern", {"alpha": 1.0, "nu": 0.5}, 1.0, 1.0 - math.exp(-1.0)),
    ("matern", {"alpha": 2.0, "nu": 1.5}, 2.3, 0.805748666564361),
    ("cauchy", {"alpha": 0.5, "beta": 1.0}, 4.0, 2.0 / 3.0),
    ("dagum", {"rho": 0.5, "gamma": 0.5}, 4.0, (2.0 / 3.0) ** 0.5),
    ("sqrt_arctan", {}, 4.0, 2.0 * math.atan(0.5)),
    ("frac_linear", {"lam": 2.0}, 3.0, 1.2),
    ("log1p", {}, 3.0, math.log(4.0)),
    ("power", {"a": 0.5}, 9.0, 3.0),
    ("exp_one_minus", {"a": 2.0}, 1.0, 1.0 - math.exp(-2.0)),
    ("exp_decay", {"a": 1.0}, 2.0, math.exp(-2.0)),
    ("cm_pole_example", {}, 2.0, 0.1),
    ("euler_gap", {}, 1.7, 0.25891219856824166),
    ("sinh_ratio", {}, 2.0, 0.48201379003790845),
    ("recip", {}, 4.0, 0.25),
    ("const", {"c": 2.5}, 7.0, 2.5),
])
def test_atom_values(name, params, x, want):
    got = float(vb.evaluate(vb.catalog(name, params), x))
    assert got == pytest.approx(want, rel=1e-13)


def test_gamma_tail_value():
    # x^(1-nu) e^(ax) Gamma(nu; ax), mpmath reference at nu=a=1/2, x=2
    gt = vb.catalog("gamma_tail", {"nu": 0.5, "a": 0.5})
    assert float(vb.evaluate(gt, 2.0)) == pytest.approx(1.0717930817599557,
                                                        rel=1e-12)


def test_matern_against_exponential_identity():
    """nu = 1/2 collapses the Bessel formula to 1 - e^(-alpha sqrt(x))."""
    f = vb.catalog("matern", {"alpha": 1.3, "nu": 0.5})
    x = np.linspace(0.01, 50.0, 200)
    want = 1.0 - np.exp(-1.3 * np.sqrt(x))
    assert np.allclose(vb.evaluate(f, x), want, rtol=1e-12)


def test_matern_small_argument_series():
    # the direct product 0 * inf at tiny z must not produce NaN
    f = vb.catalog("matern", {"alpha": 1.0, "nu": 1.5})
    vals = vb.evaluate(f, np.array([1e-30, 1e-16, 1e-8]))
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)


# x = z^2 for 17 log-spaced z = alpha sqrt(x) in [1e-4, 700] (alpha = 1), and
# 1 - 2^(1-nu)/Gamma(nu) z^nu K_nu(z) there from mpmath at 40 digits
MATERN_X = (1e-08, 7.171950030229159e-08, 5.143686723610402e-07, 3.6890264152886938e-06,
            2.6457513110645906e-05, 0.00018975196195368524, 0.001360891589269775,
            0.00976024647480197, 0.07, 0.5020365021160411, 3.600580706527282,
            25.823184907020913, 185.2025917745214, 1328.2637336757941, 9526.241124888427,
            68321.72532361395, 490000.0)
MATERN_REF = {
    0.5: (9.99950001666625e-05, 0.0002677691103619419, 0.0007169378801594865,
          0.0019188405076685062, 0.005130480619444879, 0.013680606691497902,
          0.03621810903140626, 0.09407065325759922, 0.2324680188257072,
          0.5076401081098313, 0.8500599332211521, 0.9937903564822501,
          0.9999987705158818, 0.9999999999999999, 1.0, 1.0, 1.0),
    1.5: (4.9996666791663335e-09, 3.585334851459228e-08, 2.570614016989111e-07,
          1.842153090080185e-06, 1.3183480882456436e-05, 9.400918438925856e-05,
          0.0006639404878059537, 0.004570305877162159, 0.0293981442781184,
          0.15878079996841843, 0.5655457147536224, 0.9622351103897737,
          0.9999820385699265, 0.9999999999999944, 1.0, 1.0, 1.0),
    2.5: (1.6666666625002223e-09, 1.195324983609226e-08, 8.572810104042534e-08,
          6.148371694237921e-07, 4.4095564316587605e-06, 3.1623837724839624e-05,
          0.00022673959803606094, 0.0016229413061747697, 0.0114890647173849,
          0.0763865873328276, 0.385588610893845, 0.908784186134594,
          0.9999061373548509, 0.9999999999999286, 1.0, 1.0, 1.0),
}


def test_half_integer_matern_is_accurate_to_small_arguments():
    """1 - t for t = 2^(1-nu)/Gamma(nu) z^nu K_nu(z) cancels as z -> 0 (a
    relative error of 1e-7 at z = 1e-4); the closed form for nu = m + 1/2
    does not."""
    for nu, want in MATERN_REF.items():
        got = vb.evaluate(vb.catalog("matern", {"alpha": 1.0, "nu": nu}),
                          np.array(MATERN_X))
        assert np.allclose(got, want, rtol=1e-11, atol=0.0), nu
    # nu = 1/2 is 1 - e^(-z) below z = 1e-4 too, where the series z - z^2/2
    # of the other orders is off by z/6 relative
    x = np.array([1e-16, 1e-12, 1e-9])
    got = vb.evaluate(vb.catalog("matern", {"alpha": 1.0, "nu": 0.5}), x)
    assert np.allclose(got, -np.expm1(-np.sqrt(x)), rtol=1e-15, atol=0.0)


def test_matern_of_a_high_half_integer_order():
    """At nu = 200.5, Gamma(nu) overflows the Bessel formula (which read 1
    everywhere) and math.gamma(1 + nu) the small-z series; mpmath reference."""
    f = vb.catalog("matern", {"alpha": 1.0, "nu": 200.5})
    got = vb.evaluate(f, np.array([1e-10, 1.0, 900.0, 1e4, 9e4]))
    want = [1.2531328320801216e-13, 0.001252344038470513, 0.6752305434280055,
            0.999994794196928, 1.0]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nu", [2.0, 3.0, 5.0])
def test_integer_order_matern_series_near_zero(nu):
    """Below z = 1e-4 an integer order nu > 1 takes the series z^2/(4(nu-1)),
    whose worst error there against 40-digit mpmath is 2.5e-8 (nu = 2)."""
    mpmath = pytest.importorskip("mpmath")
    z = np.geomspace(1e-8, 0.999e-4, 17)
    got = vb.evaluate(vb.catalog("matern", {"alpha": 1.0, "nu": nu}), z * z)
    with mpmath.workdps(40):
        want = [float(1 - mpmath.mpf(2) ** (1 - nu) / mpmath.gamma(nu) * mpmath.mpf(t) ** nu
                      * mpmath.besselk(nu, mpmath.mpf(t))) for t in z]
    assert np.allclose(got, want, rtol=5e-8, atol=0.0)


def test_matern_of_other_orders_keeps_the_bessel_formula():
    from scipy import special as sc
    nu = 1.2
    z = np.geomspace(1e-4, 700.0, 60)
    want = 1.0 - 2.0 ** (1.0 - nu) / sc.gamma(nu) * z**nu * sc.kv(nu, z)
    got = vb.evaluate(vb.catalog("matern", {"alpha": 1.0, "nu": nu}), z * z)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


# 40-digit mpmath values of 1 - 2^(1-nu)/Gamma(nu) z^nu K_nu(z), z = sqrt(x)
MATERN_OTHER_X = (0.01, 1.0, 100.0, 1e4)
MATERN_OTHER_REF = {
    150.3: (1.674466797031592537213974466786073006028e-05,
            1.673070312471422006363241110044151628917e-03,
            0.1540996363763923593219517201116503059796,
            0.9999998778727284634625477706830950580183),
    1.2: (8.529967690010705641899635440379471755057e-03,
          0.3352795915481242110090797354648974875641,
          0.9997138270955326206602901958973051157063,
          1.0),
}


@pytest.mark.parametrize("nu", sorted(MATERN_OTHER_REF))
def test_matern_of_orders_that_are_not_half_integers(nu):
    """At nu = 150.3, K_nu(z) overflows for z <= 1, where the Bessel formula
    read exactly 1 (x = 0.01 and x = 1). Debye's expansion in log space
    takes such orders; nu = 1.2 keeps the Bessel formula."""
    f = vb.catalog("matern", {"alpha": 1.0, "nu": nu})
    got = vb.evaluate(f, np.array(MATERN_OTHER_X))
    assert np.allclose(got, MATERN_OTHER_REF[nu], rtol=1e-10, atol=0.0)


# ----------------------------------------------------------------------
# a leading 0 in an atom's input changes none of its other values

FAST_X = np.concatenate([np.geomspace(1e-12, 1e5, 120),
                         np.random.default_rng(3).uniform(0.0, 4.0, 80) + 1e-3])


def _fast_and_masked(e, x):
    """e at x through the fast path, and through the endpoint branch, which a
    leading 0 forces on every atom of e (the 0 dropped again)."""
    lead = np.zeros(1, dtype=x.dtype)
    with np.errstate(all="ignore"):
        return vb.algebra._ev(e, x), vb.algebra._ev(e, np.concatenate([lead, x]))[1:]


def _catalog_samples():
    out = [(name, _sample_params(spec)) for name, spec in REGISTRY.items()]
    # the closed form and the Bessel branch of matern as well
    return out + [("matern", {"alpha": 1.3, "nu": nu}) for nu in (0.5, 1.5, 2.5, 1.2)]


@pytest.mark.parametrize("name,params", _catalog_samples())
def test_atom_fast_path_keeps_the_endpoint_branch_bits(name, params):
    fast, masked = _fast_and_masked(vb.catalog(name, params), FAST_X)
    assert np.array_equal(fast, masked, equal_nan=True)


@pytest.mark.parametrize("build", [
    lambda: vb.compose(vb.catalog("log1p"), vb.catalog("power", {"a": 0.5})),
    lambda: vb.compose(vb.catalog("exp_decay", {"a": 1.0}),
                       vb.catalog("matern", {"alpha": 1.0, "nu": 1.5})),
    lambda: vb.fpow(vb.catalog("cauchy", {"alpha": 0.5, "beta": 1.0}), 0.7),
    lambda: vb.fprod(vb.catalog("sqrt_arctan"), vb.catalog("frac_linear", {"lam": 2.0})),
    lambda: vb.affine(vb.catalog("gamma_tail", {"a": 1.0, "nu": 0.5}), shift=1.5,
                      scale=-0.5),
    lambda: vb.fpow(vb.affine(vb.catalog("exp_one_minus", {"a": 1.0}), scale=2.0), 0.5),
], ids=["compose", "compose_matern", "power", "product", "affine", "power_affine"])
def test_tree_fast_path_keeps_the_endpoint_branch_bits(build):
    fast, masked = _fast_and_masked(build(), FAST_X)
    assert np.array_equal(fast, masked)
    assert np.array_equal(vb.evaluate(build(), FAST_X), fast)


@pytest.mark.parametrize("name", sorted(COMPLEX_ATOMS))
def test_complex_fast_path_keeps_the_endpoint_branch_bits(name):
    f = vb.catalog(name, _sample_params(REGISTRY[name]))
    z = 1j * FAST_X
    fast, masked = _fast_and_masked(f, z)
    assert np.array_equal(fast, masked)
    assert np.array_equal(vb.evaluate_complex(f, z), fast)


# ----------------------------------------------------------------------
# one pass per atom: the body sees the whole array, and the limits overwrite
# its entries at 0 and inf

# both sides of every regime switch: matern's series below z = 1e-4, the
# log_over_gap series below x/a = 1e-4, the asymptotic gamma_tail series from
# a x = 50 (a/x = 50 for gamma_tail_inv)
SWITCH_X = np.concatenate([np.geomspace(1e-14, 1e6, 301),
                           (1e-4 / 1.3) ** 2 * np.array([0.5, 0.999, 1.001, 2.0]),
                           np.array([0.99e-4, 1e-4, 1.01e-4]),
                           np.array([49.0, 49.999, 50.0, 50.001, 51.0])])


def _one_pass_samples():
    out = [(name, _sample_params(spec)) for name, spec in REGISTRY.items()]
    return out + [("matern", {"alpha": 1.3, "nu": nu})
                  for nu in (0.5, 1.0, 1.2, 2.0, 20.3, 60.3)] + [
        ("log_over_gap", {"a": a}) for a in (0.01, 1.0, 30.0)] + [
        ("gamma_tail", {"a": a, "nu": 0.3}) for a in (0.1, 1.0, 30.0)] + [
        ("gamma_tail_inv", {"a": a, "nu": 0.7}) for a in (0.1, 30.0)]


@pytest.mark.parametrize("name,params", _one_pass_samples())
def test_interior_values_do_not_depend_on_limits_in_the_same_array(name, params):
    e, spec = vb.catalog(name, params), REGISTRY[name]
    p, n = e.params_dict, SWITCH_X.size
    with np.errstate(all="ignore"):
        alone = vb.algebra._ev(e, SWITCH_X)
        for lead, tail in (([0.0], []), ([], [np.inf]), ([0.0, np.inf], [np.inf, 0.0])):
            got = vb.algebra._ev(e, np.concatenate([lead, SWITCH_X, tail]))
            k = len(lead)
            assert np.array_equal(got[k:k + n], alone, equal_nan=True)
            limits = [spec.zero(p) if v == 0.0 else spec.inf(p) for v in lead + tail]
            assert np.array_equal(np.concatenate([got[:k], got[k + n:]]), limits,
                                  equal_nan=True)


@pytest.mark.parametrize("name,params", _one_pass_samples())
def test_no_body_returns_its_input_or_a_view_of_it(name, params):
    """The limits are written into the body's result, so a body that handed
    back its argument would overwrite the caller's array."""
    spec = REGISTRY[name]
    p = vb.catalog(name, params).params_dict
    xs = [np.concatenate([[0.0], SWITCH_X, [np.inf]])]
    if name in COMPLEX_ATOMS:
        xs.append(np.concatenate([[0j], 1j * SWITCH_X, [complex(np.inf, 0.0)]]))
    for x in xs:
        with np.errstate(all="ignore"):
            out = spec.body(x, p)
        assert not np.shares_memory(out, x)


@pytest.mark.parametrize("name", sorted(COMPLEX_ATOMS))
def test_complex_atoms_take_their_limits_at_0_and_inf_without_a_warning(name):
    spec = REGISTRY[name]
    f = vb.catalog(name, _sample_params(spec))
    z = np.array([0j, 1.5j, complex(np.inf, 0.0), 0.5 + 2.0j, 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = vb.evaluate_complex(f, z)
        at_zero = vb.evaluate_complex(f, 0j)
    p = f.params_dict
    assert np.array_equal(got[[0, 4]], [spec.zero(p)] * 2)
    assert at_zero == spec.zero(p)
    assert got[2] == spec.inf(p)
    assert np.array_equal(got[[1, 3]], vb.evaluate_complex(f, z[[1, 3]]))


def test_clamp_roundoff_contract():
    clamp = vb.algebra._clamp_roundoff
    got = clamp(np.array([-1e-12, -1e-3, np.nan, -np.inf, 2.0, 0.0]))
    assert np.array_equal(got, [0.0, -1e-3, np.nan, -np.inf, 2.0, 0.0], equal_nan=True)
    v = np.array([0.0, -0.0, 1e-300, 3.5, np.inf])
    got = clamp(v)
    assert np.array_equal(got, v) and np.array_equal(np.signbit(got), np.signbit(v))


def test_wendland_profile_values():
    w = vb.catalog("wendland_profile", {"r": 2.0, "l": 3.0})
    r = np.array([0.0, 1.0, 2.0, 3.0])
    want = np.array([1.0, 0.125, 0.0, 0.0])
    assert np.allclose(vb.evaluate(w, r), want, atol=0)


def test_spherical_profile_plateau():
    s = vb.catalog("spherical_profile", {"range": 2.0})
    r = np.array([0.0, 1.0, 2.0, 5.0])
    want = np.array([0.0, 0.75 - 0.0625, 1.0, 1.0])
    assert np.allclose(vb.evaluate(s, r), want, rtol=1e-15)


def test_atom_parameter_gates():
    with pytest.raises(ParameterError, match="expects parameters"):
        vb.catalog("matern", {"alpha": 1.0})
    with pytest.raises(ParameterError, match="nu"):
        vb.catalog("matern", {"alpha": 1.0, "nu": -1.0})
    with pytest.raises(ParameterError, match="unknown atom"):
        vb.catalog("nope")
    with pytest.raises(ParameterError, match="integer"):
        vb.catalog("wendland_profile", {"r": 1.0, "l": 2.5})


@pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf])
def test_non_finite_integer_parameter_is_a_parameter_error(l):
    with pytest.raises(ParameterError, match="integer l"):
        vb.catalog("wendland_profile", {"r": 1.0, "l": l})


def test_negative_argument_rejected():
    with pytest.raises(EvaluationError):
        vb.evaluate(vb.catalog("log1p"), -1.0)


# ----------------------------------------------------------------------
# cone tags

@pytest.mark.parametrize("name,params,want", [
    ("power", {"a": 0.5}, {"BF", "CBF"}),
    ("exp_one_minus", {"a": 1.0}, {"BF"}),
    ("exp_decay", {"a": 1.0}, {"CM"}),
    ("frac_linear", {"lam": 1.0}, {"BF", "CBF"}),
    ("recip", {}, {"CM", "S"}),
    ("const", {"c": 2.0}, {"BF", "CBF", "CM", "S"}),
    ("one_minus_cos", {}, set()),
    ("cm_pole_example", {}, {"CM"}),
    ("log1p", {}, {"BF", "CBF"}),
    ("euler_gap", {}, {"BF", "CBF"}),
    ("spherical_profile", {"range": 1.0}, set()),
])
def test_atom_tags(name, params, want):
    assert vb.infer_class(vb.catalog(name, params)) == frozenset(want)


def test_completion_rules():
    """CBF implies BF and S implies CM in every derived tag set."""
    for e in vb.cbf_table():
        tags = vb.infer_class(e)
        assert "CBF" in tags and "BF" in tags


def test_compose_tags():
    cbf = vb.catalog("frac_linear", {"lam": 1.0})
    s = vb.catalog("recip")
    bf = vb.catalog("exp_one_minus", {"a": 1.0})
    cm = vb.catalog("exp_decay", {"a": 1.0})
    assert vb.infer_class(vb.compose(cbf, cbf)) == {"BF", "CBF"}
    assert vb.infer_class(vb.compose(s, s)) == {"BF", "CBF"}
    # mixed complete-Bernstein/Stieltjes composition lands in Stieltjes:
    # x/(1+x) o 1/x = 1/(1+x) is decreasing, so it cannot be Bernstein
    assert vb.infer_class(vb.compose(cbf, s)) == {"CM", "S"}
    assert vb.infer_class(vb.compose(s, cbf)) == {"CM", "S"}
    assert vb.infer_class(vb.compose(cm, bf)) == {"CM"}
    assert vb.infer_class(vb.compose(bf, bf)) == {"BF"}


def test_mixed_compose_value_is_decreasing():
    # the witness behind the mixed-composition rule
    h = vb.compose(vb.catalog("frac_linear", {"lam": 1.0}), vb.catalog("recip"))
    x = np.linspace(0.1, 10, 50)
    vals = vb.evaluate(h, x)
    assert np.allclose(vals, 1.0 / (1.0 + x), rtol=1e-14)
    assert np.all(np.diff(vals) < 0)


def test_power_tags():
    bf = vb.catalog("exp_one_minus", {"a": 1.0})
    cbf = vb.catalog("frac_linear", {"lam": 1.0})
    s = vb.catalog("recip")
    assert vb.infer_class(vb.fpow(bf, 0.7)) == {"BF"}
    assert vb.infer_class(vb.fpow(cbf, 0.7)) == {"BF", "CBF"}
    assert vb.infer_class(vb.fpow(cbf, -1.0)) == {"CM", "S"}
    assert vb.infer_class(vb.fpow(s, -1.0)) == {"BF", "CBF"}
    # exponents past 1 carry no certificate
    assert vb.infer_class(vb.fpow(bf, 1.8)) == set()


def test_sum_product_tags():
    cbf = vb.catalog("frac_linear", {"lam": 1.0})
    s = vb.catalog("recip")
    cm1 = vb.catalog("exp_decay", {"a": 1.0})
    cm2 = vb.catalog("cm_pole_example")
    assert vb.infer_class(vb.fsum(cbf, cbf)) == {"BF", "CBF"}
    assert vb.infer_class(vb.fsum(cbf, s)) == set()
    assert vb.infer_class(vb.fprod(cm1, cm2)) == {"CM"}
    assert vb.infer_class(vb.fprod(cbf, cbf)) == set()


def test_affine_preserves_tags():
    cbf = vb.catalog("frac_linear", {"lam": 1.0})
    assert vb.infer_class(vb.affine(cbf, shift=0.5, scale=2.0)) == {"BF", "CBF"}
    # a negative coefficient leaves every cone, so no certificate survives
    assert vb.infer_class(vb.affine(cbf, shift=0.0, scale=-1.0)) == set()
    assert vb.infer_class(vb.affine(cbf, shift=-0.1, scale=1.0)) == set()


# ----------------------------------------------------------------------
# combinator values

def test_combine_values():
    f = vb.catalog("frac_linear", {"lam": 1.0})
    g = vb.catalog("sqrt_arctan")
    x = np.linspace(0.2, 20, 17)
    fv, gv = vb.evaluate(f, x), vb.evaluate(g, x)
    pm = vb.evaluate(vb.combine(f, g, "power_mean", 0.5), x)
    assert np.allclose(pm, (np.sqrt(fv) + np.sqrt(gv)) ** 2, rtol=1e-12)
    apm = vb.evaluate(vb.combine(f, g, "arg_power_mean", 0.5), x)
    want = (vb.evaluate(f, np.sqrt(x)) + vb.evaluate(g, np.sqrt(x))) ** 2
    assert np.allclose(apm, want, rtol=1e-12)
    sp = vb.evaluate(vb.combine(f, g, "split_power", 0.25), x)
    want = vb.evaluate(f, x ** 0.25) * vb.evaluate(g, x ** 0.75)
    assert np.allclose(sp, want, rtol=1e-12)
    ge = vb.evaluate(vb.combine(f, g, "geometric", 0.25), x)
    assert np.allclose(ge, fv ** 0.25 * gv ** 0.75, rtol=1e-12)


def test_combine_tags_and_gates():
    f = vb.catalog("frac_linear", {"lam": 1.0})
    g = vb.catalog("log1p")
    for rule, alpha in (("power_mean", -0.5), ("arg_power_mean", 1.0),
                        ("split_power", 0.3), ("geometric", 0.5)):
        assert "CBF" in vb.infer_class(vb.combine(f, g, rule, alpha))
    with pytest.raises(ParameterError, match="alpha"):
        vb.combine(f, g, "power_mean", 0.0)
    with pytest.raises(ParameterError, match="alpha"):
        vb.combine(f, g, "split_power", 1.5)
    with pytest.raises(ParameterError, match="unknown combine rule"):
        vb.combine(f, g, "harmonic", 0.5)


def test_geometric_limit_of_power_mean():
    """2^(-1/a) (f^a + g^a)^(1/a) -> sqrt(fg) as a -> 0."""
    f = vb.catalog("frac_linear", {"lam": 1.0})
    g = vb.catalog("sqrt_arctan")
    x = np.linspace(0.3, 30.0, 10)
    want = np.sqrt(vb.evaluate(f, x) * vb.evaluate(g, x))
    for a, bound in ((1e-2, 1e-3), (1e-3, 1e-4)):
        got = vb.evaluate(vb.combine(f, g, "power_mean", a), x) * 2.0 ** (-1.0 / a)
        assert np.abs(got - want).max() < bound


def test_uchiyama_value_and_tags():
    f = vb.catalog("log1p")
    g1 = vb.catalog("frac_linear", {"lam": 1.0})
    g2 = vb.catalog("sqrt_arctan")
    h = vb.uchiyama(f, g1, g2)
    assert "CBF" in vb.infer_class(h)
    x = np.linspace(0.5, 5.0, 9)
    want = vb.evaluate(f, vb.evaluate(g1, x)) * \
        vb.evaluate(g2, x / vb.evaluate(g1, x))
    assert np.allclose(vb.evaluate(h, x), want, rtol=1e-12)


def test_uchiyama_rejects_vanishing_inner():
    zero = vb.catalog("const", {"c": 0.0})
    with pytest.raises(ConstructionError):
        vb.uchiyama(vb.catalog("log1p"), zero, vb.catalog("log1p"))


def test_dualize_values():
    g = vb.catalog("log1p")
    x = np.linspace(0.5, 8.0, 7)
    rat = vb.evaluate(vb.dualize(g, "x_over_f"), x)
    assert np.allclose(rat, x / np.log1p(x), rtol=1e-13)
    fox = vb.evaluate(vb.dualize(g, "f_over_x"), x)
    assert np.allclose(fox, np.log1p(x) / x, rtol=1e-13)
    rec = vb.evaluate(vb.dualize(g, "reciprocal"), x)
    assert np.allclose(rec, 1.0 / np.log1p(x), rtol=1e-13)
    with pytest.raises(ParameterError, match="rule"):
        vb.dualize(g, "flip")


def test_dualize_tags():
    g = vb.catalog("log1p")  # CBF
    assert "CBF" in vb.infer_class(vb.dualize(g, "x_over_f"))
    assert "S" in vb.infer_class(vb.dualize(g, "f_over_x"))
    assert "S" in vb.infer_class(vb.dualize(g, "reciprocal"))
    s = vb.catalog("recip")
    assert "CBF" in vb.infer_class(vb.dualize(s, "reciprocal"))


def test_ratio_endpoint_limit():
    # x/log(1+x) -> 1 as x -> 0: the 0/0 endpoint is substituted, not NaN
    rat = vb.dualize(vb.catalog("log1p"), "x_over_f")
    assert float(vb.evaluate(rat, 0.0)) == pytest.approx(1.0, abs=1e-9)


def test_evaluate_on_matrix_arguments():
    f = vb.catalog("log1p")
    x = np.linspace(0.0, 5.0, 12).reshape(3, 4)
    assert vb.evaluate(f, x).shape == (3, 4)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.01, 90.0))
def test_fpow_matches_float_power(a, x):
    f = vb.catalog("log1p")
    got = float(vb.evaluate(vb.fpow(f, a), x))
    assert got == pytest.approx(float(np.log1p(x)) ** a, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 50.0))
def test_compose_matches_nesting(x):
    f = vb.catalog("sqrt_arctan")
    g = vb.catalog("frac_linear", {"lam": 2.0})
    got = float(vb.evaluate(vb.compose(f, g), x))
    want = float(vb.evaluate(f, float(vb.evaluate(g, x))))
    assert got == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# Levy representations

def test_levy_round_trip_density():
    f = vb.catalog("log1p")
    x = np.array([0.0, 0.5, 2.0, 10.0])
    got = vb.levy_eval(f.levy, x)
    assert np.allclose(got, vb.evaluate(f, x), rtol=1e-8, atol=1e-10)


def test_levy_round_trip_atoms():
    f = vb.catalog("exp_one_minus", {"a": 1.5})
    x = np.array([0.0, 1.0, 3.0])
    got = vb.levy_eval(f.levy, x)
    assert np.allclose(got, vb.evaluate(f, x), rtol=1e-12)


def test_levy_triple_validation():
    with pytest.raises(ParameterError):
        vb.LevyTriple(drift=-1.0, constant=0.0, atoms=(), density=None)
    with pytest.raises(ParameterError):
        vb.LevyTriple(drift=0.0, constant=0.0, atoms=((1.0, -2.0),),
                      density=None)


def test_levy_non_integrable_density_rejected():
    # m(t) ~ 1/t^2 makes the min(t, 1) moment diverge at the origin
    bad = vb.fprod(vb.catalog("recip"), vb.catalog("recip"))
    triple = vb.LevyTriple(drift=0.0, constant=0.0, atoms=(), density=bad)
    with pytest.raises(ParameterError):
        vb.levy_eval(triple, 1.0)


LEVY_X = np.logspace(-3, 3, 25)


@pytest.mark.parametrize("f, closed", [
    (vb.catalog("log1p"), np.log1p),
    *[(vb.catalog("power", {"a": a}), lambda x, a=a: x**a) for a in (0.25, 0.5, 0.75)],
    (vb.catalog("frac_linear", {"lam": 0.7}), lambda x: 0.7 * x / (0.7 + x)),
], ids=["log1p", "power_0.25", "power_0.5", "power_0.75", "frac_linear_0.7"])
def test_levy_density_integral_matches_the_closed_form(f, closed):
    got = vb.levy_eval(f.levy, LEVY_X)
    assert np.max(np.abs(got - closed(LEVY_X)) / closed(LEVY_X)) <= 1e-10


@pytest.mark.parametrize("a", [0.01, 0.99])
def test_levy_integral_of_a_nearly_singular_power_density(a):
    """m(t) ~ t^(-1-a) is barely integrable at 0 for a near 1 and at inf
    for a near 0; the geometric rests of the dyadic pieces carry it."""
    f = vb.catalog("power", {"a": a})
    got = vb.levy_eval(f.levy, LEVY_X)
    assert np.max(np.abs(got - LEVY_X**a) / LEVY_X**a) <= 1e-8


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_levy_integral_follows_the_density_far_from_the_unit_scale(lam):
    """frac_linear's density lam^2 e^(-lam t) puts its mass near t = 1/lam."""
    f = vb.catalog("frac_linear", {"lam": lam})
    x = lam * LEVY_X
    got = vb.levy_eval(f.levy, x)
    assert np.max(np.abs(got - vb.evaluate(f, x)) / vb.evaluate(f, x)) <= 1e-10


# every atom with a catalog triple: its sample parameters first, then values
# at or near each edge of its ParamSpec (const's triple needs c >= 0), and
# the worst relative gap |levy_eval - evaluate| / |evaluate| allowed on
# LEVY_X, from the first measured run (0, 0, 4.5e-10, 3.1e-16, 7.1e-11):
# atoms and constants reuse the atom's own formula, densities take quadrature
_TRIPLE_AUDIT = {
    "const": ([{"c": 1.0}, {"c": 0.0}, {"c": 1e6}], 0.0),
    "exp_one_minus": ([{"a": 1.0}, {"a": 0.0}, {"a": 1e-6}, {"a": 1e6}], 0.0),
    "frac_linear": ([{"lam": 1.0}, {"lam": 1e-6}, {"lam": 1e6}], 1e-9),
    "log1p": ([{}], 1e-15),
    "power": ([{"a": 1.0}, {"a": 0.01}, {"a": 0.5}, {"a": 0.99}], 2e-10),
}


def test_the_triple_audit_covers_every_atom_with_a_triple():
    assert set(_TRIPLE_AUDIT) == {n for n, spec in REGISTRY.items() if spec.levy is not None}
    for name, (params, _) in _TRIPLE_AUDIT.items():
        assert params[0] == _sample_params(REGISTRY[name])


@pytest.mark.parametrize("f, bound", [
    (vb.catalog(name, p), bound)
    for name, (params, bound) in _TRIPLE_AUDIT.items() for p in params], ids=repr)
def test_catalog_triple_evaluates_to_its_atom(f, bound):
    got, want = vb.levy_eval(f.levy, LEVY_X), vb.evaluate(f, LEVY_X)
    assert (np.abs(got - want) <= bound * np.abs(want)).all()


def test_levy_eval_calls_evaluate_once_per_level(monkeypatch):
    """The integrand reads the density through the module's evaluate, all
    points of one level in one call."""
    alg = vb.algebra
    calls = []
    real = alg.evaluate
    monkeypatch.setattr(alg, "evaluate", lambda e, x: calls.append(np.size(x)) or real(e, x))
    density = vb.catalog("frac_linear", {"lam": 0.37}).levy.density
    vb.levy_eval(vb.LevyTriple(density=density), LEVY_X)
    assert 2 <= len(calls) <= 10
    assert max(calls) >= LEVY_X.size * 2 * alg._DYADIC * alg._GK_X.size


@pytest.mark.parametrize("f, edges, cap", [
    (np.reciprocal, np.array([0.0, 1.0]), f"{vb.algebra._GK_LEVELS} levels"),
    (np.sin, np.array([0.0, 1.0e5]), f"{vb.algebra._GK_INTERVALS} intervals"),
], ids=["pole", "oscillation"])
def test_quadrature_that_runs_out_of_its_cap_names_it(f, edges, cap):
    """1/t on [0, 1], whose pole no node reaches, and sin(t) over 16,000
    periods each exhaust one of the rule's two caps, without a warning."""
    alg = vb.algebra
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=rf"test integral did not converge "
                           rf"within the cap of {cap} \(estimate .+, error bound .+\)"):
            alg._gauss_kronrod(lambda t: f(t)[:, None], edges, 1e-10,
                               lambda j: "test integral")


def test_levy_negative_argument():
    f = vb.catalog("log1p")
    with pytest.raises(EvaluationError):
        vb.levy_eval(f.levy, -0.5)


def test_fsum_and_fprod_need_a_term_and_return_a_single_one():
    f = vb.catalog("log1p")
    for build in (vb.fsum, vb.fprod):
        with pytest.raises(ConstructionError):
            build()
        assert build(f) is f


def test_sum_and_product_fold_their_children_left_to_right():
    """Three children give the bits of ((a op b) op c), real and complex."""
    kids = [vb.catalog("log1p"), vb.catalog("frac_linear", {"lam": 2.0}),
            vb.catalog("power", {"a": 0.5})]
    for x, ev in ((np.linspace(0.0, 9.0, 19), vb.evaluate),
                  (np.linspace(0.1, 9.0, 19) + 1j, vb.evaluate_complex)):
        a, b, c = (ev(k, x) for k in kids)
        assert np.array_equal(ev(vb.fsum(*kids), x), a + b + c)
        assert np.array_equal(ev(vb.fprod(*kids), x), a * b * c)


def test_unknown_node_kind_is_an_evaluation_error():
    from variobern.algebra import _node
    with pytest.raises(EvaluationError, match="unknown expression kind 'warp'"):
        vb.evaluate(_node("warp", children=(vb.catalog("log1p"),)), 1.0)


# ----------------------------------------------------------------------
# complex continuation

def test_complex_evaluation_matches_principal_branch():
    z = 1.0 + 2.0j
    got = complex(vb.evaluate_complex(vb.catalog("log1p"), z))
    assert got == pytest.approx(np.log(1 + z), rel=1e-14)
    fl = vb.catalog("frac_linear", {"lam": 2.0})
    assert complex(vb.evaluate_complex(fl, z)) == pytest.approx(
        2 * z / (2 + z), rel=1e-14)


def test_complex_evaluation_real_axis_agrees():
    f = vb.catalog("frac_linear", {"lam": 2.0})
    x = np.linspace(0.1, 20, 9)
    cv = vb.evaluate_complex(f, x.astype(complex))
    assert np.allclose(cv.imag, 0.0, atol=1e-14)
    assert np.allclose(cv.real, vb.evaluate(f, x), rtol=1e-12)


def test_complex_continuation_missing_is_explicit():
    with pytest.raises(EvaluationError, match="complex continuation"):
        vb.evaluate_complex(vb.catalog("sqrt_arctan"), 1.0 + 1.0j)


# ----------------------------------------------------------------------
# JSON serialization

def test_expr_json_round_trip():
    f = vb.combine(
        vb.compose(vb.catalog("log1p"), vb.catalog("frac_linear", {"lam": 2.0})),
        vb.fpow(vb.catalog("sqrt_arctan"), 0.5),
        "geometric", 0.25)
    d = vb.expr_to_json(f)
    back = vb.expr_from_json(d)
    x = np.linspace(0.1, 10, 7)
    assert np.array_equal(vb.evaluate(back, x), vb.evaluate(f, x))
    assert vb.infer_class(back) == vb.infer_class(f)
    # serialization is stable
    assert vb.expr_to_json(back) == d


def test_expr_json_affine_and_manual_tags():
    with pytest.raises(ParameterError, match="derived from the tree"):
        vb.expr_from_json({"atom": "one_minus_cos", "params": {}, "tags": ["BF"]})
    a = vb.affine(vb.catalog("log1p"), shift=1.0, scale=-1.0)
    back = vb.expr_from_json(vb.expr_to_json(a))
    x = np.linspace(0.0, 4.0, 5)
    assert np.array_equal(vb.evaluate(back, x), vb.evaluate(a, x))


def _json_round_trip(e):
    return vb.expr_from_json(json.loads(json.dumps(vb.expr_to_json(e))))


def test_expr_json_keeps_a_foreign_levy_triple():
    """A spectral variogram on frac_linear(1)'s triple, held by the node as a
    free-standing carrier, reloads as itself."""
    model = vb.spectral_variogram(vb.catalog("frac_linear", {"lam": 1.0}).levy)
    back = vb.model_from_json(json.loads(json.dumps(vb.model_to_json(model))))
    assert back.profile == model.profile and back.construction == model.construction
    lags = np.array([[0.5], [2.0], [7.0]])
    assert np.array_equal(back(lags), model(lags))
    assert back(np.array([[2.0]]))[0] == pytest.approx(0.8, rel=1e-9)


@pytest.mark.parametrize("e", [
    vb.affine(vb.spectral_node(vb.catalog("power", {"a": 0.5}).levy), scale=2.0),
    vb.spectral_node(vb.catalog("log1p")),
    vb.spectral_node(vb.LevyTriple(drift=0.5)),
    vb.spectral_node(vb.LevyTriple()),
], ids=["op_node", "atom_carrier", "drift_only", "none"])
def test_expr_json_levy_round_trip(e):
    """Both kinds of carrier, alone and below an op node, reload to the same
    node, construction string and values, bit for bit."""
    back = _json_round_trip(e)
    assert back == e and vb.describe(back) == vb.describe(e)
    x = np.array([0.0, 0.3, 2.0, 7.0])
    assert np.array_equal(vb.evaluate(back, x), vb.evaluate(e, x))


def test_expr_json_writes_no_levy_a_node_rebuilds():
    for e in (vb.catalog("log1p"), vb.catalog("exp_one_minus", {"a": 2.0}),
              vb.fsum(vb.catalog("log1p"), vb.catalog("power", {"a": 0.5})),
              vb.spectral_node(vb.catalog("power", {"a": 0.5}))):
        assert "levy" not in json.dumps(vb.expr_to_json(e))


_POWER_A = np.linspace(0.01, 0.99, 981)


def _power_density_constant(a: float) -> float:
    density = vb.catalog("power", {"a": a}).levy.density
    return density.children[0].params_dict["c"]


def test_power_levy_constant_is_scipys_to_a_few_ulp():
    """a / Gamma(1 - a) from math.gamma: scipy.special.gamma differs from it
    by at most 5 ulp on this grid (7 on a ten times finer one)."""
    from scipy import special as sc

    c = np.array([_power_density_constant(float(a)) for a in _POWER_A])
    ref = _POWER_A / sc.gamma(1.0 - _POWER_A)
    assert (np.abs(c - ref) <= 8 * np.spacing(ref)).all()


def test_power_levy_constant_is_exact_to_a_few_ulp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        exact = np.array([float(mpmath.mpf(float(a)) / mpmath.gamma(1 - mpmath.mpf(float(a))))
                          for a in _POWER_A])
    c = np.array([_power_density_constant(float(a)) for a in _POWER_A])
    assert (np.abs(c - exact) <= 5 * np.spacing(exact)).all()


def test_exponential_covariance_json_carries_no_levy_triple():
    """The power(1/2) atom derives its own triple on load: none is written,
    and the reloaded atom's triple is the catalog's."""
    model = vb.exponential_covariance(0.5, d=2)
    text = json.dumps(vb.model_to_json(model))
    assert "levy" not in text
    back = vb.model_from_json(json.loads(text))
    assert back.profile == model.profile
    power = back.profile.children[1]
    assert power.name == "power" and power.levy.density is not None
    assert power.levy == model.profile.children[1].levy == vb.catalog("power", {"a": 0.5}).levy


def test_describe_marks_a_foreign_levy_triple():
    """Two spectral variograms, one on the log1p atom and one on frac_linear's
    triple as a free-standing carrier, differ (gamma(2) = 2.214 against
    0.8), and each construction string names the carrier it evaluates."""
    own = vb.spectral_variogram(vb.catalog("log1p"))
    free = vb.spectral_variogram(vb.catalog("frac_linear", {"lam": 1.0}).levy)
    assert own.construction == "spectral_variogram(log1p())"
    text = "levy(drift=0, constant=0, density=product(const(c=1), exp_decay(a=1)))"
    assert free.construction == f"spectral_variogram({text})"
    assert vb.describe(free.profile) == f"spectral({text})"


def test_describe_tells_foreign_levy_triples_apart():
    """Spectral nodes on different carriers, or on one triple read through
    the atom and as a free-standing carrier, never share a string, even
    where the numbers agree to :g's six digits."""
    log1p = vb.catalog("log1p")
    carriers = [log1p, log1p.levy, vb.LevyTriple(), vb.LevyTriple(drift=0.5),
                vb.LevyTriple(drift=0.5000001), vb.catalog("frac_linear", {"lam": 2.0000001}),
                vb.LevyTriple(drift=0.5, density=log1p.levy.density),
                vb.catalog("frac_linear", {"lam": 1.0}).levy,
                vb.catalog("frac_linear", {"lam": 2.0}).levy,
                vb.catalog("frac_linear", {"lam": 2.0}),
                vb.catalog("power", {"a": 0.5}), vb.catalog("power", {"a": 0.5}).levy,
                vb.catalog("power", {"a": 1.0}), vb.catalog("power", {"a": 1.0}).levy]
    text = [vb.describe(vb.spectral_node(c)) for c in carriers]
    assert len(set(text)) == len(carriers)
    constructions = {vb.spectral_variogram(c).construction for c in carriers}
    assert len(constructions) == len(carriers)
    assert vb.describe(log1p) == "log1p()"
    op = vb.affine(vb.catalog("power", {"a": 1.0}), scale=2.0)
    assert vb.describe(op) == "affine(power(a=1), shift=0, scale=2)"


@pytest.mark.parametrize("levy", [
    5, [0.0], {"drift": "x"}, {"drift": -1.0}, {"drift": True}, {"constant": "nan"},
    {"mass": 1.0}, {"atoms": 3}, {"atoms": [[1.0]]}, {"atoms": [[-1.0, 1.0]]},
    {"atoms": [[1.0, 1.0]], "density": {"atom": "recip", "params": {}}},
    {"density": {"atom": "nope", "params": {}}},
])
def test_expr_json_malformed_levy_is_a_parameter_error(levy):
    """A "levy" key is refused as unknown, whatever it holds: on an atom
    and on an op node alike, a triple is derived, never declared."""
    with pytest.raises(ParameterError, match=r"unknown key\(s\) 'levy'; it takes atom, params$"):
        vb.expr_from_json({"atom": "log1p", "params": {}, "levy": levy})
    with pytest.raises(ParameterError, match=r"op 'affine' has unknown key\(s\) 'levy'"):
        vb.expr_from_json({"op": "affine", "args": [{"atom": "log1p"}], "levy": levy})


_EXP_DENSITY = {"atom": "exp_decay", "params": {"a": 1.0}}


@pytest.mark.parametrize("d, error, text", [
    ({"op": "spectral", "rule": "levy", "args": [_EXP_DENSITY]}, ConstructionError,
     "holds its drift"),
    ({"op": "spectral", "rule": "levy", "drift": 0.0, "args": [_EXP_DENSITY] * 2},
     ConstructionError, "at most one density"),
    ({"op": "spectral", "rule": "levy", "drift": "x", "args": []}, ParameterError, "malformed"),
    ({"op": "spectral", "rule": "levy", "drift": True, "args": []}, ParameterError, "malformed"),
    ({"op": "spectral", "rule": "levy", "drift": -1.0, "args": []}, ParameterError,
     "drift >= 0"),
    ({"op": "spectral", "rule": "levy", "drift": 0.0, "args": [
        {"atom": "power", "params": {"a": 0.5}}]}, ParameterError, "decreasing"),
    ({"op": "spectral", "rule": "levy", "drift": 0.0, "args": [
        {"atom": "recip", "params": {}}]}, QuadratureError, "min"),
    ({"op": "spectral", "rule": "levi", "drift": 0.0, "args": []}, ConstructionError,
     "catalog atom carrying a Levy triple"),
    ({"op": "spectral", "drift": 5.0, "args": [{"atom": "log1p"}]}, ConstructionError,
     "catalog atom carrying a Levy triple"),
    ({"op": "spectral", "args": []}, ConstructionError, "catalog atom carrying"),
    ({"op": "spectral", "args": [{"atom": "log1p"}] * 2}, ConstructionError,
     "catalog atom carrying"),
    ({"op": "spectral", "args": [{"op": "affine", "args": [{"atom": "log1p"}]}]},
     ConstructionError, "catalog atom carrying"),
    ({"op": "spectral", "args": [{"atom": "exp_one_minus", "params": {"a": 1.0}}]},
     ConstructionError, "not atoms"),
    ({"op": "spectral", "args": [{"atom": "const", "params": {"c": 1.0}}]},
     ConstructionError, "vanishing constant"),
], ids=["no_drift", "two_densities", "drift_string", "drift_bool", "drift_negative",
        "rising_density", "divergent_density", "unknown_rule", "drift_on_atom", "no_atom",
        "two_atoms", "op_carrier", "atom_measure", "atom_constant"])
def test_spectral_json_refuses_a_carrier_it_cannot_evaluate(d, error, text):
    """A spectral op holds one catalog atom with a Levy triple, or rule
    "levy" with a drift and at most one decreasing, integrable density."""
    with pytest.raises(error, match=text):
        vb.expr_from_json(d)


def test_expr_json_errors():
    with pytest.raises(ParameterError):
        vb.expr_from_json({"op": "warp", "args": []})
    with pytest.raises(ParameterError):
        vb.expr_from_json({"neither": 1})
    with pytest.raises(ParameterError):
        vb.expr_from_json({"op": "compose", "args": [{"atom": "log1p"}]})


def test_describe_is_readable():
    text = vb.describe(vb.compose(vb.catalog("log1p"),
                                  vb.catalog("power", {"a": 0.5})))
    assert "log1p" in text and "power" in text


# ----------------------------------------------------------------------
# one atom per family, stored tags

@pytest.mark.parametrize("alias,params,body", [
    ("cauchy_cbf", {"alpha": 0.5, "beta": 1.0},
     lambda x, p: -np.expm1(-p["beta"] * np.log1p(x ** p["alpha"]))),
    ("dagum_cbf", {"rho": 0.5, "gamma": 0.5},
     lambda x, p: np.exp(-p["gamma"] * np.log1p(x ** -p["rho"]))),
])
def test_former_table_names_load_as_aliases(alias, params, body):
    """JSON naming a former table atom evaluates exactly as its old body."""
    e = vb.expr_from_json({"atom": alias, "params": params})
    assert e.name == alias.removesuffix("_cbf")
    assert vb.infer_class(e) == {"BF", "CBF"}
    x = np.logspace(-6, 6, 41)
    assert np.array_equal(vb.evaluate(e, x), body(x, params))
    assert alias not in vb.catalog_names()


def test_cauchy_is_complete_only_for_beta_up_to_one():
    assert vb.infer_class(vb.catalog("cauchy", {"alpha": 0.5, "beta": 2.0})) == {"BF"}
    assert vb.infer_class(vb.catalog("cauchy", {"alpha": 0.5, "beta": 1.0})) == {"BF", "CBF"}
    assert vb.infer_class(vb.catalog("dagum", {"rho": 0.9, "gamma": 0.1})) == {"BF", "CBF"}
    assert len(vb.cbf_table()) == 12


_CBF_COMPOSE = {"op": "compose", "args": [
    {"atom": "log1p"}, {"atom": "frac_linear", "params": {"lam": 1.0}}]}


def _at_top(key):
    return {**_CBF_COMPOSE, **key}


def _in_args(key):
    return {**_CBF_COMPOSE, "args": [{"atom": "log1p", **key}, _CBF_COMPOSE["args"][1]]}


def _in_density(key):
    return {"op": "spectral", "rule": "levy", "drift": 0.0, "args": [{**_EXP_DENSITY, **key}]}


@pytest.mark.parametrize("tags", [[], ["BF"], ["XYZ"], 5], ids=repr)
@pytest.mark.parametrize("place", [_at_top, _in_args, _in_density])
def test_tags_key_is_refused_at_every_depth(place, tags):
    vb.expr_from_json(place({}))
    with pytest.raises(ParameterError, match="cone tags are derived from the tree"):
        vb.expr_from_json(place({"tags": tags}))


@pytest.mark.parametrize("key", [{"levi": {"drift": 1.0}}, {"shift": 1.0},
                                 {"rule": "x_over_f"}], ids=repr)
@pytest.mark.parametrize("place", [_at_top, _in_args, _in_density])
def test_unknown_key_is_refused_at_every_depth(place, key):
    """A misspelt or misplaced key is refused, not dropped without a word."""
    vb.expr_from_json(place({}))
    with pytest.raises(ParameterError, match=f"unknown key.*'{next(iter(key))}'"):
        vb.expr_from_json(place(key))


def test_levy_object_takes_only_the_triple_keys():
    """A triple's JSON is the spectral op's rule "levy", which takes its
    drift and the density as its argument; a "levy" object is refused."""
    with pytest.raises(ParameterError, match="unknown key.*'levy'; it takes atom, params$"):
        vb.expr_from_json({"atom": "log1p", "levy": [1.0]})
    with pytest.raises(ParameterError, match="op 'spectral' has unknown key.*'dirft'; "
                                             "it takes op, args, rule, drift$"):
        vb.expr_from_json({"op": "spectral", "rule": "levy", "dirft": 1.0, "args": []})


@pytest.mark.parametrize("e", [
    vb.fpow(vb.catalog("log1p"), 0.5),
    vb.combine(vb.catalog("log1p"), vb.catalog("power", {"a": 0.5}), "geometric", 0.5),
    vb.dualize(vb.catalog("log1p"), "x_over_f"),
    vb.affine(vb.catalog("log1p"), shift=1.0, scale=2.0),
])
def test_each_op_takes_only_its_own_keys(e):
    """An op's JSON loads with its own keys, and a key of another op is refused."""
    j = vb.expr_to_json(e)
    assert vb.expr_to_json(vb.expr_from_json(j)) == j
    foreign = {"power": "shift", "combine": "scale", "dualize": "alpha",
               "affine": "rule"}[j["op"]]
    with pytest.raises(ParameterError, match=f"op '{j['op']}' has unknown key"):
        vb.expr_from_json({**j, foreign: 1.0})


def test_unknown_op_lists_the_ops():
    for op in ("warp", ["sum"]):
        with pytest.raises(ParameterError, match="unknown expression op") as info:
            vb.expr_from_json({"op": op, "args": []})
    for name in ("sum", "product", "compose", "power", "combine", "dualize",
                 "uchiyama", "spectral", "affine"):
        assert name in str(info.value)


@pytest.mark.parametrize("build", [
    lambda f, g: vb.combine(f, g, "geometric", 0.5),
    lambda f, g: vb.dualize(f, "reciprocal"),
    lambda f, g: vb.uchiyama(f, g, f),
    lambda f, g: vb.spectral_node(f),
])
def test_complex_evaluation_rejects_real_only_nodes(build):
    f = vb.catalog("frac_linear", {"lam": 1.0})
    e = build(f, vb.catalog("log1p"))
    with pytest.raises(EvaluationError, match="unsupported for node kind"):
        vb.evaluate_complex(e, 1.0 + 1.0j)


def test_complex_log1p_keeps_its_real_part_on_the_imaginary_axis():
    """log(1 + iy) has real part log1p(y^2) / 2, which numpy's complex log1p
    rounds away for small y."""
    y = np.array([1e-8, 1e-4, 1e-2, 1.0, 1e3])
    got = vb.evaluate_complex(vb.catalog("log1p"), 1j * y)
    assert np.allclose(got.real, 0.5 * np.log1p(y * y), rtol=1e-14, atol=0.0)
    assert np.allclose(got.imag, np.arctan(y), rtol=1e-14, atol=0.0)


def test_complex_atoms_are_exactly_the_continued_ones():
    from variobern.atoms import COMPLEX_ATOMS, REGISTRY
    z = np.array([0.5 + 1.5j, 3.0j])
    for name in vb.catalog_names():
        spec = REGISTRY[name]
        params = {p.name: (2.0 if p.integer else 0.5) for p in spec.params}
        try:
            f = vb.catalog(name, params)
        except ParameterError:
            continue
        if name in COMPLEX_ATOMS:
            assert np.all(np.isfinite(vb.evaluate_complex(f, z))), name
        else:
            with pytest.raises(EvaluationError, match="complex continuation"):
                vb.evaluate_complex(f, z)


# ----------------------------------------------------------------------
# numerical audit of the closure theorems

# one atom per premise cone, carrying exactly that cone and its completion
PREMISE_ATOMS = {
    "CM": lambda: vb.catalog("exp_decay", {"a": 1.0}),
    "BF": lambda: vb.catalog("exp_one_minus", {"a": 1.0}),
    "CBF": lambda: vb.catalog("log1p"),
    "S": lambda: vb.catalog("recip"),
}

# node kind -> (number of children, builders of that kind from the children)
NODE_BUILDERS = {
    "affine": (1, [lambda f: vb.affine(f, shift=s, scale=k)
                   for s, k in ((0.0, 1.0), (1.0, 2.0), (0.5, 0.0))]),
    "sum": (2, [vb.fsum]),
    "product": (2, [vb.fprod]),
    "compose": (2, [vb.compose]),
    "power": (1, [lambda f, a=a: vb.fpow(f, a) for a in (1.0, 0.5, -1.0, -0.5, 1.5)]),
    "combine": (2, [lambda f, g, r=r, a=a: vb.combine(f, g, r, a)
                    for r in ("power_mean", "arg_power_mean")
                    for a in (-1.0, -0.5, 0.5, 1.0)]
                + [lambda f, g, r=r, a=a: vb.combine(f, g, r, a)
                   for r in ("split_power", "geometric") for a in (0.0, 0.3, 1.0)]),
    "uchiyama": (3, [vb.uchiyama]),
    "dualize": (1, [lambda f, r=r: vb.dualize(f, r)
                    for r in ("x_over_f", "f_over_x", "reciprocal")]),
}


def test_every_closure_theorem_passes_its_oracle():
    """Each _THEOREMS row, applied to children that carry exactly its premise,
    proves a cone that the real-axis oracle confirms."""
    from variobern.algebra import _THEOREMS
    grid = np.logspace(-2, 2, 33)
    for kind, holds, premise, proved in _THEOREMS:
        arity, builders = NODE_BUILDERS[kind]
        cones = (premise,) * arity if isinstance(premise, str) else premise
        children = [PREMISE_ATOMS[c]() for c in cones]
        nodes = [e for e in (build(*children) for build in builders)
                 if holds is None or holds(e)]
        assert nodes, (kind, premise, proved)
        for e in nodes:
            assert proved in e.derived, vb.describe(e)
            f = lambda x: vb.evaluate(e, x)
            check = vb.cm_check if proved in ("CM", "S") else vb.bernstein_check
            rep = check(f, grid)
            assert rep.passed, (vb.describe(e), proved, rep.to_json())


@pytest.mark.parametrize("node, message", [
    ({"op": "power", "args": [{"atom": "log1p", "params": {}}]}, "op 'power' needs 'alpha'"),
    ([{"atom": "log1p", "params": {}}], "expression JSON must be an object, got list"),
])
def test_expression_json_errors_name_the_node(node, message):
    with pytest.raises(ParameterError) as info:
        vb.expr_from_json(node)
    assert str(info.value) == message
