"""Numerical permissibility checks: matrix tests, divided differences,
shape oracles, structure probes.

Counterexample witnesses are re-verified against the raw definitions here,
so the checks cannot drift away from what they claim to certify.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest

import variobern as vb
from variobern.checks import _contrast_block
from variobern.errors import ParameterError


def abs_gamma(lags):
    return np.sqrt((np.asarray(lags) ** 2).sum(axis=-1))


def cubic_gamma(lags):
    return abs_gamma(lags) ** 3


@pytest.fixture
def pts012():
    return vb.PointSet(np.array([[0.0], [1.0], [2.0]]))


# ----------------------------------------------------------------------
# matrix machinery

def test_kernel_matrix_values(pts012):
    k = vb.kernel_matrix(abs_gamma, pts012)
    assert np.array_equal(k, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_kernel_matrix_shape_gate(pts012):
    with pytest.raises(ParameterError, match="shape"):
        vb.kernel_matrix(lambda lags: np.zeros(3), pts012)


def test_contrast_basis_properties():
    b = vb.contrast_basis(6)
    assert b.shape == (6, 5)
    assert np.allclose(b.T @ b, np.eye(5), atol=1e-12)
    assert np.allclose(b.sum(axis=0), 0.0, atol=1e-12)
    with pytest.raises(ParameterError):
        vb.contrast_basis(1)


# ----------------------------------------------------------------------
# cnd / pd

def test_cnd_passes_absolute_value(pts012):
    rep = vb.cnd_check(abs_gamma, pts012)
    assert rep.passed
    assert rep.record("cnd").witness is None


def test_cnd_fails_cubic_with_verifiable_witness(pts012):
    rep = vb.cnd_check(cubic_gamma, pts012)
    assert rep.verdict == "fail"
    w = rep.record("cnd").witness
    a = np.array(w["contrast"])
    assert abs(a.sum()) < 1e-12
    g = vb.kernel_matrix(cubic_gamma, pts012)
    qf = float(a @ g @ a)
    assert qf == pytest.approx(w["quadratic_form"], rel=1e-10)
    assert qf > 0  # a genuine violation of conditional negative definiteness


def test_cnd_inconclusive_on_nonfinite(pts012):
    rep = vb.cnd_check(lambda lags: np.full(lags.shape[:-1], np.nan), pts012)
    assert rep.verdict == "inconclusive"
    assert "non-finite" in rep.record("cnd").detail


def test_cnd_tol_gate(pts012):
    with pytest.raises(ParameterError):
        vb.cnd_check(abs_gamma, pts012, tol=0.0)


def test_pd_passes_exponential(pts012):
    rep = vb.pd_check(lambda lags: np.exp(-abs_gamma(lags)), pts012)
    assert rep.passed


def test_pd_fails_parabola_with_witness(pts012):
    cov = lambda lags: 1.0 - abs_gamma(lags) ** 2
    rep = vb.pd_check(cov, pts012)
    assert rep.verdict == "fail"
    w = rep.record("pd").witness
    a = np.array(w["weights"])
    c = vb.kernel_matrix(cov, pts012)
    assert float(a @ c @ a) == pytest.approx(w["quadratic_form"], rel=1e-10)
    assert w["quadratic_form"] < 0


def test_variogram_axioms_records(pts012):
    rep = vb.variogram_axioms(abs_gamma, pts012)
    assert [c.name for c in rep.checks] == ["origin", "evenness", "cnd"]
    assert rep.passed


def test_variogram_axioms_catch_oddness(pts012):
    odd = lambda lags: np.asarray(lags)[..., 0] + abs_gamma(lags)
    rep = vb.variogram_axioms(odd, pts012)
    assert rep.record("evenness").verdict == "fail"
    assert "lag" in rep.record("evenness").witness


def test_variogram_axioms_catch_negative_origin(pts012):
    rep = vb.variogram_axioms(lambda lags: abs_gamma(lags) - 1.0, pts012)
    assert rep.record("origin").verdict == "fail"


# ----------------------------------------------------------------------
# divided-difference checks

GRID = np.logspace(-2, 2, 33)


def test_cm_accepts_exponential():
    rep = vb.cm_check(lambda x: np.exp(-x), GRID, max_order=8)
    assert rep.passed
    assert len(rep.checks) == 9  # orders 0..8


def test_cm_rejects_increasing():
    rep = vb.cm_check(lambda x: -np.expm1(-x), GRID)
    rec = rep.record("cm_order_1")
    assert rec.verdict == "fail"
    assert rec.witness["order"] == 1


def test_cm_rejects_wrong_sign_curvature():
    # 1/(1+x) is CM; its negative second derivative breaks order 2 only
    rep = vb.cm_check(lambda x: x / (1.0 + x), GRID)
    assert rep.record("cm_order_0").verdict == "pass"
    assert rep.record("cm_order_2").verdict == "fail"


def test_cm_gates():
    with pytest.raises(ParameterError, match="increasing"):
        vb.cm_check(np.exp, [2.0, 1.0])
    with pytest.raises(ParameterError, match="positive"):
        vb.cm_check(np.exp, [0.0, 1.0])
    with pytest.raises(ParameterError, match="max_order"):
        vb.cm_check(np.exp, [1.0, 2.0, 3.0], max_order=3)


def test_cm_inconclusive_on_evaluation_error():
    f = vb.catalog("log1p")
    bomb = lambda x: vb.evaluate(f, x - 5.0)  # negative arguments raise
    rep = vb.cm_check(bomb, GRID)
    assert rep.verdict == "inconclusive"


def test_cm_survives_roundoff_on_stiff_grid():
    """A dense grid makes high-order differences pure noise; the propagated
    roundoff allowance must keep a true CM function from failing."""
    grid = np.linspace(10.0, 10.001, 40)
    rep = vb.cm_check(lambda x: np.exp(-x), grid, max_order=8, tol=1e-9)
    assert rep.verdict != "fail"


def test_bernstein_accepts_log1p():
    rep = vb.bernstein_check(lambda x: np.log1p(x), GRID)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names[0] == "nonnegative"
    assert names[1] == "derivative_cm_order_0"


def test_bernstein_rejects_decreasing():
    rep = vb.bernstein_check(lambda x: np.exp(-x), GRID)
    assert rep.record("nonnegative").verdict == "pass"
    assert rep.record("derivative_cm_order_0").verdict == "fail"


def test_bernstein_rejects_superlinear_power():
    rep = vb.bernstein_check(lambda x: x ** 1.8, GRID)
    assert rep.verdict == "fail"  # derivative is increasing


def test_bernstein_gate():
    with pytest.raises(ParameterError, match="max_order"):
        vb.bernstein_check(np.sqrt, [1.0, 2.0, 3.0], max_order=2)


@pytest.mark.parametrize("profile", [
    lambda x: 1.0 + x,
    lambda x: 3.0 * x + 2.0,
    lambda x: 1.0 / (1.0 / x),
])
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_bernstein_accepts_linear_profiles(profile, tol):
    """A difference quotient of f carries eps * (|f_i| + |f_i+1|) / dx of
    roundoff, not eps * |quotient|; a linear profile must not fail on it."""
    assert vb.bernstein_check(profile, GRID, tol=tol).passed


def test_bernstein_still_rejects_a_slightly_convex_profile():
    rep = vb.bernstein_check(lambda x: x + 1e-6 * x ** 2, GRID)
    assert rep.record("derivative_cm_order_1").verdict == "fail"  # f' rises


# ----------------------------------------------------------------------
# shape checks

TGRID = np.linspace(0.05, 8.0, 64)


def test_polya_accepts_laplace():
    rep = vb.polya_check(lambda t: np.exp(-np.abs(t)), TGRID)
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "even", "nonnegative", "decreasing", "convex"]


def test_polya_rejects_gaussian_convexity():
    rep = vb.polya_check(lambda t: np.exp(-np.asarray(t) ** 2), TGRID)
    assert rep.record("convex").verdict == "fail"
    w = rep.record("convex").witness
    assert {"a", "b", "gap"} <= set(w)


def test_polya_rejects_odd_part():
    rep = vb.polya_check(lambda t: np.exp(-np.abs(t)) + 0.01 * np.asarray(t),
                         TGRID)
    assert rep.record("even").verdict == "fail"


def test_profile_shape_accepts_sqrt():
    rep = vb.profile_shape_check(np.sqrt, np.linspace(0.0, 8.0, 65))
    assert rep.passed
    assert [c.name for c in rep.checks] == ["increasing", "concave", "subadditive"]


def test_profile_shape_rejects_square():
    rep = vb.profile_shape_check(lambda x: np.asarray(x) ** 2,
                                 np.linspace(0.0, 8.0, 65))
    assert rep.record("increasing").verdict == "pass"
    assert rep.record("concave").verdict == "fail"
    rec = rep.record("subadditive")
    assert rec.verdict == "fail"
    w = rec.witness
    # witness reproduces f(a+b) > f(a) + f(b)
    assert (w["a"] + w["b"]) ** 2 - w["a"] ** 2 - w["b"] ** 2 == pytest.approx(
        w["excess"], rel=1e-12)


def test_sqrt_subadditivity_cubic_witness():
    pts = vb.PointSet(np.array([[0.0], [1.0]]))
    rep = vb.sqrt_subadditivity_check(cubic_gamma, pts)
    assert rep.verdict == "fail"
    w = rep.record("sqrt_subadditivity").witness
    assert w["x"] == [1.0] and w["y"] == [1.0]
    assert w["excess"] == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, rel=1e-12)


def test_sqrt_subadditivity_passes_for_valid_model(line_points):
    gamma = lambda lags: -np.expm1(-abs_gamma(lags))
    rep = vb.sqrt_subadditivity_check(gamma, line_points)
    assert rep.passed


# ----------------------------------------------------------------------
# structure probes

def test_detect_period_finds_cosine_period():
    gamma = lambda lags: 1.0 - np.cos(np.asarray(lags)[..., 0])
    y = vb.detect_period(gamma, search_radius=10.0)
    assert y is not None
    assert y[0] == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_detect_period_none_for_monotone():
    assert vb.detect_period(abs_gamma, search_radius=10.0) is None
    gauss = lambda lags: -np.expm1(-abs_gamma(lags) ** 2)
    assert vb.detect_period(gauss, search_radius=10.0) is None


def test_detect_period_gate():
    with pytest.raises(ParameterError):
        vb.detect_period(abs_gamma, search_radius=-1.0)


@pytest.mark.parametrize("d, axis", [(1, 1), (1, -1), (2, 2)])
def test_detect_period_rejects_an_axis_outside_the_dimension(d, axis):
    with pytest.raises(ParameterError, match=rf"axis must be in range\({d}\)"):
        vb.detect_period(abs_gamma, search_radius=10.0, d=d, axis=axis)


def test_eventual_constancy_detects_plateau():
    prof = lambda r: np.minimum(np.asarray(r, dtype=float), 1.5) / 1.5
    rep = vb.eventual_constancy_check(prof, inner=1.5, outer=4.5)
    assert rep.passed
    assert rep.record("constant_on_annulus").witness["plateau"] == pytest.approx(1.0)


def test_eventual_constancy_rejects_growth():
    rep = vb.eventual_constancy_check(np.sqrt, inner=1.5, outer=4.5)
    assert rep.verdict == "fail"
    assert "spread" in rep.record("constant_on_annulus").witness


def test_eventual_constancy_all_d_contradiction():
    """A plateau reached at finite range contradicts validity in every
    dimension unless the profile was constant from the start."""
    prof = lambda r: np.minimum(np.asarray(r, dtype=float), 1.5) / 1.5
    rep = vb.eventual_constancy_check(prof, inner=1.5, outer=4.5,
                                      all_d_certified=True)
    rec = rep.record("all_d_consistency")
    assert rec.verdict == "fail"
    assert "incompatible" in rec.detail

    flat = lambda r: np.ones_like(np.asarray(r, dtype=float))
    rep = vb.eventual_constancy_check(flat, inner=1.5, outer=4.5,
                                      all_d_certified=True)
    assert rep.record("all_d_consistency").verdict == "pass"


def test_eventual_constancy_gate():
    with pytest.raises(ParameterError):
        vb.eventual_constancy_check(np.sqrt, inner=2.0, outer=1.0)


# ----------------------------------------------------------------------
# report plumbing

def test_report_verdict_ordering():
    mk = lambda v: vb.CheckRecord("x", v, 0.0, 1e-8)
    assert vb.PermissibilityReport((mk("pass"), mk("fail"),
                                    mk("inconclusive"))).verdict == "fail"
    assert vb.PermissibilityReport((mk("pass"),
                                    mk("inconclusive"))).verdict == "inconclusive"
    assert vb.PermissibilityReport((mk("pass"),)).verdict == "pass"


def test_report_json_shape(pts012):
    d = vb.cnd_check(abs_gamma, pts012).to_json()
    assert set(d) == {"verdict", "config", "checks"}
    assert d["checks"][0]["name"] == "cnd"
    assert d["config"]["n"] == 3


def test_report_record_lookup(pts012):
    rep = vb.cnd_check(abs_gamma, pts012)
    with pytest.raises(KeyError):
        rep.record("nope")


def test_variogram_axioms_evaluates_the_lags_once(pts012):
    shapes = []

    def gamma(lags):
        shapes.append(np.shape(lags))
        return abs_gamma(lags)

    rep = vb.variogram_axioms(gamma, pts012)
    assert rep.passed
    n, d = pts012.n, pts012.d
    assert shapes == [(1, d), (n, n, d)]


@pytest.mark.parametrize("build", [
    lambda: (vb.ma_product(1.0, 2.0, d=2), 2),
    lambda: (vb.make_variogram(vb.catalog("log1p"), A=[[1.0, 0.3], [0.0, 2.0]], d=2), 2),
    lambda: (vb.spectral_variogram(vb.catalog("log1p")), 1),
])
def test_kernel_matrix_transpose_is_the_negated_lag_evaluation(build):
    """Evenness is read off G.T, which must equal gamma(-lags) bitwise."""
    model, d = build()
    rng = np.random.default_rng(5)
    pts = vb.PointSet(rng.uniform(-2.0, 2.0, size=(7, d)))
    g = vb.kernel_matrix(model, pts)
    assert np.array_equal(g.T, model(-pts.lags()))


def test_variogram_axioms_evenness_witness_is_the_worst_lag(pts012):
    odd = lambda lags: np.asarray(lags)[..., 0] + abs_gamma(lags)
    w = vb.variogram_axioms(odd, pts012).record("evenness").witness
    lag = np.array(w["lag"])
    assert w["gap"] == pytest.approx(abs(float(odd(lag) - odd(-lag))))
    assert w["gap"] == pytest.approx(2.0 * np.abs(pts012.lags()[..., 0]).max())


# ----------------------------------------------------------------------
# the shared verdict policy

def _every_oracle(kernel, profile):
    """Each report-returning oracle as tol -> report, on one lag kernel and
    one scalar profile."""
    sites = vb.PointSet(np.array([[0.0], [0.7], [1.5], [2.0], [3.5]]))
    grid = np.linspace(0.1, 3.0, 12)
    return {
        "cnd": lambda tol: vb.cnd_check(kernel, sites, tol),
        "pd": lambda tol: vb.pd_check(kernel, sites, tol),
        "axioms": lambda tol: vb.variogram_axioms(kernel, sites, tol),
        "sqrt_subadditivity": lambda tol: vb.sqrt_subadditivity_check(kernel, sites, tol),
        "cm": lambda tol: vb.cm_check(profile, grid, max_order=4, tol=tol),
        "bernstein": lambda tol: vb.bernstein_check(profile, grid, max_order=4, tol=tol),
        "polya": lambda tol: vb.polya_check(profile, grid, tol=tol),
        "profile_shape": lambda tol: vb.profile_shape_check(profile, grid, tol=tol),
        "eventual_constancy": lambda tol: vb.eventual_constancy_check(
            profile, 1.0, 3.0, tol=tol, all_d_certified=True),
    }


ORACLES = list(_every_oracle(abs_gamma, np.log1p))


@pytest.mark.parametrize("tol", [0.0, -1e-3])
@pytest.mark.parametrize("oracle", ORACLES)
def test_every_oracle_rejects_a_nonpositive_tol(oracle, tol):
    plateau = lambda x: np.minimum(np.asarray(x, dtype=float), 1.5)
    with pytest.raises(ParameterError, match="tol must be positive"):
        _every_oracle(abs_gamma, plateau)[oracle](tol)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
@pytest.mark.parametrize("oracle", ORACLES)
def test_every_oracle_rejects_a_non_finite_tol(oracle, tol):
    plateau = lambda x: np.minimum(np.asarray(x, dtype=float), 1.5)
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        _every_oracle(abs_gamma, plateau)[oracle](tol)


def test_an_infinite_tol_cannot_pass_a_non_cnd_product():
    """exp_one_minus(x)^2 is not CND: an infinite tol used to pass it."""
    product = vb.make_variogram(
        vb.fprod(*[vb.catalog("exp_one_minus", {"a": 1.0})] * 2), d=1)
    sites = vb.PointSet(np.linspace(0.0, 4.0, 9)[:, None])
    assert vb.cnd_check(product, sites).verdict == "fail"
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        vb.cnd_check(product, sites, tol=math.inf)


@pytest.mark.parametrize("radius, tol", [(math.inf, 1e-8), (math.nan, 1e-8),
                                         (10.0, math.inf), (10.0, math.nan)])
def test_detect_period_rejects_non_finite_arguments(radius, tol):
    with pytest.raises(ParameterError, match="positive and finite"):
        vb.detect_period(abs_gamma, search_radius=radius, tol=tol)


@pytest.mark.parametrize("oracle", ORACLES)
def test_every_oracle_is_inconclusive_on_nonfinite_values(oracle):
    """Finite at the origin only, so the origin record of the axioms passes
    and every other record is inconclusive."""
    kernel = lambda lags: np.where(abs_gamma(lags) > 0, np.inf, 0.0)
    profile = lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0)
    rep = _every_oracle(kernel, profile)[oracle](1e-8)
    assert rep.verdict == "inconclusive"
    for rec in rep.checks:
        if rec.name != "origin":
            assert rec.verdict == "inconclusive" and math.isnan(rec.statistic)
            assert "non-finite" in rec.detail and rec.witness is None


def test_witness_exactly_on_failing_records():
    kernels = [abs_gamma, cubic_gamma, lambda lags: np.exp(-abs_gamma(lags) ** 2),
               lambda lags: 1.0 - abs_gamma(lags) ** 2,
               lambda lags: abs_gamma(lags) + 0.3 * np.asarray(lags)[..., 0]]
    profiles = [lambda x: np.exp(-np.asarray(x)), lambda x: np.log1p(np.abs(x)),
                lambda x: np.sqrt(np.abs(x)), np.sin,
                lambda x: np.asarray(x) ** 2, lambda x: np.exp(-np.abs(x)),
                lambda x: np.minimum(np.asarray(x, dtype=float), 1.5),
                lambda x: np.ones_like(np.asarray(x, dtype=float))]
    verdicts = {name: set() for name in ORACLES}
    for kernel, profile in zip(kernels * 2, profiles):
        for name, oracle in _every_oracle(kernel, profile).items():
            for rec in oracle(1e-8).checks:
                verdicts[name].add(rec.verdict)
                if rec.name == "constant_on_annulus":
                    # the probe reports the plateau it found when it passes
                    assert ("spread" in rec.witness) == (rec.verdict == "fail")
                else:
                    assert (rec.witness is not None) == (rec.verdict == "fail"), rec
    assert all({"pass", "fail"} <= v for v in verdicts.values()), verdicts


def test_cnd_statistic_matches_a_qr_basis_reference():
    rng = np.random.default_rng(11)
    pts = vb.PointSet(rng.uniform(0.0, 3.0, size=(40, 2)))
    for gamma in (vb.ma_product(1.0, 2.0, d=2), cubic_gamma):
        g = vb.kernel_matrix(gamma, pts)
        cols = np.vstack([np.eye(pts.n - 1), -np.ones((1, pts.n - 1))])
        q, _ = np.linalg.qr(cols)
        sym = 0.5 * (g + g.T)
        lam = np.linalg.eigvalsh(q.T @ sym @ q)[-1]
        rec = vb.cnd_check(gamma, pts).record("cnd")
        assert abs(rec.statistic - lam / max(1.0, np.abs(g).max())) <= 1e-12


@pytest.mark.parametrize("n", [2, 1024])
def test_contrast_basis_is_an_orthonormal_zero_sum_basis(n):
    b = vb.contrast_basis(n)
    assert b.shape == (n, n - 1)
    assert np.abs(b.T @ b - np.eye(n - 1)).max() < 1e-13
    assert np.abs(b.sum(axis=0)).max() < 1e-12
    # spanning {sum a = 0}: b b' is the projector I - 11'/n
    assert np.abs(b @ b.T - (np.eye(n) - 1.0 / n)).max() < 1e-13


# ----------------------------------------------------------------------
# evaluations that used to bypass the finiteness gate

def test_axioms_inconclusive_on_a_nonfinite_origin(pts012):
    rep = vb.variogram_axioms(lambda lags: np.full(np.shape(lags)[:-1], np.nan), pts012)
    assert rep.verdict == "inconclusive"
    assert all(rec.verdict == "inconclusive" and rec.witness is None
               for rec in rep.checks)
    assert "non-finite" in rep.record("cnd").detail


def test_pair_records_inconclusive_on_nonfinite_pair_values():
    """The grid itself is finite; only the sums a + b beyond 8 are NaN."""
    f = lambda x: np.where(np.asarray(x) > 8.0, np.nan, np.sqrt(np.abs(x)))
    rep = vb.profile_shape_check(f, np.linspace(0.0, 8.0, 9))
    assert rep.record("increasing").verdict == "pass"
    assert rep.record("concave").verdict == "pass"
    rec = rep.record("subadditive")
    assert rec.verdict == "inconclusive" and rec.witness is None
    assert "non-finite" in rec.detail


def test_eventual_constancy_all_d_head_raising_is_inconclusive():
    def prof(r):
        r = np.asarray(r, dtype=float)
        if (r < 1.0).any():
            raise vb.EvaluationError("profile undefined below r = 1")
        return np.ones_like(r)

    rep = vb.eventual_constancy_check(prof, inner=1.0, outer=3.0,
                                      all_d_certified=True)
    assert rep.record("constant_on_annulus").verdict == "pass"
    rec = rep.record("all_d_consistency")
    assert rec.verdict == "inconclusive" and rec.witness is None
    assert "EvaluationError" in rec.detail


# ----------------------------------------------------------------------
# the O(n^2) projection and the one-eigenpair solve

@pytest.mark.parametrize("n", [1, 2, 50])
def test_pd_statistic_is_the_smallest_eigenvalue(n):
    rng = np.random.default_rng(n)
    pts = vb.PointSet(rng.uniform(0.0, 3.0, size=(n, 2)))
    for cov in (lambda lags: np.exp(-abs_gamma(lags)),
                lambda lags: 1.0 - abs_gamma(lags) ** 2):
        c = vb.kernel_matrix(cov, pts)
        lam = np.linalg.eigvalsh(0.5 * (c + c.T))[0]
        rec = vb.pd_check(cov, pts).record("pd")
        assert abs(rec.statistic - lam / max(1.0, np.abs(c).max())) <= 1e-12


@pytest.mark.parametrize("n, gamma", [
    (2, abs_gamma),
    (2, cubic_gamma),
    (30, lambda lags: (-np.expm1(-abs_gamma(lags) ** 2)) ** 2),
])
def test_cnd_statistic_matches_a_qr_basis_eigh_reference(n, gamma):
    rng = np.random.default_rng(7)
    pts = vb.PointSet(rng.uniform(0.0, 3.0, size=(n, 2)))
    g = vb.kernel_matrix(gamma, pts)
    cols = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    q, _ = np.linalg.qr(cols)
    w, _ = np.linalg.eigh(q.T @ (0.5 * (g + g.T)) @ q)
    rec = vb.cnd_check(gamma, pts).record("cnd")
    assert abs(rec.statistic - w[-1] / max(1.0, np.abs(g).max())) <= 1e-12


def test_oracles_take_the_symmetric_part_of_an_uneven_kernel():
    """Only a radial model's matrix is taken as it is; a callable with an
    odd part is symmetrised before both eigensolves."""
    pts = vb.PointSet(np.random.default_rng(4).uniform(0.0, 3.0, size=(12, 2)))
    odd = lambda lags: 0.7 * np.asarray(lags)[..., 0]
    gamma = lambda lags: abs_gamma(lags) + odd(lags)
    cov = lambda lags: np.exp(-abs_gamma(lags)) + odd(lags)
    g, c = vb.kernel_matrix(gamma, pts), vb.kernel_matrix(cov, pts)
    q, _ = np.linalg.qr(np.vstack([np.eye(11), -np.ones((1, 11))]))
    cnd = np.linalg.eigvalsh(q.T @ (0.5 * (g + g.T)) @ q)[-1] / np.abs(g).max()
    pd = np.linalg.eigvalsh(0.5 * (c + c.T))[0] / max(1.0, np.abs(c).max())
    assert abs(vb.cnd_check(gamma, pts).record("cnd").statistic - cnd) <= 1e-12
    assert abs(vb.variogram_axioms(gamma, pts).record("cnd").statistic - cnd) <= 1e-12
    assert abs(vb.pd_check(cov, pts).record("pd").statistic - pd) <= 1e-12


@pytest.mark.parametrize("n", [3, 30])
def test_failing_cnd_witness_is_a_zero_sum_contrast_at_the_eigenvalue(n):
    rng = np.random.default_rng(3)
    pts = vb.PointSet(rng.uniform(0.0, 3.0, size=(n, 2)))
    rec = vb.cnd_check(cubic_gamma, pts).record("cnd")
    assert rec.verdict == "fail"
    w = rec.witness
    a = np.array(w["contrast"])
    assert abs(a.sum()) <= 1e-12
    g = vb.kernel_matrix(cubic_gamma, pts)
    assert w["quadratic_form"] == pytest.approx(float(a @ g @ a), abs=1e-10 * w["scale"])
    assert abs(w["quadratic_form"] - w["eigenvalue"]) <= 1e-10 * w["scale"]
    assert w["quadratic_form"] > rec.tolerance * w["scale"]


@pytest.mark.parametrize("n", [2, 7, 64])
def test_contrast_block_is_the_dense_basis_projection(n):
    rng = np.random.default_rng(n)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    s = 0.5 * (s + s.T)
    b = vb.contrast_basis(n)
    block = _contrast_block(s)
    assert np.array_equal(block, block.T)
    assert np.abs(block - b.T @ s @ b).max() <= 1e-13


def test_contrast_block_matches_the_projection_under_shift_and_scale():
    """A large constant S + 1e3 11' (which the contrasts annihilate) and a
    badly scaled D S D, D spanning 1e-4..1e4, within 1e-13 max|S|."""
    n = 64
    rng = np.random.default_rng(11)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    s = 0.5 * (s + s.T)
    skewed = np.logspace(-4.0, 4.0, n)[:, None] * s * np.logspace(-4.0, 4.0, n)
    b = vb.contrast_basis(n)
    for m in (s + 1e3, 0.5 * (skewed + skewed.T)):
        block = _contrast_block(m)
        assert np.array_equal(block, block.T)
        assert np.abs(block - b.T @ m @ b).max() <= 1e-13 * np.abs(m).max()


class _NoBlas(np.ndarray):
    """An array whose matrix products raise, and whose results stay _NoBlas."""

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("np.matmul called")
        plain = lambda a: a.view(np.ndarray) if isinstance(a, np.ndarray) else a
        args = [plain(a) for a in args]
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(o) for o in kwargs["out"])
        out = getattr(ufunc, method)(*args, **kwargs)
        return out.view(_NoBlas) if isinstance(out, np.ndarray) else out

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.dot, np.inner, np.vdot):
            raise AssertionError(f"np.{func.__name__} called")
        return super().__array_function__(func, types, args, kwargs)


def test_no_blas_guard_trips_on_matrix_products():
    a = np.eye(3).view(_NoBlas)
    for product in (lambda: a @ np.ones(3), lambda: np.ones(3) @ a,
                    lambda: np.dot(a, a), lambda: np.inner(a, a),
                    lambda: np.vdot(a, a), lambda: a.sum(axis=1) @ np.ones(3)):
        with pytest.raises(AssertionError, match="called"):
            product()


@pytest.mark.parametrize("n", [2, 7, 64])
def test_contrast_block_makes_no_blas_call(n):
    """numpy's BLAS and scipy's LAPACK run separate thread pools, so the
    projection before the eigensolver makes no numpy matrix product."""
    rng = np.random.default_rng(n)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    s = 0.5 * (s + s.T)
    block = _contrast_block(s.view(_NoBlas))
    b = vb.contrast_basis(n)
    assert np.abs(np.asarray(block) - b.T @ s @ b).max() <= 1e-13


@pytest.mark.parametrize("kernel", [
    cubic_gamma, vb.make_variogram(vb.fprod(*[vb.catalog("exp_one_minus", {"a": 1.0})] * 2),
                                   d=2)], ids=["callable", "radial"])
def test_failing_oracles_make_no_blas_call(monkeypatch, kernel):
    """Witnesses included: the next oracle's eigensolver would follow them."""
    from variobern import checks
    real = checks.kernel_matrix
    monkeypatch.setattr(checks, "kernel_matrix", lambda k, p: real(k, p).view(_NoBlas))
    pts = vb.PointSet(np.random.default_rng(5).uniform(0.0, 3.0, size=(30, 2)))
    g = real(kernel, pts)
    for rep, key in ((vb.cnd_check(kernel, pts), "contrast"),
                     (vb.variogram_axioms(kernel, pts), "contrast"),
                     (vb.pd_check(lambda h: -np.asarray(kernel(h)), pts), "weights")):
        w = rep.checks[-1].witness
        a = np.array(w[key])
        form = a @ (g if key == "contrast" else -g) @ a
        assert abs(w["quadratic_form"] - form) <= 1e-12 * w["scale"]


# ----------------------------------------------------------------------
# radial models: one evaluation per site pair

_A2 = [[1.0, 0.3], [-0.2, 2.0]]
_A3 = [[1.0, 0.3, 0.1], [0.0, 2.0, -0.4], [0.5, 0.0, 0.7]]
RADIAL_MODELS = {
    "log1p_d1": lambda: vb.make_variogram(vb.catalog("log1p"), d=1),
    "ma_d2": lambda: vb.ma_product(1.0, 2.0, d=2),
    "ma_aniso_d2": lambda: vb.ma_product(1.0, 2.0, A=_A2, d=2),
    "log1p_aniso_d2": lambda: vb.make_variogram(vb.catalog("log1p"), A=_A2, d=2),
    "log1p_aniso_d3": lambda: vb.make_variogram(vb.catalog("log1p"), A=_A3, d=3),
    "spherical_d3": lambda: vb.spherical(1.2, 3),
    "wendland_aniso_d2": lambda: vb.wendland(0.8, 2, 2, A=_A2),
    "wendland_aniso_d3": lambda: vb.wendland(1.5, 3, 3, A=_A3),
    "exponential_aniso_d2": lambda: vb.exponential_covariance(1.5, d=2, A=_A2),
    "spectral_d1": lambda: vb.spectral_variogram(vb.catalog("log1p")),
    "spectral_quadrature_d1": lambda: vb.spectral_variogram(vb.catalog("log1p").levy),
}


@pytest.mark.parametrize("n", [1, 2, 3, 40])
@pytest.mark.parametrize("name", sorted(RADIAL_MODELS))
def test_radial_kernel_matrix_is_the_lag_tensor_evaluation(name, n):
    """The upper-triangle assembly is bitwise model(pts.lags())."""
    model = RADIAL_MODELS[name]()
    rng = np.random.default_rng(n)
    pts = vb.PointSet(rng.uniform(-2.0, 2.0, size=(n, model.d)))
    assert np.array_equal(vb.kernel_matrix(model, pts), model(pts.lags()))


@pytest.mark.parametrize("n", [2, 3, 40])
@pytest.mark.parametrize("name", sorted(RADIAL_MODELS))
def test_radial_kernel_matrix_is_bitwise_symmetric(name, n):
    """So the oracles take it as its own symmetric part."""
    model = RADIAL_MODELS[name]()
    rng = np.random.default_rng(100 + n)
    pts = vb.PointSet(rng.uniform(-2.0, 2.0, size=(n, model.d)))
    g = vb.kernel_matrix(model, pts)
    assert np.array_equal(g, g.T)


@pytest.mark.parametrize("name", sorted(RADIAL_MODELS))
def test_radial_evenness_record_is_a_pass_at_zero(name):
    model = RADIAL_MODELS[name]()
    pts = vb.PointSet(np.random.default_rng(9).uniform(-2.0, 2.0, size=(12, model.d)))
    rec = vb.variogram_axioms(model, pts).record("evenness")
    assert (rec.verdict, rec.statistic, rec.witness) == ("pass", 0.0, None)


@pytest.mark.parametrize("block", [1, 5, 9, 100])
def test_radial_kernel_matrix_blocks_split_anywhere(monkeypatch, block):
    """Blocks shorter than a row, ending inside the next row, or holding
    the whole triangle give the same matrix."""
    from variobern import checks
    monkeypatch.setattr(checks, "_PAIR_BLOCK", block)
    model = RADIAL_MODELS["ma_aniso_d2"]()
    pts = vb.PointSet(np.random.default_rng(7).uniform(0.0, 3.0, size=(8, 2)))
    assert np.array_equal(vb.kernel_matrix(model, pts), model(pts.lags()))


@pytest.mark.parametrize("block", [7, 100])
@pytest.mark.parametrize("n", [2, 3, 50, 301])
@pytest.mark.parametrize("name", ["log1p_d1", "ma_d2", "ma_aniso_d2", "spherical_d3"])
def test_radial_assembly_by_rectangle_and_triangle(monkeypatch, block, n, name):
    """Blocks of single rows, of several rows and of a whole triangle;
    duplicate sites put zero lags off the diagonal, which take the
    endpoint branch of the profile, in the rectangle and in the triangle."""
    from variobern import checks
    monkeypatch.setattr(checks, "_PAIR_BLOCK", block)
    model = RADIAL_MODELS[name]()
    x = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, model.d))
    x[n // 2] = x[0]
    x[-1] = x[-2]
    pts = vb.PointSet(x)
    k = checks._radial_matrix(model, pts)
    assert np.array_equal(k, model(pts.lags()))
    assert np.array_equal(k, k.T)


def test_radial_kernel_matrix_over_several_full_blocks():
    """n = 400 has 79,800 pairs: two blocks of the module constant, the
    first one ending inside a row."""
    model = RADIAL_MODELS["log1p_aniso_d2"]()
    pts = vb.PointSet(np.random.default_rng(400).uniform(0.0, 1.0, size=(400, 2)))
    assert np.array_equal(vb.kernel_matrix(model, pts), model(pts.lags()))


def test_radial_kernel_matrix_evaluates_each_pair_once():
    calls = []

    class Counted(vb.Variogram):
        def __call__(self, lags):
            calls.append(np.shape(lags))
            return super().__call__(lags)

    model = Counted(profile=vb.catalog("log1p"), mode="squared_norm",
                    anisotropy=None, d=2)
    pts = vb.PointSet(np.random.default_rng(1).uniform(size=(30, 2)))
    vb.kernel_matrix(model, pts)
    assert calls == [(1, 2), (30 * 29 // 2, 2)]


def test_radial_kernel_matrix_needs_no_lag_tensor():
    """At n = 1024, d = 2 the (n, n, d) lag tensor alone is 16.8 MB and the
    full-tensor evaluation peaks at about 95 MB."""
    model = vb.ma_product(1.0, 2.0, d=2)
    pts = vb.PointSet(np.random.default_rng(2).uniform(size=(1024, 2)))
    tracemalloc.start()
    try:
        vb.kernel_matrix(model, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_radial_kernel_matrix_rejects_sites_of_another_dimension():
    model = RADIAL_MODELS["ma_d2"]()
    with pytest.raises(ParameterError, match="trailing dimension 2"):
        vb.kernel_matrix(model, vb.PointSet(np.zeros((4, 3))))


def _cosine(lags):
    return 1.0 - np.cos(np.asarray(lags)[..., 0])


def _cosine_with_nugget(lags):
    """1 - cos + 1e-6 off the origin: gamma(2 pi) misses gamma(0) by the
    nugget, while the shift by 2 pi leaves every nonzero lag's value as it is."""
    lags = np.asarray(lags)
    return np.where(np.any(lags != 0.0, axis=-1), _cosine(lags) + 1e-6, 0.0)


@pytest.mark.parametrize("gamma, refined_to", [
    (_cosine, 0.0),  # a refinement that lands on the origin is no period
    (_cosine_with_nugget, None),  # a refined value off gamma(0) is no period
])
def test_detect_period_refinement_skips_a_candidate(gamma, refined_to, monkeypatch):
    if refined_to is not None:
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "minimize_scalar",
                            lambda *args, **kw: types.SimpleNamespace(x=refined_to))
    assert vb.detect_period(gamma, search_radius=10.0) is None
