"""Shift kernels, nonstationary kernels, and the spectral construction."""

import csv
import math
import warnings

import numpy as np
import pytest

import variobern as vb
from variobern import algebra as alg
from variobern.atoms import COMPLEX_ATOMS
from variobern.errors import ConstructionError, ParameterError, QuadratureError


@pytest.fixture
def gamma2():
    return vb.ma_product(1.0, 0.5, d=2)


def test_difference_kernel_is_positive_definite(gamma2, rng):
    k = vb.difference_kernel(gamma2, [0.7, -0.2])
    pts = vb.PointSet(rng.uniform(-3, 3, size=(9, 2)))
    rep = vb.pd_check(k, pts, tol=1e-8)
    assert rep.passed


def test_sum_kernel_gram_psd(gamma2, rng):
    """As a two-argument kernel S(x, y) the sum construction is PSD; the
    one-argument slice S(., eta) alone is not a stationary covariance."""
    x = rng.uniform(-3, 3, size=(9, 2))
    gram = np.array([[float(vb.sum_kernel(gamma2, y)(xi[None, :])[0])
                      for y in x] for xi in x])
    assert np.allclose(gram, gram.T, atol=1e-12)
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert w.min() >= -1e-10 * max(1.0, w.max())


def test_shift_pair_identity(gamma2, rng):
    """difference + sum = 2 gamma(eta) pointwise, exactly by construction."""
    pair = vb.shift_pair(gamma2, [1.3, 0.4])
    xi = rng.uniform(-4, 4, size=(50, 2))
    assert np.abs(pair.identity_gap(xi)).max() < 1e-14


def test_sum_kernel_symmetric_in_arguments(gamma2):
    eta = np.array([0.9, -0.3])
    xi = np.array([[0.2, 1.4]])
    a = vb.sum_kernel(gamma2, eta)(xi)
    b = vb.sum_kernel(vb.ma_product(1.0, 0.5, d=2), xi[0])(eta[None, :])
    assert float(a[0]) == pytest.approx(float(b[0]), rel=1e-14)


def test_difference_kernel_vanishes_at_zero_shift(gamma2):
    k = vb.difference_kernel(gamma2, [0.0, 0.0])
    xi = np.array([[0.5, 0.5], [2.0, -1.0]])
    assert np.abs(k(xi)).max() == 0.0


# ----------------------------------------------------------------------
# nonstationary kernels

def test_nonstationary_kernel_fractional_brownian_diagonal():
    g = vb.catalog("power", {"a": 1.0})
    k = vb.nonstationary_kernel(lambda r: vb.evaluate(g, r), d=1)
    x = np.array([[0.5], [1.0], [2.5]])
    diag = k(x, x)
    assert np.allclose(diag, 2.0 * x[:, 0], rtol=1e-14)
    # K(x, 0) = 0 for every x
    assert np.abs(k(x, np.zeros((3, 1)))).max() < 1e-14


def test_nonstationary_kernel_gram_psd(rng):
    g = vb.catalog("power", {"a": 0.75})
    k = vb.nonstationary_kernel(lambda r: vb.evaluate(g, r), d=2)
    pts = vb.PointSet(rng.uniform(-2, 2, size=(10, 2)))
    gram = k.gram(pts)
    assert np.allclose(gram, gram.T, atol=1e-14)
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert w.min() >= -1e-10 * max(1.0, w.max())


def test_nonstationary_kernel_indefinite_for_cubic(rng):
    """g(r) = r^3 is not a variogram profile, and the induced two-argument
    form stops being positive semidefinite."""
    k = vb.nonstationary_kernel(
        lambda r: np.asarray(r, dtype=float) ** 3, d=1)
    pts = vb.PointSet(np.linspace(0.0, 4.0, 9)[:, None])
    w = np.linalg.eigvalsh(k.gram(pts))
    assert w.min() < -1e-6


def test_nonstationary_kernel_refuses_points_of_another_dimension():
    k = vb.nonstationary_kernel(lambda r: np.asarray(r, dtype=float), d=1)
    with pytest.raises(ParameterError, match="trailing dimension 1"):
        k.gram(vb.PointSet(np.zeros((4, 3))))
    with pytest.raises(ParameterError, match="trailing dimension 1"):
        k(np.ones((2, 5)), np.ones((2, 5)))
    with pytest.raises(ParameterError, match="trailing dimension 1"):
        k(np.ones((2, 1)), np.ones((2, 2)))
    with pytest.raises(ParameterError, match="trailing dimension 1"):
        k(1.0, 2.0)
    assert k(np.ones((2, 1)), np.zeros((2, 1))).shape == (2,)


def test_nonstationary_kernel_origin_gate():
    with pytest.raises(ConstructionError, match=r"g\(0\) = 0"):
        vb.nonstationary_kernel(lambda r: np.asarray(r) + 1.0, d=1)


# ----------------------------------------------------------------------
# spectral construction

def test_spectral_log1p_closed_form():
    """The log profile has the arctangent variogram as its spectral twin."""
    v = vb.spectral_variogram(vb.catalog("log1p"))
    assert v.certified and v.d == 1
    xi = np.array([[0.5], [1.0], [2.0], [5.0]])
    want = xi[:, 0] * np.arctan(xi[:, 0])
    assert np.allclose(v(xi), want, rtol=1e-9)
    assert float(v(np.array([[1.0]]))[0]) == pytest.approx(math.pi / 4.0,
                                                           rel=1e-9)


def test_spectral_frac_linear_closed_form():
    lam = 2.0
    v = vb.spectral_variogram(vb.catalog("frac_linear", {"lam": lam}))
    xi = np.array([[0.3], [1.7], [4.0]])
    x = xi[:, 0]
    want = lam ** 2 * x ** 2 / (lam ** 2 + x ** 2)
    assert np.allclose(v(xi), want, rtol=1e-9)


def test_spectral_matches_complex_reference():
    for f in (vb.catalog("log1p"), vb.catalog("frac_linear", {"lam": 0.7})):
        v = vb.spectral_variogram(f)
        xi = np.linspace(0.1, 6.0, 7)
        ref = vb.spectral_reference(f, xi)
        assert np.allclose(v(xi[:, None]), ref, rtol=1e-8)


def test_spectral_pure_drift():
    # f(x) = x has no jump part: gamma(xi) = xi^2
    v = vb.spectral_variogram(vb.catalog("power", {"a": 1.0}))
    xi = np.array([[0.5], [3.0]])
    assert np.allclose(v(xi), xi[:, 0] ** 2, rtol=1e-12)


def test_spectral_reference_scalar():
    assert vb.spectral_reference(vb.catalog("log1p"), 1.0) == pytest.approx(
        math.pi / 4.0, rel=1e-14)


def test_spectral_rejects_atomic_measures():
    f = vb.catalog("exp_one_minus", {"a": 1.0})
    with pytest.raises(ConstructionError, match="density"):
        vb.spectral_variogram(f)


def test_spectral_rejects_missing_triple():
    f = vb.compose(vb.catalog("log1p"), vb.catalog("log1p"))
    with pytest.raises(ConstructionError, match="Levy triple"):
        vb.spectral_variogram(f)


def test_spectral_variogram_axioms(line_points):
    v = vb.spectral_variogram(vb.catalog("log1p"))
    rep = vb.variogram_axioms(v, line_points, tol=1e-7)
    assert rep.passed


# ----------------------------------------------------------------------
# tabulation

def test_tabulate_kernel_csv_round_trip(tmp_path, gamma2):
    path = tmp_path / "tab.csv"
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
    vb.tabulate_kernel_csv(gamma2, coords, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "value"]
    got = np.array([[float(c) for c in row] for row in rows[1:]])
    assert np.array_equal(got[:, :2], coords)
    assert np.allclose(got[:, 2], gamma2(coords), rtol=0)
    assert path.read_bytes().startswith(b"x1,x2,value\r\n0.0,0.0,0.0\r\n1.0,1.0,")


def test_tabulate_kernel_csv_one_dim(tmp_path):
    v = vb.make_variogram(vb.catalog("power", {"a": 0.5}), d=1)
    path = tmp_path / "tab1.csv"
    vb.tabulate_kernel_csv(v, np.array([0.0, 2.0]), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "value"]
    assert [float(r[1]) for r in rows[1:]] == [0.0, 2.0]
    assert path.read_bytes() == b"x1,value\r\n0.0,0.0\r\n2.0,2.0\r\n"


def test_tabulate_kernel_csv_refuses_a_nan_or_no_points_before_writing(tmp_path):
    path = tmp_path / "tab.csv"
    with pytest.raises(ParameterError, match="finite"):
        vb.tabulate_kernel_csv(lambda x: np.full(len(x), np.nan),
                               np.array([0.0, 1.0]), path)
    with pytest.raises(ParameterError, match="n, d >= 1"):
        vb.tabulate_kernel_csv(vb.ma_product(1.0, 0.5, d=2), np.empty((0, 2)), path)
    assert not path.exists()


def test_spectral_gates_in_order_and_quietly():
    """A nonzero constant is refused before the density is looked at, a
    rising density before any quadrature, and a jump measure that does not
    integrate min(s, s^2) raises QuadratureError without leaking a warning."""
    rising = vb.catalog("power", {"a": 0.5})
    with pytest.raises(ConstructionError, match="constant"):
        vb.spectral_variogram(vb.LevyTriple(constant=1.0, density=rising))
    with pytest.raises(ParameterError, match="decreasing"):
        vb.spectral_variogram(vb.LevyTriple(density=rising))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="min"):
            vb.spectral_variogram(vb.LevyTriple(density=vb.catalog("recip")))


# ----------------------------------------------------------------------
# spectral evaluation: continuation and quadrature over the Levy density

SPECTRAL_LAGS = np.logspace(-3, math.log10(50.0), 9)

# parameters of every continued atom; the spectral ones carry a Levy density
# or a drift in their catalog triple
CONTINUED = {
    "const": [{"c": 0.0}],
    "exp_decay": [{"a": 1.0}],
    "exp_one_minus": [{"a": 1.0}],
    "frac_linear": [{"lam": 0.7}, {"lam": 3.0}],
    "log1p": [{}],
    "power": [{"a": 0.25}, {"a": 0.5}, {"a": 0.75}, {"a": 1.0}],
    "recip": [{}],
}
SPECTRAL_CARRIERS = [
    f for f in (vb.catalog(name, p) for name in sorted(CONTINUED) for p in CONTINUED[name])
    if f.levy is not None and (f.levy.density is not None or f.levy.drift > 0.0)]


def by_quadrature(f):
    """A spectral node on f's catalog triple as a free-standing carrier,
    which has no continuation."""
    return vb.spectral_node(f.levy)


def test_every_continued_atom_is_sampled():
    assert set(CONTINUED) == COMPLEX_ATOMS
    assert {f.name for f in SPECTRAL_CARRIERS} == {"frac_linear", "log1p", "power"}


@pytest.mark.parametrize("f, closed", [
    (vb.catalog("log1p"), lambda x: x * np.arctan(x)),
    (vb.catalog("frac_linear", {"lam": 0.7}), lambda x: 0.49 * x**2 / (0.49 + x**2)),
    (vb.catalog("frac_linear", {"lam": 3.0}), lambda x: 9.0 * x**2 / (9.0 + x**2)),
    *[(vb.catalog("power", {"a": a}),
       lambda x, a=a: x ** (1.0 + a) * math.sin(a * math.pi / 2.0))
      for a in (0.25, 0.5, 0.75)],
    (vb.catalog("power", {"a": 1.0}), lambda x: x**2),
], ids=["log1p", "frac_linear_0.7", "frac_linear_3", "power_0.25", "power_0.5",
        "power_0.75", "power_1"])
def test_spectral_continuation_matches_the_closed_forms(f, closed):
    got = vb.evaluate(vb.spectral_node(f), SPECTRAL_LAGS)
    want = closed(SPECTRAL_LAGS)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("f", SPECTRAL_CARRIERS, ids=vb.describe)
def test_spectral_quadrature_over_m_matches_the_continuation(f):
    quad = vb.evaluate(by_quadrature(f), SPECTRAL_LAGS)
    closed = vb.evaluate(vb.spectral_node(f), SPECTRAL_LAGS)
    assert np.max(np.abs(quad - closed) / closed) <= 1e-11


@pytest.mark.parametrize("f, lags", [
    (vb.catalog("power", {"a": 0.01}), SPECTRAL_LAGS),
    (vb.catalog("power", {"a": 0.99}), SPECTRAL_LAGS),
    (vb.catalog("frac_linear", {"lam": 1e-6}), 1e-6 * SPECTRAL_LAGS),
    (vb.catalog("frac_linear", {"lam": 1e6}), 1e6 * SPECTRAL_LAGS),
], ids=["power_0.01", "power_0.99", "frac_linear_1e-6", "frac_linear_1e6"])
def test_spectral_quadrature_on_densities_far_from_the_test_carriers(f, lags):
    """A density barely integrable at 0 or at inf, and one whose mass lies
    near t = 1e6 or 1e-6."""
    quad = vb.evaluate(by_quadrature(f), lags)
    closed = vb.evaluate(vb.spectral_node(f), lags)
    assert np.max(np.abs(quad - closed) / closed) <= 1e-10


def test_a_foreign_triple_is_never_read_through_the_continuation(monkeypatch):
    """frac_linear(1)'s triple as a free-standing carrier is frac_linear's
    variogram by quadrature: no complex argument reaches any node."""
    real = alg._ev
    complex_calls = []
    monkeypatch.setattr(alg, "_ev", lambda e, x: complex_calls.append(
        np.iscomplexobj(x)) or real(e, x))
    got = vb.evaluate(by_quadrature(vb.catalog("frac_linear", {"lam": 1.0})), SPECTRAL_LAGS)
    x = SPECTRAL_LAGS
    assert np.max(np.abs(got - x**2 / (1.0 + x**2)) / got) <= 1e-11
    assert complex_calls and not any(complex_calls)


def test_a_spectral_node_evaluates_the_carrier_it_names():
    """The drift-5 triple is 5 h^2 and names its triple; the log1p atom is
    h arctan(h) and names log1p. No node holds a triple it does not
    evaluate by."""
    h = np.array([0.5, 1.0, 3.0])
    drift = vb.spectral_variogram(vb.LevyTriple(drift=5.0))
    assert drift.construction == "spectral_variogram(levy(drift=5, constant=0))"
    assert np.array_equal(drift(h[:, None]), 5.0 * h * h)
    log1p = vb.spectral_variogram(vb.catalog("log1p"))
    assert log1p.construction == "spectral_variogram(log1p())"
    assert np.allclose(log1p(h[:, None]), h * np.arctan(h), rtol=1e-14)
    assert drift.profile.levy is None and log1p.profile.levy is None


@pytest.mark.parametrize("node", [vb.spectral_node, by_quadrature],
                         ids=["continuation", "quadrature"])
def test_spectral_endpoint_limits_hold_on_both_paths(node):
    bounded = node(vb.catalog("frac_linear", {"lam": 3.0}))
    assert list(vb.evaluate(bounded, np.array([0.0, np.inf]))) == [0.0, 9.0]
    for unbounded in (vb.catalog("log1p"), vb.catalog("power", {"a": 1.0})):
        assert vb.evaluate(node(unbounded), 0.0) == 0.0
        with pytest.raises(vb.EvaluationError, match="non-finite"):
            vb.evaluate(node(unbounded), np.inf)


def test_one_integral_of_m_gates_levy_eval_and_the_spectral_node():
    density = vb.catalog("frac_linear", {"lam": 1.2345}).levy.density
    triple = vb.LevyTriple(density=density)
    before = alg._levy_moment_finite.cache_info()
    vb.spectral_node(triple)
    vb.levy_eval(triple, 1.0)
    vb.spectral_variogram(triple)
    after = alg._levy_moment_finite.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2


@pytest.mark.parametrize("lam", [1e-14, 1e-12, 1e11, 1e12])
def test_a_catalog_carrier_is_not_gated_numerically(lam):
    """frac_linear's density lam^2 e^(-lam t) has its mass beyond the
    dyadic pieces of the moment gate; the catalog states that triple and the
    continuation evaluates it, so the node is built and exact."""
    v = vb.spectral_variogram(vb.catalog("frac_linear", {"lam": lam}))
    x = np.array([0.1, 1.0, 10.0]) / lam
    want = lam**2 * x**2 / (lam**2 + x**2)
    assert np.max(np.abs(v(x[:, None]) - want) / want) <= 1e-12


def test_a_quadrature_spectral_node_runs_one_quadrature_per_column(monkeypatch):
    """64 distinct lags, each given twice, and a 0 are two columns of
    _COLUMNS distinct lags: two quadratures."""
    node = by_quadrature(vb.catalog("log1p"))  # its moment gate is one more
    calls = []
    real = alg._gauss_kronrod
    monkeypatch.setattr(alg, "_gauss_kronrod", lambda *a: calls.append(a) or real(*a))
    lags = np.logspace(-2, 1, 64)
    got = vb.evaluate(node, np.concatenate([lags, lags[::-1], [0.0]]))
    assert len(calls) == 2 == 64 // alg._COLUMNS
    assert np.array_equal(got[:64], got[127:63:-1]) and got[-1] == 0.0
    assert np.max(np.abs(got[:64] - lags * np.arctan(lags)) / got[:64]) <= 1e-11
