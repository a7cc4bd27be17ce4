"""Ordinary kriging, sparse mode, simulation, empirical variograms."""

import math
import tracemalloc

import numpy as np
import pytest

import variobern as vb
from variobern import kriging
from variobern.errors import DegenerateSystemError, ParameterError


def obs(coords, values):
    return vb.PointSet(np.asarray(coords, float),
                       np.asarray(values, float))


@pytest.fixture
def exp_model():
    return vb.exponential_covariance(1.0, d=1)


@pytest.fixture
def wendland_model():
    return vb.wendland(1.5, 2, d=2)


# ----------------------------------------------------------------------
# matrices

def test_gamma_matrix_dense_values(exp_model):
    pts = obs([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
    k = vb.build_gamma_matrix(exp_model, pts)
    want = np.exp(-np.abs(np.arange(3)[:, None] - np.arange(3)[None, :]))
    assert np.allclose(k, want, rtol=1e-14)


@pytest.mark.parametrize("model", [
    vb.ma_product(1.0, 2.0, A=[[1.0, 0.3], [-0.2, 2.0]], d=2),
    vb.wendland(1.5, 2, d=2),
], ids=["ma_product", "wendland"])
def test_gamma_matrix_dense_is_the_oracles_kernel_matrix(model, rng):
    pts = vb.PointSet(rng.uniform(0, 6, size=(50, 2)))
    k = vb.build_gamma_matrix(model, pts, "dense")
    assert np.array_equal(k, vb.kernel_matrix(model, pts))
    assert np.array_equal(k, model(pts.lags()))


def test_gamma_matrix_sparse_matches_dense(wendland_model, rng):
    coords = rng.uniform(0, 6, size=(40, 2))
    pts = vb.PointSet(coords)
    dense = vb.build_gamma_matrix(wendland_model, pts, "dense")
    sparse = vb.build_gamma_matrix(wendland_model, pts, "sparse")
    assert np.allclose(sparse.toarray(), dense, atol=1e-15)


def test_gamma_matrix_sparse_stores_only_support_pairs(wendland_model, rng):
    coords = rng.uniform(0, 8, size=(60, 2))
    pts = vb.PointSet(coords)
    sparse = vb.build_gamma_matrix(wendland_model, pts, "sparse")
    dense = vb.build_gamma_matrix(wendland_model, pts, "dense")
    off_diag_nnz = sparse.nnz - pts.n  # the diagonal is always stored
    assert off_diag_nnz == int((dense != 0).sum()) - pts.n


def test_gamma_matrix_sparse_gate_names_requirement(exp_model):
    pts = obs([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ParameterError, match="finite support radius"):
        vb.build_gamma_matrix(exp_model, pts, "sparse")
    gamma = vb.spherical(1.0, d=1)
    with pytest.raises(ParameterError, match="sill - gamma"):
        vb.build_gamma_matrix(gamma, pts, "sparse")


def test_gamma_matrix_mode_gate(exp_model):
    pts = obs([[0.0]], [1.0])
    with pytest.raises(ParameterError, match="dense | sparse"):
        vb.build_gamma_matrix(exp_model, pts, "banded")


# ----------------------------------------------------------------------
# ordinary kriging

def test_kriging_symmetric_pair_weights(exp_model):
    pts = obs([[-1.0], [1.0]], [2.0, 4.0])
    res = vb.ordinary_kriging(exp_model, pts, [0.0])
    assert np.allclose(res.weights, [0.5, 0.5], atol=1e-12)
    assert res.prediction == pytest.approx(3.0, rel=1e-12)
    assert abs(res.weights.sum() - 1.0) < 1e-12


def test_kriging_exactness_at_sites(exp_model):
    pts = obs([[0.0], [1.5], [4.0]], [1.0, -2.0, 0.5])
    for i in range(3):
        res = vb.ordinary_kriging(exp_model, pts, pts.coords[i])
        assert res.prediction == pytest.approx(float(pts.values[i]), abs=1e-9)


def test_kriging_single_site_echoes_value(exp_model):
    pts = obs([[2.0]], [5.0])
    res = vb.ordinary_kriging(exp_model, pts, [7.0])
    assert res.prediction == pytest.approx(5.0)
    assert np.allclose(res.weights, [1.0])


def test_kriging_duplicate_sites_error(exp_model):
    pts = obs([[1.0], [1.0]], [0.0, 1.0])
    with pytest.raises(DegenerateSystemError, match="duplicate"):
        vb.ordinary_kriging(exp_model, pts, [0.0])


def test_kriging_needs_values(exp_model):
    pts = vb.PointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ParameterError, match="values"):
        vb.ordinary_kriging(exp_model, pts, [0.5])


def test_kriging_weights_translation_invariant(exp_model, rng):
    coords = np.sort(rng.uniform(0, 5, size=(6, 1)), axis=0)
    vals = rng.normal(size=6)
    a = vb.ordinary_kriging(exp_model, obs(coords, vals), [2.2])
    b = vb.ordinary_kriging(exp_model, obs(coords + 10.0, vals), [12.2])
    assert np.allclose(a.weights, b.weights, atol=1e-9)
    assert a.prediction == pytest.approx(b.prediction, rel=1e-9)


def test_kriging_variogram_equals_covariance_weights(rng):
    """Ordinary kriging is invariant under C -> sill - gamma: both forms
    of the same model give identical weights and predictions."""
    cov = vb.spherical_covariance(2.0, d=1)
    gamma = vb.variogram_from_covariance(cov)
    coords = np.linspace(0.0, 3.0, 7)[:, None]
    vals = rng.normal(size=7)
    target = [1.3]
    a = vb.ordinary_kriging(cov, obs(coords, vals), target)
    b = vb.ordinary_kriging(gamma, obs(coords, vals), target)
    assert np.allclose(a.weights, b.weights, atol=1e-8)
    assert a.prediction == pytest.approx(b.prediction, abs=1e-8)


def test_kriging_sparse_matches_dense(wendland_model, rng):
    coords = rng.uniform(0, 6, size=(30, 2))
    vals = rng.normal(size=30)
    pts = obs(coords, vals)
    target = [3.0, 3.0]
    dense = vb.ordinary_kriging(wendland_model, pts, target, mode="dense")
    sparse = vb.ordinary_kriging(wendland_model, pts, target, mode="sparse")
    assert np.allclose(dense.weights, sparse.weights, atol=1e-9)
    assert dense.prediction == pytest.approx(sparse.prediction, abs=1e-9)
    assert dense.lagrange == pytest.approx(sparse.lagrange, abs=1e-9)


def test_sparse_factor_is_symmetric(wendland_model, rng, monkeypatch):
    """One symmetric-mode factor: the same permutation on rows and columns,
    and less fill than the default column ordering of an unsymmetric LU.
    SymmetricMode leaves fill and permutations as they are here but cuts the
    factor time about threefold at n = 2025, so the call must ask for it."""
    factors = []

    def recording_splu(*args, **kw):
        assert kw["options"]["SymmetricMode"] is True
        factors.append(real_splu(*args, **kw))
        return factors[-1]

    real_splu = kriging.splu
    monkeypatch.setattr(kriging, "splu", recording_splu)
    pts = obs(rng.uniform(0, 6, size=(80, 2)), rng.normal(size=80))
    targets = rng.uniform(0, 6, size=(5, 2))
    sparse = vb.krige_many(wendland_model, pts, targets, mode="sparse")
    [lu] = factors
    assert np.array_equal(lu.perm_r, lu.perm_c)
    unsymmetric = real_splu(vb.build_gamma_matrix(wendland_model, pts, "sparse"))
    assert lu.L.nnz < unsymmetric.L.nnz
    for a, b in zip(sparse, vb.krige_many(wendland_model, pts, targets)):
        assert np.abs(a.weights - b.weights).max() <= 1e-9
        assert a.residual < 1e-12


def test_sparse_residual_gate(wendland_model, rng, monkeypatch):
    """A solve that misses the system is caught by the dense path's gate."""

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs) + 1e-4

    real_splu = kriging.splu
    monkeypatch.setattr(kriging, "splu", lambda *a, **kw: Perturbed(real_splu(*a, **kw)))
    pts = obs(rng.uniform(0, 6, size=(30, 2)), rng.normal(size=30))
    with pytest.raises(DegenerateSystemError, match=r"residual \d"):
        vb.ordinary_kriging(wendland_model, pts, [3.0, 3.0], mode="sparse")


def test_kriging_result_json(exp_model):
    pts = obs([[-1.0], [1.0]], [2.0, 4.0])
    d = vb.ordinary_kriging(exp_model, pts, [0.0]).to_json()
    assert set(d) == {"prediction", "weights", "lagrange", "mode"}
    assert d["mode"] == "dense"


# ----------------------------------------------------------------------
# simulation

def test_simulate_seeded_determinism(exp_model):
    pts = vb.PointSet(np.linspace(0, 4, 5)[:, None])
    spec = vb.SimulationSpec(exp_model, pts, seed=303, n_replicates=4)
    a, info_a = vb.simulate_field(spec)
    b, info_b = vb.simulate_field(spec)
    assert np.array_equal(a, b)
    assert a.shape == (4, 5)
    assert info_a["diag_shift"] == info_b["diag_shift"]


def test_simulate_replicates_differ_and_seeds_differ(exp_model):
    pts = vb.PointSet(np.linspace(0, 4, 5)[:, None])
    a, _ = vb.simulate_field(vb.SimulationSpec(exp_model, pts, 1, 3))
    b, _ = vb.simulate_field(vb.SimulationSpec(exp_model, pts, 2, 3))
    assert not np.array_equal(a[0], a[1])
    assert not np.array_equal(a, b)


def test_simulate_row_i_is_the_factor_times_stream_i():
    """Replicate i colours the standard normals of SeedSequence((seed, i))."""
    model = vb.exponential_covariance(0.5, d=2)
    pts = vb.PointSet(np.random.default_rng(7).uniform(0, 5, size=(30, 2)))
    z, info = vb.simulate_field(vb.SimulationSpec(model, pts, 41, 70))
    gram = kriging.build_gamma_matrix(model, pts)
    w, v = np.linalg.eigh(0.5 * (gram + gram.T))
    factor = v * np.sqrt(w + info["diag_shift"])
    assert z.shape == (70, 30)
    for i, row in enumerate(z):
        g = np.random.default_rng(np.random.SeedSequence((41, i))).standard_normal(pts.n)
        np.testing.assert_allclose(row, factor @ g, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 63, 64, 65, 130])
def test_simulate_first_rows_do_not_depend_on_the_replicate_count(k):
    """The first k replicates are the same bits for k and k + 5 replicates,
    across the block size of the colouring product."""
    model = vb.exponential_covariance(0.5, d=2)
    pts = vb.PointSet(np.random.default_rng(8).uniform(0, 5, size=(40, 2)))
    few, _ = vb.simulate_field(vb.SimulationSpec(model, pts, 12, k))
    more, _ = vb.simulate_field(vb.SimulationSpec(model, pts, 12, k + 5))
    assert few.shape == (k, 40)
    assert np.array_equal(few, more[:k])


def test_simulate_marginal_variance(exp_model):
    """Each site's sample variance matches the sill within Monte Carlo error."""
    pts = vb.PointSet(np.linspace(0, 4, 4)[:, None])
    z, _ = vb.simulate_field(vb.SimulationSpec(exp_model, pts, 99, 4000))
    v = z.var(axis=0)
    assert np.abs(v - 1.0).max() < 0.1


@pytest.mark.parametrize("model", [
    vb.exponential_covariance(1.0, d=1),
    vb.matern_covariance(1.0, 1.5, d=1),
], ids=["exponential", "matern"])
def test_simulate_reports_the_gram_conditioning(model):
    pts = vb.PointSet(np.linspace(0, 4, 9)[:, None])
    _, info = vb.simulate_field(vb.SimulationSpec(model, pts, 5, 3))
    w = np.linalg.eigvalsh(model(pts.lags()))
    assert w[0] > 0.0 and info["diag_shift"] == 0.0
    assert info["min_eigenvalue"] == pytest.approx(w[0], rel=1e-9)
    assert info["cond"] == pytest.approx(w[-1] / w[0], rel=1e-9)


def test_simulate_cond_is_infinite_where_the_shifted_gram_is_singular():
    """Two equal sites: the smallest eigenvalue is zero up to roundoff."""
    pts = vb.PointSet(np.array([[0.0], [0.0], [1.0]]))
    model = vb.exponential_covariance(1.0, d=1)
    _, info = vb.simulate_field(vb.SimulationSpec(model, pts, 0, 2))
    w = np.linalg.eigvalsh(model(pts.lags()))
    assert abs(info["min_eigenvalue"]) <= 1e-14 * w[-1]
    assert info["diag_shift"] == max(0.0, -info["min_eigenvalue"])
    if info["min_eigenvalue"] <= 0.0:
        assert info["cond"] == math.inf
    else:
        assert info["cond"] == pytest.approx(w[-1] / info["min_eigenvalue"], rel=1e-6)


def test_simulate_rejects_indefinite_model():
    bad = vb.make_variogram(vb.fprod(*[vb.catalog("power", {"a": 1.0})] * 3),
                            d=1)  # |xi|^6: wildly non-CND
    pts = vb.PointSet(np.linspace(0, 3, 6)[:, None])
    spec = vb.SimulationSpec(bad, pts, seed=0, n_replicates=2)
    with pytest.raises(DegenerateSystemError, match="indefinite"):
        vb.simulate_field(spec)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_simulate_rejects_a_non_finite_tol(tol):
    """An infinite or NaN tol used to shift an indefinite Gram matrix
    (1 - |x| on 20 sites) until it looked valid and draw from it."""
    cov = vb.covariance_from_variogram(
        vb.make_variogram(vb.catalog("power", {"a": 1.0}), d=1), 1.0)
    pts = vb.PointSet(np.linspace(0.0, 5.0, 20)[:, None])
    spec = vb.SimulationSpec(cov, pts, seed=0, n_replicates=2)
    with pytest.raises(DegenerateSystemError, match="indefinite"):
        vb.simulate_field(spec)
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        vb.simulate_field(spec, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1e-3])
def test_simulate_rejects_a_nonpositive_tol(exp_model, tol):
    pts = vb.PointSet(np.linspace(0.0, 3.0, 6)[:, None])
    spec = vb.SimulationSpec(exp_model, pts, seed=0, n_replicates=2)
    assert vb.simulate_field(spec)[1]["diag_shift"] == 0.0
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        vb.simulate_field(spec, tol=tol)


def test_simulation_spec_gate(exp_model):
    pts = vb.PointSet(np.zeros((1, 1)))
    with pytest.raises(ParameterError):
        vb.SimulationSpec(exp_model, pts, seed=0, n_replicates=0)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", True), ("seed", 2.5), ("seed", None),
    ("n_replicates", True), ("n_replicates", 2.5),
])
def test_simulation_spec_reads_seed_and_count_as_integers(exp_model, field, value):
    """A negative seed used to reach SeedSequence as a bare ValueError, a
    boolean read as 1 and a fractional count as a bare TypeError."""
    pts = vb.PointSet(np.zeros((1, 1)))
    kw = {"seed": 0, "n_replicates": 2, field: value}
    with pytest.raises(ParameterError):
        vb.SimulationSpec(exp_model, pts, **kw)


def test_simulation_spec_takes_integral_values_as_ints(exp_model):
    pts = vb.PointSet(np.zeros((1, 1)))
    spec = vb.SimulationSpec(exp_model, pts, seed=np.int64(7), n_replicates=3.0)
    assert type(spec.seed) is int and type(spec.n_replicates) is int
    assert (spec.seed, spec.n_replicates) == (7, 3)
    assert vb.SimulationSpec(exp_model, pts, 2**64 + 3, 1).seed == 2**64 + 3


# from 2**96 up, the seed's 32-bit words and the stream index are more than
# the four entropy words of the hash pool
_STREAM_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**128 + 5,
                 2**200 + 12345]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_stream_states_are_the_seed_sequence_words(seed):
    """Pins numpy's SeedSequence hash: a numpy that changed it fails here."""
    want = np.stack([np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                     for i in range(300)])
    got = kriging._stream_states(seed, 300)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


def test_stream_states_refuse_a_negative_seed():
    with pytest.raises(ParameterError):
        kriging._stream_states(-1, 3)


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_simulate_draws_the_default_rng_streams_bit_for_bit(seed):
    """The replicates are the blocked colouring of the normals of
    default_rng(SeedSequence((seed, i))), with every bit equal; a numpy
    that changed PCG64's seeding rule fails here."""
    model = vb.exponential_covariance(0.5, d=2)
    pts = vb.PointSet(np.random.default_rng(9).uniform(0, 5, size=(25, 2)))
    r, b = 70, kriging._COLOUR_ROWS
    z, info = vb.simulate_field(vb.SimulationSpec(model, pts, seed, r))
    g = np.zeros((-(-r // b) * b, pts.n))
    for i in range(r):
        g[i] = np.random.default_rng(np.random.SeedSequence((seed, i))).standard_normal(pts.n)
    w, v = np.linalg.eigh(kriging.build_gamma_matrix(model, pts))
    factor = v * np.sqrt(w + info["diag_shift"])
    want = np.concatenate([g[s:s + b] @ factor.T for s in range(0, len(g), b)])
    assert np.array_equal(z, want[:r])


# ----------------------------------------------------------------------
# empirical variogram

def test_empirical_variogram_bins_and_counts():
    pts = vb.PointSet(np.array([[0.0], [1.0], [2.0], [4.0]]))
    z = np.array([[0.0, 1.0, 2.0, 4.0],
                  [1.0, 1.0, 1.0, 1.0]])
    rows = vb.empirical_variogram(z, pts, bins=[0.0, 1.5, 2.5, 4.0])
    # pair distances: 1, 1, 2, 2, 3, 4
    assert [r[2] for r in rows] == [2, 2, 2]
    lo, hi, count, gh = rows[0]
    # identity replicate contributes (1^2)/2, constant replicate 0
    assert gh == pytest.approx(0.25)
    # last bin is closed on the right, so distance 4 lands in it
    assert rows[2][1] == 4.0


def test_empirical_variogram_empty_bin_nan():
    pts = vb.PointSet(np.array([[0.0], [1.0]]))
    z = np.zeros((3, 2))
    rows = vb.empirical_variogram(z, pts, bins=[0.0, 0.5, 2.0])
    assert rows[0][2] == 0 and math.isnan(rows[0][3])
    assert rows[1][2] == 1 and rows[1][3] == 0.0


def test_empirical_variogram_matches_model(exp_model):
    """With many replicates the empirical variogram reproduces
    sill - C within a few percent."""
    pts = vb.PointSet(np.linspace(0.0, 6.0, 5)[:, None])
    z, _ = vb.simulate_field(vb.SimulationSpec(exp_model, pts, 2026, 20000))
    gamma = vb.variogram_from_covariance(exp_model)
    for lo, hi, count, gh in vb.empirical_variogram(z, pts, bins=6):
        if count == 0:
            continue
        mid = 0.5 * (lo + hi)
        want = float(gamma(np.array([[mid]]))[0])
        assert abs(gh - want) <= 0.05 * max(want, 0.1), (lo, hi)


def test_empirical_variogram_shape_gates():
    pts = vb.PointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ParameterError, match="shape"):
        vb.empirical_variogram(np.zeros((3, 5)), pts, bins=3)
    with pytest.raises(ParameterError, match="increasing"):
        vb.empirical_variogram(np.zeros((3, 2)), pts, bins=[1.0, 0.5])


@pytest.mark.parametrize("bins", [0, -1, 2.5, math.nan, True])
def test_empirical_variogram_bin_count_must_be_a_positive_integer(bins):
    pts = vb.PointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ParameterError, match="bin count"):
        vb.empirical_variogram(np.zeros((3, 2)), pts, bins=bins)


def test_kriging_duplicate_sites_detected_in_any_order():
    exp2 = vb.exponential_covariance(1.0, d=2)
    pts = obs([[0.0, 1.0], [2.0, 2.0], [-0.0, 1.0]], [0.0, 1.0, 2.0])
    with pytest.raises(DegenerateSystemError, match="duplicate"):
        vb.ordinary_kriging(exp2, pts, [0.5, 0.5])
    near = obs([[0.0, 1.0], [2.0, 2.0], [1e-9, 1.0]], [0.0, 1.0, 2.0])
    assert np.isfinite(vb.ordinary_kriging(exp2, near, [0.5, 0.5], mode="dense").prediction)


# ----------------------------------------------------------------------
# batched kriging, variance and residual

def _bordered_reference(model, pts, target):
    """Per-target ordinary kriging by one dense solve of the bordered system."""
    n = pts.n
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = model(pts.lags())
    a[n, n] = 0.0
    rhs = np.append(model(np.asarray(target) - pts.coords), 1.0)
    sol = np.linalg.solve(a, rhs)
    return sol[:n] @ pts.values, sol[:n], sol[n]


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_krige_many_matches_per_target_reference(mode, rng):
    model = vb.ma_product(0.5, 1.5, d=2) if mode == "dense" else vb.wendland(1.5, 2, d=2)
    pts = obs(rng.uniform(0, 5, size=(60, 2)), rng.normal(size=60))
    targets = rng.uniform(0, 5, size=(7, 2))
    results = vb.krige_many(model, pts, targets, mode=mode)
    assert len(results) == len(targets)
    for target, res in zip(targets, results):
        pred, w, mu = _bordered_reference(model, pts, target)
        assert res.mode == mode
        assert abs(res.prediction - pred) <= 1e-10
        assert np.abs(res.weights - w).max() <= 1e-10
        assert abs(res.lagrange - mu) <= 1e-10
        assert 0.0 <= res.residual < 1e-10


def test_krige_many_single_target_equals_ordinary_kriging(wendland_model, rng):
    pts = obs(rng.uniform(0, 4, size=(25, 2)), rng.normal(size=25))
    target = np.array([1.7, 2.2])
    for mode in ("dense", "sparse"):
        [many] = vb.krige_many(wendland_model, pts, target[None, :], mode=mode)
        one = vb.ordinary_kriging(wendland_model, pts, target, mode=mode)
        assert many.prediction == one.prediction
        assert np.array_equal(many.weights, one.weights)
        assert (many.lagrange, many.variance, many.residual) == (
            one.lagrange, one.variance, one.residual)


def test_krige_many_gates(exp_model):
    targets = np.array([[0.0], [0.5]])
    with pytest.raises(DegenerateSystemError, match="duplicate"):
        vb.krige_many(exp_model, obs([[1.0], [1.0]], [0.0, 1.0]), targets)
    with pytest.raises(ParameterError, match="values"):
        vb.krige_many(exp_model, vb.PointSet(np.array([[0.0], [1.0]])), targets)
    pts = obs([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ParameterError, match="dense | sparse"):
        vb.krige_many(exp_model, pts, targets, mode="banded")
    with pytest.raises(ParameterError, match="shape"):
        vb.krige_many(exp_model, pts, np.zeros(2))


def test_kriging_variance_zero_at_sites(rng):
    cov = vb.exponential_covariance(0.8, d=2)
    pts = obs(rng.uniform(0, 3, size=(12, 2)), rng.normal(size=12))
    for model in (cov, vb.variogram_from_covariance(cov), vb.ma_product(1.0, 2.0, d=2)):
        for res in vb.krige_many(model, pts, pts.coords):
            assert abs(res.variance) <= 1e-10


def test_kriging_variance_is_the_variogram_quadratic_form(rng):
    """sigma^2 = 2 w'gamma0 - w'Gamma w for a variogram (Cressie 1993, 3.2)."""
    gamma = vb.ma_product(1.0, 2.0, d=2)
    pts = obs(rng.uniform(0, 3, size=(15, 2)), rng.normal(size=15))
    big = gamma(pts.lags())
    for target in rng.uniform(0, 3, size=(4, 2)):
        res = vb.ordinary_kriging(gamma, pts, target)
        g0 = gamma(target - pts.coords)
        want = 2.0 * res.weights @ g0 - res.weights @ big @ res.weights
        assert res.variance == pytest.approx(want, abs=1e-10)
        assert res.variance > 0.0


def test_kriging_variance_same_for_covariance_and_its_variogram(rng):
    cov = vb.wendland(1.5, 2, d=2)
    gamma = vb.variogram_from_covariance(cov)
    pts = obs(rng.uniform(0, 3, size=(20, 2)), rng.normal(size=20))
    targets = rng.uniform(0, 3, size=(5, 2))
    for a, b in zip(vb.krige_many(cov, pts, targets), vb.krige_many(gamma, pts, targets)):
        assert a.variance == pytest.approx(b.variance, abs=1e-10)
        assert 0.0 < a.variance <= 2.0 * cov.sill
    for a, b in zip(vb.krige_many(cov, pts, targets, mode="sparse"),
                    vb.krige_many(cov, pts, targets)):
        assert a.variance == pytest.approx(b.variance, abs=1e-10)


# ----------------------------------------------------------------------
# empirical variogram, streamed

def test_empirical_variogram_matches_pair_array_formula(rng):
    """Equal to the mean over the (replicates, site pairs) array."""
    pts = vb.PointSet(rng.uniform(0, 4, size=(30, 2)))
    z = rng.normal(size=(40, 30)) + np.linspace(0.0, 3.0, 30)
    iu, ju = np.triu_indices(pts.n, k=1)
    d = np.linalg.norm(pts.coords[iu] - pts.coords[ju], axis=-1)
    sq = 0.5 * (z[:, iu] - z[:, ju]) ** 2
    rows = vb.empirical_variogram(z, pts, bins=7)
    assert rows[-1][1] == d.max()
    for b, (lo, hi, count, gh) in enumerate(rows):
        mask = (d >= lo) & ((d <= hi) if b == len(rows) - 1 else (d < hi))
        assert count == int(mask.sum())
        if count:
            assert gh == pytest.approx(float(sq[:, mask].mean()), rel=1e-12)
        else:
            assert math.isnan(gh)


def test_empirical_variogram_is_bitwise_the_per_row_pair_sums(rng):
    """Each bin's estimate is, to the bit, the mean of the per-row sums
    0.5 * sum_r (z_j - z_i)^2 taken over pairs in triu_indices order."""
    pts = vb.PointSet(rng.uniform(0, 4, size=(25, 2)))
    z = rng.normal(size=(33, 25))
    iu, ju = np.triu_indices(pts.n, k=1)
    d = np.sqrt(((pts.coords[iu] - pts.coords[ju]) ** 2).sum(-1))
    zt = np.ascontiguousarray(z.T)
    sums = np.concatenate([0.5 * np.einsum("jr,jr->j", zt[i + 1:] - zt[i], zt[i + 1:] - zt[i])
                           for i in range(pts.n - 1)])
    rows = vb.empirical_variogram(z, pts, bins=5)
    for b, (lo, hi, count, gh) in enumerate(rows):
        mask = (d >= lo) & ((d <= hi) if b == len(rows) - 1 else (d < hi))
        assert gh == float(sums[mask].sum() / (z.shape[0] * count))


def test_empirical_variogram_memory_is_linear_in_replicates(rng):
    """No (replicates, site pairs) array: 200 sites x 500 replicates would
    need 80 MB for one such array."""
    pts = vb.PointSet(rng.uniform(0, 10, size=(200, 2)))
    z = rng.normal(size=(500, 200))
    tracemalloc.start()
    try:
        vb.empirical_variogram(z, pts, bins=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


class _ZeroSolves:
    """A factor whose every solve is 0, so that 1' K^-1 1 = 0."""

    def solve(self, rhs):
        return np.zeros_like(rhs)


def _singular_splu(*args, **kw):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("fake_splu, message", [
    (_singular_splu, "sparse factorization failed: Factor is exactly singular"),
    (lambda *args, **kw: _ZeroSolves(), "border elimination degenerate: 1' K^-1 1 = 0"),
])
def test_sparse_solve_errors_are_degenerate_systems(wendland_model, rng, monkeypatch,
                                                    fake_splu, message):
    monkeypatch.setattr(kriging, "splu", fake_splu)
    pts = obs(rng.uniform(0, 6, size=(30, 2)), rng.normal(size=30))
    with pytest.raises(DegenerateSystemError) as info:
        vb.ordinary_kriging(wendland_model, pts, [3.0, 3.0], mode="sparse")
    assert str(info.value) == message
