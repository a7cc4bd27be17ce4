"""Each output check accepts the program's real output and rejects a
corrupted copy of it."""

import json

import numpy as np
import pytest

import inputs
import verify
import variobern as vb
from variobern import algebra as alg, kernels, models
from variobern.cli import main


def _write_model(path, model):
    path.write_text(json.dumps(models.model_to_json(model)))
    return str(path)


def _run(*argv):
    return main([str(a) for a in argv])


def test_krige_check_rejects_perturbed_prediction(tmp_path):
    rng = inputs.rng_for(5, 1)
    coords = inputs.jittered_grid(6, 0.5, 2, rng)
    values = 10.0 + coords[:, 0] - 0.5 * coords[:, 1]
    sites = tmp_path / "s.csv"
    inputs.write_sites(sites, coords, values)
    cases = [("dense", vb.ma_product(*inputs.MA_RATES, d=2),
              lambda r: verify.ma_product_closed_form(r, *inputs.MA_RATES)),
             ("sparse", vb.wendland(inputs.WENDLAND_RADIUS * 0.5, inputs.WENDLAND_L, 2),
              lambda r: verify.wendland_closed_form(r, inputs.WENDLAND_RADIUS * 0.5,
                                                    inputs.WENDLAND_L))]
    for mode, model, kernel in cases:
        out = tmp_path / f"{mode}.json"
        code = _run("krige", "--model", _write_model(tmp_path / "m.json", model),
                    "--points", sites, "--grid", "0.6:2.4:2,0.6:2.4:2",
                    "--mode", mode, "--out", out)
        payload = json.loads(out.read_text())
        assert verify.check_krige(code, payload, coords, values, kernel, 3, 4) is None
        bad = json.loads(out.read_text())
        bad["predictions"][3]["prediction"] *= 1.0 + 1e-6
        assert "differs" in verify.check_krige(code, bad, coords, values, kernel, 3, 4)
        bad = json.loads(out.read_text())
        bad["predictions"][0]["weights"][0] += 1e-9
        assert "sum" in verify.check_krige(code, bad, coords, values, kernel, 3, 4)


def test_witness_check_rejects_nonzero_sum(tmp_path):
    coords = inputs.jittered_grid(7, inputs.CERTIFY_SPACING, 2, inputs.rng_for(3, 1))
    sites = tmp_path / "s.csv"
    inputs.write_sites(sites, coords)
    e1 = alg.catalog("exp_one_minus", {"a": 1.0})
    model = _write_model(tmp_path / "m.json", vb.make_variogram(vb.fprod(e1, e1), d=2))
    out = tmp_path / "o.json"
    code = _run("validate", "--model", model, "--points", sites, "--out", out)
    payload = json.loads(out.read_text())
    assert verify.check_witness(code, payload, coords) is None
    cnd = [c for c in verify._records(payload) if c["name"] == "cnd"][0]
    cnd["witness"]["contrast"][0] += 1e-6
    assert "sums to" in verify.check_witness(code, payload, coords)


def test_witness_check_rejects_a_nonpositive_form():
    coords = inputs.jittered_grid(5, inputs.CERTIFY_SPACING, 2, inputs.rng_for(3, 1))
    g = verify.failing_product_gram(coords)
    w, v = np.linalg.eigh(g - g.mean(0) - g.mean(1)[:, None] + g.mean())
    a = v[:, 0] - v[:, 0].mean()      # most negative direction: form < 0
    payload = {"verdict": "fail", "reports": [{"checks": [
        {"name": "cnd", "witness": {"contrast": a.tolist()}}]}]}
    assert "not positive" in verify.check_witness(1, payload, coords)


def test_spectral_check_rejects_small_error(tmp_path):
    coords = inputs.jittered_grid(12, inputs.SPECTRAL_SPACING, 1, inputs.rng_for(2, 3))
    sites = tmp_path / "s.csv"
    inputs.write_sites(sites, coords)
    sv = kernels.spectral_variogram(alg.catalog("log1p"))
    out = tmp_path / "o.json"
    code = _run("validate", "--model", _write_model(tmp_path / "m.json", sv),
                "--points", sites, "--out", out)
    payload = json.loads(out.read_text())
    iu, ju = np.triu_indices(len(coords), k=1)
    lags = (coords[iu] - coords[ju])[:, 0]
    values = models.model_from_json(payload["config"]["model"])(lags[:, None])
    assert verify.check_spectral(code, payload, lags, values) is None
    off = values.copy()
    off[7] += 1e-5 * max(1.0, abs(off[7]))
    assert "off by" in verify.check_spectral(code, payload, lags, off)


def test_field_check_rejects_biased_bin(tmp_path):
    coords = inputs.jittered_grid(10, inputs.FIELD_SPACING, 2, inputs.rng_for(4, 1))
    sites = tmp_path / "s.csv"
    inputs.write_sites(sites, coords)
    model = _write_model(tmp_path / "m.json",
                         vb.exponential_covariance(inputs.FIELD_RATE, d=2))
    out = tmp_path / "o.csv"
    code = _run("simulate", "--model", model, "--points", sites,
                "--replicates", inputs.FIELD_REPLICATES, "--grid", inputs.FIELD_BINS,
                "--seed", 17, "--out", out)
    ref = verify.FieldReference(coords, inputs.FIELD_RATE, inputs.FIELD_BINS,
                                inputs.FIELD_REPLICATES)
    rows = verify.parse_field_csv(out.read_text())
    assert verify.check_field(code, rows, ref) is None
    b = int(np.argmax(ref.counts))
    assert 6.0 * ref.sds[b] < 0.1 * ref.means[b]
    biased = list(rows)
    lo, hi, count, gh = biased[b]
    biased[b] = (lo, hi, count, 1.1 * gh)
    assert "sd" in verify.check_field(code, biased, ref)
    miscounted = list(rows)
    miscounted[b] = (lo, hi, count + 1, gh)
    assert "pairs" in verify.check_field(code, miscounted, ref)


@pytest.mark.parametrize("code, payload, expected", [
    (2, None, "ok"),
    (1, {"verdict": "fail", "config": {"model": {"certified": False}}}, "ok"),
    (1, {"verdict": "fail", "config": {"model": {"certified": True}}}, "failed"),
    (0, {"verdict": "pass", "config": {"model": {"certified": True}}}, "wrong"),
])
def test_forged_rule(code, payload, expected):
    assert verify.check_forged(code, payload) == expected


def test_inputs_follow_the_seed(tmp_path):
    import prepare

    for workload in inputs.WORKLOADS:
        a, b, c = (tmp_path / f"{workload}{k}" for k in "abc")
        inputs.write_fixed(workload, 7, str(a))
        inputs.write_fixed(workload, 7, str(b))
        assert prepare.digest(str(a)) == prepare.digest(str(b))
        inputs.write_fixed(workload, 8, str(c))
        assert prepare.digest(str(a)) != prepare.digest(str(c))
