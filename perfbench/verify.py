"""Output checks, each against an independent computation or a property the
method must have, never against a stored copy of an earlier output.

Every check returns None when the output is right and a one-line reason when
it is not. The closed forms here are written out with numpy and share no
code with the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

WEIGHT_SUM_TOL = 1e-10
PREDICTION_RTOL = 1e-8
SPECTRAL_TOL = 1e-6
ZERO_SUM_TOL = 1e-9
FIELD_SIGMAS = 6.0


def pair_distances(coords: np.ndarray) -> np.ndarray:
    # no (n, n, d) temporary, so the checks stay below the program's own
    # peak memory and do not mask a change in it
    return cdist(coords, coords)


def _records(payload: dict):
    for rep in payload.get("reports", []):
        yield from rep.get("checks", [])


# ----------------------------------------------------------------------
# certify

def check_pass(code: int, payload: dict) -> str | None:
    """A certified model must pass: its closure theorem covers every site set."""
    if code != 0 or payload.get("verdict") != "pass":
        return f"certified model got verdict {payload.get('verdict')!r} (exit {code})"
    if payload["config"]["model"].get("certified") is not True:
        return "a certified construction was not reported as certified"
    return None


def failing_product_gram(coords: np.ndarray) -> np.ndarray:
    """(1 - exp(-|xi|^2))^2 on every pair of sites."""
    r2 = pair_distances(coords) ** 2
    return (-np.expm1(-r2)) ** 2


def check_witness(code: int, payload: dict, coords: np.ndarray) -> str | None:
    """The uncertified product fails with a zero-sum contrast a whose
    quadratic form a' G a, recomputed from the closed form, is positive:
    a conditionally negative definite G would make it <= 0."""
    if code != 1 or payload.get("verdict") != "fail":
        return f"failing product got verdict {payload.get('verdict')!r} (exit {code})"
    cnd = [c for c in _records(payload) if c["name"] == "cnd"]
    if not cnd or cnd[0]["witness"] is None:
        return "failing product carries no cnd witness"
    a = np.asarray(cnd[0]["witness"]["contrast"], dtype=float)
    if a.shape != (len(coords),):
        return f"witness has {a.size} entries for {len(coords)} sites"
    if abs(a.sum()) > ZERO_SUM_TOL * np.abs(a).sum():
        return f"witness contrast sums to {a.sum():.3g}, not zero"
    form = float(a @ failing_product_gram(coords) @ a)
    if not form > 0.0:
        return f"witness quadratic form {form:.3g} is not positive"
    return None


def check_forged(code: int, payload: dict | None) -> str:
    """Outcome of a forged-certificate operation: 'ok', 'failed' or 'wrong'.

    It fails while the program presents the model as certified and the
    oracle rejects it; it succeeds once the load is refused or the model
    comes back uncertified. A certified model that the oracle passes on
    these sites would be a wrong verdict, reported as 'wrong'.
    """
    if payload is None:
        return "ok" if code == 2 else "wrong"
    if payload["config"]["model"].get("certified") is not True:
        return "ok"
    return "failed" if payload.get("verdict") == "fail" else "wrong"


# ----------------------------------------------------------------------
# spectral

def spectral_reference(xi: np.ndarray) -> np.ndarray:
    """The log1p spectral variogram in closed form: xi * arctan(xi)."""
    xi = np.abs(np.asarray(xi, dtype=float))
    return xi * np.arctan(xi)


def check_spectral(code: int, payload: dict, lags: np.ndarray,
                   values: np.ndarray) -> str | None:
    if code != 0 or payload.get("verdict") != "pass":
        return f"spectral variogram got verdict {payload.get('verdict')!r} (exit {code})"
    ref = spectral_reference(lags)
    err = np.abs(np.asarray(values, dtype=float) - ref) / np.maximum(1.0, ref)
    k = int(np.argmax(err))
    if err[k] > SPECTRAL_TOL:
        return f"spectral value at lag {lags[k]:.6g} is off by {err[k]:.3g}"
    return None


# ----------------------------------------------------------------------
# krige

def ma_product_closed_form(r, a1: float, a2: float):
    return (-np.expm1(-a1 * r)) * (-np.expm1(-a2 * r))


def wendland_closed_form(r, radius: float, l: int):
    return np.maximum(1.0 - r / radius, 0.0) ** l


def kriging_prediction(kernel, coords, values, target) -> float:
    """Ordinary kriging by one dense bordered solve."""
    n = len(coords)
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = kernel(pair_distances(coords))
    a[n, n] = 0.0
    rhs = np.ones(n + 1)
    rhs[:n] = kernel(np.sqrt(((coords - target) ** 2).sum(-1)))
    sol = np.linalg.solve(a, rhs)
    return float(sol[:n] @ values)


def check_krige(code: int, payload: dict, coords, values, kernel,
                check_target: int, n_targets: int) -> str | None:
    """Unit-sum weights for every target; the prediction at one target
    agrees with an independent dense solve of the bordered system."""
    if code != 0:
        return f"krige exited with {code}"
    preds = payload["predictions"]
    if len(preds) != n_targets:
        return f"{len(preds)} predictions for {n_targets} targets"
    for p in preds:
        s = math.fsum(p["weights"])
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            return f"weights at target {p['target']} sum to {s!r}"
    p = preds[check_target]
    ref = kriging_prediction(kernel, coords, values, np.asarray(p["target"]))
    if abs(p["prediction"] - ref) > PREDICTION_RTOL * max(1.0, abs(ref)):
        return f"prediction {p['prediction']!r} at {p['target']} differs from {ref!r}"
    return None


# ----------------------------------------------------------------------
# field

class FieldReference:
    """Pair counts and the law of each bin's estimate, from the coordinates.

    The estimate of a bin is the mean over R replicates of z' B z with
    B = sum over its m pairs of (e_i - e_j)(e_i - e_j)' / (2m) and z ~ N(0, C).
    Its mean is tr(BC), the mean of 1 - exp(-rate h) over the pairs, and its
    variance is 2 tr(BCBC) / R.
    """

    def __init__(self, coords: np.ndarray, rate: float, bins: int, replicates: int):
        dist = pair_distances(coords)
        n = len(coords)
        iu, ju = np.triu_indices(n, k=1)
        d = dist[iu, ju]
        self.edges = np.linspace(0.0, float(dist.max()), bins + 1)
        cov = np.exp(-rate * dist)
        self.counts, self.means, self.sds = [], [], []
        for b in range(bins):
            lo, hi = self.edges[b], self.edges[b + 1]
            mask = (d >= lo) & ((d <= hi) if b == bins - 1 else (d < hi))
            m = int(mask.sum())
            self.counts.append(m)
            if m == 0:
                self.means.append(math.nan)
                self.sds.append(math.nan)
                continue
            i, j = iu[mask], ju[mask]
            bmat = np.zeros((n, n))
            np.add.at(bmat, (i, j), -1.0)
            np.add.at(bmat, (j, i), -1.0)
            np.add.at(bmat, (i, i), 1.0)
            np.add.at(bmat, (j, j), 1.0)
            bc = (bmat / (2.0 * m)) @ cov
            self.means.append(float(np.trace(bc)))
            self.sds.append(math.sqrt(2.0 * float(np.sum(bc * bc.T)) / replicates))


def parse_field_csv(text: str) -> list[tuple[float, float, int, float]]:
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("lag_lo"):
            continue
        lo, hi, count, gh = line.split(",")
        rows.append((float(lo), float(hi), int(count), float(gh)))
    return rows


def check_field(code: int, rows, ref: FieldReference) -> str | None:
    if code != 0:
        return f"simulate exited with {code}"
    if len(rows) != len(ref.counts):
        return f"{len(rows)} bins, expected {len(ref.counts)}"
    for b, (lo, hi, count, gh) in enumerate(rows):
        if abs(hi - ref.edges[b + 1]) > 1e-12 * ref.edges[-1]:
            return f"bin {b} ends at {hi!r}, expected {ref.edges[b + 1]!r}"
        if count != ref.counts[b]:
            return f"bin {b} holds {count} pairs, expected {ref.counts[b]}"
        if count == 0:
            continue
        if not abs(gh - ref.means[b]) <= FIELD_SIGMAS * ref.sds[b]:
            return (f"bin {b} estimate {gh:.6g} is more than {FIELD_SIGMAS:g} sd "
                    f"({ref.sds[b]:.3g}) from {ref.means[b]:.6g}")
    return None
