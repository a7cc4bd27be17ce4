"""Catalog atom numerics and metadata.

Every atom evaluates on the closed extended half line. A body sees every
argument, 0 and +inf included, and its values there are overwritten by the
limits at 0 and +inf, which are supplied separately, so composition chains
can propagate IEEE infinities without ever producing NaN for arguments where
a limit exists. Since the overwrite writes into the body's result, a body
returns a new array, never its input or a view of it. A body with regimes
follows the same pattern: it computes its main formula over the whole array
and overwrites the entries another formula covers. The bodies of the atoms
in COMPLEX_ATOMS also take complex arguments off the half line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError

__all__ = [
    "AtomSpec",
    "ParamSpec",
    "REGISTRY",
    "ALIASES",
    "CBF_TABLE",
    "COMPLEX_ATOMS",
    "validate_params",
]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    low: float
    high: float
    low_open: bool = True
    high_open: bool = True
    integer: bool = False

    def describe(self) -> str:
        lo = "<" if self.low_open else "<="
        hi = "<" if self.high_open else "<="
        left = "" if self.low == -math.inf else f"{self.low:g} {lo} "
        right = "" if self.high == math.inf else f" {hi} {self.high:g}"
        kind = "integer " if self.integer else ""
        return f"{left}{kind}{self.name}{right}"

    def check(self, atom: str, value: float) -> None:
        ok = not self.integer or float(value).is_integer()  # False for NaN, inf
        if self.low_open:
            ok = ok and value > self.low
        else:
            ok = ok and value >= self.low
        if self.high_open:
            ok = ok and value < self.high
        else:
            ok = ok and value <= self.high
        if not ok:
            raise ParameterError(
                f"atom '{atom}': parameter '{self.name}' must satisfy "
                f"{self.describe()} (got {value!r})"
            )


@dataclass(frozen=True)
class AtomSpec:
    name: str
    group: str
    params: tuple[ParamSpec, ...]
    formula: str
    provenance: str
    body: Callable  # body(x, p) for every x; a new array, 0 and inf overwritten
    zero: Callable  # p -> limit at 0 (may be inf)
    inf: Callable  # p -> limit at +inf (nan if none exists)
    tags: Callable = field(default=lambda p: frozenset())
    levy: Callable | None = None  # p -> LevyTriple fields, density as JSON, or None
    # p -> (model type, largest d) for which the atom of |A xi| is valid
    norm_model: Callable | None = None


def _number(value, what: str, kind: Callable = float):
    """kind(value) for a value read from outside input, or ParameterError.

    An int is never truncated: 2.0 and "2" read as 2, 2.5 is rejected, and
    an integer is taken exactly, however large. A bool is not a number,
    although Python counts it as an int.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        v = kind(value)
        if kind is int and v != value and v != float(value):
            raise ValueError("not an integer")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed {what} = {value!r}: {exc}") from None
    return v


def validate_params(spec: AtomSpec, params: dict) -> dict:
    expected = {p.name for p in spec.params}
    given = set(params)
    if given != expected:
        raise ParameterError(
            f"atom '{spec.name}' expects parameters {sorted(expected)}, "
            f"got {sorted(given)}"
        )
    out = {}
    for p in spec.params:
        v = _number(params[p.name], f"atom '{spec.name}' parameter '{p.name}'")
        p.check(spec.name, v)
        out[p.name] = v
    return out


# ----------------------------------------------------------------------
# numeric helpers

def _exp_scaled_upper_gamma(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z * Gamma(nu; z) for z > 0: the direct product, overwritten by the
    asymptotic series at z >= 50, where the product would lose the
    exponential scaling."""
    from scipy import special as sc

    z = np.asarray(z, dtype=float)
    out = np.exp(z) * sc.gammaincc(nu, z) * sc.gamma(nu)
    large = z >= 50.0
    if large.any():
        zl = z[large]
        total = np.ones_like(zl)
        term = np.ones_like(zl)
        # truncation error below 1e-18 for z >= 50 with 30 terms
        for k in range(1, 31):
            term = term * (nu - k) / zl
            total += term
        out[large] = zl ** (nu - 1.0) * total
    return out


# half-integer orders up to this one take the closed form, whose sum costs one
# array pass per term; higher ones take Debye's expansion, so the loop is bounded
_MATERN_TERMS_MAX = 1000

# orders above this one take Debye's expansion (_matern_debye), within 7e-11
# relative of 40-digit mpmath from nu = 50.3 on; up to it Gamma(nu) and
# z^nu K_nu(z) stay finite for z >= 1e-4 and the Bessel formula is kept
_MATERN_DEBYE_NU = 50.0

# Debye's polynomials u_1..u_4 (DLMF 10.41.10) as q_k(p) = (u_k(p) - u_k(1))
# / (p - 1): numerator coefficients in ascending powers of p, denominator.
# u_k(0) = 0, so q_k(0) = u_k(1)
_DEBYE_Q = (
    ((-2, -5, -5), 24),
    ((4, 4, -77, -77, 385, 385), 1152),
    ((1112, 1112, 1112, -29263, -29263, 340340, 340340, -425425, -425425),
     414720),
    ((-9136, -9136, -9136, -9136, -4474261, -4474261, 89647415, 89647415,
      -260275015, -260275015, 185910725, 185910725), 39813120),
)


def _matern_debye(nu: float, z: np.ndarray) -> np.ndarray:
    """1 - 2^(1-nu)/Gamma(nu) z^nu K_nu(z) for large nu, in log space.

    Debye's uniform expansion of K_nu(nu w), w = z/nu, over Stirling's
    series of Gamma(nu), which is the same expansion at w = 0, gives the log
    of the Bessel term as nu (log((1 + s)/2) - (s - 1)) - log(1 + w^2)/4 +
    log(D(p)/D(1)), with s = sqrt(1 + w^2), p = 1/s and D(p) = sum_k (-1)^k
    u_k(p)/nu^k. Its terms share one sign and s - 1 = w^2/(1 + s) and
    D(p) - D(1) = (p - 1) sum_k (-1)^k q_k(p)/nu^k are formed without
    cancellation, so a value near z = 0 keeps its relative precision where
    Gamma(nu) or K_nu(z) overflows.
    """
    w = z / nu
    s = np.sqrt(1.0 + w * w)
    a = w * w / (1.0 + s)  # s - 1
    p = 1.0 / s
    d1, dq = 1.0, np.zeros_like(z)
    for k, (coef, den) in enumerate(_DEBYE_Q, 1):
        c = (-1.0) ** k / (den * nu**k)
        d1 += c * coef[0]
        dq += c * np.polynomial.polynomial.polyval(p, coef)
    log_t = (nu * (np.log1p(0.5 * a) - a) - 0.25 * np.log1p(w * w)
             + np.log1p(-(a / s) * dq / d1))
    return -np.expm1(log_t)


def _matern_body(x: np.ndarray, p: dict) -> np.ndarray:
    a, nu = p["alpha"], p["nu"]
    z = a * np.sqrt(x)
    m = nu - 0.5
    if m == 0.0:
        # the exponential model, exact at every z
        return -np.expm1(-z)
    if m == int(m) and m <= _MATERN_TERMS_MAX:
        # nu = m + 1/2: 2^(1-nu)/Gamma(nu) z^nu K_nu(z) = e^(-z) sum_{k<=m}
        # c_k z^k with c_k = m! (2m-k)! 2^k / ((2m)! k! (m-k)!), so c_0 =
        # c_1 = 1 and f = -expm1(-z) - e^(-z) sum_{k>=1} c_k z^k. As z -> 0
        # its relative error grows as eps/z, that of 1 - t as eps/z^2
        # (1e-7 at z = 1e-4 for nu = 3/2). Each term is the one before
        # times z c_{k+1}/c_k, so no power of z is formed: every term is
        # at most t <= 1
        m = int(m)
        term, out = np.exp(-z), -np.expm1(-z)
        for k in range(m):
            term = term * z * (2.0 * (m - k) / ((k + 1) * (2 * m - k)))
            out -= term
    elif nu > _MATERN_DEBYE_NU:
        out = _matern_debye(nu, z)
    else:
        from scipy import special as sc

        with np.errstate(over="ignore", invalid="ignore"):
            t = 2.0 ** (1.0 - nu) / sc.gamma(nu) * z**nu * sc.kv(nu, z)
        # kv underflows to 0 for large z: t -> 0, f -> 1, which is the limit
        out = 1.0 - np.where(np.isfinite(t), t, 0.0)
    small = z < 1e-4
    if small.any():
        zs = z[small]
        if abs(nu - 1.0) < 1e-6:
            out[small] = -(zs**2 / 2.0) * (np.log(zs / 2.0) + np.euler_gamma - 0.5)
        elif abs(nu - round(nu)) < 1e-6 and nu > 1.0:
            out[small] = zs**2 / (4.0 * (nu - 1.0))
        else:
            try:
                ratio = math.gamma(1.0 - nu) / math.gamma(1.0 + nu)
            except OverflowError:
                # nu > 170, where (z/2)^(2 nu) is 0 in floating point anyway
                ratio = 0.0
            lead = ratio * (zs / 2.0) ** (2.0 * nu)
            out[small] = lead - zs**2 / (4.0 * (1.0 - nu))
    return out


def _log1p_body(x: np.ndarray, p: dict) -> np.ndarray:
    # numpy's complex log1p takes the log of |1 + z| after rounding it, which
    # loses the real part near 0 on the imaginary axis (all of it at 1e-8j);
    # the complex log of 1 + z does not
    return np.log(1.0 + x) if np.iscomplexobj(x) else np.log1p(x)


def _log_over_gap_body(x: np.ndarray, p: dict) -> np.ndarray:
    a = p["a"]
    t = x / a
    return np.where(t < 1e-4, (t / 2.0 - t**2 / 3.0 + t**3 / 4.0 - t**4 / 5.0) / a,
                    (1.0 - np.log1p(t) / t) / a)


# ----------------------------------------------------------------------
# registry

REGISTRY: dict[str, AtomSpec] = {}


def _register(spec: AtomSpec) -> None:
    REGISTRY[spec.name] = spec


_pos = lambda name: ParamSpec(name, 0.0, math.inf)
_unit_open = lambda name: ParamSpec(name, 0.0, 1.0)
_unit_closed = lambda name: ParamSpec(name, 0.0, 1.0, high_open=False)


_register(AtomSpec(
    name="matern",
    group="bernstein",
    params=(_pos("alpha"), _pos("nu")),
    formula="1 - 2^(1-nu)/Gamma(nu) * (alpha*sqrt(x))^nu * K_nu(alpha*sqrt(x))",
    provenance="Bernstein function (Matern family)",
    body=_matern_body,
    zero=lambda p: 0.0,
    inf=lambda p: 1.0,
    tags=lambda p: frozenset({"BF"}),
))

_register(AtomSpec(
    name="cauchy",
    group="bernstein",
    params=(_unit_closed("alpha"), _pos("beta")),
    formula="1 - (1 + x^alpha)^(-beta)",
    provenance="Bernstein function (generalized Cauchy family), complete for beta <= 1",
    body=lambda x, p: -np.expm1(-p["beta"] * np.log1p(x ** p["alpha"])),
    zero=lambda p: 0.0,
    inf=lambda p: 1.0,
    tags=lambda p: frozenset({"CBF"} if p["beta"] <= 1.0 else {"BF"}),
))

_register(AtomSpec(
    name="dagum",
    group="bernstein",
    params=(_unit_open("rho"), _unit_open("gamma")),
    formula="(x^rho / (1 + x^rho))^gamma",
    provenance="complete Bernstein function (Dagum family)",
    body=lambda x, p: np.exp(-p["gamma"] * np.log1p(x ** -p["rho"])),
    zero=lambda p: 0.0,
    inf=lambda p: 1.0,
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="exp_one_minus",
    group="bernstein",
    params=(ParamSpec("a", 0.0, math.inf, low_open=False),),
    formula="1 - exp(-a*x)",
    provenance="Bernstein function (exponential saturation; not complete)",
    body=lambda x, p: -np.expm1(-p["a"] * x),
    zero=lambda p: 0.0,
    inf=lambda p: 1.0 if p["a"] > 0 else 0.0,
    tags=lambda p: frozenset({"BF"}),
    levy=lambda p: {"atoms": ((p["a"], 1.0),) if p["a"] > 0 else ()},
))


def _power_levy(p: dict) -> dict:
    if p["a"] == 1.0:
        return {"drift": 1.0}
    # math.gamma, not scipy's, so that building the exponential covariance
    # (power(1/2)) imports no scipy. Both are within 5 ulp of the exact
    # a/G(1-a). Every build of the atom derives its triple here, and JSON
    # never writes it, so no two builds can disagree in the last bits
    return {"density": {"op": "product", "args": [
        {"atom": "const", "params": {"c": p["a"] / math.gamma(1.0 - p["a"])}},
        {"op": "power", "alpha": -1.0 - p["a"],
         "args": [{"atom": "power", "params": {"a": 1.0}}]},
    ]}}


_register(AtomSpec(
    name="power",
    group="cbf",
    params=(_unit_closed("a"),),
    formula="x^a",
    provenance="complete Bernstein function (fractional power)",
    body=lambda x, p: x ** p["a"],
    zero=lambda p: 0.0,
    inf=lambda p: math.inf,
    tags=lambda p: frozenset({"CBF"}),
    levy=_power_levy,
))

_register(AtomSpec(
    name="log1p",
    group="cbf",
    params=(),
    formula="log(1 + x)",
    provenance="complete Bernstein function",
    body=_log1p_body,
    zero=lambda p: 0.0,
    inf=lambda p: math.inf,
    tags=lambda p: frozenset({"CBF"}),
    levy=lambda p: {"density": {"op": "product", "args": [
        {"atom": "exp_decay", "params": {"a": 1.0}},
        {"atom": "recip", "params": {}},
    ]}},
))

_register(AtomSpec(
    name="sqrt_arctan",
    group="cbf",
    params=(),
    formula="sqrt(x) * arctan(1/sqrt(x))",
    provenance="complete Bernstein function",
    body=lambda x, p: np.sqrt(x) * np.arctan(1.0 / np.sqrt(x)),
    zero=lambda p: 0.0,
    inf=lambda p: 1.0,
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="frac_linear",
    group="cbf",
    params=(_pos("lam"),),
    formula="lam*x / (lam + x)",
    provenance="complete Bernstein function (Mobius saturation)",
    body=lambda x, p: p["lam"] * x / (p["lam"] + x),
    zero=lambda p: 0.0,
    inf=lambda p: p["lam"],
    tags=lambda p: frozenset({"CBF"}),
    levy=lambda p: {"density": {"op": "product", "args": [
        {"atom": "const", "params": {"c": p["lam"] ** 2}},
        {"atom": "exp_decay", "params": {"a": p["lam"]}},
    ]}},
))

_register(AtomSpec(
    name="cm_pole_example",
    group="cm",
    params=(),
    formula="1 / (x * (1 + x^2))",
    provenance="completely monotone (Laplace transform of 1 - cos t)",
    body=lambda x, p: 1.0 / (x * (1.0 + x**2)),
    zero=lambda p: math.inf,
    inf=lambda p: 0.0,
    tags=lambda p: frozenset({"CM"}),
))

_register(AtomSpec(
    name="exp_decay",
    group="cm",
    params=(_pos("a"),),
    formula="exp(-a*x)",
    provenance="completely monotone (Laplace kernel)",
    body=lambda x, p: np.exp(-p["a"] * x),
    zero=lambda p: 1.0,
    inf=lambda p: 0.0,
    tags=lambda p: frozenset({"CM"}),
))

# --- complete Bernstein table ------------------------------------------------

_register(AtomSpec(
    name="power_frac_ratio",
    group="cbf_table",
    params=(_unit_open("alpha"),),
    formula="(x^alpha - x*(1+x)^(alpha-1)) / ((1+x)^alpha - x^alpha)",
    provenance="complete Bernstein function (table family)",
    # cancellation-free: with u = log1p(1/x) this is -expm1((a-1)u)/expm1(a*u)
    body=lambda x, p: -np.expm1((p["alpha"] - 1.0) * np.log1p(1.0 / x))
    / np.expm1(p["alpha"] * np.log1p(1.0 / x)),
    zero=lambda p: 0.0,
    inf=lambda p: (1.0 - p["alpha"]) / p["alpha"],
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="sqrt_expsat",
    group="cbf_table",
    params=(_pos("a"),),
    formula="sqrt(x) * (1 - exp(-2*a*sqrt(x)))",
    provenance="complete Bernstein function (table family)",
    body=lambda x, p: -np.sqrt(x) * np.expm1(-2.0 * p["a"] * np.sqrt(x)),
    zero=lambda p: 0.0,
    inf=lambda p: math.inf,
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="shifted_sqrt_expsat",
    group="cbf_table",
    params=(_pos("a"),),
    formula="x * (1 - exp(-2*sqrt(x+a))) / sqrt(x+a)",
    provenance="complete Bernstein function (table family)",
    body=lambda x, p: -x * np.expm1(-2.0 * np.sqrt(x + p["a"])) / np.sqrt(x + p["a"]),
    zero=lambda p: 0.0,
    inf=lambda p: math.inf,
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="euler_gap",
    group="cbf_table",
    params=(),
    formula="e*x - x*(1 + 1/x)^x - x/(x+1)",
    provenance="complete Bernstein function (table family)",
    # e*x - x*(1+1/x)^x = -e*x*expm1(x*log1p(1/x) - 1), cancellation-free
    body=lambda x, p: -math.e * x * np.expm1(x * np.log1p(1.0 / x) - 1.0)
    - x / (x + 1.0),
    zero=lambda p: 0.0,
    inf=lambda p: math.e / 2.0 - 1.0,
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="log_over_gap",
    group="cbf_table",
    params=(_pos("a"),),
    formula="1/a - log(1 + x/a)/x",
    provenance="complete Bernstein function (table family)",
    body=_log_over_gap_body,
    zero=lambda p: 0.0,
    inf=lambda p: 1.0 / p["a"],
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="sinh_ratio",
    group="cbf_table",
    params=(),
    formula="sqrt(x/2) * sinh(sqrt(2x))^2 / sinh(2*sqrt(2x))",
    provenance="complete Bernstein function (table family)",
    # sinh^2(s)/sinh(2s) = tanh(s)/2, so this is s*tanh(s)/4 with s = sqrt(2x)
    body=lambda x, p: np.sqrt(2.0 * x) * np.tanh(np.sqrt(2.0 * x)) / 4.0,
    zero=lambda p: 0.0,
    inf=lambda p: math.inf,
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="gamma_tail",
    group="cbf_table",
    params=(_pos("a"), _unit_open("nu")),
    formula="x^(1-nu) * exp(a*x) * Gamma(nu; a*x)",
    provenance="complete Bernstein function (table family)",
    body=lambda x, p: x ** (1.0 - p["nu"])
    * _exp_scaled_upper_gamma(p["nu"], p["a"] * x),
    zero=lambda p: 0.0,
    inf=lambda p: p["a"] ** (p["nu"] - 1.0),
    tags=lambda p: frozenset({"CBF"}),
))

_register(AtomSpec(
    name="gamma_tail_inv",
    group="cbf_table",
    params=(_pos("a"), _unit_open("nu")),
    formula="x^nu * exp(a/x) * Gamma(nu; a/x)",
    provenance="complete Bernstein function (table family)",
    body=lambda x, p: x ** p["nu"] * _exp_scaled_upper_gamma(p["nu"], p["a"] / x),
    zero=lambda p: 0.0,
    inf=lambda p: math.inf,
    tags=lambda p: frozenset({"CBF"}),
))

# --- plumbing ----------------------------------------------------------------

_register(AtomSpec(
    name="const",
    group="plumbing",
    params=(ParamSpec("c", -math.inf, math.inf),),
    formula="c",
    provenance="constant (member of every cone when c >= 0)",
    body=lambda x, p: np.full_like(x, p["c"]),
    zero=lambda p: p["c"],
    inf=lambda p: p["c"],
    tags=lambda p: frozenset({"CBF", "S"}) if p["c"] >= 0 else frozenset(),
    levy=lambda p: {"constant": p["c"]} if p["c"] >= 0 else None,
))

_register(AtomSpec(
    name="recip",
    group="plumbing",
    params=(),
    formula="1/x",
    provenance="Stieltjes function (reciprocal)",
    body=lambda x, p: 1.0 / x,
    zero=lambda p: math.inf,
    inf=lambda p: 0.0,
    tags=lambda p: frozenset({"S"}),
))

_register(AtomSpec(
    name="sine",
    group="plumbing",
    params=(),
    formula="sin(x)",
    provenance="no cone membership (oscillatory)",
    body=lambda x, p: np.sin(x),
    zero=lambda p: 0.0,
    inf=lambda p: math.nan,
))

_register(AtomSpec(
    name="one_minus_cos",
    group="plumbing",
    params=(),
    formula="1 - cos(x)",
    provenance="no cone membership (cosine variogram profile)",
    body=lambda x, p: 1.0 - np.cos(x),
    zero=lambda p: 0.0,
    inf=lambda p: math.nan,
))

_register(AtomSpec(
    name="spherical_profile",
    group="plumbing",
    params=(ParamSpec("range", 0.0, math.inf),),
    formula="(3/2)*t - (1/2)*t^3 with t = min(x/range, 1)",
    provenance="spherical variogram profile (norm argument)",
    body=lambda x, p: (lambda t: t * (3.0 - t**2) / 2.0)(
        np.minimum(x / p["range"], 1.0)),
    zero=lambda p: 0.0,
    inf=lambda p: 1.0,
    norm_model=lambda p: ("variogram", 3),
))

_register(AtomSpec(
    name="wendland_profile",
    group="plumbing",
    params=(ParamSpec("r", 0.0, math.inf),
            ParamSpec("l", 1.0, math.inf, low_open=False, integer=True)),
    formula="max(1 - x/r, 0)^l",
    provenance="compactly supported covariance profile (norm argument)",
    body=lambda x, p: np.maximum(1.0 - x / p["r"], 0.0) ** p["l"],
    zero=lambda p: 1.0,
    inf=lambda p: 0.0,
    # positive definite on R^d iff l >= floor(d/2) + 1, i.e. d <= 2l - 1
    norm_model=lambda p: ("covariance", 2 * int(p["l"]) - 1),
))


# former names of the table's Cauchy and Dagum entries, still accepted on load
ALIASES: dict[str, str] = {"cauchy_cbf": "cauchy", "dagum_cbf": "dagum"}

# atoms whose real body is also the principal-branch analytic continuation
# off the half line; evaluate_complex accepts only these
COMPLEX_ATOMS = frozenset({"exp_one_minus", "power", "log1p", "frac_linear",
                           "exp_decay", "const", "recip"})

# canonical 12-member complete Bernstein table used by the certification suite
CBF_TABLE: tuple[tuple[str, dict], ...] = (
    ("cauchy", {"alpha": 0.5, "beta": 1.0}),
    ("dagum", {"rho": 0.5, "gamma": 0.5}),
    ("power_frac_ratio", {"alpha": 0.5}),
    ("sqrt_expsat", {"a": 1.0}),
    ("shifted_sqrt_expsat", {"a": 1.0}),
    ("euler_gap", {}),
    ("log_over_gap", {"a": 1.0}),
    ("sinh_ratio", {}),
    ("gamma_tail", {"a": 1.0, "nu": 0.5}),
    ("gamma_tail_inv", {"a": 1.0, "nu": 0.5}),
    ("frac_linear", {"lam": 1.0}),
    ("sqrt_arctan", {}),
)
