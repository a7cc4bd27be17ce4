"""Catalog atom numerics and metadata.

Every atom evaluates on the closed extended half line: bodies receive strictly
positive finite arguments, while the limits at 0 and +inf are supplied
separately so composition chains can propagate IEEE infinities without ever
producing NaN for arguments where a limit exists. The bodies of the atoms
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
        ok = True
        if self.integer and value != int(value):
            ok = False
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
    body: Callable  # body(x, p) for strictly positive finite x
    zero: Callable  # p -> limit at 0 (may be inf)
    inf: Callable  # p -> limit at +inf (nan if none exists)
    tags: Callable = field(default=lambda p: frozenset())
    levy: Callable | None = None  # p -> triple spec dict, or None
    # p -> (model type, largest d) for which the atom of |A xi| is valid
    norm_model: Callable | None = None


def _number(value, what: str, kind: Callable = float):
    """kind(value) for a value read from outside input, or ParameterError.

    An int is never truncated: 2.0 and "2" read as 2, 2.5 is rejected.
    A bool is not a number, although Python counts it as an int.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        v = kind(value)
        if kind is int and v != float(value):
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
    """e^z * Gamma(nu; z) for z > 0, switching to the asymptotic series at
    z >= 50 where the direct product would lose the exponential scaling."""
    from scipy import special as sc

    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 50.0
    if small.any():
        zs = z[small]
        out[small] = np.exp(zs) * sc.gammaincc(nu, zs) * sc.gamma(nu)
    if (~small).any():
        zl = z[~small]
        total = np.ones_like(zl)
        term = np.ones_like(zl)
        # truncation error below 1e-18 for z >= 50 with 30 terms
        for k in range(1, 31):
            term = term * (nu - k) / zl
            total += term
        out[~small] = zl ** (nu - 1.0) * total
    return out


def _matern_body(x: np.ndarray, p: dict) -> np.ndarray:
    from scipy import special as sc

    a, nu = p["alpha"], p["nu"]
    z = a * np.sqrt(x)
    out = np.empty_like(z)
    small = z < 1e-4
    if small.any():
        zs = z[small]
        if abs(nu - 1.0) < 1e-6:
            out[small] = -(zs**2 / 2.0) * (np.log(zs / 2.0) + np.euler_gamma - 0.5)
        elif abs(nu - round(nu)) < 1e-6 and nu > 1.0:
            out[small] = zs**2 / (4.0 * (nu - 1.0))
        else:
            lead = sc.gamma(1.0 - nu) / sc.gamma(1.0 + nu) * (zs / 2.0) ** (2.0 * nu)
            out[small] = lead - zs**2 / (4.0 * (1.0 - nu))
    if (~small).any():
        zl = z[~small]
        with np.errstate(over="ignore", invalid="ignore"):
            t = 2.0 ** (1.0 - nu) / sc.gamma(nu) * zl**nu * sc.kv(nu, zl)
        # kv underflows to 0 for large z: t -> 0, f -> 1, which is the limit
        t = np.where(np.isfinite(t), t, 0.0)
        out[~small] = 1.0 - t
    return out


def _log1p_body(x: np.ndarray, p: dict) -> np.ndarray:
    # numpy's complex log1p takes the log of |1 + z| after rounding it, which
    # loses the real part near 0 on the imaginary axis (all of it at 1e-8j);
    # the complex log of 1 + z does not
    return np.log(1.0 + x) if np.iscomplexobj(x) else np.log1p(x)


def _log_over_gap_body(x: np.ndarray, p: dict) -> np.ndarray:
    a = p["a"]
    y = x / a
    out = np.empty_like(y)
    tiny = y < 1e-4
    if tiny.any():
        t = y[tiny]
        out[tiny] = (t / 2.0 - t**2 / 3.0 + t**3 / 4.0 - t**4 / 5.0) / a
    if (~tiny).any():
        t = y[~tiny]
        out[~tiny] = (1.0 - np.log1p(t) / t) / a
    return out


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
    levy=lambda p: {"drift": 0.0, "constant": 0.0,
                    "atoms": [(p["a"], 1.0)] if p["a"] > 0 else []},
))


def _power_levy(p: dict) -> dict:
    if p["a"] == 1.0:
        return {"drift": 1.0, "constant": 0.0, "atoms": []}
    # scipy's gamma, not math.gamma: the two differ in the last bit for most a
    from scipy import special as sc

    return {"drift": 0.0, "constant": 0.0,
            "density": {"op": "product", "args": [
                {"atom": "const",
                 "params": {"c": p["a"] / sc.gamma(1.0 - p["a"])}},
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
    levy=lambda p: {"drift": 0.0, "constant": 0.0,
                    "density": {"op": "product", "args": [
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
    levy=lambda p: {"drift": 0.0, "constant": 0.0,
                    "density": {"op": "product", "args": [
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
    levy=lambda p: ({"drift": 0.0, "constant": p["c"], "atoms": []}
                    if p["c"] >= 0 else None),
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
