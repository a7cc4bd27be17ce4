"""Variogram and stationary-covariance models over radial profiles.

A model is a radial profile expression, an anisotropy matrix A, a dimension,
and an argument mode: ``squared_norm`` models evaluate f(|A xi|^2) (the form
every all-dimension-permissible radial variogram takes, with f Bernstein),
``norm`` models evaluate f(|A xi|) (spherical, Wendland, Ma's |A xi|-based
product). Conflating the two argument conventions is the classic mistake,
so the mode is an explicit field and part of the JSON format.

A model's ``certificate`` is derived, never stored: one rule set maps the
model type, mode, dimension and profile to the theorem that makes the model
valid, or to None ("unverified"). It reads only the tags the closure rules
derive and the dimension bounds that atoms declare, never a flag read from
JSON (expression JSON with a "tags" key is refused), so a certificate cannot
be forged or carried across a transformation no theorem covers. ``certified``
means the certificate is not None. Unverified models still evaluate; the
oracles decide their fate empirically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra as alg
from .algebra import FunctionExpr, evaluate
from .atoms import REGISTRY, _number
from .errors import ConstructionError, ParameterError

__all__ = [
    "Variogram",
    "StationaryCovariance",
    "make_variogram",
    "ma_product",
    "schur_product_extended",
    "cbf_variograms",
    "composition_products",
    "wendland",
    "spherical",
    "spherical_covariance",
    "exponential_covariance",
    "matern_covariance",
    "variogram_from_covariance",
    "covariance_from_variogram",
    "model_to_json",
    "model_from_json",
]

_MODES = ("squared_norm", "norm")

# multiples of a declared support radius at which the profile must vanish
_BEYOND_SUPPORT = np.array([1.0, 1.001, 1.5, 2.0, 10.0, 1e3])


def _certificate(is_cov: bool, mode: str, d: int, f: FunctionExpr) -> str | None:
    """The theorem that makes profile f a valid model, or None.

    Every rule holds for any real anisotropy A, so A does not enter.
    """
    kind = "covariance" if is_cov else "variogram"
    if mode == "squared_norm":
        if not is_cov and "BF" in f.derived:
            return "Bernstein profile of |A xi|^2: variogram in every dimension"
        if is_cov and "CM" in f.derived and alg._exact_limit(f, 0.0) is not None:
            return ("completely monotone profile of |A xi|^2: covariance in "
                    "every dimension (Schoenberg)")
    if f.kind == "affine" and f.params_dict["scale"] < 0.0:
        (g,) = f.children
        c, s = f.params_dict["shift"], -f.params_dict["scale"]
        inner = _certificate(not is_cov, mode, d, g)
        # C(0) - C vanishes at 0; sill - gamma needs gamma bounded by the sill
        edge = alg._exact_limit(g, math.inf if is_cov else 0.0) if inner else None
        if edge is not None and is_cov and c >= s * edge:
            return f"sill - gamma with gamma <= sill a variogram [{inner}]"
        if edge is not None and not is_cov and c == s * edge:
            return f"C(0) - C with C a covariance [{inner}]"
    if mode == "norm" and f.kind == "atom" and REGISTRY[f.name].norm_model:
        declared, d_max = REGISTRY[f.name].norm_model(f.params_dict)
        if declared == kind and d <= d_max:
            return f"{f.name} of |A xi|: {kind} for d <= {d_max}"
    if mode == "norm" and f.kind == "spectral" and not is_cov and d == 1:
        return "spectral representation of |A xi|: variogram in d = 1"
    return None


def _float_matrix(v) -> np.ndarray:
    """v as a float array; a boolean entry is not a number, as in _number."""
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(v, dtype=object).flat):
        raise TypeError("a boolean is not a number")
    return np.array(v, dtype=float)


@dataclass(frozen=True, eq=False)
class _RadialModel:
    profile: FunctionExpr
    mode: str
    anisotropy: np.ndarray
    d: int
    construction: str = ""

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}")
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")
        d = self.d
        a = _number(np.eye(d) if self.anisotropy is None else self.anisotropy,
                    "anisotropy", _float_matrix)
        if a.shape != (d, d):
            raise ParameterError(f"anisotropy must be {d}x{d}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ParameterError("anisotropy must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "anisotropy", a)

    @functools.cached_property
    def certificate(self) -> str | None:
        """The theorem that covers this model, or None (unverified)."""
        return _certificate(isinstance(self, StationaryCovariance), self.mode,
                            self.d, self.profile)

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    @functools.cached_property
    def _isotropic(self) -> bool:
        # A = I: a finite lag times I differs from the lag at most in the sign
        # of a zero component, which squaring removes, so r^2 keeps its bits
        return np.array_equal(self.anisotropy, np.eye(self.d))

    def radial_argument(self, lags) -> np.ndarray:
        lag = np.asarray(lags, dtype=float)
        if lag.ndim == 0 or lag.shape[-1] != self.d:
            raise ParameterError(
                f"lags must have trailing dimension {self.d}, got shape {lag.shape}"
            )
        y = lag if self._isotropic else lag @ self.anisotropy.T
        r2 = np.einsum("...i,...i->...", y, y)
        return r2 if self.mode == "squared_norm" else np.sqrt(r2)

    def __call__(self, lags):
        return evaluate(self.profile, self.radial_argument(lags))

    def norm_profile(self, r):
        """Model value as a function of the anisotropic radius r = |A xi|."""
        r = np.asarray(r, dtype=float)
        x = r * r if self.mode == "squared_norm" else r
        return evaluate(self.profile, x)


@dataclass(frozen=True, eq=False)
class Variogram(_RadialModel):
    """gamma(xi) = f(|A xi|^2) or f(|A xi|) on R^d."""


@dataclass(frozen=True, eq=False)
class StationaryCovariance(_RadialModel):
    """C(xi) = f(|A xi|^2) or f(|A xi|), with support radius.

    The sill C(0) = f(0) is fixed by the profile, so it is computed, never
    given.
    """

    support_radius: float = math.inf

    def __post_init__(self):
        super().__post_init__()
        if not self.support_radius > 0:
            raise ParameterError("support_radius must be positive (inf allowed)")
        r = self.support_radius
        if math.isfinite(r) and np.any(self.norm_profile(r * _BEYOND_SUPPORT) != 0.0):
            raise ParameterError(
                f"support_radius={r:g} is not a support radius: the profile "
                "does not vanish beyond it")

    @functools.cached_property
    def sill(self) -> float:
        """C(0), the profile's value at radius 0."""
        return float(self.norm_profile(0.0))


def _finite_support(model, what: str) -> float:
    """The finite support radius of model, or a ParameterError naming what needs one."""
    if not (isinstance(model, StationaryCovariance)
            and math.isfinite(model.support_radius)):
        raise ParameterError(f"{what} requires a stationary covariance with a finite support "
                             "radius; rebuild eventually constant variograms as sill - gamma first")
    return float(model.support_radius)


# ----------------------------------------------------------------------
# constructors

def make_variogram(f: FunctionExpr, A=None, d: int = 1,
                   mode: str = "squared_norm", construction: str = "") -> Variogram:
    """Wrap a radial profile into a variogram on R^d.

    In squared_norm mode a profile with a derived BF tag certifies
    permissibility in every dimension; anything else is accepted but
    unverified. Any real A keeps the certificate, a singular one included:
    Schoenberg's theorem covers f(|A xi|^2) for every real A, and A = 0
    gives the constant f(0). Such a model passes cnd_check, but its kriging
    system is singular (DegenerateSystemError).
    """
    return Variogram(
        profile=f, mode=mode, anisotropy=A, d=d,
        construction=construction or f"make_variogram({alg.describe(f)})",
    )


def schur_product_extended(g1: FunctionExpr, g2: FunctionExpr, alpha: float,
                           beta: float, A=None, d: int = 1) -> Variogram:
    """Variogram with profile h(x) = g1(x^alpha) * g2(x^beta).

    For Bernstein g1, g2 and alpha, beta in [0, 1] with alpha + beta <= 1
    the product of the two variograms gi(|A xi|^(2 exponent)) is again a
    variogram in every dimension; alpha + beta > 1 is outside the theorem
    and is rejected rather than silently extrapolated.
    """
    alpha, beta = float(alpha), float(beta)
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ParameterError("schur product requires alpha, beta in [0, 1]")
    if alpha + beta > 1.0:
        raise ParameterError(
            f"schur product requires alpha + beta <= 1 (got {alpha + beta:g}); "
            "the closure theorem does not cover larger exponent sums"
        )
    s = alpha + beta
    if s == 0.0:
        h = alg.catalog("const", c=evaluate(g1, 1.0) * evaluate(g2, 1.0))
    else:
        # g1(y^(alpha/s)) g2(y^(beta/s)) at y = x^s
        h = alg.compose(alg.combine(g1, g2, "split_power", alpha / s),
                        alg.catalog("power", a=s))
    return make_variogram(h, A, d, construction=(
        f"schur_product(alpha={alpha:g}, beta={beta:g}, "
        f"g1={alg.describe(g1)}, g2={alg.describe(g2)})"))


def ma_product(a1: float, a2: float, A=None, d: int = 1) -> Variogram:
    """gamma(xi) = (1-e^(-a1 |A xi|)) (1-e^(-a2 |A xi|)), certified all d.

    This is the exponent-1/2 Schur product of two exponential variograms.
    """
    if a1 < 0 or a2 < 0:
        raise ParameterError("ma_product requires nonnegative rates")
    v = schur_product_extended(
        alg.catalog("exp_one_minus", a=a1), alg.catalog("exp_one_minus", a=a2),
        alpha=0.5, beta=0.5, A=A, d=d,
    )
    return replace(v, construction=f"ma_product(a1={a1:g}, a2={a2:g})")


def cbf_variograms(g: FunctionExpr, which: str, d: int = 1, A=None) -> Variogram:
    """All-dimension variograms derived from one complete Bernstein profile.

    which: ratio -> x/g(x); inv_arg -> 1/g(1/x); inv_arg_ratio -> x*g(1/x).
    """
    if which not in ("ratio", "inv_arg", "inv_arg_ratio"):
        raise ParameterError("which must be ratio | inv_arg | inv_arg_ratio")
    if alg._probably_zero(g):
        raise ConstructionError("profile must not be identically zero")
    if which == "ratio":
        h = alg.dualize(g, "x_over_f")
    else:
        inv = alg.dualize(alg.compose(g, alg.catalog("recip")), "reciprocal")
        h = inv if which == "inv_arg" else alg.dualize(inv, "x_over_f")
    # a dualize node derives BF exactly when it derives CBF
    return make_variogram(h, A, d,
                          construction=f"cbf_variograms({which}, g={alg.describe(g)})")


def composition_products(g1: FunctionExpr, g2: FunctionExpr,
                         g3: FunctionExpr | None = None,
                         which: str = "two_factor", d: int = 1, A=None) -> Variogram:
    """Products of composed radial variograms, closed over complete Bernstein.

    two_factor:   h(x) = g1(x) * g2(x / g1(x))
    three_factor: h(x) = g3(g1(x)) * g2(x / g1(x))
    """
    if which not in ("two_factor", "three_factor"):
        raise ParameterError("which must be two_factor | three_factor")
    if (g3 is None) != (which == "two_factor"):  # g3 exactly for three_factor
        raise ParameterError(f"{which} {'needs' if g3 is None else 'takes no'} g3")
    outer = alg.catalog("power", a=1.0) if which == "two_factor" else g3
    h = alg.uchiyama(outer, g1, g2)
    # an uchiyama node derives BF exactly when it derives CBF
    return make_variogram(
        h, A, d,
        construction=f"composition_products({which}, g1={alg.describe(g1)}, "
                     f"g2={alg.describe(g2)}"
                     + (f", g3={alg.describe(g3)})" if g3 is not None else ")"),
    )


def wendland(r: float, l: int, d: int, A=None) -> StationaryCovariance:
    """Truncated-power covariance (1 - |xi|/r)_+^l, compact support r.

    Positive definiteness on R^d needs l >= floor(d/2) + 1; smaller l is
    rejected, naming the bound.
    """
    if r <= 0:
        raise ParameterError("support radius r must be positive")
    profile = alg.catalog("wendland_profile", r=r, l=l)
    bound = d // 2 + 1
    if l < bound:
        raise ParameterError(
            f"truncated power exponent l={l} is not permissible in d={d}: "
            f"requires l >= floor(d/2)+1 = {bound}"
        )
    return StationaryCovariance(
        profile=profile, mode="norm", anisotropy=A, d=d, support_radius=float(r),
        construction=f"wendland(r={r:g}, l={l}, d={d})",
    )


def spherical(rng: float, d: int, A=None) -> Variogram:
    """Spherical variogram with range rng and sill 1; certified for d <= 3."""
    return make_variogram(alg.catalog("spherical_profile", {"range": rng}),
                          A, d, mode="norm",
                          construction=f"spherical(range={rng:g}, d={d})")


def spherical_covariance(rng: float, d: int, A=None) -> StationaryCovariance:
    """C = 1 - spherical variogram: compactly supported with radius rng."""
    return _complement(spherical(rng, d, A), StationaryCovariance, 1.0,
                       f"spherical_covariance(range={rng:g}, d={d})",
                       support_radius=float(rng))


def exponential_covariance(rate: float = 1.0, d: int = 1, A=None) -> StationaryCovariance:
    """C(xi) = e^(-rate |A xi|), permissible in every dimension."""
    return StationaryCovariance(
        profile=alg.compose(alg.catalog("exp_decay", a=rate),
                            alg.catalog("power", a=0.5)),
        mode="squared_norm", anisotropy=A, d=d,
        construction=f"exponential_covariance(rate={rate:g}, d={d})",
    )


def matern_covariance(alpha: float = 1.0, nu: float = 0.5, d: int = 1,
                      A=None) -> StationaryCovariance:
    """Covariance 1 - matern profile sill-reversed: C = 1 - f_matern(|xi|^2)."""
    return _complement(make_variogram(alg.catalog("matern", alpha=alpha, nu=nu), A, d),
                       StationaryCovariance, 1.0,
                       f"matern_covariance(alpha={alpha:g}, nu={nu:g}, d={d})")


def _complement(m: _RadialModel, cls: type, shift: float, construction: str, **kw):
    """The cls model shift - m on m's mode, anisotropy and dimension, kw its
    other fields: C(0) - C for a covariance C, or sill - gamma for a
    variogram gamma (Schoenberg's theorem read both ways). _certificate
    decides from the affine node whether the theorem covers the result."""
    return cls(profile=alg.affine(m.profile, shift=float(shift), scale=-1.0),
               mode=m.mode, anisotropy=m.anisotropy, d=m.d,
               construction=construction, **kw)


def variogram_from_covariance(c: StationaryCovariance) -> Variogram:
    """gamma(xi) = C(0) - C(xi); bounded by the sill, eventually constant
    exactly when C is compactly supported."""
    return _complement(c, Variogram, c.sill,
                       f"variogram_from_covariance({c.construction})")


def covariance_from_variogram(v: Variogram, sill: float,
                              support_radius: float = math.inf) -> StationaryCovariance:
    """C(xi) = sill - gamma(xi) for bounded (eventually constant) variograms."""
    if not sill >= 0:
        raise ParameterError("sill must be nonnegative")
    return _complement(v, StationaryCovariance, sill,
                       f"covariance_from_variogram({v.construction})",
                       support_radius=float(support_radius))


# ----------------------------------------------------------------------
# model JSON

def model_to_json(m: _RadialModel) -> dict:
    out = {
        "type": "covariance" if isinstance(m, StationaryCovariance) else "variogram",
        "profile": alg.expr_to_json(m.profile),
        "mode": m.mode,
        "A": m.anisotropy.tolist(),
        "d": m.d,
        "certified": m.certified,
        "certificate": m.certificate,
        "construction": m.construction,
    }
    if isinstance(m, StationaryCovariance):
        out["support_radius"] = None if math.isinf(m.support_radius) else m.support_radius
    return out


def model_from_json(d: dict):
    """The model of d. A key model_to_json does not write for d's type, other
    than the ignored "sill", is refused, and so is a missing "type"."""
    if not isinstance(d, dict):
        raise ParameterError("model JSON must be an object")
    kind = d.get("type")
    alg._known_keys(d, ("type", "profile", "mode", "A", "d", "certified", "certificate",
                        "construction", *(("support_radius",) if kind != "variogram" else ()),
                        "sill"), "model JSON")
    for key in ("type", "profile", "mode", "d"):
        if key not in d:
            raise ParameterError(f"model JSON is missing the '{key}' field")
    shared = dict(profile=alg.expr_from_json(d["profile"]), mode=d["mode"],
                  anisotropy=d.get("A"), d=_number(d["d"], "model dimension 'd'", int),
                  construction=d.get("construction", ""))
    if kind == "covariance":
        sr = d.get("support_radius")
        return StationaryCovariance(**shared, support_radius=math.inf if sr is None
                                    else _number(sr, "support_radius"))
    if kind != "variogram":
        raise ParameterError(f"unknown model type '{kind}'")
    return Variogram(**shared)
