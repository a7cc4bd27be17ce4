"""Expression algebra for radial profile functions.

Expressions are immutable trees over catalog atoms. Each node carries the set
of function-cone memberships ("CM", "BF", "CBF", "S") that its closure rules
prove (``derived``): atoms carry catalog facts, inner nodes only what a row of
``_THEOREMS`` derives from the children's derived sets. That table is the one
place the closure theorems are stated. Derived tags are sound but not
complete - an empty set means "unverified", never "disproved". Tags declared
through with_tags or loaded from JSON join ``tags`` for display, but no proof
reads them.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .atoms import ALIASES, CBF_TABLE, COMPLEX_ATOMS, REGISTRY, _number, validate_params
from .errors import (
    ConstructionError,
    EvaluationError,
    ParameterError,
    QuadratureError,
)

__all__ = [
    "FunctionExpr",
    "LevyTriple",
    "catalog",
    "catalog_names",
    "cbf_table",
    "evaluate",
    "evaluate_complex",
    "compose",
    "combine",
    "dualize",
    "uchiyama",
    "affine",
    "fsum",
    "fprod",
    "fpow",
    "with_tags",
    "with_levy",
    "infer_class",
    "levy_eval",
    "expr_to_json",
    "expr_from_json",
    "spectral_node",
    "describe",
]

CONES = ("CM", "BF", "CBF", "S")

COMBINE_RULES = ("power_mean", "arg_power_mean", "split_power", "geometric")
DUALIZE_RULES = ("x_over_f", "f_over_x", "reciprocal")

# substitutes used to evaluate ratio limits x/f(x), f(x)/x at the endpoints;
# every catalog atom is power-law behaved there, so the substituted point
# evaluates the true limit to within ~1e-140
_ZERO_SUB = 1e-280
_INF_SUB = 1e300


@dataclass(frozen=True)
class LevyTriple:
    """Representation (drift, constant, measure) of a Bernstein function
    f(x) = drift*x + constant + integral (1 - e^(-x t)) nu(dt).

    The measure is either a finite list of atoms (t_i, mass_i) or a density
    m(t) given as a FunctionExpr on t > 0; exactly one of the two is set.
    """

    drift: float = 0.0
    constant: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    density: "FunctionExpr | None" = None

    def __post_init__(self):
        if not (0.0 <= self.drift < math.inf and 0.0 <= self.constant < math.inf):
            raise ParameterError("Levy triple requires finite drift >= 0 and constant >= 0")
        if self.atoms and self.density is not None:
            raise ParameterError("Levy measure is either atoms or a density, not both")
        for t, m in self.atoms:
            if not (0.0 < t < math.inf and 0.0 <= m < math.inf):
                raise ParameterError(
                    "Levy atoms require finite location > 0 and mass >= 0"
                )


@dataclass(frozen=True)
class FunctionExpr:
    """A node of the profile-function expression tree."""

    kind: str
    name: str = ""
    params: tuple[tuple[str, float], ...] = ()
    children: tuple["FunctionExpr", ...] = ()
    alpha: float | None = None
    tags: frozenset = field(default_factory=frozenset)  # declared; derived joins
    levy: LevyTriple | None = None
    derived: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # derived from the node's own fields on every construction, replace()
        # included, so no caller can set it; tags absorb it
        if self.kind == "spectral":
            _check_spectral_carrier(self.children[0])
        derived = _complete(_derive(self))
        object.__setattr__(self, "derived", derived)
        object.__setattr__(self, "tags", _complete(set(self.tags) | derived))

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):  # compact, used in provenance strings
        return describe(self)


def describe(e: FunctionExpr) -> str:
    """A compact construction string; a node that carries a Levy triple
    other than its own (see _foreign_levy) reads with_levy(node, triple)."""
    text = _describe_node(e)
    if _foreign_levy(e):
        return f"with_levy({text}, {_describe_levy(e.levy)})"
    return text


def _describe_node(e: FunctionExpr) -> str:
    if e.kind == "atom":
        inner = ", ".join(f"{k}={v:g}" for k, v in e.params)
        return f"{e.name}({inner})"
    if e.kind == "power":
        return f"pow({describe(e.children[0])}, {e.alpha:g})"
    if e.kind == "affine":
        p = e.params_dict
        return (f"affine({describe(e.children[0])}, shift={p['shift']:g}, "
                f"scale={p['scale']:g})")
    parts = ", ".join(describe(c) for c in e.children)
    head = e.kind if not e.name else f"{e.kind}[{e.name}]"
    if e.alpha is not None:
        return f"{head}({parts}; alpha={e.alpha:g})"
    return f"{head}({parts})"


def _describe_levy(t: LevyTriple | None) -> str:
    if t is None:
        return "none"
    parts = [f"drift={t.drift:g}", f"constant={t.constant:g}"]
    if t.atoms:
        parts.append("atoms=[" + ", ".join(f"({a:g}, {m:g})" for a, m in t.atoms) + "]")
    if t.density is not None:
        parts.append(f"density={describe(t.density)}")
    return f"levy({', '.join(parts)})"


# ----------------------------------------------------------------------
# tag rules

def _complete(tags: Iterable[str]) -> frozenset:
    t = set(tags)
    if "CBF" in t:
        t.add("BF")
    if "S" in t:
        t.add("CM")
    return frozenset(t)


# The closure theorems of the four cones (the source paper, arXiv 0812.2936;
# Schilling, Song and Vondracek, "Bernstein Functions"), one row each:
# (node kind, condition on the node or None, cone each child must carry or
# one cone per child, cone proved). A node derives what its matching rows prove.
_THEOREMS = (
    # each cone is a convex cone that holds the nonnegative constants
    *(("affine", lambda e: all(v >= 0.0 for _, v in e.params), c, c) for c in CONES),
    *(("sum", None, c, c) for c in CONES),
    ("product", None, "CM", "CM"),
    # CM o BF is CM (Bochner subordination), and BF o BF is BF
    ("compose", None, ("CM", "BF"), "CM"),
    ("compose", None, ("BF", "BF"), "BF"),
    # CBF o CBF is CBF; the rest follow from it by f in S iff 1/f in CBF
    ("compose", None, ("CBF", "CBF"), "CBF"),
    ("compose", None, ("S", "S"), "CBF"),
    ("compose", None, ("S", "CBF"), "S"),
    ("compose", None, ("CBF", "S"), "S"),
    # f^a stays in BF, CBF and S for a in (0, 1]; f^1 is f; f^-1 swaps CBF and S
    ("power", lambda e: e.alpha == 1.0, "CM", "CM"),
    *(("power", lambda e: 0.0 < e.alpha <= 1.0, c, c) for c in ("BF", "CBF", "S")),
    ("power", lambda e: e.alpha == -1.0, "CBF", "S"),
    ("power", lambda e: e.alpha == -1.0, "S", "CBF"),
    # the four combine rules map CBF pairs to CBF; the Schur product theorem
    # with exponent sum 1 covers f(x^a) g(x^(1-a)) for BF pairs
    ("combine", None, "CBF", "CBF"),
    ("combine", lambda e: e.name == "split_power", "BF", "BF"),
    ("uchiyama", None, "CBF", "CBF"),
    # f is CBF iff x/f(x) is CBF iff f(x)/x and 1/f(x) are S
    ("dualize", lambda e: e.name == "x_over_f", "CBF", "CBF"),
    ("dualize", lambda e: e.name == "f_over_x", "CBF", "S"),
    ("dualize", lambda e: e.name == "reciprocal", "CBF", "S"),
    ("dualize", lambda e: e.name == "reciprocal", "S", "CBF"),
)


def _derive(e: FunctionExpr) -> frozenset:
    """The cones the catalog (atoms) or the _THEOREMS rows prove for e."""
    if e.kind == "atom":
        spec = REGISTRY[e.name]
        return frozenset(spec.tags(validate_params(spec, e.params_dict)))
    proved = set()
    for kind, holds, premise, cone in _THEOREMS:
        premises = (premise,) * len(e.children) if isinstance(premise, str) else premise
        if kind == e.kind and (holds is None or holds(e)) and all(
                p in c.derived for p, c in zip(premises, e.children)):
            proved.add(cone)
    return frozenset(proved)


def _node(kind, name="", params=(), children=(), alpha=None,
          levy=None) -> FunctionExpr:
    return FunctionExpr(kind, name, tuple(params), tuple(children), alpha,
                        levy=levy)


def with_tags(e: FunctionExpr, tags: Iterable[str]) -> FunctionExpr:
    """Declare extra cone tags on an expression.

    Declared tags join ``tags`` (and so infer_class and the JSON form) but
    not ``derived``: model certificates read derived tags only, so a
    declaration documents a claim without proving it.
    """
    extra = set(tags)
    bad = extra - set(CONES)
    if bad:
        raise ParameterError(f"unknown cone tags {sorted(bad)}; expected {CONES}")
    return replace(e, tags=e.tags | extra)


def with_levy(e: FunctionExpr, triple: LevyTriple) -> FunctionExpr:
    return replace(e, levy=triple)


def infer_class(e: FunctionExpr) -> frozenset:
    """The cone tags recorded for e: derived plus declared.

    Every node derives its tags once, when it is built: atoms from catalog
    facts, inner nodes by the closure rules from their children's derived
    tags. Tags declared through with_tags or persisted in JSON are added on
    top. The set is complete (CBF implies BF, S implies CM). Certificates
    use ``e.derived`` alone.
    """
    return e.tags


# ----------------------------------------------------------------------
# constructors

def catalog(name: str, params: dict | None = None, **kw) -> FunctionExpr:
    """Construct a catalog atom by name with validated parameters.

    Names in atoms.ALIASES resolve to their canonical atom.
    """
    spec = REGISTRY.get(ALIASES.get(name, name))
    if spec is None:
        raise ParameterError(
            f"unknown atom name '{name}'; see catalog_names() for the catalog"
        )
    p = validate_params(spec, {**(params or {}), **kw})
    return _node("atom", spec.name, sorted(p.items()), levy=_build_levy(spec.name, p))


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def cbf_table() -> tuple[FunctionExpr, ...]:
    """The canonical twelve-member complete Bernstein table."""
    return tuple(catalog(n, dict(p)) for n, p in CBF_TABLE)


def _build_levy(name: str, p: dict) -> LevyTriple | None:
    """The catalog triple of atom name with parameters p, or None."""
    spec = REGISTRY[name]
    return None if spec.levy is None else _levy_from_json(spec.levy(p))


def _foreign_levy(e: FunctionExpr) -> bool:
    """Whether e carries another Levy triple than the node rebuilt from its
    fields would: an atom's catalog triple, or none on an operation node."""
    return e.levy != (_build_levy(e.name, e.params_dict) if e.kind == "atom" else None)


def affine(f: FunctionExpr, shift: float = 0.0, scale: float = 1.0) -> FunctionExpr:
    """x -> shift + scale * f(x)."""
    return _node("affine", params=(("scale", float(scale)), ("shift", float(shift))),
                 children=(f,))


def fsum(*fs: FunctionExpr) -> FunctionExpr:
    if not fs:
        raise ConstructionError("fsum needs at least one term")
    if len(fs) == 1:
        return fs[0]
    return _node("sum", children=fs)


def fprod(*fs: FunctionExpr) -> FunctionExpr:
    if not fs:
        raise ConstructionError("fprod needs at least one factor")
    if len(fs) == 1:
        return fs[0]
    return _node("product", children=fs)


def fpow(f: FunctionExpr, exponent: float) -> FunctionExpr:
    return _node("power", children=(f,), alpha=float(exponent))


def compose(f: FunctionExpr, g: FunctionExpr) -> FunctionExpr:
    """f o g, i.e. x -> f(g(x))."""
    return _node("compose", children=(f, g))


def combine(f: FunctionExpr, g: FunctionExpr, rule: str, alpha: float) -> FunctionExpr:
    """Two-argument closure combinators on the complete Bernstein cone.

    rule: one of
      power_mean      (f(x)^a + g(x)^a)^(1/a),        a in [-1, 1] \\ {0}
      arg_power_mean  (f(x^a) + g(x^a))^(1/a),        a in [-1, 1] \\ {0}
      split_power     f(x^a) * g(x^(1-a)),            a in [0, 1]
      geometric       f(x)^a * g(x)^(1-a),            a in [0, 1]
    """
    alpha = float(alpha)
    if rule not in COMBINE_RULES:
        raise ParameterError(f"unknown combine rule '{rule}'; expected {COMBINE_RULES}")
    if rule in ("power_mean", "arg_power_mean"):
        if not (-1.0 <= alpha <= 1.0) or alpha == 0.0:
            raise ParameterError(
                f"combine rule '{rule}' requires alpha in [-1, 1] excluding 0 "
                f"(got {alpha!r})"
            )
    else:
        if not (0.0 <= alpha <= 1.0):
            raise ParameterError(
                f"combine rule '{rule}' requires alpha in [0, 1] (got {alpha!r})"
            )
    return _node("combine", name=rule, children=(f, g), alpha=alpha)


def dualize(f: FunctionExpr, rule: str) -> FunctionExpr:
    """Duality maps x/f(x), f(x)/x and 1/f(x) on the CBF/Stieltjes pair."""
    if rule not in DUALIZE_RULES:
        raise ParameterError(f"unknown dualize rule '{rule}'; expected {DUALIZE_RULES}")
    return _node("dualize", name=rule, children=(f,))


def uchiyama(h: FunctionExpr, f: FunctionExpr, g: FunctionExpr) -> FunctionExpr:
    """x -> h(f(x)) * g(x / f(x)); maps CBF triples to CBF."""
    if _probably_zero(f):
        raise ConstructionError("uchiyama requires f not identically zero")
    return _node("uchiyama", children=(h, f, g))


def _probably_zero(f: FunctionExpr) -> bool:
    try:
        return all(evaluate(f, x) == 0.0 for x in (0.5, 1.0, 2.0))
    except EvaluationError:
        return False


# ----------------------------------------------------------------------
# evaluation

def _sub_endpoints(x: np.ndarray) -> np.ndarray:
    out = np.where(x == 0.0, _ZERO_SUB, x)
    return np.where(np.isinf(out), _INF_SUB, out)


def _clamp_roundoff(v: np.ndarray) -> np.ndarray:
    # rounding may push a theoretically nonnegative inner value a hair below 0;
    # complex values have no sign to repair
    if np.iscomplexobj(v):
        return v
    finite = v[np.isfinite(v)]
    scale = max(1.0, float(np.abs(finite).max())) if finite.size else 1.0
    return np.where((v < 0.0) & (v > -1e-9 * scale), 0.0, v)


# node kinds whose rules are only defined on the real half line
_REAL_ONLY = frozenset({"combine", "dualize", "uchiyama", "spectral"})


def _ev(e: FunctionExpr, x: np.ndarray) -> np.ndarray:
    """Evaluate e at real x >= 0 or at complex x off the negative real axis."""
    if e.kind in _REAL_ONLY and np.iscomplexobj(x):
        raise EvaluationError(
            f"complex evaluation is unsupported for node kind '{e.kind}'"
        )
    if e.kind == "atom":
        if np.iscomplexobj(x) and e.name not in COMPLEX_ATOMS:
            raise EvaluationError(
                f"atom '{e.name}' has no complex continuation implemented"
            )
        spec, p = REGISTRY[e.name], e.params_dict
        out = np.empty_like(x)
        zero = x == 0.0
        infm = np.isinf(x)
        body = ~(zero | infm)
        if zero.any():
            out[zero] = spec.zero(p)
        if infm.any():
            out[infm] = spec.inf(p)
        if body.any():
            out[body] = spec.body(x[body], p)
        return out
    if e.kind == "affine":
        p = e.params_dict
        return p["shift"] + p["scale"] * _ev(e.children[0], x)
    if e.kind == "sum":
        acc = _ev(e.children[0], x).copy()
        for c in e.children[1:]:
            acc += _ev(c, x)
        return acc
    if e.kind == "product":
        acc = _ev(e.children[0], x).copy()
        for c in e.children[1:]:
            acc *= _ev(c, x)
        return acc
    if e.kind == "compose":
        f, g = e.children
        return _ev(f, _clamp_roundoff(_ev(g, x)))
    if e.kind == "power":
        base = _clamp_roundoff(_ev(e.children[0], x))
        return base ** e.alpha
    if e.kind == "combine":
        f, g = e.children
        a = e.alpha
        if e.name == "power_mean":
            fv, gv = _ev(f, x), _ev(g, x)
            return (fv**a + gv**a) ** (1.0 / a)
        if e.name == "arg_power_mean":
            xa = x**a
            return (_ev(f, xa) + _ev(g, xa)) ** (1.0 / a)
        if e.name == "split_power":
            return _ev(f, x**a) * _ev(g, x ** (1.0 - a))
        # geometric
        fv, gv = _ev(f, x), _ev(g, x)
        return fv**a * gv ** (1.0 - a)
    if e.kind == "dualize":
        (f,) = e.children
        if e.name == "reciprocal":
            return 1.0 / _ev(f, x)
        xs = _sub_endpoints(x)
        fv = _ev(f, xs)
        return xs / fv if e.name == "x_over_f" else fv / xs
    if e.kind == "uchiyama":
        h, f, g = e.children
        hv = _ev(h, _clamp_roundoff(_ev(f, x)))
        xs = _sub_endpoints(x)
        ratio = _clamp_roundoff(xs / _ev(f, xs))
        return hv * _ev(g, ratio)
    if e.kind == "spectral":
        (f,) = e.children
        w = np.abs(x)
        # the continuation serves the interior lags, _spectral_value the rest
        cont = _own_catalog_triple(f) & (w != 0.0) & ~np.isinf(w)
        out = np.empty_like(w)
        out[~cont] = [_spectral_value(f, float(h)) for h in w[~cont]]
        out[cont] = -np.real(1j * w[cont] * _ev(f, 1j * w[cont]))
        return out
    raise EvaluationError(f"unknown expression kind '{e.kind}'")


def evaluate(e: FunctionExpr, x):
    """Evaluate an expression at x >= 0 (scalars or arrays, elementwise).

    x = 0 is evaluated through the limit branch of each node; a non-finite
    result (no finite limit, overflow, domain violation) raises
    EvaluationError rather than returning NaN or inf.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr).astype(float)
    if pts.size and np.nanmin(pts) < 0.0:
        raise EvaluationError("profile expressions are defined for x >= 0")
    with np.errstate(all="ignore"):
        vals = _ev(e, pts)
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        raise EvaluationError(
            f"evaluation of {describe(e)} produced a non-finite value at "
            f"x={pts[i]!r}"
        )
    return float(vals[0]) if scalar else vals.reshape(arr.shape)


def evaluate_complex(e: FunctionExpr, z):
    """Evaluate at complex z off the negative real axis (the imaginary axis
    included) through the principal-branch continuation of the atoms.

    Atoms outside atoms.COMPLEX_ATOMS and combine, dualize, uchiyama and
    spectral nodes raise EvaluationError.
    """
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    pts = np.atleast_1d(zz)
    vals = _ev(e, pts)
    return complex(vals[0]) if scalar else vals.reshape(zz.shape)


# ----------------------------------------------------------------------
# Levy representation

def levy_eval(triple: LevyTriple, x):
    """Evaluate drift*x + constant + integral (1 - e^(-x t)) nu(dt)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr).astype(float)
    if pts.size and pts.min() < 0.0:
        raise EvaluationError("Levy representations are evaluated at x >= 0")
    out = triple.drift * pts + triple.constant
    for t, m in triple.atoms:
        out += -m * np.expm1(-pts * t)
    if triple.density is not None:
        if not _levy_moment_finite(triple.density):
            raise ParameterError("Levy density fails the integrability requirement "
                                 "integral min(2t, 1) m(t) dt < inf")
        out += np.array([_levy_integral(triple.density, float(v)) for v in pts])
    return float(out[0]) if scalar else out.reshape(arr.shape)


@contextlib.contextmanager
def _quiet_quadrature():
    # quadrature quality is judged from the returned error estimates, so
    # convergence warnings would only duplicate the raised exceptions
    from scipy.integrate import IntegrationWarning

    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        yield


def _integral(pieces, gate: float, error: type, message: str) -> float:
    """Sum of signed quad pieces ``(sign, f, a, b, quad keywords)``.

    Raise ``error(message)`` unless the sum is finite and the summed error
    estimate is at most gate * max(1, |sum|); message may name the sum as
    {value} and the error estimate as {bound}.
    """
    from scipy.integrate import quad

    total = bound = 0.0
    with _quiet_quadrature():
        for sign, f, a, b, kw in pieces:
            value, err = quad(f, a, b, **kw)[:2]
            total += sign * value
            bound += err
    if not np.isfinite(total) or bound > gate * max(1.0, abs(total)):
        raise error(message.format(value=total, bound=bound))
    return total


@functools.lru_cache(maxsize=64)
def _levy_moment_finite(density: FunctionExpr) -> bool:
    """Whether quadrature finds integral min(2t, 1) m(t) dt finite: the Levy
    condition on m, and by Fubini the min(s, s^2) condition on mu."""
    f = lambda t: min(2.0 * t, 1.0) * evaluate(density, t)
    kw = dict(epsabs=1e-10, epsrel=1e-10, limit=200)
    try:
        _integral([(1, f, 0.0, 0.5, kw), (1, f, 0.5, np.inf, kw)], 1e-4,
                  QuadratureError, "")
    except QuadratureError:
        return False
    return True


def _levy_integral(density: FunctionExpr, x: float) -> float:
    if x == 0.0:
        return 0.0
    f = lambda t: -np.expm1(-x * t) * evaluate(density, t)
    kw = dict(epsabs=1e-12, epsrel=1e-11, limit=300)
    knee = 1.0 / x
    return _integral([(1, f, 0.0, knee, kw), (1, f, knee, np.inf, kw)], 1e-6,
                     QuadratureError, f"Levy integral did not converge at x={x:g} "
                     "(estimate {value!r}, error bound {bound:g})")


# ----------------------------------------------------------------------
# spectral node: gamma(h) = drift*h^2 + integral (1 - cos(s h)) mu(ds), where
# mu has tail m(t) = mu[t, inf), the carrier's Levy density; by parts this is
# drift*h^2 + h integral sin(s h) m(s) ds, and -Re(i h f(i h)) for continued f

def spectral_measure(f: FunctionExpr):
    """(drift, Levy density m) of a spectral carrier f, m None if absent.

    f must carry a Levy triple whose measure is a density m, not atoms.
    """
    triple = f.levy
    if triple is None:
        raise ConstructionError(
            "spectral construction needs an expression carrying a Levy triple"
        )
    if triple.atoms:
        raise ConstructionError(
            "spectral construction requires a density representation of the "
            "Levy measure, not atoms"
        )
    return triple.drift, triple.density


def check_mu_integrability(m: FunctionExpr) -> None:
    """Raise QuadratureError unless the Levy density m integrates
    min(2t, 1), the condition for a finite spectral variogram."""
    if not _levy_moment_finite(m):
        raise QuadratureError("Levy density fails the spectral check "
                              "integral min(2t, 1) m(t) dt < inf")


@functools.lru_cache(maxsize=64)
def _own_catalog_triple(f: FunctionExpr) -> bool:
    """Whether f is a continued catalog atom carrying its catalog triple."""
    return f.kind == "atom" and f.name in COMPLEX_ATOMS and not _foreign_levy(f)


@functools.lru_cache(maxsize=65536)
def _spectral_value(f: FunctionExpr, w: float) -> float:
    drift, m = spectral_measure(f)
    if w == 0.0:
        return 0.0
    if w == math.inf:
        # Riemann-Lebesgue: the cosine term vanishes, leaving mu's mass m(0+)
        if drift > 0.0:
            return math.inf
        return 0.0 if m is None else float(_ev(m, np.zeros(1))[0])
    total = drift * w * w
    if m is None:
        return total
    knee = 1.0 / w
    kw = dict(epsabs=1e-11, epsrel=1e-11, limit=300)
    return total + w * _integral(
        [(1, lambda s: math.sin(s * w) * evaluate(m, s), 0.0, knee, kw),
         (1, functools.partial(evaluate, m), knee, np.inf, dict(kw, weight="sin", wvar=w))],
        1e-7, QuadratureError, f"spectral quadrature did not converge at lag {w:g}")


def spectral_node(f: FunctionExpr) -> FunctionExpr:
    """Wrap a drift+density Levy carrier into an evaluable radial profile.

    Every spectral node gates its carrier when it is built, so each one is
    a variogram in d = 1: the Levy triple needs a vanishing constant term
    and a density m, checked decreasing on a log grid, that integrates
    min(2t, 1).
    """
    return _node("spectral", children=(f,))


def _check_spectral_carrier(f: FunctionExpr) -> None:
    m = spectral_measure(f)[1]
    if f.levy.constant != 0.0:
        raise ConstructionError(
            "spectral construction requires a vanishing constant term"
        )
    if m is not None:
        grid = np.logspace(-3, 3, 61)
        m_vals = evaluate(m, grid)
        rises = np.diff(m_vals)
        if rises.max() > 1e-9 * max(1.0, float(np.abs(m_vals).max())):
            i = int(np.argmax(rises))
            raise ParameterError(
                f"Levy density must be decreasing: m({grid[i]:g}) < m({grid[i + 1]:g})"
            )
        check_mu_integrability(m)


# ----------------------------------------------------------------------
# JSON expression DSL

def expr_to_json(e: FunctionExpr) -> dict:
    if e.kind == "atom":
        d: dict = {"atom": e.name, "params": {k: v for k, v in e.params}}
    else:
        d = {"op": e.kind}
        if e.name:
            d["rule"] = e.name
        if e.alpha is not None:
            d["alpha"] = e.alpha
        if e.kind == "affine":
            d.update(e.params_dict)
        d["args"] = [expr_to_json(c) for c in e.children]
    if _foreign_levy(e):
        d["levy"] = _levy_to_json(e.levy)
    if e.tags != e.derived:
        d["tags"] = sorted(e.tags)
    return d


def _levy_to_json(t: LevyTriple | None) -> dict | None:
    if t is None:
        return None
    d: dict = {"drift": t.drift, "constant": t.constant}
    if t.atoms:
        d["atoms"] = [list(a) for a in t.atoms]
    if t.density is not None:
        d["density"] = expr_to_json(t.density)
    return d


def _levy_from_json(d) -> LevyTriple | None:
    """A triple {drift, constant, atoms: [[t, mass], ...] or density: expr}."""
    if d is None:
        return None
    if not isinstance(d, dict) or not set(d) <= {"drift", "constant", "atoms", "density"}:
        raise ParameterError(
            f"expression 'levy' must be an object with keys drift, constant, "
            f"atoms or density, got {d!r}")
    atoms = d.get("atoms", [])
    if not isinstance(atoms, (list, tuple)) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms):
        raise ParameterError(f"Levy 'atoms' must be [location, mass] pairs, got {atoms!r}")
    density = d.get("density")
    return LevyTriple(
        drift=_number(d.get("drift", 0.0), "Levy drift"),
        constant=_number(d.get("constant", 0.0), "Levy constant"),
        atoms=tuple((_number(t, "Levy atom location"), _number(m, "Levy atom mass"))
                    for t, m in atoms),
        density=None if density is None else expr_from_json(density),
    )


def _field(d: dict, key: str, default=None) -> float:
    """The number d[key]; a field without a default is required."""
    if default is None and key not in d:
        raise ParameterError(f"op '{d['op']}' needs '{key}'")
    return _number(d.get(key, default), f"op '{d['op']}' field '{key}'")


# op -> (number of arguments, None if any; builder from (args, op JSON))
_OPS = {
    "sum": (None, lambda a, d: fsum(*a)),
    "product": (None, lambda a, d: fprod(*a)),
    "compose": (2, lambda a, d: compose(*a)),
    "power": (1, lambda a, d: fpow(a[0], _field(d, "alpha"))),
    "combine": (2, lambda a, d: combine(*a, d.get("rule", ""), _field(d, "alpha", math.nan))),
    "dualize": (1, lambda a, d: dualize(a[0], d.get("rule", ""))),
    "uchiyama": (3, lambda a, d: uchiyama(*a)),
    "spectral": (1, lambda a, d: spectral_node(a[0])),
    "affine": (1, lambda a, d: affine(a[0], shift=_field(d, "shift", 0.0),
                                      scale=_field(d, "scale", 1.0))),
}


def expr_from_json(d: dict) -> FunctionExpr:
    """Rebuild an expression; persisted "tags" are declared, not derived."""
    if not isinstance(d, dict):
        raise ParameterError(f"expression JSON must be an object, got {type(d).__name__}")
    if "atom" in d:
        if not isinstance(d["atom"], str):
            raise ParameterError(f"expression 'atom' must be a name, got {d['atom']!r}")
        e = catalog(d["atom"], _json_field(d, "params", dict, {}, "an object"))
    elif "op" in d:
        op = d["op"]
        if not isinstance(op, str) or op not in _OPS:
            raise ParameterError(
                f"unknown expression op '{op}'; expected one of {', '.join(_OPS)}")
        arity, build = _OPS[op]
        args = [expr_from_json(a) for a in _json_field(d, "args", list, [], "a list")]
        if arity is not None and len(args) != arity:
            raise ParameterError(f"{op} takes exactly {arity} argument(s), got {len(args)}")
        e = build(args, d)
    else:
        raise ParameterError("expression JSON needs an 'atom' or an 'op' key")
    if "levy" in d:
        e = with_levy(e, _levy_from_json(d["levy"]))
    if "tags" in d:
        tags = d["tags"]
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ParameterError(f"expression 'tags' must be a list of cone names, got {tags!r}")
        e = with_tags(e, tags)
    return e


def _json_field(d: dict, key: str, kind: type, default, what: str):
    """d[key] (or default) if it is a kind, else ParameterError naming what."""
    v = d.get(key, default)
    if not isinstance(v, kind):
        raise ParameterError(f"expression '{key}' must be {what}, got {v!r}")
    return v
