"""Expression algebra for radial profile functions.

Expressions are immutable trees over catalog atoms. Each node carries the set
of function-cone memberships ("CM", "BF", "CBF", "S") that its closure rules
prove (``derived``): atoms carry catalog facts, inner nodes only what a row of
``_THEOREMS`` derives from the children's derived sets. That table is the one
place the closure theorems are stated. Derived tags are sound but not
complete - an empty set means "unverified", never "disproved". It is the
only tag set: nothing declares tags, and expression JSON holding a "tags" key
is refused.

A node's Levy triple (``levy``) is derived like its tags: a catalog atom's
from the catalog, None on every other node. A spectral node holds the
carrier it evaluates: a catalog atom, through its continuation and not
gated numerically, or a LevyTriple's drift and decreasing density (rule
"levy"), gated when the node is built; a call integrates each distinct lag
of such a density once, and nothing is cached.

Integrals (a Levy density's moment gate, levy_eval, a spectral node whose
carrier has no continuation) use one adaptive Gauss-Kronrod rule in numpy:
QUADPACK's G10K21 pair on every interval, a level of bisections of the
intervals with the largest error estimates, and one evaluate call for all
new nodes of a level. The half line is cut into dyadic pieces around a
knee; the pieces beyond the last toward 0 or inf add up as a geometric
series, exact for power-law ends and infinite for divergent ones. A
sine-weighted tail adds up over half periods (Longman's method), the later
ones by Euler's transformation. A result's error bound is the sum of three
parts: the Kronrod-Gauss estimates (QUADPACK's heuristic, not a proof), the
change of each geometric rest between its last two ratios, and the next term
of Euler's transformation, a proof when the density is completely monotone.
A bound above its gate raises QuadratureError, and so does a rule that runs
out of its fixed level or interval cap, naming it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    "infer_class",
    "levy_eval",
    "expr_to_json",
    "expr_from_json",
    "spectral_node",
    "describe",
]

CONES = ("CM", "BF", "CBF", "S")

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

    def __repr__(self):  # compact, used in provenance strings
        parts = [f"drift={_g(self.drift)}", f"constant={_g(self.constant)}"]
        if self.atoms:
            parts.append("atoms=[" + ", ".join(f"({_g(a)}, {_g(m)})" for a, m in self.atoms) + "]")
        if self.density is not None:
            parts.append(f"density={describe(self.density)}")
        return f"levy({', '.join(parts)})"


@dataclass(frozen=True)
class FunctionExpr:
    """A node of the profile-function expression tree."""

    kind: str
    name: str = ""
    params: tuple[tuple[str, float], ...] = ()
    children: tuple["FunctionExpr", ...] = ()
    alpha: float | None = None
    derived: frozenset = field(init=False, compare=False, repr=False)
    levy: LevyTriple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # derived from the node's own fields on every construction, replace()
        # included, so no caller can set them
        if self.kind == "spectral":
            _check_spectral(self)
        object.__setattr__(self, "levy", _catalog_levy(self) if self.kind == "atom" else None)
        object.__setattr__(self, "derived", _complete(_derive(self)))

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):  # compact, used in provenance strings
        return describe(self)


def _g(v: float) -> str:
    """v as :g prints it if that reads back as v, else repr(v): short, and
    never the same for two numbers."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def describe(e: FunctionExpr) -> str:
    """A compact construction string; a spectral node names its carrier,
    a catalog atom or levy(drift=..., density=...)."""
    if e.kind == "atom":
        inner = ", ".join(f"{k}={_g(v)}" for k, v in e.params)
        return f"{e.name}({inner})"
    if e.kind == "power":
        return f"pow({describe(e.children[0])}, {_g(e.alpha)})"
    if e.kind == "affine":
        p = e.params_dict
        return (f"affine({describe(e.children[0])}, shift={_g(p['shift'])}, "
                f"scale={_g(p['scale'])})")
    if e.kind == "spectral" and e.name:
        return f"spectral({_carrier(e)!r})"
    parts = ", ".join(describe(c) for c in e.children)
    head = e.kind if not e.name else f"{e.kind}[{e.name}]"
    if e.alpha is not None:
        return f"{head}({parts}; alpha={_g(e.alpha)})"
    return f"{head}({parts})"


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


def _node(kind, name="", params=(), children=(), alpha=None) -> FunctionExpr:
    return FunctionExpr(kind, name, tuple(params), tuple(children), alpha)


def _catalog_levy(e: FunctionExpr) -> LevyTriple | None:
    """The triple the catalog states for atom e, or None."""
    spec = REGISTRY[e.name]
    t = None if spec.levy is None else spec.levy(e.params_dict)
    if t is None:
        return None
    return LevyTriple(**{k: expr_from_json(v) if k == "density" else v for k, v in t.items()})


def infer_class(e: FunctionExpr) -> frozenset:
    """The cone tags proved for e, ``e.derived``.

    Every node derives its tags once, when it is built: atoms from catalog
    facts, inner nodes by the closure rules from their children's derived
    tags. The set is complete (CBF implies BF, S implies CM).
    """
    return e.derived


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
    return _node("atom", spec.name, sorted(p.items()))


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def cbf_table() -> tuple[FunctionExpr, ...]:
    """The canonical twelve-member complete Bernstein table."""
    return tuple(catalog(n, dict(p)) for n, p in CBF_TABLE)


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


def _arg_power_mean(f: FunctionExpr, g: FunctionExpr, x: np.ndarray, a: float):
    xa = x**a
    return (_ev(f, xa) + _ev(g, xa)) ** (1.0 / a)


# combine rule -> (alpha interval [lo, hi], whether alpha = 0 is excluded,
# value at x of the children f, g for alpha a)
_COMBINE = {
    "power_mean": (-1.0, 1.0, True,
                   lambda f, g, x, a: (_ev(f, x)**a + _ev(g, x)**a) ** (1.0 / a)),
    "arg_power_mean": (-1.0, 1.0, True, _arg_power_mean),
    "split_power": (0.0, 1.0, False,
                    lambda f, g, x, a: _ev(f, x**a) * _ev(g, x ** (1.0 - a))),
    "geometric": (0.0, 1.0, False,
                  lambda f, g, x, a: _ev(f, x)**a * _ev(g, x) ** (1.0 - a)),
}
COMBINE_RULES = tuple(_COMBINE)


def combine(f: FunctionExpr, g: FunctionExpr, rule: str, alpha: float) -> FunctionExpr:
    """Two-argument closure combinators on the complete Bernstein cone.

    rule: one of
      power_mean      (f(x)^a + g(x)^a)^(1/a),        a in [-1, 1] \\ {0}
      arg_power_mean  (f(x^a) + g(x^a))^(1/a),        a in [-1, 1] \\ {0}
      split_power     f(x^a) * g(x^(1-a)),            a in [0, 1]
      geometric       f(x)^a * g(x)^(1-a),            a in [0, 1]
    The alpha intervals are enforced from the rule's row of _COMBINE.
    """
    alpha = float(alpha)
    if rule not in COMBINE_RULES:
        raise ParameterError(f"unknown combine rule '{rule}'; expected {COMBINE_RULES}")
    lo, hi, nonzero, _ = _COMBINE[rule]
    if not lo <= alpha <= hi or (nonzero and alpha == 0.0):
        raise ParameterError(
            f"combine rule '{rule}' requires alpha in [{lo:g}, {hi:g}]"
            f"{' excluding 0' if nonzero else ''} (got {alpha!r})"
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


def _exact_limit(e: FunctionExpr, x: float) -> float | None:
    """The limit of e at x = 0 or inf, or None where it is not finite or only
    approximated: dualize x/f(x), f(x)/x and uchiyama nodes substitute finite
    points for the endpoints (_sub_endpoints). Below a spectral node only the
    carrier's Levy density is searched, since its limits are 0 and m(0+), and
    not for e itself at x = 0, which is exactly 0 and reads no density."""
    nodes = [e]
    while nodes:
        g = nodes.pop()
        if g.kind == "uchiyama" or (g.kind == "dualize" and g.name != "reciprocal"):
            return None
        if g.kind != "spectral":
            nodes.extend(g.children)
        elif (m := _carrier(g).density) is not None and (g is not e or x != 0.0):
            nodes.append(m)
    try:
        return evaluate(e, x)
    except EvaluationError:
        return None


def _clamp_roundoff(v: np.ndarray) -> np.ndarray:
    # rounding may push a theoretically nonnegative inner value a hair below 0;
    # complex values have no sign to repair, and an array whose least entry
    # is >= 0 nothing to repair (a NaN or -inf entry fails that test)
    if np.iscomplexobj(v) or v.min(initial=math.inf) >= 0.0:
        return v
    finite = v[np.isfinite(v)]
    scale = max(1.0, float(np.abs(finite).max())) if finite.size else 1.0
    return np.where((v < 0.0) & (v > -1e-9 * scale), 0.0, v)


def _ev(e: FunctionExpr, x: np.ndarray) -> np.ndarray:
    """Evaluate e at real x >= 0 or at complex x off the negative real axis.

    An atom is its body applied to the whole array, and then the entries
    at 0 and at inf are overwritten by the atom's limits there. Every other
    node is the value rule of its kind's ``_OPS`` row, which also says
    whether the rule takes only real x.
    """
    if e.kind == "atom":
        if np.iscomplexobj(x) and e.name not in COMPLEX_ATOMS:
            raise EvaluationError(
                f"atom '{e.name}' has no complex continuation implemented"
            )
        spec, p = REGISTRY[e.name], e.params_dict
        out = spec.body(x, p)
        if not x.all():
            out[x == 0.0] = spec.zero(p)
        inf = np.isinf(x)
        if inf.any():
            out[inf] = spec.inf(p)
        return out
    if e.kind not in _OPS:
        raise EvaluationError(f"unknown expression kind '{e.kind}'")
    *_, rule, real_only = _OPS[e.kind]
    if real_only and np.iscomplexobj(x):
        raise EvaluationError(
            f"complex evaluation is unsupported for node kind '{e.kind}'"
        )
    return rule(e, x)


def _ev_dualize(e: FunctionExpr, x: np.ndarray) -> np.ndarray:
    (f,) = e.children
    if e.name == "reciprocal":
        return 1.0 / _ev(f, x)
    xs = _sub_endpoints(x)
    return xs / _ev(f, xs) if e.name == "x_over_f" else _ev(f, xs) / xs


def _ev_uchiyama(e: FunctionExpr, x: np.ndarray) -> np.ndarray:
    h, f, g = e.children
    hv = _ev(h, _clamp_roundoff(_ev(f, x)))
    xs = _sub_endpoints(x)
    ratio = _clamp_roundoff(xs / _ev(f, xs))
    return hv * _ev(g, ratio)


def evaluate(e: FunctionExpr, x):
    """Evaluate an expression at x >= 0 (scalars or arrays, elementwise).

    Each atom takes its limit at every entry where its argument is 0 or
    inf; a non-finite result (no finite limit, overflow, domain violation)
    raises EvaluationError rather than returning NaN or inf.
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
    with np.errstate(all="ignore"):
        vals = _ev(e, pts)
    return complex(vals[0]) if scalar else vals.reshape(zz.shape)


# ----------------------------------------------------------------------
# Levy representation

def levy_eval(triple: LevyTriple, x):
    """Evaluate drift*x + constant + integral (1 - e^(-x t)) nu(dt)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr).astype(float)
    if not np.all((pts >= 0.0) & np.isfinite(pts)):
        raise EvaluationError("Levy representations are evaluated at finite x >= 0")
    out = triple.drift * pts + triple.constant
    for t, m in triple.atoms:
        out += -m * np.expm1(-pts * t)
    if triple.density is not None:
        if not _levy_moment_finite(triple.density):
            raise ParameterError("Levy density fails the integrability requirement "
                                 "integral min(2t, 1) m(t) dt < inf")
        pos = pts > 0.0
        out[pos] += _by_columns(_levy_integral, triple.density, pts[pos])
    return float(out[0]) if scalar else out.reshape(arr.shape)


@functools.lru_cache(maxsize=64)
def _levy_moment_finite(density: FunctionExpr) -> bool:
    """Whether quadrature finds integral min(2t, 1) m(t) dt finite: the Levy
    condition on m, and by Fubini the min(s, s^2) condition on mu."""
    f = lambda t: (np.minimum(2.0 * t, 1.0) * evaluate(density, t))[:, None]
    what = lambda j: "the Levy moment integral"
    try:
        _integral(f, 0.5, 1e-10, 1e-4, what)
    except QuadratureError:
        return False
    return True


def _by_columns(integral, density: FunctionExpr, x: np.ndarray) -> np.ndarray:
    """integral(density, column) over x, _COLUMNS points a quadrature."""
    out = np.empty_like(x)
    for i in range(0, x.size, _COLUMNS):
        out[i:i + _COLUMNS] = integral(density, x[i:i + _COLUMNS])
    return out


def _levy_integral(density: FunctionExpr, x: np.ndarray) -> np.ndarray:
    """integral (1 - e^(-x t)) m(t) dt at each x > 0, as integral
    (1 - e^(-u)) m(u / x) / x du, so every x shares the nodes u."""
    f = lambda u: -np.expm1(-u)[:, None] * evaluate(density, np.divide.outer(u, x)) / x
    what = lambda j: f"Levy integral at x={x[j]:g}"
    return _integral(f, 1.0, 1e-11, 1e-6, what)


# ----------------------------------------------------------------------
# quadrature

# QUADPACK's G10K21 pair on [-1, 1], listed on [-1, 0] from the outer end:
# the Kronrod nodes, their weights, and the Gauss weights, zero at the
# Kronrod nodes that the Gauss rule lacks
_HALF_X = -np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_HALF_K = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_HALF_G = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0])
_GK_X = np.concatenate([_HALF_X, -_HALF_X[-2::-1]])
_GK_K = np.concatenate([_HALF_K, _HALF_K[-2::-1]])
_GK_G = np.concatenate([_HALF_G, _HALF_G[-2::-1]])
_EPS = float(np.finfo(float).eps)

_GK_LEVELS = 50        # bisection levels of one quadrature
_GK_INTERVALS = 2000   # intervals alive at once in one quadrature
_COLUMNS = 32          # integrands (points x) sharing one quadrature
_DYADIC = 40           # pieces [c 2^k, c 2^(k+1)] between a knee c and an open end
_HALF_PERIODS = 48     # a sine-weighted tail ends at this many pi, in half periods
_EULER = 24            # of which the last ones go through Euler's transformation


def _gauss_kronrod(f, edges: np.ndarray, epsrel: float, what):
    """Integrals of f's columns over the pieces [edges[i], edges[i + 1]] and
    their error estimates, each of shape (pieces, columns).

    f maps a 1-d array of nodes to an array (nodes, columns). Every level
    evaluates the nodes of all new intervals in one call to f and keeps each
    interval's estimate and error. While a column's errors sum to more than
    epsrel times the sum of its |estimates| (the integral, for an integrand
    of one sign), the intervals with its largest errors are bisected
    until the rest sum to at most half that. Reaching _GK_LEVELS levels or
    _GK_INTERVALS intervals first raises QuadratureError, naming the cap and
    what(j) of the worst column j.
    """
    lo, hi = edges[:-1], edges[1:]
    piece = np.arange(lo.size)
    kept = None
    for _ in range(_GK_LEVELS):
        new = (*_gk21(f, lo, hi), lo, hi, piece)
        est, err, lo, hi, piece = new if kept is None else map(np.concatenate, zip(kept, new))
        tol = epsrel * np.abs(est).sum(0)
        excess = err.sum(0) - tol
        if (excess <= 0.0).all():
            values, errors = np.zeros((2, edges.size - 1, est.shape[1]))
            np.add.at(values, piece, est)
            np.add.at(errors, piece, err)
            return values, errors
        order = np.argsort(-err, axis=0)
        rest = np.take_along_axis(err, order, 0)[::-1].cumsum(0)[::-1]
        split = np.zeros(err.shape, dtype=bool)
        np.put_along_axis(split, order, (rest > 0.5 * tol) & (excess > 0.0), 0)
        split = split.any(1)
        if est.shape[0] + split.sum() > _GK_INTERVALS:
            cap = f"{_GK_INTERVALS} intervals"
            break
        kept = tuple(a[~split] for a in (est, err, lo, hi, piece))
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        piece = np.tile(piece[split], 2)
    else:
        cap = f"{_GK_LEVELS} levels"
    j = int(np.argmax(excess))
    raise QuadratureError(f"{what(j)} did not converge within the cap of {cap} "
                          f"(estimate {float(est[:, j].sum())!r}, error bound {err[:, j].sum():g})")


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """K21 estimates and QUADPACK's error estimates, each (intervals,
    columns), of f's columns on the intervals [lo, hi], from one call to f."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X
    with np.errstate(all="ignore"):
        fv = f(nodes.ravel()).reshape(*nodes.shape, -1) * half[:, None, None]
        est = np.einsum("k,nkc->nc", _GK_K, fv)
        err = np.abs(est - np.einsum("k,nkc->nc", _GK_G, fv))
        asc = np.einsum("k,nkc->nc", _GK_K, np.abs(fv - 0.5 * est[:, None]))
        err = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
        return est, np.maximum(err, 50.0 * _EPS * np.einsum("k,nkc->nc", _GK_K, np.abs(fv)))


def _geometric_rest(p: np.ndarray):
    """The pieces beyond p[-1] toward an open end, summed as the geometric
    series through p[-2] and p[-1], and the change from the ratio of p[-3]
    and p[-2] as its error. Pieces that do not shrink give an infinite sum."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rest, alt = (np.where((r >= 0.0) & (r < 1.0), p[-1] * r / (1.0 - r), np.inf)
                     for r in (p[-1] / p[-2], p[-2] / p[-3]))
        gone = p[-1] == 0.0
        return np.where(gone, 0.0, rest), np.where(gone, 0.0, np.abs(rest - alt))


def _euler_sum(t: np.ndarray):
    """Sum of the alternating series that starts with the rows t, by Euler's
    transformation (repeated averaging of the partial sums), and its next
    term |D^p a_0| / 2^p, where a_j = (-1)^j t_j and D a_j = a_j - a_(j+1).
    That term bounds what is left when the differences of the a_j keep
    their signs, as they do for a completely monotone density."""
    a = t * (-1.0) ** np.arange(t.shape[0])[:, None]
    total = np.zeros(t.shape[1])
    for i in range(t.shape[0] - 1):
        total += a[0] / 2.0 ** (i + 1)
        a = a[:-1] - a[1:]
    return total, np.abs(a[0]) / 2.0 ** (t.shape[0] - 1)


def _integral(f, knee: float, epsrel: float, gate: float, what) -> np.ndarray:
    """integral_0^inf f(t) dt per column, gated: the pieces [knee 2^k,
    knee 2^(k+1)] for -_DYADIC <= k < _DYADIC, plus geometric rests at both
    ends."""
    v, e = _gauss_kronrod(f, knee * 2.0 ** np.arange(-_DYADIC, _DYADIC + 1), epsrel, what)
    (head, head_err), (tail, tail_err) = _geometric_rest(v[2::-1]), _geometric_rest(v[-3:])
    return _gated(v.sum(0) + head + tail, e.sum(0) + head_err + tail_err, gate, what)


def _gated(value: np.ndarray, bound: np.ndarray, gate: float, what) -> np.ndarray:
    """value, unless a column is not finite or its error bound exceeds
    gate * max(1, |value|): then QuadratureError for the first such column."""
    bad = ~np.isfinite(value) | ~(bound <= gate * np.maximum(1.0, np.abs(value)))
    if bad.any():
        j = int(np.argmax(bad))
        raise QuadratureError(f"{what(j)} did not converge "
                              f"(estimate {float(value[j])!r}, error bound {bound[j]:g})")
    return value


# ----------------------------------------------------------------------
# spectral node: gamma(h) = drift*h^2 + integral (1 - cos(s h)) mu(ds), where
# mu has tail m(t) = mu[t, inf), the carrier's Levy density; by parts this is
# drift*h^2 + h integral sin(s h) m(s) ds, and -Re(i h f(i h)) for a continued
# catalog atom f

def _carrier(e: FunctionExpr) -> LevyTriple:
    """The triple spectral node e evaluates: its catalog atom's, or its own
    drift and density."""
    if not e.name:
        return e.children[0].levy
    return LevyTriple(drift=e.params[0][1], density=e.children[0] if e.children else None)


def _continued(e: FunctionExpr) -> bool:
    """Whether spectral node e evaluates through its atom's continuation."""
    return not e.name and e.children[0].name in COMPLEX_ATOMS


def _spectral(e: FunctionExpr, w: np.ndarray) -> np.ndarray:
    """Spectral node e at lags w >= 0. At inf the cosine term vanishes
    (Riemann-Lebesgue), leaving mu's mass m(0+); the quadrature takes each
    distinct lag once, ascending, so a column holds one scale. The carrier
    was gated when the node was built."""
    t = _carrier(e)
    drift, m = t.drift, t.density
    out = np.zeros_like(w)
    inf = np.isinf(w)
    if inf.any():
        out[inf] = math.inf if drift > 0.0 else 0.0 if m is None else _ev(m, np.zeros(1))[0]
    body = (w != 0.0) & ~inf
    if _continued(e):
        out[body] = -np.real(1j * w[body] * _ev(e.children[0], 1j * w[body]))
        return out
    lags, back = np.unique(w[body], return_inverse=True)
    quad = 0.0 if m is None else _by_columns(_spectral_integral, m, lags)
    out[body] = (drift * lags * lags + quad)[back]
    return out


def _spectral_integral(m: FunctionExpr, w: np.ndarray) -> np.ndarray:
    """integral_0^inf sin(u) m(u / w) du (= w integral sin(w s) m(s) ds) at
    each lag w > 0: dyadic pieces from pi toward 0 with a geometric rest,
    then the half periods [k pi, (k+1) pi]. These alternate in sign and
    shrink, since m decreases (Longman's method): the first add up directly,
    the last _EULER by Euler's transformation, whose next term joins the
    gated error."""
    f = lambda u: np.sin(u)[:, None] * evaluate(m, np.divide.outer(u, w))
    what = lambda j: f"spectral quadrature at lag {w[j]:g}"
    edges = math.pi * np.concatenate([2.0 ** np.arange(-_DYADIC, 0.0),
                                      np.arange(1.0, _HALF_PERIODS + 1.0)])
    v, e = _gauss_kronrod(f, edges, 1e-12, what)
    head, head_err = _geometric_rest(v[2::-1])
    tail, tail_err = _euler_sum(v[-_EULER:])
    value = v[:-_EULER].sum(0) + head + tail
    return _gated(value, e.sum(0) + head_err + tail_err, 1e-7, what)


def spectral_node(carrier: FunctionExpr | LevyTriple) -> FunctionExpr:
    """The profile drift*h^2 + integral (1 - cos(s h)) mu(ds) of a catalog
    atom with a Levy triple, or of a LevyTriple, whose drift and density
    the node holds. Every spectral node is a variogram in d = 1: the triple
    needs no constant term and no atoms, and a density that no
    continuation covers is checked decreasing on a log grid and
    integrating min(2t, 1)."""
    if isinstance(carrier, LevyTriple):
        _check_measure(carrier)
        density = () if carrier.density is None else (carrier.density,)
        return _node("spectral", "levy", (("drift", float(carrier.drift)),), density)
    return _node("spectral", children=(carrier,))


def _check_measure(t: LevyTriple) -> None:
    if t.atoms:
        raise ConstructionError(
            "spectral construction requires a density representation of the "
            "Levy measure, not atoms"
        )
    if t.constant != 0.0:
        raise ConstructionError(
            "spectral construction requires a vanishing constant term"
        )


def _check_spectral(e: FunctionExpr) -> None:
    """Refuse a spectral node that holds no carrier it can evaluate by,
    and gate a density that no continuation covers."""
    if e.name == "levy":
        if [k for k, _ in e.params] != ["drift"] or len(e.children) > 1:
            raise ConstructionError(
                "a spectral node on a Levy triple holds its drift and at most one density"
            )
    elif e.name != "" or e.params or len(e.children) != 1 or e.children[0].levy is None:
        raise ConstructionError(
            "spectral construction needs a catalog atom carrying a Levy triple, "
            "or a LevyTriple"
        )
    t = _carrier(e)
    _check_measure(t)
    m = t.density
    if m is not None and not _continued(e):
        grid = np.logspace(-3, 3, 61)
        m_vals = evaluate(m, grid)
        rises = np.diff(m_vals)
        if rises.max() > 1e-9 * max(1.0, float(np.abs(m_vals).max())):
            i = int(np.argmax(rises))
            raise ParameterError(
                f"Levy density must be decreasing: m({grid[i]:g}) < m({grid[i + 1]:g})"
            )
        if not _levy_moment_finite(m):
            raise QuadratureError("Levy density fails the spectral check "
                                  "integral min(2t, 1) m(t) dt < inf")


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
        d.update(e.params)
        d["args"] = [expr_to_json(c) for c in e.children]
    return d


def _field(d: dict, key: str, default=None) -> float:
    """The number d[key]; a field without a default is required."""
    if default is None and key not in d:
        raise ParameterError(f"op '{d['op']}' needs '{key}'")
    return _number(d.get(key, default), f"op '{d['op']}' field '{key}'")


# op -> (number of arguments, None if any; own keys; builder from (args, op
# JSON); value rule (node, x) -> values; whether the rule takes only real x)
_OPS = {
    "sum": (None, (), lambda a, d: fsum(*a),
            lambda e, x: functools.reduce(np.add, (_ev(c, x) for c in e.children)), False),
    "product": (None, (), lambda a, d: fprod(*a),
                lambda e, x: functools.reduce(np.multiply, (_ev(c, x) for c in e.children)),
                False),
    "compose": (2, (), lambda a, d: compose(*a),
                lambda e, x: _ev(e.children[0], _clamp_roundoff(_ev(e.children[1], x))), False),
    "power": (1, ("alpha",), lambda a, d: fpow(a[0], _field(d, "alpha")),
              lambda e, x: _clamp_roundoff(_ev(e.children[0], x)) ** e.alpha, False),
    "combine": (2, ("rule", "alpha"),
                lambda a, d: combine(*a, d.get("rule", ""), _field(d, "alpha", math.nan)),
                lambda e, x: _COMBINE[e.name][3](*e.children, x, e.alpha), True),
    "dualize": (1, ("rule",), lambda a, d: dualize(a[0], d.get("rule", "")), _ev_dualize, True),
    "uchiyama": (3, (), lambda a, d: uchiyama(*a), _ev_uchiyama, True),
    # _check_spectral refuses a carrier of another shape
    "spectral": (None, ("rule", "drift"), lambda a, d: _node(
        "spectral", d.get("rule", ""), [("drift", _field(d, "drift"))] if "drift" in d else (),
        a), lambda e, x: _spectral(e, np.abs(x)), True),
    "affine": (1, ("shift", "scale"), lambda a, d: affine(
        a[0], shift=_field(d, "shift", 0.0), scale=_field(d, "scale", 1.0)),
        lambda e, x: e.params_dict["shift"] + e.params_dict["scale"] * _ev(e.children[0], x),
        False),
}


def expr_from_json(d: dict) -> FunctionExpr:
    """Rebuild an expression; a "tags" key, or any key the node's kind does
    not take, at any node is refused."""
    if not isinstance(d, dict):
        raise ParameterError(f"expression JSON must be an object, got {type(d).__name__}")
    if "tags" in d:
        raise ParameterError("expression 'tags' is refused: cone tags are derived from the tree")
    if "atom" in d:
        if not isinstance(d["atom"], str):
            raise ParameterError(f"expression 'atom' must be a name, got {d['atom']!r}")
        _known_keys(d, ("atom", "params"), f"expression atom '{d['atom']}'")
        return catalog(d["atom"], _json_field(d, "params", dict, {}, "an object"))
    if "op" in d:
        op = d["op"]
        if not isinstance(op, str) or op not in _OPS:
            raise ParameterError(
                f"unknown expression op '{op}'; expected one of {', '.join(_OPS)}")
        arity, own, build, *_ = _OPS[op]
        _known_keys(d, ("op", "args", *own), f"expression op '{op}'")
        args = [expr_from_json(a) for a in _json_field(d, "args", list, [], "a list")]
        if arity is not None and len(args) != arity:
            raise ParameterError(f"{op} takes exactly {arity} argument(s), got {len(args)}")
        return build(args, d)
    raise ParameterError("expression JSON needs an 'atom' or an 'op' key")


def _known_keys(d: dict, keys: tuple, what: str) -> None:
    """Refuse a key of the JSON object d outside keys; what names d."""
    unknown = [repr(k) for k in d if k not in keys]
    if unknown:
        raise ParameterError(f"{what} has unknown key(s) {', '.join(unknown)}; "
                             f"it takes {', '.join(keys)}")


def _json_field(d: dict, key: str, kind: type, default, what: str):
    """d[key] (or default) if it is a kind, else ParameterError naming what."""
    v = d.get(key, default)
    if not isinstance(v, kind):
        raise ParameterError(f"expression '{key}' must be {what}, got {v!r}")
    return v
