"""Kernels derived from a base variogram by shifts, sums, and the spectral
route from a Lévy representation.

For a variogram gamma and a fixed shift eta,

    difference kernel:  gamma(xi+eta) + gamma(xi-eta) - 2 gamma(xi)
    sum kernel:         2 gamma(eta) + 2 gamma(xi) - gamma(xi+eta) - gamma(xi-eta)

are a stationary covariance and a variogram respectively, tied together by
the exact identity difference + sum = 2 gamma(eta). The nonstationary kernel
g(|xi1|) + g(|xi2|) - g(|xi1 - xi2|) generalizes the fractional-Brownian
covariance. The spectral construction turns a drift + decreasing-density
Lévy carrier f into the one-dimensional variogram
drift * xi^2 + integral (1 - cos(s xi)) mu(ds) with m(t) = mu[t, inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import FunctionExpr
from .errors import ConstructionError
from .models import Variogram, make_variogram
from .points import PointSet, write_points_csv

__all__ = [
    "ShiftKernelPair",
    "shift_pair",
    "difference_kernel",
    "sum_kernel",
    "NonstationaryKernel",
    "nonstationary_kernel",
    "spectral_variogram",
    "spectral_reference",
    "tabulate_kernel_csv",
]


def difference_kernel(gamma: Variogram, eta):
    """xi -> gamma(xi+eta) + gamma(xi-eta) - 2 gamma(xi); PD for variogram bases."""
    eta = np.asarray(eta, dtype=float).reshape(gamma.d)

    def kernel(xi):
        return gamma(xi + eta) + gamma(xi - eta) - 2.0 * gamma(xi)

    return kernel


def sum_kernel(gamma: Variogram, eta):
    """xi -> 2 gamma(eta) + 2 gamma(xi) - gamma(xi+eta) - gamma(xi-eta).

    Symmetric in (xi, eta), so the same closure serves both argument slots.
    """
    eta = np.asarray(eta, dtype=float).reshape(gamma.d)
    g_eta = float(gamma(eta[None, :])[0])

    def kernel(xi):
        return 2.0 * g_eta + 2.0 * gamma(xi) - gamma(xi + eta) - gamma(xi - eta)

    return kernel


@dataclass(frozen=True)
class ShiftKernelPair:
    """The difference/sum kernel pair of one base variogram and shift."""

    base: Variogram
    eta: np.ndarray

    @property
    def difference(self):
        return difference_kernel(self.base, self.eta)

    @property
    def sum(self):
        return sum_kernel(self.base, self.eta)

    def identity_gap(self, xi) -> np.ndarray:
        """difference + sum - 2 gamma(eta); zero in exact arithmetic."""
        g_eta = float(self.base(np.asarray(self.eta, float)[None, :])[0])
        return self.difference(xi) + self.sum(xi) - 2.0 * g_eta


def shift_pair(gamma: Variogram, eta) -> ShiftKernelPair:
    return ShiftKernelPair(gamma, np.asarray(eta, dtype=float).reshape(gamma.d))


@dataclass(frozen=True)
class NonstationaryKernel:
    """K(xi1, xi2) = g(|xi1|) + g(|xi2|) - g(|xi1 - xi2|) with g(0) = 0."""

    g: object  # evaluable on r >= 0
    d: int

    def _radial(self, xi):
        r = np.sqrt(np.einsum("...i,...i->...", xi, xi))
        return np.asarray(self.g(r), dtype=float)

    def __call__(self, xi1, xi2):
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        return self._radial(xi1) + self._radial(xi2) - self._radial(xi1 - xi2)

    def gram(self, pts: PointSet) -> np.ndarray:
        x = pts.coords
        return self(x[:, None, :], x[None, :, :])


def nonstationary_kernel(g, d: int) -> NonstationaryKernel:
    """Build the two-argument kernel; requires g(0) = 0 so K(0, .) vanishes."""
    g0 = float(np.asarray(g(np.zeros(1)))[0])
    if abs(g0) > 1e-12:
        raise ConstructionError(f"nonstationary kernel requires g(0) = 0, got {g0!r}")
    return NonstationaryKernel(g, d)


# ----------------------------------------------------------------------
# spectral construction

def spectral_variogram(f: FunctionExpr) -> Variogram:
    """One-dimensional variogram from a drift + density Lévy carrier.

    algebra.spectral_node requires a vanishing constant term. The resulting
    model evaluates gamma(xi) = drift * xi^2 + integral (1 - cos(s xi)) mu(ds)
    as -Re(i xi f(i xi)) for a continued catalog atom carrying its own Lévy
    triple, which the catalog states and so is not gated numerically. Any
    other carrier's density m is gated (decreasing, integrating min(2t, 1))
    and gamma is drift * xi^2 + xi integral sin(s xi) m(s) ds by
    Gauss-Kronrod quadrature, its tail summed over half periods: each
    distinct lag of a call once, with no cache between calls.
    """
    return make_variogram(alg.spectral_node(f), d=1, mode="norm",
                          construction=f"spectral_variogram({alg.describe(f)})")


def spectral_reference(f: FunctionExpr, xi):
    """-Re(i xi f(i xi)) where f extends analytically, whatever Lévy triple
    f carries; tests compare the spectral construction against it."""
    x = np.asarray(xi, dtype=float)
    z = 1j * x
    vals = alg.evaluate_complex(f, z)
    out = -np.real(z * vals)
    return float(out) if np.isscalar(xi) or x.ndim == 0 else out


def tabulate_kernel_csv(kernel, coords, path) -> None:
    """Write kernel values on the points coords ((n, d), or (n,) in d = 1) in
    the site CSV format of points.write_points_csv; no points, or a coordinate
    or value that is not finite, raises ParameterError before opening path."""
    x = PointSet(coords).coords
    write_points_csv(PointSet(x, kernel(x)), path)
