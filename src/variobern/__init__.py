"""Variogram and covariance models from Bernstein-function combinators.

The package has three layers: an expression algebra over catalogued
profile functions with cone-membership certificates (algebra, atoms),
numerical permissibility oracles on finite point sets and grids (checks),
and model construction plus a desk-scale kriging/simulation harness
(models, kernels, kriging). The cli module exposes the same surface as
a command-line tool.
"""

from . import algebra, checks, errors, kernels, kriging, models, points
from .algebra import *
from .checks import *
from .errors import *
from .kernels import *
from .kriging import *
from .models import *
from .points import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (algebra, checks, errors, kernels, kriging, models, points)
    for name in module.__all__
]
